"""Command line surface: the graph spec language, every subcommand, exit
codes, and JSON side outputs."""

import json

import pytest

from sizeramsey import (
    ColoringPlan,
    Certificate,
    DomainError,
    EdgeColoring,
    Graph,
    Graph6Error,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    emit_graph6,
    make_double_star,
    parse_graph6,
    path_graph,
    star,
)
from sizeramsey import colorings
from sizeramsey.cli import main, parse_graph_spec
from sizeramsey.verify import certificate_to_json


def same(a: Graph, b: Graph) -> bool:
    return a.vertex_count == b.vertex_count and a.sorted_edges() == b.sorted_edges()


# ---------------------------------------------------------------------------
# spec language


def test_spec_families():
    assert same(parse_graph_spec("path:4"), path_graph(4))
    assert same(parse_graph_spec("star:3"), star(3))
    assert same(parse_graph_spec("dstar:2,3"), make_double_star(2, 3))
    assert same(parse_graph_spec("cycle:5"), cycle_graph(5))
    assert same(parse_graph_spec("complete:4"), complete_graph(4))
    assert same(parse_graph_spec("biclique:2,3"), complete_bipartite(2, 3))
    assert parse_graph_spec("empty:3").edge_count == 0
    assert same(parse_graph_spec("g6:Ch"), path_graph(4))


def test_spec_raw_graph6_and_files(tmp_path):
    assert same(parse_graph_spec("Ch"), path_graph(4))

    f = tmp_path / "g.g6"
    f.write_text(emit_graph6(cycle_graph(5)) + "\n")
    assert same(parse_graph_spec(str(f)), cycle_graph(5))

    f2 = tmp_path / "g.edges"
    f2.write_text("4\n0 1\n1 2\n2 3\n")
    assert same(parse_graph_spec(str(f2), fmt="edgelist"), path_graph(4))


def test_spec_rejections():
    with pytest.raises(DomainError):
        parse_graph_spec("wheel:5")
    with pytest.raises(DomainError):
        parse_graph_spec("path:x")
    with pytest.raises(DomainError):
        parse_graph_spec("dstar:3")  # needs two integers
    with pytest.raises(DomainError):
        parse_graph_spec("/no/such/file.g6!!")


# ---------------------------------------------------------------------------
# analyze


def test_analyze_tree(capsys, tmp_path):
    out = tmp_path / "a.json"
    assert main(["analyze", "path:4", "-r", "2", "--json-out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "vertices: 4" in text
    assert "lower bound (r=2):" in text
    assert "upper bound (r=2):" in text
    doc = json.loads(out.read_text())
    assert doc["tree"] is True
    assert doc["lower_bound"]["tag"]
    assert doc["upper_bound_host"] == list(doc["upper_bound_host"])


def test_analyze_beta_flag_rejects_odd_cycle(capsys):
    assert main(["analyze", "cycle:5", "--beta"]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_star_notes_exact_formula(capsys):
    assert main(["analyze", "star:4"]) == 0
    assert "exact value r*(m-1)+1" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# certify / verify round trip


def test_certify_writes_verifiable_certificate(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    rc = main(["certify", "--strategy", "beck", "--target", "biclique:2,3",
               "-r", "2", "--out", str(cert_file)])
    err = capsys.readouterr().err
    assert rc == 0
    assert "verdict: verified" in err
    doc = json.loads(cert_file.read_text())
    assert doc["schema_version"] == 1

    rc = main(["verify", str(cert_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "recomputed verdict: verified" in out


def test_certify_stdout_is_certificate_json(capsys):
    rc = main(["certify", "--strategy", "double_star_2col", "--target",
               "dstar:2,2", "-r", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    assert doc["theorem_tag"] == "double_star_2col"


def test_certify_out_dash_is_stdout(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["certify", "--strategy", "beck", "--target", "biclique:2,3",
               "-r", "2", "--out", "-"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["theorem_tag"] == "beck"
    assert list(tmp_path.iterdir()) == []


def test_verify_flags_refuted_certificate(capsys, tmp_path):
    # a one-color K5 plainly contains the path, so verification must refute
    host = complete_graph(5)
    col = EdgeColoring(host, 2, {e: 1 for e in host.edges})
    cert = Certificate(host=host, target=path_graph(3), r=2, coloring=col,
                       plan=ColoringPlan(strategy="handmade"),
                       claimed_bound=100, theorem_tag="handmade",
                       verdict="unverified")
    f = tmp_path / "bad.json"
    f.write_text(certificate_to_json(cert))
    rc = main(["verify", str(f)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "recomputed verdict: refuted" in out
    assert "witness:" in out and "mono_copy" in out


def test_verify_refutes_an_edited_bound(capsys, tmp_path):
    # the coloring holds no P6, but beck's bound for P6 is 3, not 10^6
    cert_file = tmp_path / "cert.json"
    assert main(["certify", "--strategy", "beck", "--target", "path:6",
                 "--host", "path:3", "-r", "2", "--out", str(cert_file)]) == 0
    doc = json.loads(cert_file.read_text())
    doc["claimed_bound"] = {"num": 10 ** 6, "den": 1}
    cert_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(cert_file)]) == 1
    out = capsys.readouterr().out
    assert "recomputed verdict: refuted" in out
    assert '"kind": "bound"' in out


def test_verify_missing_and_garbage_files(capsys, tmp_path):
    assert main(["verify", str(tmp_path / "absent.json")]) == 2
    junk = tmp_path / "junk.json"
    junk.write_text("{\"schema_version\": 99}")
    assert main(["verify", str(junk)]) == 2
    assert "error:" in capsys.readouterr().err


def test_certify_budget_exhaustion_is_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(colorings, "_MAX_RETRIES", 0)
    rc = main(["certify", "--strategy", "chi3", "--target", "cycle:5", "-r", "2"])
    assert rc == 3
    assert "budget exhausted:" in capsys.readouterr().err


def test_certify_has_no_retry_option(capsys):
    assert main(["certify", "--strategy", "chi3", "--target", "cycle:5",
                 "-r", "2", "--max-retries", "5"]) == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# embed


def test_embed_default_host(capsys, tmp_path):
    out = tmp_path / "e.json"
    rc = main(["embed", "--tree", "path:4", "-r", "2", "--seed", "3",
               "--json-out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "monochromatic copy in color" in text
    doc = json.loads(out.read_text())
    assert doc["tree_graph6"] == "Ch"
    assert len(doc["mapping"]) == 4


def test_embed_explicit_host(capsys):
    assert main(["embed", "--tree", "star:2", "--host", "biclique:5,9"]) == 0
    assert "host: 14 vertices" in capsys.readouterr().out


def test_embed_rejects_nontrees(capsys):
    assert main(["embed", "--tree", "cycle:4"]) == 2
    assert main(["embed", "--tree", "empty:3"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exact


def test_exact_resolves_smallest_star(capsys, tmp_path):
    out = tmp_path / "x.json"
    rc = main(["exact", "--target", "star:2", "-r", "2", "--emax", "4",
               "--json-out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "exact value: 3" in text
    assert "minimal arrowing host: Bw" in text
    assert json.loads(out.read_text())["value"] == 3


def test_exact_open_is_exit_3(capsys):
    assert main(["exact", "--target", "star:3", "-r", "2", "--emax", "3"]) == 3
    assert "open: lower 4" in capsys.readouterr().out


def test_exact_has_no_vertex_cap(capsys):
    # a cap cut off P4's 7-edge host D}g yet still reported lower 11
    assert main(["exact", "--target", "path:4", "-r", "2", "--emax", "10",
                 "--vmax", "4"]) == 2
    assert capsys.readouterr().out == ""


def test_exact_cross_check(capsys):
    rc = main(["exact", "--target", "star:2", "-r", "2", "--emax", "3",
               "--cross-check"])
    text = capsys.readouterr().out
    assert rc == 0
    assert "lower bound: 3 via star_exact" in text
    assert "exact value: 3" in text
    assert "VIOLATION" not in text


# ---------------------------------------------------------------------------
# simulate


def test_simulate_small_tree(capsys, tmp_path):
    out = tmp_path / "trials.jsonl"
    rc = main(["simulate", "--tree", "path:4", "-A", "1.0", "-B", "40.0",
               "-r", "2", "--seeds", "0:3", "--json-out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert text.startswith("N=8 ")
    assert "verified 3/3 trials (100.0%)" in text
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert all(json.loads(line)["verified"] for line in lines)


@pytest.mark.parametrize("constants", [
    ["-A", "nan", "-B", "40"],
    ["-A", "inf", "-B", "40"],
    ["-A", "1e308", "-B", "40"],
    ["-A", "1e-300", "-B", "40"],
    ["-A", "1", "-B", "nan"],
    ["-A", "1", "-B", "inf"],
    # b*r*log(r) overflows although b is finite
    ["-A", "1", "-B", "1e308", "-r", "3"],
], ids=lambda argv: " ".join(argv))
def test_simulate_rejects_constants_without_a_host(capsys, constants):
    assert main(["simulate", "--tree", "path:4"] + constants) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_simulate_bad_seed_range(capsys):
    assert main(["simulate", "--tree", "path:4", "-A", "1", "-B", "40",
                 "--seeds", "5:5"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# plane-dump and parser plumbing


def test_plane_dump(capsys, tmp_path):
    out = tmp_path / "p.json"
    rc = main(["plane-dump", "-q", "2", "--json-out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "AG(2, 2): 4 points, 6 lines, 3 parallel classes" in text
    doc = json.loads(out.read_text())
    assert doc["points"] == 4
    assert len(doc["lines"]) == 6


def test_plane_dump_nonprime_power(capsys):
    assert main(["plane-dump", "-q", "6"]) == 2
    capsys.readouterr()


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["certify", "--strategy", "nope", "--target", "path:4"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_palette_below_one_is_exit_2(capsys):
    for argv in (["embed", "--tree", "path:3", "-r", "0"],
                 ["embed", "--tree", "path:3", "-r", "0", "--host", "biclique:3,3"],
                 ["certify", "--strategy", "beck", "--target", "biclique:2,3",
                  "-r", "0"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv


@pytest.mark.parametrize("argv", [
    ["analyze", "path:3"],
    ["analyze", "empty:3"],
    ["certify", "--strategy", "beck", "--target", "biclique:2,3"],
    ["embed", "--tree", "path:3"],
    ["exact", "--target", "star:2"],
    ["simulate", "--tree", "path:4", "-A", "1", "-B", "40"],
], ids=lambda argv: "-".join(argv[:2]))
def test_palette_below_one_prints_nothing(capsys, argv):
    assert main(argv + ["-r", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_unreadable_inputs_are_exit_2(capsys, tmp_path):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    binary = tmp_path / "binary.g6"
    binary.write_bytes(b"\xff\xfe\x00\x81graph")
    folder = tmp_path / "folder"
    folder.mkdir()
    for argv in (["analyze", str(empty)], ["analyze", str(binary)],
                 ["analyze", str(folder)], ["analyze", "g6:é"],
                 ["analyze", "é"], ["verify", str(binary)],
                 ["verify", str(folder)], ["verify", str(empty)],
                 ["analyze", "path:4", "--json-out", str(folder)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv
    with pytest.raises(Graph6Error):
        parse_graph6("Ché")


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys

    import sizeramsey

    src = os.path.dirname(os.path.dirname(os.path.abspath(sizeramsey.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-m", "sizeramsey", "analyze", "path:4"],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0 and "edges: 3" in run.stdout
    run = subprocess.run([sys.executable, "-m", "sizeramsey"],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 2
