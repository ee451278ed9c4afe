"""Command line surface: the graph spec language, every subcommand, exit
codes, and JSON side outputs."""

import argparse
import ast
import inspect
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction

import pytest

import sizeramsey
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
    is_connected,
    make_double_star,
    parse_graph6,
    path_graph,
    star,
)
from sizeramsey import colorings
from sizeramsey.cli import _sample_pairs, build_parser, main, parse_graph_spec
from sizeramsey.verify import certificate_to_json


def run_module(*argv: str, timeout: float | None = None, preexec_fn=None):
    """`python -m sizeramsey argv` in a child process on this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sizeramsey.__file__)))
    return subprocess.run([sys.executable, "-m", "sizeramsey", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": src},
                          preexec_fn=preexec_fn)


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


def test_analyze_odd_cycle_reports_no_beta(capsys, tmp_path):
    # beta is written only for a connected bipartite target
    out = tmp_path / "a.json"
    assert main(["analyze", "cycle:5", "--json-out", str(out)]) == 0
    assert "beta" not in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["bipartite"] is False and "beta" not in doc


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


def test_certify_affine_default_host_is_the_capacity_clique(capsys):
    # q = 2 and cells of (5 - 1) // 2 = 2 vertices give AG(2, 2)'s 8
    rc = main(["certify", "--strategy", "affine", "--target", "path:5",
               "-r", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    # n = 5 is below the guidance n >= r^2, which only the certificate says
    assert doc["parameters"]["below_recommended_n"] is True
    assert same(parse_graph6(doc["host_graph6"]), complete_graph(8))
    assert "host: 8 vertices, 28 edges" in captured.err
    assert "verdict: verified" in captured.err


def test_verify_flags_refuted_certificate(capsys, tmp_path):
    # a one-color K5 plainly contains the path, so verification must refute
    host = complete_graph(5)
    col = EdgeColoring(host, 2, {e: 1 for e in host.edges})
    cert = Certificate(target=path_graph(3), r=2, coloring=col,
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


@pytest.mark.parametrize("target, vertices, edges", [
    ("path:4", 2, 1), ("biclique:2,3", 3, 2),
])
def test_default_host_below_three_edges_is_connected(capsys, target, vertices,
                                                     edges):
    # beck's bound of 2 or 3 leaves 1 or 2 host edges, which 4 vertices
    # could never connect
    assert main(["certify", "--strategy", "beck", "--target", target]) == 0
    captured = capsys.readouterr()
    assert f"host: {vertices} vertices, {edges} edges" in captured.err
    assert is_connected(parse_graph6(json.loads(captured.out)["host_graph6"]))


def test_default_host_with_no_edges_is_exit_2(capsys):
    # beck's bound for a single edge is 1/2, below every host with an edge
    assert main(["certify", "--strategy", "beck", "--target", "star:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the bound 1/2 admits no host with edges" in captured.err


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


@pytest.mark.parametrize("argv", [
    ["analyze", "biclique:3,-1"],
    ["certify", "--strategy", "beck", "--target", "path:6",
     "--host", "biclique:3,-1"],
], ids=["analyze", "certify"])
def test_negative_biclique_side_is_exit_2(capsys, argv):
    # once an edgeless graph on 2 vertices, which certify then verified
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "nonnegative" in captured.err


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
    plain = capsys.readouterr().out
    # 4 edges split into two colors of two, so K_{1,3} needs 5
    assert plain == "open: lower 5, upper none found (0 hosts hit the budget)\n"
    # --cross-check prints its bound lines, then the same bracket
    assert main(["exact", "--target", "star:3", "-r", "2", "--emax", "3",
                 "--cross-check"]) == 3
    assert capsys.readouterr().out.endswith("\n" + plain)


def test_exact_cross_check_violation_is_exit_1(capsys, monkeypatch):
    from sizeramsey import oracle
    monkeypatch.setattr(oracle, "lower_bound_value",
                        lambda h, r: (Fraction(4), "planted"))
    assert main(["exact", "--target", "star:2", "-r", "2", "--emax", "3",
                 "--cross-check"]) == 1
    assert ("VIOLATION: an arrowing host with 3 edges beats the planted "
            "lower bound 4\n") in capsys.readouterr().out


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
    assert "lower bound: 3 via pigeonhole" in text
    assert "VIOLATION" not in text
    # the bound lines, then exactly what plain exact prints
    assert main(["exact", "--target", "star:2", "-r", "2", "--emax", "3"]) == 0
    plain = capsys.readouterr().out
    assert plain.startswith("exact value: 3 (search nodes:")
    assert text.endswith("\n" + plain)


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


@pytest.mark.parametrize("seeds, message", [
    ("5:5", "empty seed range '5:5'"),
    ("a:b", "seed range must be START:STOP, got 'a:b'"),
    ("abc", "seeds must be an integer or START:STOP, got 'abc'"),
], ids=["5:5", "a:b", "abc"])
def test_simulate_bad_seed_range(capsys, seeds, message):
    assert main(["simulate", "--tree", "path:4", "-A", "1", "-B", "40",
                 "--seeds", seeds]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-3"])
def test_simulate_rejects_an_empty_worst_of_k_before_any_output(capsys, k):
    assert main(["simulate", "--tree", "path:4", "-A", "1", "-B", "40",
                 "--adversary", "worst_of_k", "-k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"worst_of_k needs k >= 1, got {k}" in captured.err


def test_simulate_rejects_nontrees(capsys):
    assert main(["simulate", "--tree", "cycle:4", "-A", "1", "-B", "40"]) == 2
    assert "simulate needs a tree target" in capsys.readouterr().err


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


def test_every_subcommand_option_is_read_by_its_handler():
    # an option the handler never reads is accepted and silently ignored
    (subcommands,) = [a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, sub in subcommands.choices.items():
        handler = sub.get_default("func")
        read = {node.attr for node in ast.walk(ast.parse(
                    inspect.getsource(handler)))
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        unread += [f"{name} {a.dest}" for a in sub._actions
                   if a.dest != "help" and a.dest not in read]
    assert unread == []


@pytest.mark.parametrize("argv", [
    ["analyze", "cycle:5", "--beta"],
    ["certify", "--strategy", "beck", "--target", "path:4", "--json-out", "F"],
    ["verify", "cert.json", "--json-out", "F"],
    ["verify", "cert.json", "--format", "edgelist"],
    ["plane-dump", "-q", "3", "--format", "edgelist"],
    # gen2 picks its own subcase; only the library keyword forces one
    ["certify", "--strategy", "gen2", "--target", "path:6", "--case3-split", "3.2"],
], ids=["analyze-beta", "certify-json-out", "verify-json-out", "verify-format",
        "plane-dump-format", "certify-case3-split"])
def test_options_a_subcommand_does_not_read_are_refused(capsys, tmp_path,
                                                        monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["certify", "--strategy", "beck", "--target", "path:4",
                 "--out", "cert.json"]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err
    assert os.listdir(tmp_path) == ["cert.json"]


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


@pytest.mark.parametrize("argv, message", [
    (["--strategy", "affine", "--target", "path:4"], "too small"),
    (["--strategy", "affine", "--target", "path:4", "--host", "complete:3"],
     "exceeds the affine blow-up"),
    (["--strategy", "chi3", "--target", "cycle:3", "--host", "complete:5"],
     "the largest field size"),
], ids=["affine", "affine-host", "chi3"])
def test_palette_beyond_every_plane_is_exit_2_at_once(argv, message):
    # no prime power is searched for: the affine cells are empty, and chi3's
    # plane would exceed every field, whatever q turned out to be; a child
    # process with a timeout keeps a regression from hanging the suite
    run = run_module("certify", *argv, "-r", str(10 ** 18), timeout=10)
    assert run.returncode == 2 and run.stdout == ""
    assert "error:" in run.stderr and message in run.stderr


def _cap_address_space():
    # 1 GiB: a regression then fails in the child with a MemoryError
    # instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv, message", [
    (["certify", "--strategy", "weakbip", "--target", "cycle:4", "-r", "100000"],
     "--host"),
    (["embed", "--tree", "path:30", "-r", "1000"], "--host"),
    (["analyze", "complete:100000"], "4999950000 edges"),
    (["analyze", "biclique:100000,100000"], "10000000000 edges"),
    (["analyze", "path:10000000"], "10000000 vertices"),
    (["analyze", "empty:100000000"], "100000000 vertices"),
    (["certify", "--strategy", "beck", "--target", "path:4",
      "--host", "complete:50000"], "1249975000 edges"),
], ids=["certify", "embed", "complete", "biclique", "path", "empty",
        "certify-host"])
def test_hosts_too_large_to_build_are_exit_2(argv, message):
    # default hosts of 10^10 and 9 * 10^8 edges, then spec-built graphs
    # over the limit in edges or in vertices, refused before anything is
    # allocated
    run = run_module(*argv, timeout=10, preexec_fn=_cap_address_space)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error:") and message in run.stderr


def test_edge_list_over_the_vertex_limit_is_refused(tmp_path):
    f = tmp_path / "huge.edges"
    f.write_text(f"{10 ** 12}\n0 1\n")
    with pytest.raises(DomainError, match="1000000000000 vertices"):
        parse_graph_spec(str(f), fmt="edgelist")
    # refused before analyze does anything per vertex
    run = run_module("analyze", "--format", "edgelist", str(f), timeout=10,
                     preexec_fn=_cap_address_space)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error:") and "1000000000000 vertices" in run.stderr
    # a header at the limit still builds
    f.write_text(f"{10 ** 6}\n0 1\n")
    assert parse_graph_spec(str(f), fmt="edgelist").vertex_count == 10 ** 6


@pytest.mark.parametrize("n, k, seed", [
    (2, 1, 0), (4, 3, 1), (5, 10, 2), (7, 5, 3), (7, 21, 4), (8, 6, 5),
    (30, 100, 6), (50, 300, 7), (200, 5, 8),
])
def test_host_pairs_are_drawn_as_from_the_list_of_pairs(n, k, seed):
    # random.sample copies a small population into a pool, as for the
    # first five lists of at most 21 pairs, and keeps a set of picked
    # positions for a large one, as for the last two.  Three draws from one
    # generator stand for _auto_host's retries
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    got, want = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert _sample_pairs(got, n, k) == want.sample(pairs, k)


def test_exact_negative_budget_is_exit_2(capsys):
    assert main(["exact", "--target", "path:3", "--emax", "3",
                 "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "node_budget" in captured.err


def test_edgeless_affine_host_at_a_huge_palette_is_certified_at_once():
    # with every cell empty no prime power is searched for, on an edgeless
    # host too, whose plan then records q = 0
    run = run_module("certify", "--strategy", "affine", "--target", "path:4",
                     "--host", "complete:1", "-r", str(10 ** 18), timeout=10)
    assert run.returncode == 0 and "verdict: verified" in run.stderr
    params = json.loads(run.stdout)["parameters"]
    assert (params["q"], params["cell_size"], params["capacity"]) == (0, 0, 0)


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
    run = run_module("analyze", "path:4")
    assert run.returncode == 0 and "edges: 3" in run.stdout
    assert run_module().returncode == 2
