"""Command line interface.

Exit codes: 0 success or verified, 1 refuted or failed, 2 usage, parse,
or domain errors, 3 retry or search budget exhausted.

Graph arguments accept a small spec language (path:N, star:M, dstar:N,M,
cycle:N, complete:N, biclique:A,B, empty:N, g6:STRING), a file path, or a
raw graph6 string; --format selects the file format.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

from .colorings import (
    STRATEGIES,
    _affine_cells,
    certify,
    lower_bound_value,
    strategy_bound,
)
from .embed import embed_host, embed_host_sides, ramsey_embed_test, upper_bound_value
from .errors import (
    CapacityError,
    CertificateValidationError,
    ConstructionError,
    DomainError,
    EdgeListError,
    Graph6Error,
    LasVegasError,
)
from .expander import ExpanderParams, appendix_trial
from .geometry import make_affine_plane
from .graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    emit_graph6,
    is_bipartite,
    is_connected,
    is_double_star,
    is_star,
    is_tree,
    make_double_star,
    parse_edge_list,
    parse_graph6,
    path_graph,
    profile,
    star,
)
from .oracle import _NODE_BUDGET, cross_check_bounds, size_ramsey_exact
from .verify import (
    EdgeColoring,
    certificate_from_json,
    certificate_to_json,
    verify_certificate,
)

__all__ = ["MAX_BUILT_HOST_EDGES", "build_parser", "main", "parse_graph_spec"]


def _ints(text: str, count: int, what: str) -> list[int]:
    parts = text.split(",")
    if len(parts) != count:
        raise DomainError(f"{what} needs {count} comma-separated integers, got {text!r}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise DomainError(f"{what} needs integers, got {text!r}")


# graphs the CLI builds itself, from a spec or as a default host, stop at
# this many edges (and, for a spec, vertices): more would exhaust memory
# before any search began
MAX_BUILT_HOST_EDGES = 10 ** 6


# each spec family: (how many integers it takes, its builder, the vertex
# and edge counts of the graph built from nonnegative integers; the
# builders reject negative ones themselves, before allocating anything)
_SPEC_FAMILIES = {
    "path": (1, path_graph, lambda n: (n, n - 1)),
    "star": (1, star, lambda m: (m + 1, m)),
    "dstar": (2, make_double_star, lambda n, m: (n + m + 2, n + m + 1)),
    "cycle": (1, cycle_graph, lambda n: (n, n)),
    "complete": (1, complete_graph, lambda n: (n, n * (n - 1) // 2)),
    "biclique": (2, complete_bipartite, lambda a, b: (a + b, a * b)),
    "empty": (1, empty_graph, lambda n: (n, 0)),
}


def parse_graph_spec(spec: str, fmt: str = "graph6") -> Graph:
    """Build a graph from a spec string, a file path, or raw graph6.  A
    spec for more than MAX_BUILT_HOST_EDGES vertices or edges is refused
    before it is built, and so is an edge list whose header declares more
    than MAX_BUILT_HOST_EDGES vertices: reading one allocates nothing per
    vertex, but everything the CLI then does with it would."""
    if ":" in spec:
        head, _, rest = spec.partition(":")
        if head in _SPEC_FAMILIES:
            count, build, size = _SPEC_FAMILIES[head]
            ints = _ints(rest, count, head)
            if min(ints) >= 0:
                n, e = size(*ints)
                if max(n, e) > MAX_BUILT_HOST_EDGES:
                    raise DomainError(
                        f"{spec!r} has {n} vertices and {e} edges, over the "
                        f"CLI's limit of {MAX_BUILT_HOST_EDGES} for either")
            return build(*ints)
        if head == "g6":
            return parse_graph6(rest)
        raise DomainError(
            f"unknown graph spec {spec!r}; use path:N, star:M, dstar:N,M, "
            "cycle:N, complete:N, biclique:A,B, empty:N, g6:STRING, or a file path"
        )
    if os.path.exists(spec):
        text = _read_text(spec)
        if fmt == "edgelist":
            g = parse_edge_list(text)
            if g.vertex_count > MAX_BUILT_HOST_EDGES:
                raise DomainError(
                    f"{spec!r} has {g.vertex_count} vertices, over the CLI's "
                    f"limit of {MAX_BUILT_HOST_EDGES}")
            return g
        lines = text.strip().splitlines()
        return parse_graph6(lines[0] if lines else "")
    try:
        return parse_graph6(spec)
    except Graph6Error:
        raise DomainError(
            f"{spec!r} is neither a graph spec, an existing file, nor valid graph6"
        )


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; a file that cannot be opened or decoded is
    a DomainError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path!r}: {exc}") from None


def _write_text(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout for None or '-'."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(doc: dict, path: str | None) -> None:
    _write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", path)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    g = parse_graph_spec(args.target, args.format)
    r = args.r
    if r < 1:  # before any output, whether or not a bound is computed
        raise DomainError(f"need r >= 1, got {r}")
    doc: dict = {
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "max_degree": g.max_degree(),
        "connected": is_connected(g),
        "bipartite": is_bipartite(g),
        "tree": is_tree(g),
        "r": r,
    }
    print(f"vertices: {doc['vertices']}")
    print(f"edges: {doc['edges']}")
    print(f"max degree: {doc['max_degree']}")
    print(f"connected: {'yes' if doc['connected'] else 'no'}")
    print(f"bipartite: {'yes' if doc['bipartite'] else 'no'}")
    print(f"tree: {'yes' if doc['tree'] else 'no'}")
    if doc["bipartite"] and doc["connected"] and g.edge_count >= 1:
        p = profile(g)
        doc["profile"] = {"n1": p.n1, "delta1": p.delta1,
                          "n2": p.n2, "delta2": p.delta2}
        doc["beta"] = p.beta
        print(f"profile: n1={p.n1} delta1={p.delta1}  n2={p.n2} delta2={p.delta2}")
        print(f"beta: {doc['beta']}")
        if is_star(g):
            print(f"star with {g.edge_count} edges: exact value r*(m-1)+1 applies")
        ds = is_double_star(g)
        if ds is not None:
            doc["double_star"] = list(ds)
            print(f"double star S_{{{ds[0]},{ds[1]}}}")
    if doc["connected"] and g.edge_count >= 1:
        value, tag = lower_bound_value(g, r)
        doc["lower_bound"] = {"num": value.numerator, "den": value.denominator,
                              "tag": tag}
        shown = str(value) if value.denominator > 1 else str(value.numerator)
        print(f"lower bound (r={r}): {shown} via {tag}")
        if doc["tree"]:
            ub = upper_bound_value(g, r)
            a, b = embed_host_sides(g, r)
            doc["upper_bound"] = ub
            doc["upper_bound_host"] = [a, b]
            print(f"upper bound (r={r}): {ub} via the complete bipartite host "
                  f"on {a}+{b} vertices")
    if args.json_out is not None:
        _emit_json(doc, args.json_out)
    return 0


def _require_buildable(edges: int) -> None:
    if edges > MAX_BUILT_HOST_EDGES:
        raise DomainError(f"a host of {edges} edges is over the CLI's limit of "
                          f"{MAX_BUILT_HOST_EDGES}; pass one with --host")


def _auto_host(strategy: str, target: Graph, r: int, seed: int) -> Graph:
    """A host at the edge threshold: ceil(bound)-1 edges on at most one
    vertex more, dense enough to be connected, resampled until it is
    (affine gets the capacity clique); one above MAX_BUILT_HOST_EDGES is
    refused before it is built."""
    if strategy == "affine":
        capacity = _affine_cells(r, target.vertex_count)[2]
        if capacity < 2:
            raise DomainError(
                f"target on {target.vertex_count} vertices is too small for an "
                f"affine host at r={r}"
            )
        _require_buildable(math.comb(capacity, 2))
        return complete_graph(capacity)
    bound = strategy_bound(strategy, target, r)
    e_host = math.ceil(bound) - 1
    if e_host < 1:
        raise DomainError(f"the bound {bound} admits no host with edges")
    _require_buildable(e_host)
    n = max(4, math.isqrt(4 * e_host))  # holds e_host edges for every e_host >= 1
    n = min(n, e_host + 1)  # 1 or 2 edges cannot connect 4 vertices
    rng = random.Random(seed)
    g = Graph(n, _sample_pairs(rng, n, e_host))
    for _ in range(1000):
        if is_connected(g):
            break
        g = Graph(n, _sample_pairs(rng, n, e_host))
    return g


def _sample_pairs(rng: random.Random, n: int, k: int) -> list[tuple[int, int]]:
    """rng.sample of k pairs u < v < n listed row by row, drawn as indices
    and decoded, so that the n(n-1)/2 pairs are never listed.  sample
    picks by position, so the draw is the one from the list."""
    total = n * (n - 1) // 2
    out = []
    for index in rng.sample(range(total), k):
        # t counts back from the last pair.  Row n - 2 - j and the rows
        # below it hold (j + 1)(j + 2)/2 pairs, so row n - 2 - j holds t
        # for the least j with t below that count
        t = total - 1 - index
        j = (math.isqrt(8 * t + 1) - 1) // 2
        out.append((n - 2 - j, n - 1 - (t - j * (j + 1) // 2)))
    return out


def _cmd_certify(args) -> int:
    target = parse_graph_spec(args.target, args.format)
    if args.host is not None:
        host = parse_graph_spec(args.host, args.format)
    else:
        host = _auto_host(args.strategy, target, args.r, args.seed)
    cert = certify(args.strategy, host, target, args.r, seed=args.seed)
    _write_text(certificate_to_json(cert), args.out)
    print(f"strategy: {cert.theorem_tag}", file=sys.stderr)
    print(f"host: {cert.host.vertex_count} vertices, {cert.host.edge_count} edges "
          f"(bound {cert.claimed_bound})", file=sys.stderr)
    print(f"palette: {cert.r}", file=sys.stderr)
    print(f"verdict: {cert.verdict}", file=sys.stderr)
    return 0 if cert.verdict == "verified" else 1


def _cmd_verify(args) -> int:
    cert = certificate_from_json(_read_text(args.certificate))
    fresh = verify_certificate(cert)
    stored = cert.verdict
    print(f"stored verdict: {stored}")
    print(f"recomputed verdict: {fresh.verdict}")
    if stored not in ("unverified", fresh.verdict):
        print("warning: stored verdict is stale", file=sys.stderr)
    if fresh.verdict == "verified":
        return 0
    if fresh.witness is not None:
        print(f"witness: {json.dumps(fresh.witness, sort_keys=True)}")
    return 1


def _cmd_embed(args) -> int:
    tree = parse_graph_spec(args.tree, args.format)
    if not is_tree(tree) or tree.edge_count == 0:
        raise DomainError("embed needs a tree target with at least one edge")
    r = args.r
    if args.host is not None:
        host = parse_graph_spec(args.host, args.format)
    else:
        _require_buildable(upper_bound_value(tree, r))
        host = embed_host(tree, r)
    coloring = EdgeColoring(host, r)  # rejects r < 1 before any draw
    rng = random.Random(args.seed)
    for u, v in host.sorted_edges():
        coloring.set(u, v, rng.randint(1, r))
    color, mapping = ramsey_embed_test(coloring, tree)
    print(f"host: {host.vertex_count} vertices, {host.edge_count} edges")
    print(f"monochromatic copy in color {color}")
    print("mapping: " + " ".join(f"{t}->{h}" for t, h in sorted(mapping.items())))
    if args.json_out is not None:
        _emit_json({
            "host_graph6": emit_graph6(host),
            "tree_graph6": emit_graph6(tree),
            "r": r,
            "seed": args.seed,
            "color": color,
            "mapping": {str(k): v for k, v in sorted(mapping.items())},
        }, args.json_out)
    return 0


def _cmd_exact(args) -> int:
    target = parse_graph_spec(args.target, args.format)
    if args.cross_check:
        report = cross_check_bounds(target, args.r, args.emax, args.budget)
        exact = report["exact"]
        lb = report["lower_bound"]
        print(f"lower bound: {Fraction(lb['num'], lb['den'])} via {lb['tag']}")
        if report["upper_bound"] is not None:
            print(f"upper bound: {report['upper_bound']}")
    else:
        report = exact = size_ramsey_exact(target, args.r, args.emax,
                                           args.budget).to_dict()
    if exact["status"] == "exact":
        print(f"exact value: {exact['value']} (search nodes: {exact['nodes']})")
        print(f"minimal arrowing host: {exact['arrowing_host_graph6']}")
    else:
        up = exact["upper"] if exact["upper"] is not None else "none found"
        print(f"open: lower {exact['lower']}, upper {up} "
              f"({len(exact['unknown_hosts'])} hosts hit the budget)")
    violations = report.get("violations", [])
    for v in violations:
        print(f"VIOLATION: {v}")
    if args.json_out is not None:
        _emit_json(report, args.json_out)
    if violations:
        return 1
    return 0 if exact["status"] == "exact" else 3


def _parse_seed_range(text: str) -> list[int]:
    if ":" in text:
        lo, _, hi = text.partition(":")
        try:
            start, stop = int(lo), int(hi)
        except ValueError:
            raise DomainError(f"seed range must be START:STOP, got {text!r}")
        if stop <= start:
            raise DomainError(f"empty seed range {text!r}")
        return list(range(start, stop))
    try:
        return [int(text)]
    except ValueError:
        raise DomainError(f"seeds must be an integer or START:STOP, got {text!r}")


def _cmd_simulate(args) -> int:
    tree = parse_graph_spec(args.tree, args.format)
    if not is_tree(tree) or tree.edge_count == 0:
        raise DomainError("simulate needs a tree target with at least one edge")
    if args.adversary == "worst_of_k" and args.k < 1:  # before any output
        raise DomainError(f"worst_of_k needs k >= 1, got {args.k}")
    params = ExpanderParams.from_constants(args.a_const, args.b_const, args.r,
                                           tree.vertex_count)
    seeds = _parse_seed_range(args.seeds)
    print(f"N={params.N} p={params.p:.6f} c1={params.c1:.4f} "
          f"c2={params.c2:.4f} delta={params.delta:.6g}")
    lines = []
    good = 0
    for seed in seeds:
        report = appendix_trial(params, tree, seed, adversary=args.adversary,
                                k=args.k)
        lines.append(report.to_json())
        flag = "ok" if report.verified else "MISS"
        print(f"seed {seed}: majority color {report.majority_color} "
              f"({report.majority_edges} edges), core {report.core_size}, "
              f"{flag}")
        if report.verified:
            good += 1
    frac = good / len(seeds)
    print(f"verified {good}/{len(seeds)} trials ({frac:.1%})")
    if args.json_out is not None:
        _write_text("\n".join(lines) + "\n", args.json_out)
    return 0 if frac >= 0.9 else 1


def _cmd_plane_dump(args) -> int:
    plane = make_affine_plane(args.q)
    doc = {
        "q": plane.q,
        "points": plane.point_count,
        "lines": [sorted(line) for line in plane.lines],
        "classes": [list(cls) for cls in plane.classes],
    }
    print(f"AG(2, {plane.q}): {doc['points']} points, "
          f"{len(plane.lines)} lines, {len(plane.classes)} parallel classes")
    for i, cls in enumerate(plane.classes):
        label = f"slope {i}" if i < plane.q else "vertical"
        print(f"class {i} ({label}): lines {list(cls)}")
    if args.json_out is not None:
        _emit_json(doc, args.json_out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sizeramsey",
        description="size-Ramsey lower-bound colorings, tree embeddings, "
                    "and exact small-case search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes the shared options its handler reads
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["graph6", "edgelist"],
                     default="graph6", help="file format for graph paths")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--json-out", default=None, metavar="FILE",
                     help="write a JSON report to FILE ('-' for stdout)")

    p = sub.add_parser("analyze", parents=[fmt, out],
                       help="profile, bounds, and shape of a target")
    p.add_argument("target")
    p.add_argument("-r", type=int, default=2)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("certify", parents=[fmt],
                       help="construct and verify a lower-bound coloring")
    p.add_argument("--strategy", choices=list(STRATEGIES), required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--host", default=None,
                   help="host graph spec; omit to auto-build one at the bound")
    p.add_argument("-r", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the certificate JSON to FILE instead of stdout "
                        "('-' for stdout)")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("embed", parents=[fmt, out],
                       help="find a monochromatic tree in a colored complete "
                            "bipartite host")
    p.add_argument("--tree", required=True)
    p.add_argument("--host", default=None,
                   help="complete bipartite host spec; omit for the bound host")
    p.add_argument("-r", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("exact", parents=[fmt, out],
                       help="brute-force the size-Ramsey number")
    p.add_argument("--target", required=True)
    p.add_argument("-r", type=int, default=2)
    p.add_argument("--emax", type=int, default=8)
    p.add_argument("--budget", type=int, default=_NODE_BUDGET,
                   help="search nodes per host")
    p.add_argument("--cross-check", action="store_true",
                   help="compare the exact value against the package bounds")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("simulate", parents=[fmt, out],
                       help="random sparse host trials for a tree")
    p.add_argument("--tree", required=True)
    p.add_argument("-A", dest="a_const", type=float, required=True)
    p.add_argument("-B", dest="b_const", type=float, required=True)
    p.add_argument("-r", type=int, default=2)
    p.add_argument("--seeds", default="0:10",
                   help="single seed or START:STOP range")
    p.add_argument("--adversary", choices=["random", "worst_of_k"],
                   default="random")
    p.add_argument("-k", type=int, default=32,
                   help="candidate colorings for worst_of_k")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("plane-dump", parents=[out],
                       help="lines and parallel classes of AG(2, q)")
    p.add_argument("-q", type=int, required=True)
    p.set_defaults(func=_cmd_plane_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (DomainError, Graph6Error, EdgeListError,
            CertificateValidationError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LasVegasError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
