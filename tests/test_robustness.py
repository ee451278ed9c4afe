"""Malformed input never escapes as a traceback.

The graph6 and edge-list parsers and the certificate loader raise only
package errors on any input, fuzzed here with Hypothesis in derandomized
mode so every run draws the same cases.  No check in the package lives in
an assert statement, which python -O strips, and no function but one
whose depth is bounded by its input's nesting calls itself.  No module
imports warnings: what a construction has to say goes into its plan.  Each
library module's __all__ lists what it defines, and the package root
exports those lists and nothing more.  The coloring search's embedding
kernel and the set kernel that re-checks its witnesses reach no code of
each other.
"""

import ast
import importlib
import json
import os
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import sizeramsey
from sizeramsey import (
    Certificate,
    ColoringPlan,
    EdgeColoring,
    SizeRamseyError,
    certificate_from_json,
    certificate_to_json,
    complete_bipartite,
    cycle_graph,
    emit_edge_list,
    emit_graph6,
    make_double_star,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star,
    verify_certificate,
)

FUZZ = settings(derandomize=True, max_examples=400, deadline=None)

VALID_GRAPHS = [path_graph(4), star(5), cycle_graph(7), make_double_star(3, 2),
                complete_bipartite(3, 4), path_graph(70)]

# printable ASCII (the graph6 range 63-126 among it), control characters,
# and characters outside ASCII
CHARS = st.one_of(st.characters(min_codepoint=32, max_codepoint=126),
                  st.sampled_from(["\n", "\t", "\x00", "\x7f", "é", "٣", "\U0001f600"]))


@st.composite
def mutated(draw, base: str) -> str:
    """base with one to three characters replaced, inserted or deleted."""
    chars = list(base)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        i = draw(st.integers(0, len(chars)))
        if op == "delete":
            del chars[i:i + draw(st.integers(1, 4))]
        elif op == "insert" or i == len(chars):
            chars.insert(i, draw(CHARS))
        else:
            chars[i] = draw(CHARS)
    return "".join(chars)


def _fuzz_text(data, bases: list[str]) -> str:
    return data.draw(st.one_of(st.text(CHARS, max_size=24),
                               st.sampled_from(bases).flatmap(mutated)))


@FUZZ
@given(st.data())
def test_graph6_parser_raises_only_package_errors(data):
    text = _fuzz_text(data, [emit_graph6(g) for g in VALID_GRAPHS])
    if data.draw(st.booleans()):
        text = text.encode("utf-8")
    try:
        g = parse_graph6(text)
    except SizeRamseyError:
        return
    assert parse_graph6(emit_graph6(g)) == g


@FUZZ
@given(st.data())
def test_edge_list_parser_raises_only_package_errors(data):
    text = _fuzz_text(data, [emit_edge_list(g) for g in VALID_GRAPHS[:5]])
    try:
        g = parse_edge_list(text)
    except SizeRamseyError:
        return
    assert parse_edge_list(emit_edge_list(g)) == g


def _certificate_doc() -> dict:
    host = path_graph(4)
    coloring = EdgeColoring(host, 2, {(0, 1): 1, (1, 2): 2, (2, 3): 1})
    cert = Certificate(target=make_double_star(1, 1), r=2,
                       coloring=coloring,
                       plan=ColoringPlan(strategy="affine", parts={"X": (0, 3)},
                                         parameters={"n": 3}),
                       claimed_bound=Fraction(4), theorem_tag="beck", seed=0)
    return json.loads(certificate_to_json(cert))


# JSON values with integers of any size: verify_certificate visits only the
# colors in use, so a drawn r of 10^9 costs no more than r = 2
def _json_containers(inner):
    return (st.lists(inner, max_size=4)
            | st.dictionaries(st.text(CHARS, max_size=6), inner, max_size=4))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(CHARS, max_size=8),
    _json_containers, max_leaves=8)


@FUZZ
@given(st.data())
def test_certificate_loader_raises_only_package_errors(data):
    doc = _certificate_doc()
    if data.draw(st.booleans()):
        text = data.draw(mutated(json.dumps(doc, sort_keys=True)))
    else:
        # replace or drop a field, a coloring entry or a graph6 string
        key = data.draw(st.sampled_from(sorted(doc) + ["extra"]))
        how = data.draw(st.sampled_from(("value", "drop", "entry", "graph6")))
        if how == "drop":
            doc.pop(key, None)
        elif how == "entry":
            i = data.draw(st.integers(0, len(doc["coloring"]) - 1))
            doc["coloring"][i] = data.draw(JSON_VALUES)
        elif how == "graph6":
            key = data.draw(st.sampled_from(["host_graph6", "target_graph6"]))
            doc[key] = data.draw(mutated(doc[key]))
        else:
            doc[key] = data.draw(JSON_VALUES)
        text = json.dumps(doc)
    try:
        verify_certificate(certificate_from_json(text))
    except SizeRamseyError:
        pass


def test_no_assert_statements_in_the_package():
    root = os.path.dirname(sizeramsey.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


# functions allowed to call themselves, each with its depth bound
RECURSION_ALLOWED = {
    # nesting of a certificate's JSON values, not the host size
    "verify.py:_jsonable",
}


def test_no_function_in_the_package_calls_itself():
    # a search whose depth grows with the host must keep its own stack, as
    # the interpreter's recursion limit would cap the host size; a call of
    # a function by its own name, or of a method through self or cls,
    # inside its body counts as recursion
    root = os.path.dirname(sizeramsey.__file__)
    found = set()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    f = node.func
                    if isinstance(f, ast.Name):
                        callee = f.id
                    elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                          and f.value.id in ("self", "cls")):
                        callee = f.attr
                    else:
                        continue
                    if callee == fn.name:
                        found.add(f"{name}:{fn.name}")
    assert found == RECURSION_ALLOWED


def test_no_unused_imports_in_the_package():
    # every name a module imports must be read somewhere in it;
    # __init__.py imports only to re-export
    root = os.path.dirname(sizeramsey.__file__)
    unused = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py") and name != "__init__.py":
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        if bound != "annotations":
                            imported[bound] = node.lineno
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{name}:{line} {bound}" for bound, line in sorted(imported.items())
                       if bound not in used]
    assert unused == []


def test_no_module_in_the_package_imports_warnings():
    # a construction reports through its plan, which the certificate
    # serializes; a warning beside it reaches no reader of the certificate
    root = os.path.dirname(sizeramsey.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                found += [f"{name}:{node.lineno}" for module in modules
                          if module.split(".")[0] == "warnings"]
    assert found == []


def test_no_public_name_is_exported_by_two_modules():
    root = os.path.dirname(sizeramsey.__file__)
    owners: dict[str, list[str]] = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".py") and not name.startswith("__"):
            module = importlib.import_module(f"sizeramsey.{name[:-3]}")
            for public in getattr(module, "__all__", ()):
                owners.setdefault(public, []).append(name)
    assert {k: v for k, v in owners.items() if len(v) > 1} == {}


def test_the_root_exports_exactly_what_each_module_defines():
    # each module's __all__, cli's included, lists exactly the public
    # functions, classes and constants it defines at top level, and the
    # package root exports the library modules' lists in module order,
    # each name bound to its module's own object; cli stays out of the
    # root, which does not import it
    root = os.path.dirname(sizeramsey.__file__)
    exported = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py") or name in ("__init__.py", "__main__.py"):
            continue
        path = os.path.join(root, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        module = importlib.import_module(f"sizeramsey.{name[:-3]}")
        listed = getattr(module, "__all__", [])
        assert sorted(listed) == sorted(d for d in defined if not d.startswith("_")), name
        if name != "cli.py":
            exported += [(public, getattr(module, public)) for public in listed]
    assert getattr(sizeramsey, "__all__", None) == [public for public, _ in exported]
    assert [public for public, obj in exported
            if getattr(sizeramsey, public) is not obj] == []


def _named_in(module: str) -> dict[str, set[str]]:
    # for each module-level function of the module, the names its body
    # reads or calls, attributes included
    path = os.path.join(os.path.dirname(sizeramsey.__file__), f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    return {fn.name: {node.id if isinstance(node, ast.Name) else node.attr
                      for node in ast.walk(fn)
                      if isinstance(node, (ast.Name, ast.Attribute))}
            for fn in tree.body if isinstance(fn, ast.FunctionDef)}


def test_the_search_kernel_and_its_checker_share_no_embedding_code():
    # the coloring search embeds through _embed_through_edge; every free
    # witness is re-checked through the set kernel.  Neither reaches the
    # other, directly or through another function of the module
    named = _named_in("verify")

    def reach(start: str) -> set[str]:
        seen, stack = set(), [start]
        while stack:
            for callee in named[stack.pop()] & named.keys():
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    assert "_backtrack_embed" not in reach("_embed_through_edge")
    for checker in ("find_subgraph", "mono_copy", "_mono_copy",
                    "_backtrack_embed"):
        assert "_embed_through_edge" not in reach(checker) | named[checker], checker
    # the checkers do run the set kernel, and the oracle's free-witness
    # re-checks go through mono_copy or _mono_copy, not the mask kernel
    for checker in ("find_subgraph", "_mono_copy"):
        assert "_backtrack_embed" in reach(checker), checker
    oracle = _named_in("oracle")
    # one free-witness re-check site per entry point: no private copy of
    # arrows, and no level class beside the plain triples
    module = importlib.import_module("sizeramsey.oracle")
    assert not {"_arrows", "_Level"} & set(vars(module))
    for caller, checker in (("arrows", "mono_copy"),
                            ("size_ramsey_exact", "_mono_copy")):
        assert checker in oracle[caller], caller
        assert "_embed_through_edge" not in oracle[caller], caller
    # _inherit hands its extension on unchecked, and every other oracle
    # function that takes a free coloring from the search, from the mask
    # kernel or from _inherit re-checks it through one of the checkers
    checkers = {"mono_copy", "_mono_copy"}
    assert not oracle["_inherit"] & checkers
    producers = {"search_h_free_coloring", "_search_h_free",
                 "_embed_through_edge", "_inherit"}
    takers = {fn for fn, names in oracle.items() if names & producers} - {"_inherit"}
    assert {"arrows", "size_ramsey_exact"} <= takers
    for fn in takers:
        assert oracle[fn] & checkers, fn
