"""Every name a library module or a test file imports is used in that file,
every private module-level name of the package is referred to by the
package itself, not only by tests, only SearchBudget.spend raises
SearchBudgetExceeded, only cli.main builds a report, the theorem checkers
run no induced-path search of their own, the 3-coloring copies a
subgraph only in one place and peels without recursing, revalidation
reads a star certificate without running a star-cutset builder, and only
the induced-path DFS sweeps from t for its children.

The package ``__init__`` is exempt from the import check: its imports are
the public API.
"""

import ast
from pathlib import Path

import pentagraph

PACKAGE = Path(pentagraph.__file__).parent
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_name():
    source = "from os import path, sep\nimport sys\nprint(sep)\n"
    assert unused_imports(source) == ["path (line 1)", "sys (line 2)"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    tests = sorted(TESTS.glob("*.py"))
    assert modules and TESTS / "test_imports.py" in tests
    unused = {
        p.name: found
        for p in modules + tests
        if (found := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert unused == {}


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names starting with one underscore that no source in
    ``sources`` (file name to text) reads, other than by defining them."""
    defined = {}
    read = set()
    for fname, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{fname}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in read)


def test_the_check_sees_an_unreferenced_private_name():
    source = (
        "_USED = 1\n_DEAD = 2\n\n\ndef _helper():\n    return _USED\n\n\n"
        "def _orphan():\n    _DEAD = 3\n\n\nclass _Gone:\n    pass\n\n\nprint(_helper())\n"
    )
    assert unreferenced_private_names({"m.py": source}) == [
        "_DEAD (m.py:2)",
        "_Gone (m.py:13)",
        "_orphan (m.py:9)",
    ]
    other = "from . import m\n\nm._orphan(m._Gone, m._DEAD)\n"
    assert unreferenced_private_names({"m.py": source, "n.py": other}) == []


def test_every_private_name_is_used_by_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert "coloring.py" in sources
    assert unreferenced_private_names(sources) == []


def _name(node) -> str | None:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def scoped_sites(source: str, hit) -> list[str]:
    """The qualified name of the function or method around each node of
    ``source`` for which ``hit(node)`` holds."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif hit(child):
                sites.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(ast.parse(source), ())
    return sites


def budget_raise_sites(source: str) -> list[str]:
    """Where ``source`` raises SearchBudgetExceeded."""

    def hit(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return _name(exc) == "SearchBudgetExceeded"

    return scoped_sites(source, hit)


def report_call_sites(source: str) -> list[str]:
    """Where ``source`` calls ``_report``."""
    return scoped_sites(
        source, lambda node: isinstance(node, ast.Call) and _name(node.func) == "_report"
    )


def test_the_check_sees_a_budget_raise():
    source = (
        "class B:\n    def spend(self):\n        raise SearchBudgetExceeded('out')\n\n\n"
        "def f():\n    raise errors.SearchBudgetExceeded\n\n\nraise SearchBudgetExceeded\n"
    )
    assert budget_raise_sites(source) == ["B.spend", "f", "<module>"]


def test_only_search_budget_spend_raises_budget_exhaustion():
    # An exhausted budget has one route: SearchBudget.spend raises, and
    # every caller either lets it propagate or reports "indeterminate".
    sites = {
        p.name: found
        for p in sorted(PACKAGE.glob("*.py"))
        if (found := budget_raise_sites(p.read_text(encoding="utf-8")))
    }
    assert sites == {"structure.py": ["SearchBudget.spend"]}


def test_the_check_sees_a_report_call():
    source = (
        "def main(args):\n    return _emit(None, _report(args, 'x', {}, False, 0.0))\n\n\n"
        "class C:\n    def cmd(self, args):\n        cli._report(args)\n\n\n"
        "_report(None)\n"
    )
    assert report_call_sites(source) == ["main", "C.cmd", "<module>"]


def test_only_cli_main_builds_a_report():
    # One report path: commands return their outcome and main() wraps and
    # writes it, so a change to the report envelope is made in one place.
    sites = {
        p.name: found
        for p in sorted(PACKAGE.glob("*.py"))
        if (found := report_call_sites(p.read_text(encoding="utf-8")))
    }
    assert sites == {"cli.py": ["main"]}


def raw_search_sites(source: str) -> list[str]:
    """Where ``source`` imports or reads ``enumerate_induced_paths``."""

    def hit(node):
        if isinstance(node, ast.alias):
            return node.name.rsplit(".", 1)[-1] == "enumerate_induced_paths"
        return _name(node) == "enumerate_induced_paths"

    return scoped_sites(source, hit)


def test_the_check_sees_a_raw_search():
    source = (
        "from .structure import enumerate_induced_paths as paths, find_jumps\n"
        "from . import structure\n\n\n"
        "def check(G):\n"
        "    return structure.enumerate_induced_paths(G, 0, 1, 3)\n"
    )
    assert raw_search_sites(source) == ["<module>", "check"]
    assert raw_search_sites("from .structure import find_jumps\n") == []


def test_the_checkers_call_no_raw_path_search():
    # The theorem checkers read library answers (holes, jumps, cutsets),
    # so a checker and the code it checks cannot drift apart.
    source = (PACKAGE / "properties.py").read_text(encoding="utf-8")
    assert raw_search_sites(source) == []


def copy_sites(source: str) -> list[str]:
    """Where ``source`` calls ``induced_subgraph`` or ``_witness_in``."""
    return scoped_sites(
        source,
        lambda node: isinstance(node, ast.Call)
        and _name(node.func) in ("induced_subgraph", "_witness_in"),
    )


def test_the_check_sees_a_copy():
    source = (
        "def _color(G, keep):\n"
        "    sub, ids = graph.induced_subgraph(G, keep)\n"
        "    with _witness_in(ids):\n        pass\n\n\n"
        "class Side:\n    def fit(self, G):\n        return induced_subgraph(G, 3)[0]\n\n\n"
        "_witness_in(())\n"
    )
    assert copy_sites(source) == ["_color", "_color", "Side.fit", "<module>"]
    assert copy_sites("def f(G):\n    return components_within(G, 3)\n") == []


def test_the_coloring_copies_only_per_component():
    # Below the per-component copy every coloring is in that copy's ids, so
    # no cut side is relabelled and no witness renamed a second time.
    source = (PACKAGE / "coloring.py").read_text(encoding="utf-8")
    assert copy_sites(source) == ["_color", "_color"]


def color_call_sites(source: str) -> list[str]:
    """Where ``source`` calls ``_color``."""
    return scoped_sites(
        source, lambda node: isinstance(node, ast.Call) and _name(node.func) == "_color"
    )


def test_the_check_sees_a_color_call():
    source = (
        "def _color(G, keep):\n"
        "    for low in keep:\n        _color(G, keep & ~low)\n\n\n"
        "def three_color(G):\n    coloring._color(G, G.full_mask())\n"
    )
    assert color_call_sites(source) == ["_color", "three_color"]
    assert color_call_sites("def _color_cut(G):\n    return _color_side(G)\n") == []


def test_the_coloring_peels_without_recursing():
    # _color peels a vertex set in one forward and one backward pass, so a
    # chain of peels costs no call per peel and no Python frame per level;
    # only a cut's sides are colored by calls of their own.
    source = (PACKAGE / "coloring.py").read_text(encoding="utf-8")
    assert color_call_sites(source) == ["three_color", "_color_cut"]


STAR_BUILDERS = (
    "verify_parity_star_cutset",
    "_strong_star",
    "bruteforce_star_search",
    "find_star_cutset",
    "find_strong_parity_star_cutset",
)


def builder_call_sites(source: str) -> list[str]:
    """Where ``source`` calls a star-cutset builder."""
    return scoped_sites(
        source, lambda node: isinstance(node, ast.Call) and _name(node.func) in STAR_BUILDERS
    )


def test_the_check_sees_a_builder_call():
    source = (
        "def revalidate_outcome(G, outcome, budget):\n"
        "    again = verify_parity_star_cutset(G, 0, 6, budget)\n"
        "    return decomposition._strong_star(G, 0, 6, budget)\n\n\n"
        "def check(G):\n    return find_star_cutset(G, None) or _joins_leaves_evenly(G)\n"
    )
    assert builder_call_sites(source) == [
        "revalidate_outcome", "revalidate_outcome", "check",
    ]


def test_revalidation_builds_no_star():
    # A star certificate is checked by reading it: its components, one
    # search of its witness and its strong flag, not by building a star
    # again and comparing.
    sites = builder_call_sites((PACKAGE / "decomposition.py").read_text(encoding="utf-8"))
    assert sites and "revalidate_outcome" not in sites


def sweep_call_sites(source: str) -> list[str]:
    """Where ``source`` calls ``_children_reaching_t``."""
    return scoped_sites(
        source,
        lambda node: isinstance(node, ast.Call) and _name(node.func) == "_children_reaching_t",
    )


def test_the_check_sees_a_sweep_call():
    source = (
        "def enumerate_induced_paths(G):\n"
        "    while True:\n        rest = _children_reaching_t(G.adj, 1, 2, 3, None)\n\n\n"
        "def find_jumps(G):\n    return structure._children_reaching_t(G.adj, 1, 2, 3, 0)\n"
    )
    assert sweep_call_sites(source) == ["enumerate_induced_paths", "find_jumps"]
    assert sweep_call_sites("def f(G):\n    return _frontiers(G, 1, 2)\n") == []


def test_only_the_path_dfs_sweeps_for_children():
    # The rule that decides which nodes sweep (the root and every node with
    # two or more children) lives at one call site, so no caller can sweep
    # on a rule of its own.
    sites = {
        p.name: found
        for p in sorted(PACKAGE.glob("*.py"))
        if (found := sweep_call_sites(p.read_text(encoding="utf-8")))
    }
    assert sites == {"structure.py": ["enumerate_induced_paths"]}
