"""Span tracing of pentagraph's public functions, installed from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in
every pentagraph module that binds it (its own module, the modules that
imported it by name, the package namespace, and the `properties.CHECKS`
registry), so calls between modules and inside a module both pass through
the wrapper. The program's files are not touched.

Every span knows the span that was open when it started. Its self time is
its duration minus the time of the spans it opened. Spans are aggregated
as they close, per layer and per (parent layer, layer) edge, because the
small workloads open millions of them. For functions that take a
`SearchBudget`, the wrapper reads `budget.remaining` before and after the
call; a call without a budget gets a fresh default one, which is what the
function would have made for itself.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

ROOT = "<root>"

# Layer name -> (module, function) pairs whose calls the layer covers.
LAYERS = {
    "graph.girth": [("graph", "girth")],
    "graph.is_bipartite": [("graph", "is_bipartite")],
    "graph.induced_subgraph": [("graph", "induced_subgraph")],
    "graph.bfs": [
        ("graph", "bfs_layers"),
        ("graph", "components"),
        ("graph", "components_within"),
        ("graph", "distance"),
    ],
    "structure.induced_paths": [("structure", "enumerate_induced_paths")],
    "structure.odd_hole": [("structure", "find_long_odd_hole")],
    "structure.five_holes": [("structure", "five_holes")],
    "structure.jumps": [("structure", "find_jumps")],
    "structure.contains_induced": [("structure", "contains_induced")],
    "recognition.recognize": [("recognition", "recognize")],
    "decomposition.decompose": [("decomposition", "decompose")],
    "decomposition.clique_cutset": [("decomposition", "find_clique_cutset")],
    "decomposition.p3_cutset": [("decomposition", "find_p3_cutset")],
    "decomposition.star": [
        ("decomposition", "find_strong_parity_star_cutset"),
        ("decomposition", "bruteforce_star_search"),
        ("decomposition", "verify_parity_star_cutset"),
    ],
    "decomposition.revalidate": [("decomposition", "revalidate_outcome")],
    "coloring.three_color": [("coloring", "three_color")],
    "coloring.four_color": [("coloring", "four_color")],
    "coloring.verify": [("coloring", "verify_coloring")],
    "properties.check": [
        ("properties", "check_layered_coloring"),
        ("properties", "check_decomposition"),
        ("properties", "check_p2_extension"),
        ("properties", "check_local_jump_pairs"),
    ],
    "generate.enumerate": [("generate", "enumerate_girth5")],
    "generate.grow": [("generate", "random_pentagraph")],
    "formats.graph6": [("formats", "parse_graph6"), ("formats", "write_graph6")],
    "cli.main": [("cli", "main")],
}

# Layers whose search steps are read off the budget. None of them calls
# itself, so their step counts are never counted twice.
BUDGETED = {
    "structure.induced_paths",
    "structure.contains_induced",
    "recognition.recognize",
    "properties.check",
}

# Functions that return a generator: each next() on it is one span.
GENERATORS = {"generate.enumerate"}


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "steps")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.steps = 0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name in LAYERS}
        # (parent layer, layer) -> [calls, calls that raised]
        self.edges: dict[tuple[str, str], list[int]] = {}
        self.arms: dict[str, int] = {}
        # Open spans, innermost last: [layer, time spent in child spans].
        self._stack: list[list] = [[ROOT, 0.0]]

    def install(self) -> None:
        pkg = importlib.import_module("pentagraph")
        importlib.import_module("pentagraph.cli")
        budget_type = pkg.SearchBudget
        modules = [m for name, m in sys.modules.items()
                   if name == "pentagraph" or name.startswith("pentagraph.")]
        for layer, targets in LAYERS.items():
            for modname, fname in targets:
                orig = getattr(importlib.import_module(f"pentagraph.{modname}"), fname)
                wrapper = self._wrap(orig, layer, budget_type)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                        elif isinstance(value, dict):
                            for key, entry in list(value.items()):
                                if entry is orig:
                                    value[key] = wrapper

    def _wrap(self, fn, layer: str, budget_type):
        stat = self.stats[layer]
        stack = self._stack
        edges = self.edges
        arms = self.arms if layer == "decomposition.decompose" else None
        # Where `budget` sits among the positional parameters, if it can.
        budget_pos = next((i for i, p in enumerate(inspect.signature(fn).parameters.values())
                           if p.name == "budget" and p.kind is p.POSITIONAL_OR_KEYWORD), None)

        def span(call, args, kw):
            parent = stack[-1]
            key = (parent[0], layer)
            edge = edges.get(key)
            if edge is None:
                edge = edges[key] = [0, 0]
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = call(*args, **kw)
            except StopIteration:
                raise
            except BaseException:
                edge[1] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame[1]
                edge[0] += 1
            if arms is not None:
                arms[result.variant] = arms.get(result.variant, 0) + 1
            return result

        if layer in GENERATORS:
            def wrapper(*args, **kw):
                return _TracedIterator(fn(*args, **kw), span)

            return wrapper

        if layer not in BUDGETED:
            def wrapper(*args, **kw):
                return span(fn, args, kw)

            return wrapper

        def wrapper(*args, **kw):
            budget = kw.get("budget")
            if budget is None:
                if "budget" not in kw and budget_pos is not None and len(args) > budget_pos:
                    budget = args[budget_pos]
                    if budget is None:
                        budget = budget_type.fresh()
                        args = (*args[:budget_pos], budget, *args[budget_pos + 1:])
                else:
                    budget = kw["budget"] = budget_type.fresh()
            before = budget.remaining
            try:
                return span(fn, args, kw)
            finally:
                stat.steps += before - budget.remaining

        return wrapper

    def edge_calls(self, parent: str, layer: str) -> tuple[int, int]:
        return tuple(self.edges.get((parent, layer), (0, 0)))


class _TracedIterator:
    """Times each next() on a generator as one span."""

    __slots__ = ("_it", "_span")

    def __init__(self, it, span):
        self._it = it
        self._span = span

    def __iter__(self):
        return self

    def __next__(self):
        return self._span(next, (self._it,), {})
