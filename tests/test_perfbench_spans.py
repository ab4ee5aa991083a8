"""The traced benchmark run looks pentagraph's functions up by name in
perfbench/spans.py. These checks fail when a rename or a deletion in the
library leaves that table pointing at nothing."""

import importlib
import inspect
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    # Executed from its source text, so no bytecode cache is written
    # next to it.
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_span_layers_resolve_and_budgeted_layers_take_a_budget():
    spans = load_spans()
    assert spans.BUDGETED <= set(spans.LAYERS)
    for layer, targets in spans.LAYERS.items():
        for modname, fname in targets:
            fn = getattr(importlib.import_module(f"pentagraph.{modname}"), fname, None)
            assert callable(fn), f"{layer}: pentagraph.{modname}.{fname} is missing"
            if layer in spans.BUDGETED:
                params = inspect.signature(fn).parameters
                assert "budget" in params, f"{layer}: {fname} takes no budget"
