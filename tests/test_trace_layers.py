"""The span tracer of perfbench/spans.py wraps library functions by name."""
import importlib
import importlib.util
from pathlib import Path

import conegen.cli  # noqa: F401  (loads every module the tracer wraps)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_names_a_live_attribute():
    # a rename in the library would otherwise only show as an error when a
    # traced benchmark run installs the tracer
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, modname, attr, cls, _ in spans.LAYERS:
        mod = importlib.import_module(modname)
        if cls is None:
            assert callable(getattr(mod, attr, None)), name
        else:
            assert attr in getattr(mod, cls).__dict__, name
