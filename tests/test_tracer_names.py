"""bench/tracer.py times layers by looking up dualeq functions by name; a
renamed or deleted function would break a traced benchmark run, so every
name it looks up must exist."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_exists():
    # run the source itself: nothing is imported from or written to bench/
    tracer = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer)
    missing = [
        f"dualeq.{module}.{name}"
        for module, names in tracer["LAYERS"].values()
        for name in names
        if not callable(getattr(importlib.import_module(f"dualeq.{module}"), name, None))
    ]
    assert tracer["LAYERS"] and missing == []
