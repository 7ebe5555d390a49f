"""bench/tracer.py times layers by looking up dualeq functions by name; a
renamed or deleted function would break a traced benchmark run, so every
name it looks up must exist, and a call routed around a traced name would
blind its layer."""

import importlib
import json
import os
import subprocess
import sys
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


def test_traced_classes_request_counts_the_qsym_layers():
    # one generating function per class of perm 4 under b, and one expansion
    # per distinct class vector, counted by qsym.expand; no bytecode is
    # written under bench/
    root = TRACER.parent.parent
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    argv = ["classes", "--ground", "perm", "--n", "4", "--family", "b", "--porcelain"]
    done = subprocess.run(
        [sys.executable, str(TRACER.parent / "traced_cli.py"), *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stderr.splitlines()[-1])
    assert counts["engine.genfn_calls"] == 16
    assert counts["qsym.expand_calls"] == counts["qsym.expand_distinct"] == 2
    assert counts["qsym.vector_calls"] > 0
