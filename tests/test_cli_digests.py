"""Every request of the benchmark's cli-requests workload must still print
its pinned stdout, byte for byte, and exit with its pinned code.  The
requests, the DEG placeholder and write_deg are read from bench/run.py with
ast, and PIN_SEED from bench/checks.py, without importing either (run.py
imports the benchmark's checks and tracer).  The three requests that read
the seeded .deg file read one that write_deg makes at PIN_SEED in a
temporary directory.  Each request runs as `python -m dualeq` in a fresh
interpreter, as the benchmark runs it, and writes no bytecode: bench/ is
only read."""

import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RUN = ast.parse((BENCH / "run.py").read_text())


def assigned(tree, name):
    """The value node of the module-level assignment to name in tree."""
    return next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]
    )


DEG = ast.literal_eval(assigned(RUN, "DEG"))
PIN_SEED = ast.literal_eval(assigned(ast.parse((BENCH / "checks.py").read_text()), "PIN_SEED"))


def requests():
    """The argv lists of bench/run.py's REQUESTS, with DEG for its name."""
    return [
        [ast.literal_eval(arg) if isinstance(arg, ast.Constant) else DEG for arg in entry.elts[0].elts]
        for entry in assigned(RUN, "REQUESTS").elts
    ]


REQUESTS = requests()
PINS = json.loads((BENCH / "pins.json").read_text())["cli-requests"]


@pytest.fixture(scope="module")
def deg(tmp_path_factory):
    """The .deg file bench/run.py's write_deg makes at PIN_SEED, written to a
    temporary directory; write_deg's own change to sys.path is undone."""
    source = next(n for n in RUN.body if isinstance(n, ast.FunctionDef) and n.name == "write_deg")
    namespace = {"sys": sys, "random": random, "SRC": ROOT / "src",
                 "WORK": tmp_path_factory.mktemp("work")}
    exec(compile(ast.Module([source], []), str(BENCH / "run.py"), "exec"), namespace)
    path = list(sys.path)
    try:
        return namespace["write_deg"](PIN_SEED)
    finally:
        sys.path[:] = path


def test_every_request_is_read():
    # 40 requests, 3 of them on the seeded .deg file
    assert len(REQUESTS) == 40 and sum(DEG in argv for argv in REQUESTS) == 3
    assert sorted(PINS) == sorted(" ".join(argv) for argv in REQUESTS)


@pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
def test_request_prints_its_pinned_stdout(argv, deg):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "dualeq", *[str(deg) if a == DEG else a for a in argv]],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    pin = PINS[" ".join(argv)]
    got = {"exit": done.returncode, "sha256": hashlib.sha256(done.stdout).hexdigest()}
    assert got == {"exit": pin["exit"], "sha256": pin["sha256"]}, done.stderr.decode()
