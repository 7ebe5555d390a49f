"""Every unseeded request of the benchmark's cli-requests workload must
still print its pinned stdout, byte for byte, and exit with its pinned
code.  The requests are read from bench/run.py with ast, without importing
it (it imports the benchmark's checks and tracer); the three that read the
seeded .deg file have seeded digests and are left out.  Each request runs
as `python -m dualeq` in a fresh interpreter, as the benchmark runs it,
and writes no bytecode: bench/ is only read."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def unseeded_requests():
    """The argv lists of bench/run.py's REQUESTS, less those naming DEG."""
    tree = ast.parse((BENCH / "run.py").read_text())
    listed = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["REQUESTS"]
    )
    requests = []
    for entry in listed.elts:
        argv = entry.elts[0]
        if all(isinstance(arg, ast.Constant) for arg in argv.elts):
            requests.append(ast.literal_eval(argv))
    return requests


REQUESTS = unseeded_requests()
PINS = json.loads((BENCH / "pins.json").read_text())["cli-requests"]


def test_every_unseeded_request_is_read():
    # 40 requests, 3 of them on the seeded .deg file
    assert len(REQUESTS) == 37
    assert len(PINS) == 40 and all(" ".join(argv) in PINS for argv in REQUESTS)


@pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
def test_request_prints_its_pinned_stdout(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "dualeq", *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    pin = PINS[" ".join(argv)]
    got = {"exit": done.returncode, "sha256": hashlib.sha256(done.stdout).hexdigest()}
    assert got == {"exit": pin["exit"], "sha256": pin["sha256"]}, done.stderr.decode()
