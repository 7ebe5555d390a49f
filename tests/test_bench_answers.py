"""Every library workload of the benchmark must still give its pinned
answers.  Each workload runs once in a fresh interpreter, the way
bench/run.py runs it, and bench/checks.py judges every answer against
bench/pins.json, so a changed library signature or result fails here and
not only as a benchmark's incorrect outputs.  bench/ is only read: its
checks are exec'd from source and no bytecode is written there."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_checks():
    checks = {"__name__": "checks"}
    source = BENCH / "checks.py"
    exec(compile(source.read_text(), str(source), "exec"), checks)
    return checks


@pytest.mark.parametrize("workload", ["lemma-iso", "shifted-sweep", "weak-signedperm"])
def test_library_workload_gives_its_pinned_answers(workload):
    seed = 0
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), workload, str(seed), "0"],
        cwd=BENCH.parent, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    answers = json.loads(done.stdout)["answers"]
    pins = json.loads((BENCH / "pins.json").read_text())
    assert sorted(answers) == sorted(pins[workload])
    op_problems = bench_checks()["op_problems"]
    problems = {
        op_id: found
        for op_id, answer in answers.items()
        if (found := op_problems(workload, op_id, answer, pins, seed))
    }
    assert problems == {}
