"""Tests of the benchmark itself (about a minute; they run the benchmark).

    python3 -m pytest -q bench/bench_selftest.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    last = proc.stdout.splitlines()[-1] if proc.stdout.strip() else None
    return proc, (json.loads(last) if last else None)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_pinned_answers_match_at_the_seed(workload):
    proc, result = bench("--workload", workload, "--seed", str(checks.PIN_SEED),
                         "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_a_wrong_pin_fails_the_command(tmp_path, monkeypatch, capsys):
    pins = json.loads(run.PINS.read_text())
    pins["lemma-iso"]["lemma [6,3,1]"]["counts"]["vi"] += 1
    wrong = tmp_path / "pins.json"
    wrong.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS", wrong)
    code = run.main(["--workload", "lemma-iso", "--seconds", "1"])
    out, err = capsys.readouterr()
    result = json.loads(out.splitlines()[-1])
    assert code == 1
    # every pass gets the one operation wrong, and nothing else
    assert not result["correct"] and 0 < result["failed"] == err.count("WRONG")
    assert all("lemma [6,3,1]" in line for line in err.splitlines() if "WRONG" in line)


def test_traced_run_reports_every_layer_metric_and_matching_answers():
    proc, result = bench("--workload", "lemma-iso", "--trace", "1", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    assert set(result["metrics"]) == set(tracer.METRICS) | {"trace.overhead_s"}
    counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
    assert counts["engine.iso_calls"] >= counts["engine.iso_found"] > 0
    assert counts["engine.build_calls"] > counts["engine.build_distinct"] > 0


def test_without_sources_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, result = bench("--workload", "lemma-iso", cwd=tmp_path)
    assert proc.returncode != 0 and result is None


def test_self_time_is_never_negative():
    trace = tracer.Tracer()
    rng = random.Random(1)

    def work(depth):
        total = sum(range(rng.randrange(50)))
        if depth and rng.random() < 0.7:
            for _ in range(rng.randrange(3)):
                total += inner(depth - 1)
        if rng.random() < 0.05:
            raise ValueError("raised inside a span")
        return total

    inner = trace.wrap("inner", work, lambda t, a, r, e: t.distinct("k", r))
    outer = trace.wrap("outer", work)
    for _ in range(300):
        try:
            outer(6)
        except ValueError:
            pass
    assert trace.calls["outer"] == 300 and trace.calls["inner"] > 300
    assert all(ns >= 0 for ns in trace.self_ns.values())

    frozen = tracer.Tracer(clock=lambda: 7)  # every call takes zero time
    twice = frozen.wrap("a", lambda: frozen_inner() + frozen_inner())
    frozen_inner = frozen.wrap("b", lambda: 1)
    assert twice() == 2 and frozen.self_ns == {"a": 0, "b": 0}


def test_count_formulas_match_enumeration():
    from dualeq.core import partitions_of, strict_partitions_of
    from dualeq.tableaux import enumerate_shsyt, enumerate_syt

    for n in range(1, 9):
        for lam in partitions_of(n):
            assert checks.syt_count(lam) == len(enumerate_syt(lam)), lam
        for lam in strict_partitions_of(n):
            assert checks.shsyt_count(lam) == len(enumerate_shsyt(lam)), lam


def test_summary_reports_a_percentile_only_with_ten_samples_beyond_it():
    assert set(run.summarize(range(19))) == {"median", "n"}
    s = run.summarize(range(40))
    assert s == {"median": 19.5, "n": 40, "p75": 29}
