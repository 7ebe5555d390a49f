"""The dualeq benchmark: time to verdict on four workloads.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every measured pass runs in a fresh interpreter, one child at a time, from
this single process.  With --trace 0 the command reports the end-to-end
metrics (wall_s, setup_s, peak_rss_mb; request_s and error_rate are printed
too); with --trace 1 it runs each workload untraced, traced and untraced
again, requires the three to give identical answers, and reports the
per-layer metrics of tracer.py plus trace.overhead_s.  Every answer is checked
(checks.py); the command exits 1 if any differs and 2 if it cannot run.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"  # the .deg file of cli-requests; removed on exit
PINS = BENCH / "pins.json"  # the known answers every run is checked against
WORKLOADS = ("weak-signedperm", "shifted-sweep", "lemma-iso", "cli-requests")
SETUP_SAMPLES = 4  # before every pass and after the last one
MIN_PASSES = 3  # a median of fewer passes cannot set a slow one aside
# Children still running GRACE_S after --seconds ran out are killed, and no
# pass is started that would not end before then at the pace of the slowest
# pass so far.  A pass takes at most about 15 s on correct code.
GRACE_S = 120
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
DEG = "<deg>"  # stands for the path of the .deg file in a request

# cli-requests: (arguments, facts that need no pin).  A request naming DEG
# reads the seeded .deg file.
REQUESTS = [
    (["expand", "P", "[6,3,1]", "--schur-of"], {"exit": 0}),
    (["expand", "schur", "[4,3,2]"], {"exit": 0}),
    (["expand", "schur", "[3,3,2,1]", "--schur-of"], {"exit": 0}),
    (["expand", "schur", "[5,2,1]", "--schur-of"], {"exit": 0}),
    (["expand", "P", "[5,3,1]", "--basis", "G"], {"exit": 0}),
    (["expand", "P", "[4,3,2]", "--basis", "G"], {"exit": 0}),
    (["expand", "P", "[3,2,1]", "--schur-of"], {"exit": 0}),
    (["expand", "Q", "[4,2,1]"], {"exit": 0}),
    (["expand", "Q", "[5,2]", "--schur-of"], {"exit": 0}),
    (["expand", "Q", "[4,3]", "--basis", "G"], {"exit": 0}),
    (["enumerate", "syt", "[4,3,2]", "--porcelain"], {"exit": 0, "count": checks.syt_count((4, 3, 2))}),
    (["enumerate", "syt", "[5,3,1]", "--porcelain"], {"exit": 0, "count": checks.syt_count((5, 3, 1))}),
    (["enumerate", "syt", "[3,2,1]"], {"exit": 0, "count": checks.syt_count((3, 2, 1))}),
    (["enumerate", "shsyt", "[6,4,2]", "--porcelain"], {"exit": 0, "count": checks.shsyt_count((6, 4, 2))}),
    (["enumerate", "shsyt", "[5,4,2,1]", "--porcelain"], {"exit": 0, "count": checks.shsyt_count((5, 4, 2, 1))}),
    (["enumerate", "ssyt", "[3,2]", "--max", "4", "--porcelain"], {"exit": 0}),
    (["enumerate", "shssyt", "[3,1]", "--max", "3", "--porcelain"], {"exit": 0}),
    (["enumerate", "signed", "[4,2,1]", "--porcelain"], {"exit": 0}),
    (["classes", "--ground", "syt", "--shape", "[4,3,1]", "--family", "d", "--porcelain"], {"exit": 0}),
    (["classes", "--ground", "shsyt", "--shape", "[5,3,1]", "--family", "b"], {"exit": 0}),
    (["classes", "--ground", "perm", "--n", "6", "--family", "d", "--porcelain"], {"exit": 0}),
    (["classes", "--ground", "perm", "--n", "6", "--family", "b", "--porcelain"], {"exit": 0}),
    (["classes", "--ground", "signed-shsyt", "--shape", "[4,2]", "--family", "psi"], {"exit": 0}),
    (["classes", "--ground", "signedperm", "--n", "4", "--family", "phi", "--porcelain"], {"exit": 0}),
    (["verify", "--axioms", "shifted", "--ground", "shsyt", "--shape", "[5,3,1]", "--family", "b", "--lemma-vi"], {}),
    (["verify", "--axioms", "shifted", "--ground", "shsyt", "--shape", "[6,3,1]", "--family", "b", "--lemma-vi"], {}),
    (["verify", "--axioms", "shifted", "--ground", "shsyt", "--shape", "[4,2,1]", "--family", "b", "--porcelain"], {"exit": 0}),
    (["verify", "--axioms", "weak", "--ground", "signed-shsyt", "--shape", "[4,2,1]", "--family", "psi"], {"exit": 0}),
    (["verify", "--axioms", "weak", "--ground", "perm", "--n", "6", "--family", "d", "--porcelain"], {"exit": 0}),
    (["verify", "--axioms", "weak", "--ground", "signedperm", "--n", "4", "--family", "phi"], {"exit": 0}),
    (["verify", "--axioms", "strong", "--ground", "syt", "--shape", "[4,3,1]", "--family", "d"], {"exit": 0}),
    (["verify", "--axioms", "shifted", "--ground", "perm", "--n", "6", "--family", "b"], {"exit": 0}),
    (["verify", "--axioms", "shifted", "--file", DEG], {"exit": 0}),
    (["classify", "--file", DEG, "--porcelain"], {"exit": 0}),
    (["classify", "--file", DEG], {"exit": 0}),
    (["specialize", "--kind", "P", "--shape", "[3,2]", "--vars", "3"], {"exit": 0}),
    (["specialize", "--kind", "Q", "--shape", "[3,1]", "--vars", "3", "--via", "G"], {"exit": 0}),
    (["specialize", "--kind", "s", "--shape", "[3,2,1]", "--vars", "3", "--via", "F"], {"exit": 0}),
    (["specialize", "--kind", "P", "--shape", "[4,2]", "--vars", "3", "--via", "F"], {"exit": 0}),
    (["specialize", "--kind", "s", "--shape", "[2,2]", "--vars", "4"], {"exit": 0}),
]


def child_env():
    """The caller's environment, with src on the path and bytecode caching
    on, as for an installed package: the first import writes .pyc files."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Spawned:
    """A child run to completion: exit code, output, seconds from spawn to
    exit, and peak resident memory (ru_maxrss of that child alone)."""

    def __init__(self, argv, deadline):
        killed = []
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )

        def kill():
            killed.append(True)
            proc.kill()

        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
        watchdog.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        status = None
        try:
            self.stdout = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            if status is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        self.seconds = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it does not wait again
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.stderr = err[0] if err else b""
        self.rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
        self.killed = bool(killed)


def setup_times(module, samples, deadline):
    """Seconds from spawning a fresh interpreter until `import module` is
    done, `samples` times, and what went wrong (None if nothing).  Each
    sample may take until the deadline, and at least one second.  A failed
    sample keeps its time and ends the sampling."""
    code = f"import {module}, sys; sys.stdout.write('.'); sys.stdout.flush()"
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        limit = time.monotonic() + max(deadline - time.monotonic(), 1.0)
        proc = subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE
        )
        ready = b""  # stays empty if the import outlives the time limit
        try:
            if select.select([proc.stdout], [], [], max(limit - time.monotonic(), 0.0))[0]:
                ready = proc.stdout.read(1)
            times.append(time.perf_counter() - start)
            proc.wait(timeout=max(limit - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if ready != b"." or proc.returncode != 0:
            return times, f"`import {module}` failed or timed out in a fresh interpreter"
    return times, None


def library_pass(workload, seed, traced, deadline):
    child = Spawned(
        [sys.executable, str(BENCH / "child.py"), workload, str(seed), "1" if traced else "0"],
        deadline,
    )
    try:
        out = json.loads(child.stdout.decode().splitlines()[-1])
    except (IndexError, ValueError):
        reason = child.stderr.decode().strip().splitlines()[-1:] or [f"exit {child.code}"]
        return {"wall_s": child.seconds, "answers": None, "error": reason[0],
                "rss_mb": child.rss_mb, "layers": None}
    out["rss_mb"] = child.rss_mb
    return out


def write_deg(seed):
    """The (perm, 6, b) ground as a .deg file, vertices renamed and all lines
    shuffled by the seed.  Class shapes do not depend on the seed."""
    sys.path.insert(0, str(SRC))
    from dualeq.engine import build_ground

    g = build_ground(("perm", 6, "b"))
    rng = random.Random(seed)
    name = rng.sample(range(10 * g.size), g.size)
    order = rng.sample(range(g.size), g.size)
    edges = [(i, x, y) for i, t in g.invs.items() for x, y in enumerate(t) if x < y]
    rng.shuffle(edges)
    lines = ["deg 1", f"n {g.n} stat peak"]
    lines += [f"vertex v{name[x]} {{{','.join(map(str, sorted(g.stats[x])))}}}" for x in order]
    lines += [f"edge {i} v{name[x]} v{name[y]}" for i, x, y in edges]
    WORK.mkdir(exist_ok=True)
    path = WORK / f"perm6b-{seed}.deg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def cli_answer(args, stdout, code):
    answer = {"exit": code, "sha256": hashlib.sha256(stdout).hexdigest()}
    lines = stdout.decode().splitlines()
    if args[0] == "enumerate" and lines and lines[-1].startswith("count "):
        answer["count"] = int(lines[-1].split()[1])
    if args[0] == "classify" and "--porcelain" in args:
        answer["shapes"] = sorted(ln.split()[2] for ln in lines if ln.startswith("class "))
    return answer


def request_id(args):
    return " ".join(args)


def cli_pass(seed, traced, deadline, deg):
    """The requests once each, in seeded order, as a closed loop with one
    client: the next request is spawned when the previous one has exited."""
    order = list(range(len(REQUESTS)))
    random.Random(seed).shuffle(order)
    answers, request_s, rss, layers = {}, [], [], {}
    start = time.perf_counter()
    for k in order:
        args = REQUESTS[k][0]
        argv = [str(deg.relative_to(ROOT)) if a == DEG else a for a in args]
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), *argv]
        else:
            argv = [sys.executable, "-m", "dualeq", *argv]
        child = Spawned(argv, deadline)
        request_s.append(child.seconds)
        rss.append(child.rss_mb)
        if child.killed:
            answers[request_id(args)] = {"error": "killed at the time limit"}
            continue
        answers[request_id(args)] = cli_answer(args, child.stdout, child.code)
        if traced:
            try:
                spans = json.loads(child.stderr.decode().splitlines()[-1])
            except (IndexError, ValueError):
                answers[request_id(args)] = {"error": "no trace line on stderr"}
                continue
            for name, value in spans.items():
                layers[name] = layers.get(name, 0) + value
    wall_s = time.perf_counter() - start
    return {"wall_s": wall_s, "answers": answers, "rss_mb": max(rss),
            "request_s": request_s, "layers": layers if traced else None}


def check_pass(workload, seed, result, pins):
    """(operations attempted, operations failed, problems) for one pass."""
    if workload == "cli-requests":
        specs = {request_id(args): (expect, DEG in args) for args, expect in REQUESTS}
    else:
        specs = None
    answers = result["answers"]
    if answers is None:
        n = len(pins.get(workload, {})) or 1
        return n, n, [(workload, "pass", result["error"])]
    problems = []
    for op_id, answer in answers.items():
        expect, seeded = specs[op_id] if specs else (None, False)
        for why in checks.op_problems(workload, op_id, answer, pins, seed, expect, seeded):
            problems.append((workload, op_id, why))
    missing = set(pins.get(workload, {})) - set(answers)
    problems += [(workload, op_id, "not run") for op_id in sorted(missing)]
    failed = len({op_id for _, op_id, _ in problems})
    return len(answers) + len(missing), failed, problems


def summarize(values):
    """Median, the highest of PERCENTILES with at least ten samples above
    it (nearest rank) if there is one, and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    tail = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    if tail:
        out[f"p{tail[-1]:g}"] = ordered[math.ceil(tail[-1] / 100 * n) - 1]
    return out


def run_workload(workload, seed, seconds, traced, pins):
    deadline = time.monotonic() + seconds + GRACE_S
    deg = write_deg(seed) if workload == "cli-requests" else None
    try:
        if workload == "cli-requests":
            one_pass = lambda t: cli_pass(seed, t, deadline, deg)  # noqa: E731
        else:
            one_pass = lambda t: library_pass(workload, seed, t, deadline)  # noqa: E731
        if traced:
            return traced_run(workload, seed, one_pass, pins, deadline)
        return measured_run(workload, seed, seconds, one_pass, pins, deadline)
    finally:
        if deg is not None:
            deg.unlink()


def setup_module(workload):
    return "dualeq.cli" if workload == "cli-requests" else "dualeq"


def measured_run(workload, seed, seconds, one_pass, pins, deadline):
    module = setup_module(workload)
    setup, setup_failed = [], False
    attempted, failed, problems = 0, 0, []

    def sample_setup(samples):
        nonlocal setup_failed, attempted, failed
        if setup_failed:
            return
        times, why = setup_times(module, samples, deadline)
        setup.extend(times)
        if why:
            setup_failed = True
            attempted += 1
            failed += 1
            problems.append((workload, "setup", why))

    setup_times(module, 1, deadline)  # unmeasured: writes the .pyc files
    walls, rss, request_s, passes = [], [], [], []
    start = time.monotonic()
    while not walls or (
        (time.monotonic() - start < seconds or len(walls) < MIN_PASSES)
        and time.monotonic() + max(passes) < deadline
    ):
        # set-up samples spread over the run, not bunched in one second
        sample_setup(SETUP_SAMPLES)
        begun = time.monotonic()
        result = one_pass(False)
        passes.append(time.monotonic() - begun)
        n, bad, why = check_pass(workload, seed, result, pins)
        attempted += n
        failed += bad
        problems += why
        walls.append(result["wall_s"])
        rss.append(result["rss_mb"])
        request_s += result.get("request_s", [])
    sample_setup(SETUP_SAMPLES)
    stats = {
        "wall_s": ("s", summarize(walls)),
        "setup_s": ("s", summarize(setup)),
        "peak_rss_mb": ("MB", summarize(rss)),
    }
    if request_s:
        stats["request_s"] = ("s", summarize(request_s))
    return stats, attempted, failed, problems


def traced_run(workload, seed, one_pass, pins, deadline):
    setup_times(setup_module(workload), 1, deadline)  # writes the .pyc files
    # the traced pass sits between two untraced ones, so a drift of the
    # machine's speed over the three passes cancels out of the overhead
    before = one_pass(False)
    traced = one_pass(True)
    after = one_pass(False)
    attempted, failed, problems = 0, 0, []
    for result in (before, traced, after):
        n, bad, why = check_pass(workload, seed, result, pins)
        attempted += n
        failed += bad
        problems += why
    # the wrappers must not change a result
    differ = {
        op_id
        for plain in (before, after)
        for op_id, answer in (plain["answers"] or {}).items()
        if (traced["answers"] or {}).get(op_id) != answer
    }
    failed += len(differ)
    problems += [(workload, op_id, "traced answer differs from untraced")
                 for op_id in sorted(differ)]
    layers = traced["layers"] or {name: 0 for name in tracer.METRICS}
    stats = {name: (tracer.METRICS[name], {"value": layers[name]}) for name in tracer.METRICS}
    untraced_s = (before["wall_s"] + after["wall_s"]) / 2
    stats["trace.overhead_s"] = ("s", {"value": traced["wall_s"] - untraced_s})
    return stats, attempted, failed, problems


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_rows(workload, stats, attempted, failed):
    for name, (unit, s) in stats.items():
        if "median" in s:
            tail = " ".join(f"{k} {v:.4f}" for k, v in s.items() if k.startswith("p"))
            print(f"{workload:16} {name:12} median {s['median']:.4f} {unit:3} "
                  f"n={s['n']:<4} {tail}")
        else:
            print(f"{workload:16} {name:28} {s['value']:.6g} {unit}")
    rate = failed / attempted if attempted else 1.0
    print(f"{workload:16} {'error_rate':12} {rate:.4f} ({failed} of {attempted} operations)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=checks.PIN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dualeq" / "__init__.py").is_file():
        print(f"error: no dualeq sources under {SRC}", file=sys.stderr)
        return 2
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, problems = {}, 0, 0, []
    try:
        for workload in names:
            stats, n, bad, why = run_workload(
                workload, args.seed, args.seconds, args.trace, pins
            )
            print_rows(workload, stats, n, bad)
            attempted += n
            failed += bad
            problems += why
            prefix = "" if len(names) == 1 else f"{workload}/"
            for name, (unit, s) in stats.items():
                if name != "request_s":  # not on every workload, so not gated
                    value = s["median"] if "median" in s else s["value"]
                    metrics[prefix + name] = {"value": value, "unit": unit}
    finally:
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    env["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(env))
    for workload, op_id, why in problems:
        print(f"WRONG {workload} {op_id}: {why}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
