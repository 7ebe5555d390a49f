"""One pass of a library workload, in a fresh interpreter.

    python bench/child.py <workload> <seed> <0|1>

Runs every operation of the workload once, in the order the seed gives,
and prints one JSON object: ``wall_s`` (first timed call to last verdict),
``answers`` (operation id -> verdict, or {"error": ...} if it raised) and,
with tracing on, ``layers`` (the per-layer metrics of tracer.py).  The
parent puts ``src`` on PYTHONPATH; the pass refuses to run any other copy
of dualeq.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
# shapes of the lemma-iso workload: 10-12 cells, (6,4,2) rebuilds the most
# target grounds
LEMMA_SHAPES = [(6, 3, 1), (5, 3, 2, 1), (5, 4, 2, 1), (6, 4, 2)]


def _report(r):
    return {"results": r.results, "counts": r.counts}


def weak_signedperm(dq, seed):
    """build_ground + verify_weak on the 46,080 signed permutations of 6."""
    state = {}

    def build():
        state["g"] = dq.engine.build_ground(("signedperm", 6, "phi"))
        return {"size": state["g"].size}

    def verify():
        return _report(dq.engine.verify_weak(state["g"]))

    return [("build signedperm 6 phi", build), ("verify_weak signedperm 6 phi", verify)]


def shifted_sweep(dq, seed):
    """Every strict shape of 2..12 cells: build, verify_shifted, and a Schur-P
    certificate for each class."""
    shapes = [lam for n in range(2, 13) for lam in dq.core.strict_partitions_of(n)]
    random.Random(seed).shuffle(shapes)

    def op(lam):
        def run():
            g = dq.engine.build_ground(("shsyt", lam, "b"))
            answer = _report(dq.engine.verify_shifted(g))
            answer["size"] = g.size
            answer["certificates"] = [
                " + ".join(_render(dq.qsym.expand_in_P(dq.engine.class_genfn(g, c))))
                for c in dq.engine.classes(g)
            ]
            return answer

        return (f"shsyt {dq.core.partition_str(lam)}", run)

    return [op(lam) for lam in shapes]


def lemma_iso(dq, seed):
    """lemma_axiom4_check, conditions v and vi, on LEMMA_SHAPES."""
    shapes = list(LEMMA_SHAPES)
    random.Random(seed).shuffle(shapes)

    def op(lam):
        def run():
            g = dq.engine.build_ground(("shsyt", lam, "b"))
            answer = _report(dq.engine.lemma_axiom4_check(g))
            answer["size"] = g.size
            return answer

        return (f"lemma {dq.core.partition_str(lam)}", run)

    return [op(lam) for lam in shapes]


def _render(expansion):
    if hasattr(expansion, "render"):
        return expansion.render()
    return [f"{type(expansion).__name__} {sorted(expansion.witness)}"]


WORKLOADS = {
    "weak-signedperm": weak_signedperm,
    "shifted-sweep": shifted_sweep,
    "lemma-iso": lemma_iso,
}


def main(argv):
    workload, seed, traced = argv[0], int(argv[1]), argv[2] == "1"
    import dualeq
    import dualeq.core
    import dualeq.engine
    import dualeq.qsym

    if Path(dualeq.__file__).resolve().parent != ROOT / "src" / "dualeq":
        sys.exit(f"refusing to benchmark {dualeq.__file__}: not {ROOT / 'src'}")
    trace = None
    if traced:
        trace = tracer.Tracer()
        tracer.install(trace)
    ops = WORKLOADS[workload](dualeq, seed)
    answers = {}
    start = time.perf_counter()
    for op_id, run in ops:
        try:
            answers[op_id] = run()
        except Exception as exc:  # a failed operation is data for the parent
            answers[op_id] = {"error": f"{type(exc).__name__}: {exc}"}
    wall_s = time.perf_counter() - start
    out = {"wall_s": wall_s, "answers": answers}
    if trace is not None:
        out["layers"] = trace.metrics()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
