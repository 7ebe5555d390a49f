"""Known answers for the benchmark's operations.

Every operation's answer is checked twice:

* against the answer pinned in pins.json (taken at PIN_SEED on commit
  4c7aa04), exactly, including the lemma-iso counts of condition vi that
  the benchmark pins but does not judge;
* against facts that need no pin: the axiom systems the paper proves hold
  on these grounds, every class of a shifted ground certifies as the unit
  vector P_lambda, and tableau counts follow the hook-length and Thrall
  formulas.

The seed only reorders operations and relabels the cli-requests .deg file,
so pins apply at every seed, except the stdout digest of a request that
reads the relabelled file ("seeded"), which is compared at PIN_SEED only.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial, prod

PIN_SEED = 0
SEEDED_FIELDS = ("sha256",)


def syt_count(shape):
    """Standard Young tableaux of a straight shape (hook-length formula)."""
    conj = [sum(1 for r in shape if r > c) for c in range(shape[0])] if shape else []
    hooks = prod(
        (shape[r] - c - 1) + (conj[c] - r - 1) + 1
        for r in range(len(shape))
        for c in range(shape[r])
    )
    return factorial(sum(shape)) // hooks


def shsyt_count(shape):
    """Standard shifted tableaux of a strict shape (Thrall's formula)."""
    g = Fraction(factorial(sum(shape)), prod(factorial(p) for p in shape))
    for i in range(len(shape)):
        for j in range(i + 1, len(shape)):
            g *= Fraction(shape[i] - shape[j], shape[i] + shape[j])
    return int(g)


def shape_of(op_id):
    """The partition at the end of an operation id like "shsyt [6,3,1]"."""
    return tuple(json.loads(op_id.rsplit(" ", 1)[1]))


def fact_problems(workload, op_id, answer, expect=None):
    """Why an answer contradicts a fact that needs no pin ([] if none)."""
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    if workload == "weak-signedperm":
        if op_id.startswith("build"):
            need(answer.get("size") == 2**6 * factorial(6), "size is not 2^6 * 6!")
        else:
            need(all(answer["results"].values()), "weak axioms do not all pass")
    elif workload == "shifted-sweep":
        lam = shape_of(op_id)
        need(answer["size"] == shsyt_count(lam), "size differs from Thrall's formula")
        need(all(answer["results"].values()), "shifted axioms do not all pass")
        unit = "1 P[" + ",".join(map(str, lam)) + "]"
        need(
            all(c == unit for c in answer["certificates"]),
            f"a class does not certify as {unit}",
        )
    elif workload == "lemma-iso":
        lam = shape_of(op_id)
        need(answer["size"] == shsyt_count(lam), "size differs from Thrall's formula")
        need(answer["results"].get("v") is True, "condition v fails")
    elif expect:  # cli-requests
        for key, want in expect.items():
            need(answer.get(key) == want, f"{key} is {answer.get(key)!r}, expected {want!r}")
    return problems


def op_problems(workload, op_id, answer, pins, seed, expect=None, seeded=False):
    """Everything wrong with one operation's answer ([] when it is right)."""
    if "error" in answer:
        return [f"raised {answer['error']}"]
    problems = fact_problems(workload, op_id, answer, expect)
    pinned = pins.get(workload, {}).get(op_id)
    if pinned is None:
        return problems + ["no pinned answer"]
    got, want = answer, pinned
    if seeded and seed != PIN_SEED:
        got = {k: v for k, v in answer.items() if k not in SEEDED_FIELDS}
        want = {k: v for k, v in pinned.items() if k not in SEEDED_FIELDS}
    if got != want:
        problems.append(f"differs from the pin: got {got}, pinned {want}")
    return problems
