"""The three layers the shifted sweep does once, against the paths they replaced.

tableaux._descent_masks counts the descent masks of the standard words by a
transfer over the subshapes; schur_in_F and P_in_G read it.  Here both are
compared with in-test copies of the enumerating versions on every shape of
an exhaustive small range.  engine._EXPANSIONS keeps each window vector's
expansion for the life of the process: a ground verified after others gets
the report a fresh process gives it.  Condition (i) compares whole
fixed-point tables: on grounds with wrong fixed points its report is the
per-object walk's.  The table-driven b is compared in test_word_layer.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from dualeq import engine, qsym, tableaux
from dualeq.core import InvalidShapeError, _members, partitions_of, peak_of, strict_partitions_of
from dualeq.engine import (
    _Acc,
    build_ground,
    lemma_axiom4_check,
    parse_deg,
    relabel_peak_minus_one,
    verify_shifted,
    verify_strong,
    verify_weak,
)
from dualeq.qsym import G_of_peaks, P_in_F, P_in_G, Q_in_F, QSymF, schur_in_F
from dualeq.tableaux import _descent_mask, _descent_masks, _inverse, _standard_words

SRC = Path(__file__).resolve().parent.parent / "src"

# --- the reference: the basis vectors from the listed words ---


def ref_word_masks(words):
    return Counter(map(_descent_mask, words, map(_inverse, words)))


def ref_word_descents(words):
    return Counter({_members(m): c for m, c in ref_word_masks(words).items()})


def ref_schur_in_F(shape):
    return QSymF(sum(shape), ref_word_descents(_standard_words(shape, False)))


def ref_P_in_G(shape):
    shape = tuple(shape)
    peaks = Counter()
    for D, c in ref_word_descents(_standard_words(shape, True)).items():
        peaks[peak_of(D)] += c
    return G_of_peaks(sum(shape), peaks)


def shapes(strict, most):
    of = strict_partitions_of if strict else partitions_of
    return [lam for n in range(most + 1) for lam in of(n)]


STRAIGHT_SHAPES = shapes(False, 9)
STRICT_SHAPES = shapes(True, 12)


@pytest.mark.parametrize("strict, lam", [(False, lam) for lam in STRAIGHT_SHAPES]
                         + [(True, lam) for lam in STRICT_SHAPES], ids=str)
def test_descent_masks_count_the_listed_words(strict, lam):
    assert _descent_masks(lam, strict) == ref_word_masks(_standard_words(lam, strict))


def test_the_range_holds_degree_zero():
    assert STRAIGHT_SHAPES[0] == STRICT_SHAPES[0] == ()
    assert _descent_masks((), False) == _descent_masks((), True) == Counter({0: 1})


def test_schur_in_F_matches_the_enumerating_version():
    for lam in STRAIGHT_SHAPES:
        assert schur_in_F(lam) == ref_schur_in_F(lam), lam


def test_P_in_G_matches_the_enumerating_version():
    for lam in STRICT_SHAPES:
        assert P_in_G(lam) == ref_P_in_G(lam), lam
        assert P_in_G(list(lam)) == P_in_G(lam)


def test_the_vectors_list_no_words(monkeypatch):
    def listed(*args):
        raise AssertionError("a basis vector listed the standard words")

    monkeypatch.setattr(tableaux, "_standard_words", listed)
    schur_in_F((4, 3, 1))
    P_in_G((6, 4, 2))


def raised(f, shape):
    try:
        f(shape)
    except Exception as exc:  # the type and the text are compared
        return type(exc), str(exc)
    raise AssertionError(f"{shape} was accepted")


@pytest.mark.parametrize("shape", [
    (1, 2), (2, 2, 3), (0,), (2, 0), (-1,), (1.5,), ("a",), (2, "x"), (3, -1),
])
def test_bad_shapes_raise_as_before(shape):
    # the shape is checked before it is summed: no maker raises a TypeError
    assert raised(schur_in_F, shape) == (InvalidShapeError, f"not a partition: {shape}")
    assert raised(P_in_G, shape) == raised(ref_P_in_G, shape)
    for maker in (P_in_G, P_in_F, Q_in_F):
        assert raised(maker, shape) == (InvalidShapeError, f"not a strict partition: {shape}")


def test_repeated_parts_are_refused_for_P_only():
    assert schur_in_F((2, 2)) == ref_schur_in_F((2, 2))
    assert raised(P_in_G, (2, 2)) == raised(ref_P_in_G, (2, 2))


# --- the expansion memo: one per process ---

# (descriptor, verifier name, keyword arguments)
CASES = [
    (("perm", 6, "b"), "verify_shifted", {}),
    (("perm", 6, "b"), "verify_shifted", {"literal_peak_window": True}),
    (("perm", 6, "b"), "lemma_axiom4_check", {}),
    (("perm", 6, "b"), "relabel_strong", {}),
    (("signedperm", 4, "phi"), "verify_weak", {}),
    (("signedperm", 4, "phi"), "verify_strong", {}),
    (("shsyt", (6, 4, 2), "b"), "verify_shifted", {}),
    (("shsyt", (6, 4, 2), "b"), "verify_shifted", {"literal_peak_window": True}),
    (("shsyt", (6, 4, 2), "b"), "lemma_axiom4_check", {}),
]

VERIFIERS = {
    "verify_shifted": verify_shifted,
    "verify_weak": verify_weak,
    "verify_strong": verify_strong,
    "lemma_axiom4_check": lemma_axiom4_check,
    "relabel_strong": lambda g: verify_strong(relabel_peak_minus_one(g)),
}


def dump(report):
    """A report as plain data: every field, witnesses in their order."""
    return [
        report.kind,
        report.ground,
        list(map(list, report.results.items())),
        list(map(list, report.counts.items())),
        report.notes,
        [[w.condition, list(w.labels), w.detail] for w in report.witnesses],
    ]


def run_case(case):
    desc, name, kwargs = case
    return dump(VERIFIERS[name](build_ground(desc), **kwargs))


FRESH = """
import json, sys
from test_sweep_layers import CASES, run_case
print(json.dumps(run_case(CASES[int(sys.argv[1])])))
"""


def fresh_report(k):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(Path(__file__).parent)])
    out = subprocess.run([sys.executable, "-c", FRESH, str(k)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_a_ground_verified_after_others_reports_as_in_a_fresh_process():
    fresh = [fresh_report(k) for k in range(len(CASES))]
    for order in (range(len(CASES)), reversed(range(len(CASES)))):
        for k in order:  # every case after some or all of the others
            assert json.loads(json.dumps(run_case(CASES[k]))) == fresh[k], CASES[k]
    assert engine._EXPANSIONS  # the later runs read the memo


def test_the_memo_expands_each_distinct_vector_once(monkeypatch):
    monkeypatch.setattr(engine, "_EXPANSIONS", {})
    calls = []

    def counted(vec):
        calls.append(vec)
        return qsym.expand(vec)

    monkeypatch.setattr(engine, "expand", counted)
    g = build_ground(("shsyt", (5, 3, 1), "b"))
    first = dump(verify_shifted(g))
    assert 0 < len(calls) == len(engine._EXPANSIONS)
    assert dump(verify_shifted(g)) == first
    lemma_axiom4_check(g)  # lemma (v)'s windows are some of (iv)'s
    assert len(calls) == len(engine._EXPANSIONS)
    verify_shifted(build_ground(("shsyt", (6, 3, 1), "b")))
    assert len(calls) == len(engine._EXPANSIONS)


# --- condition (i) by whole tables, against the per-object walk ---


def ref_fixed_law(g, report, fix, masks, law):
    acc = _Acc(report, "i", g.labels)
    for i in g.index_range():
        for x, (y, m) in enumerate(zip(g.invs[i], masks)):
            if (y == x) != law(m, i):
                acc.fail((x,), f"fixed-point law fails at index {i}")


def deg_text(g, drop=None, join=None, stat=None):
    """g as a .deg file, without the edge drop (i, x) of involution i, whose
    two ends become fixed points, with join (i, x, y) pairing two of its
    fixed points, and with stat (x, s) giving object x the statistic s."""
    stats = list(g.stats)
    if stat is not None:
        stats[stat[0]] = stat[1]
    lines = ["deg 1", f"n {g.n} stat {g.stat_kind}"]
    lines += [f"vertex {lab} {{ {', '.join(map(str, sorted(s)))} }}"
              for lab, s in zip(g.labels, stats)]
    for i, table in g.invs.items():
        for x, y in enumerate(table):
            if x < y and drop != (i, x):
                lines.append(f"edge {i} {g.labels[x]} {g.labels[y]}")
    if join is not None:
        i, x, y = join
        lines.append(f"edge {i} {g.labels[x]} {g.labels[y]}")
    return "\n".join(lines) + "\n"


def injected(desc):
    """Files of the ground desc with wrong fixed points at its first and its
    last object.  For the first and the last index, a moved object loses its
    edge, or a fixed one is paired with another fixed point: two wrong
    objects each time.  And one object alone: its statistic toggles the
    one position only one index reads, descent 1 (index 2) or peak n-1
    (index n-2)."""
    g = build_ground(desc)
    out = []
    for x in (0, g.size - 1):
        for i in (min(g.invs), max(g.invs)):
            table = g.invs[i]
            fixed = [y for y, z in enumerate(table) if y == z]
            if table[x] != x:
                out.append(deg_text(g, drop=(i, min(x, table[x]))))
            elif len(fixed) > 1:
                out.append(deg_text(g, join=(i, x, fixed[1] if x == fixed[0] else fixed[0])))
        s, h = g.stats[x], 1 if g.stat_kind == "des" else g.n - 1
        if g.stat_kind == "des" or h in s or h - 1 not in s:
            out.append(deg_text(g, stat=(x, s ^ {h})))
    return out


@pytest.mark.parametrize("desc, verify", [
    (("perm", 5, "d"), verify_strong),
    (("perm", 5, "d"), verify_weak),
    (("signedperm", 3, "phi"), verify_weak),
    (("perm", 6, "b"), verify_shifted),
    (("shsyt", (5, 3, 1), "b"), verify_shifted),
], ids=str)
def test_fixed_law_reports_are_the_walks_on_injected_failures(desc, verify, monkeypatch):
    for text in injected(desc):
        g = parse_deg(text)
        got = verify(g)
        assert not got.results["i"]
        with monkeypatch.context() as m:
            m.setattr(engine, "_check_fixed_law", ref_fixed_law)
            want = verify(g)
        assert dump(got) == dump(want)

