"""Every builtin ground is built on words; these tests pin each one to a
reference builder, check the leak guard and check the target cache."""

from itertools import permutations, product

import pytest

from dualeq.core import (
    InternalInvariantError,
    partitions_of,
    peak_of,
    spike_of,
    strict_partitions_of,
)
from dualeq.engine import (
    DES,
    PEAK,
    _materialize,
    _shifted_target,
    build_ground,
    classes,
    classify_shifted_class,
    lemma_axiom4_check,
)
from dualeq.involutions import b, b_tab, d, d_tab, phi
from dualeq.tableaux import (
    descent_set_tab,
    descent_set_word,
    enumerate_shsyt,
    enumerate_signed_standard,
    enumerate_syt,
    is_standard,
    reading_word,
    tableau,
    word_str,
)


def psi_tab(i, S):
    """psi on the tableau itself: the cells of i-1, i, i+1 are located in
    the grid, moved there, and the result is rebuilt and re-validated."""
    w = reading_word(S)
    n = len(w)
    if i not in spike_of(descent_set_word(w), n):
        return S
    located = {}
    for r, c, e in S.cells():
        if abs(e) in (i - 1, i, i + 1):
            located[abs(e)] = (r, c, e)
    order = sorted(located.values(), key=lambda rc: w.index(rc[2]))
    (ra, ca, ea), (rb, cb, eb), (rc_, cc, ec) = order
    grid = {(r, c): e for r, c, e in S.cells()}
    if ca == cc and cb != cc:
        grid[(rc_, cc)] = -ec
    elif (eb < 0) != (ec < 0):
        grid[(rb, cb)] = -eb
        grid[(rc_, cc)] = -ec
    else:
        sa = -1 if ea < 0 else 1
        sc = -1 if ec < 0 else 1
        grid[(ra, ca)] = sa * abs(ec)
        grid[(rc_, cc)] = sc * abs(ea)
    rows = [
        tuple(grid[(r, c)] for c in range(r, r + width))
        for r, width in enumerate(S.shape, 1)
    ]
    out = tableau(S.kind, rows)
    assert is_standard(out), (i, word_str(w))
    return out


MOVES = {
    ("perm", "d"): d,
    ("perm", "b"): b,
    ("signedperm", "phi"): phi,
    ("syt", "d"): d_tab,
    ("shsyt", "b"): b_tab,
    ("signed-shsyt", "psi"): psi_tab,
}


TABLEAUX = {
    "syt": enumerate_syt,
    "shsyt": enumerate_shsyt,
    "signed-shsyt": lambda shape: enumerate_signed_standard(shape, False),
}


def reference_ground(kind, param, family):
    """(stat_kind, n, labels, stats, invs) built the way each ground was
    built before the registry: words or tableaux enumerated directly, each
    involution applied to the object itself."""
    if kind in ("perm", "signedperm"):
        n = param
        objects = list(permutations(range(1, n + 1)))
        if kind == "signedperm":
            objects = [
                tuple(s * v for s, v in zip(signs, w))
                for w in objects
                for signs in product((1, -1), repeat=n)
            ]
        words = objects
        stats = [descent_set_word(w) for w in words]
    else:
        n = sum(param)
        objects = TABLEAUX[kind](param)
        words = [reading_word(T) for T in objects]
        stats = [descent_set_tab(T) for T in objects]
    move = MOVES[kind, family]
    stat_kind = PEAK if family == "b" else DES
    if stat_kind == PEAK:
        stats = [peak_of(D) for D in stats]
    index_of = {x: k for k, x in enumerate(objects)}
    hi = n if stat_kind == DES else n - 1
    invs = {i: tuple(index_of[move(i, x)] for x in objects) for i in range(2, hi)}
    return stat_kind, n, tuple(word_str(w) for w in words), tuple(stats), invs


def assert_matches_reference(kind, param, family):
    got = build_ground((kind, param, family))
    stat_kind, n, labels, stats, invs = reference_ground(kind, param, family)
    assert (got.stat_kind, got.n) == (stat_kind, n)
    assert got.labels == labels
    assert got.stats == stats
    assert got.invs == invs
    assert got.desc == f"({kind},{param},{family})"


GROUNDS = [("syt", lam) for n in range(1, 9) for lam in partitions_of(n)] + [
    ("shsyt", lam) for n in range(1, 9) for lam in strict_partitions_of(n)
]


@pytest.mark.parametrize("kind, shape", GROUNDS)
def test_word_tables_match_tableau_involutions(kind, shape):
    assert_matches_reference(kind, shape, "d" if kind == "syt" else "b")


OTHER_GROUNDS = (
    [("perm", n, family) for family in ("d", "b") for n in range(8)]
    + [("signedperm", n, "phi") for n in range(6)]
    + [("syt", (), "d"), ("shsyt", (), "b")]
    + [
        ("signed-shsyt", lam, "psi")
        for n in range(9)
        for lam in strict_partitions_of(n)
    ]
)


@pytest.mark.parametrize("kind, param, family", OTHER_GROUNDS)
def test_builtin_ground_matches_reference(kind, param, family):
    assert_matches_reference(kind, param, family)


def test_image_outside_the_ground_raises_internal_error():
    words = [(1, 2, 3), (2, 1, 3)]

    def leaks(i, w):
        return (3, 2, 1) if w == (2, 1, 3) else w

    with pytest.raises(InternalInvariantError, match=r"involution 2 of \(toy\)"):
        _materialize(DES, 3, words, ["123", "213"], [frozenset(), frozenset({1})],
                     leaks, "(toy)")


def test_shifted_target_is_built_once_and_never_changed():
    shape = (4, 2, 1)
    target = _shifted_target(shape)
    assert _shifted_target(shape) is target
    invs = {i: tuple(t) for i, t in target.invs.items()}
    stats = tuple(target.stats)
    g = build_ground(("shsyt", (6, 4, 2), "b"))
    assert lemma_axiom4_check(g, include_vi=False).results["v"]
    h = build_ground(("shsyt", shape, "b"))
    assert classify_shifted_class(h, classes(h)[0]).shape == shape
    assert _shifted_target(shape) is target
    assert target.invs == invs
    assert target.stats == stats
    assert target == h
