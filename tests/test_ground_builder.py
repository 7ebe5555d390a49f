"""The tableau grounds are built on reading words; these tests pin them to
the tableau-level involutions they replace and check the target cache."""

import pytest

from dualeq.core import (
    InternalInvariantError,
    partitions_of,
    peak_of,
    strict_partitions_of,
)
from dualeq.engine import (
    DES,
    PEAK,
    DEGround,
    _materialize,
    _shifted_target,
    build_ground,
    classes,
    classify_shifted_class,
    lemma_axiom4_check,
)
from dualeq.involutions import b_tab, d_tab
from dualeq.tableaux import (
    descent_set_tab,
    enumerate_shsyt,
    enumerate_syt,
    reading_word,
    word_str,
)


def tableau_level_ground(kind, shape):
    """The ground as built before reading-word tables: each involution
    applied to the tableau itself, images re-validated by d_tab / b_tab."""
    if kind == "syt":
        tabs, stat_kind, move = enumerate_syt(shape), DES, d_tab
        stats = [descent_set_tab(T) for T in tabs]
        family = "d"
    else:
        tabs, stat_kind, move = enumerate_shsyt(shape), PEAK, b_tab
        stats = [peak_of(descent_set_tab(T)) for T in tabs]
        family = "b"
    n = sum(shape)
    index_of = {T: k for k, T in enumerate(tabs)}
    hi = n if stat_kind == DES else n - 1
    invs = {i: tuple(index_of[move(i, T)] for T in tabs) for i in range(2, hi)}
    return DEGround(
        stat_kind,
        n,
        tuple(word_str(reading_word(T)) for T in tabs),
        tuple(stats),
        invs,
        tuple(tabs),
        f"({kind},{shape},{family})",
    )


GROUNDS = [("syt", lam) for n in range(1, 9) for lam in partitions_of(n)] + [
    ("shsyt", lam) for n in range(1, 9) for lam in strict_partitions_of(n)
]


@pytest.mark.parametrize("kind, shape", GROUNDS)
def test_word_tables_match_tableau_involutions(kind, shape):
    family = "d" if kind == "syt" else "b"
    got = build_ground((kind, shape, family))
    want = tableau_level_ground(kind, shape)
    assert got.labels == want.labels
    assert got.stats == want.stats
    assert got.invs == want.invs
    assert got.objects == want.objects
    assert got == want


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
