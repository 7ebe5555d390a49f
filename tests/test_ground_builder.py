"""Every builtin ground is built on words; these tests pin each one to a
reference builder, check the leak guard and check the target cache."""

from functools import partial
from itertools import permutations, product

import pytest

from dualeq import tableaux
from dualeq.core import (
    InternalInvariantError,
    partitions_of,
    peak_of,
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
    ground_size,
    lemma_axiom4_check,
)
from dualeq.involutions import _block, _swap, _table, b, b_tab, d, d_tab, phi
from dualeq.tableaux import (
    descent_set_word,
    enumerate_shsyt,
    enumerate_signed_standard,
    enumerate_syt,
    is_standard,
    reading_word,
    tableau,
    word_str,
)
from test_word_layer import spike_of


def descent_set_tab(T):
    """The descent set read off the rows of a standard tableau: i unprimed
    in a strictly lower row than i+1, or i+1 primed in a weakly lower row."""
    row_of = {}
    primed = {}
    for r, row in enumerate(T.rows, 1):
        for e in row:
            row_of[abs(e)] = r
            primed[abs(e)] = e < 0
    out = set()
    for i in range(1, T.size):
        if not primed[i] and row_of[i] < row_of[i + 1]:
            out.add(i)
        elif primed[i + 1] and row_of[i + 1] <= row_of[i]:
            out.add(i)
    return frozenset(out)


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
    assert got.size == ground_size((kind, param, family))
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


@pytest.mark.parametrize("kind", sorted(TABLEAUX))
def test_descent_set_tab_matches_the_rows(kind):
    for n in range(8):
        for lam in strict_partitions_of(n) if kind != "syt" else partitions_of(n):
            for T in TABLEAUX[kind](lam):
                assert tableaux.descent_set_tab(T) == descent_set_tab(T), T


def toy_block(statement):
    """The block reader of a toy statement on three letters, tabulated as
    phi's is, with every signing."""
    return partial(_block, _table(statement, 3, True), 3)


def swaps_ends(block, flag):
    """A toy move: swap the letters of values 1 and 3, signs and all."""
    return _swap(block, *(q for q, e in enumerate(block) if abs(e) != 2))


def test_image_outside_the_ground_raises_internal_error():
    # the move sends 123 to 321, which is not a word of the ground
    words = [(1, 2, 3), (2, 1, 3)]
    with pytest.raises(InternalInvariantError, match=r"involution 2 of \(toy\) sends 123 outside"):
        _materialize(DES, 3, words, toy_block(swaps_ends), "(toy)")


def test_an_image_with_a_prime_off_the_sign_positions_raises_internal_error():
    # signed variants prime position 2 only; the move primes the letter 1,
    # at position 0 in 123, when the letter 3 is primed
    words = [(1, 2, 3), (2, 1, 3)]

    def primes_first(block, flag):
        return tuple(-1 if e == 1 and -3 in block else e for e in block)

    with pytest.raises(InternalInvariantError, match=r"sends 123' outside the ground"):
        _materialize(DES, 3, words, toy_block(primes_first), "(toy)", lambda w: (2,))
    # so is an unknown unsigned image; the signing with no prime goes first
    with pytest.raises(InternalInvariantError, match=r"sends 123 outside the ground"):
        _materialize(DES, 3, words, toy_block(swaps_ends), "(toy)", lambda w: (2,))


def test_a_repeated_word_is_refused():
    # the word -> index dict is made before any table, and a repeated word
    # leaves it short, with or without an involution to tabulate
    words = [(1, 2, 3), (2, 1, 3), (1, 2, 3)]
    for n in (3, 2):
        with pytest.raises(ValueError, match="duplicate labels"):
            _materialize(DES, n, words, toy_block(swaps_ends), "(toy)")


def test_shifted_target_is_built_once_and_never_changed():
    shape = (4, 2, 1)
    target = _shifted_target(shape)
    assert _shifted_target(shape) is target
    invs = {i: tuple(t) for i, t in target.invs.items()}
    stats = tuple(target.stats)
    g = build_ground(("shsyt", (6, 4, 2), "b"))
    assert lemma_axiom4_check(g).results["v"]
    h = build_ground(("shsyt", shape, "b"))
    assert classify_shifted_class(h, classes(h)[0]).shape == shape
    assert _shifted_target(shape) is target
    assert target.invs == invs
    assert target.stats == stats
    assert target == h
