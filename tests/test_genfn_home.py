"""qsym is the one home of the Schur-P weighting (G_of_peaks) and of the
choice of basis (expand).  These tests pin both against in-test copies of
the code they replaced: the explicit least = rows - 1 formula of P_in_G,
the engine's own weighting of a class's peak sets, and the choice of
expander by statistic kind."""

from collections import Counter

import pytest

from test_sweep_layers import ref_word_descents
from test_window_reads import window_genfn

from dualeq.cli import _expansion_summary
from dualeq.core import _members, peak_of, strict_partitions_of
from dualeq.engine import (
    DES,
    _stat_masks,
    _vector_genfn,
    _window_classes,
    build_ground,
    class_genfn,
    classes,
)
from dualeq.qsym import (
    G_of_peaks,
    NotInSpan,
    NotSymmetric,
    P_in_G,
    QSymF,
    QSymG,
    expand,
    expand_in_P,
    expand_in_schur,
)
from dualeq.tableaux import _standard_words


def ref_P_in_G(shape):
    """P_in_G before G_of_peaks: multiplicity 2^(|P| - least) with
    least = rows - 1, and 0 for the empty shape."""
    shape = tuple(shape)
    least = max(len(shape) - 1, 0)
    acc = Counter()
    for D, c in ref_word_descents(_standard_words(shape, True)).items():
        P = peak_of(D)
        acc[P] += c * 2 ** (len(P) - least)
    return QSymG(sum(shape), acc)


def ref_genfn(stat_kind, degree, stats):
    """The engine's generating function before G_of_peaks."""
    if stat_kind == DES:
        return QSymF(degree, stats)
    m = min(map(len, stats))
    return QSymG(degree, {P: c * 2 ** (len(P) - m) for P, c in stats.items()})


def ref_expand(g, vec):
    """The expander chosen by the ground's statistic kind."""
    return (expand_in_schur if g.stat_kind == DES else expand_in_P)(vec)


STRICT_TO_12 = [lam for n in range(13) for lam in strict_partitions_of(n)]


@pytest.mark.parametrize("lam", STRICT_TO_12, ids=str)
def test_P_in_G_matches_the_rows_formula(lam):
    assert P_in_G(lam) == ref_P_in_G(lam)


def test_G_of_peaks_weights_by_the_least_peak_count():
    peaks = Counter({frozenset(): 2, frozenset({2}): 3, frozenset({2, 4}): 1})
    assert G_of_peaks(5, peaks) == QSymG(5, {(): 2, (2,): 6, (2, 4): 4})
    shifted = Counter({frozenset({3}): 1, frozenset({2, 4}): 5})
    assert G_of_peaks(5, shifted) == QSymG(5, {(3,): 1, (2, 4): 10})


GROUNDS = [("perm", 5, "d"), ("perm", 6, "b"), ("signedperm", 4, "phi")] + [
    ("shsyt", lam, "b") for n in range(1, 9) for lam in strict_partitions_of(n)
]


def _class_vectors(g):
    """The whole-class generating functions of g and the vectors of every
    class of every window of 2-4 consecutive involutions, each paired with
    the engine's old weighting of the same statistics."""
    for comp in classes(g):
        stats = Counter(g.stats[x] for x in comp)
        yield class_genfn(g, comp), ref_genfn(g.stat_kind, g.n, stats)
    R = list(g.index_range())
    windows = [(j, i) for j in R for i in R if 1 <= i - j <= 3]
    seen = set()
    for _, _, _, vectors, _ in _window_classes(g, windows, _stat_masks(g)):
        for vector in set(vectors) - seen:
            seen.add(vector)
            stats = Counter(map(_members, vector[1]))
            yield _vector_genfn(g, vector), ref_genfn(g.stat_kind, vector[0], stats)


@pytest.mark.parametrize("desc", GROUNDS, ids=str)
def test_expand_matches_the_expander_of_the_statistic_kind(desc):
    g = build_ground(desc)
    count = 0
    for vec, ref in _class_vectors(g):
        assert vec == ref
        assert expand(vec) == ref_expand(g, vec)
        count += 1
    assert count > 0


def test_expand_of_the_literal_window_vector_is_not_in_span():
    g = build_ground(("shsyt", (3, 2), "b"))
    lit = window_genfn(g, classes(g)[0], (3, 3), literal=True)
    assert isinstance(expand(lit), NotInSpan)
    assert expand(lit) == expand_in_P(lit)


def test_expansion_summary_names_each_result():
    not_symmetric = expand(QSymF(3, {(1,): 1}))
    assert isinstance(not_symmetric, NotSymmetric)
    assert _expansion_summary(not_symmetric) == "not-symmetric witness {1} residual 1"
    assert (
        _expansion_summary(NotSymmetric(frozenset({1, 3}), -2))
        == "not-symmetric witness {1,3} residual -2"
    )
    g = build_ground(("shsyt", (3, 2), "b"))
    lit = window_genfn(g, classes(g)[0], (3, 3), literal=True)
    assert _expansion_summary(expand(lit)) == "not-in-span witness {2} residual 1"
    assert _expansion_summary(NotInSpan(frozenset(), 3)) == "not-in-span witness {} residual 3"
    assert _expansion_summary(expand(class_genfn(g, classes(g)[0]))) == "1 P[3,2]"
    assert _expansion_summary(expand(QSymF(3, {(): 1, (1,): 1, (2,): 1}))) == "1 s[3] + 1 s[2,1]"
