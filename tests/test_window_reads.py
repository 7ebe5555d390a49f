"""engine._window_classes is the one maker of a window's classes and their
restricted statistics.  restricted_class reads one step of it, and a
window's generating function is _vector_genfn of a vector built from
_window.  These tests pin both against in-test copies of the code they
replaced: restricted_class's own walk, and class_genfn's window path."""

from collections import Counter

import pytest

from dualeq.core import _members, partitions_of, strict_partitions_of
from dualeq.engine import (
    _genfn,
    _mask,
    _stat_masks,
    _vector_genfn,
    _window,
    _window_classes,
    build_ground,
    classes,
    restricted_class,
)


def ref_restricted_class(g, t, j, i):
    """restricted_class before the window pass: its own walk from t."""
    if j > i:
        raise ValueError(f"empty window ({j},{i})")
    for k in (j, i):
        if k not in g.invs:
            raise ValueError(f"index {k} outside the involution range")
    seen, members = {t}, [t]
    for x in members:
        for k in range(j, i + 1):
            y = g.invs[k][x]
            if y not in seen:
                seen.add(y)
                members.append(y)
    return tuple(sorted(members))


def ref_class_genfn(g, members, window, literal):
    """class_genfn(g, members, window, literal) before the window pass: each
    member's frozenset restricted through a mask and back."""
    degree, restrict = _window(g, *window, literal)
    stats = (_members(restrict(_mask(g.stats[x]))) for x in members)
    return _genfn(g.stat_kind, degree, Counter(stats))


def window_genfn(g, members, window, literal=False):
    """The generating function of members restricted to window, from the
    vector (degree, sorted restricted masks) that _window gives."""
    degree, restrict = _window(g, *window, literal)
    masks = _stat_masks(g)
    return _vector_genfn(g, (degree, tuple(sorted(restrict(masks[x]) for x in members))))


def windows_of(g):
    R = g.index_range()
    return [(j, i) for j in R for i in R if j <= i]


RESTRICT_GROUNDS = [("perm", 5, "d"), ("perm", 6, "b"), ("signedperm", 4, "phi")] + [
    (kind, lam, family)
    for kind, family, shapes in (
        ("syt", "d", partitions_of),
        ("shsyt", "b", strict_partitions_of),
    )
    for n in range(1, 8)
    for lam in shapes(n)
]


@pytest.mark.parametrize("desc", RESTRICT_GROUNDS, ids=str)
def test_restricted_class_matches_its_own_walk(desc):
    g = build_ground(desc)
    count = 0
    for j, i in windows_of(g):
        for t in range(g.size):
            assert restricted_class(g, t, j, i) == ref_restricted_class(g, t, j, i)
            count += 1
    assert count or g.n < 4


def test_restricted_class_refuses_a_bad_window():
    g = build_ground(("shsyt", (4, 1), "b"))  # involutions 2..3
    for j, i in [(3, 2), (1, 2), (2, 9), (4, 4)]:
        with pytest.raises(ValueError, match=rf"window \({j},{i}\) out of range"):
            restricted_class(g, 0, j, i)


def test_the_pass_checks_the_window_before_reading_a_table():
    g = build_ground(("shsyt", (4, 1), "b"))
    with pytest.raises(ValueError, match=r"window \(2,9\) out of range for degree 5"):
        next(_window_classes(g, [(2, 9)], _stat_masks(g)))


GENFN_GROUNDS = [("perm", 5, "d")] + [
    ("shsyt", lam, "b") for n in range(1, 9) for lam in strict_partitions_of(n)
]


@pytest.mark.parametrize("desc", GENFN_GROUNDS, ids=str)
def test_window_genfn_matches_the_old_window_path(desc):
    g = build_ground(desc)
    masks = _stat_masks(g)
    count = 0
    for window in windows_of(g):
        for literal in (False, True):
            degree, _ = _window(g, *window, literal)
            (_, comps, _, vectors, r), = _window_classes(g, [window], masks, literal)
            for comp in classes(g) + comps:
                want = ref_class_genfn(g, comp, window, literal)
                assert window_genfn(g, comp, window, literal) == want, (window, comp)
                count += 1
            for comp, vector in zip(comps, vectors):  # the pass's own vectors
                assert vector == (degree, tuple(sorted(r[x] for x in comp)))
                assert _vector_genfn(g, vector) == ref_class_genfn(g, comp, window, literal)
    assert count or g.n < 4
