"""G_to_F by one subset-sum pass against the mask-by-mask rewrite it replaced.

The coefficient of F_D in G_P-sums is the sum of c_P over the peak sets P
inside D's spike set (Stembridge, Enriched P-partitions).  The reference
below is the earlier G_to_F: it tests each of the 2^(n-1) descent masks
against every peak set of the vector.
"""

from itertools import combinations

import pytest

from dualeq.core import _mask, _members, peak_sets, strict_partitions_of
from dualeq.qsym import G_to_F, P_in_G, QSymF, QSymG


def ref_G_to_F(g):
    peaks = [(_mask(P), c) for P, c in g.coeffs.items()]
    acc = {}
    for D in range(0, 1 << g.n, 2):  # descent masks: bits 1..n-1
        spike = D ^ D << 1
        c = sum(c for P, c in peaks if P & spike == P)
        if c:
            acc[_members(D)] = c
    return QSymF(g.n, acc)


@pytest.mark.parametrize("n", range(13))
def test_every_strict_shape_up_to_twelve_cells(n):
    for shape in strict_partitions_of(n):
        g = P_in_G(shape)
        assert G_to_F(g) == ref_G_to_F(g), shape


def hand_made(n):
    """G-vectors of degree n: each peak set alone, every pair of peak sets
    with coefficients of both signs, and all peak sets with distinct
    coefficients (so the sums cancel nowhere by accident)."""
    sets = peak_sets(n)
    yield from (QSymG(n, {P: 1}) for P in sets)
    yield from (QSymG(n, {P: 3, Q: -2}) for P, Q in combinations(sets, 2))
    yield QSymG(n, {P: 1 << k for k, P in enumerate(sets)})
    yield QSymG(n, {})


@pytest.mark.parametrize("n", range(9))
def test_hand_made_vectors_of_degree_up_to_eight(n):
    for g in hand_made(n):
        assert G_to_F(g) == ref_G_to_F(g), g


@pytest.mark.parametrize("n, members", [(4, {1}), (4, {4}), (3, {2, 5}), (0, {2})])
def test_a_key_outside_the_peak_positions_is_refused(n, members):
    with pytest.raises(ValueError, match="outside"):
        G_to_F(QSymG(n, {frozenset(members): 1}))
