"""The pattern tables a build reads in place of the involution cores.

involutions._local_table runs a core once per pattern of the letters of
values i-1..i+1 (their order, their primes and, for psi, one column flag)
and the builds read the rows by the block readers of _block_reader; b's
rows come from _B_TABLE by _b_block.  Here every entry a block reader
gives for a real word is applied to the word and must give the core's
image, a core that is not local is refused when it is tabulated, and b's
disagreeing moves are refused by a build as they are by b.
"""

from itertools import permutations, product

import pytest

from dualeq import involutions
from dualeq.core import InternalInvariantError, strict_partitions_of
from dualeq.engine import build_ground
from dualeq.involutions import (
    _b_block,
    _block_reader,
    _d,
    _local_table,
    _phi,
    _reading_columns,
    _swap,
    b,
    d,
    phi,
    psi,
)
from dualeq.tableaux import _inverse, _standard_words


def by_block(block, i, w):
    """w moved by the entry block(pos, i) reads for its primes: the swap of
    the entry's letters, their primes from the entry, the others' kept."""
    p, row = block(_inverse(w), i)
    swaps, primes = row[sum(1 << j for j, q in enumerate(p) if w[q] < 0)]
    out = list(map(abs, w))
    for x, y in swaps:
        out[p[x]], out[p[y]] = out[p[y]], out[p[x]]
    for q, e in enumerate(w):
        if (primes >> p.index(q) & 1) if q in p else e < 0:
            out[q] = -out[q]
    return tuple(out)


def perms(n):
    return list(permutations(range(1, n + 1)))


_d_block, _phi_block = _block_reader(_d), _block_reader(_phi, True)


@pytest.mark.parametrize("n", range(3, 8))
def test_d_and_b_rows_give_the_cores_images(n):
    for w in perms(n):
        for i in range(2, n):
            assert by_block(_d_block, i, w) == d(i, w), (i, w)
        for i in range(2, n - 1):
            assert by_block(_b_block, i, w) == b(i, w), (i, w)


@pytest.mark.parametrize("n", range(3, 6))
def test_phi_rows_give_the_cores_images(n):
    for w in perms(n):
        for signs in product((1, -1), repeat=n):
            v = tuple(map(int.__mul__, signs, w))
            for i in range(2, n):
                assert by_block(_phi_block, i, v) == phi(i, v), (i, v)


def test_psi_rows_give_the_cores_images_on_every_signed_shifted_word():
    pairs = 0
    for n in range(9):
        for lam in strict_partitions_of(n):
            block = lambda pos, i: _phi_block(pos, i, col=_reading_columns(lam))
            for w in _standard_words(lam, True, False):
                for i in range(2, n):
                    assert by_block(block, i, w) == psi(i, w, lam), (lam, i, w)
                    pairs += 1
    assert pairs == 24_094


def primes_the_next(i, w, pos, des):
    p = pos[i + 2]  # the letter i+2, off the letters the move may change
    return w[:p] + (-w[p],) + w[p + 1 :]


@pytest.mark.parametrize("core", [
    lambda i, w, pos, des: _swap(w, pos[i + 1], pos[i + 2]),  # moves i+2
    primes_the_next,
    lambda i, w, pos, des: _swap(_swap(w, pos[i - 1], pos[i]), pos[i], pos[i + 1]),  # a 3-cycle
    lambda i, w, pos, des: w[:-1],
], ids=["moves-a-letter-off", "primes-a-letter-off", "three-cycle", "drops-a-letter"])
def test_a_core_that_is_not_local_is_refused(core):
    with pytest.raises(InternalInvariantError, match="is not local"):
        _local_table(core)


def test_a_patched_phi_that_reads_past_its_letters_is_refused(monkeypatch):
    # phi with the letter i+2 primed as well wherever it changes the word
    def reaching(i, w, pos, des, col=None):
        y = _phi(i, w, pos, des, col)
        return y if y == w else primes_the_next(i, y, pos, des)

    monkeypatch.setattr(involutions, "_phi", reaching)
    with pytest.raises(InternalInvariantError, match="reaching is not local"):
        _local_table(involutions._phi, columns=True)


def test_a_build_refuses_disagreeing_b_moves(monkeypatch):
    # the fifth move of test_b_raises_when_candidate_moves_disagree: _b_block
    # reads _B_TABLE when the build runs, as _b does
    table = involutions._b_table(involutions._B_MOVES + ((0, 3, 1, 2),))
    monkeypatch.setattr(involutions, "_B_TABLE", table)
    with pytest.raises(InternalInvariantError, match=r"disagreeing candidate moves for b\(2, 1324\)"):
        build_ground(("perm", 4, "b"))
