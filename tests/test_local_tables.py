"""The tables a build reads in place of the involutions' block statements.

involutions._table runs a statement once per pattern of its block (the
order of the block's positions and, for phi, one column flag and the
primes) and the builds read the rows by involutions._block.  The public
moves apply the same statements, so here every entry of every table is
checked against test_word_layer's references instead, on the block as a
word of its own, and so is every entry the reader gives for the words of
an exhaustive small range.  A statement that is not local is refused when it is
tabulated, each table runs its statement once per pattern, and importing
dualeq makes no table.
"""

import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

from dualeq.core import InternalInvariantError, strict_partitions_of
from dualeq.involutions import _b, _block, _d, _phi, _reading_columns, _swap, _table
from dualeq.tableaux import _inverse, _standard_words

from test_word_layer import b_ref, d_ref, perms, phi_ref, psi_ref, signed_perms


def by_entry(entry, p, w):
    """w moved by a table entry for the letters at the positions p (p[j]
    holding the j-th of their values): the swap of the entry's letters,
    their primes from the entry, the other letters kept."""
    swap, primes = entry
    out = list(map(abs, w))
    if swap:
        x, y = (p[v] for v in swap)
        out[x], out[y] = out[y], out[x]
    for q, e in enumerate(w):
        if (primes >> p.index(q) & 1) if q in p else e < 0:
            out[q] = -out[q]
    return tuple(out)


def entries(table, width, signed=False):
    """(x, flag, image) for every pattern: x each order of the values
    1..width under each signing if signed, flag each column flag if signed,
    and image x moved by the table's entry for them."""
    for block in permutations(range(1, width + 1)):
        at = [block.index(v) for v in range(1, width + 1)]
        for flag, col in ((False, (0, 1, 2)), (True, (0, 1, 0))) if signed else ((None, None),):
            row = _block(table, width, at, 1, col)[1]
            assert len(row) == (1 << width if signed else 1)
            for u, entry in enumerate(row):
                x = tuple(-v if u >> (v - 1) & 1 else v for v in block)
                yield x, flag, by_entry(entry, at, x)


def test_d_and_b_entries_match_the_references():
    for x, _, y in entries(_table(_d, 3), 3):
        assert y == d_ref(2, x), x
    for x, _, y in entries(_table(_b, 4), 4):
        assert y == b_ref(2, x), x


def test_phi_and_psi_entries_match_the_references():
    # the reading columns of (2, 1) are (2, 1, 2), of (3,) (1, 2, 3): the
    # first and last letters share a column that the middle one does not
    # exactly for (2, 1)
    found = 0
    for x, flag, y in entries(_table(_phi, 3, True), 3, True):
        assert y == psi_ref(2, x, (2, 1) if flag else (3,)), (x, flag)
        if not flag:
            assert y == phi_ref(2, x), x
        found += 1
    assert found == 96


def by_block(table, width, i, w, col=None):
    """w moved by the entry _block reads for it at i."""
    p, row = _block(table, width, _inverse(w), i, col)
    return by_entry(row[sum(1 << j for j, q in enumerate(p) if w[q] < 0)], p, w)


@pytest.mark.parametrize("n", range(3, 8))
def test_d_and_b_rows_give_the_references_images(n):
    d_table, b_table = _table(_d, 3), _table(_b, 4)
    for w in perms(n):
        for i in range(2, n):
            assert by_block(d_table, 3, i, w) == d_ref(i, w), (i, w)
        for i in range(2, n - 1):
            assert by_block(b_table, 4, i, w) == b_ref(i, w), (i, w)


@pytest.mark.parametrize("n", range(3, 6))
def test_phi_rows_give_the_references_images(n):
    table = _table(_phi, 3, True)
    for w in signed_perms(n):
        for i in range(2, n):
            assert by_block(table, 3, i, w) == phi_ref(i, w), (i, w)


def test_psi_rows_give_the_references_images_on_every_signed_shifted_word():
    table, pairs = _table(_phi, 3, True), 0
    for n in range(9):
        for lam in strict_partitions_of(n):
            col = _reading_columns(lam)
            for w in _standard_words(lam, True, False):
                for i in range(2, n):
                    assert by_block(table, 3, i, w, col) == psi_ref(i, w, lam), (lam, i, w)
                    pairs += 1
    assert pairs == 24_094


def swaps_two_pairs(x):
    return _swap(_swap(x, 0, 1), 2, 3)


@pytest.mark.parametrize("statement, width, signed", [
    (lambda x, flag: (*x[:2], 4), 3, True),  # changes a value
    (swaps_two_pairs, 4, False),
    (lambda x: (x[1], x[2], x[0]), 3, False),  # a 3-cycle
    (lambda x: x[:-1], 3, False),  # drops a letter
], ids=["changes-a-value", "moves-two-pairs", "three-cycle", "drops-a-letter"])
def test_a_statement_that_is_not_local_is_refused(statement, width, signed):
    with pytest.raises(InternalInvariantError, match="is not local: it sends"):
        _table.__wrapped__(statement, width, signed)


@pytest.mark.parametrize("statement, width, signed, calls", [
    (_d, 3, False, 6),
    (_b, 4, False, 24),
    (_phi, 3, True, 96),
])
def test_each_table_runs_its_statement_once_per_pattern(statement, width, signed, calls):
    seen = []

    def counted(*args):
        seen.append(args)
        return statement(*args)

    assert _table.__wrapped__(counted, width, signed) == _table(statement, width, signed)
    assert len(seen) == len(set(seen)) == calls


def test_importing_dualeq_makes_no_table():
    code = (
        "import dualeq, dualeq.cli, dualeq.engine\n"
        "from dualeq.involutions import _table\n"
        "print(_table.cache_info().currsize)\n"
        "dualeq.engine.build_ground(('perm', 4, 'b'))\n"
        "print(_table.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["0", "1"]
