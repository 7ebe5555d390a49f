"""check_tableau and the semistandard fill walk against the forms they had
when each stated the rules on its own.

check_tableau now asks the walk's candidate functions whether each entry
may sit in its cell.  The references below are the earlier statements: a
check made of row scans, Counters and a column dict, and a walk whose
shifted candidates scan the whole row and column.  The check must agree
with its reference as a predicate on every filling of every small shape,
apart from entries 0, which it now refuses; the walk must give the same
fillings in the same order.  The straight candidates also stop k less the
cells above short of k, so the straight walk reaches no dead end.
"""

from collections import Counter
from itertools import product

import pytest

from dualeq.core import (
    InvalidShapeError,
    is_partition,
    is_strict_partition,
    partitions_of,
    strict_partitions_of,
)
from dualeq.tableaux import (
    _candidates,
    _semistandard_fillings,
    check_tableau,
    entry_key,
    tableau,
)


# --- references ------------------------------------------------------------


def ref_check_tableau(T):
    if T.kind == "straight":
        if not is_partition(T.shape):
            raise InvalidShapeError(f"not a partition shape: {T.shape}")
        for row in T.rows:
            if any(e < 0 for e in row):
                raise ValueError("straight tableaux cannot contain primed entries")
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError(f"row not weakly increasing: {row}")
        for r in range(1, len(T.rows)):
            below, above = T.rows[r - 1], T.rows[r]
            for j, e in enumerate(above):
                if below[j] >= e:
                    raise ValueError(f"column {j + 1} not strictly increasing")
        return
    if T.kind != "shifted":
        raise ValueError(f"unknown tableau kind: {T.kind!r}")
    if not is_strict_partition(T.shape):
        raise InvalidShapeError(f"not a strict partition shape: {T.shape}")
    columns = {}
    for r, row in enumerate(T.rows, 1):
        keys = [entry_key(e) for e in row]
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise ValueError(f"row {r} not weakly increasing: {row}")
        primed_counts = Counter(abs(e) for e in row if e < 0)
        if primed_counts and primed_counts.most_common(1)[0][1] > 1:
            raise ValueError(f"row {r} repeats a primed value")
        for j, e in enumerate(row):
            columns.setdefault(r + j, []).append(e)
    for col, entries in columns.items():
        keys = [entry_key(e) for e in entries]  # bottom to top
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise ValueError(f"column {col} not weakly increasing")
        unprimed_counts = Counter(e for e in entries if e > 0)
        if unprimed_counts and unprimed_counts.most_common(1)[0][1] > 1:
            raise ValueError(f"column {col} repeats an unprimed value")


def ref_straight_candidates(k, rows, r, j):
    lo = rows[r][j - 1] if j > 0 else 1
    if r > 0:
        lo = max(lo, rows[r - 1][j] + 1)
    return range(lo, k + 1)


def ref_shifted_candidates(k, diagonal_primes, rows, r, j):
    lo = 1
    if j > 0:
        lo = max(lo, entry_key(rows[r][j - 1]))
    if r > 0 and j + 1 < len(rows[r - 1]):
        lo = max(lo, entry_key(rows[r - 1][j + 1]))
    found = []
    for key in range(lo, 2 * k + 1):
        v, primed = (key + 1) // 2, key % 2 == 1
        e = -v if primed else v
        if primed and j == 0 and not diagonal_primes:
            continue
        if primed and e in rows[r][:j]:
            continue
        if not primed and any(
            rows[rr][r - rr + j] == e for rr in range(r) if r - rr + j < len(rows[rr])
        ):
            continue
        found.append(e)
    return found


def ref_fillings(shape, k, shifted, diagonal_primes):
    """Every filling of the walk, row 1 first, left to right, as tuples."""
    rows = [[0] * width for width in shape]
    cells = [(r, j) for r, width in enumerate(shape) for j in range(width)]
    out = []

    def fill(c):
        if c == len(cells):
            out.append(tuple(map(tuple, rows)))
            return
        r, j = cells[c]
        if shifted:
            candidates = ref_shifted_candidates(k, diagonal_primes, rows, r, j)
        else:
            candidates = ref_straight_candidates(k, rows, r, j)
        for e in candidates:
            rows[r][j] = e
            fill(c + 1)

    fill(0)
    return out


# --- comparison ------------------------------------------------------------


def outcome(check, T):
    """None if check accepts T, else the class of the error it raises."""
    try:
        check(T)
    except ValueError as exc:
        return type(exc)
    return None


def fillings_of(shape, values):
    """Every filling of the shape's cells with the values, as rows."""
    for entries in product(values, repeat=sum(shape)):
        rows, start = [], 0
        for width in shape:
            rows.append(entries[start : start + width])
            start += width
        yield tuple(rows)


@pytest.mark.parametrize("kind", ["straight", "shifted"])
@pytest.mark.parametrize("n", range(6))
def test_check_tableau_agrees_with_the_reference_apart_from_zero(kind, n):
    # every partition shape of n cells; a shape that is no strict partition
    # fails both checks on its shape alone, so shifted ones get one filling
    values = range(-3, 4)
    for shape in partitions_of(n):
        fillings = fillings_of(shape, values)
        if kind == "shifted" and not is_strict_partition(shape):
            fillings = [next(fillings)]
        for rows in fillings:
            T = tableau(kind, rows)
            got = outcome(check_tableau, T)
            if any(0 in row for row in rows):
                assert got is not None, rows
                continue
            assert got == outcome(ref_check_tableau, T), rows


def walk(shape, k, shifted, diagonal_primes):
    rows = _semistandard_fillings(shape, k, shifted, diagonal_primes)
    return [tuple(map(tuple, filling)) for filling in rows]


def test_semistandard_fillings_equal_the_reference_walk_in_order():
    total = 0
    for n in range(8):
        for shape in partitions_of(n):
            for k in range(5):
                want = ref_fillings(shape, k, False, False)
                assert walk(shape, k, False, False) == want, (shape, k)
                total += len(want)
        for shape in strict_partitions_of(n):
            for k in range(4):
                for primes in (False, True):
                    want = ref_fillings(shape, k, True, primes)
                    assert walk(shape, k, True, primes) == want, (shape, k, primes)
                    total += len(want)
    assert total == 6874


def test_every_filling_of_the_walk_passes_check_tableau():
    for shape, k, shifted, primes in [((3, 2), 4, False, False),
                                      ((4, 2, 1), 3, False, False),
                                      ((3, 1), 3, True, False),
                                      ((4, 2), 3, True, True)]:
        kind = "shifted" if shifted else "straight"
        for rows in _semistandard_fillings(shape, k, shifted, primes):
            check_tableau(tableau(kind, rows))


def test_the_straight_walk_reaches_no_cell_without_a_candidate():
    for n in range(9):
        for shape in partitions_of(n):
            cells = [(r, j) for r, width in enumerate(shape) for j in range(width)]
            for k in range(6):
                candidates, rows = _candidates(k, False, False), [[0] * w for w in shape]
                dead_ends = []

                def fill(c):
                    if c < len(cells):
                        r, j = cells[c]
                        found = False
                        for e in candidates(rows, r, j):
                            rows[r][j], found = e, True
                            fill(c + 1)
                        if not found:
                            dead_ends.append(c)

                fill(0)
                # a column taller than k leaves the first cell without a candidate
                assert dead_ends == ([0] if len(shape) > k else []), (shape, k)
