"""Tableaux: straight and shifted, semistandard and standard, signed or not.

Entries are signed ints: k stands for an unprimed k, -k for a primed k'.
The total order on entries is 1' < 1 < 2' < 2 < ... (see entry_key).

A Tableau stores its rows bottom-up: rows[0] is row 1.  Shifted rows are
*not* stored with padding; the column of rows[r-1][j] is j+1 for straight
shapes and r+j for shifted ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (
    SHIFTED,
    STRAIGHT,
    InternalInvariantError,
    InvalidShapeError,
    is_partition,
    is_strict_partition,
)


def entry_key(e: int) -> int:
    """Rank of an entry in the order 1' < 1 < 2' < 2 < ...  (k' -> 2k-1, k -> 2k)."""
    return 2 * abs(e) - (1 if e < 0 else 0)


def entry_str(e: int) -> str:
    return f"{abs(e)}'" if e < 0 else str(abs(e))


def parse_entry(token: str) -> int:
    """Inverse of entry_str: "4" -> 4, "2'" -> -2."""
    token = token.strip()
    primed = token.endswith("'")
    if primed:
        token = token[:-1]
    value = int(token)
    if value < 1:
        raise ValueError(f"entry values must be positive, got {value}")
    return -value if primed else value


@dataclass(frozen=True)
class Tableau:
    kind: str
    rows: tuple  # rows[0] = bottom row; entries signed ints

    @property
    def shape(self):
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def col(self, r: int, j: int) -> int:
        """Column of the j-th entry (0-based) of row r (1-based)."""
        return r + j if self.kind == SHIFTED else j + 1

    def cells(self):
        """Yield (row, col, entry), row 1 first, left to right."""
        for r, row in enumerate(self.rows, 1):
            for j, e in enumerate(row):
                yield r, self.col(r, j), e


def tableau(kind, rows) -> Tableau:
    return Tableau(kind, tuple(tuple(row) for row in rows))


def check_tableau(T: Tableau):
    """Raise ValueError if T is not a valid (semistandard) tableau of its kind.

    Straight: shape a partition, no primed entries, rows weakly increasing,
    columns strictly increasing upward.

    Shifted: shape a strict partition, rows and columns weakly increasing in
    the primed order, at most one primed copy of each value per row, at most
    one unprimed copy of each value per column.
    """
    shape = T.shape
    if T.kind == STRAIGHT:
        if not is_partition(shape):
            raise InvalidShapeError(f"not a partition shape: {shape}")
        for row in T.rows:
            if any(e < 0 for e in row):
                raise ValueError("straight tableaux cannot contain primed entries")
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError(f"row not weakly increasing: {row}")
        for r in range(1, len(T.rows)):
            below, above = T.rows[r - 1], T.rows[r]
            for j, e in enumerate(above):
                if below[j] >= e:
                    raise ValueError(
                        f"column {j + 1} not strictly increasing above row {r}"
                    )
        return
    if T.kind != SHIFTED:
        raise ValueError(f"unknown tableau kind: {T.kind!r}")
    if not is_strict_partition(shape):
        raise InvalidShapeError(f"not a strict partition shape: {shape}")
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


def is_valid_tableau(T: Tableau) -> bool:
    try:
        check_tableau(T)
    except ValueError:
        return False
    return True


def is_standard(T: Tableau) -> bool:
    """Valid, with absolute values exactly 1..n, each once (primes allowed if shifted)."""
    if not is_valid_tableau(T):
        return False
    values = sorted(abs(e) for row in T.rows for e in row)
    return values == list(range(1, T.size + 1))


def reading_word(T: Tableau):
    """Rows read left to right, top row first."""
    word = []
    for row in reversed(T.rows):
        word.extend(row)
    return tuple(word)


def descent_set_word(w):
    """Descent set of a signed word whose absolute values are a permutation.

    i is a descent when i is unprimed and sits to the right of i+1, or when
    i+1 is primed and sits to the right of i.
    """
    pos = {}
    for idx, e in enumerate(w):
        pos[abs(e)] = (idx, e < 0)
    n = len(w)
    out = set()
    for i in range(1, n):
        pi, primed_i = pos[i]
        pj, primed_j = pos[i + 1]
        if (not primed_i and pi > pj) or (primed_j and pj > pi):
            out.add(i)
    return frozenset(out)


def descent_set_tab(T: Tableau):
    """Descent set of a standard (possibly signed) tableau.

    i is a descent when i is unprimed and lies in a strictly lower row than
    i+1, or when i+1 is primed and lies in a weakly lower row than i.
    Agrees with descent_set_word(reading_word(T)).
    """
    if not is_standard(T):
        raise ValueError("descent_set_tab requires a standard tableau")
    row_of = {}
    primed = {}
    for r, row in enumerate(T.rows, 1):
        for e in row:
            row_of[abs(e)] = r
            primed[abs(e)] = e < 0
    n = T.size
    out = set()
    for i in range(1, n):
        if not primed[i] and row_of[i] < row_of[i + 1]:
            out.add(i)
        elif primed[i + 1] and row_of[i + 1] <= row_of[i]:
            out.add(i)
    return frozenset(out)


def monomial_weight(T: Tableau):
    """Exponent vector of x^T: entry v or v' contributes to x_v."""
    counts = Counter(abs(e) for row in T.rows for e in row)
    if not counts:
        return ()
    top = max(counts)
    return tuple(counts.get(v, 0) for v in range(1, top + 1))


def _raise_if_bad_max(k):
    if k < 0:
        raise ValueError("max entry must be nonnegative")


def enumerate_ssyt(shape, k):
    """All straight semistandard tableaux of the given shape with entries <= k."""
    shape = tuple(shape)
    if not is_partition(shape):
        raise InvalidShapeError(f"not a partition: {shape}")
    _raise_if_bad_max(k)
    results = []
    rows = [[0] * width for width in shape]

    def fill(r, j):
        if r == len(shape):
            results.append(tableau(STRAIGHT, rows))
            return
        nr, nj = (r, j + 1) if j + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, rows[r][j - 1])  # weak along the row
        if r > 0:
            lo = max(lo, rows[r - 1][j] + 1)  # strict up the column
        for v in range(lo, k + 1):
            rows[r][j] = v
            fill(nr, nj)
        rows[r][j] = 0

    if shape:
        fill(0, 0)
    else:
        results.append(tableau(STRAIGHT, ()))
    return results


def _removal_rows(shape, strict):
    """Rows from which the largest entry of a standard tableau may be removed."""
    rows = []
    for r in range(len(shape)):
        w = shape[r] - 1
        if r + 1 < len(shape):
            nxt = shape[r + 1]
            ok = w >= nxt + 1 if strict else w >= nxt
        else:
            ok = w >= 0
        if ok:
            rows.append(r)
    return rows


def _standard_fillings(shape, strict):
    """Row index (0-based) of each of 1..n, for every standard filling of shape."""
    shape = tuple(shape)
    n = sum(shape)
    if n == 0:
        return [()]
    out = []
    for r in _removal_rows(shape, strict):
        smaller = tuple(
            p - 1 if idx == r else p for idx, p in enumerate(shape) if idx != r or p > 1
        )
        for placement in _standard_fillings(smaller, strict):
            out.append(placement + (r,))
    return out


def _from_placement(kind, shape, placement, signs=None):
    """The tableau with value v in row placement[v-1] (0-based), primed when
    v is in signs.  Every enumerated standard tableau is made here, and
    validated here once."""
    rows = [[] for _ in shape]
    for value, r in enumerate(placement, 1):
        e = -value if signs and value in signs else value
        rows[r].append(e)
    T = tableau(kind, rows)
    if not is_standard(T):
        raise InternalInvariantError(f"placement is not a standard tableau: {T}")
    return T


def enumerate_syt(shape):
    """All standard Young tableaux of a straight shape."""
    shape = tuple(shape)
    if not is_partition(shape):
        raise InvalidShapeError(f"not a partition: {shape}")
    return [_from_placement(STRAIGHT, shape, p) for p in _standard_fillings(shape, False)]


def enumerate_shsyt(shape):
    """All standard shifted tableaux of a strict shape (no primed entries)."""
    shape = tuple(shape)
    if not is_strict_partition(shape):
        raise InvalidShapeError(f"not a strict partition: {shape}")
    return [_from_placement(SHIFTED, shape, p) for p in _standard_fillings(shape, True)]


def enumerate_shssyt(shape, k, diagonal_primes):
    """All shifted semistandard tableaux with values <= k.

    Entries may be primed; with diagonal_primes=False the diagonal cells
    (col == row) must be unprimed.
    """
    shape = tuple(shape)
    if not is_strict_partition(shape):
        raise InvalidShapeError(f"not a strict partition: {shape}")
    _raise_if_bad_max(k)
    results = []
    rows = [[0] * width for width in shape]

    def candidates(r, j):
        # cell (row r+1, column r+1+j); the cell below it, in row r, is one
        # slot further right in its own row since shifted rows shift left
        # going down — its index there is j+1.
        lo = 1  # minimum entry_key
        if j > 0:
            lo = max(lo, entry_key(rows[r][j - 1]))
        if r > 0 and j + 1 < len(rows[r - 1]):
            lo = max(lo, entry_key(rows[r - 1][j + 1]))
        found = []
        for key in range(lo, 2 * k + 1):
            v, primed = (key + 1) // 2, key % 2 == 1
            e = -v if primed else v
            if primed and j == 0 and not diagonal_primes:
                continue  # the first cell of each row is the diagonal cell
            if primed and e in rows[r][:j]:
                continue  # one primed copy per row
            if not primed:
                clash = False  # one unprimed copy per column
                for rr in range(r):
                    cj = (r - rr) + j
                    if cj < len(rows[rr]) and rows[rr][cj] == e:
                        clash = True
                        break
                if clash:
                    continue
            found.append(e)
        return found

    def fill(r, j):
        if r == len(shape):
            results.append(tableau(SHIFTED, rows))
            return
        nr, nj = (r, j + 1) if j + 1 < shape[r] else (r + 1, 0)
        for e in candidates(r, j):
            rows[r][j] = e
            fill(nr, nj)
        rows[r][j] = 0

    if shape:
        fill(0, 0)
    else:
        results.append(tableau(SHIFTED, ()))
    return results


def enumerate_signed_standard(shape, diagonal_primes):
    """All signed standard shifted tableaux: standard fillings with any subset
    of cells primed (diagonal cells only when diagonal_primes=True)."""
    shape = tuple(shape)
    if not is_strict_partition(shape):
        raise InvalidShapeError(f"not a strict partition: {shape}")
    out = []
    for placement in _standard_fillings(shape, True):
        free = []
        col_pos = [0] * len(shape)
        for value, r in enumerate(placement, 1):
            col = (r + 1) + col_pos[r]
            col_pos[r] += 1
            if diagonal_primes or col != r + 1:
                free.append(value)
        for mask in range(1 << len(free)):
            signs = {free[b] for b in range(len(free)) if mask >> b & 1}
            out.append(_from_placement(SHIFTED, shape, placement, signs))
    return out


def standardize(w):
    """Standardize a signed word with repeats into a signed permutation word.

    Entries are ranked in the primed order 1' < 1 < 2' < 2 < ...; among equal
    entries, primed copies are ranked right to left and unprimed copies left
    to right.  Primes stay on their positions.
    """
    order = sorted(
        range(len(w)), key=lambda p: (entry_key(w[p]), -p if w[p] < 0 else p)
    )
    out = [0] * len(w)
    for rank, p in enumerate(order, 1):
        out[p] = -rank if w[p] < 0 else rank
    return tuple(out)


def word_str(w) -> str:
    """Compact form "312'" when every value is one digit, else the comma form
    "10',3,2".  A one-entry comma form ends in a comma: "12" would read back
    as the two entries 1, 2."""
    toks = [entry_str(e) for e in w]
    if w and max(abs(e) for e in w) > 9:
        return ",".join(toks) + ("," if len(toks) == 1 else "")
    return "".join(toks)


def parse_word(text: str):
    """Parse a word label: "312" or "3 1 2'" or "10',3,2" forms all accepted.

    In the compact form each letter is one entry with an optional prime."""
    text = text.strip()
    if "," in text or " " in text:
        toks = text.replace(",", " ").split()
    else:
        toks = []
        for ch in text:
            if ch != "'":
                toks.append(ch)
            elif toks and not toks[-1].endswith("'"):
                toks[-1] += ch
            else:
                raise ValueError(f"dangling prime in {text!r}")
    return tuple(parse_entry(t) for t in toks)


def format_tableau(T: Tableau) -> str:
    """Multi-line rendering, top row first; shifted rows are indented by one
    field per row.  Round-trips through parse_tableau."""
    toks = [[entry_str(e) for e in row] for row in T.rows]
    width = max((len(t) for row in toks for t in row), default=1)
    lines = []
    for r in range(len(T.rows), 0, -1):
        indent = " " * ((width + 1) * (r - 1)) if T.kind == SHIFTED else ""
        lines.append(indent + " ".join(t.rjust(width) for t in toks[r - 1]).rstrip())
    return "\n".join(lines)


def parse_tableau(text: str, kind) -> Tableau:
    """Parse the format_tableau rendering (indentation is ignored)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows = [tuple(parse_entry(t) for t in ln.split()) for ln in reversed(lines)]
    T = tableau(kind, rows)
    check_tableau(T)
    return T
