"""Elementary dual equivalence involutions.

Four families, all indexed by an integer i and acting on words whose absolute
values are 1..n; a tableau is acted on through its reading word:

* d(i, w)          — classical dual equivalence on unsigned words, 1 < i < n;
* b(i, w)          — the shifted (peak-statistic) variant, 1 < i < n-1;
* phi(i, w)        — signed words, driven by the spike set, 1 < i < n;
* psi(i, w, shape) — reading words of signed standard shifted tableaux of
                     the shape, 1 < i < n: phi plus one same-column clause.

Each family is an involution; d/phi/psi commute at distance >= 3, b at
distance >= 4.  Each is stated once, on its block: the letters of values
i-1..i+1 (i-1..i+2 for b) in word order, relabelled 1..width and negated
where primed.  _d(block), _b(block) and _phi(block, flag) return the image
block; psi's flag, stated once (_column_flag), says whether the first and
last letters share a column that the middle one does not.  The builds and
the public moves read a family from its table, made by _table from the
statement at its first use: per order of the block's positions (for phi
per column flag and signing) the one pair of letters that trade places and
the image's primes, read by _block; _move applies a word's entry to it.
d_tab and b_tab apply d and b to a tableau and rebuild it, re-checking the
image.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .core import InternalInvariantError
from .tableaux import Tableau, _descent_mask, _inverse, _split, is_standard, reading_word, word_str


def _check_index(i, n, hi_offset):
    if not 1 < i < n - hi_offset:
        raise ValueError(f"index {i} out of range for a word of length {n}")


def _swap(w, p, q):
    out = list(w)
    out[p], out[q] = out[q], out[p]
    return tuple(out)


def _at(block):
    """at[v], the position in block of its letter of absolute value v: the
    inverse tableaux._inverse gives, whose calls the builds count."""
    at = [0] * (len(block) + 1)
    for q, e in enumerate(block):
        at[-e if e < 0 else e] = q
    return at


def _d(block):
    """d on its block of the values 1, 2, 3, as the docstring of d states it."""
    _, a, m, c = _at(block)
    if (a < m) == (m < c):
        return block
    return _swap(block, m, c) if (m < a) == (a < c) else _swap(block, a, m)


# Candidate moves for b on its block of the values 1..4: swap the values
# (x, y) when c sits positionally between them and e left of c.
_B_MOVES = ((1, 2, 3, 4), (2, 3, 1, 4), (2, 3, 4, 1), (3, 4, 2, 1))


def _b(block):
    """b on its block of four letters: the image every applicable candidate
    move makes, the block itself when none applies.  Moves that make
    different images raise InternalInvariantError."""
    at = _at(block)
    images = [
        _swap(block, at[x], at[y])
        for x, y, c, e in _B_MOVES
        if (at[x] < at[c]) == (at[c] < at[y]) and at[e] < at[c]
    ]
    if len(set(images)) > 1:
        raise InternalInvariantError(
            f"disagreeing candidate moves for b on {word_str(block)}: "
            + ", ".join(map(word_str, images))
        )
    return images[0] if images else block


def _phi(block, flag=False):
    """phi on its block of the values 1, 2, 3, as the docstring of phi
    states it; given psi's column flag, psi."""
    des = _descent_mask(block, _at(block))
    if not (des >> 1 ^ des >> 2) & 1:  # 2 is no spike
        return block
    a, m, c = block
    if flag:
        return a, m, -c
    if (m < 0) != (c < 0):
        return a, -m, -c
    return (-abs(c) if a < 0 else abs(c)), m, (-abs(a) if c < 0 else abs(a))


def _column_flag(col, p):
    """psi's flag on its block's positions p, in word order, in columns col."""
    return col[p[0]] == col[p[2]] != col[p[1]]


def _move(table, width, i, w, col=None):
    """w moved at i by the entry of table that _block reads for it, given
    the reading columns col of a shape with psi's flag: the letters at p[x]
    and p[y] trade places for the entry's swap (x, y) and, in a signed table
    (one entry per signing), the block's letters take the entry's primes."""
    w = list(w)
    p, row = _block(table, width, _inverse(w), i, col)
    signed = len(row) > 1
    swap, primes = row[sum(1 << j for j, q in enumerate(p) if w[q] < 0) if signed else 0]
    if swap:
        x, y = p[swap[0]], p[swap[1]]
        w[x], w[y] = w[y], w[x]
    if signed:
        for j, q in enumerate(p):
            w[q] = -abs(w[q]) if primes >> j & 1 else abs(w[q])
    return tuple(w)


def d(i, w):
    """Elementary dual equivalence on an unsigned word.

    Of the values i-1, i, i+1, the one in the positional middle decides:
    if it is i the word is fixed; if it is i-1, swap i and i+1; if it is
    i+1, swap i-1 and i.
    """
    _check_index(i, len(w), 0)
    return _move(_table(_d, 3), 3, i, w)


def b(i, w):
    """Shifted elementary dual equivalence on an unsigned word (1 < i < n-1).

    Every applicable candidate move must produce the same word; if none
    applies the word is fixed.
    """
    _check_index(i, len(w), 1)
    return _move(_table(_b, 4), 4, i, w)


def phi(i, w):
    """Signed elementary dual equivalence on a signed word (1 < i < n).

    Fixed unless i is a spike of w.  Otherwise, with a, b, c the letters of
    absolute value in {i-1, i, i+1} in positional order: if exactly one of
    b, c is primed, swap their primes; otherwise swap the values of a and c,
    leaving primes on their positions.
    """
    _check_index(i, len(w), 0)
    return _move(_table(_phi, 3, True), 3, i, w)


def _block(table, width, pos, i, col=None):
    """The positions p of the values i-1..i+width-2 in a word whose inverse
    is pos, and the row of table for their order and, given the reading
    columns col of a shape, their column flag."""
    p = pos[i - 1 : i - 1 + width]
    if width == 3:
        a, m, c = p
        code = (a < m) + 2 * (a < c) + 4 * (m < c)
        if col is not None:
            code += 8 * _column_flag(col, sorted(p))
    else:
        a, m, c, e = p
        code = (a < m) + 2 * (a < c) + 4 * (a < e) + 8 * (m < c) + 16 * (m < e) + 32 * (c < e)
    return p, table[code]


@lru_cache(maxsize=None)
def _table(statement, width, signed=False):
    """statement tabulated for the builds, the rows _block reads: per order
    of the block's positions and, if signed, per column flag (rows 0-7 have
    it clear, so they serve a reader without columns), one entry per
    signing u (bit j priming the value j+1; only u = 0 unless signed).  An
    entry is (swap, primes): swap () or the offsets (x, y), x < y, of the
    values whose letters trade places, and bit j of primes a prime on the
    image's letter at the position of the value j+1.  A statement that
    changes the block's values or moves more than one pair of letters is
    refused with InternalInvariantError."""
    rows = 1 << width * (width - 1) // 2 + signed
    table = [[None] * (1 << width if signed else 1) for _ in range(rows)]
    for block in permutations(range(1, width + 1)):
        at = _at(block)[1:]
        for flag, col in ((False, (0, 1, 2)), (True, (0, 1, 0))) if signed else ((None, None),):
            row = _block(table, width, at, 1, col)[1]
            for u in range(len(row)):
                x = tuple(-v if u >> (v - 1) & 1 else v for v in block)
                y = statement(x) if flag is None else statement(x, flag)
                moved = sorted(v - 1 for v, e in zip(block, y) if abs(e) != v)
                if sorted(map(abs, y)) != sorted(block) or len(moved) > 2:
                    raise InternalInvariantError(
                        f"{getattr(statement, '__name__', statement)} is not local: "
                        f"it sends {word_str(x)} to {word_str(y)}"
                    )
                row[u] = tuple(moved), sum(1 << j for j, q in enumerate(at) if y[q] < 0)
    return table


def _rebuild(T: Tableau, word) -> Tableau:
    """Same shape as T, entries replaced in reading order; validity re-checked."""
    out = _split(T.kind, T.shape, word)
    if not is_standard(out):
        raise InternalInvariantError(
            f"involution produced an invalid tableau from word {word_str(word)}"
        )
    return out


def d_tab(i, T: Tableau) -> Tableau:
    """d acting on a standard tableau through its reading word."""
    return _rebuild(T, d(i, reading_word(T)))


def b_tab(i, T: Tableau) -> Tableau:
    """b acting on a standard shifted tableau through its reading word."""
    return _rebuild(T, b(i, reading_word(T)))


@lru_cache(maxsize=None)
def _reading_columns(shape):
    """Column of each position of the reading word of a shifted shape."""
    return tuple(
        col for r in range(len(shape), 0, -1) for col in range(r, r + shape[r - 1])
    )


def psi(i, w, shape):
    """Signed shifted elementary dual equivalence on the reading word of a
    signed standard shifted tableau of the given shape (1 < i < n).

    Fixed unless i is a spike of w.  Otherwise, with a, b, c the positions
    of the values i-1, i, i+1 in word order: if a and c share a column that
    b does not, toggle the prime on c; else act as phi(i, w).  A shape whose
    size is not the length of w raises ValueError.

    When all three cells sit in one column the reading order is forced to be
    a=i+1, b=i, c=i-1 top to bottom, and the spike at i holds exactly when
    one of b, c is primed; phi's prime-swap clause therefore always applies
    there and preserves the spike, whereas toggling c alone would kill it.
    """
    n = len(w)
    _check_index(i, n, 0)
    col = _reading_columns(tuple(shape))
    if len(col) != n:
        raise ValueError(
            f"shape {list(shape)} has {len(col)} cells but the word has length {n}"
        )
    return _move(_table(_phi, 3, True), 3, i, w, col)
