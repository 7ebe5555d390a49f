"""Elementary dual equivalence involutions.

Four families, all indexed by an integer i and acting on words whose absolute
values are 1..n; a tableau is acted on through its reading word:

* d(i, w)          — classical dual equivalence on unsigned words, 1 < i < n;
* b(i, w)          — the shifted (peak-statistic) variant, 1 < i < n-1;
* phi(i, w)        — signed words, driven by the spike set, 1 < i < n;
* psi(i, w, shape) — reading words of signed standard shifted tableaux of
                     the shape, 1 < i < n: phi plus one same-column clause.

Each family is an involution; d/phi/psi commute at distance >= 3, b at
distance >= 4.  The cores _d, _b, _phi(i, w, pos, des[, col]) read only
i-1..i+2 in the word's inverse pos, and _phi bits i-1, i of its descent mask
des (_d and _b ignore it); d, b, phi and psi compute both per call.  _b
looks up its swap by the relative order of its four positions in _B_TABLE,
made once at import from _B_MOVES, the one statement of b's moves.  A
ground reads a block reader per family instead of a core: block(pos, i) is
the positions of the letters the index-i move reads and the row of its
pattern table for their order.  _d and _phi are tabulated once per process,
at the first build that reads them, over the patterns of the letters
i-1..i+1 (_local_table: their order, their primes and, for psi, one column
flag), by running the core on each pattern; _b_block reads _B_TABLE.  d_tab and b_tab apply d and b to a
tableau and rebuild it, re-checking the image.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import permutations

from .core import InternalInvariantError
from .tableaux import (
    Tableau,
    _descent_mask,
    _inverse,
    _split,
    is_standard,
    reading_word,
    word_str,
)


def _check_index(i, n, hi_offset):
    if not 1 < i < n - hi_offset:
        raise ValueError(f"index {i} out of range for a word of length {n}")


def _swap(w, p, q):
    out = list(w)
    out[p], out[q] = out[q], out[p]
    return tuple(out)


def _apply(move, i, w, *col):
    """move(i, w, pos, des) on the word w, from its inverse and descent mask."""
    pos = _inverse(w := tuple(w))
    return move(i, w, pos, _descent_mask(w, pos), *col)


def _d(i, w, pos, des):
    a, m, c = pos[i - 1], pos[i], pos[i + 1]
    if (a < m) == (m < c):  # i is in the positional middle
        return w
    if (m < a) == (a < c):  # i-1 is: swap i and i+1
        return _swap(w, m, c)
    return _swap(w, a, m)


def d(i, w):
    """Elementary dual equivalence on an unsigned word.

    Of the values i-1, i, i+1, the one in the positional middle decides:
    if it is i the word is fixed; if it is i-1, swap i and i+1; if it is
    i+1, swap i-1 and i.
    """
    _check_index(i, len(w), 0)
    return _apply(_d, i, w)


# Candidate moves for b(i, .), offsets from i-1: swap the values (x, y) when c
# sits positionally between them and d left of c.  {x, y, c, d} = i-1..i+2.
_B_MOVES = ((0, 1, 2, 3), (1, 2, 0, 3), (1, 2, 3, 0), (2, 3, 1, 0))


def _order_index(p0, p1, p2, p3):
    """The relative order of four distinct positions as six comparisons."""
    return ((p0 < p1) + 2 * (p0 < p2) + 4 * (p0 < p3)
            + 8 * (p1 < p2) + 16 * (p1 < p3) + 32 * (p2 < p3))


def _b_table(moves):
    """For each _order_index of the positions of i-1..i+2, the swaps (x, y)
    of the moves that apply there: none, one when they all make the same,
    else each applicable move's in order, for _b to refuse.  The 40
    indices that no order has stay empty."""
    table = [()] * 64
    for p in permutations(range(4)):
        swaps = [
            (x, y) for x, y, c, dd in moves if (p[x] < p[c]) == (p[c] < p[y]) and p[dd] < p[c]
        ]
        table[_order_index(*p)] = tuple(swaps[:1] if len(set(swaps)) == 1 else swaps)
    return table


_B_TABLE = _b_table(_B_MOVES)


def _disagreement(i, w, p, swaps):
    """The error for b(i, w) when the swaps of the letters at positions p
    that its candidate moves make differ."""
    return InternalInvariantError(
        f"disagreeing candidate moves for b({i}, {word_str(w)}): "
        + ", ".join(word_str(_swap(w, p[x], p[y])) for x, y in swaps)
    )


def _b_block(pos, i):
    """The positions p of i-1..i+2 and b's row for their order, an unsigned
    row of one entry (swaps, 0): its _B_TABLE swaps, read at the call."""
    p = pos[i - 1 : i + 3]
    return p, ((_B_TABLE[_order_index(*p)], 0),)


def _b(i, w, pos, des):
    p, ((swaps, _),) = _b_block(pos, i)
    if len(swaps) == 1:
        (x, y), = swaps
        return _swap(w, p[x], p[y])
    if swaps:
        raise _disagreement(i, w, p, swaps)
    return w


def b(i, w):
    """Shifted elementary dual equivalence on an unsigned word (1 < i < n-1).

    Every applicable candidate move must produce the same word; if none
    applies the word is fixed.
    """
    _check_index(i, len(w), 1)
    return _apply(_b, i, w)


def _phi(i, w, pos, des, col=None):
    """phi's core; given the reading columns col of a shape, psi's."""
    if not (des >> (i - 1) ^ des >> i) & 1:  # i is no spike
        return w
    pa, pb, pc = pos[i - 1], pos[i], pos[i + 1]  # put in positional order
    if pa > pb:
        pa, pb = pb, pa
    if pb > pc:
        pb, pc = pc, pb
        if pa > pb:
            pa, pb = pb, pa
    eb, ec = w[pb], w[pc]
    out = list(w)
    if col is not None and col[pa] == col[pc] != col[pb]:
        out[pc] = -ec
    elif (eb < 0) != (ec < 0):
        out[pb], out[pc] = -eb, -ec
    else:  # swap the values of a and c, primes staying in place
        ea, a, c = w[pa], abs(w[pa]), abs(ec)
        out[pa], out[pc] = (-c if ea < 0 else c), (-a if ec < 0 else a)
    return tuple(out)


def phi(i, w):
    """Signed elementary dual equivalence on a signed word (1 < i < n).

    Fixed unless i is a spike of w.  Otherwise, with a, b, c the letters of
    absolute value in {i-1, i, i+1} in positional order: if exactly one of
    b, c is primed, swap their primes; otherwise swap the values of a and c,
    leaving primes on their positions.
    """
    _check_index(i, len(w), 0)
    return _apply(_phi, i, w)


def _local_block(table, pos, i, col=None):
    """The positions p of i-1..i+1 and the row of a _local_table for their
    order and, given the reading columns col of a shape, their column flag:
    whether the first and last of them in the word share a column that the
    middle one does not."""
    p = pos[i - 1 : i + 2]
    a, m, c = p
    code = (a < m) + 2 * (a < c) + 4 * (m < c)
    if col is not None:
        lo, mid, hi = sorted(p)
        code += 8 * (col[lo] == col[hi] != col[mid])
    return p, table[code]


def _local_table(core, columns=False):
    """core tabulated over the patterns of the letters of values i-1..i+1,
    the rows _local_block reads (with a column flag if columns; rows 0-7
    have it clear, so they serve a reader without columns).  Entry u of a
    row, bit j of u priming value i-1+j, is (swaps, primes): swaps as in
    _B_TABLE, () or the one pair of offsets whose letters trade places, and
    bit j of primes a prime on the image's letter at the position of value
    i-1+j.  Each entry is core itself run at i = 3 on its pattern set between
    the letters 1 and 5, their columns apart from the pattern's.  A core
    that changes or primes either of them, or moves more than one pair of
    letters, is not local and raises InternalInvariantError."""
    table = [[None] * 8 for _ in range(16 if columns else 8)]
    for order in permutations((2, 3, 4)):
        pos = [0, 0, *(1 + order.index(v) for v in (2, 3, 4)), 4]  # the frame's inverse
        for u in range(8):
            w = (1, *(-v if u >> (v - 2) & 1 else v for v in order), 5)
            des = _descent_mask(w, pos)
            for col in ((0, 1, 2, 3, 4), (0, 1, 2, 1, 4)) if columns else (None,):
                y = core(3, w, pos, des, *((col,) if columns else ()))
                framed = len(y) == 5 and (y[0], y[4]) == (1, 5)
                moved = [m for m, v in zip((1, 2, 3), order) if framed and abs(y[m]) != v]
                if not framed or len(moved) > 2 or sorted(map(abs, y[1:4])) != [2, 3, 4]:
                    raise InternalInvariantError(
                        f"{getattr(core, '__name__', core)} is not local: it sends "
                        f"{word_str(w)} to {word_str(y)} at index 3"
                    )
                swaps = (tuple(sorted(order[m - 1] - 2 for m in moved)),) if moved else ()
                primes = (y[pos[2]] < 0) + 2 * (y[pos[3]] < 0) + 4 * (y[pos[4]] < 0)
                _local_block(table, pos, 3, col)[1][u] = swaps, primes
    return table


@lru_cache(maxsize=None)
def _block_reader(core, columns=False):
    """The block reader of a family whose core is core: _local_block on its
    _local_table, made at the first build that reads it.  psi's is phi's,
    with columns, given the reading columns of its shape."""
    return partial(_local_block, _local_table(core, columns))


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
    return _apply(_phi, i, w, col)
