"""Elementary dual equivalence involutions.

Four families, all indexed by an integer i and acting on words whose absolute
values are 1..n; a tableau is acted on through its reading word:

* d(i, w)          — classical dual equivalence on unsigned words, 1 < i < n;
* b(i, w)          — the shifted (peak-statistic) variant, 1 < i < n-1;
* phi(i, w)        — signed words, driven by the spike set, 1 < i < n;
* psi(i, w, shape) — reading words of signed standard shifted tableaux of
                     the shape, 1 < i < n: phi plus one same-column clause.

Each family is an involution; d/phi/psi commute at distance >= 3, b at
distance >= 4.  d_tab and b_tab apply d and b to a tableau and rebuild it,
re-checking that the image is standard.
"""

from __future__ import annotations

from functools import lru_cache

from .core import InternalInvariantError, spike_of
from .tableaux import (
    Tableau,
    descent_set_word,
    is_standard,
    reading_word,
    tableau,
    word_str,
)


def _positions(w):
    return {abs(e): p for p, e in enumerate(w)}


def _check_index(i, n, hi_offset):
    if not 1 < i < n - hi_offset:
        raise ValueError(f"index {i} out of range for a word of length {n}")


def d(i, w):
    """Elementary dual equivalence on an unsigned word.

    Of the values i-1, i, i+1, the one in the positional middle decides:
    if it is i the word is fixed; if it is i-1, swap i and i+1; if it is
    i+1, swap i-1 and i.
    """
    _check_index(i, len(w), 0)
    pos = _positions(w)
    middle = sorted((i - 1, i, i + 1), key=pos.__getitem__)[1]
    if middle == i:
        return tuple(w)
    u, v = (i, i + 1) if middle == i - 1 else (i - 1, i)
    out = list(w)
    out[pos[u]], out[pos[v]] = out[pos[v]], out[pos[u]]
    return tuple(out)


# Candidate moves for b(i, .): swap the values (x, y) when c sits positionally
# between them and d sits to the left of c.  {x, y, c, d} = {i-1, i, i+1, i+2}.
_B_MOVES = (
    lambda i: (i - 1, i, i + 1, i + 2),
    lambda i: (i, i + 1, i - 1, i + 2),
    lambda i: (i, i + 1, i + 2, i - 1),
    lambda i: (i + 1, i + 2, i, i - 1),
)


def b(i, w):
    """Shifted elementary dual equivalence on an unsigned word (1 < i < n-1).

    Every applicable candidate move must produce the same word; if none
    applies the word is fixed.
    """
    _check_index(i, len(w), 1)
    pos = _positions(w)
    results = []
    for move in _B_MOVES:
        x, y, c, dd = move(i)
        lo, hi = sorted((pos[x], pos[y]))
        if lo < pos[c] < hi and pos[dd] < pos[c]:
            out = list(w)
            out[pos[x]], out[pos[y]] = out[pos[y]], out[pos[x]]
            results.append(tuple(out))
    if not results:
        return tuple(w)
    first = results[0]
    if any(r != first for r in results[1:]):
        raise InternalInvariantError(
            f"disagreeing candidate moves for b({i}, {word_str(w)}): "
            + ", ".join(word_str(r) for r in results)
        )
    return first


def phi(i, w):
    """Signed elementary dual equivalence on a signed word (1 < i < n).

    Fixed unless i is a spike of w.  Otherwise, with a, b, c the letters of
    absolute value in {i-1, i, i+1} in positional order: if exactly one of
    b, c is primed, swap their primes; otherwise swap the values of a and c,
    leaving primes on their positions.
    """
    n = len(w)
    _check_index(i, n, 0)
    if i not in spike_of(descent_set_word(w), n):
        return tuple(w)
    pa, pb, pc = sorted(_positions(w)[v] for v in (i - 1, i, i + 1))
    out = list(w)
    if (out[pb] < 0) != (out[pc] < 0):
        out[pb], out[pc] = -out[pb], -out[pc]
    else:
        sa = -1 if out[pa] < 0 else 1
        sc = -1 if out[pc] < 0 else 1
        out[pa], out[pc] = sa * abs(out[pc]), sc * abs(out[pa])
    return tuple(out)


def _rebuild(T: Tableau, word) -> Tableau:
    """Same shape as T, entries replaced in reading order; validity re-checked."""
    rows = []
    idx = 0
    for width in reversed(T.shape):
        rows.append(word[idx : idx + width])
        idx += width
    out = tableau(T.kind, reversed(rows))
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
    if i not in spike_of(descent_set_word(w), n):
        return tuple(w)
    pa, pb, pc = sorted(_positions(w)[v] for v in (i - 1, i, i + 1))
    if col[pa] == col[pc] != col[pb]:
        out = list(w)
        out[pc] = -out[pc]
        return tuple(out)
    return phi(i, w)
