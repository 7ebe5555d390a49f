"""Partitions, shifted diagrams, and descent/peak/spike statistics.

Conventions used throughout the package:

* partitions are tuples of positive ints in weakly decreasing order;
  strict partitions decrease strictly;
* cells are (row, col) pairs, 1-based, with row 1 at the *bottom*;
* in a shifted diagram row i occupies columns i .. i + lambda_i - 1,
  so a cell is on the diagonal exactly when col == row;
* descent sets are subsets of {1..n-1}, peak sets subsets of {2..n-1}
  with no two consecutive members.  Both are plain frozensets; the
  degree n is carried by whatever object owns the set.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

STRAIGHT = "straight"
SHIFTED = "shifted"


class InvalidShapeError(ValueError):
    """A sequence that is not a (strict) partition where one is required."""


class InternalInvariantError(RuntimeError):
    """A structural invariant the library relies on was violated."""


def is_partition(shape) -> bool:
    shape = tuple(shape)
    return all(isinstance(p, int) and p > 0 for p in shape) and all(
        a >= b for a, b in zip(shape, shape[1:])
    )


def is_strict_partition(shape) -> bool:
    shape = tuple(shape)
    return is_partition(shape) and all(a > b for a, b in zip(shape, shape[1:]))


def partitions_of(n):
    """All partitions of n, as tuples, in decreasing lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []

    def grow(remaining, bound, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, bound), 0, -1):
            grow(remaining - part, part, prefix + (part,))

    grow(n, n, ())
    return out


def strict_partitions_of(n):
    """All strict partitions of n, as tuples, in decreasing lexicographic order."""
    return [p for p in partitions_of(n) if is_strict_partition(p)]


def shape_cells(shape, kind):
    """The cells of a straight or shifted diagram, row 1 first, left to right.

    Args:
        shape: a partition (strict when kind == "shifted").
        kind: "straight" or "shifted".

    Returns:
        list of (row, col) pairs, 1-based.  For shifted shapes row i is
        indented so that its first cell sits at column i.
    """
    shape = tuple(shape)
    if kind == STRAIGHT:
        if not is_partition(shape):
            raise InvalidShapeError(f"not a partition: {shape}")
        return [(r, c) for r, width in enumerate(shape, 1) for c in range(1, width + 1)]
    if kind == SHIFTED:
        if not is_strict_partition(shape):
            raise InvalidShapeError(f"not a strict partition: {shape}")
        return [(r, c) for r, width in enumerate(shape, 1) for c in range(r, r + width)]
    raise ValueError(f"unknown diagram kind: {kind!r}")


def _members(mask):
    """An integer mask as a set of positive integers: p for bit p."""
    return frozenset(p for p in range(mask.bit_length()) if mask >> p & 1)


def peak_of(D):
    """The peak set of a descent set: members i >= 2 of D with i-1 not in D."""
    return frozenset(i for i in D if i >= 2 and i - 1 not in D)


def spike_of(D, n):
    """The spike set of a descent set of degree n.

    i in {2..n-1} is a spike when exactly one of i-1, i lies in D.
    The degree matters: i = n is never a spike even when n-1 is a descent.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return frozenset(i for i in range(2, n) if (i - 1 in D) != (i in D))


def restrict_descents(D, j, i, n):
    """Restrict a descent set of degree n to the window (j, i) of indices.

    Keeps the members relevant to positions j-1 .. i and shifts them down by
    j-2, producing a descent set of degree i - j + 3.  Requires 1 < j <= i < n.
    """
    if not (1 < j <= i < n):
        raise ValueError(f"window ({j},{i}) out of range for degree {n}")
    return frozenset(d - (j - 2) for d in D if j - 1 <= d <= i)


def restrict_peaks(P, j, i, n, literal=False):
    """Restrict a peak set of degree n to the window (j, i) of indices.

    The default keeps members in {j .. i+1} and shifts down by j-2, producing
    a peak set of degree i - j + 4.  With literal=True the window is
    {j-1 .. i+1} instead; the result can then contain 1 and need not be a
    valid peak set (diagnostic use only).  Requires 1 < j <= i < n-1.
    """
    if not (1 < j <= i < n - 1):
        raise ValueError(f"window ({j},{i}) out of range for degree {n}")
    lo = j - 1 if literal else j
    return frozenset(p - (j - 2) for p in P if lo <= p <= i + 1)


def is_peak_set(P, n) -> bool:
    """Whether P is a valid peak set of degree n."""
    return all(2 <= p <= n - 1 for p in P) and all(p + 1 not in P for p in P)


@lru_cache(maxsize=None)
def peak_sets(n):
    """All peak sets of degree n, ordered by size then lexicographically.

    There are Fibonacci-many of them (F_1 = F_2 = 1 convention gives
    |peak_sets(n)| = F_n).  Degree 0 is the empty shape, with the one peak
    set {}.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    found = []
    universe = range(2, n)
    for size in range(0, len(range(2, n)) + 1):
        for combo in combinations(universe, size):
            if all(b - a >= 2 for a, b in zip(combo, combo[1:])):
                found.append(frozenset(combo))
    found.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(found)


def subset_str(s) -> str:
    """Render a subset statistic as {1,3} (ascending, no spaces)."""
    return "{" + ",".join(str(x) for x in sorted(s)) + "}"


def partition_str(shape) -> str:
    """Render a partition as [3,1]."""
    return "[" + ",".join(str(p) for p in shape) + "]"


def parse_partition(text):
    """Parse "[3,1]" (or bare "3,1") back into a tuple.

    Only the token syntax is checked here; monotonicity is the caller's
    concern (is_partition / is_strict_partition).
    """
    text = text.strip()
    if text.startswith("[") != text.endswith("]"):
        raise InvalidShapeError(f"unbalanced brackets in {text!r}")
    if text.startswith("["):
        text = text[1:-1].strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InvalidShapeError(f"malformed partition: {text!r}") from None
