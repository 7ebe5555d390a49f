"""Partitions, shifted diagrams, peak sets, records.

Conventions used throughout the package:

* partitions are tuples of positive ints in weakly decreasing order;
  strict partitions decrease strictly;
* cells are (row, col) pairs, 1-based, with row 1 at the *bottom*;
* in a shifted diagram row i occupies columns i .. i + lambda_i - 1,
  so a cell is on the diagonal exactly when col == row;
* descent sets are subsets of {1..n-1}, peak sets subsets of {2..n-1}
  with no two consecutive members.  Both are plain frozensets; the
  degree n is carried by whatever object owns the set.  The spike set of
  a descent set D holds the i in {2..n-1} with exactly one of i-1, i in D.
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


class _Record:
    """A record of named fields, kept in __slots__ (a subclass declares
    `__slots__ = _fields = (...)`, its own subclasses `__slots__ = ()`).

    Built from positional or keyword fields; _defaults maps a field to a
    factory called once per instance.  __post_init__ runs after the fields
    are set.  Records are equal only to records of exactly the same class
    with equal fields.  A record declared `frozen=True` refuses to set or
    delete an attribute and hashes its fields; any other is unhashable."""

    __slots__ = ()
    _fields = ()
    _defaults = {}
    _frozen = False

    def __init_subclass__(cls, frozen=None, **kwargs):
        super().__init_subclass__(**kwargs)
        if frozen is not None:  # a subclass of a record keeps its choice
            cls._frozen = frozen
        if not cls._frozen:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        for field in fields[len(args):]:
            if field in kwargs:
                value = kwargs.pop(field)
            elif field in self._defaults:
                value = self._defaults[field]()
            else:
                raise TypeError(f"{name} missing field {field!r}")
            object.__setattr__(self, field, value)
        if kwargs:
            raise TypeError(f"{name} got unexpected or repeated {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, field, value):
        if self._frozen:
            raise AttributeError(f"cannot assign to field {field!r}")
        object.__setattr__(self, field, value)

    def __delattr__(self, field):
        if self._frozen:
            raise AttributeError(f"cannot delete field {field!r}")
        object.__delattr__(self, field)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


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


def _mask(s):
    """A set of positive integers as an integer mask: bit p for member p."""
    return sum(1 << p for p in s)


def _members(mask):
    """An integer mask as a set of positive integers: p for bit p."""
    return frozenset(p for p in range(mask.bit_length()) if mask >> p & 1)


def peak_of(D):
    """The peak set of a descent set: members i >= 2 of D with i-1 not in D."""
    return frozenset(i for i in D if i >= 2 and i - 1 not in D)


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
