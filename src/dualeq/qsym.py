"""Quasisymmetric expansions.

Generating functions live in one of two bases:

* QSymF — fundamental basis F_D, keyed by descent sets (degree n);
* QSymG — peak basis G_P, keyed by peak sets (degree n).

Schur, Schur-P and Schur-Q functions are produced as F-expansions (or
G-expansions for P) from the descent sets of the relevant standard
tableaux: s and P count them by tableaux._descent_masks, a transfer over the
subshapes that makes no tableau, and Q is 2^length times P, so the vector
layer makes no word.  G_of_peaks holds the Schur-P weighting of peak sets.
expand is the one choice of basis: it takes an F-vector to Schur functions
and a G-vector to P's, peeling off one shape at a time (both bases are
unitriangular, see _peel); failures return NotSymmetric / NotInSpan reports
carrying a witness key, they never raise.

KINDS states the tableaux of s, P and Q once, as the (strict,
diagonal_primes) that the tableau walks and their counts take: straight,
and signed shifted with an unprimed or a free diagonal (Stembridge,
Enriched P-partitions).  monomial_series walks a kind's semistandard rows.

Degree 0 is the empty shape: s_() = P_() = Q_() = F_{} = G_{} = 1.

All arithmetic is on ints.  No floats or rationals anywhere.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from functools import lru_cache
from operator import sub

from .core import (
    InvalidShapeError,
    _mask,
    _members,
    _Record,
    is_partition,
    is_peak_set,
    is_strict_partition,
    parse_partition,
    partition_str,
    peak_of,
    subset_str,
)
from .tableaux import _descent_masks, _semistandard_fillings

# kind -> what _standard_words and _standard_count take after the shape,
# and _semistandard_fillings and _semistandard_count after k
KINDS = {"s": (False, None), "P": (True, False), "Q": (True, True)}


def _key_order(key):
    """Subsets by size, then lexicographically."""
    return len(key), sorted(key)


class QSymVector(_Record, frozen=True):
    """An integer combination of basis functions keyed by subsets, zero
    coefficients dropped; the subclass fixes the basis letter."""

    __slots__ = _fields = ("n", "coeffs")

    def __post_init__(self):
        coeffs = {frozenset(k): v for k, v in self.coeffs.items() if v != 0}
        object.__setattr__(self, "coeffs", coeffs)

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("degree mismatch")
        total = Counter(self.coeffs)
        total.update(other.coeffs)
        return type(self)(self.n, total)

    def scaled(self, c):
        return type(self)(self.n, {k: c * v for k, v in self.coeffs.items()})

    def terms(self):
        """(key, coeff) pairs sorted by key size then lexicographically."""
        return sorted(self.coeffs.items(), key=lambda kv: _key_order(kv[0]))

    def render(self):
        return [f"{c} {self.letter}{subset_str(k)}" for k, c in self.terms()]


class QSymF(QSymVector):
    """An integer combination of fundamental quasisymmetric functions F_D."""

    __slots__ = ()
    letter = "F"


class QSymG(QSymVector):
    """An integer combination of peak quasisymmetric functions G_P."""

    __slots__ = ()
    letter = "G"


class SchurExpansion(_Record, frozen=True):
    """An integer combination of Schur functions s_shape."""

    __slots__ = _fields = ("n", "coeffs")  # coeffs: partition -> int, no zeros
    letter = "s"

    def __post_init__(self):
        coeffs = {sh: c for sh, c in self.coeffs.items() if c != 0}
        object.__setattr__(self, "coeffs", coeffs)

    def terms(self):
        """(shape, coeff) pairs, shapes in decreasing lexicographic order."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0], reverse=True)

    def is_nonnegative_integral(self):
        return all(isinstance(c, int) and c >= 0 for c in self.coeffs.values())

    def unit_shape(self):
        """The unique shape when the expansion is a single coefficient-1 term."""
        if len(self.coeffs) == 1:
            (shape, c), = self.coeffs.items()
            if c == 1:
                return shape
        return None

    def render(self):
        return [f"{c} {self.letter}{partition_str(sh)}" for sh, c in self.terms()]


class PExpansion(SchurExpansion):
    """An integer combination of Schur-P functions P_shape."""

    __slots__ = ()
    letter = "P"


class ExpansionFailure(_Record, frozen=True):
    """A vector outside the span: the first key, in size-then-lexicographic
    order, where the peel leaves a nonzero residual, and that residual."""

    __slots__ = _fields = ("witness", "residual")


class NotSymmetric(ExpansionFailure):
    """The F-vector is not in the span of Schur functions."""

    __slots__ = ()
    name = "not-symmetric"


class NotInSpan(ExpansionFailure):
    """The G-vector is not in the span of Schur-P functions."""

    __slots__ = ()
    name = "not-in-span"


@lru_cache(maxsize=None)
def _basis_coeffs(basis_vector, shape):
    return basis_vector(shape).coeffs


def _peel(vec, strict, basis_vector):
    """Expand vec over basis_vector(mu) for the shapes mu (strict if strict)
    of its degree, in decreasing lexicographic order, which refines
    dominance.  The coefficient of the leading key D(mu), the partial sums
    of mu without n, is 1 in the vector of mu and 0 in the vector of any
    shape that does not dominate mu (Kostka unitriangularity; Stembridge,
    Enriched P-partitions, for P in G).  So once the earlier shapes are
    subtracted, the residual at D(mu) is mu's coefficient, and only the
    shapes whose leading key holds a nonzero residual need a visit; a
    subtraction changes the residual only at later shapes' leading keys.

    Returns ({shape: coeff}, None), or (None, (witness, residual)) for the
    first key of a nonzero final residual."""
    residual, coeffs, pending = Counter(vec.coeffs), {}, []

    def queue(key):  # pending stays sorted: its last shape is the largest
        mu = _shape_led_by(key, vec.n, strict)
        if mu is not None:
            insort(pending, (mu, key))

    for key in vec.coeffs:
        queue(key)
    while pending:
        mu, key = pending.pop()
        c = residual[key]  # 0 if mu was queued twice and is done
        if c:
            coeffs[mu] = c
            for key, v in _basis_coeffs(basis_vector, mu).items():
                if not residual[key]:  # now nonzero: a later shape's key
                    queue(key)
                residual[key] -= c * v
    bad = [key for key, v in residual.items() if v]
    if bad:
        witness = min(bad, key=_key_order)
        return None, (witness, residual[witness])
    return coeffs, None


@lru_cache(maxsize=None)
def _shape_led_by(key, n, strict):
    """The shape mu of degree n with D(mu) = key, or None if there is none."""
    cuts = sorted(key)
    mu = tuple(map(sub, [*cuts, n], [0, *cuts])) if key or n else ()
    return mu if (is_strict_partition if strict else is_partition)(mu) else None


def expand(vec):
    """Expand a QSymF in Schur functions, a QSymG in Schur-P functions; both
    expanders are looked up at call time, so a wrapper on either sees it."""
    return (expand_in_P if isinstance(vec, QSymG) else expand_in_schur)(vec)


def expand_in_schur(f: QSymF):
    """Expand an F-vector in Schur functions, or report NotSymmetric."""
    coeffs, bad = _peel(f, False, schur_in_F)
    return NotSymmetric(*bad) if bad else SchurExpansion(f.n, coeffs)


def expand_in_P(g: QSymG):
    """Expand a G-vector in Schur-P functions, or report NotInSpan."""
    coeffs, bad = _peel(g, True, P_in_G)
    return NotInSpan(*bad) if bad else PExpansion(g.n, coeffs)


def schur_in_F(shape) -> QSymF:
    """Schur function s_shape as a sum of F_D over standard Young tableaux."""
    n, masks = sum(shape), _descent_masks(shape, False)
    return QSymF(n, {_members(m): c for m, c in masks.items()})


def P_in_F(shape) -> QSymF:
    """Schur-P function in the F basis, as G_to_F of P_in_G: the sum of F_D
    over signed standard shifted tableaux with unprimed diagonal, read from
    the unsigned ones (Stembridge, Enriched P-partitions)."""
    return G_to_F(P_in_G(shape))


def Q_in_F(shape) -> QSymF:
    """Schur-Q function in the F basis: Q = 2^length * P, the sum of F_D over
    signed standard shifted tableaux with primed diagonals allowed."""
    return P_in_F(shape).scaled(2 ** len(tuple(shape)))


def G_of_peaks(n, peaks) -> QSymG:
    """The G-vector of degree n of a Counter of peak sets, with the Schur-P
    weighting: a peak set P counts 2^(|P| - m) times, where m is the least
    |P| present (Stembridge, Enriched P-partitions)."""
    m = min(map(len, peaks))
    return QSymG(n, {P: c << (len(P) - m) for P, c in peaks.items()})


def P_in_G(shape) -> QSymG:
    """Schur-P function as G_of_peaks of the peak sets of standard shifted
    tableaux.

    A tableau T of an l-row shape has 2^(n-l) signed variants (unprimed
    diagonal) whose descent sets cover the 2^(n-1-|Peak(T)|) sets whose
    spike set contains Peak(T), 2^(|Peak(T)|+1-l) times each; the least
    |Peak(T)| over the shape is l-1, so that is G_of_peaks' multiplicity.
    The empty shape has one empty tableau: P_() = G_{} = 1."""
    shape = tuple(shape)
    peaks = Counter()
    for m, c in _descent_masks(shape, True).items():
        peaks[peak_of(_members(m))] += c
    return G_of_peaks(sum(shape), peaks)


def G_to_F(g: QSymG) -> QSymF:
    """Rewrite a G-vector in the F basis: G_P = sum of F_D over descent sets
    D of the same degree whose spike set contains P (Stembridge, Enriched
    P-partitions).  Sets are read as masks: on the bits 2..n-1 a peak set
    can have, D ^ D << 1 is the spike set of D.  So c_P goes to entry
    P >> 2 of a table over those bits, one pass per bit adds each entry
    into the one with that bit set, and F_D reads its spike's entry."""
    width, inside = max(g.n - 2, 0), set(range(2, g.n))
    table = [0] * (1 << width)
    for P, c in g.coeffs.items():
        if not P <= inside:
            raise ValueError(f"G{subset_str(P)} has a member outside 2..{g.n - 1}")
        table[_mask(P) >> 2] = c
    for b in range(width):
        for m in range(len(table)):
            if m >> b & 1:
                table[m] += table[m ^ 1 << b]
    top, acc = len(table) - 1, {}
    for D in range(0, 1 << g.n, 2):  # descent masks: bits 1..n-1
        c = table[(D ^ D << 1) >> 2 & top]
        if c:
            acc[_members(D)] = c
    return QSymF(g.n, acc)


def F_specialize(D, n, k):
    """The fundamental quasisymmetric polynomial F_D(x_1..x_k) of degree n.

    Sums x_{i_1}...x_{i_n} over weakly increasing sequences in {1..k} that
    rise strictly at each position in D.  Returns {exponent tuple: coeff}.
    """
    if any(not 1 <= d <= n - 1 for d in D):
        raise ValueError(f"descent set {sorted(D)} out of range for degree {n}")
    if k < 0:
        raise ValueError("number of variables must be nonnegative")
    poly = Counter()
    expts = [0] * k

    def walk(pos, var):
        if pos > n:
            poly[tuple(expts)] += 1
            return
        lo = var + 1 if pos - 1 in D else var
        for v in range(max(lo, 1), k + 1):
            expts[v - 1] += 1
            walk(pos + 1, v)
            expts[v - 1] -= 1

    walk(1, 0)
    return dict(poly)


def qsymf_specialize(f: QSymF, k):
    """Evaluate an F-vector as a polynomial in x_1..x_k."""
    poly = Counter()
    for D, c in f.coeffs.items():
        for mono, cnt in F_specialize(D, f.n, k).items():
            poly[mono] += c * cnt
    return {m: c for m, c in poly.items() if c != 0}


def monomial_series(kind, shape, k):
    """Degree-n polynomial in x_1..x_k by direct tableau enumeration: the
    sum of x^T over the semistandard tableaux T of KINDS[kind] with values
    <= k, an entry v or v' contributing to x_v."""
    if kind not in KINDS:
        raise ValueError(f"unknown series kind: {kind!r}")
    poly = Counter()
    for rows in _semistandard_fillings(shape, k, *KINDS[kind]):
        weight = [0] * k
        for row in rows:
            for e in row:
                weight[abs(e) - 1] += 1
        poly[tuple(weight)] += 1
    return dict(poly)


def poly_render(poly):
    """Render {exponents: coeff} as lines, exponent vectors in decreasing
    lexicographic order: "2 x1^2 x2"."""
    lines = []
    for mono in sorted(poly, reverse=True):
        parts = [
            f"x{i}" if e == 1 else f"x{i}^{e}"
            for i, e in enumerate(mono, 1)
            if e > 0
        ]
        lines.append(f"{poly[mono]} " + (" ".join(parts) if parts else "1"))
    return lines


def parse_expansion(text, n=None):
    """Parse expansion term lines back into a vector.

    Lines look like "2 F{1,3}", "1 G{2}", "1 s[3,1]", "3 P[4,2,1]".  All
    lines must use the same basis letter.  F/G vectors need the degree n
    (subsets do not determine it), and every F key must be a subset of
    {1..n-1} and every G key a peak set of degree n; s/P vectors infer it
    from the shapes.  Zero coefficients are dropped.
    """
    kinds = set()
    entries = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        coeff_tok, _, key_tok = line.partition(" ")
        coeff = int(coeff_tok)
        key_tok = key_tok.strip()
        if not key_tok:
            raise ValueError(f"malformed term: {line!r}")
        letter, body = key_tok[0], key_tok[1:]
        kinds.add(letter)
        if letter in ("F", "G"):
            if not (body.startswith("{") and body.endswith("}")):
                raise ValueError(f"malformed term: {line!r}")
            inner = body[1:-1]
            key = frozenset(int(t) for t in inner.split(",")) if inner else frozenset()
        elif letter in ("s", "P"):
            key = parse_partition(body)
            if not (is_strict_partition if letter == "P" else is_partition)(key):
                raise InvalidShapeError(f"not a shape for {letter}: {body!r}")
        else:
            raise ValueError(f"unknown basis letter in {line!r}")
        entries.append((key, coeff))
    if len(kinds) != 1:
        raise ValueError("expected exactly one basis letter")
    letter = kinds.pop()
    coeffs = {}
    for key, coeff in entries:
        coeffs[key] = coeffs.get(key, 0) + coeff
    if letter in ("F", "G"):
        if n is None:
            raise ValueError("degree n is required for F/G expansions")
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        for key in coeffs:
            valid = (
                all(1 <= x <= n - 1 for x in key) if letter == "F"
                else is_peak_set(key, n)
            )
            if not valid:
                raise ValueError(
                    f"{letter}{subset_str(key)} is not a key of degree {n}"
                )
        return QSymF(n, coeffs) if letter == "F" else QSymG(n, coeffs)
    # the degree comes from the shapes, zero coefficients included
    degrees = {sum(sh) for sh in coeffs}
    if len(degrees) != 1:
        raise ValueError("mixed degrees in expansion")
    cls = SchurExpansion if letter == "s" else PExpansion
    return cls(degrees.pop(), coeffs)
