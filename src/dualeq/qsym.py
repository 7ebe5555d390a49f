"""Quasisymmetric expansions.

Generating functions live in one of two bases:

* QSymF — fundamental basis F_D, keyed by descent sets (degree n);
* QSymG — peak basis G_P, keyed by peak sets (degree n).

Schur, Schur-P and Schur-Q functions are produced as F-expansions (or
G-expansions for P) from the reading words of the relevant standard
tableaux, which are enumerated as words, not Tableaux.  G_of_peaks holds the
Schur-P weighting of peak sets.  expand is the one choice of basis: it takes
an F-vector to Schur functions and a G-vector to P's, peeling off one shape
at a time (both bases are unitriangular, see _peel); failures return
NotSymmetric / NotInSpan reports carrying a witness key, they never raise.

Degree 0 is the empty shape: s_() = P_() = Q_() = F_{} = G_{} = 1.

All arithmetic is on ints.  No floats or rationals anywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations

from .core import (
    InternalInvariantError,
    InvalidShapeError,
    _members,
    is_partition,
    is_peak_set,
    is_strict_partition,
    parse_partition,
    partition_str,
    partitions_of,
    peak_of,
    spike_of,
    strict_partitions_of,
    subset_str,
)
from .tableaux import (
    _descent_mask,
    _inverse,
    _standard_words,
    enumerate_shssyt,
    enumerate_ssyt,
    monomial_weight,
)


def _key_order(key):
    """Subsets by size, then lexicographically."""
    return len(key), sorted(key)


@dataclass(frozen=True)
class QSymVector:
    """An integer combination of basis functions keyed by subsets, zero
    coefficients dropped; the subclass fixes the basis letter."""

    n: int
    coeffs: dict

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

    letter = "F"


class QSymG(QSymVector):
    """An integer combination of peak quasisymmetric functions G_P."""

    letter = "G"


@dataclass(frozen=True)
class SchurExpansion:
    """An integer combination of Schur functions s_shape."""

    letter = "s"
    n: int
    coeffs: dict  # partition -> int, zero coefficients dropped

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

    letter = "P"


@dataclass(frozen=True)
class ExpansionFailure:
    """A vector outside the span: the first key, in size-then-lexicographic
    order, where the peel leaves a nonzero residual, and that residual."""

    witness: frozenset
    residual: int


class NotSymmetric(ExpansionFailure):
    """The F-vector is not in the span of Schur functions."""

    name = "not-symmetric"


class NotInSpan(ExpansionFailure):
    """The G-vector is not in the span of Schur-P functions."""

    name = "not-in-span"


@lru_cache(maxsize=None)
def descent_subsets(n):
    """All subsets of {1..n-1}, ordered by size then lexicographically."""
    universe = range(1, n)
    return tuple(
        frozenset(c) for k in range(len(universe) + 1) for c in combinations(universe, k)
    )


@lru_cache(maxsize=None)
def _basis_coeffs(basis_vector, shape):
    return basis_vector(shape).coeffs


def _peel(vec, shapes, basis_vector):
    """Expand vec over basis_vector(mu) for mu in shapes.

    The shapes come in decreasing lexicographic order, which refines
    dominance.  The coefficient of the leading key D(mu), the partial sums
    of mu without n, is 1 in the vector of mu and 0 in the vector of any
    shape that does not dominate mu (Kostka unitriangularity; Stembridge,
    Enriched P-partitions, for P in G).  So once the earlier shapes are
    subtracted, the residual at D(mu) is mu's coefficient.

    Returns ({shape: coeff}, None), or (None, (witness, residual)) for the
    first key of a nonzero final residual."""
    residual = Counter(vec.coeffs)
    coeffs = {}
    for mu in shapes:
        c = residual[frozenset(accumulate(mu[:-1]))]
        if c:
            coeffs[mu] = c
            for key, v in _basis_coeffs(basis_vector, mu).items():
                residual[key] -= c * v
    bad = [key for key, v in residual.items() if v]
    if bad:
        witness = min(bad, key=_key_order)
        return None, (witness, residual[witness])
    return coeffs, None


@lru_cache(maxsize=None)
def _shapes(n, strict):
    return tuple((strict_partitions_of if strict else partitions_of)(n))


def expand(vec):
    """Expand a QSymF in Schur functions, a QSymG in Schur-P functions; both
    expanders are looked up at call time, so a wrapper on either sees it."""
    return (expand_in_P if isinstance(vec, QSymG) else expand_in_schur)(vec)


def expand_in_schur(f: QSymF):
    """Expand an F-vector in Schur functions, or report NotSymmetric."""
    coeffs, bad = _peel(f, _shapes(f.n, False), schur_in_F)
    return NotSymmetric(*bad) if bad else SchurExpansion(f.n, coeffs)


def expand_in_P(g: QSymG):
    """Expand a G-vector in Schur-P functions, or report NotInSpan."""
    coeffs, bad = _peel(g, _shapes(g.n, True), P_in_G)
    return NotInSpan(*bad) if bad else PExpansion(g.n, coeffs)


def schur_in_F(shape) -> QSymF:
    """Schur function s_shape as a sum of F_D over standard Young tableaux."""
    return QSymF(sum(shape), _word_descents(_standard_words(shape, False)))


def _word_descents(words):
    """The descent sets of reading words, counted by descent mask: one
    frozenset per distinct mask."""
    masks = Counter(map(_descent_mask, words, map(_inverse, words)))
    return Counter({_members(m): c for m, c in masks.items()})


def P_in_F(shape) -> QSymF:
    """Schur-P function as a sum of F_D over signed standard shifted tableaux
    with unprimed diagonal."""
    return QSymF(sum(shape), _word_descents(_standard_words(shape, True, False)))


def Q_in_F(shape) -> QSymF:
    """Schur-Q function: 2^length * P, cross-checked against the direct
    enumeration with primed diagonals allowed."""
    scaled = P_in_F(shape).scaled(2 ** len(tuple(shape)))
    direct = QSymF(sum(shape), _word_descents(_standard_words(shape, True, True)))
    if scaled != direct:
        raise InternalInvariantError(
            f"Q_in_F routes disagree for shape {tuple(shape)}"
        )
    return scaled


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
    for D, c in _word_descents(_standard_words(shape, True)).items():
        peaks[peak_of(D)] += c
    return G_of_peaks(sum(shape), peaks)


@lru_cache(maxsize=None)
def _spike_table(n):
    return tuple((D, spike_of(D, n)) for D in descent_subsets(n))


def G_to_F(g: QSymG) -> QSymF:
    """Rewrite a G-vector in the F basis: G_P = sum of F_D over descent sets
    D of the same degree whose spike set contains P."""
    acc = Counter()
    for D, spike in _spike_table(g.n):
        for P, c in g.coeffs.items():
            if P <= spike:
                acc[D] += c
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
    """Degree-n polynomial in x_1..x_k by direct tableau enumeration.

    kind "s": straight semistandard tableaux; "Q": shifted semistandard with
    primed diagonals allowed; "P": shifted semistandard, unprimed diagonal.
    """
    if kind == "s":
        tabs = enumerate_ssyt(shape, k)
    elif kind == "Q":
        tabs = enumerate_shssyt(shape, k, True)
    elif kind == "P":
        tabs = enumerate_shssyt(shape, k, False)
    else:
        raise ValueError(f"unknown series kind: {kind!r}")
    poly = Counter()
    for T in tabs:
        w = monomial_weight(T)
        poly[w + (0,) * (k - len(w))] += 1
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
