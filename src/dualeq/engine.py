"""Verification engine for dual equivalence axiom systems.

A ground is a finite family of combinatorial objects carrying a subset
statistic (descent sets or peak sets) together with indexed involutions.
Builtin grounds cover permutations, signed permutations, standard tableaux,
standard shifted tableaux and signed standard shifted tableaux, one entry
each in BUILTIN_GROUNDS; arbitrary grounds can be read from .deg files.
Every builtin ground is a set of words: the tableau grounds are indexed by
reading words, the involutions act on the words, and an image that is not
an enumerated word is not a tableau of the shape.  The standard shifted
grounds that classes are matched against are built once per shape and
cached.

The verify_* functions check the axiom systems condition by condition and
return reports with witnesses; a failed condition is data, not an exception.
Each call takes the statistics as integer masks once.  Every windowed
condition (strong and shifted iv, weak iv-a and iv-b, lemma v) reads one
pass of _window_classes: window by window, the classes under the window's
involutions, labelled by one walk through their tables, and each class's
restricted statistics.  _window knows a window's degree and restriction.
The pass is the only maker of a window's classes: restricted_class reads
one step of it, and class_genfn and subground take whole classes.
Peak sets are weighted by qsym.G_of_peaks and qsym.expand picks the basis;
each verifier call expands each distinct window vector once.
Lemma (v) and (vi), classify_shifted_class and find_isomorphism decide
isomorphism of classes by comparing canonical codes (_class_code).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from itertools import islice, permutations, product
from math import factorial, prod

from .core import (
    InternalInvariantError,
    InvalidShapeError,
    _members,
    is_partition,
    is_peak_set,
    is_strict_partition,
    partition_str,
    peak_of,
)
from .involutions import _b, _d, _phi, _reading_columns
from .qsym import ExpansionFailure, G_of_peaks, PExpansion, QSymF, expand, expand_in_P
from .tableaux import _descent_mask, _inverse, _standard_words, word_str

DES = "des"
PEAK = "peak"

_WITNESS_CAP = 8

# parse_deg refuses larger degrees: the degree alone sets the table count
DEG_MAX_DEGREE = 16


class DegParseError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class DEGround:
    """Objects with a subset statistic and indexed involutions.

    labels are the stable external ids; stats[k] is the statistic of object k;
    invs maps each index i of the family to a lookup table (tuple of object
    positions).  Descent-kind grounds of degree n have indices 2..n-1,
    peak-kind grounds 2..n-2.
    """

    stat_kind: str
    n: int
    labels: tuple
    stats: tuple
    invs: dict
    desc: str = ""

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_range(self):
        return _index_range(self.stat_kind, self.n)

    def validate(self):
        if self.stat_kind not in (DES, PEAK):
            raise ValueError(f"unknown stat kind {self.stat_kind!r}")
        if len(self.stats) != self.size:
            raise ValueError("labels/stats length mismatch")
        if len(set(self.labels)) != self.size:
            raise ValueError("duplicate labels")
        for s in dict.fromkeys(self.stats):  # each distinct one, first seen first
            if self.stat_kind == DES:
                if any(not 1 <= x <= self.n - 1 for x in s):
                    raise ValueError(f"descent set {sorted(s)} out of range")
            elif not is_peak_set(s, self.n):
                raise ValueError(f"invalid peak set {sorted(s)}")
        if set(self.invs) != set(self.index_range()):
            raise ValueError(
                f"involution indices {sorted(self.invs)} do not match the "
                f"range {list(self.index_range())}"
            )
        for i, table in self.invs.items():
            if len(table) != self.size:
                raise ValueError(f"involution {i} has wrong size")
            for x, y in enumerate(table):
                if table[y] != x:
                    raise ValueError(
                        f"involution {i} is not an involution at {self.labels[x]}"
                    )
        return self


def _index_range(stat_kind, n):
    """Involution indices of a ground: 2..n-1 for descent-kind grounds of
    degree n, 2..n-2 for peak-kind ones."""
    return range(2, n if stat_kind == DES else n - 1)


def _materialize(stat_kind, n, words, labels, move, desc):
    """Tabulate word by word, from one inverse pos and one descent mask des
    per word, its statistic (one shared frozenset per distinct statistic,
    made once per distinct mask) and its images move(i, w, pos, des).  An
    image that is w itself is the word's own index; the lookup of any other
    is its check: one outside the ground raises InternalInvariantError."""
    index_of = {w: k for k, w in enumerate(words)}
    indices = _index_range(stat_kind, n)
    rows = [(i, [None] * len(words)) for i in indices]
    stats, of_mask, shared = [None] * len(words), {}, {}
    find = index_of.get
    for w, k in index_of.items():  # k: the dict's own int, shared by the tables
        pos = _inverse(w)
        des = _descent_mask(w, pos)
        stat = of_mask.get(des)
        if stat is None:
            stat = peak_of(_members(des)) if stat_kind == PEAK else _members(des)
            stat = of_mask[des] = shared.setdefault(stat, stat)
        stats[k] = stat
        for i, table in rows:
            y = move(i, w, pos, des)
            table[k] = k if y is w else find(y)
    invs = {}
    while rows:  # each list goes as its tuple is made
        i, table = rows.pop(0)
        invs[i] = table = tuple(table)
        if None in table:
            raise InternalInvariantError(
                f"involution {i} of {desc} sends {labels[table.index(None)]} "
                "outside the ground"
            )
    return DEGround(stat_kind, n, tuple(labels), tuple(stats), invs, desc).validate()


# (ground, family) -> (stat kind, the valid words of the parameter, the
# involution core move(i, w, pos, des) for the parameter).  The parameter is n for
# the permutation grounds and a shape for the tableau grounds, whose words
# are the reading words of the enumerated tableaux.
BUILTIN_GROUNDS = {
    ("perm", "d"): (DES, lambda n: list(permutations(range(1, n + 1))), lambda n: _d),
    ("perm", "b"): (PEAK, lambda n: list(permutations(range(1, n + 1))), lambda n: _b),
    ("signedperm", "phi"): (
        DES,
        lambda n: [
            signed
            for w in permutations(range(1, n + 1))
            for signed in product(*((v, -v) for v in w))
        ],
        lambda n: _phi,
    ),
    ("syt", "d"): (DES, lambda shape: _standard_words(shape, False), lambda shape: _d),
    ("shsyt", "b"): (PEAK, lambda shape: _standard_words(shape, True), lambda shape: _b),
    ("signed-shsyt", "psi"): (
        DES,
        lambda shape: _standard_words(shape, True, False),
        lambda shape: partial(_phi, col=_reading_columns(tuple(shape))),
    ),
}

# the most objects build_ground builds (ground_size) and parse_deg reads
MAX_GROUND_OBJECTS = 1_000_000


def ground_size(desc) -> int:
    """The number of objects of a builtin ground, counted without enumerating:
    n!, n!*2^n, the hook-length formula for syt (Frobenius's form, on parts
    shape[k] + rows - k - 1), Thrall's formula for shsyt, times 2^(n - rows)
    for signed-shsyt (off-diagonal cells may be primed)."""
    kind, param, family = desc
    if (kind, family) not in BUILTIN_GROUNDS:
        raise ValueError(f"unknown ground descriptor {desc!r}")
    n = param if isinstance(param, int) else sum(param)
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if kind in ("perm", "signedperm"):
        return factorial(n) << (n if kind == "signedperm" else 0)
    shape, strict, rows = tuple(param), kind != "syt", len(param)
    if not (is_strict_partition if strict else is_partition)(shape):
        raise InvalidShapeError(f"not a {'strict ' * strict}partition: {shape}")
    parts = shape if strict else [p + rows - k - 1 for k, p in enumerate(shape)]
    pairs = [(p, q) for k, p in enumerate(parts) for q in parts[k + 1 :]]
    sums = prod(p + q for p, q in pairs) if strict else 1
    count = factorial(n) * prod(p - q for p, q in pairs)
    count //= prod(map(factorial, parts)) * sums
    return count << (n - rows) if kind == "signed-shsyt" else count


def _within_limit(what, size):
    """Refuse a request of more than MAX_GROUND_OBJECTS objects: size is
    their number, or an iterator over them, walked only past the limit."""
    if not isinstance(size, int):
        if next(islice(size, MAX_GROUND_OBJECTS, None), None) is None:
            return
        size = f"more than {MAX_GROUND_OBJECTS}"
    elif size <= MAX_GROUND_OBJECTS:
        return
    raise ValueError(f"{what} has {size} objects, above the limit {MAX_GROUND_OBJECTS}")


def build_ground(desc) -> DEGround:
    """Build a builtin ground from a descriptor (ground, parameter, family)
    such as ("perm", 4, "d") or ("shsyt", (4, 2), "b"); BUILTIN_GROUNDS
    lists the pairs.  A ground of more than MAX_GROUND_OBJECTS objects is
    refused before any enumeration."""
    kind, param, family = desc
    _within_limit(f"ground {kind} {param}", ground_size(desc))
    stat_kind, valid_words, involution = BUILTIN_GROUNDS[kind, family]
    n = param if isinstance(param, int) else sum(param)
    words = valid_words(param)
    return _materialize(
        stat_kind, n, words, tuple(map(word_str, words)), involution(param),
        f"({kind},{param},{family})",
    )


def _components(size, tables):
    """Connected components under the given involution tables.

    Returns (components, comp_id): components are tuples of object positions
    sorted ascending, listed by smallest member; comp_id maps positions to
    their component's index in that list.  The objects are taken in
    increasing order, and each one not yet labelled starts a component: a
    walk through every table labels its members.
    """
    comps, comp_id = [], [-1] * size
    for start in range(size):
        if comp_id[start] >= 0:
            continue
        idx = comp_id[start] = len(comps)
        members = [start]
        for x in members:  # the walk appends to the list it reads
            for table in tables:
                y = table[x]
                if comp_id[y] < 0:
                    comp_id[y] = idx
                    members.append(y)
        members.sort()
        comps.append(tuple(members))
    return comps, comp_id


def classes(g: DEGround):
    """Equivalence classes under all involutions of the ground, as tuples of
    object positions, ordered by smallest member."""
    return _components(g.size, list(g.invs.values()))[0]


def restricted_class(g: DEGround, t: int, j: int, i: int):
    """The class of object t under the involutions j..i only, read from one
    step of _window_classes."""
    _, comps, comp_id, _, _ = next(_window_classes(g, [(j, i)], _stat_masks(g)))
    return comps[comp_id[t]]


def _window(g: DEGround, j, i, literal=False):
    """The degree of window (j, i) of g and its restriction of a statistic
    mask: keep descents j-1..i or peaks j..i+1 (from j-1 if literal), >> j-2."""
    if not (j <= i and j in g.index_range() and i in g.index_range()):
        raise ValueError(f"window ({j},{i}) out of range for degree {g.n}")
    degree = i - j + (3 if g.stat_kind == DES else 4)
    keep = (1 << degree) - (2 if g.stat_kind == DES or literal else 4)
    return degree, lambda mask: mask >> (j - 2) & keep


def _mask(s):
    """A set of positive integers as an integer mask: bit p for member p."""
    return sum(1 << p for p in s)


def _genfn(stat_kind, degree, stats):
    """QSymF of a class's Counter of descent sets, or G_of_peaks of its
    Counter of peak sets."""
    return QSymF(degree, stats) if stat_kind == DES else G_of_peaks(degree, stats)


def class_genfn(g: DEGround, members):
    """Generating function of a whole class: QSymF for descent-kind grounds,
    QSymG for peak-kind.  A window's classes have theirs from _vector_genfn."""
    return _genfn(g.stat_kind, g.n, Counter(g.stats[x] for x in members))


def _stat_masks(g: DEGround):
    """Each object's statistic as an integer mask, one _mask per distinct
    statistic; a verifier call takes them once, for all its conditions."""
    mask_of = {s: _mask(s) for s in set(g.stats)}
    return [mask_of[s] for s in g.stats]


def _window_classes(g: DEGround, windows, masks, literal=False):
    """One pass over the windows (j, i), in the order given, holding one
    window at a time: yields ((j, i), comps, comp_id, vectors, r), the
    classes under the involutions j..i as _components lists them, each
    object's class index, each class's window vector (degree, sorted masks
    of the restricted statistics), one shared object per distinct vector,
    and each object's restricted mask.  masks are the objects' statistics
    from _stat_masks."""
    shared, distinct = {}, set(masks)
    for j, i in windows:
        degree, restrict = _window(g, j, i, literal)  # refuses a bad window first
        comps, comp_id = _components(g.size, [g.invs[k] for k in range(j, i + 1)])
        restricted = {m: restrict(m) for m in distinct}
        r = list(map(restricted.__getitem__, masks))
        vectors = ((degree, tuple(sorted(map(r.__getitem__, comp)))) for comp in comps)
        yield (j, i), comps, comp_id, [shared.setdefault(v, v) for v in vectors], r


def _vector_genfn(g: DEGround, vector):
    """The generating function of a window vector from _window_classes."""
    return _genfn(g.stat_kind, vector[0], Counter(map(_members, vector[1])))


@dataclass
class Witness:
    condition: str
    labels: tuple
    detail: str


@dataclass
class VerificationReport:
    kind: str
    ground: str
    results: dict
    witnesses: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.results.values())

    def witnesses_for(self, condition):
        return [w for w in self.witnesses if w.condition == condition]


class _Acc:
    """Per-condition pass/fail accumulator with capped witnesses."""

    def __init__(self, report: VerificationReport, condition: str):
        self.report = report
        self.condition = condition
        report.results[condition] = True
        report.counts[condition] = 0

    def fail(self, labels, detail):
        self.report.results[self.condition] = False
        self.report.counts[self.condition] += 1
        if len(self.report.witnesses_for(self.condition)) < _WITNESS_CAP:
            self.report.witnesses.append(Witness(self.condition, tuple(labels), detail))


def _fix_tables(g):
    return {i: [y == x for x, y in enumerate(t)] for i, t in g.invs.items()}


def _check_fixed_law(g, report, masks, law):
    """Condition (i): an object is fixed by involution i iff law(mask, i)
    holds of its statistic mask."""
    acc = _Acc(report, "i")
    distinct = set(masks)
    for i in g.index_range():
        fixed = {m for m in distinct if law(m, i)}
        for x, (y, m) in enumerate(zip(g.invs[i], masks)):
            if (y == x) != (m in fixed):
                acc.fail((g.labels[x],), f"fixed-point law fails at index {i}")


def _check_descent_transport(g, report, fix, masks):
    """Descent-kind condition (ii): positions i-1, i flip; i-2 / i+1 may flip
    only when the neighbouring involution does not fix the object; everything
    else is preserved.  A witness names the first illegal position in the
    statistics' frozenset difference, whose order is not always ascending."""
    acc = _Acc(report, "ii")
    for i in g.index_range():
        table = g.invs[i]
        flip, low, high = 3 << (i - 1), 1 << (i - 2), 1 << (i + 1)
        for x, (y, m) in enumerate(zip(table, masks)):
            if y == x:
                continue
            diff = m ^ masks[y]
            if diff == flip:  # the legal move that changes only i-1, i
                continue
            illegal = diff & ~flip
            if illegal & low and not fix[i - 1][x]:
                illegal ^= low
            if illegal & high and not fix[i + 1][x]:
                illegal ^= high
            if diff & flip != flip:
                detail = f"positions {i - 1},{i} must both flip"
            elif illegal:
                h = next(h for h in g.stats[x] ^ g.stats[y] if illegal >> h & 1)
                detail = f"position {h} changed illegally"
            else:
                continue
            acc.fail((g.labels[x], g.labels[y]), f"index {i}: {detail}")


def _check_peak_transport(g, report, masks):
    """Peak-kind condition (ii): i is a peak before iff i+1 is after, and
    far peaks are untouched.

    An index-i move rearranges the four positions i-1..i+2, and whether h is
    a peak depends on the relative positions of h-1, h, h+1; so the peaks
    that provably cannot move are those with h+1 < i-1 or h-1 > i+2, i.e.
    h <= i-3 or h >= i+4.  Peaks at i-2 and i+3 genuinely can move: on the
    shifted (3,2,1) tableaux with reading words 635124 and 645123 the peak
    sets are {2,4} and {3,5}, yet the two are exchanged by the index-2 move
    (so h=5 appears) and by the index-4 move (so h=2 disappears).
    """
    acc = _Acc(report, "ii")
    for i in g.index_range():
        table = g.invs[i]
        far = ~(63 << (i - 2))  # every position outside i-2..i+3
        for x, y in enumerate(table):
            if y == x:
                continue
            if masks[x] >> i & 1 != masks[y] >> (i + 1) & 1:
                detail = f"peak at {i} not transported to {i + 1}"
            elif (masks[x] ^ masks[y]) & far:
                detail = f"peak outside {{{i - 2}..{i + 3}}} changed"
            else:
                continue
            acc.fail((g.labels[x], g.labels[y]), f"index {i}: {detail}")


def _check_commutation(g, report, distance):
    acc = _Acc(report, "iii")
    R = list(g.index_range())
    for a in R:
        for bb in R:
            if bb - a < distance:
                continue
            ta, tb = g.invs[a], g.invs[bb]
            for x in range(g.size):
                if ta[tb[x]] != tb[ta[x]]:
                    acc.fail(
                        (g.labels[x],),
                        f"involutions {a} and {bb} do not commute",
                    )
                    break


def _window_label(j, i):
    return f"({j},{i})"


def _expansion_detail(g, require, vector):
    """Why a window vector fails condition (iv), or None when it passes:
    require is "unit" (a single coefficient-1 term) or "positive"."""
    expansion = expand(_vector_genfn(g, vector))
    if isinstance(expansion, ExpansionFailure):
        return f"expansion failed with witness {sorted(expansion.witness)}"
    if require == "unit" and expansion.unit_shape() is None:
        return "not a unit vector: " + ", ".join(expansion.render())
    if not expansion.is_nonnegative_integral():  # unit vectors always are
        return "negative coefficient: " + ", ".join(expansion.render())


def _check_window_expansions(g, acc, window, comps, vectors, details):
    """Fail each window class whose vector has a detail in the memo details."""
    where = f"window {_window_label(*window)}"
    for comp, vector in zip(comps, vectors):
        detail = details(vector)
        if detail is not None:
            acc.fail((g.labels[comp[0]],), f"{where}: {detail}")


def _check_unit_windows(g, report, masks, max_span, literal=False):
    """Condition (iv) of the strong and shifted systems: every class of every
    window of 2..max_span+1 consecutive involutions has a unit expansion."""
    acc = _Acc(report, "iv")
    details = cache(partial(_expansion_detail, g, "unit"))
    R = list(g.index_range())
    windows = [(j, i) for j in R for i in R if 1 <= i - j <= max_span]
    for window, comps, _, vectors, _ in _window_classes(g, windows, masks, literal):
        _check_window_expansions(g, acc, window, comps, vectors, details)


def verify_strong(g: DEGround) -> VerificationReport:
    """Check the descent-kind strong axioms: (i) fixed-point law, (ii) descent
    transport, (iii) commutation at distance >= 3, (iv) every class restricted
    to a window of 2-4 consecutive involutions has a single-Schur generating
    function."""
    if g.stat_kind != DES:
        raise ValueError("strong axioms apply to descent-kind grounds")
    report = VerificationReport("strong", g.desc, {})
    fix, masks = _fix_tables(g), _stat_masks(g)
    _check_fixed_law(g, report, masks, lambda m, i: m >> (i - 1) & 3 in (0, 3))
    _check_descent_transport(g, report, fix, masks)
    _check_commutation(g, report, 3)
    _check_unit_windows(g, report, masks, 3)
    return report


def verify_weak(g: DEGround) -> VerificationReport:
    """Check the descent-kind weak axioms: (i)-(iii) as in the strong system,
    then (iv-a) Schur positivity over two-involution windows plus equality of
    the restricted statistic multisets across overlapping windows, and (iv-b)
    Schur positivity over three-involution windows plus the fixed-point chain
    condition along alternating products."""
    if g.stat_kind != DES:
        raise ValueError("weak axioms apply to descent-kind grounds")
    report = VerificationReport("weak", g.desc, {})
    fix, masks = _fix_tables(g), _stat_masks(g)
    _check_fixed_law(g, report, masks, lambda m, i: m >> (i - 1) & 3 in (0, 3))
    _check_descent_transport(g, report, fix, masks)
    _check_commutation(g, report, 3)
    R = list(g.index_range())

    # The windows (i-1, i) in order.  A window vector holds its class's
    # multiset of restricted descent sets, so (iv-a)'s multiset clause
    # compares x's vectors in the previous window (i-1, i) and this one.
    details = cache(partial(_expansion_detail, g, "positive"))
    acc_a = _Acc(report, "iv-a")
    acc_m = _Acc(report, "iv-a-multisets")
    previous = None
    windows_a = [(i - 1, i) for i in R if i - 1 in g.invs]
    for window, comps, comp_id, vectors, _ in _window_classes(g, windows_a, masks):
        _check_window_expansions(g, acc_a, window, comps, vectors, details)
        if previous is not None:
            i = window[0]
            left_id, left = previous
            excluded = [a or b or c for a, b, c in zip(fix[i - 1], fix[i], fix[i + 1])]
            for x, (y, lk, k) in enumerate(zip(g.invs[i], left_id, comp_id)):
                if not (excluded[x] or excluded[y]) and left[lk] != vectors[k]:
                    acc_m.fail(
                        (g.labels[x],),
                        f"windows {_window_label(i - 1, i)} vs "
                        f"{_window_label(i, i + 1)}: "
                        "restricted statistic multisets differ",
                    )
        previous = comp_id, vectors

    acc_b = _Acc(report, "iv-b")
    windows_b = [(i - 2, i) for i in R if i - 2 in g.invs]
    for window, comps, _, vectors, _ in _window_classes(g, windows_b, masks):
        _check_window_expansions(g, acc_b, window, comps, vectors, details)

    acc_c = _Acc(report, "iv-b-chain")
    for i in R:
        if i - 2 not in g.invs or i + 1 not in g.invs:
            continue
        t_i, t_m2, fix_p1 = g.invs[i], g.invs[i - 2], fix[i + 1]
        for x, (u, fixed) in enumerate(zip(t_i, fix_p1)):
            # the pair (x, u) must be two genuine chain ends; a fixed point
            # of involution i has only one direction to walk and the
            # condition below would contradict its own trigger
            if u == x or fixed or fix_p1[u] or not fix_p1[t_i[t_m2[x]]]:
                continue
            # chain trigger fired: extend the alternating chain from u while
            # every step is genuine; it must never re-enter the fixed set of
            # involution i+1.  One full period of the product suffices.
            v = u
            while True:
                w = t_m2[v]
                if w == v or t_i[w] == w:
                    break  # chain broke; no further requirement
                v = t_i[w]
                if fix_p1[v]:
                    acc_c.fail(
                        (g.labels[x], g.labels[v]),
                        f"index {i}: alternating chain re-enters the fixed "
                        f"set of involution {i + 1}",
                    )
                    break
                if v == u:
                    break
    return report


def verify_shifted(g: DEGround, literal_peak_window=False) -> VerificationReport:
    """Check the peak-kind axioms: (i) fixed iff no peak at i or i+1,
    (ii) peak transport i -> i+1 with far peaks untouched, (iii) commutation
    at distance >= 4, (iv) every class restricted to a window of 2-5
    consecutive involutions has a unit Schur-P generating function."""
    if g.stat_kind != PEAK:
        raise ValueError("shifted axioms apply to peak-kind grounds")
    report = VerificationReport("shifted", g.desc, {})
    masks = _stat_masks(g)
    _check_fixed_law(g, report, masks, lambda m, i: not m >> i & 3)
    _check_peak_transport(g, report, masks)
    _check_commutation(g, report, 4)
    _check_unit_windows(g, report, masks, 4, literal_peak_window)
    return report


def relabel_peak_minus_one(g: DEGround) -> DEGround:
    """View a peak-kind ground as a descent-kind ground of degree n-1 whose
    statistic is the peak set shifted down by one.  Involution indices are
    unchanged (both ranges are 2..n-2)."""
    if g.stat_kind != PEAK:
        raise ValueError("expected a peak-kind ground")
    down = {s: frozenset(p - 1 for p in s) for s in set(g.stats)}
    stats, desc = tuple(down[s] for s in g.stats), f"{g.desc} as Peak-1"
    return DEGround(DES, g.n - 1, g.labels, stats, dict(g.invs), desc).validate()


def subground(g: DEGround, members) -> DEGround:
    """Restrict a ground to a whole class: members must be closed under all
    its involutions."""
    members = tuple(sorted(members))
    pos = {x: k for k, x in enumerate(members)}
    stats = tuple(g.stats[x] for x in members)
    invs = {k: tuple(pos[g.invs[k][x]] for x in members) for k in g.index_range()}
    labels = tuple(g.labels[x] for x in members)
    desc = f"{g.desc}|{labels[0] if members else ''}"
    return DEGround(g.stat_kind, g.n, labels, stats, invs, desc).validate()


def _class_code(members, tables, label):
    """The canonical code of a class and the walk that produced it.

    A class is a graph on members with one edge colour per table and the
    label label[x] on each vertex x.  From each root of the rarest label
    (least (count, label)) a breadth-first walk takes the tables in order
    and numbers the vertices as found; its code lists per vertex, in that
    order, (label, its neighbours' numbers).  The code is the least over
    the roots.  An isomorphism is fixed by the image of one vertex, so two
    connected classes are isomorphic exactly when their codes are equal,
    and their walks align into the isomorphism.  (None, None) when members
    is not connected under the tables."""
    counts = Counter(label[x] for x in members)
    rare = min(counts, key=lambda lab: (counts[lab], lab))
    best = None, None
    for root in (x for x in members if label[x] == rare):
        number, walk, code = {root: 0}, [root], []
        for x in walk:  # the walk appends to the list it reads
            neighbours = []
            for table in tables:
                y = table[x]
                if y not in number:
                    number[y] = len(walk)
                    walk.append(y)
                neighbours.append(number[y])
            code.append((label[x], tuple(neighbours)))
        code = tuple(code)
        if len(walk) < len(members):
            return None, None
        if best[0] is None or code < best[0]:
            best = code, walk
    return best


def find_isomorphism(g1: DEGround, g2: DEGround):
    """A statistic-preserving bijection commuting with all the involutions,
    as {position in g1: position in g2}, or None.  The classes of the two
    grounds are matched by _class_code and the matched walks aligned."""
    if (g1.stat_kind, g1.n, g1.size) != (g2.stat_kind, g2.n, g2.size):
        return None
    coded = []
    for g in (g1, g2):
        tables, masks = [g.invs[i] for i in g.index_range()], _stat_masks(g)
        coded.append([_class_code(comp, tables, masks) for comp in classes(g)])
    unmatched = defaultdict(list)
    for code, walk in coded[1]:
        unmatched[code].append(walk)
    iso = {}
    for code, walk in coded[0]:
        if not unmatched[code]:
            return None
        iso.update(zip(walk, unmatched[code].pop()))
    return iso


@dataclass
class ClassClassification:
    shape: tuple
    mapping: dict  # label in the class -> label in (shsyt, shape, b)


@dataclass
class ClassificationFailure:
    reason: str
    detail: object


# One target ground per shape for the life of the process.  Sharing is safe
# because nothing in this module mutates a ground: subground and
# relabel_peak_minus_one build new ones, everything else only reads.
@lru_cache(maxsize=None)
def _shifted_target(shape) -> DEGround:
    """The standard shifted ground (shsyt, shape, b)."""
    return build_ground(("shsyt", shape, "b"))


@lru_cache(maxsize=None)
def _target_code(shape):
    """_class_code of the whole of _shifted_target(shape), labelled by the
    statistic masks: (None, None) for a target that is not connected."""
    target = _shifted_target(shape)
    tables = [target.invs[i] for i in target.index_range()]
    return _class_code(range(target.size), tables, _stat_masks(target))


def classify_shifted_class(g: DEGround, members):
    """Identify a class of a peak-kind ground: its generating function must
    expand to a unit Schur-P vector, and the class must be isomorphic to the
    standard shifted ground of that shape (equal _class_code); the mapping
    aligns the two walks.  Either failure is reported."""
    if g.stat_kind != PEAK:
        raise ValueError("classification applies to peak-kind grounds")
    expansion = expand_in_P(class_genfn(g, members))
    if not isinstance(expansion, PExpansion):
        return ClassificationFailure(
            "generating function is not in the Schur-P span",
            f"witness {sorted(expansion.witness)}",
        )
    shape = expansion.unit_shape()
    if shape is None:
        return ClassificationFailure(
            "generating function is not a unit Schur-P vector",
            ", ".join(expansion.render()),
        )
    tables = [g.invs[i] for i in g.index_range()]
    code, walk = _class_code(members, tables, {x: _mask(g.stats[x]) for x in members})
    target_code, target_walk = _target_code(shape)
    if code is None or code != target_code:
        return ClassificationFailure(
            f"class is not isomorphic to the standard shifted ground of "
            f"shape {partition_str(shape)}",
            shape,
        )
    labels = _shifted_target(shape).labels
    mapping = {g.labels[x]: labels[y] for x, y in zip(walk, target_walk)}
    return ClassClassification(shape, mapping)


def lemma_axiom4_check(g: DEGround, include_vi=True) -> VerificationReport:
    """Diagnostic check on a peak-kind ground.

    (v): every class restricted to a window of 2-4 consecutive involutions is
    isomorphic to a standard shifted ground (shsyt, lambda, b).

    (vi) [experimental]: objects in different classes under the involutions
    2..i have nonisomorphic windows (i-4, i).

    Both compare the _class_code of each window class, labelled by the
    restricted statistics, with a target's code or with each other."""
    if g.stat_kind != PEAK:
        raise ValueError("this check applies to peak-kind grounds")
    report = VerificationReport("lemma-axiom4", g.desc, {})
    R = list(g.index_range())
    masks = _stat_masks(g)

    @cache
    def unit_shape(vector):
        expansion = expand_in_P(_vector_genfn(g, vector))
        return expansion.unit_shape() if isinstance(expansion, PExpansion) else None

    acc_v = _Acc(report, "v")
    windows = [(j, i) for j in R for i in R if 1 <= i - j <= 3]
    for (j, i), comps, _, vectors, r in _window_classes(g, windows, masks):
        tables = [g.invs[k] for k in range(j, i + 1)]
        for comp, vector in zip(comps, vectors):
            shape = unit_shape(vector)
            if shape is None:
                acc_v.fail(
                    (g.labels[comp[0]],),
                    f"window {_window_label(j, i)}: generating function is "
                    "not a unit Schur-P vector",
                )
            elif _class_code(comp, tables, r)[0] != _target_code(shape)[0]:
                acc_v.fail(
                    (g.labels[comp[0]],),
                    f"window {_window_label(j, i)}: not isomorphic to "
                    f"(shsyt,{partition_str(shape)},b)",
                )

    if include_vi:
        acc_vi = _Acc(report, "vi")
        windows = [(i - 4, i) for i in R if i - 4 >= 2]
        if not windows:
            report.notes["vi"] = "vacuous: no window (i-4, i) fits the index range"
        for (j, i), comps, _, _, r in _window_classes(g, windows, masks):
            _, big_id = _components(g.size, [g.invs[k] for k in range(2, i + 1)])
            tables = [g.invs[k] for k in range(j, i + 1)]
            same = defaultdict(list)  # code -> its classes, in order
            groups = [same[_class_code(comp, tables, r)[0]] for comp in comps]
            for a, group in enumerate(groups):
                group.append(a)
            for a, group in enumerate(groups):  # pairs in (a, bb) order
                for bb in group:
                    if bb > a and big_id[comps[a][0]] != big_id[comps[bb][0]]:
                        acc_vi.fail(
                            (g.labels[comps[a][0]], g.labels[comps[bb][0]]),
                            f"windows {_window_label(j, i)}: isomorphic "
                            f"despite different classes under 2..{i}",
                        )
    return report


def parse_deg(src) -> DEGround:
    """Parse the .deg ground format.

    Line 1: "deg 1".  Line 2: "n <degree> stat <des|peak>".  Then any number
    of "vertex <id> { <comma-separated ints> }" lines followed by
    "edge <i> <id1> <id2>" lines.  Unpaired vertices are fixed points.
    Malformed or oversized input raises DegParseError with the offending line
    number.
    """
    text = src.read() if hasattr(src, "read") else src
    lines = text.splitlines()
    significant = [
        (no, ln.strip()) for no, ln in enumerate(lines, 1) if ln.strip()
    ]
    if not significant or significant[0][1] != "deg 1":
        no = significant[0][0] if significant else 1
        raise DegParseError(no, 'expected header "deg 1"')
    if len(significant) < 2:
        raise DegParseError(significant[0][0], "missing ground declaration")
    no2, decl = significant[1]
    parts = decl.split()
    if len(parts) != 4 or parts[0] != "n" or parts[2] != "stat":
        raise DegParseError(no2, 'expected "n <degree> stat <des|peak>"')
    try:
        n = int(parts[1])
    except ValueError:
        raise DegParseError(no2, f"bad degree {parts[1]!r}") from None
    if n < 0:
        raise DegParseError(no2, "degree must be nonnegative")
    if n > DEG_MAX_DEGREE:
        raise DegParseError(no2, f"degree {n} is above the limit {DEG_MAX_DEGREE}")
    stat_kind = parts[3]
    if stat_kind not in (DES, PEAK):
        raise DegParseError(no2, f"unknown stat kind {stat_kind!r}")

    labels = []
    stats, interned = [], {}  # one shared frozenset per distinct statistic
    position = {}
    pairings = defaultdict(dict)  # index -> {position: (partner, line_no)}
    indices = _index_range(stat_kind, n)
    for no, line in significant[2:]:
        if line.startswith("vertex"):
            if len(labels) == MAX_GROUND_OBJECTS:
                raise DegParseError(no, f"more than {MAX_GROUND_OBJECTS} vertices")
            head, brace, rest = line.partition("{")
            if not brace or not rest.rstrip().endswith("}"):
                raise DegParseError(no, "vertex line needs a { ... } statistic")
            head_parts = head.split()
            if len(head_parts) != 2:
                raise DegParseError(no, 'expected "vertex <id> { ... }"')
            vid = head_parts[1]
            if vid in position:
                raise DegParseError(no, f"duplicate vertex id {vid!r}")
            tail = rest.rstrip()
            if "}" in tail[:-1] or "{" in tail:
                raise DegParseError(no, "vertex line needs a single { ... } statistic")
            body = tail[:-1].strip()
            try:
                members = (
                    frozenset(int(t) for t in body.split(",")) if body else frozenset()
                )
            except ValueError:
                raise DegParseError(no, f"bad statistic {{{body}}}") from None
            if stat_kind == DES:
                if any(not 1 <= x <= n - 1 for x in members):
                    raise DegParseError(
                        no, f"descent set {sorted(members)} out of range for degree {n}"
                    )
            elif not is_peak_set(members, n):
                raise DegParseError(
                    no, f"{sorted(members)} is not a peak set of degree {n}"
                )
            position[vid] = len(labels)
            labels.append(vid)
            stats.append(interned.setdefault(members, members))
        elif line.startswith("edge"):
            parts = line.split()
            if len(parts) != 4:
                raise DegParseError(no, 'expected "edge <i> <id1> <id2>"')
            try:
                idx = int(parts[1])
            except ValueError:
                raise DegParseError(no, f"bad involution index {parts[1]!r}") from None
            if idx not in indices:
                raise DegParseError(
                    no,
                    f"involution index {idx} outside {indices.start}.."
                    f"{indices.stop - 1} for a "
                    f"{stat_kind} ground of degree {n}",
                )
            for vid in parts[2:4]:
                if vid not in position:
                    raise DegParseError(no, f"unknown vertex id {vid!r}")
            a, bb = position[parts[2]], position[parts[3]]
            for v in {a, bb}:
                if v in pairings[idx]:
                    raise DegParseError(
                        no,
                        f"vertex {labels[v]!r} appears twice for involution "
                        f"{idx}: edges do not form an involution",
                    )
            pairings[idx][a] = bb
            pairings[idx][bb] = a
        else:
            raise DegParseError(no, f"unrecognised line: {line!r}")

    invs = {}
    for idx in indices:
        table = list(range(len(labels)))
        for x, y in pairings.get(idx, {}).items():
            table[x] = y
        invs[idx] = tuple(table)
    ground = DEGround(stat_kind, n, tuple(labels), tuple(stats), invs, "file ground")
    try:
        ground.validate()
    except ValueError as exc:
        raise DegParseError(no2, str(exc)) from None
    return ground
