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
Every windowed condition (strong and shifted iv, weak iv-a and iv-b, lemma
v) reads one pass of _window_classes: window by window, the classes under
the window's involutions and each class's generating function of the
statistics restricted to the window.  _window is the one place that knows a
window's degree and restriction.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import permutations, product

from .core import (
    InternalInvariantError,
    is_peak_set,
    partition_str,
    peak_of,
    restrict_descents,
    restrict_peaks,
)
from .involutions import b, d, phi, psi
from .qsym import (
    PExpansion,
    QSymF,
    QSymG,
    SchurExpansion,
    expand_in_P,
    expand_in_schur,
)
from .tableaux import (
    descent_set_word,
    enumerate_shsyt,
    enumerate_signed_standard,
    enumerate_syt,
    reading_word,
    word_str,
)

DES = "des"
PEAK = "peak"

_WITNESS_CAP = 8


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
        for s in self.stats:
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


def _materialize(stat_kind, n, words, labels, stats, apply_inv, desc):
    """Tabulate the involutions over the words.  The lookup of each image is
    the validity check: an image that is not one of the words is not in the
    ground, and raises InternalInvariantError."""
    index_of = {w: k for k, w in enumerate(words)}
    invs = {}
    for i in _index_range(stat_kind, n):
        table = tuple(index_of.get(apply_inv(i, w)) for w in words)
        if None in table:
            raise InternalInvariantError(
                f"involution {i} of {desc} sends {labels[table.index(None)]} "
                "outside the ground"
            )
        invs[i] = table
    return DEGround(stat_kind, n, tuple(labels), tuple(stats), invs, desc).validate()


# (ground, family) -> (stat kind, the valid words of the parameter, the
# involution on words for the parameter).  The parameter is n for the
# permutation grounds and a shape for the tableau grounds, whose words are
# the reading words of the enumerated tableaux.  The lambdas look the
# functions up when a ground is built, so a wrapper installed on a module
# name (bench/tracer.py) sees every call.
BUILTIN_GROUNDS = {
    ("perm", "d"): (DES, lambda n: list(permutations(range(1, n + 1))), lambda n: d),
    ("perm", "b"): (PEAK, lambda n: list(permutations(range(1, n + 1))), lambda n: b),
    ("signedperm", "phi"): (
        DES,
        lambda n: [
            signed
            for w in permutations(range(1, n + 1))
            for signed in product(*((v, -v) for v in w))
        ],
        lambda n: phi,
    ),
    ("syt", "d"): (
        DES,
        lambda shape: [reading_word(T) for T in enumerate_syt(shape)],
        lambda shape: d,
    ),
    ("shsyt", "b"): (
        PEAK,
        lambda shape: [reading_word(T) for T in enumerate_shsyt(shape)],
        lambda shape: b,
    ),
    ("signed-shsyt", "psi"): (
        DES,
        lambda shape: [
            reading_word(T) for T in enumerate_signed_standard(shape, False)
        ],
        lambda shape: partial(psi, shape=shape),
    ),
}


def build_ground(desc) -> DEGround:
    """Build a builtin ground from a descriptor (ground, parameter, family)
    such as ("perm", 4, "d") or ("shsyt", (4, 2), "b"); BUILTIN_GROUNDS
    lists the pairs."""
    kind, param, family = desc
    if (kind, family) not in BUILTIN_GROUNDS:
        raise ValueError(f"unknown ground descriptor {desc!r}")
    stat_kind, valid_words, involution = BUILTIN_GROUNDS[kind, family]
    n = param if isinstance(param, int) else sum(param)
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    words = valid_words(param)
    stats = [descent_set_word(w) for w in words]
    if stat_kind == PEAK:
        stats = [peak_of(D) for D in stats]
    return _materialize(
        stat_kind, n, words, [word_str(w) for w in words], stats,
        involution(param), f"({kind},{param},{family})",
    )


def _components(size, tables):
    """Connected components under the given lookup tables.

    Returns (components, comp_id): components are tuples of object positions
    sorted ascending, listed by smallest member; comp_id maps positions to
    their component's index in that list.
    """
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for table in tables:
        for x, y in enumerate(table):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx
    groups = defaultdict(list)
    for x in range(size):
        groups[find(x)].append(x)
    comps = sorted((tuple(members) for members in groups.values()), key=lambda c: c[0])
    comp_id = [0] * size
    for idx, comp in enumerate(comps):
        for x in comp:
            comp_id[x] = idx
    return comps, comp_id


def classes(g: DEGround):
    """Equivalence classes under all involutions of the ground, as tuples of
    object positions, ordered by smallest member."""
    comps, _ = _components(g.size, list(g.invs.values()))
    return comps


def restricted_class(g: DEGround, t: int, j: int, i: int):
    """The class of object t under the involutions j..i only."""
    if j > i:
        raise ValueError(f"empty window ({j},{i})")
    for k in (j, i):
        if k not in g.invs:
            raise ValueError(f"index {k} outside the involution range")
    seen = {t}
    stack = [t]
    while stack:
        x = stack.pop()
        for k in range(j, i + 1):
            y = g.invs[k][x]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return tuple(sorted(seen))


def _window(g: DEGround, j, i, literal=False):
    """The degree of the window (j, i) of g and the function that restricts
    a statistic of g to it."""
    if g.stat_kind == DES:
        return i - j + 3, partial(restrict_descents, j=j, i=i, n=g.n)
    return i - j + 4, partial(restrict_peaks, j=j, i=i, n=g.n, literal=literal)


def _genfn(stat_kind, degree, stats):
    """QSymF of a class's Counter of descent sets, or QSymG of its Counter of
    peak sets.

    Peak statistics carry multiplicities: a member with peak set P counts
    2^(|P| - m) times, where m is the smallest peak count in the class.  For
    the full ground of a shape this matches the Schur-P convention, where
    m = (number of rows) - 1.
    """
    if stat_kind == DES:
        return QSymF(degree, stats)
    m = min(map(len, stats))
    return QSymG(degree, {P: c * 2 ** (len(P) - m) for P, c in stats.items()})


def class_genfn(g: DEGround, members, window=None, literal=False):
    """Generating function of a class: QSymF for descent-kind grounds, QSymG
    for peak-kind.  With window=(j, i) the statistics are restricted first."""
    stats = [g.stats[x] for x in members]
    degree = g.n
    if window is not None:
        degree, restrict = _window(g, *window, literal)
        stats = map(restrict, stats)
    return _genfn(g.stat_kind, degree, Counter(stats))


def _window_classes(g: DEGround, windows, literal=False):
    """One pass over the windows (j, i), in the order given.

    For each window yields ((j, i), comps, comp_id, genfns): the classes
    under the involutions j..i as _components lists them, each object's
    class index, and each class's generating function of the statistics
    restricted to the window.  Each distinct statistic is restricted once per
    window, classes with the same multiset of restricted statistics share one
    generating function, and only one window is held at a time.
    """
    distinct = set(g.stats)
    for j, i in windows:
        comps, comp_id = _components(g.size, [g.invs[k] for k in range(j, i + 1)])
        degree, restrict = _window(g, j, i, literal)
        restricted = {s: restrict(s) for s in distinct}
        shared = {}
        genfns = []
        for comp in comps:
            stats = Counter([restricted[g.stats[x]] for x in comp])
            key = frozenset(stats.items())
            if key not in shared:
                shared[key] = _genfn(g.stat_kind, degree, stats)
            genfns.append(shared[key])
        yield (j, i), comps, comp_id, genfns


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
    return {i: tuple(t[x] == x for x, _ in enumerate(t)) for i, t in g.invs.items()}


def _check_fixed_law(g, report, law):
    acc = _Acc(report, "i")
    for i in g.index_range():
        table = g.invs[i]
        for x in range(g.size):
            if (table[x] == x) != law(g.stats[x], i):
                acc.fail((g.labels[x],), f"fixed-point law fails at index {i}")


def _check_descent_transport(g, report, fix):
    """Descent-kind condition (ii): positions i-1, i flip; i-2 / i+1 may flip
    only when the neighbouring involution does not fix the object; everything
    else is preserved."""
    acc = _Acc(report, "ii")
    for i in g.index_range():
        table = g.invs[i]
        for x in range(g.size):
            y = table[x]
            if y == x:
                continue
            diff = g.stats[x] ^ g.stats[y]
            if i - 1 not in diff or i not in diff:
                acc.fail(
                    (g.labels[x], g.labels[y]),
                    f"index {i}: positions {i - 1},{i} must both flip",
                )
                continue
            for h in diff:
                if h in (i - 1, i):
                    continue
                if h == i - 2 and not fix[i - 1][x]:
                    continue
                if h == i + 1 and not fix[i + 1][x]:
                    continue
                acc.fail(
                    (g.labels[x], g.labels[y]),
                    f"index {i}: position {h} changed illegally",
                )
                break


def _check_peak_transport(g, report):
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
        for x in range(g.size):
            y = table[x]
            if y == x:
                continue
            if (i in g.stats[x]) != (i + 1 in g.stats[y]):
                acc.fail(
                    (g.labels[x], g.labels[y]),
                    f"index {i}: peak at {i} not transported to {i + 1}",
                )
                continue
            if any(h < i - 2 or h > i + 3 for h in g.stats[x] ^ g.stats[y]):
                acc.fail(
                    (g.labels[x], g.labels[y]),
                    f"index {i}: peak outside {{{i - 2}..{i + 3}}} changed",
                )


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


def _check_window_expansions(g, acc, window, comps, genfns, require):
    """Expand the generating function of each class of one window; require
    is "unit" (a single coefficient-1 term) or "positive"."""
    expander = expand_in_schur if g.stat_kind == DES else expand_in_P
    wanted = SchurExpansion if g.stat_kind == DES else PExpansion
    where = f"window {_window_label(*window)}"
    for comp, genfn in zip(comps, genfns):
        expansion = expander(genfn)
        if not isinstance(expansion, wanted):
            acc.fail(
                (g.labels[comp[0]],),
                f"{where}: expansion failed with witness {sorted(expansion.witness)}",
            )
        elif require == "unit":
            if expansion.unit_shape() is None:
                acc.fail(
                    (g.labels[comp[0]],),
                    f"{where}: not a unit vector: " + ", ".join(expansion.render()),
                )
        elif not expansion.is_nonnegative_integral():
            acc.fail(
                (g.labels[comp[0]],),
                f"{where}: negative coefficient: " + ", ".join(expansion.render()),
            )


def _check_unit_windows(g, report, max_span, literal=False):
    """Condition (iv) of the strong and shifted systems: every class of every
    window of 2..max_span+1 consecutive involutions has a unit expansion."""
    acc = _Acc(report, "iv")
    R = list(g.index_range())
    windows = [(j, i) for j in R for i in R if 1 <= i - j <= max_span]
    for window, comps, _, genfns in _window_classes(g, windows, literal):
        _check_window_expansions(g, acc, window, comps, genfns, "unit")


def verify_strong(g: DEGround) -> VerificationReport:
    """Check the descent-kind strong axioms: (i) fixed-point law, (ii) descent
    transport, (iii) commutation at distance >= 3, (iv) every class restricted
    to a window of 2-4 consecutive involutions has a single-Schur generating
    function."""
    if g.stat_kind != DES:
        raise ValueError("strong axioms apply to descent-kind grounds")
    report = VerificationReport("strong", g.desc, {})
    fix = _fix_tables(g)
    _check_fixed_law(g, report, lambda s, i: (i - 1 in s) == (i in s))
    _check_descent_transport(g, report, fix)
    _check_commutation(g, report, 3)
    _check_unit_windows(g, report, 3)
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
    fix = _fix_tables(g)
    _check_fixed_law(g, report, lambda s, i: (i - 1 in s) == (i in s))
    _check_descent_transport(g, report, fix)
    _check_commutation(g, report, 3)
    R = list(g.index_range())

    # The windows (i-1, i) in order.  A class's generating function on a
    # window of two involutions is the Counter of its restricted descent
    # sets at degree 4, so equal QSymF's are equal multisets: (iv-a)'s
    # multiset clause compares x's classes in the previous window (i-1, i)
    # and the current one (i, i+1).
    acc_a = _Acc(report, "iv-a")
    acc_m = _Acc(report, "iv-a-multisets")
    previous = None
    windows_a = [(i - 1, i) for i in R if i - 1 in g.invs]
    for window, comps, comp_id, genfns in _window_classes(g, windows_a):
        _check_window_expansions(g, acc_a, window, comps, genfns, "positive")
        if previous is not None:
            i = window[0]
            left_id, left = previous
            excluded = [
                fix[i - 1][x] or fix[i][x] or fix[i + 1][x] for x in range(g.size)
            ]
            table = g.invs[i]
            for x in range(g.size):
                if excluded[x] or excluded[table[x]]:
                    continue
                if left[left_id[x]] != genfns[comp_id[x]]:
                    acc_m.fail(
                        (g.labels[x],),
                        f"windows {_window_label(i - 1, i)} vs "
                        f"{_window_label(i, i + 1)}: "
                        "restricted statistic multisets differ",
                    )
        previous = comp_id, genfns

    acc_b = _Acc(report, "iv-b")
    windows_b = [(i - 2, i) for i in R if i - 2 in g.invs]
    for window, comps, _, genfns in _window_classes(g, windows_b):
        _check_window_expansions(g, acc_b, window, comps, genfns, "positive")

    acc_c = _Acc(report, "iv-b-chain")
    for i in R:
        if i - 2 not in g.invs or i + 1 not in g.invs:
            continue
        t_i, t_m2, fix_p1 = g.invs[i], g.invs[i - 2], fix[i + 1]
        for x in range(g.size):
            u = t_i[x]
            if u == x:
                # the pair (x, u) must be two genuine chain ends; a fixed
                # point of involution i has only one direction to walk and
                # the condition below would contradict its own trigger
                continue
            if fix_p1[x] or fix_p1[u]:
                continue
            if not fix_p1[t_i[t_m2[x]]]:
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
    _check_fixed_law(g, report, lambda s, i: i not in s and i + 1 not in s)
    _check_peak_transport(g, report)
    _check_commutation(g, report, 4)
    _check_unit_windows(g, report, 4, literal_peak_window)
    return report


def relabel_peak_minus_one(g: DEGround) -> DEGround:
    """View a peak-kind ground as a descent-kind ground of degree n-1 whose
    statistic is the peak set shifted down by one.  Involution indices are
    unchanged (both ranges are 2..n-2)."""
    if g.stat_kind != PEAK:
        raise ValueError("expected a peak-kind ground")
    return DEGround(
        DES,
        g.n - 1,
        g.labels,
        tuple(frozenset(p - 1 for p in s) for s in g.stats),
        dict(g.invs),
        f"{g.desc} as Peak-1",
    ).validate()


def subground(g: DEGround, members, window=None, literal=False) -> DEGround:
    """Restrict a ground to a class.  members must be closed under the
    relevant involutions.  With window=(j, i) the involutions are relabelled
    to 2..i-j+2 and the statistics restricted to the window."""
    members = tuple(sorted(members))
    pos = {x: k for k, x in enumerate(members)}
    stats = tuple(g.stats[x] for x in members)
    if window is None:
        indices = g.index_range()
        shift = 0
        degree = g.n
    else:
        j, i = window
        indices = range(j, i + 1)
        shift = j - 2
        degree, restrict = _window(g, j, i, literal)
        stats = tuple(map(restrict, stats))
    invs = {}
    for k in indices:
        table = g.invs[k]
        invs[k - shift] = tuple(pos[table[x]] for x in members)
    return DEGround(
        g.stat_kind,
        degree,
        tuple(g.labels[x] for x in members),
        stats,
        invs,
        f"{g.desc}|{g.labels[members[0]] if members else ''}",
    ).validate()


def find_isomorphisms(g1: DEGround, g2: DEGround):
    """Yield every statistic-preserving bijection commuting with all the
    involutions, as {position in g1: position in g2} dicts.  Yields nothing
    when the grounds are structurally incomparable."""
    if g1.stat_kind != g2.stat_kind or g1.n != g2.n or g1.size != g2.size:
        return
    if list(g1.index_range()) != list(g2.index_range()):
        return
    if sorted(map(sorted, g1.stats)) != sorted(map(sorted, g2.stats)):
        return
    R = list(g1.index_range())
    comps = classes(g1)
    by_stat = defaultdict(list)
    for idx, s in enumerate(g2.stats):
        by_stat[s].append(idx)

    def propagate(root, cand, used):
        if g1.stats[root] != g2.stats[cand] or cand in used:
            return None
        amap = {root: cand}
        image = {cand}
        stack = [root]
        while stack:
            u = stack.pop()
            v = amap[u]
            for i in R:
                uu, vv = g1.invs[i][u], g2.invs[i][v]
                if uu in amap:
                    if amap[uu] != vv:
                        return None
                    continue
                if vv in used or vv in image or g1.stats[uu] != g2.stats[vv]:
                    return None
                amap[uu] = vv
                image.add(vv)
                stack.append(uu)
        return amap

    def extend(ci, used, acc):
        if ci == len(comps):
            yield dict(acc)
            return
        root = comps[ci][0]
        for cand in by_stat[g1.stats[root]]:
            amap = propagate(root, cand, used)
            if amap is None:
                continue
            acc.update(amap)
            yield from extend(ci + 1, used | set(amap.values()), acc)
            for u in amap:
                del acc[u]

    yield from extend(0, frozenset(), {})


def find_isomorphism(g1: DEGround, g2: DEGround):
    """First isomorphism between the grounds, or None."""
    return next(find_isomorphisms(g1, g2), None)


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


def classify_shifted_class(g: DEGround, members):
    """Identify a class of a peak-kind ground: its generating function must
    expand to a unit Schur-P vector, and the class must be isomorphic to the
    standard shifted ground of that shape.  Either failure is reported."""
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
    sub = subground(g, members)
    target = _shifted_target(shape)
    iso = find_isomorphism(sub, target)
    if iso is None:
        return ClassificationFailure(
            f"class is not isomorphic to the standard shifted ground of "
            f"shape {partition_str(shape)}",
            shape,
        )
    mapping = {sub.labels[a]: target.labels[bb] for a, bb in iso.items()}
    return ClassClassification(shape, mapping)


def lemma_axiom4_check(g: DEGround, include_vi=True) -> VerificationReport:
    """Diagnostic check on a peak-kind ground.

    (v): every class restricted to a window of 2-4 consecutive involutions is
    isomorphic to a standard shifted ground (shsyt, lambda, b).

    (vi) [experimental]: objects in different classes under the involutions
    2..i have nonisomorphic windows (i-4, i)."""
    if g.stat_kind != PEAK:
        raise ValueError("this check applies to peak-kind grounds")
    report = VerificationReport("lemma-axiom4", g.desc, {})
    R = list(g.index_range())

    acc_v = _Acc(report, "v")
    windows = [(j, i) for j in R for i in R if 1 <= i - j <= 3]
    for window, comps, _, genfns in _window_classes(g, windows):
        for comp, genfn in zip(comps, genfns):
            expansion = expand_in_P(genfn)
            shape = (
                expansion.unit_shape() if isinstance(expansion, PExpansion) else None
            )
            if shape is None:
                acc_v.fail(
                    (g.labels[comp[0]],),
                    f"window {_window_label(*window)}: generating function is "
                    "not a unit Schur-P vector",
                )
            elif find_isomorphism(
                subground(g, comp, window), _shifted_target(shape)
            ) is None:
                acc_v.fail(
                    (g.labels[comp[0]],),
                    f"window {_window_label(*window)}: not isomorphic to "
                    f"(shsyt,{partition_str(shape)},b)",
                )

    if include_vi:
        acc_vi = _Acc(report, "vi")
        applicable = [i for i in R if i - 4 >= 2]
        if not applicable:
            report.notes["vi"] = "vacuous: no window (i-4, i) fits the index range"
        for i in applicable:
            _, big_id = _components(g.size, [g.invs[k] for k in range(2, i + 1)])
            comps, _ = _components(g.size, [g.invs[k] for k in range(i - 4, i + 1)])
            subs = [subground(g, comp, (i - 4, i)) for comp in comps]
            for a in range(len(comps)):
                for bb in range(a + 1, len(comps)):
                    if big_id[comps[a][0]] == big_id[comps[bb][0]]:
                        continue
                    if find_isomorphism(subs[a], subs[bb]) is not None:
                        acc_vi.fail(
                            (g.labels[comps[a][0]], g.labels[comps[bb][0]]),
                            f"windows {_window_label(i - 4, i)}: isomorphic "
                            f"despite different classes under 2..{i}",
                        )
    return report


def parse_deg(src) -> DEGround:
    """Parse the .deg ground format.

    Line 1: "deg 1".  Line 2: "n <degree> stat <des|peak>".  Then any number
    of "vertex <id> { <comma-separated ints> }" lines followed by
    "edge <i> <id1> <id2>" lines.  Unpaired vertices are fixed points.
    Malformed input raises DegParseError with the offending line number.
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
    stat_kind = parts[3]
    if stat_kind not in (DES, PEAK):
        raise DegParseError(no2, f"unknown stat kind {stat_kind!r}")

    labels = []
    stats = []
    position = {}
    pairings = defaultdict(dict)  # index -> {position: (partner, line_no)}
    indices = _index_range(stat_kind, n)
    for no, line in significant[2:]:
        if line.startswith("vertex"):
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
            if not tail.endswith("}") or "}" in tail[:-1] or "{" in tail:
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
            stats.append(members)
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
