"""Verification engine for dual equivalence axiom systems.

A ground is a finite family of combinatorial objects carrying a subset
statistic (descent sets or peak sets) together with indexed involutions.
Builtin grounds cover permutations, signed permutations, standard tableaux,
standard shifted tableaux and signed standard shifted tableaux, one entry
each in BUILTIN_GROUNDS; arbitrary grounds can be read from .deg files.
Every builtin ground is a set of words: the tableau grounds are indexed by
reading words, the involutions act on the words, and an image that is not
an enumerated word is not a tableau of the shape.  A signed ground is its
unsigned words times their sign masks, and a build works per unsigned word:
it indexes the unsigned words and reads each involution from the table
of its family (involutions._table), no statement running, one entry per
signing of the letters the move reads.  It packs the unsigned
words into one array, drops the word list before it fills the tables and
the index after, and keeps the array as the ground's labels: a label is
signed and formatted from its word only when it is read.  The standard
shifted grounds that classes are matched against are built once per shape
and cached.

The verify_* functions check the axiom systems condition by condition and
return reports with witnesses; a failed condition is data, not an exception.
A failure names object positions, whose labels are read only for the first
_WITNESS_CAP of each condition, the witnesses the report keeps.
Each call takes the statistics as integer masks once.  Every windowed
condition (strong and shifted iv, weak iv-a and iv-b, lemma v and vi) reads
one pass of _window_classes: window by window, the classes under its
involutions, labelled by one walk through their tables, and each class's
restricted statistics.  Pass and readers drop a window's lists before the
next is made (iv-a keeps one previous window).  _window knows a window's
degree and restriction.  The pass is the only maker of a window's classes:
restricted_class reads one step of it, and class_genfn and subground take
whole classes.  Peak sets are weighted by qsym.G_of_peaks and qsym.expand
picks the basis; a window vector alone sets its generating function, so each
process expands each distinct one once, into the memo _EXPANSIONS.
Lemma (v) and (vi), classify_shifted_class and find_isomorphism decide
isomorphism of classes by comparing canonical codes (_class_code), flat
tuples of ints.  The three verifiers check each type of class, a code, once
(_by_type): one walk finds each class, and its code walks start from its
rarest labels only; the whole ground is checked when that fails, when no
type repeats, or when the first walk finds it connected, uncoded.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from collections.abc import Sequence
from functools import lru_cache, partial, wraps
from itertools import chain, compress, permutations
from math import factorial
from operator import add, eq, itemgetter, or_

from .core import (
    InternalInvariantError,
    _mask,
    _members,
    _Record,
    is_peak_set,
    partition_str,
    peak_of,
)
from .involutions import _b, _block, _d, _phi, _reading_columns, _swap, _table
from .qsym import ExpansionFailure, G_of_peaks, PExpansion, QSymF, expand, expand_in_P
from .tableaux import (
    _inverse,
    _sign_positions,
    _signed_descents,
    _standard_count,
    _standard_words,
    _unsigned_descents,
    word_str,
)

DES = "des"
PEAK = "peak"

_WITNESS_CAP = 8

# parse_deg refuses larger degrees: the degree alone sets the table count
DEG_MAX_DEGREE = 16
# the two line forms of a .deg file after its header: an id has no blanks or braces
_DEG_VERTEX = re.compile(r"vertex\s+([^\s{}]+)\s*\{\s*([^{}]*?)\s*\}")
_DEG_EDGE = re.compile(r"edge\s+(\S+)\s+(\S+)\s+(\S+)")


class DegParseError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class _WordLabels(Sequence):
    """The labels of a builtin ground, each made only when it is read: label
    k is word_str of unsigned word k >> f, packed n letters apiece in one
    array, with the letters at the positions signs(w)[b] negated for the
    bits b of k's low f bits.  positions maps a label's index to k: a range
    over the ground, or the positions a view (take) reads.  Read-only; equal
    to, and hashed as, the tuple of its labels."""

    __slots__ = ("_letters", "_n", "_f", "_signs", "_positions")

    def __init__(self, letters, n, f, signs, positions):
        self._letters, self._n, self._f = letters, n, f
        self._signs, self._positions = signs, positions

    def __len__(self):
        return len(self._positions)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self._label, self._positions[k]))
        return self._label(self._positions[k])  # a negative k counts from the end

    def _label(self, k):
        n, f = self._n, self._f
        word = list(self._letters[(k >> f) * n : ((k >> f) + 1) * n])
        if f:
            for b, p in enumerate(self._signs(word)):
                if k >> b & 1:
                    word[p] = -word[p]
        return word_str(word)

    def take(self, positions):
        """The labels at positions, in that order: a view that copies no
        letters."""
        at = self._positions.__getitem__
        return _WordLabels(self._letters, self._n, self._f, self._signs, tuple(map(at, positions)))

    def __eq__(self, other):
        if isinstance(other, (tuple, _WordLabels)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))


class _Statistics(dict):
    """Descent mask -> the statistic of a ground of stat_kind with that
    mask, made at its first lookup: one shared frozenset per statistic."""

    def __init__(self, stat_kind):
        super().__init__()
        self.peaks, self.shared = stat_kind == PEAK, {}

    def __missing__(self, mask):
        stat = peak_of(_members(mask)) if self.peaks else _members(mask)
        stat = self[mask] = self.shared.setdefault(stat, stat)
        return stat


class DEGround(_Record, frozen=True):
    """Objects with a subset statistic and indexed involutions.

    labels are the stable external ids, a tuple of strings for a file ground
    or a subground and a _WordLabels for a builtin ground; stats[k] is the
    statistic of object k; invs maps each index i of the family to a lookup
    table (tuple of object positions).  Descent-kind grounds of degree n
    have indices 2..n-1, peak-kind grounds 2..n-2.
    """

    __slots__ = _fields = ("stat_kind", "n", "labels", "stats", "invs", "desc")
    _defaults = {"desc": str}

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
        # _materialize refuses a repeated word, so no set of word labels is made
        if not isinstance(self.labels, _WordLabels) and len(set(self.labels)) != self.size:
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
        identity = range(self.size)  # compared as it streams: no list of ints is made
        for i, table in self.invs.items():
            if len(table) != self.size:
                raise ValueError(f"involution {i} has wrong size")
            if not all(map(eq, map(table.__getitem__, table), identity)):
                x = next(x for x, y in enumerate(table) if table[y] != x)
                raise ValueError(f"involution {i} is not an involution at {self.labels[x]}")
        return self


def _index_range(stat_kind, n):
    """Involution indices of a ground: 2..n-1 for descent-kind grounds of
    degree n, 2..n-2 for peak-kind ones."""
    return range(2, n if stat_kind == DES else n - 1)


def _spread(key, span, by_bits):
    """For a block whose letters have the sign bits key (0 where no sign
    reaches): sums[u], the signing that primes the letters u (bit j for
    letter j), None when one of them has no bit; the (u, sums[u]) of each
    signing, by signing; and per s < span, the place of s & W among them
    and s & ~W, W the block's bits, shared through by_bits by every key of
    those bits."""
    sums = [0]
    for bit in key:
        sums += [None if t is None or not bit else t + bit for t in sums]
    signings = sorted(((u, t) for u, t in enumerate(sums) if t is not None), key=itemgetter(1))
    W = sum(key)
    if W not in by_bits:
        place = {t: j for j, (_, t) in enumerate(signings)}
        by_bits[W] = [place[s & W] for s in range(span)], [s & ~W for s in range(span)]
    return (sums, signings, *by_bits[W])


def _materialize(stat_kind, n, words, block, desc, signs=None):
    """Tabulate a ground from its unsigned words.  With signs None the
    objects are the words; else object k * 2^f + s is word k with the
    letters at the positions signs(w)[b] negated for the bits b of s, f =
    len(signs(w)) being the same for every word.  Per unsigned word: one
    inverse pos and one unsigned descent mask, each variant's mask following
    by _signed_descents, and one shared frozenset per distinct statistic,
    made once per distinct mask.  No statement runs: block(pos, i) is the
    positions p of the letters an index-i move reads and the row of its
    family's table for their order (involutions._block on _table), per
    signing u of those letters (swap, primes).  Per word and index the
    fill reads one entry per signing t of the letters at p (the bits W of
    s) and looks the unsigned image up once per distinct swap; the image's
    sign bits at p give its primes.  Variant s goes where variant s & W
    goes, its other signs kept, to img[s & W] + (s & ~W), the ints of one
    shared list.  An unsigned word is one object whose one signing t = 0
    reads entry 0, stored as it is found: through the signed fill an
    unsigned build took about twice as long.  An image outside the ground
    raises InternalInvariantError: an unknown unsigned word or a prime on a
    position signs leaves out.  The labels keep the unsigned words packed (one
    byte a letter below degree 128) and sign them when read.  A repeated
    word is refused."""
    from array import array  # loaded by the first build, not by the CLI's start

    index_of = dict(zip(words, range(len(words))))
    if len(index_of) != len(words):
        raise ValueError("duplicate labels")
    del words
    orders = list(map(signs, index_of)) if signs else ()
    f = len(orders[0]) if orders else 0
    bits = []  # per signed word, each position's sign bit or 0
    for order in orders:
        bits.append([0] * n)
        for b, p in enumerate(order):
            bits[-1][p] = 1 << b
    span, size = 1 << f, len(index_of) << f
    ints = list(range(size)) if f else None  # a signed ground's table entries
    code = "b" if n < 1 << 7 else "h" if n < 1 << 15 else "q"
    letters = array(code)
    labels = _WordLabels(letters, n, f, signs, range(size))
    rows = [(i, [None] * size) for i in _index_range(stat_kind, n)]
    stats, of_mask = [None] * size, _Statistics(stat_kind)
    spreads, by_bits, find = {}, {}, index_of.get  # a block's sign bits -> its _spread

    def spread(key):
        found = spreads[key] = _spread(key, span, by_bits)
        return found

    def outside(i, x):
        return InternalInvariantError(
            f"involution {i} of {desc} sends {labels[x]} outside the ground"
        )

    def swapped(i, w, p, swap, x):
        """The index of the unsigned image of word w, read for object x."""
        a, c = swap
        kk = find(_swap(w, p[a], p[c]))
        if kk is None:
            raise outside(i, x)
        return kk

    for w, k in index_of.items():
        pos = _inverse(w)
        unsigned = _unsigned_descents(pos)
        letters.extend(w)
        if not f:  # one object, whose one signing t = 0 reads entry 0
            stats[k] = of_mask[unsigned]
            for i, table in rows:
                p, row = block(pos, i)
                swap, primes = row[0]
                if primes:
                    raise outside(i, k)
                table[k] = swapped(i, w, p, swap, k) if swap else k
            continue
        base, at, primed = k << f, bits[k], [0]  # each variant's mask of negated values
        for p in orders[k]:
            value = 1 << w[p]
            primed += [m | value for m in primed]
        stats[base : base + span] = [of_mask[_signed_descents(unsigned, m, n)] for m in primed]
        held = tuple(map(at.__getitem__, pos[1:]))  # the sign bit of each value's letter
        for i, table in rows:
            p, row = block(pos, i)
            key = held[i - 2 : i - 2 + len(p)]
            sums, signings, low, rest = spreads.get(key) or spread(key)
            img, seen = [], {(): (base, sums)}  # swap -> the image's base and sums
            for u, t in signings:
                swap, primes = row[u]
                image = seen.get(swap)
                if image is None:
                    kk = swapped(i, w, p, swap, base + t)
                    key = tuple(map(bits[kk].__getitem__, p))
                    image = seen[swap] = kk << f, (spreads.get(key) or spread(key))[0]
                extra = image[1][primes]
                if extra is None:
                    raise outside(i, base + t)
                img.append(image[0] + extra)
            table[base : base + span] = map(
                ints.__getitem__, map(add, map(img.__getitem__, low), rest)
            )
    del index_of, find, orders, bits, ints
    invs = {}
    while rows:  # each list goes as its tuple is made
        i, table = rows.pop(0)
        invs[i] = tuple(table)
    return DEGround(stat_kind, n, labels, tuple(stats), invs, desc).validate()


def _tableau_words(strict):
    """The words of a tableau ground, the reading words of the standard
    tableaux of its shape, and their count, each given the shape."""
    return (lambda shape: _standard_words(shape, strict),
            lambda shape: _standard_count(shape, strict))


def _perms(n):
    return list(permutations(range(1, n + 1)))


# (ground, family) -> (stat kind, the unsigned words of the parameter, the
# number of objects, the block reader block(pos, i) of the family for the
# parameter, and for a signed ground w -> the positions of the word w its
# signs take, in sign-bit order, for the parameter; None for an unsigned
# one).  The parameter is n for the permutation grounds and a shape for the
# tableau grounds, whose words are the reading words of the enumerated
# tableaux: a signed standard shifted tableau primes cells off the diagonal.
BUILTIN_GROUNDS = {
    ("perm", "d"): (DES, _perms, factorial, lambda n: partial(_block, _table(_d, 3), 3), None),
    ("perm", "b"): (PEAK, _perms, factorial, lambda n: partial(_block, _table(_b, 4), 4), None),
    ("signedperm", "phi"): (
        DES,
        _perms,
        lambda n: factorial(n) << n,
        lambda n: partial(_block, _table(_phi, 3, True), 3),
        lambda n: lambda w: range(n - 1, -1, -1),  # the last letter's sign is bit 0
    ),
    ("syt", "d"): (
        DES, *_tableau_words(False), lambda shape: partial(_block, _table(_d, 3), 3), None
    ),
    ("shsyt", "b"): (
        PEAK, *_tableau_words(True), lambda shape: partial(_block, _table(_b, 4), 4), None
    ),
    ("signed-shsyt", "psi"): (
        DES,
        lambda shape: _standard_words(shape, True),
        lambda shape: _standard_count(shape, True, False),
        lambda shape: partial(_block, _table(_phi, 3, True), 3, col=_reading_columns(tuple(shape))),
        lambda shape: _sign_positions(tuple(shape), False),
    ),
}

# the most objects build_ground builds (ground_size) and parse_deg reads
MAX_GROUND_OBJECTS = 1_000_000


def ground_size(desc) -> int:
    """The number of objects of a builtin ground, counted without enumerating
    by the count its BUILTIN_GROUNDS entry keeps beside its words."""
    kind, param, family = desc
    if (kind, family) not in BUILTIN_GROUNDS:
        raise ValueError(f"unknown ground descriptor {desc!r}")
    n = param if isinstance(param, int) else sum(param)
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    return BUILTIN_GROUNDS[kind, family][2](param)


def _within_limit(what, size):
    """Refuse a request of size, an int, above MAX_GROUND_OBJECTS objects."""
    if size > MAX_GROUND_OBJECTS:
        raise ValueError(f"{what} has {size} objects, above the limit {MAX_GROUND_OBJECTS}")


def build_ground(desc) -> DEGround:
    """Build a builtin ground from a descriptor (ground, parameter, family)
    such as ("perm", 4, "d") or ("shsyt", (4, 2), "b"); BUILTIN_GROUNDS
    lists the pairs.  A ground of more than MAX_GROUND_OBJECTS objects is
    refused before any enumeration."""
    kind, param, family = desc
    _within_limit(f"ground {kind} {param}", ground_size(desc))
    stat_kind, words, _, involution, signs = BUILTIN_GROUNDS[kind, family]
    n = param if isinstance(param, int) else sum(param)
    return _materialize(
        stat_kind, n, words(param), involution(param), f"({kind},{param},{family})",
        signs and signs(param),
    )


def _walks(size, tables, comp_id):
    """Each class under the tables as the list of its members in the order
    a walk from its smallest one finds them, classes by smallest member;
    comp_id, -1 at every position, gets each member's class index.  The
    objects are taken in increasing order, and each one not yet labelled
    starts a class: a walk through every table labels its members."""
    idx = 0
    for start in range(size):
        if comp_id[start] >= 0:
            continue
        comp_id[start] = idx
        members = [start]
        for x in members:  # the walk appends to the list it reads
            for table in tables:
                y = table[x]
                if comp_id[y] < 0:
                    comp_id[y] = idx
                    members.append(y)
        yield members
        idx += 1


def _components(size, tables):
    """Connected components under the given involution tables.

    Returns (components, comp_id): components are tuples of object positions
    sorted ascending, listed by smallest member; comp_id maps positions to
    their component's index in that list (_walks).
    """
    comps, comp_id = [], [-1] * size
    for members in _walks(size, tables, comp_id):
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
    from _stat_masks.  A window's lists go before the next one's are made."""
    shared, distinct = {}, set(masks)
    for j, i in windows:
        degree, restrict = _window(g, j, i, literal)  # refuses a bad window first
        comps, comp_id = _components(g.size, [g.invs[k] for k in range(j, i + 1)])
        restricted = {m: restrict(m) for m in distinct}
        r = list(map(restricted.__getitem__, masks))
        vectors = ((degree, tuple(sorted(map(r.__getitem__, comp)))) for comp in comps)
        yield (j, i), comps, comp_id, [shared.setdefault(v, v) for v in vectors], r
        del comps, comp_id, r, vectors


def _vector_genfn(g: DEGround, vector):
    """The generating function of a window vector from _window_classes."""
    return _genfn(g.stat_kind, vector[0], Counter(map(_members, vector[1])))


# (stat kind, window vector) -> the vector's expansion, for the life of the
# process: every ground and verifier call reads the same memo
_EXPANSIONS = {}


def _window_expansion(g: DEGround, vector):
    """The expansion of a window vector of g, made once per process."""
    key = g.stat_kind, vector
    found = _EXPANSIONS.get(key)
    if found is None:
        found = _EXPANSIONS[key] = expand(_vector_genfn(g, vector))
    return found


class Witness(_Record):
    __slots__ = _fields = ("condition", "labels", "detail")


class VerificationReport(_Record):
    __slots__ = _fields = ("kind", "ground", "results", "witnesses", "counts", "notes")
    _defaults = {"witnesses": list, "counts": dict, "notes": dict}

    @property
    def passed(self) -> bool:
        return all(self.results.values())

    def witnesses_for(self, condition):
        return [w for w in self.witnesses if w.condition == condition]


class _Acc:
    """Per-condition pass/fail accumulator with capped witnesses: a failure
    names object positions, and their labels are read only for a witness
    that is kept."""

    def __init__(self, report: VerificationReport, condition: str, labels):
        self.report = report
        self.condition = condition
        self.labels = labels
        self.kept = 0
        report.results[condition] = True
        report.counts[condition] = 0

    def fail(self, positions, detail):
        self.report.results[self.condition] = False
        self.report.counts[self.condition] += 1
        if self.kept < _WITNESS_CAP:
            self.kept += 1
            labels = tuple(map(self.labels.__getitem__, positions))
            self.report.witnesses.append(Witness(self.condition, labels, detail))


def _fix_tables(g):
    return {i: bytes(map(eq, t, range(len(t)))) for i, t in g.invs.items()}


def _check_fixed_law(g, report, fix, masks, law):
    """Condition (i): an object is fixed by involution i iff law(mask, i)
    holds of its statistic mask.  Per index, the fixed-point table fix[i]
    is compared whole with the law's; the objects are walked only when the
    two differ."""
    acc = _Acc(report, "i", g.labels)
    distinct = set(masks)
    for i in g.index_range():
        fixed = {m for m in distinct if law(m, i)}
        lawful = bytes(map(fixed.__contains__, masks))
        if lawful != fix[i]:
            for x, (f, ok) in enumerate(zip(fix[i], lawful)):
                if f != ok:
                    acc.fail((x,), f"fixed-point law fails at index {i}")
        del fixed, lawful


def _check_descent_transport(g, report, fix, masks):
    """Descent-kind condition (ii): positions i-1, i flip; i-2 / i+1 may flip
    only when the neighbouring involution does not fix the object; everything
    else is preserved.  A witness names the first illegal position in the
    statistics' frozenset difference, whose order is not always ascending."""
    acc = _Acc(report, "ii", g.labels)
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
            acc.fail((x, y), f"index {i}: {detail}")


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
    acc = _Acc(report, "ii", g.labels)
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
            acc.fail((x, y), f"index {i}: {detail}")


def _check_commutation(g, report, distance):
    acc = _Acc(report, "iii", g.labels)
    R = list(g.index_range())
    for a in R:
        for bb in R:
            if bb - a < distance:
                continue
            ta, tb = g.invs[a], g.invs[bb]
            for x in range(g.size):
                if ta[tb[x]] != tb[ta[x]]:
                    acc.fail((x,), f"involutions {a} and {bb} do not commute")
                    break


def _window_label(j, i):
    return f"({j},{i})"


def _expansion_detail(g, require, vector):
    """Why a window vector fails condition (iv), or None when it passes:
    require is "unit" (a single coefficient-1 term) or "positive"."""
    expansion = _window_expansion(g, vector)
    if isinstance(expansion, ExpansionFailure):
        return f"expansion failed with witness {sorted(expansion.witness)}"
    if require == "unit" and expansion.unit_shape() is None:
        return "not a unit vector: " + ", ".join(expansion.render())
    if not expansion.is_nonnegative_integral():  # unit vectors always are
        return "negative coefficient: " + ", ".join(expansion.render())


def _check_window_expansions(g, acc, window, comps, vectors, require):
    """Fail each window class whose vector has an _expansion_detail, read
    once per distinct vector of the window."""
    where = f"window {_window_label(*window)}"
    details = {v: _expansion_detail(g, require, v) for v in set(vectors)}
    for comp, detail in zip(comps, map(details.__getitem__, vectors)):
        if detail is not None:
            acc.fail((comp[0],), f"{where}: {detail}")


def _check_windows(g, acc, windows, masks, require, literal=False):
    """Expand each class of each window (j, i), in the order given, and fail
    those whose vector has an _expansion_detail: condition (iv) of the
    strong and shifted systems and (iv-b) of the weak one."""
    for window, comps, comp_id, vectors, r in _window_classes(g, windows, masks, literal):
        _check_window_expansions(g, acc, window, comps, vectors, require)
        del comps, comp_id, vectors, r


def _check_unit_windows(g, report, masks, max_span, literal=False):
    """Condition (iv) of the strong and shifted systems: every class of every
    window of 2..max_span+1 consecutive involutions has a unit expansion."""
    acc = _Acc(report, "iv", g.labels)
    R = list(g.index_range())
    windows = [(j, i) for j in R for i in R if 1 <= i - j <= max_span]
    _check_windows(g, acc, windows, masks, "unit", literal)


def _descent_axioms(g: DEGround, system):
    """The opening the descent-kind systems share: a report of the system,
    conditions (i) fixed-point law, (ii) descent transport and (iii)
    commutation at distance >= 3 checked into it, the fixed-point tables
    and the statistic masks."""
    if g.stat_kind != DES:
        raise ValueError(f"{system} axioms apply to descent-kind grounds")
    report = VerificationReport(system, g.desc, {})
    fix, masks = _fix_tables(g), _stat_masks(g)
    _check_fixed_law(g, report, fix, masks, lambda m, i: m >> (i - 1) & 3 in (0, 3))
    _check_descent_transport(g, report, fix, masks)
    _check_commutation(g, report, 3)
    return report, fix, masks


def _by_type(verify):
    """verify(g, ...) run once per type of class of g where it can be.

    Every condition reads one class at a time, and its verdict on a class
    depends only on the class as a graph: its statistic masks and its
    tables in index order, what _class_code codes.  So when two classes of
    g share a code, verify runs first on the subground of one class per
    code, which reports g's desc; its report stands when it passes.  Any
    other report is replaced by the whole ground's, whose witnesses and
    counts are g's own, as is a connected ground's or one whose classes
    all differ.  One walk per class finds it and is followed by its code
    walks; a connected ground's first walk finds the whole ground, and it
    is coded no further.  Codes go before the representatives are
    verified."""

    @wraps(verify)
    def by_type(g: DEGround, *args, **kwargs) -> VerificationReport:
        tables = [g.invs[i] for i in g.index_range()]
        walks = _walks(g.size, tables, [-1] * g.size)
        first, types, count = next(walks, ()), {}, 0  # code -> its first class
        if len(first) < g.size:
            masks, number = _stat_masks(g), [-1] * g.size
            for members in chain((first,), walks):
                types.setdefault(_class_code(members, tables, masks, number)[0], members)
                count += 1
            del masks, number
        members = sorted(chain.from_iterable(types.values())) if len(types) < count else None
        del tables, walks, first, types
        if members is not None:
            report = verify(subground(g, members, g.desc), *args, **kwargs)
            if report.passed:
                return report
        return verify(g, *args, **kwargs)

    return by_type


@_by_type
def verify_strong(g: DEGround) -> VerificationReport:
    """Check the descent-kind strong axioms: (i) fixed-point law, (ii) descent
    transport, (iii) commutation at distance >= 3, (iv) every class restricted
    to a window of 2-4 consecutive involutions has a single-Schur generating
    function."""
    report, _, masks = _descent_axioms(g, "strong")
    _check_unit_windows(g, report, masks, 3)
    return report


@_by_type
def verify_weak(g: DEGround) -> VerificationReport:
    """Check the descent-kind weak axioms: (i)-(iii) as in the strong system,
    then (iv-a) Schur positivity over two-involution windows plus equality of
    the restricted statistic multisets across overlapping windows, and (iv-b)
    Schur positivity over three-involution windows plus the fixed-point chain
    condition along alternating products."""
    report, fix, masks = _descent_axioms(g, "weak")
    R = list(g.index_range())

    # The windows (i-1, i) in order.  A window vector holds its class's
    # multiset of restricted descent sets, so (iv-a)'s multiset clause
    # compares x's vectors in the previous window (i-1, i) and this one.
    acc_a = _Acc(report, "iv-a", g.labels)
    acc_m = _Acc(report, "iv-a-multisets", g.labels)
    previous = None  # the one window kept past its step
    windows_a = [(i - 1, i) for i in R if i - 1 in g.invs]
    for window, comps, comp_id, vectors, r in _window_classes(g, windows_a, masks):
        _check_window_expansions(g, acc_a, window, comps, vectors, "positive")
        if previous is not None:
            i = window[0]
            left_id, left = previous
            excluded = bytes(map(or_, map(or_, fix[i - 1], fix[i]), fix[i + 1]))
            for x, (y, lk, k) in enumerate(zip(g.invs[i], left_id, comp_id)):
                if not (excluded[x] or excluded[y]) and left[lk] != vectors[k]:
                    acc_m.fail(
                        (x,),
                        f"windows {_window_label(i - 1, i)} vs "
                        f"{_window_label(i, i + 1)}: "
                        "restricted statistic multisets differ",
                    )
        previous = comp_id, vectors
        del comps, comp_id, vectors, r

    acc_b = _Acc(report, "iv-b", g.labels)
    _check_windows(g, acc_b, [(i - 2, i) for i in R if i - 2 in g.invs], masks, "positive")

    acc_c = _Acc(report, "iv-b-chain", g.labels)
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
                        (x, v),
                        f"index {i}: alternating chain re-enters the fixed "
                        f"set of involution {i + 1}",
                    )
                    break
                if v == u:
                    break
    return report


@_by_type
def verify_shifted(g: DEGround, literal_peak_window=False) -> VerificationReport:
    """Check the peak-kind axioms: (i) fixed iff no peak at i or i+1,
    (ii) peak transport i -> i+1 with far peaks untouched, (iii) commutation
    at distance >= 4, (iv) every class restricted to a window of 2-5
    consecutive involutions has a unit Schur-P generating function."""
    if g.stat_kind != PEAK:
        raise ValueError("shifted axioms apply to peak-kind grounds")
    report = VerificationReport("shifted", g.desc, {})
    fix, masks = _fix_tables(g), _stat_masks(g)
    _check_fixed_law(g, report, fix, masks, lambda m, i: not m >> i & 3)
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


def subground(g: DEGround, members, desc=None) -> DEGround:
    """Restrict a ground to a union of whole classes: members must be closed
    under all its involutions.  The restriction is named desc, by default
    g's desc and the label of its first member; a builtin ground's words
    stay packed, their labels read only for that default."""
    members = tuple(sorted(members))
    pos = {x: k for k, x in enumerate(members)}
    stats = tuple(g.stats[x] for x in members)
    invs = {k: tuple(pos[g.invs[k][x]] for x in members) for k in g.index_range()}
    if isinstance(g.labels, _WordLabels):
        labels = g.labels.take(members)
    else:
        labels = tuple(g.labels[x] for x in members)
    if desc is None:
        desc = f"{g.desc}|{labels[0] if members else ''}"
    return DEGround(g.stat_kind, g.n, labels, stats, invs, desc).validate()


def _class_code(members, tables, label, number=None):
    """The canonical code of a class and the walk that produced it.

    A class is a graph on members with one edge colour per table and the
    label label[x] on each vertex x.  From each root of the rarest label
    (least (count, label)) a breadth-first walk takes the tables in order
    and numbers the vertices as found; its code is a flat tuple of ints
    listing per vertex, in that order, its label and then its neighbours'
    numbers.  The code is the least over the roots.  An isomorphism is fixed
    by the image of one vertex, so two connected classes with as many tables
    are isomorphic exactly when their codes are equal, and their walks align
    into the isomorphism.  (None, None) when members is not connected under
    the tables.  number maps every position a walk can reach to -1, and
    each walk numbers into it and resets it: a list over the ground that a
    caller coding many classes passes to each, or by default a dict over
    members."""
    if number is None:
        number = dict.fromkeys(members, -1)
    labels = list(map(label.__getitem__, members))
    counts = Counter(labels)
    rare = min(zip(counts.values(), counts))[1]  # least (count, label)
    best = None, None
    for root in compress(members, map(rare.__eq__, labels)):
        number[root], walk, code = 0, [root], []
        for x in walk:  # the walk appends to the list it reads
            code.append(label[x])
            for table in tables:
                y = table[x]
                k = number[y]
                if k < 0:
                    k = number[y] = len(walk)
                    walk.append(y)
                code.append(k)
        for x in walk:
            number[x] = -1
        if len(walk) < len(members):
            return None, None
        code = tuple(code)
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
        number = [-1] * g.size
        coded.append([_class_code(comp, tables, masks, number) for comp in classes(g)])
    unmatched = defaultdict(list)
    for code, walk in coded[1]:
        unmatched[code].append(walk)
    iso = {}
    for code, walk in coded[0]:
        if not unmatched[code]:
            return None
        iso.update(zip(walk, unmatched[code].pop()))
    return iso


class ClassClassification(_Record):
    # mapping: label in the class -> label in (shsyt, shape, b)
    __slots__ = _fields = ("shape", "mapping")


class ClassificationFailure(_Record):
    __slots__ = _fields = ("reason", "detail")


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


def lemma_axiom4_check(g: DEGround) -> VerificationReport:
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
    masks, number = _stat_masks(g), [-1] * g.size  # one numbering for every code
    acc_v = _Acc(report, "v", g.labels)
    windows = [(j, i) for j in R for i in R if 1 <= i - j <= 3]
    for (j, i), comps, comp_id, vectors, r in _window_classes(g, windows, masks):
        tables = [g.invs[k] for k in range(j, i + 1)]
        for comp, vector in zip(comps, vectors):
            expansion = _window_expansion(g, vector)
            shape = expansion.unit_shape() if isinstance(expansion, PExpansion) else None
            if shape is None:
                acc_v.fail(
                    (comp[0],),
                    f"window {_window_label(j, i)}: generating function is "
                    "not a unit Schur-P vector",
                )
            elif _class_code(comp, tables, r, number)[0] != _target_code(shape)[0]:
                acc_v.fail(
                    (comp[0],),
                    f"window {_window_label(j, i)}: not isomorphic to "
                    f"(shsyt,{partition_str(shape)},b)",
                )
        del comps, comp_id, vectors, r

    acc_vi = _Acc(report, "vi", g.labels)
    windows = [(i - 4, i) for i in R if i - 4 >= 2]
    if not windows:
        report.notes["vi"] = "vacuous: no window (i-4, i) fits the index range"
    for (j, i), comps, comp_id, vectors, r in _window_classes(g, windows, masks):
        big_id = _components(g.size, [g.invs[k] for k in range(2, i + 1)])[1]
        tables = [g.invs[k] for k in range(j, i + 1)]
        same = defaultdict(list)  # code -> its classes, in order
        groups = [same[_class_code(comp, tables, r, number)[0]] for comp in comps]
        for a, group in enumerate(groups):
            group.append(a)
        for a, group in enumerate(groups):  # pairs in (a, bb) order
            for bb in group:
                if bb > a and big_id[comps[a][0]] != big_id[comps[bb][0]]:
                    acc_vi.fail(
                        (comps[a][0], comps[bb][0]),
                        f"windows {_window_label(j, i)}: isomorphic "
                        f"despite different classes under 2..{i}",
                    )
        del comps, comp_id, vectors, r, big_id
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
    significant = (  # one walk over the lines, blank ones skipped
        (no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()
    )
    no, header = next(significant, (1, None))
    if header != "deg 1":
        raise DegParseError(no, 'expected header "deg 1"')
    no2, decl = next(significant, (no, None))
    if decl is None:
        raise DegParseError(no, "missing ground declaration")
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

    labels, position = [], {}
    stats, interned = [], {}  # one shared frozenset per distinct statistic
    valid, invalid = {  # the statistic rule of the file's kind
        DES: (set(range(1, n)).issuperset, "descent set {} out of range for degree {}"),
        PEAK: (partial(is_peak_set, n=n), "{} is not a peak set of degree {}"),
    }[stat_kind]
    indices = _index_range(stat_kind, n)
    partners = {i: [] for i in indices}  # one entry per vertex, -1 while unpaired
    for no, line in significant:
        if line.startswith("vertex"):
            if len(labels) == MAX_GROUND_OBJECTS:
                raise DegParseError(no, f"more than {MAX_GROUND_OBJECTS} vertices")
            vertex = _DEG_VERTEX.fullmatch(line)
            if vertex is None:
                raise DegParseError(no, 'expected "vertex <id> { <ints> }"')
            vid, body = vertex.groups()
            if vid in position:
                raise DegParseError(no, f"duplicate vertex id {vid!r}")
            try:
                members = frozenset(map(int, body.split(","))) if body else frozenset()
            except ValueError:
                raise DegParseError(no, f"bad statistic {{{body}}}") from None
            if not valid(members):
                raise DegParseError(no, invalid.format(sorted(members), n))
            position[vid] = len(labels)
            labels.append(vid)
            stats.append(interned.setdefault(members, members))
            for table in partners.values():
                table.append(-1)
        elif line.startswith("edge"):
            edge = _DEG_EDGE.fullmatch(line)
            if edge is None:
                raise DegParseError(no, 'expected "edge <i> <id1> <id2>"')
            idx, *ends = edge.groups()
            try:
                idx = int(idx)
            except ValueError:
                raise DegParseError(no, f"bad involution index {idx!r}") from None
            if idx not in indices:
                raise DegParseError(
                    no,
                    f"involution index {idx} outside {indices.start}.."
                    f"{indices.stop - 1} for a {stat_kind} ground of degree {n}",
                )
            for vid in ends:
                if vid not in position:
                    raise DegParseError(no, f"unknown vertex id {vid!r}")
            a, bb = map(position.get, ends)
            table = partners[idx]
            for v in {a, bb}:
                if table[v] >= 0:
                    raise DegParseError(
                        no,
                        f"vertex {labels[v]!r} appears twice for involution "
                        f"{idx}: edges do not form an involution",
                    )
            table[a], table[bb] = bb, a
        else:
            raise DegParseError(no, f"unrecognised line: {line!r}")

    invs = {  # an unpaired vertex is a fixed point
        i: tuple(y if y >= 0 else x for x, y in enumerate(partners.pop(i))) for i in indices
    }
    # the line checks leave validate() nothing to refuse
    return DEGround(stat_kind, n, tuple(labels), tuple(stats), invs, "file ground").validate()
