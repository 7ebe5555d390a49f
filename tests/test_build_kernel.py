"""The build kernel against the code it replaced, and validate's errors.

engine._materialize takes one inverse and one descent mask per unsigned
word and reads each move from its pattern table once per signing of the
letters it reads; the statistic is made once per distinct mask, and an
image that is the word itself is stored as the word's index.
The builder it replaced, which enumerated every signed word, took a descent
set per word and let phi test its spikes on the inverse, is kept below as
the reference, with its word_str; d and b are test_word_layer's
references.  Every builtin ground of an exhaustive
small range is built both ways and must agree in labels, statistics and
tables.
"""

from functools import partial
from itertools import chain, permutations, product

import pytest

from dualeq.core import partitions_of, peak_of, strict_partitions_of
from dualeq.engine import (
    BUILTIN_GROUNDS,
    DES,
    PEAK,
    DEGround,
    _index_range,
    build_ground,
)
from dualeq.involutions import _reading_columns
from dualeq.tableaux import _inverse, _standard_words, entry_str

from test_word_layer import b_ref, d_ref

# --- the reference: the builder as it was ---


def ref_is_descent(j, w, pos):
    p, q = pos[j], pos[j + 1]
    return w[p] > 0 if p > q else w[q] < 0


def ref_descent_set(w, pos):
    return frozenset({j for j in range(1, len(w)) if ref_is_descent(j, w, pos)})


def ref_phi(i, w, pos, col=None):
    if ref_is_descent(i - 1, w, pos) == ref_is_descent(i, w, pos):
        return w
    pa, pb, pc = sorted((pos[i - 1], pos[i], pos[i + 1]))
    out = list(w)
    if col is not None and col[pa] == col[pc] != col[pb]:
        out[pc] = -out[pc]
    elif (out[pb] < 0) != (out[pc] < 0):
        out[pb], out[pc] = -out[pb], -out[pc]
    else:
        a, c = abs(out[pa]), abs(out[pc])
        out[pa], out[pc] = (-c if out[pa] < 0 else c), (-a if out[pc] < 0 else a)
    return tuple(out)


def ref_word_str(w):
    toks = list(map(entry_str, w))
    if w and (max(w) > 9 or min(w) < -9):
        return ",".join(toks) + ("," if len(toks) == 1 else "")
    return "".join(toks)


def ref_materialize(stat_kind, n, words, labels, move, desc):
    index_of = {w: k for k, w in enumerate(words)}
    indices = _index_range(stat_kind, n)
    tables = {i: [None] * len(words) for i in indices}
    stats, interned = [None] * len(words), {}
    for k, w in enumerate(words):
        pos = _inverse(w)
        stat = ref_descent_set(w, pos)
        stat = peak_of(stat) if stat_kind == PEAK else stat
        stats[k] = interned.setdefault(stat, stat)
        for i in indices:
            tables[i][k] = index_of.get(move(i, w, pos))
    invs = {i: tuple(tables.pop(i)) for i in indices}
    return DEGround(stat_kind, n, tuple(labels), tuple(stats), invs, desc)


# d and b by test_word_layer's references, on a position dict per call
REF_MOVES = {
    "d": lambda param: lambda i, w, pos: d_ref(i, w),
    "b": lambda param: lambda i, w, pos: b_ref(i, w),
    "phi": lambda param: ref_phi,
    "psi": lambda param: partial(ref_phi, col=_reading_columns(tuple(param))),
}


def ref_signed_shifted_words(lam):
    """Each standard shifted reading word of lam followed by its signed
    variants: bit b of variant s primes the b-th smallest value off the
    diagonal, whose cells start the rows."""
    diagonal, start = set(), 0
    for width in reversed(lam):  # the top row is read first
        diagonal.add(start)
        start += width
    out = []
    for w in _standard_words(lam, True):
        variants = [w]
        for p in sorted((p for p in range(len(w)) if p not in diagonal), key=w.__getitem__):
            variants += [v[:p] + (-v[p],) + v[p + 1 :] for v in variants]
        out += variants
    return out


# every word of each ground, signed ones included, enumerated here
REF_WORDS = {
    "perm": lambda n: list(permutations(range(1, n + 1))),
    "signedperm": lambda n: [
        signed
        for w in permutations(range(1, n + 1))
        for signed in product(*((v, -v) for v in w))
    ],
    "syt": lambda lam: _standard_words(lam, False),
    "shsyt": lambda lam: _standard_words(lam, True),
    "signed-shsyt": ref_signed_shifted_words,
}


def ref_build(desc):
    kind, param, family = desc
    stat_kind = BUILTIN_GROUNDS[kind, family][0]
    n = param if isinstance(param, int) else sum(param)
    words = REF_WORDS[kind](param)
    labels = [ref_word_str(w) for w in words]
    move = REF_MOVES[family](param)
    desc = f"({kind},{param},{family})"
    return ref_materialize(stat_kind, n, words, labels, move, desc)


GROUNDS = list(chain(
    (("perm", n, family) for family in ("d", "b") for n in range(8)),
    (("signedperm", n, "phi") for n in range(7)),
    (("syt", lam, "d") for n in range(9) for lam in partitions_of(n)),
    (("shsyt", lam, "b") for n in range(12) for lam in strict_partitions_of(n)),
    (("signed-shsyt", lam, "psi") for n in range(9) for lam in strict_partitions_of(n)),
))


@pytest.mark.parametrize("desc", GROUNDS, ids=str)
def test_kernel_matches_the_reference_builder(desc):
    g, ref = build_ground(desc), ref_build(desc)
    assert (g.stat_kind, g.n, g.desc) == (ref.stat_kind, ref.n, ref.desc)
    assert g.labels == ref.labels
    assert g.stats == ref.stats
    assert g.invs == ref.invs
    # one shared frozenset per distinct statistic
    assert len({id(s) for s in g.stats}) == len(set(g.stats))
    # the table entries are one shared int per position, not a copy per image
    assert len({id(v) for t in g.invs.values() for v in t}) <= g.size


# --- validate: each error names the first offender ---


def ground(stat_kind=DES, n=3, labels=("a", "b"), stats=None, invs=None):
    stats = (frozenset(), frozenset({1})) if stats is None else stats
    invs = {2: (0, 1)} if invs is None else invs
    return DEGround(stat_kind, n, labels, stats, invs, "toy")


def test_validate_accepts_a_good_ground():
    g = ground()
    assert g.validate() is g


@pytest.mark.parametrize("g, message", [
    (ground(stats=(frozenset(),)), "labels/stats length mismatch"),
    (ground(labels=("a", "a")), "duplicate labels"),
    (ground(labels=("a", "b", "c"), invs={2: (0, 1, 2)},
            stats=(frozenset({1}), frozenset({5}), frozenset({0}))),
     "descent set [5] out of range"),
    (ground(PEAK, 5, ("a", "b", "c"),
            (frozenset({2}), frozenset({2, 3}), frozenset({1})),
            {2: (0, 1, 2), 3: (0, 1, 2)}),
     "invalid peak set [2, 3]"),
    (ground(invs={2: (0,)}), "involution 2 has wrong size"),
    (ground(n=4, labels=("a", "b", "c", "d"), stats=(frozenset(),) * 4,
            invs={2: (0, 1, 2, 3), 3: (0, 2, 2, 1)}),
     "involution 3 is not an involution at b"),
    (ground(n=4, labels=("a", "b", "c", "d"), stats=(frozenset(),) * 4,
            invs={2: (1, 1, 3, 2), 3: (0, 0, 2, 3)}),
     "involution 2 is not an involution at a"),
])
def test_validate_error_names_the_first_offender(g, message):
    with pytest.raises(ValueError) as info:
        g.validate()
    assert str(info.value) == message
