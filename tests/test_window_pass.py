"""The windowed axiom checks (strong iv, weak iv-a/iv-b, shifted iv in both
window readings, lemma v and vi) against a reference that restricts every
object of every window class on its own, one window at a time.

The reference is the straightforward form of the checks, sharing no code
with the verifiers under test: the classes of a window come from a fresh
union-find, conditions (i) and (ii) read the frozenset statistics, each
class's generating function is built from the restricted statistic of each
member, and the iv-a multiset condition compares sorted tuples of
restricted descent sets.  Reports must agree exactly: condition order,
pass/fail, counts, notes and each condition's witnesses in order.  The
labelling walk of engine._components is also compared with the union-find
on random involution tables.

The reference for isomorphism is a backtracking search over the classes of
a subground, propagated from one root per class; engine decides
isomorphism by comparing canonical class codes, and the two must agree on
every window class, every target and every classification.
"""

import random
from collections import Counter, defaultdict
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from dualeq.core import (
    partition_str,
    partitions_of,
    strict_partitions_of,
)
from dualeq.engine import (
    _WITNESS_CAP,
    DES,
    PEAK,
    ClassClassification,
    DEGround,
    VerificationReport,
    Witness,
    _check_commutation,
    _class_code,
    _components,
    _mask,
    _members,
    _shifted_target,
    _target_code,
    _window,
    build_ground,
    classes,
    classify_shifted_class,
    find_isomorphism,
    lemma_axiom4_check,
    parse_deg,
    relabel_peak_minus_one,
    verify_shifted,
    verify_strong,
    verify_weak,
)
from dualeq.qsym import (
    PExpansion,
    QSymF,
    QSymG,
    SchurExpansion,
    expand_in_P,
    expand_in_schur,
)


# --- reference -------------------------------------------------------------


def ref_components(size, tables):
    """Components by union-find, listed by smallest member, and each
    object's component index."""
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


class RefAcc:
    """The reference's accumulator: each failure names its labels, and the
    report's witnesses are rescanned for the cap."""

    def __init__(self, report, condition):
        self.report, self.condition = report, condition
        report.results[condition] = True
        report.counts[condition] = 0

    def fail(self, labels, detail):
        self.report.results[self.condition] = False
        self.report.counts[self.condition] += 1
        if len(self.report.witnesses_for(self.condition)) < _WITNESS_CAP:
            self.report.witnesses.append(Witness(self.condition, tuple(labels), detail))


def ref_fix_tables(g):
    return {i: tuple(t[x] == x for x in range(g.size)) for i, t in g.invs.items()}


def ref_fixed_law(g, report, law):
    acc = RefAcc(report, "i")
    for i in g.index_range():
        table = g.invs[i]
        for x in range(g.size):
            if (table[x] == x) != law(g.stats[x], i):
                acc.fail((g.labels[x],), f"fixed-point law fails at index {i}")


def ref_descent_transport(g, report, fix):
    acc = RefAcc(report, "ii")
    for i in g.index_range():
        table = g.invs[i]
        for x in range(g.size):
            y = table[x]
            if y == x:
                continue
            diff = g.stats[x] ^ g.stats[y]
            if i - 1 not in diff or i not in diff:
                acc.fail((g.labels[x], g.labels[y]),
                         f"index {i}: positions {i - 1},{i} must both flip")
                continue
            for h in diff:  # frozenset order, not always ascending
                if h in (i - 1, i):
                    continue
                if h == i - 2 and not fix[i - 1][x]:
                    continue
                if h == i + 1 and not fix[i + 1][x]:
                    continue
                acc.fail((g.labels[x], g.labels[y]),
                         f"index {i}: position {h} changed illegally")
                break


def ref_peak_transport(g, report):
    acc = RefAcc(report, "ii")
    for i in g.index_range():
        table = g.invs[i]
        for x in range(g.size):
            y = table[x]
            if y == x:
                continue
            if (i in g.stats[x]) != (i + 1 in g.stats[y]):
                acc.fail((g.labels[x], g.labels[y]),
                         f"index {i}: peak at {i} not transported to {i + 1}")
                continue
            if any(h < i - 2 or h > i + 3 for h in g.stats[x] ^ g.stats[y]):
                acc.fail((g.labels[x], g.labels[y]),
                         f"index {i}: peak outside {{{i - 2}..{i + 3}}} changed")


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


def ref_restrict(g, s, j, i, literal=False):
    if g.stat_kind == DES:
        return restrict_descents(s, j, i, g.n)
    return restrict_peaks(s, j, i, g.n, literal)


def ref_genfn(g, members, j, i, literal=False):
    stats = [ref_restrict(g, g.stats[x], j, i, literal) for x in members]
    if g.stat_kind == DES:
        return QSymF(i - j + 3, Counter(stats))
    m = min(len(P) for P in stats)
    acc = Counter()
    for P in stats:
        acc[P] += 2 ** (len(P) - m)
    return QSymG(i - j + 4, acc)


def ref_subground(g, members, j=None, i=None):
    """The class members of g as a ground of its own: the involutions j..i
    relabelled from 2 and the statistics restricted to window (j, i), or
    everything kept when no window is given."""
    members = tuple(sorted(members))
    pos = {x: k for k, x in enumerate(members)}
    if j is None:
        degree, shift, indices = g.n, 0, g.index_range()
        stats = tuple(g.stats[x] for x in members)
    else:
        degree = i - j + 3 if g.stat_kind == DES else i - j + 4
        shift, indices = j - 2, range(j, i + 1)
        stats = tuple(ref_restrict(g, g.stats[x], j, i) for x in members)
    invs = {
        k - shift: tuple(pos[g.invs[k][x]] for x in members) for k in indices
    }
    return DEGround(
        g.stat_kind, degree, tuple(g.labels[x] for x in members), stats, invs
    ).validate()


def ref_find_isomorphisms(g1, g2):
    """Yield every statistic-preserving bijection commuting with all the
    involutions, as {position in g1: position in g2} dicts: per class of
    g1, every candidate image of its smallest member with the same
    statistic, propagated through the tables."""
    if g1.stat_kind != g2.stat_kind or g1.n != g2.n or g1.size != g2.size:
        return
    if list(g1.index_range()) != list(g2.index_range()):
        return
    if sorted(map(sorted, g1.stats)) != sorted(map(sorted, g2.stats)):
        return
    R = list(g1.index_range())
    comps = ref_components(g1.size, [g1.invs[i] for i in R])[0]
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


def ref_find_isomorphism(g1, g2):
    """The first isomorphism ref_find_isomorphisms finds, or None."""
    return next(ref_find_isomorphisms(g1, g2), None)


def ref_window(g, j, i):
    return ref_components(g.size, [g.invs[k] for k in range(j, i + 1)])


def ref_expansions(g, report, condition, windows, require, literal=False):
    acc = RefAcc(report, condition)
    expander = expand_in_schur if g.stat_kind == DES else expand_in_P
    wanted = SchurExpansion if g.stat_kind == DES else PExpansion
    for j, i in windows:
        for comp in ref_window(g, j, i)[0]:
            expansion = expander(ref_genfn(g, comp, j, i, literal))
            label = (g.labels[comp[0]],)
            if not isinstance(expansion, wanted):
                acc.fail(label, f"window ({j},{i}): expansion failed with "
                                f"witness {sorted(expansion.witness)}")
            elif require == "unit":
                if expansion.unit_shape() is None:
                    acc.fail(label, f"window ({j},{i}): not a unit vector: "
                                    + ", ".join(expansion.render()))
            elif not expansion.is_nonnegative_integral():
                acc.fail(label, f"window ({j},{i}): negative coefficient: "
                                + ", ".join(expansion.render()))


def ref_descent_start(g, name):
    report = VerificationReport(name, g.desc, {})
    ref_fixed_law(g, report, lambda s, i: (i - 1 in s) == (i in s))
    ref_descent_transport(g, report, ref_fix_tables(g))
    _check_commutation(g, report, 3)
    return report


def ref_strong(g):
    report = ref_descent_start(g, "strong")
    R = list(g.index_range())
    windows = [(j, i) for j in R for i in R if 1 <= i - j <= 3]
    ref_expansions(g, report, "iv", windows, "unit")
    return report


def ref_multisets(g, j, i):
    comps, comp_id = ref_window(g, j, i)
    canon = [
        tuple(sorted(tuple(sorted(ref_restrict(g, g.stats[x], j, i))) for x in c))
        for c in comps
    ]
    return canon, comp_id


def ref_weak(g):
    report = ref_descent_start(g, "weak")
    fix = ref_fix_tables(g)
    R = list(g.index_range())
    ref_expansions(g, report, "iv-a",
                   [(i - 1, i) for i in R if i - 1 in g.invs], "positive")
    acc_m = RefAcc(report, "iv-a-multisets")
    for i in R:
        if i - 1 not in g.invs or i + 1 not in g.invs:
            continue
        left, left_id = ref_multisets(g, i - 1, i)
        right, right_id = ref_multisets(g, i, i + 1)
        out = [fix[i - 1][x] or fix[i][x] or fix[i + 1][x] for x in range(g.size)]
        for x in range(g.size):
            if out[x] or out[g.invs[i][x]]:
                continue
            if left[left_id[x]] != right[right_id[x]]:
                acc_m.fail((g.labels[x],),
                           f"windows ({i - 1},{i}) vs ({i},{i + 1}): "
                           "restricted statistic multisets differ")
    ref_expansions(g, report, "iv-b",
                   [(i - 2, i) for i in R if i - 2 in g.invs], "positive")
    acc_c = RefAcc(report, "iv-b-chain")
    for i in R:
        if i - 2 not in g.invs or i + 1 not in g.invs:
            continue
        t_i, t_m2, fix_p1 = g.invs[i], g.invs[i - 2], fix[i + 1]
        for x in range(g.size):
            u = t_i[x]
            if u == x or fix_p1[x] or fix_p1[u] or not fix_p1[t_i[t_m2[x]]]:
                continue
            v = u
            while True:
                w = t_m2[v]
                if w == v or t_i[w] == w:
                    break
                v = t_i[w]
                if fix_p1[v]:
                    acc_c.fail((g.labels[x], g.labels[v]),
                               f"index {i}: alternating chain re-enters the "
                               f"fixed set of involution {i + 1}")
                    break
                if v == u:
                    break
    return report


def ref_shifted(g, literal=False):
    report = VerificationReport("shifted", g.desc, {})
    ref_fixed_law(g, report, lambda s, i: i not in s and i + 1 not in s)
    ref_peak_transport(g, report)
    _check_commutation(g, report, 4)
    R = list(g.index_range())
    windows = [(j, i) for j in R for i in R if 1 <= i - j <= 4]
    ref_expansions(g, report, "iv", windows, "unit", literal)
    return report


def ref_lemma(g):
    report = VerificationReport("lemma-axiom4", g.desc, {})
    R = list(g.index_range())
    acc_v = RefAcc(report, "v")
    for j in R:
        for i in R:
            if not 1 <= i - j <= 3:
                continue
            for comp in ref_window(g, j, i)[0]:
                expansion = expand_in_P(ref_genfn(g, comp, j, i))
                shape = (expansion.unit_shape()
                         if isinstance(expansion, PExpansion) else None)
                if shape is None:
                    acc_v.fail((g.labels[comp[0]],),
                               f"window ({j},{i}): generating function is "
                               "not a unit Schur-P vector")
                elif ref_find_isomorphism(ref_subground(g, comp, j, i),
                                          _shifted_target(shape)) is None:
                    acc_v.fail((g.labels[comp[0]],),
                               f"window ({j},{i}): not isomorphic to "
                               f"(shsyt,{partition_str(shape)},b)")
    acc_vi = RefAcc(report, "vi")
    applicable = [i for i in R if i - 4 >= 2]
    if not applicable:
        report.notes["vi"] = "vacuous: no window (i-4, i) fits the index range"
    for i in applicable:
        big_id = ref_window(g, 2, i)[1]
        comps = ref_window(g, i - 4, i)[0]
        subs = [ref_subground(g, c, i - 4, i) for c in comps]
        for a in range(len(comps)):
            for bb in range(a + 1, len(comps)):
                if big_id[comps[a][0]] == big_id[comps[bb][0]]:
                    continue
                if ref_find_isomorphism(subs[a], subs[bb]) is not None:
                    acc_vi.fail((g.labels[comps[a][0]], g.labels[comps[bb][0]]),
                                f"windows ({i - 4},{i}): isomorphic despite "
                                f"different classes under 2..{i}")
    return report


def ref_classify(g, members):
    """classify_shifted_class by the reference search: the shape of the
    class's unit Schur-P expansion and the first isomorphism onto the
    standard shifted ground of that shape, as a label map; None when the
    expansion is not a unit vector or no isomorphism exists."""
    stats = [g.stats[x] for x in members]
    m = min(map(len, stats))
    genfn = Counter()
    for P in stats:
        genfn[P] += 2 ** (len(P) - m)
    expansion = expand_in_P(QSymG(g.n, genfn))
    shape = expansion.unit_shape() if isinstance(expansion, PExpansion) else None
    if shape is None:
        return None
    sub, target = ref_subground(g, members), build_ground(("shsyt", shape, "b"))
    iso = ref_find_isomorphism(sub, target)
    if iso is None:
        return None
    return shape, {sub.labels[a]: target.labels[bb] for a, bb in iso.items()}


# --- comparison ------------------------------------------------------------


def checks_of(g):
    """(name, verifier, reference) for every check that applies to g."""
    if g.stat_kind == DES:
        return [("strong", verify_strong, ref_strong),
                ("weak", verify_weak, ref_weak)]
    return [
        ("shifted", verify_shifted, ref_shifted),
        ("shifted-literal", lambda h: verify_shifted(h, literal_peak_window=True),
         lambda h: ref_shifted(h, literal=True)),
        ("lemma", lemma_axiom4_check, ref_lemma),
    ]


def summary(report):
    return (
        report.kind,
        report.ground,
        list(report.results.items()),
        list(report.counts.items()),
        report.notes,
        {
            cond: [(w.labels, w.detail) for w in report.witnesses_for(cond)]
            for cond in report.results
        },
    )


def compare(g):
    """Assert that every check agrees with its reference on g; return the
    (check, condition) pairs that failed."""
    failed = set()
    for name, verify, ref in checks_of(g):
        got, want = verify(g), ref(g)
        assert summary(got) == summary(want), (g.desc, name)
        failed |= {(name, c) for c, ok in got.results.items() if not ok}
    return failed


def builtin_grounds():
    for n in range(8):
        yield ("perm", n, "d")
        yield ("perm", n, "b")
        for lam in partitions_of(n):
            yield ("syt", lam, "d")
        for lam in strict_partitions_of(n):
            yield ("shsyt", lam, "b")
            yield ("signed-shsyt", lam, "psi")
    # 46,080 objects at n = 6: the weak pass alone takes seconds
    for n in range(6):
        yield ("signedperm", n, "phi")


@pytest.mark.parametrize("desc", list(builtin_grounds()), ids=str)
def test_builtin_window_checks_match_reference(desc):
    g = build_ground(desc)
    compare(g)
    if g.stat_kind != DES:
        compare(relabel_peak_minus_one(g))


def mutant(g, rng):
    """g with the statistics of two objects exchanged, or with two orbits of
    one involution re-paired; still a valid ground, rarely a good one."""
    stats, invs = list(g.stats), dict(g.invs)
    if rng.random() < 0.5:
        x, y = rng.sample(range(g.size), 2)
        stats[x], stats[y] = stats[y], stats[x]
    else:
        k = rng.choice(sorted(invs))
        table = list(invs[k])
        orbits = sorted({tuple(sorted({x, y})) for x, y in enumerate(table)})
        # orbits (a..) and (b..) become the pairs a-b and, when both
        # were pairs, their second members
        A, B = rng.sample(orbits, 2)
        for p in A + B:
            table[p] = p
        table[A[0]], table[B[0]] = B[0], A[0]
        if len(A) == len(B) == 2:
            table[A[1]], table[B[1]] = B[1], A[1]
        invs[k] = tuple(table)
    return DEGround(g.stat_kind, g.n, g.labels, tuple(stats), invs,
                    f"{g.desc} mutant").validate()


MUTATED = [
    ("perm", 5, "d"),
    ("perm", 6, "d"),
    ("signedperm", 4, "phi"),
    ("signed-shsyt", (4, 2), "psi"),
    ("perm", 6, "b"),
    ("shsyt", (5, 3, 1), "b"),
]


# window (2,3) of this ground expands to s[3,1] - s[2,2] + s[2,1,1]
NEGATIVE_WINDOW = """deg 1
n 4 stat des
vertex a { 1 }
vertex b { 3 }
vertex c { 1, 2 }
vertex d { 2, 3 }
edge 2 a c
edge 3 c d
edge 2 d b
"""


def test_mutated_window_checks_match_reference():
    rng = random.Random(2014)
    failed = set()
    for desc in MUTATED:
        g = build_ground(desc)
        for _ in range(6):
            failed |= compare(mutant(g, rng))
    # two mutant steps of perm 6 d re-enter a fixed set along a chain
    rng = random.Random(129)
    failed |= compare(mutant(mutant(build_ground(("perm", 6, "d")), rng), rng))
    negative = parse_deg(NEGATIVE_WINDOW)
    failed |= compare(negative)
    # the mutants reach every windowed condition
    assert failed >= {
        ("strong", "iv"), ("weak", "iv-a"), ("weak", "iv-a-multisets"),
        ("weak", "iv-b"), ("weak", "iv-b-chain"), ("shifted", "iv"),
        ("shifted-literal", "iv"), ("lemma", "v"),
    }, sorted(failed)
    assert [w.detail for w in verify_weak(negative).witnesses_for("iv-a")] == [
        "window (2,3): negative coefficient: 1 s[3,1], -1 s[2,2], 1 s[2,1,1]"
    ]


def copies(g, k):
    """k disjoint copies of g: each window vector of g recurs in k classes."""
    return DEGround(
        g.stat_kind,
        g.n,
        tuple(f"{c}:{label}" for c in range(k) for label in g.labels),
        g.stats * k,
        {
            i: tuple(c * g.size + y for c in range(k) for y in table)
            for i, table in g.invs.items()
        },
        f"{g.desc} x{k}",
    ).validate()


def test_classes_sharing_a_failing_vector_are_each_counted_and_witnessed():
    # the fourth seeded mutant of perm 5 fails every windowed weak and
    # strong condition, the first of (5,3,1) shifted iv and lemma v
    failed = set()
    for desc, pick in [(("perm", 5, "d"), 3), (("shsyt", (5, 3, 1), "b"), 0)]:
        rng = random.Random(3)
        base = [mutant(build_ground(desc), rng) for _ in range(pick + 1)][-1]
        many = copies(base, 5)
        compare(many)
        for name, verify, _ in checks_of(base):
            one, five = verify(base), verify(many)
            for cond in ("iv", "iv-a", "iv-a-multisets", "iv-b", "v"):
                if one.counts.get(cond):
                    failed.add((name, cond))
                    assert five.counts[cond] == 5 * one.counts[cond], (name, cond)
                    assert len(five.witnesses_for(cond)) == _WITNESS_CAP
    assert failed >= {
        ("strong", "iv"), ("weak", "iv-a"), ("weak", "iv-a-multisets"),
        ("weak", "iv-b"), ("shifted", "iv"), ("lemma", "v"),
    }, sorted(failed)


def test_repeated_runs_give_equal_reports():
    rng = random.Random(5)
    for desc in [("perm", 5, "d"), ("signed-shsyt", (4, 2), "psi"),
                 ("shsyt", (5, 3, 1), "b")]:
        g = build_ground(desc)
        for h in (g, mutant(g, rng)):
            for name, verify, _ in checks_of(h):
                assert summary(verify(h)) == summary(verify(h)), (h.desc, name)


@pytest.mark.parametrize("n", range(11))
def test_mask_restriction_matches_core(n):
    subsets = [frozenset(c) for k in range(n) for c in combinations(range(1, n), k)]
    for kind, literals in ((DES, (False,)), (PEAK, (False, True))):
        g = DEGround(kind, n, (), (), {})
        R = g.index_range()
        for j, i in [(j, i) for j in R for i in R if j <= i]:
            for literal in literals:
                degree, restrict = _window(g, j, i, literal)
                assert degree == i - j + (3 if kind == DES else 4)
                for s in subsets:
                    want = ref_restrict(g, s, j, i, literal)
                    assert _members(restrict(_mask(s))) == want, (kind, s, j, i)
        for j, i in [(3, 2), (1, 1), (2, n)]:
            with pytest.raises(ValueError):
                _window(g, j, i)


def test_a_failing_transport_names_the_position_frozensets_name_first():
    # index 3 exchanges {2,8} and {1,3}: 2 and 3 flip, 1 and 8 may not (the
    # objects are fixed by involutions 2 and 4); the difference iterates
    # 8 before 1, and the witness keeps naming 8
    n = 10
    stats = (frozenset({2, 8}), frozenset({1, 3}))
    assert list(stats[0] ^ stats[1]) == [8, 1, 2, 3]
    invs = {i: (1, 0) if i == 3 else (0, 1) for i in range(2, n)}
    g = DEGround(DES, n, ("x", "y"), stats, invs, "two objects").validate()
    compare(g)
    for verify in (verify_strong, verify_weak):
        report = verify(g)
        assert [(w.labels, w.detail) for w in report.witnesses_for("ii")] == [
            (("x", "y"), "index 3: position 8 changed illegally"),
            (("y", "x"), "index 3: position 8 changed illegally"),
        ]


@st.composite
def involution_tables(draw):
    """1-5 random involution tables on 0-60 objects, with fixed points."""
    size = draw(st.integers(0, 60))
    tables = []
    for _ in range(draw(st.integers(1, 5))):
        order = draw(st.permutations(range(size)))
        pairs = draw(st.integers(0, size // 2))
        table = list(range(size))
        for k in range(pairs):
            x, y = order[2 * k], order[2 * k + 1]
            table[x], table[y] = y, x
        tables.append(tuple(table))
    return size, tables


@given(involution_tables())
@settings(max_examples=300, deadline=None)
def test_components_match_union_find_on_random_involutions(case):
    size, tables = case
    assert _components(size, tables) == ref_components(size, tables)


def test_components_match_union_find_on_small_builtin_windows():
    grounds = [g for g in map(build_ground, builtin_grounds()) if g.size <= 60]
    windows = 0
    for g in grounds:
        R = g.index_range()
        for j, i in [(j, i) for j in R for i in R if 0 <= i - j <= 4]:
            tables = [g.invs[k] for k in range(j, i + 1)]
            assert _components(g.size, tables) == ref_components(g.size, tables)
            windows += 1
    assert windows > 100


# --- canonical class codes ---------------------------------------------------


def check_codes(g):
    """Assert on a peak-kind ground g that equal class codes are exactly the
    isomorphisms the reference search finds, on every class of every window
    of 2-5 involutions: between the classes of one window, and against the
    standard shifted target of each class with a unit expansion.  Returns
    the number of unit classes not isomorphic to their target."""
    R = list(g.index_range())
    misses = 0
    for j, i in [(j, i) for j in R for i in R if 1 <= i - j <= 4]:
        r = [_mask(ref_restrict(g, s, j, i)) for s in g.stats]
        tables = [g.invs[k] for k in range(j, i + 1)]
        reps = []  # (code, subground) of one class per distinct code
        for comp in ref_window(g, j, i)[0]:
            code = _class_code(comp, tables, r)[0]
            sub = ref_subground(g, comp, j, i)
            for rep_code, rep in reps:
                found = ref_find_isomorphism(sub, rep) is not None
                assert (code == rep_code) == found, (g.desc, (j, i), comp)
            if all(code != rep_code for rep_code, _ in reps):
                reps.append((code, sub))
            expansion = expand_in_P(ref_genfn(g, comp, j, i))
            if isinstance(expansion, PExpansion) and expansion.unit_shape():
                shape = expansion.unit_shape()
                found = ref_find_isomorphism(sub, _shifted_target(shape)) is not None
                assert (code == _target_code(shape)[0]) == found, (g.desc, comp)
                misses += not found
    return misses


def test_class_code_is_none_for_members_that_are_not_connected():
    tables = [(0, 1, 3, 2)]  # two fixed points, then a pair
    assert _class_code((0, 1), tables, [7, 7, 7, 7]) == (None, None)
    # a code lists per vertex its label, then its neighbours' numbers
    assert _class_code((2, 3), tables, [7, 7, 7, 7]) == ((7, 1, 7, 0), [2, 3])
    assert _class_code((2, 3), tables, [7, 7, 7, 5]) == ((5, 1, 7, 0), [3, 2])


def classified(g, comp):
    """classify_shifted_class in the form ref_classify gives."""
    res = classify_shifted_class(g, comp)
    return (res.shape, res.mapping) if isinstance(res, ClassClassification) else None


@pytest.mark.parametrize("n", range(2, 13))
def test_class_codes_agree_with_the_search_on_strict_shapes(n):
    for lam in strict_partitions_of(n):
        g = build_ground(("shsyt", lam, "b"))
        assert check_codes(g) == 0
        assert classified(g, classes(g)[0]) == ref_classify(g, classes(g)[0])


def test_class_codes_agree_with_the_search_on_perm_7_b():
    g = build_ground(("perm", 7, "b"))
    assert check_codes(g) == 0
    maps = [classified(g, comp) for comp in classes(g)]
    assert maps == [ref_classify(g, comp) for comp in classes(g)]
    assert None not in maps and len({shape for shape, _ in maps}) > 1


def test_class_codes_agree_with_the_search_on_mutants():
    rng = random.Random(2014)
    misses, failed = 0, set()
    for desc in [("perm", 6, "b"), ("shsyt", (5, 3, 1), "b"), ("shsyt", (6, 3, 1), "b")]:
        g = build_ground(desc)
        for _ in range(6):
            h = mutant(g, rng)
            misses += check_codes(h)
            report = lemma_axiom4_check(h)
            assert summary(report) == summary(ref_lemma(h)), h.desc
            failed |= {cond for cond, ok in report.results.items() if not ok}
            for comp in classes(h):
                assert classified(h, comp) == ref_classify(h, comp), h.desc
    # both verdicts of the code comparison occur, and both lemma conditions fail
    assert misses > 0 and failed == {"v", "vi"}, (misses, failed)


def shuffled(g, rng):
    """g with its objects in a random order, labels and tables carried along."""
    p = list(range(g.size))
    rng.shuffle(p)
    at = [0] * g.size  # the object at each new position
    for x, q in enumerate(p):
        at[q] = x
    return DEGround(
        g.stat_kind, g.n, tuple(g.labels[x] for x in at),
        tuple(g.stats[x] for x in at),
        {i: tuple(p[t[x]] for x in at) for i, t in g.invs.items()},
        f"{g.desc} shuffled",
    ).validate()


def is_isomorphism(g1, g2, iso):
    return (
        sorted(iso) == list(range(g1.size))
        and sorted(iso.values()) == list(range(g2.size))
        and all(g1.stats[x] == g2.stats[y] for x, y in iso.items())
        and all(iso[t[x]] == g2.invs[i][iso[x]]
                for i, t in g1.invs.items() for x in range(g1.size))
    )


def union(g1, g2):
    """The disjoint union of two grounds of one kind and degree."""
    return DEGround(
        g1.stat_kind, g1.n,
        tuple(f"1:{a}" for a in g1.labels) + tuple(f"2:{a}" for a in g2.labels),
        g1.stats + g2.stats,
        {i: t + tuple(g1.size + y for y in g2.invs[i]) for i, t in g1.invs.items()},
        f"{g1.desc} + {g2.desc}",
    ).validate()


def test_find_isomorphism_agrees_with_the_search():
    # the search is exponential in the number of classes when no
    # isomorphism exists, so non-isomorphic pairs have at most two classes
    rng = random.Random(11)
    pairs = []
    for desc in [("syt", (4, 2, 1), "d"), ("shsyt", (5, 3, 1), "b"),
                 ("shsyt", (6, 3, 1), "b")]:
        g = build_ground(desc)
        m = mutant(g, rng)
        pairs += [(g, g), (g, shuffled(g, rng)), (g, m), (shuffled(m, rng), g),
                  (union(g, m), shuffled(union(m, g), rng)),
                  (union(g, m), copies(g, 2)), (union(m, m), union(g, m))]
    for desc in [("perm", 6, "b"), ("perm", 5, "d"), ("signedperm", 4, "phi")]:
        g = build_ground(desc)
        pairs += [(g, shuffled(g, rng)), (shuffled(g, rng), g)]
    found = 0
    for g1, g2 in pairs:
        iso, want = find_isomorphism(g1, g2), ref_find_isomorphism(g1, g2)
        assert (iso is None) == (want is None), (g1.desc, g2.desc)
        if iso is not None:
            assert is_isomorphism(g1, g2, iso)
            found += 1
    assert found == 3 * 3 + 6
