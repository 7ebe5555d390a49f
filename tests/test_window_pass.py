"""The windowed axiom checks (strong iv, weak iv-a/iv-b, shifted iv in both
window readings, lemma v) against a reference that restricts every object
of every window class on its own, one window at a time.

The reference is the straightforward form of the checks, sharing no code
with the verifiers under test: the classes of a window come from a fresh
union-find, conditions (i) and (ii) read the frozenset statistics, each
class's generating function is built from the restricted statistic of each
member, and the iv-a multiset condition compares sorted tuples of
restricted descent sets.  Reports must agree exactly: condition order,
pass/fail, counts, notes and each condition's witnesses in order.  The
labelling walk of engine._components is also compared with the union-find
on random involution tables.
"""

import random
from collections import Counter, defaultdict
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from dualeq.core import (
    partition_str,
    partitions_of,
    restrict_descents,
    restrict_peaks,
    strict_partitions_of,
)
from dualeq.engine import (
    _WITNESS_CAP,
    DES,
    PEAK,
    DEGround,
    VerificationReport,
    _Acc,
    _check_commutation,
    _components,
    _mask,
    _members,
    _shifted_target,
    _window,
    build_ground,
    find_isomorphism,
    lemma_axiom4_check,
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


def ref_fix_tables(g):
    return {i: tuple(t[x] == x for x in range(g.size)) for i, t in g.invs.items()}


def ref_fixed_law(g, report, law):
    acc = _Acc(report, "i")
    for i in g.index_range():
        table = g.invs[i]
        for x in range(g.size):
            if (table[x] == x) != law(g.stats[x], i):
                acc.fail((g.labels[x],), f"fixed-point law fails at index {i}")


def ref_descent_transport(g, report, fix):
    acc = _Acc(report, "ii")
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
    acc = _Acc(report, "ii")
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


def ref_subground(g, members, j, i):
    members = tuple(sorted(members))
    pos = {x: k for k, x in enumerate(members)}
    degree = i - j + 3 if g.stat_kind == DES else i - j + 4
    invs = {
        k - (j - 2): tuple(pos[g.invs[k][x]] for x in members)
        for k in range(j, i + 1)
    }
    return DEGround(
        g.stat_kind,
        degree,
        tuple(g.labels[x] for x in members),
        tuple(ref_restrict(g, g.stats[x], j, i) for x in members),
        invs,
    ).validate()


def ref_window(g, j, i):
    return ref_components(g.size, [g.invs[k] for k in range(j, i + 1)])


def ref_expansions(g, report, condition, windows, require, literal=False):
    acc = _Acc(report, condition)
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
    acc_m = _Acc(report, "iv-a-multisets")
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
    acc_c = _Acc(report, "iv-b-chain")
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
    acc_v = _Acc(report, "v")
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
                elif find_isomorphism(ref_subground(g, comp, j, i),
                                      _shifted_target(shape)) is None:
                    acc_v.fail((g.labels[comp[0]],),
                               f"window ({j},{i}): not isomorphic to "
                               f"(shsyt,{partition_str(shape)},b)")
    acc_vi = _Acc(report, "vi")
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
                if find_isomorphism(subs[a], subs[bb]) is not None:
                    acc_vi.fail((g.labels[comps[a][0]], g.labels[comps[bb][0]]),
                                f"windows ({i - 4},{i}): isomorphic despite "
                                f"different classes under 2..{i}")
    return report


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


def test_mutated_window_checks_match_reference():
    rng = random.Random(2014)
    failed = set()
    for desc in MUTATED:
        g = build_ground(desc)
        for _ in range(6):
            failed |= compare(mutant(g, rng))
    # the mutants reach every windowed condition
    assert failed >= {
        ("strong", "iv"), ("weak", "iv-a"), ("weak", "iv-a-multisets"),
        ("weak", "iv-b"), ("shifted", "iv"),
        ("shifted-literal", "iv"), ("lemma", "v"),
    }, sorted(failed)


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
