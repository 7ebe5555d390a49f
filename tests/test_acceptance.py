"""Acceptance gate: one test per shipped claim, timed where the claim is.

Each test asserts exact equality (all arithmetic is on ints) plus the
advertised wall-clock budget for the whole check, so `pytest -v` prints one
pass/fail line per claim.
"""

import time
from itertools import permutations, product

import test_involutions as property_suite

from dualeq.core import (
    partitions_of,
    peak_of,
    peak_sets,
    strict_partitions_of,
)
from dualeq.engine import (
    build_ground,
    class_genfn,
    classes,
    find_isomorphism,
    relabel_peak_minus_one,
    verify_shifted,
    verify_weak,
)
from dualeq.involutions import b, b_tab, phi
from dualeq.qsym import (
    G_to_F,
    P_in_F,
    P_in_G,
    Q_in_F,
    QSymF,
    SchurExpansion,
    expand_in_P,
    expand_in_schur,
    monomial_series,
    qsymf_specialize,
    schur_in_F,
)
from dualeq.tableaux import (
    descent_set_word,
    enumerate_shsyt,
    reading_word,
    word_str,
)


class budget:
    """Assert the body ran inside the advertised number of seconds."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, f"took {elapsed:.2f}s"


def F(n, *descent_sets):
    return QSymF(n, {frozenset(d): 1 for d in descent_sets})


def test_criterion_01_schur_f_expansions_degree_four_match_table():
    with budget(1):
        assert schur_in_F((4,)) == F(4, ())
        assert schur_in_F((3, 1)) == F(4, (1,), (2,), (3,))
        assert schur_in_F((2, 2)) == F(4, (1, 3), (2,))
        assert schur_in_F((2, 1, 1)) == F(4, (1, 2), (1, 3), (2, 3))
        assert schur_in_F((1, 1, 1, 1)) == F(4, (1, 2, 3))


def test_criterion_02_schur_p_31_expansion_and_schur_content():
    with budget(1):
        assert dict(P_in_F((3, 1)).coeffs) == {
            frozenset({1}): 1,
            frozenset({2}): 2,
            frozenset({3}): 1,
            frozenset({1, 2}): 1,
            frozenset({1, 3}): 2,
            frozenset({2, 3}): 1,
        }
        exp = expand_in_schur(P_in_F((3, 1)))
        assert isinstance(exp, SchurExpansion)
        assert exp.coeffs == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}


def test_criterion_03_g_route_matches_f_route_and_schur_positive_to_eight():
    with budget(2):
        for n in range(1, 9):
            for lam in strict_partitions_of(n):
                assert G_to_F(P_in_G(lam)) == P_in_F(lam), lam
                exp = expand_in_schur(P_in_F(lam))
                assert isinstance(exp, SchurExpansion), lam
                assert exp.is_nonnegative_integral(), lam


def test_criterion_04_specializations_agree_to_size_six():
    with budget(3):
        for n in range(1, 7):
            for k in (1, 2, 3):
                for lam in partitions_of(n):
                    assert monomial_series("s", lam, k) == qsymf_specialize(
                        schur_in_F(lam), k
                    )
                for lam in strict_partitions_of(n):
                    direct = monomial_series("P", lam, k)
                    assert direct == qsymf_specialize(P_in_F(lam), k)
                    assert direct == qsymf_specialize(G_to_F(P_in_G(lam)), k)
                    assert monomial_series("Q", lam, k) == qsymf_specialize(
                        Q_in_F(lam), k
                    )
        assert monomial_series("s", (3, 1), 2) == {
            (3, 1): 1, (2, 2): 1, (1, 3): 1,
        }
        assert monomial_series("P", (3, 1), 2) == {
            (3, 1): 1, (2, 2): 2, (1, 3): 1,
        }


def test_criterion_05_s4_classes_under_d_and_b_exact():
    with budget(1):
        g = build_ground(("perm", 4, "d"))
        got = {frozenset(g.labels[x] for x in c) for c in classes(g)}
        assert got == {
            frozenset({"1234"}),
            frozenset({"4321"}),
            frozenset({"2143", "3142"}),
            frozenset({"2413", "3412"}),
            frozenset({"2314", "1324", "1423"}),
            frozenset({"1432", "2431", "3421"}),
            frozenset({"2341", "1342", "1243"}),
            frozenset({"4312", "4213", "3214"}),
            frozenset({"2134", "3124", "4123"}),
            frozenset({"4132", "4231", "3241"}),
        }
        g = build_ground(("perm", 4, "b"))
        fixed = {"1234", "2134", "2314", "2341", "3214", "3241", "3421", "4321"}
        pairs = {
            frozenset(p)
            for p in [
                ("1243", "1342"), ("1324", "1423"), ("1432", "2431"),
                ("2143", "3142"), ("2413", "3412"), ("3124", "4123"),
                ("4132", "4231"), ("4213", "4312"),
            ]
        }
        got = {frozenset(g.labels[x] for x in c) for c in classes(g)}
        assert got == {frozenset({w}) for w in fixed} | pairs


def test_criterion_06_weak_axioms_hold_on_46080_signed_permutations():
    with budget(20):
        g = build_ground(("signedperm", 6, "phi"))
        assert g.size == 46080
        g.validate()
        report = verify_weak(g)
        assert report.passed, report.results


def test_criterion_07_weak_axioms_and_positivity_for_signed_tableaux_to_seven():
    with budget(1):
        for n in range(1, 8):
            for lam in strict_partitions_of(n):
                g = build_ground(("signed-shsyt", lam, "psi"))
                report = verify_weak(g)
                assert report.passed, (lam, report.results)
                union = None
                for c in classes(g):
                    genfn = class_genfn(g, c)
                    exp = expand_in_schur(genfn)
                    assert isinstance(exp, SchurExpansion), lam
                    assert exp.is_nonnegative_integral(), lam
                    union = genfn if union is None else union + genfn
                assert union == P_in_F(lam), lam


def test_criterion_08_shifted_axioms_and_unit_certificates_to_eight():
    with budget(1):
        for n in range(2, 9):
            for lam in strict_partitions_of(n):
                g = build_ground(("shsyt", lam, "b"))
                report = verify_shifted(g)
                assert report.passed, (lam, report.results)
                for c in classes(g):
                    exp = expand_in_P(class_genfn(g, c))
                    assert exp.coeffs == {lam: 1}, lam
        sizes = {
            lam: build_ground(("shsyt", lam, "b")).size
            for lam in [(6, 1), (5, 2), (4, 3), (4, 2, 1)]
        }
        assert sizes == {(6, 1): 5, (5, 2): 9, (4, 3): 5, (4, 2, 1): 7}


def test_criterion_09_triple_edge_identity_on_six_cells():
    with budget(1):
        T = next(
            t
            for t in enumerate_shsyt((3, 2, 1))
            if word_str(reading_word(t)) == "645123"
        )
        images = [b_tab(i, T) for i in (2, 3, 4)]
        assert images[0] == images[1] == images[2] != T
        assert word_str(reading_word(images[0])) == "635124"


def test_criterion_10_two_row_isomorphisms_and_three_row_obstruction():
    with budget(1):
        for r, s in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]:
            src = relabel_peak_minus_one(build_ground(("shsyt", (r, s), "b")))
            dst = build_ground(("syt", (r - 1, s), "d"))
            assert find_isomorphism(src, dst) is not None, (r, s)
        three_row = build_ground(("shsyt", (3, 2, 1), "b"))
        relabeled = relabel_peak_minus_one(three_row)
        for mu in partitions_of(6):
            dst = build_ground(("syt", mu, "d"))
            assert find_isomorphism(three_row, dst) is None, mu
            assert find_isomorphism(relabeled, dst) is None, mu


def test_criterion_11_property_suites_zero_failures():
    suites = [
        # involutivity
        property_suite.test_d_involutive_exhaustive,
        property_suite.test_b_involutive_exhaustive,
        property_suite.test_phi_involutive_exhaustive,
        property_suite.test_psi_involutive_exhaustive,
        property_suite.test_d_tab_involutive_and_valid,
        property_suite.test_b_tab_involutive_and_valid,
        # fixed-point laws
        property_suite.test_d_fixed_point_law,
        property_suite.test_phi_fixed_iff_no_spike,
        property_suite.test_psi_fixed_iff_no_spike,
        # commutation ranges
        property_suite.test_d_commutes_at_distance_three,
        property_suite.test_b_commutes_at_distance_four,
        property_suite.test_phi_commutes_at_distance_three,
        property_suite.test_psi_commutes_at_distance_three,
        # peak transport
        property_suite.test_b_transports_peak_i_to_i_plus_one,
        # psi diagonal preservation
        property_suite.test_psi_preserves_unprimed_diagonal,
        # b candidate agreement
        property_suite.test_b_candidate_moves_agree,
    ]
    for check in suites:
        check()
    # top of the stated involutivity range for signed words
    for w in permutations(range(1, 7)):
        for signs in product((1, -1), repeat=6):
            sw = tuple(s * x for s, x in zip(signs, w))
            for i in range(2, 6):
                assert phi(i, phi(i, sw)) == sw
    # fixed-point law for b on words
    for n in range(4, 8):
        for w in permutations(range(1, n + 1)):
            P = peak_of(descent_set_word(w))
            for i in range(2, n - 1):
                assert (b(i, w) == w) == (i not in P and i + 1 not in P), (w, i)


def test_criterion_12_peak_set_dimension_is_fibonacci():
    with budget(1):
        fib = {1: 1, 2: 1}
        for n in range(3, 13):
            fib[n] = fib[n - 1] + fib[n - 2]
        for n in range(1, 13):
            sets = peak_sets(n)
            assert len(sets) == fib[n], n
            assert len(set(sets)) == len(sets)
            assert all(
                all(2 <= p <= n - 1 for p in P)
                and all(p + 1 not in P for p in P)
                for P in sets
            )
