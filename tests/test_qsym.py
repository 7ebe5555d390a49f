from hypothesis import given, settings, strategies as st
import pytest

from dualeq.core import (
    InvalidShapeError,
    is_peak_set,
    partitions_of,
    peak_sets,
    spike_of,
    strict_partitions_of,
)
from dualeq.qsym import (
    G_to_F,
    NotInSpan,
    NotSymmetric,
    P_in_F,
    P_in_G,
    PExpansion,
    Q_in_F,
    QSymF,
    QSymG,
    SchurExpansion,
    descent_subsets,
    expand_in_P,
    expand_in_schur,
    monomial_series,
    parse_expansion,
    poly_render,
    qsymf_specialize,
    schur_in_F,
)


def F(n, *keys):
    return QSymF(n, {frozenset(k): 1 for k in keys})


def test_schur_in_F_degree_four_table():
    assert schur_in_F((4,)) == F(4, ())
    assert schur_in_F((3, 1)) == F(4, (1,), (2,), (3,))
    assert schur_in_F((2, 2)) == F(4, (1, 3), (2,))
    assert schur_in_F((2, 1, 1)) == F(4, (1, 2), (1, 3), (2, 3))
    assert schur_in_F((1, 1, 1, 1)) == F(4, (1, 2, 3))


def test_P_in_F_three_one():
    got = dict(P_in_F((3, 1)).coeffs)
    want = {
        frozenset({1}): 1,
        frozenset({2}): 2,
        frozenset({3}): 1,
        frozenset({1, 2}): 1,
        frozenset({1, 3}): 2,
        frozenset({2, 3}): 1,
    }
    assert got == want


def test_P_in_F_two_one():
    assert dict(P_in_F((2, 1)).coeffs) == {frozenset({1}): 1, frozenset({2}): 1}


def test_schur_expansion_of_P_three_one():
    exp = expand_in_schur(P_in_F((3, 1)))
    assert isinstance(exp, SchurExpansion)
    assert exp.coeffs == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}


def test_Q_is_two_power_times_P():
    for n in range(1, 8):
        for lam in strict_partitions_of(n):
            assert Q_in_F(lam) == P_in_F(lam).scaled(2 ** len(lam))


def test_G_route_equals_F_route():
    for n in range(1, 8):
        for lam in strict_partitions_of(n):
            assert G_to_F(P_in_G(lam)) == P_in_F(lam)


def test_P_schur_positive():
    for n in range(1, 8):
        for lam in strict_partitions_of(n):
            exp = expand_in_schur(P_in_F(lam))
            assert isinstance(exp, SchurExpansion)
            assert exp.is_nonnegative_integral()


def test_G_definition_spike_superset():
    # G_P is the sum of F_D over descent sets whose spike set contains P
    n = 5
    for P in peak_sets(n):
        g = QSymG(n, {P: 1})
        f = G_to_F(g)
        for D in descent_subsets(n):
            want = 1 if spike_of(D, n) >= P else 0
            assert f.coeffs.get(D, 0) == want


def test_shifted_class_genfns_in_G():
    assert dict(P_in_G((3, 1)).coeffs) == {
        frozenset({2}): 1,
        frozenset({3}): 1,
    }
    assert dict(P_in_G((3, 2)).coeffs) == {
        frozenset({2, 4}): 2,
        frozenset({3}): 1,
    }
    assert dict(P_in_G((4,)).coeffs) == {frozenset(): 1}


def test_expand_in_schur_full_rank_through_eight():
    for n in range(1, 9):
        for lam in partitions_of(n):
            exp = expand_in_schur(schur_in_F(lam))
            assert exp.coeffs == {lam: 1}


def test_expand_in_P_full_rank_through_eight():
    for n in range(1, 9):
        for lam in strict_partitions_of(n):
            exp = expand_in_P(P_in_G(lam))
            assert isinstance(exp, PExpansion)
            assert exp.coeffs == {lam: 1}


def test_expand_in_schur_not_symmetric_witness():
    bad = F(3, (1,))  # F_{1} alone is not symmetric
    res = expand_in_schur(bad)
    assert isinstance(res, NotSymmetric)
    assert res.residual != 0


def test_expand_in_P_not_in_span_witness():
    bad = QSymG(5, {frozenset({2}): 1, frozenset({3}): 2})
    res = expand_in_P(bad)
    assert isinstance(res, NotInSpan)


def test_expand_handles_fractional_coefficients():
    # half a Schur function: exact rational coefficient, not integral
    f = schur_in_F((2, 1))
    doubled = f + f
    exp = expand_in_schur(doubled)
    assert exp.coeffs == {(2, 1): 2}
    assert exp.is_nonnegative_integral()
    # Q_(2,1) = 4 P_(2,1): expansion in P has coefficient 4
    exp = expand_in_P(P_in_G((2, 1)).scaled(4))
    assert exp.coeffs == {(2, 1): 4}


def test_specialization_identities_small():
    # F and monomial routes agree for all three kinds at small sizes
    for lam in [(2, 1), (3, 1), (3, 2)]:
        for k in (1, 2, 3):
            assert monomial_series("P", lam, k) == qsymf_specialize(P_in_F(lam), k)
            assert monomial_series("Q", lam, k) == qsymf_specialize(Q_in_F(lam), k)
    for lam in [(2, 1), (2, 2), (3, 1)]:
        for k in (1, 2, 3):
            assert monomial_series("s", lam, k) == qsymf_specialize(schur_in_F(lam), k)


def test_pinned_two_variable_polynomials():
    assert monomial_series("s", (3, 1), 2) == {(3, 1): 1, (2, 2): 1, (1, 3): 1}
    assert monomial_series("P", (3, 1), 2) == {(3, 1): 1, (2, 2): 2, (1, 3): 1}


def test_poly_render_order_and_format():
    lines = poly_render({(2, 1): 3, (1, 2): 1, (0, 0): 2})
    assert lines == ["3 x1^2 x2", "1 x1 x2^2", "2 1"]


def test_parse_expansion_roundtrips():
    f = P_in_F((3, 1))
    assert parse_expansion("\n".join(f.render()), n=4) == f
    g = P_in_G((3, 2))
    assert parse_expansion("\n".join(g.render()), n=5) == g
    exp = expand_in_schur(P_in_F((3, 1)))
    back = parse_expansion("\n".join(exp.render()))
    assert back.coeffs == exp.coeffs
    pexp = expand_in_P(P_in_G((4, 2)))
    back = parse_expansion("\n".join(pexp.render()))
    assert back.coeffs == pexp.coeffs


def test_parse_expansion_rejects_mixed_bases():
    with pytest.raises(ValueError):
        parse_expansion("1 F{1}\n1 s[2,1]", n=3)


def test_parse_expansion_rejects_malformed_terms():
    with pytest.raises(ValueError):
        parse_expansion("1  ")
    for text in ("1 P[2,2]", "1 s[1,2]", "1 s[0]"):
        with pytest.raises(InvalidShapeError):
            parse_expansion(text)


@st.composite
def rendered_vectors(draw):
    letter = draw(st.sampled_from("sPFG"))
    n = draw(st.integers(0, 7))
    if letter in "sP":
        keys = partitions_of(n) if letter == "s" else strict_partitions_of(n)
        cls = SchurExpansion if letter == "s" else PExpansion
    elif letter == "F":
        keys, cls = descent_subsets(n), QSymF
    else:
        keys, cls = peak_sets(n), QSymG
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
    return cls(n, {k: draw(st.integers(-5, 5).filter(bool)) for k in chosen})


@given(rendered_vectors())
@settings(max_examples=200, deadline=None)
def test_parse_expansion_round_trips_rendered_output(vec):
    assert parse_expansion("\n".join(vec.render()), n=vec.n) == vec


@given(
    st.one_of(st.text(max_size=40), st.text("0123456789-+ ,{}[]FGsPx\n", max_size=40)),
    st.one_of(st.none(), st.integers(0, 6)),
)
@settings(max_examples=300, deadline=None)
def test_parse_expansion_raises_only_value_errors(text, n):
    try:
        vec = parse_expansion(text, n)
    except ValueError:
        return
    if isinstance(vec, QSymF):
        assert all(set(k) <= set(range(1, n)) for k in vec.coeffs)
    elif isinstance(vec, QSymG):
        assert all(is_peak_set(k, n) for k in vec.coeffs)


@given(
    st.sampled_from("FG"),
    st.integers(-2, 7),
    st.frozensets(st.integers(-2, 9), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_parse_expansion_accepts_only_keys_of_the_degree(letter, n, key):
    text = f"1 {letter}{{{','.join(map(str, sorted(key)))}}}"
    valid = n >= 0 and (
        set(key) <= set(range(1, n)) if letter == "F" else is_peak_set(key, n)
    )
    if valid:
        assert parse_expansion(text, n).coeffs == {key: 1}
    else:
        with pytest.raises(ValueError):
            parse_expansion(text, n)


def test_parse_expansion_drops_zero_coefficients():
    assert parse_expansion("0 s[1]") == SchurExpansion(1, {})
    assert parse_expansion("2 P[2,1]\n-2 P[2,1]\n1 P[3]") == PExpansion(3, {(3,): 1})


def test_qsym_vector_arithmetic():
    a = F(3, (1,))
    bvec = F(3, (2,))
    total = a + bvec
    assert total.coeffs == {frozenset({1}): 1, frozenset({2}): 1}
    assert (a + a.scaled(-1)).coeffs == {}
    with pytest.raises(ValueError):
        a + F(4, (1,))


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_random_F_vectors_expand_consistently(n, data):
    # expansion in Schur basis, when it exists, reproduces the vector
    shapes = partitions_of(n)
    coeffs = {
        lam: data.draw(st.integers(0, 3)) for lam in shapes
    }
    vec = QSymF(n, {})
    for lam, c in coeffs.items():
        if c:
            vec = vec + schur_in_F(lam).scaled(c)
    exp = expand_in_schur(vec)
    assert isinstance(exp, SchurExpansion)
    assert exp.coeffs == {lam: c for lam, c in coeffs.items() if c}
