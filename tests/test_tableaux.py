from math import factorial

from hypothesis import given, settings, strategies as st
import pytest

from dualeq.core import InternalInvariantError, strict_partitions_of, partitions_of
from dualeq.tableaux import (
    Tableau,
    _from_placement,
    check_tableau,
    descent_set_tab,
    descent_set_word,
    enumerate_shssyt,
    enumerate_shsyt,
    enumerate_signed_standard,
    enumerate_ssyt,
    enumerate_syt,
    format_tableau,
    is_standard,
    is_valid_tableau,
    monomial_weight,
    parse_tableau,
    parse_word,
    reading_word,
    standardize,
    tableau,
    word_str,
)


def hook_count(shape):
    """Number of SYT by the hook length formula."""
    n = sum(shape)
    cols = [0] * (shape[0] if shape else 0)
    for row in shape:
        for c in range(row):
            cols[c] += 1
    prod = 1
    for r, row in enumerate(shape):
        for c in range(row):
            arm = row - c - 1
            leg = cols[c] - r - 1
            prod *= arm + leg + 1
    return factorial(n) // prod


def shifted_count(shape):
    """Number of standard shifted tableaux of a strict shape."""
    n = sum(shape)
    num = factorial(n)
    for p in shape:
        num //= factorial(p)
    frac_num, frac_den = 1, 1
    for a in range(len(shape)):
        for b in range(a + 1, len(shape)):
            frac_num *= shape[a] - shape[b]
            frac_den *= shape[a] + shape[b]
    return num * frac_num // frac_den


def test_syt_counts_match_hook_formula():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert len(enumerate_syt(lam)) == hook_count(lam)


def test_shsyt_counts_match_shifted_formula():
    for n in range(1, 9):
        for lam in strict_partitions_of(n):
            assert len(enumerate_shsyt(lam)) == shifted_count(lam)


def test_shsyt_pinned_counts():
    assert len(enumerate_shsyt((3, 1))) == 2
    assert len(enumerate_shsyt((4, 2, 1))) == 7
    assert len(enumerate_shsyt((6, 1))) == 5
    assert len(enumerate_shsyt((5, 2))) == 9
    assert len(enumerate_shsyt((4, 3))) == 5


def test_signed_standard_counts():
    # each non-diagonal cell can be primed; with diagonal primes every cell can
    for lam in [(3, 1), (3, 2), (4, 2, 1)]:
        n = sum(lam)
        k = len(lam)
        base = len(enumerate_shsyt(lam))
        assert len(enumerate_signed_standard(lam, False)) == base * 2 ** (n - k)
        assert len(enumerate_signed_standard(lam, True)) == base * 2 ** n


def test_signed_standard_validity_and_uniqueness():
    seen = set()
    for T in enumerate_signed_standard((3, 2), True):
        assert is_valid_tableau(T) and is_standard(T)
        w = reading_word(T)
        assert w not in seen
        seen.add(w)


def test_shifted_shape_five_reading_words():
    words = {word_str(reading_word(T)) for T in enumerate_shsyt((4, 1))}
    assert words == {"31245", "41235", "51234"}
    words = {word_str(reading_word(T)) for T in enumerate_shsyt((3, 2))}
    assert words == {"35124", "45123"}


def test_descent_sets_of_shifted_pair():
    by_word = {
        word_str(reading_word(T)): descent_set_tab(T)
        for T in enumerate_shsyt((3, 2))
    }
    assert by_word["35124"] == frozenset({2, 4})
    assert by_word["45123"] == frozenset({3})


def test_descent_set_word_signed_rules():
    # i descends when unprimed i sits right of i+1, or primed i+1 right of i
    assert descent_set_word(parse_word("1243'56'")) == frozenset({2, 5})
    assert descent_set_word(parse_word("312")) == frozenset({2})
    assert descent_set_word(parse_word("31'2")) == frozenset({2})
    assert descent_set_word(parse_word("3'12'")) == frozenset({1})


def test_ssyt_enumeration_weights_match_schur():
    # s_(2,1) in 2 variables: x1^2 x2 + x1 x2^2
    tabs = enumerate_ssyt((2, 1), 2)
    weights = sorted(monomial_weight(T) for T in tabs)
    assert weights == [(1, 2), (2, 1)]


def test_shssyt_q_vs_p_variant_counts():
    # Q allows diagonal primes: each tableau of the P-variant lifts 2^(diag) ways
    p_tabs = enumerate_shssyt((2, 1), 2, False)
    q_tabs = enumerate_shssyt((2, 1), 2, True)
    assert len(q_tabs) == 4 * len(p_tabs)


def test_standardize_word_rules():
    # primed copies rank right-to-left among equals, unprimed left-to-right
    assert standardize((1, 1, 1)) == (1, 2, 3)
    assert standardize((-1, -1, 1)) == (-2, -1, 3)
    assert standardize((2, -1, 2, -2)) == (3, -1, 4, -2)
    # standard words are fixed points
    assert standardize((3, -1, 4, -2)) == (3, -1, 4, -2)


def test_format_parse_roundtrip():
    for T in enumerate_signed_standard((3, 1), True):
        assert parse_tableau(format_tableau(T), "shifted") == T
    for T in enumerate_syt((3, 2)):
        assert parse_tableau(format_tableau(T), "straight") == T


def test_word_str_parse_word_roundtrip():
    for w in [(3, 1, 2), (-3, 1, -2), (6, 3, 5, 1, 2, -4)]:
        assert parse_word(word_str(w)) == w
    assert parse_word("10',3,2,1,4,5,6,7,8,9") == (-10, 3, 2, 1, 4, 5, 6, 7, 8, 9)


def test_check_tableau_rejects_bad_fillings():
    with pytest.raises(ValueError):
        check_tableau(tableau("straight", ((2, 1),)))
    with pytest.raises(ValueError):
        check_tableau(tableau("shifted", ((1, 2), (2,))))  # column repeat


@given(st.sampled_from([lam for n in range(2, 7) for lam in strict_partitions_of(n)]))
@settings(max_examples=30, deadline=None)
def test_reading_words_determine_tableaux(lam):
    words = [reading_word(T) for T in enumerate_shsyt(lam)]
    assert len(set(words)) == len(words)


@pytest.mark.parametrize("text", ["1''", "21''3", "'1", "0", "30", "2,0", "0'"])
def test_parse_word_compact_form_parses_each_entry(text):
    # both forms share parse_entry: no doubled prime, no zero
    with pytest.raises(ValueError):
        parse_word(text)


def test_from_placement_rejects_a_nonstandard_placement():
    # 1 in row 2 above 2 in row 1: the column does not increase upward
    with pytest.raises(InternalInvariantError):
        _from_placement("straight", (1, 1), (1, 0))


@given(st.one_of(st.text(max_size=20), st.text("0123456789' ,", max_size=20)))
@settings(max_examples=300, deadline=None)
def test_parse_word_raises_only_value_errors(text):
    try:
        w = parse_word(text)
    except ValueError:
        return
    assert 0 not in w
    assert parse_word(word_str(w)) == w
