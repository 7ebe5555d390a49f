from math import factorial

from hypothesis import given, settings, strategies as st
import pytest

from dualeq.core import InternalInvariantError, strict_partitions_of, partitions_of
from dualeq.qsym import monomial_series
from dualeq.tableaux import (
    Tableau,
    _checked_words,
    _standard_words,
    check_tableau,
    descent_set_tab,
    descent_set_word,
    entry_key,
    enumerate_shssyt,
    enumerate_shsyt,
    enumerate_signed_standard,
    enumerate_ssyt,
    enumerate_syt,
    format_tableau,
    is_standard,
    parse_tableau,
    reading_word,
    tableau,
    word_str,
)
from test_word_layer import is_valid_tableau, parse_word


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
    assert monomial_series("s", (2, 1), 2) == {(1, 2): 1, (2, 1): 1}
    assert [T.rows for T in enumerate_ssyt((2, 1), 2)] == [((1, 1), (2,)), ((1, 2), (2,))]


def test_shssyt_q_vs_p_variant_counts():
    # Q allows diagonal primes: each tableau of the P-variant lifts 2^(diag) ways
    p_tabs = enumerate_shssyt((2, 1), 2, False)
    q_tabs = enumerate_shssyt((2, 1), 2, True)
    assert len(q_tabs) == 4 * len(p_tabs)


def standardize(w):
    """Standardize a signed word with repeats into a signed permutation word.

    Entries are ranked in the primed order 1' < 1 < 2' < 2 < ...; among equal
    entries, primed copies are ranked right to left and unprimed copies left
    to right.  Primes stay on their positions.
    """
    order = sorted(
        range(len(w)), key=lambda p: (entry_key(w[p]), -p if w[p] < 0 else p)
    )
    out = [0] * len(w)
    for rank, p in enumerate(order, 1):
        out[p] = -rank if w[p] < 0 else rank
    return tuple(out)


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


@pytest.mark.parametrize("w, text", [
    ((), ""),
    ((3, 1, 2), "312"),
    ((-3, 1, -2), "3'12'"),
    ((9, -9), "99'"),
    ((-10,), "10',"),
    ((12,), "12,"),
    ((10, -3), "10,3'"),
    ((-3, 10, 1), "3',10,1"),
    ((10,), "10,"),
    ((-12,), "12',"),
    ((3, 10), "3,10"),
])
def test_word_str_forms(w, text):
    # the comma form as soon as one letter, primed or not, has two digits
    assert word_str(w) == text
    assert parse_word(text) == w


def test_check_tableau_rejects_bad_fillings():
    with pytest.raises(ValueError):
        check_tableau(tableau("straight", ((2, 1),)))
    with pytest.raises(ValueError):
        check_tableau(tableau("shifted", ((1, 2), (2,))))  # column repeat
    with pytest.raises(ValueError, match=r"entry 0 not allowed in cell \(1, 1\)"):
        check_tableau(tableau("straight", ((0, 1),)))  # entries start at 1


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


def test_word_check_rejects_a_nonstandard_word():
    good = [(2, 1)]  # 1 below 2 in the straight shape (1, 1)
    assert _checked_words(good, (1, 1), False) is good
    for word, shape, shifted in [
        ((1, 2), (1, 1), False),  # 1 in row 2 above 2 in row 1
        ((2, 1, 3), (2, 1), True),  # 2 in row 2 above the 3 of row 1
        ((-1, 2), (2,), False),  # a prime on a straight shape
        ((1, 1), (2,), True),  # a repeated value
        ((1, 2), (3,), False),  # too short for the shape
    ]:
        with pytest.raises(InternalInvariantError):
            _checked_words([word], shape, shifted)


@given(st.one_of(st.text(max_size=20), st.text("0123456789' ,", max_size=20)))
@settings(max_examples=300, deadline=None)
def test_parse_word_raises_only_value_errors(text):
    try:
        w = parse_word(text)
    except ValueError:
        return
    assert 0 not in w
    assert parse_word(word_str(w)) == w


# --- the enumerators against the placement path they replaced ---


def _removal_rows_ref(shape, strict):
    rows = []
    for r in range(len(shape)):
        w = shape[r] - 1
        if r + 1 < len(shape):
            nxt = shape[r + 1]
            ok = w >= nxt + 1 if strict else w >= nxt
        else:
            ok = w >= 0
        if ok:
            rows.append(r)
    return rows


def _standard_fillings_ref(shape, strict):
    """Row index (0-based) of each of 1..n, for every standard filling of shape."""
    shape = tuple(shape)
    n = sum(shape)
    if n == 0:
        return [()]
    out = []
    for r in _removal_rows_ref(shape, strict):
        smaller = tuple(
            p - 1 if idx == r else p for idx, p in enumerate(shape) if idx != r or p > 1
        )
        for placement in _standard_fillings_ref(smaller, strict):
            out.append(placement + (r,))
    return out


def _from_placement_ref(kind, shape, placement, signs=None):
    """The tableau with value v in row placement[v-1] (0-based), primed when
    v is in signs, checked against check_tableau."""
    rows = [[] for _ in shape]
    for value, r in enumerate(placement, 1):
        e = -value if signs and value in signs else value
        rows[r].append(e)
    T = tableau(kind, rows)
    assert is_valid_tableau(T)
    return T


def _signed_ref(shape, diagonal_primes):
    out = []
    for placement in _standard_fillings_ref(shape, True):
        free = []
        col_pos = [0] * len(shape)
        for value, r in enumerate(placement, 1):
            col = (r + 1) + col_pos[r]
            col_pos[r] += 1
            if diagonal_primes or col != r + 1:
                free.append(value)
        for mask in range(1 << len(free)):
            signs = {free[b] for b in range(len(free)) if mask >> b & 1}
            out.append(_from_placement_ref("shifted", shape, placement, signs))
    return out


def _same_lists(ref, tabs, words):
    # in order: the tableaux, and the reading words they are split from
    assert [reading_word(T) for T in ref] == words
    assert tabs == ref


@pytest.mark.parametrize("n", range(10))
def test_syt_match_the_placement_path(n):
    for lam in partitions_of(n):
        ref = [_from_placement_ref("straight", lam, p)
               for p in _standard_fillings_ref(lam, False)]
        _same_lists(ref, enumerate_syt(lam), _standard_words(lam, False))


@pytest.mark.parametrize("n", range(13))
def test_shsyt_match_the_placement_path(n):
    for lam in strict_partitions_of(n):
        ref = [_from_placement_ref("shifted", lam, p)
               for p in _standard_fillings_ref(lam, True)]
        _same_lists(ref, enumerate_shsyt(lam), _standard_words(lam, True))


@pytest.mark.parametrize("n", range(8))
@pytest.mark.parametrize("diagonal_primes", [False, True])
def test_signed_standard_match_the_placement_path(n, diagonal_primes):
    for lam in strict_partitions_of(n):
        _same_lists(
            _signed_ref(lam, diagonal_primes),
            enumerate_signed_standard(lam, diagonal_primes),
            _standard_words(lam, True, diagonal_primes),
        )


def test_the_empty_shape_has_one_empty_word():
    for strict, signed in [(False, None), (True, None), (True, False), (True, True)]:
        assert _standard_words((), strict, signed) == [()]
    assert enumerate_syt(()) == [tableau("straight", ())]
    assert enumerate_shsyt(()) == enumerate_signed_standard((), True) == [
        tableau("shifted", ())
    ]
