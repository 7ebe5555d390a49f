from hypothesis import given, settings, strategies as st
import pytest

from dualeq.core import (
    InvalidShapeError,
    is_partition,
    is_strict_partition,
    is_peak_set,
    parse_partition,
    partition_str,
    partitions_of,
    peak_of,
    peak_sets,
    strict_partitions_of,
    subset_str,
)
from test_window_pass import restrict_descents, restrict_peaks
from test_word_layer import spike_of


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def descent_sets(n):
    from itertools import combinations
    out = []
    for k in range(n):
        out.extend(frozenset(c) for c in combinations(range(1, n), k))
    return out


def test_partitions_of_counts():
    # partition numbers p(0..10)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, want in enumerate(expected):
        assert len(partitions_of(n)) == want


def test_strict_partitions_of_counts():
    # distinct-part partition numbers q(1..10)
    expected = [1, 1, 2, 2, 3, 4, 5, 6, 8, 10]
    for n, want in zip(range(1, 11), expected):
        assert len(strict_partitions_of(n)) == want
        for lam in strict_partitions_of(n):
            assert is_strict_partition(lam) and sum(lam) == n


def test_partitions_decreasing_lex_order():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert strict_partitions_of(6) == [(6,), (5, 1), (4, 2), (3, 2, 1)]


def test_peak_spike_examples():
    D = frozenset({2, 3, 5})
    assert peak_of(D) == frozenset({2, 5})
    assert spike_of(D, 6) == frozenset({2, 4, 5})
    D = frozenset({2, 4, 5})
    assert peak_of(D) == frozenset({2, 4})
    assert spike_of(D, 6) == frozenset({2, 3, 4})


@given(st.integers(2, 9), st.data())
def test_peak_subset_of_spike_and_nonconsecutive(n, data):
    D = frozenset(data.draw(st.sets(st.integers(1, n - 1))))
    P = peak_of(D)
    S = spike_of(D, n)
    assert P - {1} <= S
    assert all(h + 1 not in P for h in P)


def test_peak_sets_fibonacci_dimension():
    for n in range(1, 13):
        assert len(peak_sets(n)) == fib(n)


def test_peak_sets_degree_zero_is_the_empty_shape():
    assert peak_sets(0) == (frozenset(),)
    with pytest.raises(ValueError):
        peak_sets(-1)


def test_peak_sets_are_valid_and_ordered():
    for n in range(1, 10):
        ps = peak_sets(n)
        assert len(set(ps)) == len(ps)
        for P in ps:
            assert is_peak_set(P, n)
        keys = [(len(P), sorted(P)) for P in ps]
        assert keys == sorted(keys)


def test_restrict_descents_window():
    # degree-n descent set restricted to window (j,i) lives in degree i-j+3
    D = frozenset({1, 3, 4, 6})
    out = restrict_descents(D, 3, 5, 7)
    assert out == frozenset({2, 3})  # {3,4} shifted down by j-2=1
    assert max(out, default=1) <= (5 - 3 + 3) - 1


def test_restrict_peaks_window_calibrated():
    P = frozenset({2, 4})
    # window (3,3): intersect with {3,4}, subtract 1
    assert restrict_peaks(P, 3, 3, 5) == frozenset({3})
    # literal variant intersects with {2,4} instead
    assert restrict_peaks(P, 3, 3, 5, literal=True) == frozenset({1, 3})


@given(st.integers(4, 9), st.data())
def test_restrict_peaks_calibrated_yields_valid_peak_sets(n, data):
    Ps = peak_sets(n)
    P = data.draw(st.sampled_from(Ps))
    j = data.draw(st.integers(2, n - 2))
    i = data.draw(st.integers(j, n - 2))
    out = restrict_peaks(P, j, i, n)
    assert is_peak_set(out, i - j + 4)


def test_subset_and_partition_strings():
    assert subset_str(frozenset({3, 1})) == "{1,3}"
    assert subset_str(frozenset()) == "{}"
    assert partition_str((3, 1)) == "[3,1]"
    assert parse_partition("[3,1]") == (3, 1)
    assert parse_partition("3,1") == (3, 1)
    assert is_partition(parse_partition("[4,2,1]"))


def test_parse_partition_rejects_garbage():
    # token syntax only; monotonicity is checked by is_partition
    assert not is_partition(parse_partition("[1,3]"))
    with pytest.raises(InvalidShapeError):
        parse_partition("[a]")
    with pytest.raises(InvalidShapeError):
        parse_partition("[3,1")


@given(st.one_of(st.text(max_size=20), st.text("0123456789[], -+", max_size=20)))
@settings(max_examples=300, deadline=None)
def test_parse_partition_raises_only_value_errors(text):
    try:
        shape = parse_partition(text)
    except ValueError:  # InvalidShapeError is one
        return
    assert parse_partition(partition_str(shape)) == shape
