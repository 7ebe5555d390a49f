from itertools import permutations, product

from hypothesis import given, settings, strategies as st
import pytest

from dualeq.core import peak_of, strict_partitions_of, partitions_of
from dualeq.involutions import b, b_tab, d, d_tab, phi, psi
from dualeq.tableaux import (
    descent_set_word,
    enumerate_shsyt,
    enumerate_signed_standard,
    enumerate_syt,
    reading_word,
    word_str,
)
from test_word_layer import parse_word, spike_of


def perms(n):
    return [tuple(p) for p in permutations(range(1, n + 1))]


def signed_perms(n):
    out = []
    for p in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            out.append(tuple(s * v for s, v in zip(signs, p)))
    return out


# --- d ---

def test_d_involutive_exhaustive():
    for n in range(3, 7):
        for w in perms(n):
            for i in range(2, n):
                assert d(i, d(i, w)) == w


def test_d_fixed_point_law():
    for n in range(3, 6):
        for w in perms(n):
            D = descent_set_word(w)
            for i in range(2, n):
                fixed = d(i, w) == w
                assert fixed == ((i - 1 in D) == (i in D))


def test_d_commutes_at_distance_three():
    for w in perms(6):
        assert d(2, d(5, w)) == d(5, d(2, w))


def test_d_examples():
    # middle letter of i-1,i,i+1 decides: i fixed; i-1 swaps i,i+1; i+1 swaps i-1,i
    assert d(2, (1, 3, 2)) == (2, 3, 1)
    assert d(2, (2, 3, 1)) == (1, 3, 2)
    assert d(2, (2, 1, 3)) == (3, 1, 2)
    assert d(2, (1, 2, 3)) == (1, 2, 3)


def test_d_rejects_bad_index():
    with pytest.raises(ValueError):
        d(1, (1, 2, 3))
    with pytest.raises(ValueError):
        d(3, (1, 2, 3))


# --- b ---

def test_b_involutive_exhaustive():
    for n in range(4, 8):
        for w in perms(n):
            for i in range(2, n - 1):
                assert b(i, b(i, w)) == w


def test_b_length_four_classes():
    fixed = {"1234", "2134", "2314", "2341", "3214", "3241", "3421", "4321"}
    pairs = {
        ("1243", "1342"), ("1324", "1423"), ("1432", "2431"), ("2143", "3142"),
        ("2413", "3412"), ("3124", "4123"), ("4132", "4231"), ("4213", "4312"),
    }
    for w in perms(4):
        img = b(2, w)
        if word_str(w) in fixed:
            assert img == w
        else:
            assert (word_str(w), word_str(img)) in pairs or (
                word_str(img), word_str(w)) in pairs


def test_b_candidate_moves_agree():
    # all applicable moves must produce the same image; exercised by sweeping
    for n in range(4, 8):
        for w in perms(n):
            for i in range(2, n - 1):
                b(i, w)  # raises InternalInvariantError on disagreement


def test_b_commutes_at_distance_four():
    for w in perms(8):
        assert b(2, b(6, w)) == b(6, b(2, w))


def test_b_triple_edge_word():
    w = (6, 4, 5, 1, 2, 3)
    v = (6, 3, 5, 1, 2, 4)
    assert b(2, w) == v and b(3, w) == v and b(4, w) == v


# --- phi ---

def test_phi_involutive_exhaustive():
    for n in range(3, 6):
        for w in signed_perms(n):
            for i in range(2, n):
                assert phi(i, phi(i, w)) == w


def test_phi_fixed_iff_no_spike():
    for n in range(3, 6):
        for w in signed_perms(n):
            S = spike_of(descent_set_word(w), n)
            for i in range(2, n):
                assert (phi(i, w) == w) == (i not in S)


def test_phi_commutes_at_distance_three():
    for w in signed_perms(6):
        assert phi(2, phi(5, w)) == phi(5, phi(2, w))


def test_phi_examples():
    # exactly one of b,c primed: toggle both; else swap values of a and c
    assert phi(2, (1, 2, -3)) == (1, -2, 3)
    assert phi(2, (1, -2, 3)) == (1, 2, -3)
    assert phi(2, (2, 3, 1)) == (1, 3, 2)


# --- d_tab / b_tab ---

def test_d_tab_involutive_and_valid():
    for n in range(3, 8):
        for lam in partitions_of(n):
            for T in enumerate_syt(lam):
                for i in range(2, n):
                    U = d_tab(i, T)
                    assert U.shape == T.shape
                    assert d_tab(i, U) == T


def test_b_tab_involutive_and_valid():
    for n in range(4, 9):
        for lam in strict_partitions_of(n):
            for T in enumerate_shsyt(lam):
                for i in range(2, n - 1):
                    U = b_tab(i, T)
                    assert U.shape == T.shape
                    assert b_tab(i, U) == T


def test_b_tab_triple_edge():
    (T,) = [S for S in enumerate_shsyt((3, 2, 1))
            if word_str(reading_word(S)) == "645123"]
    images = {word_str(reading_word(b_tab(i, T))) for i in (2, 3, 4)}
    assert images == {"635124"}


# --- psi ---

def signed_words(lam, diagonal_primes):
    return [reading_word(T) for T in enumerate_signed_standard(lam, diagonal_primes)]


def all_signed_words(max_cells, diagonal_primes=True):
    for n in range(3, max_cells + 1):
        for lam in strict_partitions_of(n):
            for w in signed_words(lam, diagonal_primes):
                yield n, lam, w


def test_psi_involutive_exhaustive():
    for n, lam, w in all_signed_words(7):
        for i in range(2, n):
            assert psi(i, psi(i, w, lam), lam) == w


def test_psi_fixed_iff_no_spike():
    for n, lam, w in all_signed_words(6):
        S = spike_of(descent_set_word(w), n)
        for i in range(2, n):
            assert (psi(i, w, lam) == w) == (i not in S)


def test_psi_preserves_unprimed_diagonal():
    # every image is the reading word of a tableau of the same shape whose
    # diagonal is unprimed
    for n in range(3, 8):
        for lam in strict_partitions_of(n):
            words = set(signed_words(lam, False))
            for w in words:
                for i in range(2, n):
                    assert psi(i, w, lam) in words, (lam, word_str(w), i)


def test_psi_stacked_column_uses_prime_swap():
    # all of 4,5,6 in one column: the prime toggle would break involutivity
    w = parse_word("635124'")
    assert w in signed_words((3, 2, 1), True)
    v = psi(5, w, (3, 2, 1))
    assert word_str(v) == "635'124"
    assert psi(5, v, (3, 2, 1)) == w


@pytest.mark.parametrize("i, w, shape", [
    (2, (3, 1, 2), (2,)),  # a spike at 2: the columns are read
    (2, (1, 2, 3), (2,)),  # no spike: the word would be returned as is
    (2, (3, 1, 2), (3, 1)),
])
def test_psi_rejects_a_shape_of_another_size(i, w, shape):
    with pytest.raises(ValueError, match=f"has {sum(shape)} cells but the word has length 3"):
        psi(i, w, shape)


def test_psi_commutes_at_distance_three():
    for lam in [(5, 1), (4, 2)]:
        for w in signed_words(lam, True):
            assert psi(2, psi(5, w, lam), lam) == psi(5, psi(2, w, lam), lam)


# --- descent/peak transport spot checks ---

def test_phi_flips_descent_membership_at_i():
    for w in signed_perms(4):
        for i in (2, 3):
            v = phi(i, w)
            if v == w:
                continue
            Dw, Dv = descent_set_word(w), descent_set_word(v)
            assert ((i - 1 in Dw), (i in Dw)) == ((i in Dv), (i - 1 in Dv))


def test_b_transports_peak_i_to_i_plus_one():
    for w in perms(5):
        for i in (2, 3):
            v = b(i, w)
            if v == w:
                continue
            Pw = peak_of(descent_set_word(w))
            Pv = peak_of(descent_set_word(v))
            assert (i in Pw) == (i + 1 in Pv)


@given(st.integers(3, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_random_involution_composition_identities(n, data):
    w = tuple(data.draw(st.permutations(range(1, n + 1))))
    i = data.draw(st.integers(2, n - 1))
    assert d(i, d(i, w)) == w
    if i < n - 1:
        assert b(i, b(i, w)) == w
    signs = data.draw(st.tuples(*[st.sampled_from((1, -1))] * n))
    sw = tuple(s * v for s, v in zip(signs, w))
    assert phi(i, phi(i, sw)) == sw
