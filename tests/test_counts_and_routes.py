"""Tableau counts beside their enumerators, and the CLI's one vector route.

_standard_count must equal the length of _standard_words for the same
arguments, with the same shape errors, and _semistandard_count the length
of _semistandard_fillings (by hook-content if straight, by Schur's
Pfaffian if shifted).  The CLI's expand and specialize --via F|G
share one route (cli._vector_maker); its output is compared with an
in-test copy of the selection each verb made on its own before, and the
count it refuses by with the one each verb passed to ground_size.  Each
kind of qsym.KINDS and each ground of BUILTIN_GROUNDS states its walk's
arguments once: the count they give is checked against what is walked.
"""

import contextlib
import io
import random
import time
from itertools import permutations

import pytest

from dualeq import engine
from dualeq.cli import main
from dualeq.core import (
    is_strict_partition,
    partition_str,
    partitions_of,
    strict_partitions_of,
)
from dualeq.engine import BUILTIN_GROUNDS, ground_size
from dualeq.qsym import (
    KINDS,
    G_to_F,
    P_in_F,
    P_in_G,
    Q_in_F,
    expand,
    monomial_series,
    poly_render,
    qsymf_specialize,
    schur_in_F,
)
from dualeq.tableaux import (
    _determinant,
    _semistandard_fillings,
    _semistandard_count,
    _standard_count,
    _standard_words,
)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def outcome(f, *args):
    """f(*args), or the type and text of the error it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# --- counts ------------------------------------------------------------------


COUNT_CASES = (
    [(lam, strict, None) for n in range(9) for lam in partitions_of(n)
     for strict in (False, True)]  # strict=True on a non-strict shape: an error
    + [(lam, True, None) for n in range(9, 11) for lam in strict_partitions_of(n)]
    + [(lam, True, primes) for n in range(8) for lam in strict_partitions_of(n)
       for primes in (False, True)]
    + [(lam, strict, None) for lam in [(1, 2), (2, 0), (2, -3), (0,)]
       for strict in (False, True)]
)


def test_standard_count_is_the_number_of_standard_words():
    errors = 0
    for args in COUNT_CASES:
        got = outcome(_standard_count, *args)
        assert got == outcome(lambda *a: len(_standard_words(*a)), *args), args
        errors += isinstance(got, tuple)
    # strict=True on every non-strict partition of <= 8 cells, and the non-shapes
    non_strict = [lam for n in range(9) for lam in partitions_of(n)
                  if not is_strict_partition(lam)]
    assert errors == len(non_strict) + 8


SSYT_CASES = [(lam, k) for n in range(8) for lam in partitions_of(n) for k in range(6)]


def test_ssyt_count_is_the_number_of_straight_semistandard_fillings():
    assert len(SSYT_CASES) == 270
    for lam, k in SSYT_CASES:
        walked = sum(1 for _ in _semistandard_fillings(lam, k, False))
        assert _semistandard_count(lam, k, False) == walked, (lam, k)


@pytest.mark.parametrize("shape, k", [((2, 1), -1), ((1, 2), 3), ((), -1), ((2, 0), 1)])
def test_ssyt_count_refuses_what_the_walk_refuses(shape, k):
    got = outcome(_semistandard_count, shape, k, False)
    assert got == outcome(_semistandard_fillings, shape, k, False)


SHSSYT_CASES = [(lam, k, primes) for n in range(9) for lam in strict_partitions_of(n)
                for k in range(6) for primes in (False, True)]


def test_shssyt_count_is_the_number_of_shifted_semistandard_fillings():
    assert len(SHSSYT_CASES) == 300
    for lam, k, primes in SHSSYT_CASES:
        walked = sum(1 for _ in _semistandard_fillings(lam, k, True, primes))
        assert _semistandard_count(lam, k, True, primes) == walked, (lam, k, primes)
    # the walk's count of enumerate shssyt '[4,3,1]' --max 6 --diagonal-primes
    assert _semistandard_count((4, 3, 1), 6, True, True) == 104448


@pytest.mark.parametrize("primes", [False, True])
@pytest.mark.parametrize("shape, k", [
    ((2, 1), -1), ((1, 2), 3), ((2, 2), 1), ((), -1), ((2, 0), 1), ((3, -1), 2),
])
def test_shssyt_count_refuses_what_the_walk_refuses(shape, k, primes):
    got = outcome(_semistandard_count, shape, k, True, primes)
    assert isinstance(got, tuple)
    assert got == outcome(_semistandard_fillings, shape, k, True, primes)


def test_shssyt_count_of_the_largest_admitted_requests_is_quick():
    # the 31-row staircase has 496 cells, within the degree limit of 500,
    # and 2^31 strict sub-shapes; 10^6 is the largest --max or --vars
    start = time.perf_counter()
    assert _semistandard_count(tuple(range(31, 0, -1)), 10**6, True, True) > 10**6
    assert time.perf_counter() - start < 10
    start = time.perf_counter()
    assert _semistandard_count((500,), 10**6, True, False) > 10**6
    assert time.perf_counter() - start < 1


def leibniz_determinant(m):
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def test_determinant_equals_the_leibniz_expansion():
    # sparse matrices, so that pivots are often zero and rows are swapped
    rng = random.Random("bareiss")
    for _ in range(400):
        size = rng.randint(0, 5)
        m = [[rng.choice([0, 0, 0, 1, -1, 2, -3, 7]) for _ in range(size)]
             for _ in range(size)]
        assert _determinant([row[:] for row in m]) == leibniz_determinant(m), m


# --- each family's arguments, stated once ------------------------------------


def shapes_of(strict, cells):
    """Every shape of at most cells cells, strict if strict."""
    return [lam for n in range(cells + 1)
            for lam in (strict_partitions_of if strict else partitions_of)(n)]


F_VECTORS = {"s": schur_in_F, "P": P_in_F, "Q": Q_in_F}


@pytest.mark.parametrize("kind", KINDS)
def test_a_kinds_standard_count_is_the_sum_of_its_F_vector(kind):
    for lam in shapes_of(KINDS[kind][0], 7):
        vector = F_VECTORS[kind](lam)
        assert _standard_count(lam, *KINDS[kind]) == sum(vector.coeffs.values()), lam


@pytest.mark.parametrize("kind", KINDS)
def test_a_kinds_semistandard_count_is_the_sum_of_its_monomials(kind):
    for lam in shapes_of(KINDS[kind][0], 7):
        for k in range(4):
            series = monomial_series(kind, lam, k)
            assert _semistandard_count(lam, k, *KINDS[kind]) == sum(series.values()), (lam, k)


GROUND_PARAMS = {
    "perm": range(8),
    "signedperm": range(6),
    "syt": shapes_of(False, 8),
    "shsyt": shapes_of(True, 8),
    "signed-shsyt": shapes_of(True, 8),
}


@pytest.mark.parametrize("ground, family", BUILTIN_GROUNDS)
def test_a_grounds_count_is_the_number_of_its_words(ground, family):
    # a signed ground has 2^f signed words per unsigned one, f its sign positions
    _, words, count, _, signs = BUILTIN_GROUNDS[ground, family]
    for param in GROUND_PARAMS[ground]:
        free = signs(param) if signs else lambda w: ()
        assert count(param) == sum(1 << len(free(w)) for w in words(param)), param


# --- the vector route --------------------------------------------------------


def old_expand_lines(kind, shape, basis, schur_of):
    """cmd_expand's own choice of vector before the shared route."""
    in_F = {"schur": schur_in_F, "P": P_in_F, "Q": Q_in_F}[kind]
    if schur_of:
        return expand(in_F(shape)).render()
    if basis == "G":
        vec = P_in_G(shape)
        if kind == "Q":
            vec = vec.scaled(2 ** len(shape))
        return vec.render()
    return in_F(shape).render()


def old_specialize_lines(kind, shape, via, k):
    """cmd_specialize's own choice of F-vector before the shared route."""
    if via == "G":
        f = G_to_F(P_in_G(shape)).scaled(2 ** len(shape) if kind == "Q" else 1)
    else:
        f = {"s": schur_in_F, "P": P_in_F, "Q": Q_in_F}[kind](shape)
    return poly_render(qsymf_specialize(f, k))


def old_count(kind, shape, strict, by_peaks):
    """The tableau count each verb refused by: ground_size, read through a
    ground -> family map, times 2^rows with primed diagonals (Q in F)."""
    signed = None if by_peaks or not strict else kind == "Q"
    ground = "signed-shsyt" if signed is not None else "shsyt" if strict else "syt"
    family = {"syt": "d", "shsyt": "b", "signed-shsyt": "psi"}[ground]
    return ground_size((ground, shape, family)) << len(shape) * bool(signed)


def kind_shapes(kinds):
    for kind in kinds:
        for lam in shapes_of(kind in ("P", "Q"), 6):
            yield kind, lam


EXPAND_CASES = [
    (kind, lam, basis, schur_of)
    for kind, lam in kind_shapes(("schur", "P", "Q"))
    for basis in ("F", "G")
    for schur_of in (False, True)
]


def expand_argv(kind, lam, basis, schur_of):
    return ("expand", kind, partition_str(lam), "--basis", basis) + ("--schur-of",) * schur_of


@pytest.mark.parametrize("kind, lam, basis, schur_of", EXPAND_CASES)
def test_expand_route_prints_what_each_verb_chose(kind, lam, basis, schur_of):
    code, out, err = run(*expand_argv(kind, lam, basis, schur_of))
    if kind == "schur" and basis == "G" and not schur_of:
        assert (code, out) == (2, "") and "no G-basis expansion" in err
        return
    assert (code, err) == (0, "")
    assert out.splitlines() == old_expand_lines(kind, lam, basis, schur_of)


SPECIALIZE_CASES = [
    (kind, lam, via, k)
    for kind, lam in kind_shapes(("s", "P", "Q"))
    for via in ("F",) + ("G",) * (kind != "s")
    for k in range(4)
]


@pytest.mark.parametrize("kind, lam, via, k", SPECIALIZE_CASES)
def test_specialize_route_prints_what_the_verb_chose(kind, lam, via, k):
    code, out, err = run("specialize", "--kind", kind, "--shape", partition_str(lam),
                         "--vars", str(k), "--via", via)
    assert (code, err) == (0, "")
    assert out.splitlines() == old_specialize_lines(kind, lam, via, k)


def test_route_refuses_by_the_count_each_verb_used(monkeypatch):
    monkeypatch.setattr(engine, "MAX_GROUND_OBJECTS", 0)  # every request refused
    argvs = [(expand_argv(*case), case[0], case[1], case[2] == "G" and not case[3])
             for case in EXPAND_CASES if case[0] != "schur" or case[2] == "F" or case[3]]
    argvs += [(("specialize", "--kind", kind, "--shape", partition_str(lam), "--vars", "2",
                "--via", via), kind, lam, via == "G")
              for kind, lam, via, k in SPECIALIZE_CASES if k == 2]
    for argv, kind, lam, by_peaks in argvs:
        count = old_count(kind, lam, kind in ("P", "Q"), by_peaks)
        assert run(*argv) == (2, "", f"error: {kind} {partition_str(lam)} has {count} "
                                     f"objects, above the limit 0\n"), argv
