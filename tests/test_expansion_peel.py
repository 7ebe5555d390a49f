"""The basis expansions against an independent exact solver, and the
unitriangularity they rely on, for every degree n <= 10.

expand_in_schur / expand_in_P read each coefficient off the vector at the
leading key D(mu) (the partial sums of mu without n), shapes taken in
decreasing lexicographic order.  That is only sound when the coefficient
of the leading key D(mu) in the basis vector of lam is 1 for lam == mu and
0 unless lam dominates mu; test_leading_keys_are_unitriangular checks this
exhaustively.  test_expansions_match_sympy compares verdicts and
coefficients with sympy's Gauss-Jordan solve over the rationals.  The peel
visits only the shapes whose leading key holds a nonzero residual;
test_peel_equals_the_all_shapes_peel compares it with an in-test copy of
the peel that walked every shape of the degree.
"""

import random
from collections import Counter
from itertools import accumulate

import pytest

from dualeq.core import partitions_of, strict_partitions_of
from dualeq.qsym import (
    NotInSpan,
    NotSymmetric,
    P_in_G,
    PExpansion,
    QSymF,
    QSymG,
    SchurExpansion,
    _peel,
    expand_in_P,
    expand_in_schur,
    schur_in_F,
)
from test_qsym import descent_subsets

MAX_N = 10

# basis name -> (shapes of degree n, basis vector, vector class, expander,
#                expansion class, failure class)
BASES = {
    "schur": (partitions_of, schur_in_F, QSymF, expand_in_schur,
              SchurExpansion, NotSymmetric),
    "P": (strict_partitions_of, P_in_G, QSymG, expand_in_P,
          PExpansion, NotInSpan),
}


def leading_key(shape):
    return frozenset(accumulate(shape[:-1]))


def dominates(lam, mu):
    """lam >= mu in dominance order (both partitions of the same n)."""
    return all(a >= b for a, b in zip(accumulate(lam), accumulate(mu)))


@pytest.mark.parametrize("basis", sorted(BASES))
def test_leading_keys_are_unitriangular(basis):
    shapes_of, vector = BASES[basis][:2]
    for n in range(1, MAX_N + 1):
        shapes = shapes_of(n)
        coeffs = {lam: vector(lam).coeffs for lam in shapes}
        for pos, mu in enumerate(shapes):
            lead = leading_key(mu)
            assert max(lead, default=0) <= n - 1
            for lam in shapes:
                c = coeffs[lam].get(lead, 0)
                if lam == mu:
                    assert c == 1, (lam, mu)
                elif not dominates(lam, mu):
                    assert c == 0, (lam, mu)
            # decreasing lex order lists every shape dominating mu first
            assert all(not dominates(lam, mu) for lam in shapes[pos + 1:])


def _test_vectors(n, shapes, vectors, rng):
    """Two lists of integer vectors: the basis vectors and random integer
    combinations of them (negative coefficients included), which lie in the
    span; then those combinations perturbed at one key, and sparse random
    vectors, which mostly do not."""
    keys = descent_subsets(n)
    combos = [{lam: 1} for lam in shapes]
    combos += [{lam: rng.randint(-3, 3) for lam in shapes} for _ in range(8)]
    inside = []
    for combo in combos:
        vec = {}
        for lam, c in combo.items():
            for k, v in vectors[lam].items():
                vec[k] = vec.get(k, 0) + c * v
        inside.append(vec)
    others = []
    for vec in inside[len(shapes):]:
        bumped = dict(vec)
        k = rng.choice(keys)
        bumped[k] = bumped.get(k, 0) + rng.choice([-2, -1, 1, 2])
        others.append(bumped)
    for _ in range(4):
        others.append({rng.choice(keys): rng.randint(-3, 3) for _ in range(3)})
    return inside, others


def _sympy_solve(sympy, matrix, shapes, keys, vecs):
    """Coefficients of each vector over the columns of matrix (one column
    per shape), by sympy's Gauss-Jordan solve over the rationals; None for
    a vector outside their span.  All vectors are solved in one call, or
    one at a time when that call finds no solution."""
    rhs = sympy.Matrix([[vec.get(k, 0) for vec in vecs] for k in keys])
    try:
        solution, params = matrix.gauss_jordan_solve(rhs)
    except ValueError:
        if len(vecs) == 1:
            return [None]
        return [_sympy_solve(sympy, matrix, shapes, keys, [v])[0] for v in vecs]
    assert params.shape[0] == 0  # full column rank
    assert all(c.is_integer for c in solution)
    return [
        {lam: int(c) for lam, c in zip(shapes, solution.col(j)) if c != 0}
        for j in range(len(vecs))
    ]


@pytest.mark.parametrize("basis", sorted(BASES))
def test_expansions_match_sympy(basis):
    sympy = pytest.importorskip("sympy")
    shapes_of, vector, vec_cls, expand, exp_cls, fail_cls = BASES[basis]
    rng = random.Random(f"peel-{basis}")
    for n in range(1, MAX_N + 1):
        shapes = shapes_of(n)
        keys = descent_subsets(n)
        vectors = {lam: vector(lam).coeffs for lam in shapes}
        matrix = sympy.Matrix(
            [[vectors[lam].get(k, 0) for lam in shapes] for k in keys]
        )
        inside, others = _test_vectors(n, shapes, vectors, rng)
        for group in (inside, others):
            wants = _sympy_solve(sympy, matrix, shapes, keys, group)
            for vec, want in zip(group, wants):
                got = expand(vec_cls(n, vec))
                if want is None:
                    assert isinstance(got, fail_cls), (n, vec)
                    assert got.residual != 0 and got.witness in keys
                else:
                    assert isinstance(got, exp_cls), (n, vec)
                    assert got.coeffs == want


def all_shapes_peel(vec, shapes, basis_vector):
    """The peel as it was when it walked every shape of the degree, in
    decreasing lexicographic order."""
    residual = Counter(vec.coeffs)
    coeffs = {}
    for mu in shapes:
        c = residual[leading_key(mu)]
        if c:
            coeffs[mu] = c
            for key, v in basis_vector(mu).coeffs.items():
                residual[key] -= c * v
    bad = [key for key, v in residual.items() if v]
    if bad:
        witness = min(bad, key=lambda key: (len(key), sorted(key)))
        return None, (witness, residual[witness])
    return coeffs, None


@pytest.mark.parametrize("basis", sorted(BASES))
def test_peel_equals_the_all_shapes_peel(basis):
    shapes_of, vector, vec_cls = BASES[basis][:3]
    strict = basis == "P"
    rng = random.Random(f"all-shapes-{basis}")
    checked = 0
    for n in range(9):
        shapes = shapes_of(n)
        vectors = {lam: vector(lam).coeffs for lam in shapes}
        inside, others = _test_vectors(n, shapes, vectors, rng)
        # keys outside 1..n-1 lead no shape and stay in the residual
        others += [{frozenset({n}): 1}, {frozenset({0, n}): -2, frozenset(): 1}, {}]
        for vec in inside + others:
            vec = vec_cls(n, vec)
            assert _peel(vec, strict, vector) == all_shapes_peel(vec, shapes, vector)
            checked += 1
    assert checked > 200
