"""The word layer against the code it replaced.

The moves apply one statement each to the block of letters they read, and
is_standard checks a tableau in one pass.  Here d, b, phi, psi and
descent_set_word are compared with the earlier dict-based versions, kept
below as the reference, on every word of an exhaustive small range, and
is_standard with the check_tableau-based definition.  Also: ground_size
refuses oversized grounds before any enumeration, and the build calls the
word check (is_standard's core) once per object and _inverse once per
unsigned word.  spike_of and parse_word, which the package no longer
exports, are kept here as references for the other test files.
"""

import sys
from itertools import permutations, product

import pytest

from dualeq import engine, involutions, tableaux
from dualeq.cli import main
from dualeq.core import (
    InternalInvariantError,
    InvalidShapeError,
    is_strict_partition,
    partitions_of,
    strict_partitions_of,
)
from dualeq.engine import build_ground, ground_size
from dualeq.involutions import _reading_columns, b, d, phi, psi
from dualeq.tableaux import (
    check_tableau,
    descent_set_word,
    enumerate_signed_standard,
    is_standard,
    parse_entry,
    reading_word,
    tableau,
    word_str,
)

# --- the reference: the moves as they were, on a position dict per call ---


def spike_of(D, n):
    """The spike set of a descent set of degree n: the i in {2..n-1} with
    exactly one of i-1, i in D (i = n is never a spike)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return frozenset(i for i in range(2, n) if (i - 1 in D) != (i in D))


def parse_word(text):
    """Read a word label back: "312", "3 1 2'" or "10',3,2"; in the compact
    form each letter is one entry with an optional prime."""
    text = text.strip()
    if "," in text or " " in text:
        toks = text.replace(",", " ").split()
    else:
        toks = []
        for ch in text:
            if ch != "'":
                toks.append(ch)
            elif toks and not toks[-1].endswith("'"):
                toks[-1] += ch
            else:
                raise ValueError(f"dangling prime in {text!r}")
    return tuple(parse_entry(t) for t in toks)


def _positions(w):
    return {abs(e): p for p, e in enumerate(w)}


def descent_set_ref(w):
    pos = {}
    for idx, e in enumerate(w):
        pos[abs(e)] = (idx, e < 0)
    out = set()
    for i in range(1, len(w)):
        pi, primed_i = pos[i]
        pj, primed_j = pos[i + 1]
        if (not primed_i and pi > pj) or (primed_j and pj > pi):
            out.add(i)
    return frozenset(out)


def _check_index(i, n, hi_offset):
    if not 1 < i < n - hi_offset:
        raise ValueError(f"index {i} out of range for a word of length {n}")


def d_ref(i, w):
    _check_index(i, len(w), 0)
    pos = _positions(w)
    middle = sorted((i - 1, i, i + 1), key=pos.__getitem__)[1]
    if middle == i:
        return tuple(w)
    u, v = (i, i + 1) if middle == i - 1 else (i - 1, i)
    out = list(w)
    out[pos[u]], out[pos[v]] = out[pos[v]], out[pos[u]]
    return tuple(out)


_B_MOVES = (
    lambda i: (i - 1, i, i + 1, i + 2),
    lambda i: (i, i + 1, i - 1, i + 2),
    lambda i: (i, i + 1, i + 2, i - 1),
    lambda i: (i + 1, i + 2, i, i - 1),
)


def b_ref(i, w):
    _check_index(i, len(w), 1)
    pos = _positions(w)
    results = []
    for move in _B_MOVES:
        x, y, c, dd = move(i)
        lo, hi = sorted((pos[x], pos[y]))
        if lo < pos[c] < hi and pos[dd] < pos[c]:
            out = list(w)
            out[pos[x]], out[pos[y]] = out[pos[y]], out[pos[x]]
            results.append(tuple(out))
    if not results:
        return tuple(w)
    first = results[0]
    if any(r != first for r in results[1:]):
        raise InternalInvariantError(
            f"disagreeing candidate moves for b({i}, {word_str(w)}): "
            + ", ".join(word_str(r) for r in results)
        )
    return first


def phi_ref(i, w):
    n = len(w)
    _check_index(i, n, 0)
    if i not in spike_of(descent_set_ref(w), n):
        return tuple(w)
    pa, pb, pc = sorted(_positions(w)[v] for v in (i - 1, i, i + 1))
    out = list(w)
    if (out[pb] < 0) != (out[pc] < 0):
        out[pb], out[pc] = -out[pb], -out[pc]
    else:
        sa = -1 if out[pa] < 0 else 1
        sc = -1 if out[pc] < 0 else 1
        out[pa], out[pc] = sa * abs(out[pc]), sc * abs(out[pa])
    return tuple(out)


def psi_ref(i, w, shape):
    n = len(w)
    _check_index(i, n, 0)
    col = _reading_columns(tuple(shape))
    if len(col) != n:
        raise ValueError(
            f"shape {list(shape)} has {len(col)} cells but the word has length {n}"
        )
    if i not in spike_of(descent_set_ref(w), n):
        return tuple(w)
    pa, pb, pc = sorted(_positions(w)[v] for v in (i - 1, i, i + 1))
    if col[pa] == col[pc] != col[pb]:
        out = list(w)
        out[pc] = -out[pc]
        return tuple(out)
    return phi_ref(i, w)


def perms(n):
    return list(permutations(range(1, n + 1)))


def signed_perms(n):
    return [s for w in perms(n) for s in product(*((v, -v) for v in w))]


# --- moves ---


@pytest.mark.parametrize("n", range(8))
def test_d_and_b_match_reference_on_every_permutation(n):
    for w in perms(n):
        assert descent_set_word(w) == descent_set_ref(w)
        for i in range(2, n):
            assert d(i, w) == d_ref(i, w), (i, w)
        for i in range(2, n - 1):
            assert b(i, w) == b_ref(i, w), (i, w)


def test_table_driven_b_matches_reference_on_every_permutation_of_eight():
    # n < 8 is checked above; the builds' table is checked entry by entry
    # in test_local_tables
    for w in perms(8):
        for i in range(2, 7):
            assert b(i, w) == b_ref(i, w), (i, w)


def test_b_table_holds_each_order_of_four_positions_once():
    table = involutions._table(involutions._b, 4)
    assert len(table) == 64
    rows = [involutions._block(table, 4, p, 1)[1] for p in permutations(range(4))]
    assert len({id(row) for row in rows}) == 24
    assert all(len(row) == 1 and row[0][1] == 0 and len(row[0][0]) in (0, 2) for row in rows)
    assert sum(row == [None] for row in table) == 40


@pytest.mark.parametrize("n", range(7))
def test_phi_matches_reference_on_every_signed_permutation(n):
    for w in signed_perms(n):
        assert descent_set_word(w) == descent_set_ref(w)
        for i in range(2, n):
            assert phi(i, w) == phi_ref(i, w), (i, w)


@pytest.mark.parametrize("n", range(9))
def test_psi_matches_reference_on_every_signed_shifted_reading_word(n):
    # diagonal primes allowed: a superset of the signed-shsyt ground's words
    for lam in strict_partitions_of(n):
        for T in enumerate_signed_standard(lam, True):
            w = reading_word(T)
            assert descent_set_word(w) == descent_set_ref(w)
            for i in range(2, n):
                assert psi(i, w, lam) == psi_ref(i, w, lam), (lam, i, w)


def test_b_raises_when_candidate_moves_disagree(monkeypatch):
    # no block makes the four moves disagree; a fifth one (swap 1 and 4
    # around 2, with 3 to the left of 2) does on 1324, the first block b's
    # table is made from.  b runs _b on its block, and a build reads b's
    # table, made again with the fifth move
    monkeypatch.setattr(involutions, "_B_MOVES", involutions._B_MOVES + ((1, 4, 2, 3),))
    involutions._table.cache_clear()
    try:
        with pytest.raises(InternalInvariantError) as info:
            b(2, (1, 3, 2, 4))
        assert str(info.value) == "disagreeing candidate moves for b on 1324: 1423, 4321"
        with pytest.raises(InternalInvariantError, match=r"on 1324: 1423, 4321$"):
            build_ground(("perm", 4, "b"))
    finally:
        involutions._table.cache_clear()


def test_moves_accept_lists_and_return_tuples():
    assert d(2, [2, 1, 3]) == d_ref(2, [2, 1, 3]) == (3, 1, 2)
    assert b(2, [1, 2, 4, 3]) == (1, 3, 4, 2)
    assert phi(2, [1, 2, 3]) == (1, 2, 3)
    assert psi(2, [3, 1, 2], (2, 1)) == psi_ref(2, [3, 1, 2], (2, 1))


def raised(f, *args):
    with pytest.raises(ValueError) as info:
        f(*args)
    return str(info.value)


@pytest.mark.parametrize("new, ref, i, w", [
    (d, d_ref, 1, (1, 2, 3)),
    (d, d_ref, 3, (1, 2, 3)),
    (d, d_ref, 2, (1, 2)),
    (b, b_ref, 1, (1, 2, 3, 4)),
    (b, b_ref, 3, (1, 2, 3, 4)),
    (b, b_ref, 2, (1, 2, 3)),
    (phi, phi_ref, 1, (1, -2, 3)),
    (phi, phi_ref, 3, (1, -2, 3)),
    (phi, phi_ref, 0, ()),
])
def test_index_errors_are_unchanged(new, ref, i, w):
    assert raised(new, i, w) == raised(ref, i, w)


@pytest.mark.parametrize("i, w, shape", [
    (1, (3, 1, 2), (2, 1)),
    (3, (3, 1, 2), (2, 1)),
    (2, (3, 1, 2), (2,)),
    (2, (1, 2, 3), (2,)),
    (2, (3, 1, 2), (3, 1)),
    (5, (3, 1, 2), (3, 1)),
])
def test_psi_errors_are_unchanged(i, w, shape):
    assert raised(psi, i, w, shape) == raised(psi_ref, i, w, shape)


@pytest.mark.parametrize("move, w, shape", [
    (d, (1, 1, 2), ()),
    (d, (0, 1, 2), ()),
    (b, (1, 1, 2, 3), ()),
    (psi, (1, 1, 2), ((2, 1),)),
    (phi, (5, 1, 2), ()),
])
def test_moves_refuse_a_word_not_of_the_values_one_to_n(move, w, shape):
    # at i = 2 these once gave 211, 210, 3121, 112' and an IndexError
    assert raised(move, 2, w, *shape) == (
        f"{word_str(w)} is not a word of the values 1..{len(w)}, each once"
    )
    # the index check still comes first
    assert raised(move, 9, w, *shape).startswith("index 9 out of range")


# --- is_standard ---


def is_valid_tableau(T):
    """check_tableau as a predicate."""
    try:
        check_tableau(T)
    except ValueError:
        return False
    return True


def is_standard_ref(T):
    if not is_valid_tableau(T):
        return False
    values = sorted(abs(e) for row in T.rows for e in row)
    return values == list(range(1, T.size + 1))


def rows_of(shape, word):
    """The tableau of the shape whose rows, bottom-up, read off the word."""
    rows, k = [], 0
    for width in shape:
        rows.append(word[k : k + width])
        k += width
    return rows


def tableaux_of(kind, lam):
    """The number of standard tableaux of the shape, 0 if there are none."""
    if kind == "straight":
        return ground_size(("syt", lam, "d"))
    return ground_size(("shsyt", lam, "b")) if is_strict_partition(lam) else 0


@pytest.mark.parametrize("n", range(7))
def test_is_standard_on_every_arrangement(n):
    shapes = [(kind, lam) for kind in ("straight", "shifted") for lam in partitions_of(n)]
    for kind, lam in shapes:
        standard = 0
        for w in perms(n):
            T = tableau(kind, rows_of(lam, w))
            assert is_standard(T) == is_standard_ref(T), T
            standard += is_standard(T)
        assert standard == tableaux_of(kind, lam)


@pytest.mark.parametrize("n", range(6))
def test_is_standard_on_every_prime_pattern(n):
    # straight shapes too: any prime makes them non-standard
    shapes = [(kind, lam) for kind in ("straight", "shifted") for lam in partitions_of(n)]
    for kind, lam in shapes:
        standard = 0
        for w in signed_perms(n):
            T = tableau(kind, rows_of(lam, w))
            assert is_standard(T) == is_standard_ref(T), T
            standard += is_standard(T)
        primes = 2**n if kind == "shifted" else 1
        assert standard == tableaux_of(kind, lam) * primes


@pytest.mark.parametrize("kind, rows", [
    ("straight", [(1, 2), (2,)]),  # repeated value
    ("shifted", [(1, 2, 3), (3,)]),
    ("shifted", [(1, -2, 3), (2,)]),  # repeated value, once primed
    ("straight", [(1, 2), (4,)]),  # 3 missing, 4 above n
    ("straight", [(1, 3, 5)]),
    ("shifted", [(1, 2, 4)]),
    ("straight", [(0, 1)]),  # zero entry
    ("straight", [(1,), (2, 3)]),  # not a partition
    ("shifted", [(1, 2), (3, 4)]),  # not a strict partition
    ("shifted", [(1, 2), ()]),  # an empty row
    ("straight", [(1, 2), ()]),
    ("skew", [(1, 2), (3,)]),  # unknown kind
    ("skew", []),
    ("straight", []),
    ("shifted", []),
    ("straight", [(-1, 2)]),  # primed on a straight shape
    ("shifted", [(-1, 2), (3,)]),
    ("shifted", [(1, 3), (2,)]),  # the cell below is larger
    ("straight", [(1, 3), (2,)]),
    ("straight", [(2, 3), (1,)]),
])
def test_is_standard_on_malformed_tableaux(kind, rows):
    T = tableau(kind, rows)
    assert is_standard(T) == is_standard_ref(T)


# --- sizes known before any work ---


def test_ground_size_of_large_grounds():
    assert ground_size(("perm", 9, "d")) == 362_880
    assert ground_size(("signedperm", 10, "phi")) == 3_715_891_200
    assert ground_size(("shsyt", (9, 6, 3), "b")) == 136_136
    assert ground_size(("syt", (3, 2, 1), "d")) == 16
    assert ground_size(("signed-shsyt", (3, 2, 1), "psi")) == 2 * 2**3


@pytest.mark.parametrize("desc, error", [
    (("syt", (1, 2), "d"), InvalidShapeError),
    (("shsyt", (2, 2), "b"), InvalidShapeError),
    (("signed-shsyt", (2, 0), "psi"), InvalidShapeError),
    (("perm", 3, "psi"), ValueError),
    (("perm", -1, "d"), ValueError),
    (("syt", (2, -3), "d"), ValueError),
])
def test_ground_size_rejects_what_build_ground_rejects(desc, error):
    with pytest.raises(error) as size_error:
        ground_size(desc)
    with pytest.raises(error) as build_error:
        build_ground(desc)
    assert str(size_error.value) == str(build_error.value)


def test_oversized_ground_is_refused_before_enumeration(monkeypatch):
    monkeypatch.setattr(engine, "MAX_GROUND_OBJECTS", 100)
    assert build_ground(("perm", 4, "d")).size == 24
    enumerated = []
    stat_kind, _, count, move, signs = engine.BUILTIN_GROUNDS["perm", "d"]
    monkeypatch.setitem(
        engine.BUILTIN_GROUNDS,
        ("perm", "d"),
        (stat_kind, lambda n: enumerated.append(n) or [], count, move, signs),
    )
    with pytest.raises(ValueError, match=r"perm 5 has 120 objects, above the limit 100"):
        build_ground(("perm", 5, "d"))
    assert enumerated == []


def test_cli_exits_two_on_an_oversized_ground(monkeypatch, capsys):
    monkeypatch.setattr(engine, "MAX_GROUND_OBJECTS", 100)
    argv = ["classes", "--ground", "perm", "--n", "5", "--family", "d"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ground perm 5 has 120 objects, above the limit 100\n"


# --- the build does each piece of per-object work once ---


def count_calls(monkeypatch, name):
    """Record the argument of every call of tableaux.<name>, made through
    any dualeq module that holds it."""
    original = getattr(tableaux, name)
    calls = []

    def counted(arg, *rest):
        calls.append(arg)
        return original(arg, *rest)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "dualeq" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_shifted_build_checks_each_tableau_once(monkeypatch):
    # is_standard applies the same word check, so this counts it too
    calls = count_calls(monkeypatch, "_is_standard_word")
    g = build_ground(("shsyt", (6, 4, 2), "b"))
    assert len(calls) == g.size == ground_size(("shsyt", (6, 4, 2), "b"))
    assert sorted(calls) == sorted(parse_word(label) for label in g.labels)


def test_signed_build_takes_each_descent_set_once(monkeypatch):
    # the statistics come from the inverse the moves read: one per unsigned
    # word, its 16 signed variants sharing it
    calls = count_calls(monkeypatch, "_inverse")
    g = build_ground(("signedperm", 4, "phi"))
    assert g.size == 384
    assert calls == list(permutations(range(1, 5)))
    words = [parse_word(label) for label in g.labels]
    assert list(g.stats) == [descent_set_word(w) for w in words]
