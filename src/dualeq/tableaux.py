"""Tableaux: straight and shifted, semistandard and standard, signed or not.

Entries are signed ints: k stands for an unprimed k, -k for a primed k'.
The total order on entries is 1' < 1 < 2' < 2 < ... (see entry_key).

A Tableau stores its rows bottom-up: rows[0] is row 1.  Shifted rows are
*not* stored with padding; the column of rows[r-1][j] is j+1 for straight
shapes and r+j for shifted ones.

Standard tableaux are enumerated as reading words (_standard_words), every
word checked once by the one standardness check, _is_standard_word, which
is_standard also applies.  The words of a shape are made once per process
(_shape_words), packed, from its corner subshapes' words, and listed in
blocks by the row of the largest entry: engine builds the standard grounds
from the same blocks.
_descent_masks counts the descent masks of those words without making
them, over the same subshapes; _corners states for both which rows the
largest entry can end.  A signed word is an unsigned one with the letters
at some of its _sign_positions negated (_signed_variants), and its descent
mask follows from the unsigned one (_unsigned_descents) by _signed_descents.
Semistandard tableaux are walked cell by cell (_semistandard_fillings).
Each walk has one count beside it, taking the walk's own arguments and
refusing what the walk refuses: _standard_count and _semistandard_count.
The enumerate_* functions turn the walks' words and rows into Tableaux.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import accumulate
from math import factorial, isqrt, prod

from .core import (
    SHIFTED,
    STRAIGHT,
    InternalInvariantError,
    InvalidShapeError,
    _members,
    _Record,
    is_partition,
    is_strict_partition,
)


def entry_key(e: int) -> int:
    """Rank of an entry in the order 1' < 1 < 2' < 2 < ...  (k' -> 2k-1, k -> 2k)."""
    return 2 * abs(e) - (1 if e < 0 else 0)


@lru_cache(maxsize=1024)  # word_str takes one string per letter value
def entry_str(e: int) -> str:
    return f"{abs(e)}'" if e < 0 else str(abs(e))


def parse_entry(token: str) -> int:
    """Inverse of entry_str: "4" -> 4, "2'" -> -2."""
    token = token.strip()
    primed = token.endswith("'")
    if primed:
        token = token[:-1]
    value = int(token)
    if value < 1:
        raise ValueError(f"entry values must be positive, got {value}")
    return -value if primed else value


class Tableau(_Record, frozen=True):
    __slots__ = _fields = ("kind", "rows")  # rows[0] = bottom row; signed ints

    @property
    def shape(self):
        return tuple(len(r) for r in self.rows)

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def col(self, r: int, j: int) -> int:
        """Column of the j-th entry (0-based) of row r (1-based)."""
        return r + j if self.kind == SHIFTED else j + 1

    def cells(self):
        """Yield (row, col, entry), row 1 first, left to right."""
        for r, row in enumerate(self.rows, 1):
            for j, e in enumerate(row):
                yield r, self.col(r, j), e


def tableau(kind, rows) -> Tableau:
    return Tableau(kind, tuple(tuple(row) for row in rows))


def check_tableau(T: Tableau):
    """Raise ValueError if T is not a valid (semistandard) tableau of its kind.

    Straight: shape a partition, no primed entries, rows weakly increasing,
    columns strictly increasing upward.  Shifted: shape a strict partition,
    rows and columns weakly increasing in the primed order, at most one
    primed copy of each value per row, at most one unprimed copy of each
    value per column.  Read in fill order, each entry must be one of the
    fill walk's candidates for its cell: values 1..k, k the largest one (if
    straight, less the cells above), primes allowed on the diagonal.
    """
    shifted = T.kind == SHIFTED
    if not shifted and T.kind != STRAIGHT:
        raise ValueError(f"unknown tableau kind: {T.kind!r}")
    shape = T.shape
    if not (is_strict_partition if shifted else is_partition)(shape):
        raise InvalidShapeError(f"not a {'strict ' * shifted}partition shape: {shape}")
    k = max((abs(e) for row in T.rows for e in row), default=0)
    candidates = _candidates(k, shifted, True)
    for r, row in enumerate(T.rows):
        for j, e in enumerate(row):
            if e not in candidates(T.rows, r, j):
                cell = f"({r + 1}, {T.col(r + 1, j)})"
                raise ValueError(f"entry {entry_str(e)} not allowed in cell {cell} "
                                 f"of row {r + 1}: {' '.join(map(entry_str, row))}")


def is_standard(T: Tableau) -> bool:
    """Valid, with absolute values exactly 1..n, each once (primes allowed if
    shifted): a tableau of its kind whose reading word is standard."""
    shifted = T.kind == SHIFTED
    partition = is_strict_partition if shifted else is_partition
    if not (shifted or T.kind == STRAIGHT) or not partition(T.shape):
        return False
    return _is_standard_word(reading_word(T), T.shape, shifted)


def _is_standard_word(w, shape, shifted) -> bool:
    """Whether w is the reading word of a standard tableau of the shape, a
    partition (strict if shifted): absolute values 1..n each once, primes
    only if shifted.  For distinct values check_tableau asks for rows
    increasing and each cell above a smaller one (row[j] sits on index j+1
    of the row below if shifted)."""
    n = len(w)
    if sum(shape) != n:
        return False
    seen, below, end = [False] * (n + 1), (), n
    for width in shape:  # bottom row first: the last letters of w
        row, end = w[end - width : end], end - width
        left = 0
        for j, e in enumerate(row):
            v = abs(e)
            if (not left < v <= n or seen[v] or e < 0 and not shifted
                    or below and abs(below[j + shifted]) >= v):
                return False
            seen[v], left = True, v
        below = row
    return True


def reading_word(T: Tableau):
    """Rows read left to right, top row first."""
    word = []
    for row in reversed(T.rows):
        word.extend(row)
    return tuple(word)


def _inverse(w):
    """pos[v] = the position in w of the letter of absolute value v."""
    pos = [0] * (len(w) + 1)
    for p, e in enumerate(w):
        pos[-e if e < 0 else e] = p
    return pos


def _signed_descents(unsigned, primed, n):
    """The descent mask of a signed word of length n, from the descent mask
    unsigned of its absolute values and the mask primed of its negated
    values (bit v for -v): j is a descent when j sits right of j+1 and is
    unprimed, or left of j+1 and j+1 is primed.  The one statement of the
    signed descent rule."""
    return unsigned & ~primed | ((1 << n) - 2 ^ unsigned) & primed >> 1


def _unsigned_descents(pos):
    """The descent mask of the absolute values of a word whose inverse is
    pos: bit j when j sits right of j+1."""
    des, bit, p = 0, 2, pos[1] if len(pos) > 1 else None
    for q in pos[2:]:
        if p > q:
            des |= bit
        bit, p = bit + bit, q
    return des


def _descent_mask(w, pos):
    """Descent set of w, whose inverse is pos, as an integer mask: bit j for
    the descent j."""
    primed = sum(1 << -e for e in w if e < 0)
    return _signed_descents(_unsigned_descents(pos), primed, len(w))


def descent_set_word(w):
    """Descent set of a signed word whose absolute values are a permutation.

    i is a descent when i is unprimed and sits to the right of i+1, or when
    i+1 is primed and sits to the right of i.
    """
    return _members(_descent_mask(w, _inverse(w)))


def descent_set_tab(T: Tableau):
    """Descent set of a standard (possibly signed) tableau.

    i is a descent when i is unprimed and lies in a strictly lower row than
    i+1, or when i+1 is primed and lies in a weakly lower row than i.  Rows
    are read top row first, so this is descent_set_word(reading_word(T)).
    """
    if not is_standard(T):
        raise ValueError("descent_set_tab requires a standard tableau")
    return descent_set_word(reading_word(T))


def _straight_candidates(k, rows, r, j):
    lo = rows[r][j - 1] if j > 0 else 1  # weak along the row
    if r > 0:
        lo = max(lo, rows[r - 1][j] + 1)  # strict up the column
    above = sum(len(row) > j for row in rows[r + 1 :])  # each holds a larger entry
    return range(lo, k + 1 - above)


def _shifted_candidates(k, diagonal_primes, rows, r, j):
    # cell (row r+1, column r+1+j); the cell below it, in row r, is one
    # slot further right in its own row since shifted rows shift left
    # going down — its index there is j+1.  Rows and columns weakly
    # increase, so an equal entry in the row is the left neighbour and one
    # in the column the cell below: 0 stands for no such cell.  Yielded one
    # at a time, so a walk holds no list of up to 2k candidates per cell.
    left = rows[r][j - 1] if j > 0 else 0
    below = rows[r - 1][j + 1] if r > 0 else 0
    for key in range(max(1, entry_key(left), entry_key(below)), 2 * k + 1):
        v, primed = (key + 1) // 2, key % 2 == 1
        if not primed:
            if v != below:  # one unprimed copy per column
                yield v
        elif -v != left and (j > 0 or diagonal_primes):
            yield -v  # one primed copy per row, none on the diagonal


def _candidates(k, shifted, diagonal_primes):
    """candidates(rows, r, j): the entries cell (r, j) (0-based) may hold,
    in increasing order, read from the cells before it in fill order (row 1
    first, left to right) — the left neighbour and the cell below — and, if
    straight, the cells above.  The one statement of the semistandard rules,
    for values <= k."""
    if shifted:
        return partial(_shifted_candidates, k, diagonal_primes)
    return partial(_straight_candidates, k)


def _checked_shape(shape, strict, k=0):
    """shape as a tuple; refuses a non-partition (non-strict if strict) or k < 0."""
    shape = tuple(shape)
    if not (is_strict_partition if strict else is_partition)(shape):
        raise InvalidShapeError(f"not a {'strict ' * strict}partition: {shape}")
    if k < 0:
        raise ValueError("max entry must be nonnegative")
    return shape


def _semistandard_fillings(shape, k, shifted, diagonal_primes=False):
    """The semistandard tableaux of a partition (shifted, of a strict
    partition, with primes off the diagonal or, with diagonal_primes,
    anywhere) with values <= k, filled one cell at a time in fill order with
    each of its candidates in turn; yields rows, one list of rows reused
    for every complete filling.  The arguments are checked at once, before
    any step of the walk."""
    shape = _checked_shape(shape, shifted, k)
    candidates = _candidates(k, shifted, diagonal_primes)
    rows = [[0] * width for width in shape]
    cells = [(r, j) for r, width in enumerate(shape) for j in range(width)]

    def fill(c):
        r, j = cells[c]
        for e in candidates(rows, r, j):
            rows[r][j] = e
            if c + 1 < len(cells):
                yield from fill(c + 1)
            else:
                yield rows

    # the empty shape has one tableau, found at once
    return fill(0) if cells else iter([rows])


def enumerate_ssyt(shape, k):
    """All straight semistandard tableaux of the given shape with entries <= k."""
    return [tableau(STRAIGHT, rows) for rows in _semistandard_fillings(shape, k, False)]


def _corners(sh, strict):
    """(r, sh - e_r) for each row r, in increasing order, that the largest
    entry of a standard tableau of sh (shifted if strict) can end: those
    whose shape - e_r is a shape, an emptied last row dropped."""
    for r, part in enumerate(sh):
        rest = sh[r + 1 :]
        if not rest or part - 1 >= rest[0] + strict:
            yield r, sh[:r] + (part - 1,) * (part > 1) + rest


# (shape, strict) -> _shape_words(shape, strict), for the life of the process
_SHAPE_WORDS = {}


def _packed(n, letters=()):
    """An array of letters of words of n letters: one byte a letter below
    degree 128."""
    from array import array  # loaded by the first walk, not by the CLI's start

    return array("b" if n < 1 << 7 else "h" if n < 1 << 15 else "q", letters)


def _shape_words(shape, strict):
    """The reading words of the standard tableaux of a partition shape, a
    tuple (strict, of shifted ones, if strict), unchecked: (letters, count,
    blocks), the count words packed n letters apiece in letters (_packed),
    and per row r that n can end, in increasing order, a block (shape - e_r,
    start): from word start on, the words of shape - e_r with n inserted at
    the end of row r, position sum(shape[r+1:]) + shape[r] - 1, in their
    order.  Made once per process from its subshapes' entries, a column of
    letters at a time."""
    found = _SHAPE_WORDS.get((shape, strict))
    if found is not None:
        return found
    n, subs, blocks, count = sum(shape), [], [], 0 if shape else 1
    for r, smaller in _corners(shape, strict):  # one frame per cell of recursion
        subs.append((r, smaller, _shape_words(smaller, strict)))
    letters = _packed(n, [0]) * (n * sum(sub[1] for _, _, sub in subs))
    for r, smaller, (sub, size, _) in subs:
        if sub.typecode != letters.typecode:  # degree 2^7 or 2^15: wider letters
            sub = _packed(n, sub)
        p, start, end = sum(shape[r:]) - 1, count * n, (count + size) * n
        letters[start + p : end : n] = _packed(n, [n]) * size
        for q in range(n - 1):
            letters[start + q + (q >= p) : end : n] = sub[q :: n - 1]
        blocks.append((smaller, count))
        count += size
    found = _SHAPE_WORDS[shape, strict] = letters, count, tuple(blocks)
    return found


def _unpacked(shape, strict):
    """The words of _shape_words(shape, strict) as tuples, one at a time."""
    letters, count, _ = _shape_words(shape, strict)
    n = sum(shape)
    return zip(*[iter(letters)] * n) if n else iter([()] * count)


def _standard_words(shape, strict, diagonal_primes=None):
    """Reading words of the standard tableaux of a partition (shifted, of a
    strict partition, if strict), each checked once: the words of
    _shape_words, rows r of n in increasing order, each followed through
    the words of its subshape.  With diagonal_primes False or True (strict
    only), each word is followed by its signed variants: the values on the
    free cells (off the diagonal, or any cell) are primed by the bits of
    each mask in turn, bit b priming the b-th smallest free value."""
    shape = _checked_shape(shape, strict)
    out = list(_unpacked(shape, strict))
    if diagonal_primes is not None:
        signs = _sign_positions(shape, diagonal_primes)
        out = [v for w in out for v in _signed_variants(w, signs(w))]
    return _checked_words(out, shape, strict)


def _sign_positions(shape, diagonal_primes):
    """w -> the positions of a reading word w of the strict shape that may
    be primed (off the diagonal, or with diagonal_primes any), smallest
    value first: the order of the sign bits of its signed variants."""
    diagonal = set(accumulate(reversed(shape[1:]), initial=0))
    free = [p for p in range(sum(shape)) if diagonal_primes or p not in diagonal]
    return lambda w: sorted(free, key=w.__getitem__)


def _signed_variants(w, free):
    """w and its signed variants, variant s negating the letters at the
    positions free[b] for the bits b of s."""
    variants = [w]
    for p in free:
        variants += [v[:p] + (-v[p],) + v[p + 1 :] for v in variants]
    return variants


def _descent_masks(shape, strict):
    """The Counter of the descent masks of _standard_words(shape, strict),
    counted without making the words.  i is a descent of a standard reading
    word iff i+1 lies in a later row than i (read earlier: a row above).  So
    the masks of the tableaux whose largest entry n ends row r are those of
    shape - e_r, over the row r' of n-1 there, with bit n-1 set iff r > r'.
    The empty shape has the mask 0, its "row" 0 adding no bit to n = 1."""
    shape = _checked_shape(shape, strict)
    memo = {(): {0: Counter({0: 1})}}  # shape -> row of n -> Counter of masks

    def by_row(sh):
        found = memo.get(sh)
        if found is None:
            memo[sh] = found = {}
            bit = 1 << (sum(sh) - 1)
            for r, smaller in _corners(sh, strict):
                masks = found[r] = Counter()
                for below, counts in by_row(smaller).items():
                    add = bit if r > below else 0
                    for m, c in counts.items():
                        masks[m | add] += c
        return found

    total = Counter()
    for masks in by_row(shape).values():
        total.update(masks)
    return total


def _standard_count(shape, strict, diagonal_primes=None):
    """len(_standard_words(shape, strict, diagonal_primes)), counted without
    enumerating: the hook-length formula (Frobenius's form, on parts
    shape[k] + rows - k - 1), Thrall's formula if strict, times 2 per free
    cell of the signed variants."""
    shape = _checked_shape(shape, strict)
    n, rows = sum(shape), len(shape)
    parts = shape if strict else [p + rows - k - 1 for k, p in enumerate(shape)]
    pairs = [(p, q) for k, p in enumerate(parts) for q in parts[k + 1 :]]
    sums = prod(p + q for p, q in pairs) if strict else 1
    count = factorial(n) * prod(p - q for p, q in pairs)
    count //= prod(map(factorial, parts)) * sums
    free = 0 if diagonal_primes is None else n if diagonal_primes else n - rows
    return count << free


def _semistandard_count(shape, k, shifted, diagonal_primes=False):
    """The number of fillings _semistandard_fillings(shape, k, shifted,
    diagonal_primes) yields, counted without a walk.  Straight: the
    hook-content formula (Stanley, EC2 7.21.2).  Shifted: Schur's Pfaffian
    Q_shape = Pf[Q_(shape[i], shape[j])] at x_1 = ... = x_k = 1, a part 0
    appended to an odd number (Macdonald, III.8), the square root of a
    determinant; P = Q / 2^rows."""
    shape = _checked_shape(shape, shifted, k)
    if not shifted:
        contents = (k + j - r for r, width in enumerate(shape) for j in range(width))
        return _standard_count(shape, False) * prod(contents) // factorial(sum(shape))
    parts = shape + (0,) * (len(shape) % 2)
    q = [1, 2 * k]  # one row: q_r, the t^r coefficient of ((1 + t) / (1 - t))^k
    for r in range(1, sum(parts[:2])):
        q.append((2 * k * q[r] + (r - 1) * q[r - 1]) // (r + 1))

    def pair(a, b):  # Q_(a, b); for a < b it is -Q_(b, a), as q(t) q(-t) = 1
        return q[a] * q[b] + 2 * sum((-1) ** i * q[a + i] * q[b - i] for i in range(1, b + 1))

    det = _determinant([[pair(a, b) if a != b else 0 for b in parts] for a in parts])
    pfaffian = isqrt(max(det, 0))
    if pfaffian * pfaffian != det:
        raise InternalInvariantError(f"the Pfaffian's determinant for {shape} is no square")
    return pfaffian >> (0 if diagonal_primes else len(shape))


def _determinant(m):
    """The determinant of a square int matrix (a list of rows, modified) by
    Bareiss's fraction-free elimination: every division is exact."""
    sign, prev = 1, 1
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot], sign = m[pivot], m[i], -sign
        for r in range(i + 1, len(m)):
            for c in range(i + 1, len(m)):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * prev


def _checked_words(words, shape, shifted):
    """The words, each checked once by _is_standard_word; a word that fails
    is an enumeration bug."""
    for w in words:
        if not _is_standard_word(w, shape, shifted):
            raise InternalInvariantError(
                f"{word_str(w)} is not a standard reading word of shape {shape}"
            )
    return words


def _split(kind, shape, w) -> Tableau:
    """The tableau of the shape whose reading word is w."""
    rows, end = [], len(w)
    for width in shape:
        rows.append(w[end - width : end])
        end -= width
    return Tableau(kind, tuple(rows))


def enumerate_syt(shape):
    """All standard Young tableaux of a straight shape."""
    shape = tuple(shape)
    return [_split(STRAIGHT, shape, w) for w in _standard_words(shape, False)]


def enumerate_shsyt(shape):
    """All standard shifted tableaux of a strict shape (no primed entries)."""
    shape = tuple(shape)
    return [_split(SHIFTED, shape, w) for w in _standard_words(shape, True)]


def enumerate_shssyt(shape, k, diagonal_primes):
    """All shifted semistandard tableaux with values <= k.

    Entries may be primed; with diagonal_primes=False the diagonal cells
    (col == row) must be unprimed.
    """
    fillings = _semistandard_fillings(shape, k, True, diagonal_primes)
    return [tableau(SHIFTED, rows) for rows in fillings]


def enumerate_signed_standard(shape, diagonal_primes):
    """All signed standard shifted tableaux: standard fillings with any subset
    of cells primed (diagonal cells only when diagonal_primes=True)."""
    shape = tuple(shape)
    words = _standard_words(shape, True, bool(diagonal_primes))
    return [_split(SHIFTED, shape, w) for w in words]


# the letters of the compact form: one digit, primed or not
_ONE_DIGIT = {e: entry_str(e) for e in range(-9, 10)}


def word_str(w) -> str:
    """Compact form "312'" when every value is one digit, else the comma form
    "10',3,2".  A one-entry comma form ends in a comma: "12" would read back
    as the two entries 1, 2."""
    try:
        return "".join(map(_ONE_DIGIT.__getitem__, w))
    except KeyError:  # a letter of two or more digits
        toks = list(map(entry_str, w))
        return ",".join(toks) + ("," if len(toks) == 1 else "")


def parse_word(text: str):
    """Parse a word label: "312" or "3 1 2'" or "10',3,2" forms all accepted.

    In the compact form each letter is one entry with an optional prime."""
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


def format_tableau(T: Tableau) -> str:
    """Multi-line rendering, top row first; shifted rows are indented by one
    field per row.  Round-trips through parse_tableau."""
    toks = [[entry_str(e) for e in row] for row in T.rows]
    width = max((len(t) for row in toks for t in row), default=1)
    lines = []
    for r in range(len(T.rows), 0, -1):
        indent = " " * ((width + 1) * (r - 1)) if T.kind == SHIFTED else ""
        lines.append(indent + " ".join(t.rjust(width) for t in toks[r - 1]).rstrip())
    return "\n".join(lines)


def parse_tableau(text: str, kind) -> Tableau:
    """Parse the format_tableau rendering (indentation is ignored)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows = [tuple(parse_entry(t) for t in ln.split()) for ln in reversed(lines)]
    T = tableau(kind, rows)
    check_tableau(T)
    return T
