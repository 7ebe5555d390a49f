"""Condition (iv) inherited along the corner recursion, against the whole ground.

verify_strong on a syt ground and verify_shifted on a shsyt ground take
engine._by_corners first: when the ground holds its shape's entry, (i)-(iii)
are checked whole and (iv) only on the windows (j, top), each corner
subshape's entry bringing its verdict (engine._VERDICTS).  The undecorated
verifier (__wrapped__) checks every window and is the reference: the two
reports are equal field by field, witnesses in their order, on every shape
of an exhaustive small range, cold and warm, on grounds that only carry a
shape's desc, and after a corner's entry is swapped for a failing one.  The
counts pin what the route saves: a warm shape reads no window below its top
index, and a cold one reads each subshape's top windows once.
"""

from array import array

import pytest

from dualeq import engine, tableaux
from dualeq.core import partitions_of, strict_partitions_of
from dualeq.engine import DEGround, build_ground, verify_shifted, verify_strong

from test_sweep_layers import dump

STRICT = [lam for n in range(15) for lam in strict_partitions_of(n)]
STRAIGHT = [lam for n in range(10) for lam in partitions_of(n)]
CASES = ([("shsyt", lam, literal) for lam in STRICT for literal in (False, True)]
         + [("syt", lam, None) for lam in STRAIGHT])


def reports(kind, lam, literal, g=None):
    """The routed and the whole ground's report on the ground (or g)."""
    if g is None:
        g = build_ground((kind, lam, "b" if kind == "shsyt" else "d"))
    if kind == "syt":
        return dump(verify_strong(g)), dump(verify_strong.__wrapped__(g))
    return (dump(verify_shifted(g, literal)),
            dump(verify_shifted.__wrapped__(g, literal_peak_window=literal)))


@pytest.fixture
def own_memos(monkeypatch):
    """Copies of the verdicts and the made-from records for the test."""
    monkeypatch.setattr(engine, "_VERDICTS", dict(engine._VERDICTS))
    monkeypatch.setattr(engine, "_MADE_FROM", dict(engine._MADE_FROM))


@pytest.mark.parametrize("kind, lam, literal", CASES, ids=str)
def test_a_cold_route_reports_as_the_whole_ground(monkeypatch, kind, lam, literal):
    monkeypatch.setattr(engine, "_VERDICTS", {})
    routed, whole = reports(kind, lam, literal)
    assert routed == whole


def test_a_warm_route_reports_as_the_whole_ground():
    # every shape after its subshapes: each verdict it reads is held
    for kind, lam, literal in CASES:
        routed, whole = reports(kind, lam, literal)
        assert routed == whole, (kind, lam, literal)
    # the route decided every shsyt ground of the non-literal windows
    verdicts = [engine._VERDICTS[lam, True, "shifted", False] for lam in STRICT]
    assert all(held for _, held in verdicts)
    assert [entry for entry, _ in verdicts] == [engine._SHAPE_TABLES[lam, True] for lam in STRICT]
    # and the literal windows fail from six cells on, as the whole grounds do
    assert not engine._VERDICTS[(6, 3, 1), True, "shifted", True][1]


def rewired(g, indices):
    """A table of g at one of indices, with two of its pairs (a, b), (c, d)
    traded for (a, d), (c, b) where a, c and b, d share their statistics:
    still an involution, fixing what it fixed and moving no peak otherwise;
    yields (index, table)."""
    for i in indices:
        t = g.invs[i]
        pairs = [(a, b) for a, b in enumerate(t) if a < b]
        for k, (a, b) in enumerate(pairs):
            for c, d in (p for q in pairs[k + 1:] for p in (q, q[::-1])):
                if g.stats[a] == g.stats[c] and g.stats[b] == g.stats[d]:
                    table = list(t)
                    table[a], table[d], table[c], table[b] = d, a, b, c
                    yield i, table


def passes_i_to_iii(report):
    return [report.results[c] for c in ("i", "ii", "iii")] == [True] * 3


def test_a_ground_that_only_carries_the_desc_gets_the_whole_report():
    g = build_ground(("shsyt", (6, 3, 1), "b"))
    assert verify_shifted(g).passed
    # below the top index, a table that keeps (i)-(iii) and breaks (iv)
    for i, table in rewired(g, g.index_range()[:-1]):
        h = DEGround(g.stat_kind, g.n, g.labels, g.stats, {**g.invs, i: tuple(table)}, g.desc)
        whole = verify_shifted.__wrapped__(h)
        if passes_i_to_iii(whole) and not whole.passed:
            break
    else:
        raise AssertionError("no rewiring breaks (iv) alone")
    assert whole.witnesses_for("iv")
    assert reports("shsyt", None, False, h) == (dump(whole), dump(whole))
    # one mask: a peak at n-1 is added to an object without one
    x = next(x for x, s in enumerate(g.stats) if g.n - 1 not in s and g.n - 2 not in s)
    stats = g.stats[:x] + (g.stats[x] | {g.n - 1},) + g.stats[x + 1:]
    h = DEGround(g.stat_kind, g.n, g.labels, stats, g.invs, g.desc)
    routed, whole = reports("shsyt", None, False, h)
    assert routed == whole and whole[2] != [[c, True] for c in ("i", "ii", "iii", "iv")]
    # equal tables and statistics under the desc, not the same objects: routed
    copy = DEGround(g.stat_kind, g.n, tuple(g.labels), tuple(map(frozenset, g.stats)),
                    {i: tuple(t) for i, t in g.invs.items()}, g.desc)
    assert engine._by_corners(copy, "shifted") is not None
    other = DEGround(copy.stat_kind, copy.n, copy.labels, copy.stats, copy.invs, "(shsyt,(6, 3),b)")
    assert engine._by_corners(other, "shifted") is None


def test_a_swapped_failing_corner_entry_gives_the_whole_witnesses(monkeypatch, own_memos):
    lam, mu = (7, 3, 1), (6, 3, 1)
    assert verify_shifted(build_ground(("shsyt", lam, "b"))).passed
    sub = build_ground(("shsyt", mu, "b"))
    masks, tables = engine._SHAPE_TABLES[mu, True]
    # below mu's top windows, whose tables are those of its last five indices
    for i, table in rewired(sub, sub.index_range()[:-5]):
        # mu's entry swapped for one with the rewired table, lam's rebuilt on it
        monkeypatch.setitem(engine._SHAPE_TABLES, (mu, True), (masks, {**tables, i: array("i", table)}))
        monkeypatch.delitem(engine._SHAPE_TABLES, (lam, True))
        g = build_ground(("shsyt", lam, "b"))
        whole = verify_shifted.__wrapped__(g)
        if passes_i_to_iii(whole) and not whole.passed:
            break
    else:
        raise AssertionError("no rewiring breaks (iv) alone")
    assert whole.witnesses_for("iv")
    assert dump(verify_shifted(g)) == dump(whole)
    assert not engine._VERDICTS[lam, True, "shifted", False][1]


def windows_read(monkeypatch):
    """Per call of _window_classes, the desc of its ground and its windows."""
    calls, original = [], engine._window_classes

    def recorded(g, windows, *rest):
        calls.append((g.desc, list(windows)))
        return original(g, windows, *rest)

    monkeypatch.setattr(engine, "_window_classes", recorded)
    return calls


def top_windows(lam, span=4):
    R = engine._index_range(engine.PEAK, sum(lam))
    return [(j, i) for i in R[-1:] for j in R if 1 <= i - j <= span]


def closure(lam):
    """lam and every shape its corner recursion reaches."""
    found, todo = set(), [lam]
    while todo:
        sh = todo.pop()
        if sh not in found:
            found.add(sh)
            todo += [sub for _, sub in tableaux._corners(sh, True)]
    return found


def test_a_warm_shape_reads_no_window_below_its_top_index(monkeypatch):
    lam = (7, 4, 2)
    g = build_ground(("shsyt", lam, "b"))
    assert verify_shifted(g).passed
    calls = windows_read(monkeypatch)
    assert verify_shifted(g).passed
    assert calls == [(g.desc, top_windows(lam))]


def test_a_cold_shape_reads_each_subshapes_top_windows_once(monkeypatch):
    lam = (7, 4, 2)
    g = build_ground(("shsyt", lam, "b"))
    monkeypatch.setattr(engine, "_VERDICTS", {})
    calls = windows_read(monkeypatch)
    assert verify_shifted(g).passed
    shapes = closure(lam)
    assert sorted(calls) == sorted((f"(shsyt,{sh},b)", top_windows(sh)) for sh in shapes)
    assert len({desc for desc, _ in calls}) == len(calls) == len(shapes)


@pytest.mark.parametrize("desc", [("shsyt", (6, 4, 1), "b"), ("syt", (4, 3, 1), "d")], ids=str)
def test_a_second_build_of_a_shape_makes_no_statistic(monkeypatch, desc):
    made = []
    for name in ("peak_of", "_members"):
        original = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda x, f=original: made.append(x) or f(x))
    build_ground(desc)
    first = len(made)
    build_ground(desc)
    assert len(made) == first
