"""The standard and standard shifted grounds built from per-shape entries.

build_ground takes a syt or shsyt ground's words from tableaux._shape_words
and its descent masks and tables from engine._SHAPE_TABLES: one entry per
(shape, strict) for the life of the process, each made once from the
entries of its corner subshapes.  A build must not depend on which entries
exist before it, must not change an existing entry, and an entry must stay
compact.  test_build_kernel compares the grounds with the reference builder.
"""

import gc
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

from dualeq import engine, tableaux
from dualeq.core import InternalInvariantError, partitions_of, strict_partitions_of
from dualeq.engine import _index_range, build_ground
from dualeq.involutions import _block, _table

STRICT = [lam for n in range(11) for lam in strict_partitions_of(n)]
STRAIGHT = [lam for n in range(8) for lam in partitions_of(n)]


@pytest.fixture
def no_entries(monkeypatch):
    """Empty entry memos for the test; the process's own come back after."""
    monkeypatch.setattr(engine, "_SHAPE_TABLES", {})
    monkeypatch.setattr(tableaux, "_SHAPE_WORDS", {})


def clear_entries():
    engine._SHAPE_TABLES.clear()
    tableaux._SHAPE_WORDS.clear()


def parts(g):
    return g.stat_kind, g.n, g.desc, tuple(g.labels), g.stats, g.invs


def snapshot():
    """A copy of every entry's contents, by key."""
    words = {key: (letters.tobytes(), count, blocks)
             for key, (letters, count, blocks) in tableaux._SHAPE_WORDS.items()}
    tables = {key: (tuple(masks), {i: t.tobytes() for i, t in by_index.items()})
              for key, (masks, by_index) in engine._SHAPE_TABLES.items()}
    return words, tables


@pytest.mark.parametrize("kind, family, shapes", [
    ("shsyt", "b", STRICT), ("syt", "d", STRAIGHT),
], ids=["shsyt", "syt"])
def test_cold_and_warm_builds_agree(no_entries, kind, family, shapes):
    # warm: every shape of n - 1 cells is built before the shapes of n
    warm = {lam: parts(build_ground((kind, lam, family))) for lam in shapes}
    for lam in reversed(shapes):  # cold: the supershape first, from nothing
        clear_entries()
        assert parts(build_ground((kind, lam, family))) == warm[lam]


def test_a_supershape_leaves_its_subshapes_entries_unchanged(no_entries):
    for lam in STRICT:
        build_ground(("shsyt", lam, "b"))
    before = dict(engine._SHAPE_TABLES), dict(tableaux._SHAPE_WORDS)
    copies = snapshot()
    for lam in strict_partitions_of(11):
        build_ground(("shsyt", lam, "b"))
    after = snapshot()
    for held, now in zip(before, (engine._SHAPE_TABLES, tableaux._SHAPE_WORDS)):
        assert len(now) > len(held)
        assert all(now[key] is entry for key, entry in held.items())
    for old, new in zip(copies, after):
        assert {key: new[key] for key in old} == old


def test_the_words_and_labels_share_one_array(no_entries):
    g = build_ground(("shsyt", (5, 3, 1), "b"))
    letters, count, blocks = tableaux._SHAPE_WORDS[(5, 3, 1), True]
    assert g.labels._letters is letters and count == g.size
    # a block per corner row, each starting where the one before ends
    assert [sub for sub, _ in blocks] == [(4, 3, 1), (5, 2, 1), (5, 3)]
    sizes = [tableaux._SHAPE_WORDS[sub, True][1] for sub, _ in blocks]
    assert [start for _, start in blocks] == [0, sizes[0], sizes[0] + sizes[1]]


def test_import_makes_no_entry():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = (
        "import dualeq, dualeq.cli, dualeq.engine as e, dualeq.tableaux as t;"
        "print(len(e._SHAPE_TABLES), len(t._SHAPE_WORDS))"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 0\n", "")


def test_an_entry_holds_few_bytes_per_object(no_entries):
    # the corner subshapes' entries first, so that only (8,5,2)'s is made;
    # what stays once the ground is dropped is its words, one byte a
    # letter, its masks, 8 bytes each, and an int32 per index: not a word
    # tuple (about 180 bytes) nor a table of int objects.  A full collection
    # empties the free lists, which keep up to 2,000 dropped tuples a size
    lam = (8, 5, 2)
    for _, sub in tableaux._corners(lam, True):
        build_ground(("shsyt", sub, "b"))
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        g = build_ground(("shsyt", lam, "b"))
        size = g.size
        del g
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    n = sum(lam)
    assert size == 8019
    assert held / size <= 1.2 * (n + 8 + 4 * len(_index_range(engine.PEAK, n)))


def test_the_top_index_refuses_an_image_outside_the_ground(no_entries, monkeypatch):
    # a toy b that trades the letters 1 and 2 of its block: index 2 of
    # (3,1), the top one, reads all of 3124 and sends it to 3214, which is
    # no reading word of (3,1); the smaller shapes have no index
    def trades_one_two(block):
        return tuple(2 if e == 1 else 1 if e == 2 else e for e in block)

    stat_kind, words, count, _, signs = engine.BUILTIN_GROUNDS["shsyt", "b"]
    toy = lambda shape: partial(_block, _table(trades_one_two, 4), 4)
    monkeypatch.setitem(engine.BUILTIN_GROUNDS, ("shsyt", "b"), (stat_kind, words, count, toy, signs))
    with pytest.raises(InternalInvariantError,
                       match=r"involution 2 of \(shsyt,\(3, 1\),b\) sends 3124 outside"):
        build_ground(("shsyt", (3, 1), "b"))
