"""The labels of a builtin ground are made when they are read.

A build packs its unsigned words into one array and a label is word_str
of its word, signed and formatted only when someone reads it: a build and a
passing verify read none, a failing verify reads the labels of the
witnesses it keeps, and every way of reading gives the strings word_str
gives for the words.
"""

import pytest

from dualeq import engine
from dualeq.engine import (
    _WITNESS_CAP,
    DEGround,
    build_ground,
    lemma_axiom4_check,
    verify_shifted,
    verify_weak,
)
from dualeq.tableaux import word_str

from test_build_kernel import GROUNDS, REF_WORDS


@pytest.fixture
def formatted(monkeypatch):
    """The words engine formats into labels, in the order it formats them."""
    words = []

    def counting(w):
        words.append(tuple(w))
        return word_str(w)

    monkeypatch.setattr(engine, "word_str", counting)
    return words


@pytest.mark.parametrize(
    "desc, verify",
    [(("signedperm", 5, "phi"), verify_weak), (("shsyt", (6, 4, 2), "b"), verify_shifted)],
    ids=["signedperm-5-phi-weak", "shsyt-642-b-shifted"],
)
def test_a_build_and_a_passing_verify_read_no_label(formatted, desc, verify):
    assert verify(build_ground(desc)).passed
    assert formatted == []


def test_a_failing_verify_reads_only_the_kept_witnesses(formatted):
    # lemma (vi) fails 478 times on (6,4,2), naming two objects each time
    report = lemma_axiom4_check(build_ground(("shsyt", (6, 4, 2), "b")))
    assert report.counts == {"v": 0, "vi": 478}
    kept = report.witnesses_for("vi")
    assert len(kept) == _WITNESS_CAP
    assert [word_str(w) for w in formatted] == [label for w in kept for label in w.labels]


def words_of(desc):
    kind, param, _ = desc
    return REF_WORDS[kind](param)


# GROUNDS has the degree 0 grounds; these two have letters of two bytes
LABELLED = GROUNDS + [("syt", (129, 1), "d"), ("shsyt", (130,), "b")]


@pytest.mark.parametrize("desc", LABELLED, ids=str)
def test_every_reading_of_the_labels_gives_word_str_of_the_words(desc):
    labels, want = build_ground(desc).labels, tuple(map(word_str, words_of(desc)))
    size = len(want)
    assert len(labels) == size
    assert [labels[k] for k in range(size)] == list(want)
    assert [labels[k] for k in range(-size, 0)] == list(want)
    for cut in (slice(None), slice(1, -1, 2), slice(None, None, -1), slice(size, None)):
        assert labels[cut] == want[cut]
    assert tuple(labels) == want
    assert list(reversed(labels)) == list(reversed(want))
    for k in {0, size // 2, size - 1}:
        assert labels.index(want[k]) == k
        assert want[k] in labels
    with pytest.raises(IndexError):
        labels[size]
    with pytest.raises(IndexError):
        labels[-size - 1]


@pytest.mark.parametrize(
    "desc", [("signedperm", 3, "phi"), ("shsyt", (4, 2, 1), "b"), ("perm", 0, "d")], ids=str
)
def test_packed_and_tuple_labels_agree_on_equality_and_hash(desc):
    g = build_ground(desc)
    h = DEGround(g.stat_kind, g.n, tuple(g.labels), g.stats, g.invs, g.desc).validate()
    assert type(g.labels) is not tuple and type(h.labels) is tuple
    assert g == h and h == g
    assert g.labels == h.labels and h.labels == g.labels
    assert hash(g.labels) == hash(h.labels)
    assert {h.labels: desc}[g.labels] == desc
    assert g.labels != list(h.labels)
    assert g.labels != build_ground(("perm", 1, "d")).labels
