"""Verification once per type of class, against the whole-ground verifiers.

verify_strong, verify_weak and verify_shifted go through engine._by_type:
when two classes of a ground share a _class_code, the verifier first runs
on the subground of one class per code, and that report stands when it
passes; any other ground gets the whole ground's report.  The undecorated
verifier (the decorated one's __wrapped__) is the reference: on every
builtin ground of an exhaustive small range, and on .deg grounds with
injected faults, the two reports are equal field by field, witnesses in
their order.  The code the route trusts is checked for soundness: swapping
two tables or changing one object's mask changes it, and renumbering a
class's members keeps it.
"""

import random
from itertools import chain, combinations

import pytest

from dualeq import engine
from dualeq.core import partitions_of, strict_partitions_of
from dualeq.engine import (
    _class_code,
    _stat_masks,
    _WordLabels,
    build_ground,
    classes,
    parse_deg,
    subground,
    verify_shifted,
    verify_strong,
    verify_weak,
)

from test_sweep_layers import dump, injected
from test_window_pass import copies, mutant, shuffled, union


def literal_shifted(g):
    return verify_shifted(g, literal_peak_window=True)


literal_shifted.__wrapped__ = lambda g: verify_shifted.__wrapped__(g, literal_peak_window=True)

DESCENT = (verify_strong, verify_weak)
PEAK = (verify_shifted, literal_shifted)

BUILTIN = list(chain(
    ((("perm", n, "d"), v) for n in range(8) for v in DESCENT),
    ((("perm", n, "b"), v) for n in range(8) for v in PEAK),
    ((("signedperm", n, "phi"), v) for n in range(7) for v in DESCENT),
    ((("syt", lam, "d"), v) for n in range(8) for lam in partitions_of(n) for v in DESCENT),
    ((("shsyt", lam, "b"), v) for n in range(11) for lam in strict_partitions_of(n) for v in PEAK),
    ((("signed-shsyt", lam, "psi"), v)
     for n in range(8) for lam in strict_partitions_of(n) for v in DESCENT),
))


@pytest.mark.parametrize("desc, verify", BUILTIN, ids=lambda x: getattr(x, "__name__", str(x)))
def test_the_routed_report_is_the_whole_grounds(desc, verify):
    g = build_ground(desc)
    assert dump(verify(g)) == dump(verify.__wrapped__(g))


FAULTED = [
    (("perm", 5, "d"), DESCENT),
    (("perm", 6, "d"), DESCENT),
    (("signedperm", 3, "phi"), DESCENT),
    (("signedperm", 4, "phi"), DESCENT),
    (("signed-shsyt", (4, 2), "psi"), DESCENT),
    (("perm", 6, "b"), PEAK),
    (("shsyt", (5, 3, 1), "b"), PEAK),
]


@pytest.mark.parametrize("desc, verifiers", FAULTED, ids=[str(desc) for desc, _ in FAULTED])
def test_routed_reports_equal_the_whole_grounds_on_faulted_files(desc, verifiers):
    rng = random.Random(26)
    g = build_ground(desc)
    grounds = [parse_deg(text) for text in injected(desc)]
    grounds += [mutant(g, rng) for _ in range(4)]
    # one faulty class among copies of good ones: a code of its own
    grounds += [union(copies(g, 2), grounds[0]), union(grounds[-1], copies(g, 3))]
    failed = 0
    for h in grounds:
        for verify in verifiers:
            got = verify(h)
            assert dump(got) == dump(verify.__wrapped__(h)), h.desc
            failed += not got.passed
    assert failed > 0


def subground_calls(monkeypatch):
    """The number of members of every subground engine makes."""
    sizes, original = [], engine.subground

    def recorded(g, members, desc=None):
        sizes.append(len(members))
        return original(g, members, desc)

    monkeypatch.setattr(engine, "subground", recorded)
    return sizes


def test_a_passing_ground_with_repeated_types_verifies_one_class_per_type(monkeypatch):
    sizes = subground_calls(monkeypatch)
    g = build_ground(("signedperm", 5, "phi"))
    report = verify_weak(g)
    assert report.passed and report.ground == g.desc
    types = {_class_code(c, [g.invs[i] for i in g.index_range()], _stat_masks(g))[0]
             for c in classes(g)}
    assert len(types) < len(classes(g))
    assert len(sizes) == 1 and sizes[0] < g.size


def test_connected_and_typeless_grounds_go_straight_to_the_whole(monkeypatch):
    sizes = subground_calls(monkeypatch)
    assert verify_shifted(build_ground(("shsyt", (5, 3, 1), "b"))).passed
    # two classes of different shapes: no code repeats
    two = union(build_ground(("shsyt", (4, 1), "b")), build_ground(("shsyt", (3, 2), "b")))
    assert len(classes(two)) == 2 and verify_shifted(two).passed
    assert sizes == []


def test_a_connected_ground_is_walked_once_and_never_coded(monkeypatch):
    codes, original = [], engine._class_code

    def counted(members, *rest):
        codes.append(len(members))
        return original(members, *rest)

    monkeypatch.setattr(engine, "_class_code", counted)
    g = build_ground(("shsyt", (6, 4, 2), "b"))
    assert len(classes(g)) == 1 and verify_shifted(g).passed
    assert codes == []


def test_a_failing_ground_pays_the_route_then_the_whole(monkeypatch):
    sizes = subground_calls(monkeypatch)
    g = build_ground(("perm", 6, "b"))
    bad = union(copies(g, 2), mutant(g, random.Random(3)))
    report = verify_shifted(bad)
    assert not report.passed
    assert len(sizes) == 1 and sizes[0] < bad.size
    assert dump(report) == dump(verify_shifted.__wrapped__(bad))


def test_a_subground_keeps_the_words_packed_and_names_its_first_member():
    g = build_ground(("signedperm", 4, "phi"))
    members = sorted(classes(g)[3] + classes(g)[0])
    sub = subground(g, members)
    assert isinstance(sub.labels, _WordLabels)
    assert tuple(sub.labels) == tuple(g.labels[x] for x in members)
    assert sub.desc == f"{g.desc}|{g.labels[members[0]]}"
    assert sub.stats == tuple(g.stats[x] for x in members)
    assert subground(g, members, g.desc).desc == g.desc


# --- the code's soundness ---


def coded_classes(desc):
    g = build_ground(desc)
    tables = [g.invs[i] for i in g.index_range()]
    return g, tables, _stat_masks(g), [c for c in classes(g) if len(c) > 2]


@pytest.mark.parametrize("desc", [("perm", 6, "d"), ("signedperm", 4, "phi"),
                                  ("perm", 7, "b")], ids=str)
def test_swapping_two_tables_changes_the_code(desc):
    g, tables, masks, comps = coded_classes(desc)
    swaps = 0
    for comp in comps:
        code = _class_code(comp, tables, masks)[0]
        for a, b in combinations(range(len(tables)), 2):
            if all(tables[a][x] == tables[b][x] for x in comp):
                continue  # the two tables agree on the class
            swapped = list(tables)
            swapped[a], swapped[b] = tables[b], tables[a]
            assert _class_code(comp, swapped, masks)[0] != code, (comp, a, b)
            swaps += 1
    assert swaps > 0


@pytest.mark.parametrize("desc", [("perm", 6, "d"), ("signedperm", 4, "phi"),
                                  ("perm", 7, "b")], ids=str)
def test_changing_one_mask_changes_the_code(desc):
    g, tables, masks, comps = coded_classes(desc)
    for comp in comps:
        code = _class_code(comp, tables, masks)[0]
        for x in comp[:3]:
            changed = list(masks)
            changed[x] ^= 2
            assert _class_code(comp, tables, changed)[0] != code, (comp, x)


@pytest.mark.parametrize("desc", [("perm", 6, "d"), ("signedperm", 4, "phi"),
                                  ("perm", 7, "b")], ids=str)
def test_renumbering_a_class_keeps_its_code(desc):
    g = build_ground(desc)
    h = shuffled(g, random.Random(7))
    codes = []
    for ground in (g, h):
        tables, masks = [ground.invs[i] for i in ground.index_range()], _stat_masks(ground)
        number = [-1] * ground.size
        codes.append({
            frozenset(ground.labels[x] for x in comp): _class_code(comp, tables, masks, number)[0]
            for comp in classes(ground)
        })
    assert codes[0] == codes[1]


def test_a_numbering_list_and_the_default_dict_give_one_code():
    g, tables, masks, comps = coded_classes(("signedperm", 4, "phi"))
    number = [-1] * g.size
    for comp in comps:
        assert _class_code(comp, tables, masks, number) == _class_code(comp, tables, masks)
    assert number == [-1] * g.size  # every walk resets what it numbered
