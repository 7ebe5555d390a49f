from hypothesis import given, settings, strategies as st
import pytest

from test_window_pass import ref_find_isomorphisms
from test_window_reads import window_genfn

from dualeq.core import partitions_of, strict_partitions_of
from dualeq.engine import (
    ClassClassification,
    ClassificationFailure,
    DEG_MAX_DEGREE,
    DegParseError,
    build_ground,
    class_genfn,
    classes,
    classify_shifted_class,
    find_isomorphism,
    lemma_axiom4_check,
    parse_deg,
    relabel_peak_minus_one,
    restricted_class,
    subground,
    verify_shifted,
    verify_strong,
    verify_weak,
)
from dualeq.qsym import (
    NotInSpan,
    P_in_F,
    P_in_G,
    PExpansion,
    QSymG,
    expand_in_P,
    expand_in_schur,
    schur_in_F,
)


def label_classes(g):
    return {frozenset(g.labels[x] for x in c) for c in classes(g)}


def test_build_ground_families():
    g = build_ground(("perm", 4, "d"))
    assert g.size == 24 and g.stat_kind == "des" and list(g.index_range()) == [2, 3]
    g = build_ground(("signedperm", 4, "phi"))
    assert g.size == 2**4 * 24
    g = build_ground(("syt", (3, 1), "d"))
    assert g.size == 3
    g = build_ground(("shsyt", (4, 2, 1), "b"))
    assert g.size == 7 and g.stat_kind == "peak" and list(g.index_range()) == [2, 3, 4, 5]
    g = build_ground(("signed-shsyt", (3, 1), "psi"))
    assert g.size == 8
    with pytest.raises(ValueError):
        build_ground(("perm", 4, "q"))
    with pytest.raises(ValueError):
        build_ground(("syzygy", 4, "d"))


def test_perm4_d_classes_exact():
    g = build_ground(("perm", 4, "d"))
    want = {
        frozenset({"1234"}),
        frozenset({"4321"}),
        frozenset({"2143", "3142"}),
        frozenset({"2413", "3412"}),
        frozenset({"2314", "1324", "1423"}),
        frozenset({"1432", "2431", "3421"}),
        frozenset({"2341", "1342", "1243"}),
        frozenset({"4312", "4213", "3214"}),
        frozenset({"2134", "3124", "4123"}),
        frozenset({"4132", "4231", "3241"}),
    }
    assert label_classes(g) == want
    assert sorted(len(c) for c in classes(g)) == [1, 1, 2, 2, 3, 3, 3, 3, 3, 3]


def test_perm4_b_classes_exact():
    g = build_ground(("perm", 4, "b"))
    fixed = {"1234", "2134", "2314", "2341", "3214", "3241", "3421", "4321"}
    pairs = {
        frozenset(p)
        for p in [
            ("1243", "1342"), ("1324", "1423"), ("1432", "2431"),
            ("2143", "3142"), ("2413", "3412"), ("3124", "4123"),
            ("4132", "4231"), ("4213", "4312"),
        ]
    }
    assert label_classes(g) == {frozenset({w}) for w in fixed} | pairs


def test_shsyt_421_is_single_class_of_seven():
    g = build_ground(("shsyt", (4, 2, 1), "b"))
    assert [len(c) for c in classes(g)] == [7]


def test_classes_ordered_by_smallest_member():
    g = build_ground(("perm", 4, "d"))
    cls = classes(g)
    assert [c[0] for c in cls] == sorted(c[0] for c in cls)
    assert all(list(c) == sorted(c) for c in cls)


def test_restricted_class_window():
    g = build_ground(("shsyt", (3, 2), "b"))
    t = g.labels.index("35124")
    comp = restricted_class(g, t, 2, 2)
    assert {g.labels[x] for x in comp} == {"35124", "45123"}
    full = restricted_class(g, t, 2, 3)
    assert set(full) == set(classes(g)[0])
    # a fixed point of the whole window is a singleton
    g = build_ground(("shsyt", (4, 1), "b"))
    s = g.labels.index("51234")  # peak {4}: fixed by b2
    assert restricted_class(g, s, 2, 2) == (s,)
    with pytest.raises(ValueError):
        restricted_class(g, s, 2, 9)


def test_class_genfn_syt_is_schur():
    g = build_ground(("syt", (3, 1), "d"))
    gf = class_genfn(g, classes(g)[0])
    assert gf == schur_in_F((3, 1))
    assert gf.render() == ["1 F{1}", "1 F{2}", "1 F{3}"]


def test_class_genfn_shsyt_is_schur_P():
    g = build_ground(("shsyt", (3, 1), "b"))
    gf = class_genfn(g, classes(g)[0])
    assert gf == QSymG(4, {frozenset({2}): 1, frozenset({3}): 1})
    exp = expand_in_P(gf)
    assert isinstance(exp, PExpansion) and exp.coeffs == {(3, 1): 1}


def test_class_genfn_matches_P_in_G_up_to_seven():
    for n in range(3, 8):
        for lam in strict_partitions_of(n):
            g = build_ground(("shsyt", lam, "b"))
            (c,) = classes(g)
            assert class_genfn(g, c) == P_in_G(lam)
    # the (3,2) class carries a genuine multiplicity on its two-peak member
    g = build_ground(("shsyt", (3, 2), "b"))
    gf = class_genfn(g, classes(g)[0])
    assert gf.coeffs == {frozenset({3}): 1, frozenset({2, 4}): 2}


def test_windowed_genfn_calibration():
    g = build_ground(("shsyt", (3, 2), "b"))
    c = classes(g)[0]
    gf = window_genfn(g, c, (3, 3))
    assert gf == QSymG(4, {frozenset({2}): 1, frozenset({3}): 1})
    exp = expand_in_P(gf)
    assert isinstance(exp, PExpansion) and exp.coeffs == {(3, 1): 1}
    # the diagnostic literal window reading leaves an invalid peak set behind
    lit = window_genfn(g, c, (3, 3), literal=True)
    bad = expand_in_P(lit)
    assert isinstance(bad, NotInSpan)


def test_verify_strong_syt_all_shapes_up_to_seven():
    for n in range(2, 8):
        for lam in partitions_of(n):
            rep = verify_strong(build_ground(("syt", lam, "d")))
            assert rep.passed, (lam, rep.results)


def test_verify_strong_permutations():
    for n in (4, 5):
        rep = verify_strong(build_ground(("perm", n, "d")))
        assert rep.passed and rep.results == {
            "i": True, "ii": True, "iii": True, "iv": True,
        }


def test_verify_strong_signedperm_fails_only_window_condition():
    rep = verify_strong(build_ground(("signedperm", 4, "phi")))
    assert rep.results["i"] and rep.results["ii"] and rep.results["iii"]
    assert not rep.results["iv"]
    assert not rep.passed
    assert rep.witnesses_for("iv")


def test_verify_weak_signed_permutations():
    for n in (4, 5):
        rep = verify_weak(build_ground(("signedperm", n, "phi")))
        assert rep.passed, (n, rep.results)


def test_verify_weak_signed_shifted_tableaux():
    for n in range(2, 7):
        for lam in strict_partitions_of(n):
            rep = verify_weak(build_ground(("signed-shsyt", lam, "psi")))
            assert rep.passed, (lam, rep.results)


def test_psi_31_class_structure():
    g = build_ground(("signed-shsyt", (3, 1), "psi"))
    cls = classes(g)
    assert sorted(len(c) for c in cls) == [2, 3, 3]
    expansions = set()
    union = None
    for c in cls:
        f = class_genfn(g, c)
        union = f if union is None else union + f
        e = expand_in_schur(f)
        assert e.is_nonnegative_integral()
        expansions.add(tuple(sorted(e.coeffs.items())))
    assert expansions == {
        (((3, 1), 1),),
        (((2, 2), 1),),
        (((2, 1, 1), 1),),
    }
    assert union == P_in_F((3, 1))


WEAK_FAULT = """deg 1
n 4 stat des
vertex a { 1 }
"""


def test_fault_injection_weak_and_strong():
    g = parse_deg(WEAK_FAULT)
    rep = verify_weak(g)
    assert not rep.passed
    assert not rep.results["i"] and not rep.results["iv-a"]
    assert any(w.labels == ("a",) for w in rep.witnesses)
    assert not verify_strong(g).results["iv"]


def test_fault_injection_shifted():
    g = parse_deg("deg 1\nn 5 stat peak\nvertex a { 2 }\n")
    rep = verify_shifted(g)
    assert not rep.passed
    assert not rep.results["i"]
    assert rep.witnesses_for("i")[0].labels == ("a",)


def test_verify_shifted_all_shapes_up_to_seven():
    for n in range(3, 8):
        for lam in strict_partitions_of(n):
            rep = verify_shifted(build_ground(("shsyt", lam, "b")))
            assert rep.passed, (lam, rep.results)


def test_verify_shifted_permutations_of_five():
    rep = verify_shifted(build_ground(("perm", 5, "b")))
    assert rep.passed and rep.results == {
        "i": True, "ii": True, "iii": True, "iv": True,
    }


def test_literal_peak_window_flag_diverges():
    g = build_ground(("shsyt", (4, 2), "b"))
    assert verify_shifted(g).passed
    rep = verify_shifted(g, literal_peak_window=True)
    assert not rep.results["iv"]
    assert any("witness" in w.detail for w in rep.witnesses_for("iv"))


def test_two_row_shifted_matches_straight_dual_equivalence():
    for r, s in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]:
        src = relabel_peak_minus_one(build_ground(("shsyt", (r, s), "b")))
        dst = build_ground(("syt", (r - 1, s), "d"))
        assert find_isomorphism(src, dst) is not None, (r, s)


def test_three_row_shifted_matches_no_straight_shape():
    src = relabel_peak_minus_one(build_ground(("shsyt", (3, 2, 1), "b")))
    for size in (5, 6):
        for mu in partitions_of(size):
            assert find_isomorphism(src, build_ground(("syt", mu, "d"))) is None
    # the structural reason: a triple edge violates descent transport
    rep = verify_strong(src)
    assert not rep.results["ii"]
    assert {"635124", "645123"} == set(rep.witnesses_for("ii")[0].labels)


def test_self_isomorphisms_are_identity_only():
    for lam in [(4, 2), (4, 2, 1)]:
        g = build_ground(("shsyt", lam, "b"))
        isos = list(ref_find_isomorphisms(g, g))
        assert len(isos) == 1
        assert all(v == k for k, v in isos[0].items())


def test_relabel_peak_minus_one_mechanics():
    g = build_ground(("shsyt", (3, 1), "b"))
    rg = relabel_peak_minus_one(g)
    assert rg.stat_kind == "des" and rg.n == g.n - 1
    assert list(rg.index_range()) == list(g.index_range())
    assert set(rg.stats) == {frozenset({1}), frozenset({2})}
    with pytest.raises(ValueError):
        relabel_peak_minus_one(rg)


def test_classify_shsyt_43_is_identity():
    g = build_ground(("shsyt", (4, 3), "b"))
    r = classify_shifted_class(g, classes(g)[0])
    assert isinstance(r, ClassClassification)
    assert r.shape == (4, 3)
    assert all(v == k for k, v in r.mapping.items())


def test_classify_row_singleton():
    g = build_ground(("shsyt", (5,), "b"))
    (c,) = classes(g)
    assert len(c) == 1
    r = classify_shifted_class(g, c)
    assert r.shape == (5,)


DEG_PAIR = """deg 1
n 4 stat peak
vertex a { 3 }
vertex b { 2 }
edge 2 a b
"""


def test_classify_file_pair():
    g = parse_deg(DEG_PAIR)
    r = classify_shifted_class(g, classes(g)[0])
    assert isinstance(r, ClassClassification)
    assert r.shape == (3, 1)
    assert r.mapping == {"a": "4123", "b": "3124"}


def test_classify_failure_reported_not_raised():
    g = parse_deg("deg 1\nn 4 stat peak\nvertex a { 2 }\n")
    r = classify_shifted_class(g, classes(g)[0])
    assert isinstance(r, ClassificationFailure)
    assert "span" in r.reason


def test_lemma_window_isomorphism_check():
    for n in range(3, 7):
        for lam in strict_partitions_of(n):
            rep = lemma_axiom4_check(build_ground(("shsyt", lam, "b")))
            assert rep.results.get("v", True), (lam, rep.witnesses[:2])


def test_lemma_vi_vacuous_note_and_applicable_run():
    rep = lemma_axiom4_check(build_ground(("shsyt", (4, 2, 1), "b")))
    assert "vacuous" in rep.notes["vi"]
    rep = lemma_axiom4_check(build_ground(("shsyt", (5, 2, 1), "b")))
    assert "vi" not in rep.notes
    assert rep.results.get("vi", True)


def test_parse_deg_error_positions():
    cases = [
        ("nope\n", 1, "deg 1"),
        ("deg 1\nn x stat des\n", 2, "degree"),
        ("deg 1\nn -1 stat des\n", 2, "nonnegative"),
        ("deg 1\nn 17 stat des\nvertex a { }\n", 2, "above the limit 16"),
        ("deg 1\n\nn 2000000 stat peak\nvertex a { }\n", 3, "limit 16"),
        ("deg 1\nn 4 stat mod\n", 2, "stat"),
        ("deg 1\nn 4 stat des\nvertex a { 1 }\nvertex a { 2 }\n", 4, "duplicate"),
        ("deg 1\nn 4 stat des\nvertex a { 1 }\nedge 2 a b\n", 4, "unknown"),
        (
            "deg 1\nn 4 stat des\nvertex a {1}\nvertex b {2}\nvertex c {1}\n"
            "edge 2 a b\nedge 2 a c\n",
            7,
            "involution",
        ),
        ("deg 1\nn 5 stat peak\nvertex a { 2,3 }\n", 3, "peak"),
        ("deg 1\nn 4 stat des\nvertex a { 7 }\n", 3, "range"),
        ("deg 1\nn 4 stat des\nvertex a { 1 }\nedge 9 a a\n", 4, "index"),
        # a keyword runs into the next token
        ("deg 1\nn 4 stat des\nvertexa b { 1 }\n", 3, '"vertex <id>'),
        ("deg 1\nn 4 stat des\nvertex a { 1 }\nedgeX 2 a a\n", 4, '"edge <i>'),
        # a brace inside an id, a short edge line
        ("deg 1\nn 4 stat des\nvertex a { 1 }\nvertex b}c { 2 }\n", 4, '"vertex <id>'),
        ("deg 1\nn 4 stat des\nvertex a { 1 }\nedge 2 a\n", 4, '"edge <i>'),
        # a self-paired vertex is paired: a second edge on it is refused
        (
            "deg 1\nn 4 stat des\nvertex a {1}\nvertex b {2}\nedge 2 a a\n"
            "edge 2 a b\n",
            6,
            "appears twice",
        ),
    ]
    for src, line, word in cases:
        with pytest.raises(DegParseError) as err:
            parse_deg(src)
        assert err.value.line_no == line, src
        assert word in str(err.value)


def test_parse_deg_accepts_the_largest_degree():
    g = parse_deg(f"deg 1\nn {DEG_MAX_DEGREE} stat peak\nvertex a {{ 2,15 }}\n")
    assert (g.n, g.size, list(g.index_range())) == (16, 1, list(range(2, 15)))


def test_parse_deg_empty_and_fixed_points():
    g = parse_deg("deg 1\nn 4 stat des\n")
    assert g.size == 0 and classes(g) == []
    g = parse_deg("deg 1\nn 4 stat des\nvertex a { }\nvertex b { 1, 2, 3 }\n")
    assert g.size == 2
    assert all(table == (0, 1) for table in g.invs.values())
    assert label_classes(g) == {frozenset({"a"}), frozenset({"b"})}


def test_subground_of_a_whole_class():
    g = build_ground(("shsyt", (3, 2), "b"))
    c = classes(g)[0]
    full = subground(g, c)
    assert full.n == g.n and full.size == len(c)
    assert list(full.invs) == list(g.index_range())
    assert sorted(full.labels) == sorted(g.labels[x] for x in c)


def deg_text(g):
    """A ground in the .deg format that parse_deg reads."""
    lines = ["deg 1", f"n {g.n} stat {g.stat_kind}"]
    lines += [
        f"vertex {label} {{ {','.join(map(str, sorted(s)))} }}"
        for label, s in zip(g.labels, g.stats)
    ]
    lines += [
        f"edge {i} {g.labels[x]} {g.labels[y]}"
        for i, table in g.invs.items()
        for x, y in enumerate(table)
        if x < y
    ]
    return "\n".join(lines) + "\n"


def same_ground(g, h):
    return (g.stat_kind, g.n, g.labels, g.stats, g.invs) == (
        h.stat_kind, h.n, h.labels, h.stats, h.invs
    )


WELL_FORMED = [
    deg_text(build_ground(desc))
    for desc in [
        ("perm", 3, "d"),
        ("perm", 4, "b"),
        ("syt", (2, 1), "d"),
        ("shsyt", (3, 1), "b"),
        ("signed-shsyt", (2, 1), "psi"),
        ("shsyt", (12,), "b"),
    ]
] + [DEG_PAIR, WEAK_FAULT, "deg 1\nn 0 stat des\nvertex a { }\n"]


def test_well_formed_deg_files_round_trip():
    for text in WELL_FORMED:
        g = parse_deg(text)
        assert same_ground(parse_deg(deg_text(g)), g)


@st.composite
def mutated_deg(draw):
    lines = draw(st.sampled_from(WELL_FORMED)).splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.sampled_from(range(len(lines))))
        pos = draw(st.integers(0, len(lines[k])))
        op = draw(st.sampled_from(("insert", "delete", "duplicate")))
        if op == "insert":
            piece = draw(st.text("degnstapkvrx{},- 0123456789'\n", min_size=1, max_size=4))
            lines[k] = lines[k][:pos] + piece + lines[k][pos:]
        elif op == "delete":
            lines[k] = lines[k][:pos] + lines[k][pos + draw(st.integers(1, 6)):]
        else:
            lines.insert(k, lines[k])
    return "".join(lines)


@given(mutated_deg())
@settings(max_examples=300, deadline=None)
def test_parse_deg_raises_only_value_errors(text):
    try:
        g = parse_deg(text)
    except ValueError:  # DegParseError is one
        return
    assert g.n <= DEG_MAX_DEGREE
    assert same_ground(parse_deg(deg_text(g)), g)
