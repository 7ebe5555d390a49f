import argparse
import inspect
import io
import contextlib
import re
import time

import pytest

from dualeq import cli, engine, qsym, tableaux
from dualeq.cli import build_parser, main
from dualeq.core import parse_partition
from dualeq.qsym import (
    F_specialize,
    G_to_F,
    P_in_F,
    P_in_G,
    Q_in_F,
    parse_expansion,
    schur_in_F,
)
from test_word_layer import count_calls


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_expand_schur_F():
    code, out, _ = run("expand", "schur", "[3,1]")
    assert code == 0
    assert out.splitlines() == ["1 F{1}", "1 F{2}", "1 F{3}"]


def test_expand_P_in_G():
    code, out, _ = run("expand", "P", "[3,1]", "--basis", "G")
    assert (code, out.splitlines()) == (0, ["1 G{2}", "1 G{3}"])
    code, out, _ = run("expand", "P", "[3,2]", "--basis", "G")
    assert (code, out.splitlines()) == (0, ["1 G{3}", "2 G{2,4}"])


def test_expand_Q_is_scaled_P():
    code, out, _ = run("expand", "Q", "[3,1]", "--basis", "G")
    assert (code, out.splitlines()) == (0, ["4 G{2}", "4 G{3}"])


def test_expand_schur_of_P():
    code, out, _ = run("expand", "P", "[3,1]", "--schur-of")
    assert code == 0
    assert out.splitlines() == ["1 s[3,1]", "1 s[2,2]", "1 s[2,1,1]"]


def test_expand_output_round_trips():
    for argv, n in [
        (("expand", "P", "[4,2,1]"), 7),
        (("expand", "Q", "[4,2,1]"), 7),
        (("expand", "schur", "[3,2,2]"), 7),
        (("expand", "P", "[4,2,1]", "--basis", "G"), 7),
        (("expand", "P", "[4,3,1]", "--schur-of"), 8),
    ]:
        code, out, _ = run(*argv)
        assert code == 0
        vec = parse_expansion(out, n)
        assert vec.coeffs and all(c > 0 for c in vec.coeffs.values())


@pytest.mark.parametrize(
    "argv, want",
    [
        (("expand", "P", "[]", "--basis", "G"), ["1 G{}"]),
        (("expand", "Q", "[]", "--basis", "G"), ["1 G{}"]),
        (("expand", "schur", "[]", "--schur-of"), ["1 s[]"]),
        (("classes", "--ground", "perm", "--n", "0", "--family", "d",
          "--porcelain"), ["1\t1\t\t1 F{}\t1 s[]"]),
        (("classes", "--ground", "syt", "--shape", "[]", "--family", "d",
          "--porcelain"), ["1\t1\t\t1 F{}\t1 s[]"]),
        (("classes", "--ground", "shsyt", "--shape", "[]", "--family", "b",
          "--porcelain"), ["1\t1\t\t1 G{}\t1 P[]"]),
        (("specialize", "--kind", "Q", "--shape", "[]", "--vars", "2",
          "--via", "G"), ["1 1"]),
    ],
)
def test_degree_zero_is_the_empty_shape(argv, want):
    # s_() = P_() = Q_() = 1 on every route
    code, out, err = run(*argv)
    assert (code, out.splitlines(), err) == (0, want, "")


def test_degree_zero_deg_files(tmp_path):
    # a degree-0 file is the empty shape, as a degree-0 builtin ground is
    peak = tmp_path / "empty-peak.deg"
    peak.write_text("deg 1\nn 0 stat peak\nvertex a { }\n")
    code, out, err = run("classify", "--file", str(peak))
    assert (code, out.splitlines()[0], err) == (0, "class 1: shape []", "")
    des = tmp_path / "empty-des.deg"
    des.write_text("deg 1\nn 0 stat des\nvertex a { }\n")
    code, out, err = run("verify", "--axioms", "weak", "--file", str(des))
    assert (code, out.splitlines()[-1], err) == (0, "result: pass", "")
    negative = tmp_path / "negative.deg"
    negative.write_text("deg 1\nn -1 stat des\n")
    code, out, err = run("verify", "--axioms", "weak", "--file", str(negative))
    assert (code, out) == (2, "")
    assert "line 2: degree must be nonnegative" in err


def test_oversized_deg_file_exits_two(tmp_path):
    # refused when parsed, before any table is built or any pair checked
    f = tmp_path / "huge.deg"
    f.write_text("deg 1\nn 2000000 stat des\nvertex a { }\n")
    code, out, err = run("verify", "--axioms", "weak", "--file", str(f))
    assert (code, out) == (2, "")
    assert "line 2: degree 2000000 is above the limit 16" in err
    f.write_text("deg 1\nn 16 stat des\nvertex a { }\n")
    code, out, err = run("verify", "--axioms", "weak", "--file", str(f))
    assert (code, out.splitlines()[-1], err) == (0, "result: pass", "")


def test_deg_file_with_too_many_vertices_exits_two(tmp_path, monkeypatch):
    # refused on the first vertex line past the limit, whatever follows it
    monkeypatch.setattr(engine, "MAX_GROUND_OBJECTS", 5)
    f = tmp_path / "many.deg"
    vertices = "".join(f"vertex v{k} {{ }}\n" for k in range(5))
    f.write_text("deg 1\nn 3 stat des\n" + vertices)
    code, out, err = run("verify", "--axioms", "weak", "--file", str(f))
    assert (code, out.splitlines()[-1], err) == (0, "result: pass", "")
    f.write_text("deg 1\nn 3 stat des\n" + vertices + "vertex v5 {\nedge 9\n")
    code, out, err = run("verify", "--axioms", "weak", "--file", str(f))
    assert (code, out) == (2, "")
    assert err == "error: line 8: more than 5 vertices\n"


@pytest.mark.parametrize("argv, count", [
    # [3,1]: 3 syt, 2 shifted, 8 signed, 32 with primes on the diagonal too
    (("expand", "schur", "[3,1]"), 3),
    (("expand", "schur", "[3,1]", "--schur-of"), 3),
    (("expand", "P", "[3,1]"), 8),
    (("expand", "P", "[3,1]", "--basis", "G"), 2),
    (("expand", "Q", "[3,1]"), 32),
    (("expand", "Q", "[3,1]", "--basis", "G"), 2),
    (("expand", "Q", "[3,1]", "--schur-of"), 32),
    (("enumerate", "syt", "[3,1]"), 3),
    (("enumerate", "shsyt", "[3,1]", "--porcelain"), 2),
    (("enumerate", "signed", "[3,1]", "--porcelain"), 8),
    (("enumerate", "signed", "[3,1]", "--diagonal-primes"), 32),
])
def test_oversized_expand_or_enumerate_exits_two_before_any_work(
    argv, count, monkeypatch
):
    enumerated = count_calls(monkeypatch, "_standard_words")
    monkeypatch.setattr(engine, "MAX_GROUND_OBJECTS", count)
    assert run(*argv)[0] == 0
    monkeypatch.setattr(engine, "MAX_GROUND_OBJECTS", count - 1)
    enumerated.clear()
    code, out, err = run(*argv)
    assert (code, out, enumerated) == (2, "", [])
    assert err == (f"error: {argv[1]} [3,1] has {count} objects, "
                   f"above the limit {count - 1}\n")


@pytest.mark.parametrize("argv, count", [
    (("enumerate", "ssyt", "[2,1]", "--max", "3"), 8),
    (("enumerate", "shssyt", "[2,1]", "--max", "2"), 2),
    (("enumerate", "shssyt", "[2,1]", "--max", "2", "--diagonal-primes"), 8),
    (("specialize", "--kind", "s", "--shape", "[2,1]", "--vars", "3"), 8),
    (("specialize", "--kind", "P", "--shape", "[2,1]", "--vars", "2"), 2),
    (("specialize", "--kind", "Q", "--shape", "[2,1]", "--vars", "2"), 8),
])
def test_oversized_semistandard_request_exits_two_before_enumerating(
    argv, count, monkeypatch
):
    enumerated = count_calls(monkeypatch, "_semistandard_fillings")
    if argv[0] == "specialize":  # each tableau's monomial is --vars exponents
        count *= int(argv[6])
    monkeypatch.setattr(engine, "MAX_GROUND_OBJECTS", count)
    assert run(*argv)[0] == 0 and len(enumerated) == 1
    monkeypatch.setattr(engine, "MAX_GROUND_OBJECTS", count - 1)
    enumerated.clear()
    code, out, err = run(*argv)
    assert (code, out, enumerated) == (2, "", [])
    kind = argv[1] if argv[0] == "enumerate" else argv[2]
    what = f"{kind} [2,1]" + (f" in {argv[6]} variables" if argv[0] == "specialize" else "")
    # straight tableaux are counted by the hook-content formula, shifted
    # ones by Schur's Pfaffian: both exactly
    assert err == (f"error: {what} has {count} objects, "
                   f"above the limit {count - 1}\n")


@pytest.mark.parametrize("argv", [
    ("enumerate", "shssyt", "[3,1]", "--max", "3"),
    ("enumerate", "shssyt", "[3,1]", "--max", "3", "--diagonal-primes"),
    ("specialize", "--kind", "P", "--shape", "[3,2]", "--vars", "3"),
    ("specialize", "--kind", "Q", "--shape", "[2,1]", "--vars", "2"),
])
def test_an_admitted_shifted_semistandard_request_walks_once(argv, monkeypatch):
    walks = count_calls(monkeypatch, "_semistandard_fillings")
    code, out, err = run(*argv)
    assert (code, err, len(walks)) == (0, "", 1) and out


def test_a_schur_function_expanded_in_schur_functions_is_built_once(monkeypatch):
    built = []

    def recorded(shape):  # a new function, so no vector of it is cached yet
        built.append(shape)
        return schur_in_F(shape)

    monkeypatch.setattr(qsym, "schur_in_F", recorded)
    monkeypatch.setattr(cli, "schur_in_F", recorded)
    assert run("expand", "schur", "[4,3,1]", "--schur-of") == (0, "1 s[4,3,1]\n", "")
    assert built == [(4, 3, 1)]


def test_enumerate_standard_porcelain():
    code, out, _ = run("enumerate", "syt", "[2,1]", "--porcelain")
    assert (code, out.splitlines()) == (0, ["213", "312", "count 2"])
    code, out, _ = run("enumerate", "shsyt", "[3,1]", "--porcelain")
    assert (code, out.splitlines()) == (0, ["3124", "4123", "count 2"])


def test_enumerate_grid_output():
    code, out, _ = run("enumerate", "syt", "[2,1]")
    assert code == 0
    assert out == "2\n1 3\n\n3\n1 2\n\ncount 2\n"


def test_enumerate_semistandard_needs_max():
    code, _, err = run("enumerate", "ssyt", "[2,1]")
    assert code == 2 and "--max" in err
    code, out, _ = run("enumerate", "ssyt", "[2,1]", "--max", "2", "--porcelain")
    assert (code, out.splitlines()) == (0, ["2 / 1 1", "2 / 1 2", "count 2"])


def test_enumerate_signed_diagonal_primes():
    code, out, _ = run("enumerate", "signed", "[2,1]", "--porcelain")
    assert (code, out.splitlines()) == (0, ["312", "312'", "count 2"])
    code, out, _ = run(
        "enumerate", "signed", "[2,1]", "--diagonal-primes", "--porcelain"
    )
    assert code == 0 and out.splitlines()[-1] == "count 8"


def test_classes_human_output():
    code, out, _ = run(
        "classes", "--ground", "syt", "--shape", "[3,1]", "--family", "d"
    )
    assert code == 0
    assert out.splitlines() == [
        "class 1: size 3",
        "  members: 2134 3124 4123",
        "  genfn:   1 F{1} + 1 F{2} + 1 F{3}",
        "  certified: 1 s[3,1]",
        "classes 1",
    ]


def test_classes_expands_each_distinct_class_vector_once(monkeypatch):
    # the 192 classes of perm 6 under b have 4 distinct vectors; each line
    # is what the class's own generating function expands to
    monkeypatch.setattr(engine, "_EXPANSIONS", {})
    expanded = []
    monkeypatch.setattr(engine, "expand", lambda f: expanded.append(f) or qsym.expand(f))
    code, out, _ = run("classes", "--ground", "perm", "--n", "6", "--family", "b", "--porcelain")
    g = engine.build_ground(("perm", 6, "b"))
    comps = engine.classes(g)
    assert (code, len(comps), len(expanded)) == (0, 192, 4)
    want = []
    for idx, comp in enumerate(comps, 1):
        genfn = engine.class_genfn(g, comp)
        terms = " + ".join(genfn.render())
        certified = cli._expansion_summary(qsym.expand(genfn))
        want.append(f"{idx}\t{len(comp)}\t{','.join(g.labels[m] for m in comp)}\t{terms}\t{certified}")
    assert out.splitlines() == want


def test_classes_porcelain_shifted():
    code, out, _ = run(
        "classes", "--ground", "shsyt", "--shape", "[3,2]",
        "--family", "b", "--porcelain",
    )
    assert code == 0
    assert out.splitlines() == [
        "1\t2\t35124,45123\t1 G{3} + 2 G{2,4}\t1 P[3,2]"
    ]


def test_classes_porcelain_signed_shifted():
    code, out, _ = run(
        "classes", "--ground", "signed-shsyt", "--shape", "[3,1]",
        "--family", "psi", "--porcelain",
    )
    assert code == 0
    certified = [line.split("\t")[4] for line in out.splitlines()]
    assert certified == ["1 s[3,1]", "1 s[2,1,1]", "1 s[2,2]"]


def test_verify_pass_output_and_exit():
    code, out, _ = run(
        "verify", "--axioms", "strong", "--ground", "syt",
        "--shape", "[3,1]", "--family", "d",
    )
    assert code == 0
    assert out.splitlines() == [
        "condition i: pass",
        "condition ii: pass",
        "condition iii: pass",
        "condition iv: pass",
        "result: pass",
    ]
    code, out, _ = run(
        "verify", "--axioms", "strong", "--ground", "syt",
        "--shape", "[3,1]", "--family", "d", "--porcelain",
    )
    assert code == 0 and out.splitlines()[-1] == "result pass"


def test_verify_lemma_vi_note():
    code, out, _ = run(
        "verify", "--axioms", "shifted", "--ground", "shsyt",
        "--shape", "[4,2]", "--family", "b", "--porcelain", "--lemma-vi",
    )
    assert code == 0
    lines = out.splitlines()
    assert "cond v pass" in lines and "cond vi pass" in lines
    assert "note vi vacuous: no window (i-4, i) fits the index range" in lines


def test_verify_fault_file_reports_witnesses(tmp_path):
    f = tmp_path / "fault.deg"
    f.write_text("deg 1\nn 4 stat des\nvertex a { 1 }\n")
    code, out, _ = run("verify", "--axioms", "weak", "--file", str(f), "--porcelain")
    assert code == 1
    lines = out.splitlines()
    assert "cond i fail" in lines
    assert "witness i a fixed-point law fails at index 2" in lines
    assert "cond iv-a fail" in lines
    assert lines[-1] == "result fail"
    code, out, _ = run("verify", "--axioms", "strong", "--file", str(f))
    assert code == 1
    assert out.splitlines()[0] == "condition i: FAIL"
    assert out.splitlines()[-1] == "result: FAIL"


def test_verify_literal_peak_window_fails_42():
    args = (
        "verify", "--axioms", "shifted", "--ground", "shsyt",
        "--shape", "[4,2]", "--family", "b",
    )
    assert run(*args)[0] == 0
    code, out, _ = run(*args, "--literal-peak-window", "--porcelain")
    assert code == 1
    assert "cond iv fail" in out.splitlines()


LEMMA_VI = "--lemma-vi only applies to peak-kind grounds"
LITERAL = "--literal-peak-window only applies to --axioms shifted"


@pytest.mark.parametrize("argv, message", [
    (("weak", "--ground", "perm", "--n", "4", "--family", "d", "--lemma-vi"), LEMMA_VI),
    (("strong", "--ground", "syt", "--shape", "[3,1]", "--family", "d", "--lemma-vi"),
     LEMMA_VI),
    (("weak", "--file", "missing.deg", "--lemma-vi", "--porcelain"), LEMMA_VI),
    (("strong", "--ground", "signedperm", "--n", "6", "--family", "phi",
      "--literal-peak-window"), LITERAL),
    (("weak", "--ground", "signedperm", "--n", "6", "--family", "phi",
      "--literal-peak-window", "--lemma-vi"), LITERAL),
    (("weak", "--file", "missing.deg", "--literal-peak-window"), LITERAL),
])
def test_verify_flag_errors_come_before_any_work(argv, message, monkeypatch):
    def refuse(*args):
        raise AssertionError("verify built or parsed a ground")

    monkeypatch.setattr(cli, "build_ground", refuse)
    monkeypatch.setattr(cli, "parse_deg", refuse)
    code, out, err = run("verify", "--axioms", *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"dualeq: error: {message}"


def test_classify_file_outputs(tmp_path):
    f = tmp_path / "pair.deg"
    f.write_text(
        "deg 1\nn 4 stat peak\nvertex a { 3 }\nvertex b { 2 }\nedge 2 a b\n"
    )
    code, out, _ = run("classify", "--file", str(f))
    assert code == 0
    assert out.splitlines() == [
        "class 1: shape [3,1]",
        "  a -> 4123",
        "  b -> 3124",
    ]
    code, out, _ = run("classify", "--file", str(f), "--porcelain")
    assert code == 0
    assert out.splitlines() == ["class 1 [3,1]", "map a 4123", "map b 3124"]


def test_classify_failure_exit_code(tmp_path):
    f = tmp_path / "solo.deg"
    f.write_text("deg 1\nn 4 stat peak\nvertex a { 2 }\n")
    code, out, _ = run("classify", "--file", str(f), "--porcelain")
    assert code == 1
    assert out.splitlines() == [
        "class 1 fail generating function is not in the Schur-P span"
    ]


def test_specialize_routes_agree():
    code, out, _ = run("specialize", "--kind", "P", "--shape", "[3,1]", "--vars", "2")
    assert (code, out.splitlines()) == (
        0, ["1 x1^3 x2", "2 x1^2 x2^2", "1 x1 x2^3"]
    )
    code, out, _ = run(
        "specialize", "--kind", "s", "--shape", "[3,1]", "--vars", "2", "--via", "F"
    )
    assert (code, out.splitlines()) == (
        0, ["1 x1^3 x2", "1 x1^2 x2^2", "1 x1 x2^3"]
    )
    code, out, _ = run(
        "specialize", "--kind", "Q", "--shape", "[3,1]", "--vars", "2", "--via", "G"
    )
    assert (code, out.splitlines()) == (
        0, ["4 x1^3 x2", "8 x1^2 x2^2", "4 x1 x2^3"]
    )
    base = run("specialize", "--kind", "Q", "--shape", "[4,2]", "--vars", "3")
    for via in ("F", "G"):
        assert run(
            "specialize", "--kind", "Q", "--shape", "[4,2]",
            "--vars", "3", "--via", via,
        ) == base


@pytest.mark.parametrize("argv", [
    ("--kind", "s", "--shape", "[2,1]", "--vars", "3", "--via", "F"),
    ("--kind", "P", "--shape", "[3,1]", "--vars", "3", "--via", "F"),
    ("--kind", "Q", "--shape", "[3,1]", "--vars", "3", "--via", "G"),
])
def test_specialize_via_F_or_G_refuses_a_walk_above_the_limit(argv, monkeypatch):
    # the walk visits each weakly increasing sequence of each F-key once:
    # as many as the F_specialize polynomial's coefficients add up to, and
    # writes k exponents for each
    kind, shape, k, via = argv[1], parse_partition(argv[3]), int(argv[5]), argv[7]
    f = (G_to_F(P_in_G(shape)) if via == "G"
         else {"s": schur_in_F, "P": P_in_F, "Q": Q_in_F}[kind](shape))
    count = k * sum(sum(F_specialize(D, f.n, k).values()) for D in f.coeffs)
    monkeypatch.setattr(engine, "MAX_GROUND_OBJECTS", count)
    assert run("specialize", *argv)[0] == 0
    walked = []
    monkeypatch.setattr(qsym, "F_specialize", lambda *a: walked.append(a))
    monkeypatch.setattr(engine, "MAX_GROUND_OBJECTS", count - 1)
    code, out, err = run("specialize", *argv)
    assert (code, out, walked) == (2, "", [])
    assert err == (f"error: the {via} route of {kind} {argv[3]} in {k} variables "
                   f"has {count} objects, above the limit {count - 1}\n")


@pytest.mark.parametrize("kind, via, count", [
    ("s", "F", 3), ("P", "F", 8), ("Q", "F", 32), ("P", "G", 2), ("Q", "G", 2),
])
def test_specialize_via_F_or_G_refuses_oversized_tableaux_before_enumerating(
    kind, via, count, monkeypatch
):
    # the tableaux of [3,1] that the route's vector reads, as in expand
    enumerated = count_calls(monkeypatch, "_standard_words")
    monkeypatch.setattr(engine, "MAX_GROUND_OBJECTS", count - 1)
    code, out, err = run("specialize", "--kind", kind, "--shape", "[3,1]",
                         "--vars", "1", "--via", via)
    assert (code, out, enumerated) == (2, "", [])
    assert err == (f"error: {kind} [3,1] has {count} objects, "
                   f"above the limit {count - 1}\n")


def test_specialize_via_F_refuses_thirty_variables_at_once():
    start = time.perf_counter()
    code, out, err = run(
        "specialize", "--kind", "s", "--shape", "[4,4]", "--vars", "30", "--via", "F"
    )
    assert (code, out) == (2, "") and "above the limit" in err
    assert time.perf_counter() - start < 1


BIG = "99999999999999999999"


@pytest.mark.parametrize("argv, message", [
    # each ended in a traceback or an int -> str error, or ran for seconds
    (("expand", "schur", f"[{BIG}]"), f"degree {BIG} is above the limit 500"),
    (("classes", "--ground", "perm", "--n", BIG, "--family", "d"),
     f"degree {BIG} is above the limit 500"),
    (("classes", "--ground", "perm", "--n", "2000", "--family", "d"),
     "degree 2000 is above the limit 500"),
    (("enumerate", "syt", "[1000]"), "degree 1000 is above the limit 500"),
    (("enumerate", "ssyt", "[1500]", "--max", "1"), "degree 1500 is above the limit 500"),
    (("specialize", "--kind", "P", "--shape", "[1500]", "--vars", "1"),
     "degree 1500 is above the limit 500"),
    (("enumerate", "syt", "[1000000]"), "degree 1000000 is above the limit 500"),
    # 10^5 tableaux, but 10^10 exponents
    (("specialize", "--kind", "s", "--shape", "[1]", "--vars", "100000"),
     "s [1] in 100000 variables has 10000000000 objects, above the limit 1000000"),
    (("specialize", "--kind", "s", "--shape", "[1]", "--vars", "2000"),
     "s [1] in 2000 variables has 4000000 objects, above the limit 1000000"),
    (("specialize", "--kind", "s", "--shape", "[1]", "--vars", "4000"),
     "s [1] in 4000 variables has 16000000 objects, above the limit 1000000"),
    # ran for more than 20 s: the shifted count was a walk
    (("enumerate", "shssyt", "[500]", "--max", "1000000"),
     f"shssyt [500] has {tableaux._semistandard_count((500,), 10**6, True)} objects, "
     "above the limit 1000000"),
    # counts too long to print; the empty shape's one tableau was admitted
    (("specialize", "--kind", "s", "--shape", "[500]", "--vars", BIG),
     f"--vars {BIG} is above the limit 1000000"),
    (("enumerate", "ssyt", "[500]", "--max", BIG), f"--max {BIG} is above the limit 1000000"),
    (("enumerate", "ssyt", "[]", "--max", BIG), f"--max {BIG} is above the limit 1000000"),
], ids=["expand-big-shape", "classes-big-n", "classes-n-2000", "syt-1000",
        "ssyt-1500", "specialize-P-1500", "syt-1000000", "vars-100000",
        "vars-2000", "vars-4000", "shssyt-500", "vars-big", "max-big", "max-big-empty"])
def test_oversized_degree_or_vars_exits_two_at_once(argv, message):
    start = time.perf_counter()
    code, out, err = run(*argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("argv, tail, seconds", [
    # each ran for more than 20 s
    (("expand", "schur", "[499,1]", "--schur-of"), "1 s[499,1]", 5),
    (("expand", "schur", "[500]", "--schur-of"), "1 s[500]", 2),
    (("expand", "schur", "[60]", "--schur-of"), "1 s[60]", 2),
    (("enumerate", "ssyt", "[8,8,8,8,8,8,8,8]", "--max", "8"), "count 1", 2),
    (("enumerate", "ssyt", "[8,8,8,8,8,8,8,8]", "--max", "7"), "count 0", 2),
    (("enumerate", "ssyt", "[6,6,6,6,6,6]", "--max", "7", "--porcelain"), "count 924", 2),
], ids=["schur-of-499-1", "schur-of-500", "schur-of-60", "ssyt-8x8-max-8",
        "ssyt-8x8-max-7", "ssyt-6x6"])
def test_admitted_requests_that_ran_unbounded_end_in_time(argv, tail, seconds):
    start = time.perf_counter()
    code, out, err = run(*argv)
    assert time.perf_counter() - start < seconds
    assert (code, err, out.splitlines()[-1]) == (0, "", tail)


def test_an_empty_semistandard_count_is_printed_without_a_walk(monkeypatch):
    # eight rows need an entry of 8, so nothing fills the staircase with
    # entries <= 7: the exact count is 0, and the walk, which ran past 8 s
    # looking for a filling, is not started
    walked = count_calls(monkeypatch, "_semistandard_fillings")
    start = time.perf_counter()
    result = run("enumerate", "shssyt", "[8,7,6,5,4,3,2,1]", "--max", "7", "--porcelain")
    assert time.perf_counter() - start < 0.5
    assert result == (0, "count 0\n", "")
    assert walked == []


def test_the_degree_limit_is_admitted():
    limit = cli._MAX_DEGREE
    code, out, err = run("enumerate", "syt", f"[{limit}]", "--porcelain")
    assert (code, out.splitlines()[-1], err) == (0, "count 1", "")
    code, out, err = run("specialize", "--kind", "P", "--shape", f"[{limit}]", "--vars", "1")
    assert (code, out, err) == (0, f"1 x1^{limit}\n", "")
    code, out, err = run("enumerate", "syt", f"[{limit},1]", "--porcelain")
    assert (code, out) == (2, "")
    assert err == f"error: degree {limit + 1} is above the limit {limit}\n"


def test_specialize_counts_exponents_not_monomials():
    # [1] in k variables is k monomials of k exponents each: k = 1000 is
    # within the limit of 10^6, k = 1001 is not
    code, out, _ = run("specialize", "--kind", "s", "--shape", "[1]", "--vars", "1000")
    assert code == 0 and len(out.splitlines()) == 1000
    for kind, more in (("s", "1002001"), ("P", "1002001"), ("Q", "2004002")):
        code, out, err = run("specialize", "--kind", kind, "--shape", "[1]", "--vars", "1001")
        assert (code, out) == (2, "")
        assert err == (f"error: {kind} [1] in 1001 variables has {more} objects, "
                       "above the limit 1000000\n")


def test_specialize_via_G_refuses_a_degree_of_too_many_descent_sets():
    code, out, err = run(
        "specialize", "--kind", "P", "--shape", "[25]", "--vars", "2", "--via", "G"
    )
    assert (code, out) == (2, "")
    assert err == ("error: G to F of degree 25 has 16777216 objects, "
                   "above the limit 1000000\n")


@pytest.mark.parametrize("via", ["monomial", "F", "G"])
def test_specialize_negative_vars_names_the_option(via):
    code, out, err = run(
        "specialize", "--kind", "P", "--shape", "[3,1]", "--vars", "-1",
        "--via", via,
    )
    assert code == 2 and out == ""
    assert "--vars must be nonnegative" in err


@pytest.mark.parametrize(
    "argv, degree",
    [
        (("verify", "--axioms", "weak", "--ground", "perm", "--n", "-3",
          "--family", "d"), -3),
        (("verify", "--axioms", "shifted", "--ground", "perm", "--n", "-1",
          "--family", "b"), -1),
        (("classes", "--ground", "signedperm", "--n", "-1", "--family", "phi"), -1),
    ],
)
def test_negative_degree_exits_two(argv, degree):
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err == f"error: degree must be nonnegative, got {degree}\n"


def test_usage_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.deg"
    bad.write_text("deg 1\nn x stat des\n")
    cases = [
        ("expand", "schur", "[1,3]"),
        ("expand", "P", "[2,2]"),
        ("expand", "schur", "[3,1]", "--basis", "G"),
        ("verify", "--axioms", "shifted", "--ground", "perm", "--n", "4",
         "--family", "d"),
        ("verify", "--axioms", "strong", "--file", str(bad)),
        ("verify", "--axioms", "strong", "--file", str(tmp_path / "missing.deg")),
        ("classes", "--ground", "perm", "--family", "b"),
        ("classes", "--ground", "syt", "--family", "b"),
        ("verify", "--axioms", "weak"),
    ]
    for argv in cases:
        code, _, err = run(*argv)
        assert code == 2, argv
        assert err, argv


def test_deg_parse_error_message(tmp_path):
    bad = tmp_path / "bad.deg"
    bad.write_text("deg 1\nn x stat des\n")
    _, _, err = run("verify", "--axioms", "strong", "--file", str(bad))
    assert err == "error: line 2: bad degree 'x'\n"


DEG_FILES = {
    "des.deg": "deg 1\nn 3 stat des\nvertex a { 1 }\n",
    "solo.deg": "deg 1\nn 4 stat peak\nvertex a { 2 }\n",
}


@pytest.mark.parametrize("argv, code, stream, line", [
    (("classes", "--ground", "syt", "--family", "d"), 2, "err",
     "dualeq: error: ground 'syt' needs --shape"),
    (("classify", "--file", "des.deg"), 2, "err",
     "dualeq: error: classify needs a peak-kind ground"),
    (("classify", "--file", "solo.deg"), 1, "out",
     "class 1: FAILED — generating function is not in the Schur-P span "
     "(witness [2])"),
    (("specialize", "--kind", "P", "--shape", "[2,2]", "--vars", "2"), 2, "err",
     "dualeq: error: P needs a strict partition, got [2,2]"),
    (("specialize", "--kind", "s", "--shape", "[2,1]", "--vars", "2",
      "--via", "G"), 2, "err", "dualeq: error: Schur functions have no G route"),
    # --threads was accepted and ignored until it was removed
    (("classes", "--ground", "perm", "--n", "3", "--family", "d",
      "--threads", "2"), 2, "err",
     "dualeq: error: unrecognized arguments: --threads 2"),
    # --porcelain was accepted and ignored by expand and specialize
    (("expand", "P", "[3,1]", "--porcelain"), 2, "err",
     "dualeq: error: unrecognized arguments: --porcelain"),
    (("specialize", "--kind", "P", "--shape", "[3,1]", "--vars", "2",
      "--porcelain"), 2, "err", "dualeq: error: unrecognized arguments: --porcelain"),
], ids=["classes-no-shape", "classify-des", "classify-fails", "specialize-P-22",
        "specialize-s-via-G", "threads-removed", "expand-porcelain-removed",
        "specialize-porcelain-removed"])
def test_error_paths_exit_code_and_line(tmp_path, argv, code, stream, line):
    for name, text in DEG_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in DEG_FILES else a for a in argv]
    got, out, err = run(*argv)
    assert got == code
    assert (out if stream == "out" else err).splitlines()[-1] == line
    if stream == "err":
        assert out == ""


def test_every_option_is_read_by_its_verb():
    # an option no code reads is accepted and ignored: args.<dest> must
    # appear in the verb's function, or in _ground_descriptor if it calls it
    (verbs,) = [a.choices for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    inert = []
    for verb, sub in verbs.items():
        source = inspect.getsource(sub.get_default("func"))
        if "_ground_descriptor(" in source:
            source += inspect.getsource(cli._ground_descriptor)
        for action in sub._actions:
            if action.dest != "help" and not re.search(rf"\bargs\.{action.dest}\b", source):
                inert.append((verb, action.dest))
    assert inert == []


def test_repeat_runs_byte_identical():
    argv = (
        "classes", "--ground", "perm", "--n", "4", "--family", "d", "--porcelain"
    )
    assert run(*argv) == run(*argv)
