"""Command line front end.

Verbs: expand, enumerate, classes, verify, classify, specialize.  Output is
human-oriented by default; --porcelain switches the listing verbs to stable
machine-readable lines (expansion terms always use the machine format
"<coeff> F{1,3}" / "<coeff> s[3,1]", which parse_expansion round-trips).

Exit codes: 0 = success / all checks passed, 1 = a verification or
classification failure was reported, 2 = the request could not be carried
out (usage error, malformed file, bad shape, ...).
"""

from __future__ import annotations

import argparse
import sys
from math import comb

from .core import (
    SHIFTED,
    STRAIGHT,
    InvalidShapeError,
    is_partition,
    is_strict_partition,
    parse_partition,
    partition_str,
    subset_str,
)
from .engine import (
    BUILTIN_GROUNDS,
    ClassificationFailure,
    _stat_masks,
    _window_expansion,
    _within_limit,
    build_ground,
    class_genfn,
    classes,
    classify_shifted_class,
    lemma_axiom4_check,
    parse_deg,
    verify_shifted,
    verify_strong,
    verify_weak,
)
from .qsym import (
    KINDS,
    G_to_F,
    P_in_F,
    P_in_G,
    ExpansionFailure,
    Q_in_F,
    QSymF,
    _basis_coeffs,
    expand,
    monomial_series,
    poly_render,
    qsymf_specialize,
    schur_in_F,
)
from .tableaux import (
    _semistandard_count,
    _semistandard_fillings,
    _split,
    _standard_count,
    _standard_words,
    format_tableau,
    tableau,
    word_str,
)

# The largest degree (cells of a shape, or --n) of a request: the tableau
# walks recurse once per cell, within Python's 1000 nested calls, and its
# tableau and ground counts print within Python's 4300-digit int -> str limit.
_MAX_DEGREE = 500
# The largest --max or --vars k: a refusal's count is at most k * (2k)^cells
# (2k entries 1'..k per cell), below 10^3157 within _MAX_DEGREE cells.
_MAX_VALUES = 1_000_000


def _at_most(limit, what, n):
    if n > limit:
        raise ValueError(f"{what} {n} is above the limit {limit}")
    return n


def _shape(text, parser, kind):
    """The partition text names: strict for kind P or Q, within _MAX_DEGREE."""
    shape = parse_partition(text)
    if not is_partition(shape):
        raise InvalidShapeError(f"not a partition: {text}")
    if kind in ("P", "Q") and not is_strict_partition(shape):
        parser.error(f"{kind} needs a strict partition, got {text}")
    _at_most(_MAX_DEGREE, "degree", sum(shape))
    return shape


def _ground_descriptor(args, parser):
    if (args.ground, args.family) not in BUILTIN_GROUNDS:
        parser.error(
            f"family {args.family!r} does not act on ground {args.ground!r}"
        )
    if args.ground in ("perm", "signedperm"):
        if args.n is None:
            parser.error(f"ground {args.ground!r} needs --n")
        return (args.ground, _at_most(_MAX_DEGREE, "degree", args.n), args.family)
    if args.shape is None:
        parser.error(f"ground {args.ground!r} needs --shape")
    return (args.ground, _shape(args.shape, parser, args.ground), args.family)


def _expansion_summary(exp):
    if isinstance(exp, ExpansionFailure):
        return f"{exp.name} witness {subset_str(exp.witness)} residual {exp.residual}"
    return " + ".join(exp.render())


def _vector_maker(kind, shape, basis):
    """A maker of the vector of kind (schur or s, P, Q) in the F or G basis
    (Q's is 2^rows times P_in_G), returned once the standard tableaux it
    sums over are within the limit: _standard_count with the unsigned
    shifted arguments in the G basis, else with its kind's KINDS entry,
    so P in the F basis is counted as its signed tableaux.  Only Q_in_F
    lists them, for its cross-check; s and P count their descent masks
    by tableaux._descent_masks, which makes no tableau.  A Schur
    function's F-vector is read through the peel's cache of basis vectors,
    so expanding it in Schur functions does not build it again."""
    # built per call, so a wrapper installed on a module name sees the call
    def schur(shape):
        return QSymF(sum(shape), _basis_coeffs(schur_in_F, shape))

    strict, primes = KINDS["s" if kind == "schur" else kind]
    by_peaks = basis == "G"  # P_in_G reads the unsigned shifted tableaux
    count = _standard_count(shape, strict, None if by_peaks else primes)
    _within_limit(f"{kind} {partition_str(shape)}", count)
    if by_peaks:
        return lambda: P_in_G(shape).scaled(2 ** len(shape) if primes else 1)
    in_F = {"P": P_in_F, "Q": Q_in_F}.get(kind, schur)
    return lambda: in_F(shape)


def cmd_expand(args, parser):
    shape = _shape(args.shape, parser, args.kind)
    basis = "F" if args.schur_of else args.basis
    if basis == "G" and args.kind == "schur":
        parser.error("Schur functions have no G-basis expansion here")
    vec = _vector_maker(args.kind, shape, basis)()
    if args.schur_of:
        vec = expand(vec)
        if isinstance(vec, ExpansionFailure):
            print(_expansion_summary(vec))
            return 1
    for line in vec.render():
        print(line)
    return 0


def _inline_tableau(T):
    rows = [" ".join(tok for tok in line.split()) for line in format_tableau(T).splitlines()]
    return " / ".join(rows)


def cmd_enumerate(args, parser):
    kind = args.kind
    shape = _shape(args.shape, parser, kind)
    # the walk's arguments after the shape: the largest value if
    # semistandard, then (strict, diagonal_primes)
    strict = kind not in ("syt", "ssyt")
    walk_args = (strict, args.diagonal_primes if kind in ("signed", "shssyt") else None)
    semistandard = kind in ("ssyt", "shssyt")
    if semistandard:
        if args.max is None:
            parser.error(f"enumerate {kind} needs --max (largest entry allowed)")
        walk_args = (_at_most(_MAX_VALUES, "--max", args.max), *walk_args)
        count, walk = _semistandard_count, _semistandard_fillings
    else:
        count, walk = _standard_count, _standard_words
    total = count(shape, *walk_args)
    _within_limit(f"{kind} {partition_str(shape)}", total)
    tab_kind, found = SHIFTED if strict else STRAIGHT, 0
    for item in walk(shape, *walk_args) if total else ():  # rows if semistandard, else a word
        found += 1
        if args.porcelain and not semistandard:  # the word, without a tableau
            print(word_str(item))
            continue
        T = tableau(tab_kind, item) if semistandard else _split(tab_kind, shape, item)
        print(_inline_tableau(T) if args.porcelain else format_tableau(T) + "\n")
    print(f"count {found}")
    return 0


def cmd_classes(args, parser):
    g = build_ground(_ground_descriptor(args, parser))
    comps, masks = classes(g), _stat_masks(g)
    for idx, comp in enumerate(comps, 1):
        # the class's vector sets its genfn: each distinct one is expanded once
        vector = g.n, tuple(sorted(map(masks.__getitem__, comp)))
        terms = " + ".join(class_genfn(g, comp).render())
        certified = _expansion_summary(_window_expansion(g, vector))
        if args.porcelain:
            members = ",".join(g.labels[m] for m in comp)
            print(f"{idx}\t{len(comp)}\t{members}\t{terms}\t{certified}")
        else:
            print(f"class {idx}: size {len(comp)}")
            print(f"  members: {' '.join(g.labels[m] for m in comp)}")
            print(f"  genfn:   {terms}")
            print(f"  certified: {certified}")
    if not args.porcelain:
        print(f"classes {len(comps)}")
    return 0


def _print_report(report, porcelain):
    for cond in sorted(report.results):
        ok = report.results[cond]
        if porcelain:
            print(f"cond {cond} {'pass' if ok else 'fail'}")
        else:
            print(f"condition {cond}: {'pass' if ok else 'FAIL'}")
        for w in report.witnesses_for(cond):
            if porcelain:
                print(f"witness {cond} {','.join(w.labels)} {w.detail}")
            else:
                print(f"  witness {' '.join(w.labels)}: {w.detail}")
        note = report.notes.get(cond)
        if note:
            if porcelain:
                print(f"note {cond} {note}")
            else:
                print(f"  note: {note}")
    return not report.passed


def cmd_verify(args, parser):
    if args.literal_peak_window and args.axioms != "shifted":
        parser.error("--literal-peak-window only applies to --axioms shifted")
    if args.lemma_vi and args.axioms != "shifted":  # shifted needs a peak ground
        parser.error("--lemma-vi only applies to peak-kind grounds")
    if args.file is not None:
        with open(args.file, encoding="utf-8") as fh:
            g = parse_deg(fh.read())
    else:
        if args.ground is None or args.family is None:
            parser.error("verify needs --file or --ground with --family")
        g = build_ground(_ground_descriptor(args, parser))
    want, verify = {
        "strong": ("des", verify_strong),
        "weak": ("des", verify_weak),
        "shifted": ("peak", lambda g: verify_shifted(g, args.literal_peak_window)),
    }[args.axioms]
    if g.stat_kind != want:
        parser.error(
            f"--axioms {args.axioms} needs a {want}-kind ground, "
            f"got {g.stat_kind}-kind"
        )
    failed = _print_report(verify(g), args.porcelain)
    if args.lemma_vi:
        failed = _print_report(lemma_axiom4_check(g), args.porcelain) or failed
    if args.porcelain:
        print(f"result {'fail' if failed else 'pass'}")
    else:
        print(f"result: {'FAIL' if failed else 'pass'}")
    return 1 if failed else 0


def cmd_classify(args, parser):
    with open(args.file, encoding="utf-8") as fh:
        g = parse_deg(fh.read())
    if g.stat_kind != "peak":
        parser.error("classify needs a peak-kind ground")
    status = 0
    for idx, comp in enumerate(classes(g), 1):
        res = classify_shifted_class(g, comp)
        if isinstance(res, ClassificationFailure):
            status = 1
            if args.porcelain:
                print(f"class {idx} fail {res.reason}")
            else:
                print(f"class {idx}: FAILED — {res.reason} ({res.detail})")
            continue
        if args.porcelain:
            print(f"class {idx} {partition_str(res.shape)}")
            for a in sorted(res.mapping):
                print(f"map {a} {res.mapping[a]}")
        else:
            print(f"class {idx}: shape {partition_str(res.shape)}")
            for a in sorted(res.mapping):
                print(f"  {a} -> {res.mapping[a]}")
    return status


def cmd_specialize(args, parser):
    kind, via, k = args.kind, args.via, args.vars
    shape = _shape(args.shape, parser, kind)
    if k < 0:
        parser.error(f"--vars must be nonnegative, got {k}")
    _at_most(_MAX_VALUES, "--vars", k)
    # each monomial is written as k exponents: both refusals count k per object
    what = f"{kind} {partition_str(shape)} in {k} variables"
    if via == "monomial":
        _within_limit(what, _semistandard_count(shape, k, *KINDS[kind]) * k)
        poly = monomial_series(kind, shape, k)
    else:
        if via == "G" and kind == "s":
            parser.error("Schur functions have no G route")
        # the same tableaux expand reads, then G_to_F's 2^(n-1) descent sets
        make = _vector_maker(kind, shape, via)
        if via == "G":
            _within_limit(f"G to F of degree {sum(shape)}", 1 << max(sum(shape) - 1, 0))
            f = G_to_F(make())
        else:
            f = make()
        # F_specialize walks the weakly increasing sequences in 1..k of
        # length n rising at each member of D: comb(k - |D| + n - 1, n)
        walk = sum(comb(max(k - len(D) + f.n - 1, 0), f.n) for D in f.coeffs)
        _within_limit(f"the {via} route of {what}", walk * k)
        poly = qsymf_specialize(f, k)
    for line in poly_render(poly):
        print(line)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dualeq",
        description="Exact dual-equivalence toolkit: quasisymmetric "
        "expansions, tableau enumeration, involution classes, and "
        "mechanical verification of the dual-equivalence axiom systems.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    grounds = list(dict.fromkeys(ground for ground, _ in BUILTIN_GROUNDS))
    families = list(dict.fromkeys(family for _, family in BUILTIN_GROUNDS))

    p = sub.add_parser("expand", help="basis expansions of s/P/Q functions")
    p.add_argument("kind", choices=["schur", "P", "Q"])
    p.add_argument("shape", help="partition like [3,1]")
    p.add_argument("--basis", choices=["F", "G"], default="F")
    p.add_argument(
        "--schur-of",
        action="store_true",
        help="expand into the Schur basis instead of F/G",
    )
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("enumerate", help="list tableaux of a shape")
    p.add_argument("kind", choices=["syt", "shsyt", "ssyt", "shssyt", "signed"])
    p.add_argument("shape")
    p.add_argument("--max", type=int, default=None, help="largest entry (semistandard kinds)")
    p.add_argument(
        "--diagonal-primes",
        action="store_true",
        help="allow primed entries on the main diagonal",
    )
    p.add_argument("--porcelain", action="store_true", help="emit stable machine-readable lines")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classes", help="dual equivalence classes of a ground")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--ground", choices=grounds, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--shape", default=None)
    p.add_argument("--porcelain", action="store_true", help="emit stable machine-readable lines")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("verify", help="run an axiom-system verification")
    p.add_argument("--axioms", choices=["strong", "weak", "shifted"], required=True)
    p.add_argument("--ground", choices=grounds)
    p.add_argument("--family", choices=families)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--shape", default=None)
    p.add_argument("--file", default=None, help="DEG file instead of a builtin ground")
    p.add_argument(
        "--literal-peak-window",
        action="store_true",
        help="use the diagnostic literal peak-window restriction",
    )
    p.add_argument(
        "--lemma-vi",
        action="store_true",
        help="also run the experimental window-isomorphism checks",
    )
    p.add_argument("--porcelain", action="store_true", help="emit stable machine-readable lines")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="identify the shape of each class in a DEG file")
    p.add_argument("--file", required=True)
    p.add_argument("--porcelain", action="store_true", help="emit stable machine-readable lines")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("specialize", help="polynomial truncation in k variables")
    p.add_argument("--kind", choices=["s", "P", "Q"], required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--via", choices=["F", "G", "monomial"], default="monomial")
    p.set_defaults(func=cmd_specialize)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
