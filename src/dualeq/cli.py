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
    _within_limit,
    build_ground,
    class_genfn,
    classes,
    classify_shifted_class,
    ground_size,
    lemma_axiom4_check,
    parse_deg,
    verify_shifted,
    verify_strong,
    verify_weak,
)
from .qsym import (
    G_to_F,
    P_in_F,
    P_in_G,
    ExpansionFailure,
    Q_in_F,
    expand,
    monomial_series,
    poly_render,
    qsymf_specialize,
    schur_in_F,
)
from .tableaux import (
    _semistandard_fillings,
    _standard_words,
    enumerate_shssyt,
    enumerate_shsyt,
    enumerate_signed_standard,
    enumerate_ssyt,
    enumerate_syt,
    format_tableau,
    word_str,
)

def _add_common(sub):
    sub.add_argument(
        "--porcelain",
        action="store_true",
        help="emit stable machine-readable lines",
    )
    sub.add_argument(
        "--threads",
        type=int,
        metavar="N",
        default=None,
        help="accepted for compatibility; sweeps are single-threaded and "
        "deterministic, so the value does not change the output",
    )


def _shape(text):
    shape = parse_partition(text)
    if not is_partition(shape):
        raise InvalidShapeError(f"not a partition: {text}")
    return shape


def _ground_descriptor(args, parser):
    if (args.ground, args.family) not in BUILTIN_GROUNDS:
        parser.error(
            f"family {args.family!r} does not act on ground {args.ground!r}"
        )
    if args.ground in ("perm", "signedperm"):
        if args.n is None:
            parser.error(f"ground {args.ground!r} needs --n")
        return (args.ground, args.n, args.family)
    if args.shape is None:
        parser.error(f"ground {args.ground!r} needs --shape")
    return (args.ground, _shape(args.shape), args.family)


def _expansion_summary(exp):
    if isinstance(exp, ExpansionFailure):
        return f"{exp.name} witness {subset_str(exp.witness)} residual {exp.residual}"
    return " + ".join(exp.render())


def _refuse_oversized(kind, shape, strict, signed=None):
    """Refuse, before any work, a request that reads more standard tableaux
    than MAX_GROUND_OBJECTS, counted for the arguments _standard_words takes:
    signed ones (2^rows times as many with primed diagonals, signed=True)
    when signed is not None."""
    ground = "signed-shsyt" if signed is not None else "shsyt" if strict else "syt"
    family = {"syt": "d", "shsyt": "b", "signed-shsyt": "psi"}[ground]
    count = ground_size((ground, shape, family)) << len(shape) * bool(signed)
    _within_limit(f"{kind} {partition_str(shape)}", count)


def cmd_expand(args, parser):
    shape = _shape(args.shape)
    if args.kind in ("P", "Q") and not is_strict_partition(shape):
        parser.error(f"{args.kind} needs a strict partition, got {args.shape}")
    by_peaks = args.basis == "G" and not args.schur_of
    if by_peaks and args.kind == "schur":
        parser.error("Schur functions have no G-basis expansion here")
    # P_in_G reads the shifted tableaux, Q_in_F also those with primed diagonals
    signed = None if by_peaks or args.kind == "schur" else args.kind == "Q"
    _refuse_oversized(args.kind, shape, args.kind != "schur", signed)
    # built per call, so a wrapper installed on a module name sees the call
    in_F = {"schur": schur_in_F, "P": P_in_F, "Q": Q_in_F}[args.kind]
    if args.schur_of:
        exp = expand(in_F(shape))
        if isinstance(exp, ExpansionFailure):
            print(_expansion_summary(exp))
            return 1
        for line in exp.render():
            print(line)
        return 0
    if by_peaks:
        vec = P_in_G(shape)
        if args.kind == "Q":
            vec = vec.scaled(2 ** len(shape))
    else:
        vec = in_F(shape)
    for line in vec.render():
        print(line)
    return 0


def _inline_tableau(T):
    rows = [" ".join(tok for tok in line.split()) for line in format_tableau(T).splitlines()]
    return " / ".join(rows)


def cmd_enumerate(args, parser):
    shape = _shape(args.shape)
    kind = args.kind
    if kind in ("ssyt", "shssyt"):
        if args.max is None:
            parser.error(f"enumerate {kind} needs --max (largest entry allowed)")
        k, primes = args.max, args.diagonal_primes
        fillings = _semistandard_fillings(shape, k, kind == "shssyt", primes)
        _within_limit(f"{kind} {partition_str(shape)}", fillings)
        tabs = (enumerate_ssyt(shape, k) if kind == "ssyt"
                else enumerate_shssyt(shape, k, primes))
    else:
        strict = kind != "syt"
        signed = args.diagonal_primes if kind == "signed" else None
        _refuse_oversized(kind, shape, strict, signed)
        if args.porcelain:  # the reading words, without making tableaux
            tabs = _standard_words(shape, strict, signed)
        elif kind == "signed":
            tabs = enumerate_signed_standard(shape, signed)
        else:
            tabs = (enumerate_shsyt if strict else enumerate_syt)(shape)
    for T in tabs:
        if not args.porcelain:
            print(format_tableau(T) + "\n")
        else:
            print(_inline_tableau(T) if kind in ("ssyt", "shssyt") else word_str(T))
    print(f"count {len(tabs)}")
    return 0


def cmd_classes(args, parser):
    desc = _ground_descriptor(args, parser)
    g = build_ground(desc)
    rows = []
    for idx, comp in enumerate(classes(g), 1):
        genfn = class_genfn(g, comp)
        rows.append((idx, comp, genfn, expand(genfn)))
    if args.porcelain:
        for idx, comp, genfn, exp in rows:
            members = ",".join(g.labels[m] for m in comp)
            print(
                f"{idx}\t{len(comp)}\t{members}\t"
                f"{' + '.join(genfn.render())}\t{_expansion_summary(exp)}"
            )
        return 0
    for idx, comp, genfn, exp in rows:
        print(f"class {idx}: size {len(comp)}")
        print(f"  members: {' '.join(g.labels[m] for m in comp)}")
        print(f"  genfn:   {' + '.join(genfn.render())}")
        print(f"  certified: {_expansion_summary(exp)}")
    print(f"classes {len(rows)}")
    return 0


def _print_report(report, porcelain):
    failed = False
    for cond in sorted(report.results):
        ok = report.results[cond]
        failed = failed or not ok
        if porcelain:
            print(f"cond {cond} {'pass' if ok else 'fail'}")
        else:
            print(f"condition {cond}: {'pass' if ok else 'FAIL'}")
        for w in report.witnesses:
            if w.condition != cond:
                continue
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
    return failed


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
    want = {"strong": "des", "weak": "des", "shifted": "peak"}[args.axioms]
    if g.stat_kind != want:
        parser.error(
            f"--axioms {args.axioms} needs a {want}-kind ground, "
            f"got {g.stat_kind}-kind"
        )
    if args.axioms == "strong":
        report = verify_strong(g)
    elif args.axioms == "weak":
        report = verify_weak(g)
    else:
        report = verify_shifted(g, literal_peak_window=args.literal_peak_window)
    failed = _print_report(report, args.porcelain)
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
    shape = _shape(args.shape)
    kind, via, k = args.kind, args.via, args.vars
    if k < 0:
        parser.error(f"--vars must be nonnegative, got {k}")
    if kind in ("P", "Q") and not is_strict_partition(shape):
        parser.error(f"{kind} needs a strict partition, got {args.shape}")
    if via == "monomial":
        fillings = _semistandard_fillings(shape, k, kind != "s", kind == "Q")
        _within_limit(f"{kind} {partition_str(shape)}", fillings)
        poly = monomial_series(kind, shape, k)
    else:
        if via == "G" and kind == "s":
            parser.error("Schur functions have no G route")
        # the same tableaux expand reads, and G_to_F's 2^(n-1) descent sets
        signed = None if via == "G" or kind == "s" else kind == "Q"
        _refuse_oversized(kind, shape, kind != "s", signed)
        if via == "G":
            _within_limit(f"G to F of degree {sum(shape)}", 1 << max(sum(shape) - 1, 0))
            f = G_to_F(P_in_G(shape)).scaled(2 ** len(shape) if kind == "Q" else 1)
        else:
            f = {"s": schur_in_F, "P": P_in_F, "Q": Q_in_F}[kind](shape)
        # F_specialize walks the weakly increasing sequences in 1..k of
        # length n rising at each member of D: comb(k - |D| + n - 1, n)
        walk = sum(comb(max(k - len(D) + f.n - 1, 0), f.n) for D in f.coeffs)
        _within_limit(f"the {via} route of {kind} {partition_str(shape)}", walk)
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
        dest="schur_of",
        help="expand into the Schur basis instead of F/G",
    )
    _add_common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("enumerate", help="list tableaux of a shape")
    p.add_argument("kind", choices=["syt", "shsyt", "ssyt", "shssyt", "signed"])
    p.add_argument("shape")
    p.add_argument("--max", type=int, default=None, help="largest entry (semistandard kinds)")
    p.add_argument(
        "--diagonal-primes",
        action="store_true",
        dest="diagonal_primes",
        help="allow primed entries on the main diagonal",
    )
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classes", help="dual equivalence classes of a ground")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--ground", choices=grounds, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--shape", default=None)
    _add_common(p)
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
        dest="literal_peak_window",
        help="use the diagnostic literal peak-window restriction",
    )
    p.add_argument(
        "--lemma-vi",
        action="store_true",
        dest="lemma_vi",
        help="also run the experimental window-isomorphism checks",
    )
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="identify the shape of each class in a DEG file")
    p.add_argument("--file", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("specialize", help="polynomial truncation in k variables")
    p.add_argument("--kind", choices=["s", "P", "Q"], required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--via", choices=["F", "G", "monomial"], default="monomial")
    _add_common(p)
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
