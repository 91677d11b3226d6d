"""Command-line interface.

Subcommands: classify, scan, bisect-astar, catalog, trap, word, sturmian,
supercritical-test.  Each command returns its payload: a dict or list, which
`main` prints as indented JSON, or a str (the scan CSV, a word), printed as it
is.  `main` is the one writer: to `--out PATH` if given, else to stdout.
Rationals print exactly as "p/q", floats with 12 significant digits; output is
byte-deterministic for fixed inputs.  Exit codes: 0 success, 2 argument error
or unwritable `--out`, 3 iteration, state, expansion or trap-search budget
exceeded.  A command checks only what its library call does not: missing
arguments, `scan`'s grid range and `sturmian` denominators too long to print.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from fractions import Fraction

from .automaton import Hole
from .holes import catalog, certify_entry, sturmian_hole, test_supercritical
from .rationals import BudgetExceededError, format_fraction, int_max_str_digits, parse_fraction
from .survivor import (
    Classification,
    classify,
    is_trap,
    locate_entropy_transition,
)
from .words import characteristic_prefix, standard_words, thue_morse


def _fmt_float(x: float) -> str:
    return format(x, ".12g")


def _classification_json(c: Classification) -> dict:
    return {
        "kind": c.kind.value,
        "cycles": [f"({w})" for w in c.cycles],
        "zero_loop": c.zero_loop,
        "entropy_lo": _fmt_float(c.entropy_lo),
        "entropy_hi": _fmt_float(c.entropy_hi),
        "dimension": _fmt_float(c.dimension),
    }


def _endpoint_json(x):
    if isinstance(x, tuple):
        return {"lo": format_fraction(x[0]), "hi": format_fraction(x[1])}
    return format_fraction(x)


def _cmd_classify(args) -> dict:
    hole = Hole(parse_fraction(args.a), parse_fraction(args.b))
    result = classify(hole)
    return _classification_json(result)


def _cmd_scan(args) -> str:
    a_min = parse_fraction(args.a_min)
    a_max = parse_fraction(args.a_max)
    m = args.grid_bits
    if m < 1 or m > 30:
        raise ValueError("grid exponent must be in 1..30")
    n = 1 << m
    k_lo = -(-a_min.numerator * n // a_min.denominator)  # ceil
    k_hi = a_max.numerator * n // a_max.denominator      # floor
    ks = [k for k in range(k_lo, k_hi + 1) if 0 < k and 2 * k < n]
    if not ks:
        raise ValueError(f"empty dyadic grid in [{a_min}, {a_max}] at 2^-{m}")
    lines = ["a,kind,entropy_lo,entropy_hi,dimension"]
    for k in ks:
        a = Fraction(k, n)
        c = classify(Hole(a, 1 - a))
        lines.append(",".join([
            format_fraction(a), c.kind.value, _fmt_float(c.entropy_lo),
            _fmt_float(c.entropy_hi), _fmt_float(c.dimension),
        ]))
    return "\n".join(lines)


def _cmd_bisect_astar(args) -> dict:
    lo, hi = locate_entropy_transition(args.precision)
    return {"lo": format_fraction(lo), "hi": format_fraction(hi)}


def _cmd_catalog(args) -> list:
    sturmians = [tuple(int(t) for t in digits.split(",")) for digits in args.sturmian]
    entries = catalog(args.max_q, sturmian_samples=sturmians,
                      degenerate_samples=args.degenerate_samples)
    epsilon = parse_fraction(args.epsilon)
    if args.certify:
        for entry in entries:
            certify_entry(entry, epsilon)
    return [{
        "family": e.family,
        "left": _endpoint_json(e.left),
        "right": _endpoint_json(e.right),
        "parameter": e.parameter,
        "certified": e.certified,
        "epsilon": format_fraction(e.epsilon) if e.epsilon is not None else None,
    } for e in entries]


def _cmd_trap(args) -> dict:
    report = is_trap(parse_fraction(args.c), parse_fraction(args.d),
                     depth=args.depth, tol=parse_fraction(args.tol))
    return {
        "trapped": report.trapped,
        "residual_measure": format_fraction(report.residual_measure),
        "escape_witness": report.escape_witness,
    }


def _cmd_word(args) -> str:
    if args.kind == "standard":
        text = standard_words(tuple(int(t) for t in args.entries))[-1]
    elif args.kind == "characteristic":
        if not args.cf:
            raise ValueError("characteristic needs --cf")
        cf = tuple(int(t) for t in args.cf.split(","))
        if args.length is None:
            raise ValueError("characteristic needs --length")
        text = characteristic_prefix(cf, args.length, extend=not args.no_extend)
    else:  # thue-morse
        if not args.entries:
            raise ValueError("thue-morse needs a length")
        text = thue_morse(int(args.entries[0]))
    # --json keeps its one-line form, unlike the indented JSON of dicts
    return json.dumps({"word": text}) if args.json else text


def _cmd_sturmian(args) -> dict:
    n, limit = args.precision_bits, int_max_str_digits()
    if limit and n + 2 >= (10 ** limit).bit_length():  # the brackets' 2^(n+2) >= 10^limit
        raise ValueError(f"precision {n} bits: its denominator 2^{n + 2} has more than "
                         f"the {limit} digits that Python converts to a string")
    cf = tuple(int(t) for t in args.cf.split(","))
    hole = sturmian_hole(cf, n)
    return {
        "cf_prefix": list(hole.cf_prefix),
        "left": _endpoint_json(hole.left),
        "right": _endpoint_json(hole.right),
        "left_float": _fmt_float(float((hole.left[0] + hole.left[1]) / 2)),
        "right_float": _fmt_float(float((hole.right[0] + hole.right[1]) / 2)),
        "precision_bits": hole.precision_bits,
    }


def _cmd_supercritical_test(args) -> dict:
    report = test_supercritical(parse_fraction(args.a), parse_fraction(args.b),
                                parse_fraction(args.epsilon))
    return {
        "outer": _classification_json(report.outer),
        "inner": _classification_json(report.inner),
        "epsilon": format_fraction(report.epsilon),
        "pass": report.passed,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbhole",
        description="Survivor sets of the doubling map with an interval hole",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify the survivor set of a hole")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scan", help="classification scan over symmetric holes (a, 1-a)")
    p.add_argument("a_min")
    p.add_argument("a_max")
    p.add_argument("grid_bits", type=int, help="grid step 2^-N")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("bisect-astar",
                       help="bracket the positive-entropy transition of (a, 1-a)")
    p.add_argument("--precision", type=int, required=True,
                   help="bracket width at most 2^-N, never wider than the seed bracket")
    p.set_defaults(func=_cmd_bisect_astar)

    p = sub.add_parser("catalog", help="emit the supercritical-hole catalog")
    p.add_argument("--max-q", type=int, default=7, dest="max_q")
    p.add_argument("--epsilon", default="1/1024")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--degenerate-samples", type=int, default=9)
    p.add_argument("--sturmian", action="append", default=[],
                   metavar="CF", help="comma-separated slope digits; repeatable")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("trap", help="decide whether [c, d] is a trap")
    p.add_argument("c")
    p.add_argument("d")
    p.add_argument("--depth", type=int, default=24)
    p.add_argument("--tol", default="1/1000000")
    p.set_defaults(func=_cmd_trap)

    p = sub.add_parser("word", help="word generators")
    p.add_argument("kind", choices=["standard", "characteristic", "thue-morse"])
    p.add_argument("entries", nargs="*")
    p.add_argument("--cf", help="comma-separated digits (characteristic)")
    p.add_argument("--length", type=int)
    p.add_argument("--no-extend", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_word)

    p = sub.add_parser("sturmian", help="bracket a Sturmian hole")
    p.add_argument("--cf", required=True, help="comma-separated slope digits")
    p.add_argument("--precision-bits", type=int, default=30, dest="precision_bits")
    p.set_defaults(func=_cmd_sturmian)

    p = sub.add_parser("supercritical-test", help="empirical supercriticality check")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--epsilon", default="1/1024")
    p.set_defaults(func=_cmd_supercritical_test)

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
        if not isinstance(payload, str):
            payload = json.dumps(payload, indent=2, sort_keys=True)
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
            fh.write(payload + "\n")
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.partial is not None:
            lo, hi = exc.partial
            print(json.dumps({"partial_lo": format_fraction(lo),
                              "partial_hi": format_fraction(hi)},
                             sort_keys=True))
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
