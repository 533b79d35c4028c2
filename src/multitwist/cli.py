"""Command-line front end.

Subcommands: dilatation, family, bounds, search, lcs-table, johnson-tau,
tau-cc, verify-paper.  Exit codes: 0 success, 1 computation error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bounds, families, johnson, rep, search, verify
from .intervals import Interval, PrecisionError, decimal_str
from .words import Word


class ComputationError(Exception):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _symplectic_pairs(text: str) -> list[tuple[str, str]]:
    """'x2,y2;x3,y3' -> [('x2', 'y2'), ('x3', 'y3')]; '' -> []."""
    if not text:
        return []
    pairs = [tuple(chunk.split(",")) for chunk in text.split(";")]
    for pair in pairs:
        if len(pair) != 2:
            raise argparse.ArgumentTypeError(
                f"expected two classes joined by ',', got {','.join(pair)!r}")
    return pairs


def _emit(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_dilatation(args) -> int:
    w = Word.parse(args.word)
    report = rep.dilatation(w, args.mu, args.precision_bits)
    if args.format == "json":
        _emit(report.to_json_dict())
    elif report.isometry_class != rep.HYPERBOLIC:
        print(f"{report.isometry_class}; no dilatation")
    else:
        lam = report.dilatation_interval
        log_lam = report.log_dilatation_interval
        print(f"word {w or '1'}: hyperbolic, "
              f"|trace| = {decimal_str(abs(report.trace))}, "
              f"lambda in [{float(lam.lo)!r}, {float(lam.hi)!r}], "
              f"log(lambda) in [{float(log_lam.lo)!r}, {float(log_lam.hi)!r}]")
    return 0


def _cmd_family(args) -> int:
    if args.kind == "torelli":
        fam = families.torelli_family(args.genus)
    else:
        fam = families.braid_family(args.genus)
    if args.format == "csv":
        sys.stdout.write(families.family_csv(fam))
        return 0
    pf = families.pf_eigenvalue(fam.nnt())
    payload = {
        "family": fam.family,
        "genus": fam.genus,
        "m": fam.m,
        "mu": fam.mu,
        "N": [list(r) for r in fam.N],
        "NNt": fam.nnt(),
        "pf": {
            "lower": str(pf.value_lower),
            "upper": str(pf.value_upper),
            "exact": pf.exact_flag,
            "eigenvector": [str(x) for x in pf.eigenvector],
        },
    }
    _emit(payload)
    return 0


def _cmd_bounds(args) -> int:
    if args.group == "torelli":
        result = bounds.torelli_lower()
    elif args.group == "johnson":
        result = bounds.surgery_lower(4, 1)
    elif args.group == "congruence":
        if args.r is None:
            raise ComputationError("--r is required for --group congruence")
        result = bounds.congruence_lower(args.r)
    else:  # brunnian
        if args.p is None:
            raise ComputationError("--p is required for --group brunnian")
        result = bounds.brunnian_lower(args.p)
    _emit(result.to_json_dict())
    return 0


def _cmd_search(args) -> int:
    report = search.min_dilatation_search(args.max_len, args.mu,
                                          jobs=args.jobs,
                                          precision_bits=args.precision_bits)
    _emit(report.to_json_dict())
    return 0


def _cmd_lcs_table(args) -> int:
    rows = search.lcs_table(args.max_k, args.mu, args.precision_bits)
    if args.format == "json":
        _emit({"rows": [r.to_json_dict() for r in rows]})
    else:
        sys.stdout.write(search.lcs_csv(rows))
    return 0


def _cmd_johnson_tau(args) -> int:
    g = args.genus
    a = johnson.HomologyClass.parse(args.a, g)
    pairs = [(johnson.HomologyClass.parse(u_text, g),
              johnson.HomologyClass.parse(v_text, g))
             for u_text, v_text in args.pairs]
    coset = johnson.tau_bounding_pair(g, pairs, a)
    _emit(coset.to_json_dict())
    return 0


def _cmd_tau_cc(args) -> int:
    if args.log_lambda is None:
        result = bounds.tau_cc_infs_upper(args.genus)
    else:
        result = bounds.tau_cc_upper(args.genus,
                                     Interval.point(Fraction(args.log_lambda)))
    _emit(result.to_json_dict())
    return 0


def _cmd_verify_paper(args) -> int:
    results = verify.run_all()
    failed = sum(not r.ok for r in results)
    if args.format == "json":
        _emit([{"key": r.key, "ok": r.ok, "seconds": r.seconds,
                "error": r.error} for r in results])
        return 0 if failed == 0 else 1
    width = max(len(r.key) for r in results)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        line = f"{status}  {r.key.ljust(width)}  {r.seconds:8.3f}s  {r.description}"
        print(line)
        if not r.ok:
            print(f"      {r.error}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multitwist",
        description="Exact dilatations, Perron-Frobenius certificates, "
                    "closed-form bounds, and the Johnson homomorphism on "
                    "bounding pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def output_format(p, *choices):
        p.add_argument("--format", choices=choices, default=choices[0])

    def precision_bits(p):
        p.add_argument("--precision-bits", type=_positive_int, default=60,
                       dest="precision_bits")

    p = sub.add_parser("dilatation", help="certified dilatation of a word")
    p.add_argument("--word", required=True,
                   help="word in a/b/A/B (empty string for the identity)")
    p.add_argument("--mu", type=int, required=True)
    output_format(p, "json", "text")
    precision_bits(p)
    p.set_defaults(func=_cmd_dilatation)

    p = sub.add_parser("family", help="built-in intersection family and PF data")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--kind", choices=["torelli", "braid"], required=True)
    output_format(p, "json", "csv")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("bounds", help="closed-form lower bounds by subgroup")
    p.add_argument("--group", choices=["torelli", "johnson", "congruence",
                                       "brunnian"], required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("search", help="minimal |trace| over conjugacy classes")
    p.add_argument("--max-len", type=int, required=True, dest="max_len")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for the class enumeration "
                        "from --max-len 13 on (at most one per core)")
    precision_bits(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("lcs-table", help="nested-commutator dilatation table")
    p.add_argument("--max-k", type=int, required=True, dest="max_k")
    p.add_argument("--mu", type=int, required=True)
    output_format(p, "csv", "json")
    precision_bits(p)
    p.set_defaults(func=_cmd_lcs_table)

    p = sub.add_parser("johnson-tau",
                       help="Johnson image of a bounding-pair map")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--pairs", type=_symplectic_pairs, default="",
                   help='symplectic pairs, e.g. "x2,y2;x3,y3"')
    p.add_argument("--a", required=True, help='class of the pair, e.g. "x1"')
    p.set_defaults(func=_cmd_johnson_tau)

    p = sub.add_parser("tau-cc", help="curve-complex translation-length bound")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--log-lambda", default=None, dest="log_lambda",
                   help="exact rational, e.g. 6931/10000")
    p.set_defaults(func=_cmd_tau_cc)

    p = sub.add_parser("verify-paper", help="reproduce every headline constant")
    output_format(p, "text", "json")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, RuntimeError, ComputationError,
            PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early; point stdout at devnull so that the
        # interpreter's flush at exit cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
