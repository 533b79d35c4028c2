"""Command-line front end.

Subcommands: dilatation, family, bounds, search, lcs-table, johnson-tau,
tau-cc, verify-paper.  Exit codes: 0 success, 1 computation error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction

from . import bounds, families, johnson, rep, search, verify
from .intervals import Interval, PrecisionError, decimal_str
from .words import Word


# the largest family genus; N * N^t then has (1024 / 2)^2 = 262,144 entries
MAX_FAMILY_GENUS = 1024
# the largest johnson-tau genus; dense classes then expand into up to
# C(128, 3) = 341,376 triples
MAX_JOHNSON_GENUS = 64
# the largest --precision-bits; the certified log takes about 0.3 s there,
# and its cost grows faster than quadratically in the bit count
MAX_PRECISION_BITS = 65536
# the largest lcs-table --max-k; the deepest word has length 2^18, and
# each further level about triples the time
MAX_LCS_DEPTH = 18
# the largest search --max-len: about 33 s and 280 MB, x3 per further letter
MAX_SEARCH_LENGTH = 16


class ComputationError(Exception):
    pass


def _bounded_int(low=None, high=None):
    """An argparse type: an int in [low, high], either end optional."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return parse


def _rational(text: str) -> Fraction:
    """An argparse type: p, p/q with q > 0, or a plain decimal.  Exponents
    are refused: Fraction("1e1000000") spends 0.24 s building 10^1000000."""
    if not re.fullmatch(r"[+-]?(\d+(/0*[1-9]\d*)?|\d*\.\d+|\d+\.)", text):
        raise argparse.ArgumentTypeError(
            f"expected p, p/q with q > 0 or a plain decimal, got {text!r}")
    try:
        return Fraction(text)
    except ValueError as exc:  # past the int-from-str digit limit
        raise argparse.ArgumentTypeError(str(exc)) from None


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


def _float_text(x: Fraction) -> str:
    """repr(float(x)), or 17 significant digits past the float range."""
    try:
        return repr(float(x))
    except OverflowError:
        return f"{Decimal(x.numerator) / x.denominator:.16e}"


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
              f"lambda in [{_float_text(lam.lo)}, {_float_text(lam.hi)}], "
              f"log(lambda) in [{_float_text(log_lam.lo)}, "
              f"{_float_text(log_lam.hi)}]")
    return 0


def _cmd_family(args) -> int:
    if args.kind == "torelli":
        fam = families.torelli_family(args.genus)
    else:
        fam = families.braid_family(args.genus)
    if args.format == "csv":
        sys.stdout.write(families.family_csv(fam))
        return 0
    prod = fam.nnt()
    pf = families.pf_eigenvalue(prod)
    payload = {
        "family": fam.family,
        "genus": fam.genus,
        "m": fam.m,
        "mu": fam.mu,
        "N": [list(r) for r in fam.N],
        "NNt": prod,
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
        result = bounds.tau_cc_upper(args.genus, Interval.point(args.log_lambda))
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
        p.add_argument("--precision-bits",
                       type=_bounded_int(low=1, high=MAX_PRECISION_BITS),
                       default=60, help="certified bits of the intervals, "
                                        f"at most {MAX_PRECISION_BITS} (default 60)")

    p = sub.add_parser("dilatation", help="certified dilatation of a word")
    p.add_argument("--word", required=True,
                   help="word in a/b/A/B (empty string for the identity)")
    p.add_argument("--mu", type=int, required=True)
    output_format(p, "json", "text")
    precision_bits(p)
    p.set_defaults(func=_cmd_dilatation)

    p = sub.add_parser("family", help="built-in intersection family and PF data")
    p.add_argument("--genus", type=_bounded_int(high=MAX_FAMILY_GENUS),
                   required=True, help=f"at most {MAX_FAMILY_GENUS}")
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
    p.add_argument("--max-len", type=_bounded_int(high=MAX_SEARCH_LENGTH),
                   required=True, help=f"at most {MAX_SEARCH_LENGTH} (about 33 s)")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--jobs", type=_bounded_int(low=1), default=1,
                   help="worker processes for the class enumeration "
                        "from --max-len 13 on (at most one per core)")
    precision_bits(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("lcs-table", help="nested-commutator dilatation table")
    p.add_argument("--max-k", type=_bounded_int(high=MAX_LCS_DEPTH),
                   required=True, help=f"at most {MAX_LCS_DEPTH}")
    p.add_argument("--mu", type=int, required=True)
    output_format(p, "csv", "json")
    precision_bits(p)
    p.set_defaults(func=_cmd_lcs_table)

    p = sub.add_parser("johnson-tau",
                       help="Johnson image of a bounding-pair map")
    p.add_argument("--genus", type=_bounded_int(high=MAX_JOHNSON_GENUS),
                   required=True, help=f"at most {MAX_JOHNSON_GENUS}")
    p.add_argument("--pairs", type=_symplectic_pairs, default="",
                   help='symplectic pairs, e.g. "x2,y2;x3,y3"')
    p.add_argument("--a", required=True, help='class of the pair, e.g. "x1"')
    p.set_defaults(func=_cmd_johnson_tau)

    p = sub.add_parser("tau-cc", help="curve-complex translation-length bound")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--log-lambda", type=_rational,
                   help="exact p, p/q or plain decimal, e.g. 6931/10000")
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
