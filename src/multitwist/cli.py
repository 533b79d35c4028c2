"""Command-line front end.

Subcommands: dilatation, family, bounds, search, lcs-table, johnson-tau,
tau-cc, verify-paper.  Exit codes: 0 success, 1 computation error,
2 usage error.

Import rule: module level imports only what every command needs (argparse,
json, os, re, sys).  Each command imports its own modules when it runs, so
start-up and usage errors load no module of the package beyond this one.
Each command also builds only its own arguments: the parser lists every
command, but fills in only the subparsers that argv names, and gives the
others not even -h.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

# the largest family genus; N * N^t then has (1024 / 2)^2 = 262,144 entries
MAX_FAMILY_GENUS = 1024
# the largest johnson-tau genus; dense classes then expand into up to
# C(128, 3) = 341,376 triples
MAX_JOHNSON_GENUS = 64
# the largest --precision-bits; the cost grows 3.3-3.9 times per doubling of
# the bit count, a little under quadratically: a warm dilatation of trace 62
# takes 0.75 / 2.5 / 9.2 / 34 / 132 ms at 4096-65536 bits (best of 4 rounds
# on a shared 2-core box; the README gives subprocess times)
MAX_PRECISION_BITS = 65536
# the largest size in bits of a trace that lcs-table or dilatation forms,
# and the one size rule of each: each further lcs-table level, or doubling
# of the bits of mu, costs about twice as much (6 / 11 / 22 / 41 ms in-process
# at --max-k 15-18, mu 64), and a dilatation --word at the bound takes
# 0.3-0.7 s as a subprocess (shared 2-core box; the README gives the times)
MAX_TRACE_BITS = 2 ** 17 * 7
# the largest search --max-len, bound by time alone at mu <= 4 (the README
# gives the measured times): there each further letter about triples the
# time, while the streamed search's stack stays flat and only the list of
# minima grows (23,973 words at mu 1 and the bound); from mu 5 the search
# enumerates nothing and takes start-up time at any length
MAX_SEARCH_LENGTH = 17


def _bounded_int(low=None, high=None):
    """An argparse type: an int in [low, high], either end optional.  Only
    ASCII digits with an optional sign are read: int() would also take other
    Unicode digits, underscores and surrounding whitespace."""
    def parse(text: str) -> int:
        try:
            if not re.fullmatch(r"[+-]?[0-9]+", text):
                raise ValueError
            value = int(text)
        except ValueError:  # also past the int-from-str digit limit
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
    from fractions import Fraction

    if not re.fullmatch(r"[+-]?(\d+(/0*[1-9]\d*)?|\d*\.\d+|\d+\.)", text,
                        re.ASCII):
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


def _cmd_dilatation(args) -> int:
    from . import rep
    from .intervals import decimal_str, float_str
    from .words import parse_word

    w = parse_word(args.word)
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
              f"lambda in [{float_str(lam.lo)}, {float_str(lam.hi)}], "
              f"log(lambda) in [{float_str(log_lam.lo)}, "
              f"{float_str(log_lam.hi)}]")
    return 0


def _cmd_family(args) -> int:
    from . import families

    if args.kind == "torelli":
        name, N = families.TORELLI, families.torelli_family(args.genus)
    else:
        name, N = families.BRAID, families.braid_family(args.genus)
    prod = families.nnt(N)
    pf = families.pf_eigenvalue(prod)
    payload = {
        "family": name,
        "genus": args.genus,
        "m": len(N),
        "mu": pf.value,
        "N": N,
        "NNt": prod,
        "pf": {
            "lower": str(pf.value),
            "upper": str(pf.value),
            "exact": True,
            "eigenvector": [str(x) for x in pf.eigenvector],
        },
    }
    if args.format == "json":
        _emit(payload)
        return 0
    cert = payload["pf"]
    lines = ["section,row,values"] + [
        f"{name},{i},{' '.join(map(str, row))}"
        for name in ("N", "NNt") for i, row in enumerate(payload[name])]
    lines += [f"PF,lower,{cert['lower']}", f"PF,upper,{cert['upper']}",
              f"PF,exact,{json.dumps(cert['exact'])}",
              f"PF,eigenvector,{' '.join(cert['eigenvector'])}"]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# the one bounds group that takes each parameter flag
_BOUNDS_PARAMETERS = {"r": "congruence", "p": "brunnian"}


def _check_bounds_parameters(args) -> None:
    """Each of --r and --p is required with its group and refused with
    every other group, as a usage error of the bounds subparser."""
    for name, group in _BOUNDS_PARAMETERS.items():
        given = getattr(args, name) is not None
        if args.group == group and not given:
            args.usage_error(f"--{name} is required for --group {group}")
        if args.group != group and given:
            args.usage_error(f"--{name} is only valid with --group {group}")


def _cmd_bounds(args) -> int:
    from . import bounds

    if args.group == "torelli":
        result = bounds.torelli_lower()
    elif args.group == "johnson":
        result = bounds.surgery_lower(4, 1)
    elif args.group == "congruence":
        result = bounds.congruence_lower(args.r)
    else:  # brunnian
        result = bounds.brunnian_lower(args.p)
    _emit(result.to_json_dict())
    return 0


def _cmd_search(args) -> int:
    from . import search

    report = search.min_dilatation_search(args.max_len, args.mu,
                                          args.precision_bits)
    _emit(report.to_json_dict())
    return 0


def _check_dilatation_size(args) -> None:
    """Refuse a --word whose trace may pass MAX_TRACE_BITS bits: each a^+-1
    at most doubles an entry of the image, and each b^+-1 multiplies it by
    at most mu + 1.  A mu below 1 is left to the computation."""
    letters = len(args.word)
    bits = letters * (args.mu + 1).bit_length()
    if args.mu >= 1 and bits > MAX_TRACE_BITS:
        args.usage_error(f"a {letters}-letter --word may need a {bits}-bit "
                         f"trace; at most {MAX_TRACE_BITS} are allowed")


def _check_lcs_size(args) -> None:
    """Refuse a table whose deepest trace, mu^(2^(k-1)) + 2, may pass
    MAX_TRACE_BITS bits; the budget is shifted, not the bits of mu, so a
    huge k costs nothing.  A k or mu below 1 is left to the computation."""
    bits, shift = args.mu.bit_length(), args.max_k - 1
    if args.mu >= 1 and shift >= 0 and bits > MAX_TRACE_BITS >> shift:
        size = bits << shift if shift < 64 else f"{bits} * 2^{shift}"
        args.usage_error(f"--max-k {args.max_k} with a {bits}-bit --mu needs"
                         f" a trace of about {size} bits; at most "
                         f"{MAX_TRACE_BITS} are allowed")


def _cmd_lcs_table(args) -> int:
    from . import search

    rows = search.lcs_table(args.max_k, args.mu, args.precision_bits)
    if args.format == "json":
        _emit({"rows": [r.to_json_dict() for r in rows]})
    else:
        sys.stdout.write(search.lcs_csv(rows))
    return 0


def _cmd_johnson_tau(args) -> int:
    from . import johnson

    g = args.genus
    a = johnson.HomologyClass.parse(args.a, g)
    pairs = [(johnson.HomologyClass.parse(u_text, g),
              johnson.HomologyClass.parse(v_text, g))
             for u_text, v_text in args.pairs]
    coset = johnson.tau_bounding_pair(g, pairs, a)
    _emit(coset.to_json_dict())
    return 0


def _cmd_tau_cc(args) -> int:
    from . import bounds
    from .intervals import Interval

    if args.log_lambda is None:
        result = bounds.tau_cc_infs_upper(args.genus)
    else:
        result = bounds.tau_cc_upper(args.genus, Interval.point(args.log_lambda))
    _emit(result.to_json_dict())
    return 0


def _cmd_verify_paper(args) -> int:
    from . import verify

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


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of every command, with the arguments of only the commands
    that argv names.  argparse selects a subparser by one element of argv,
    matched exactly, and reads no other subparser beyond its name and
    help, so a command that argv does not name needs no arguments."""
    parser = argparse.ArgumentParser(
        prog="multitwist",
        description="Exact dilatations, Perron-Frobenius certificates, "
                    "closed-form bounds, and the Johnson homomorphism on "
                    "bounding pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        """The subparser of name, or None, with no -h, when argv does not
        name it."""
        p = sub.add_parser(name, help=help, add_help=name in argv)
        return p if name in argv else None

    def output_format(p, *choices):
        p.add_argument("--format", choices=choices, default=choices[0])

    def precision_bits(p):
        p.add_argument("--precision-bits",
                       type=_bounded_int(low=1, high=MAX_PRECISION_BITS),
                       default=60, help="certified bits of the intervals, "
                                        f"at most {MAX_PRECISION_BITS} (default 60)")

    if p := command("dilatation", "certified dilatation of a word"):
        p.add_argument("--word", required=True,
                       help="word in a/b/A/B (empty string for the "
                            "identity); letters * bit_length(mu + 1) at "
                            f"most {MAX_TRACE_BITS}")
        p.add_argument("--mu", type=_bounded_int(), required=True)
        output_format(p, "json", "text")
        precision_bits(p)
        p.set_defaults(func=_cmd_dilatation, check=_check_dilatation_size,
                       usage_error=p.error)

    if p := command("family", "built-in intersection family and PF data"):
        p.add_argument("--genus", type=_bounded_int(high=MAX_FAMILY_GENUS),
                       required=True, help=f"at most {MAX_FAMILY_GENUS}")
        p.add_argument("--kind", choices=["torelli", "braid"], required=True)
        output_format(p, "json", "csv")
        p.set_defaults(func=_cmd_family)

    if p := command("bounds", "closed-form lower bounds by subgroup"):
        p.add_argument("--group", choices=["torelli", "johnson", "congruence",
                                           "brunnian"], required=True)
        p.add_argument("--r", type=_bounded_int(), default=None,
                       help="congruence level, with --group congruence only")
        p.add_argument("--p", type=_bounded_int(), default=None,
                       help="number of punctures, with --group brunnian only")
        p.set_defaults(func=_cmd_bounds, check=_check_bounds_parameters,
                       usage_error=p.error)

    if p := command("search", "minimal |trace| over conjugacy classes"):
        p.add_argument("--max-len", type=_bounded_int(high=MAX_SEARCH_LENGTH),
                       required=True,
                       help=f"at most {MAX_SEARCH_LENGTH} (start-up time from "
                            "mu 5)")
        p.add_argument("--mu", type=_bounded_int(), required=True)
        precision_bits(p)
        p.set_defaults(func=_cmd_search)

    if p := command("lcs-table", "nested-commutator dilatation table"):
        p.add_argument("--max-k", type=_bounded_int(), required=True,
                       help=f"2^(max_k - 1) * (bits of mu) at most "
                            f"{MAX_TRACE_BITS}")
        p.add_argument("--mu", type=_bounded_int(), required=True)
        output_format(p, "csv", "json")
        precision_bits(p)
        p.set_defaults(func=_cmd_lcs_table, check=_check_lcs_size,
                       usage_error=p.error)

    if p := command("johnson-tau", "Johnson image of a bounding-pair map"):
        p.add_argument("--genus", type=_bounded_int(high=MAX_JOHNSON_GENUS),
                       required=True, help=f"at most {MAX_JOHNSON_GENUS}")
        p.add_argument("--pairs", type=_symplectic_pairs, default="",
                       help='symplectic pairs, e.g. "x2,y2;x3,y3"')
        p.add_argument("--a", required=True,
                       help='class of the pair, e.g. "x1"')
        p.set_defaults(func=_cmd_johnson_tau)

    if p := command("tau-cc", "curve-complex translation-length bound"):
        p.add_argument("--genus", type=_bounded_int(), required=True)
        p.add_argument("--log-lambda", type=_rational,
                       help="exact p, p/q or plain decimal, e.g. 6931/10000")
        p.set_defaults(func=_cmd_tau_cc)

    if p := command("verify-paper", "reproduce every headline constant"):
        output_format(p, "text", "json")
        p.set_defaults(func=_cmd_verify_paper)

    return parser


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        # checks that join several flags, as usage errors of the subparser
        if hasattr(args, "check"):
            args.check(args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    # ArithmeticError covers intervals.PrecisionError and OverflowError
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """Exit with run()'s code, or with 1 and no traceback when the
    reader of stdout closed early."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull so that the interpreter's flush at exit
        # cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
