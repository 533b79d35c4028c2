#!/usr/bin/env python3
"""Scan minimal |trace| classes by word length and print a small table.

Each row is one exhaustive search over the canonical class words of
length <= max_len; --jobs J splits each enumeration from length 13 on
over J worker processes (at most one per core), and every such row
starts its own pool and pays the workers' start-up of about 0.25 s.

Usage: python scripts/minimality_scan.py [--max-len N] [--mu M] [--jobs J]
"""

import argparse
import time

from multitwist import search
from multitwist.cli import _positive_int


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-len", type=int, default=8)
    parser.add_argument("--mu", type=int, default=64)
    parser.add_argument("--jobs", type=_positive_int, default=1)
    args = parser.parse_args()

    print(f"mu = {args.mu}")
    print("max_len  classes  min|trace|  minima")
    for max_length in range(2, args.max_len + 1):
        start = time.perf_counter()
        report = search.min_dilatation_search(max_length, args.mu,
                                              jobs=args.jobs)
        elapsed = time.perf_counter() - start
        minima = " ".join(str(w) for w in report.all_minima)
        print(f"{max_length:7d}  {report.classes_examined:7d}  "
              f"{str(abs(report.minimum.trace)):>10}  {minima}"
              f"   ({elapsed:.2f}s)")


if __name__ == "__main__":
    main()
