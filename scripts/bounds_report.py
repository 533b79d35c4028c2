#!/usr/bin/env python3
"""Print every closed-form bound for a range of parameters.

Usage: python scripts/bounds_report.py [--g-max G] [--p-max P]
"""

import argparse

from multitwist import bounds, cli


def _mid(result) -> float:
    return float((result.value.lo + result.value.hi) / 2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--g-max", type=int, default=10)
    parser.add_argument("--p-max", type=int, default=10)
    args = parser.parse_args()

    torelli = bounds.torelli_lower()
    print(f"torelli_lower        {_mid(torelli):.7f}  "
          f"({torelli.binding_case})")
    print(f"surgery_lower(4,1)   {_mid(bounds.surgery_lower(4, 1)):.7f}")
    print(f"surgery_lower(3,2)   {_mid(bounds.surgery_lower(3, 2)):.7f}")
    print(f"congruence_lower(3)  {_mid(bounds.congruence_lower(3)):.7f}")
    print()
    print("p   brunnian_lower")
    for p in range(5, args.p_max + 1):
        print(f"{p:2d}  {_mid(bounds.brunnian_lower(p)):.7f}")
    print()
    print("g   hk_upper    tau_cc_infs_upper  filling")
    for g in range(3, args.g_max + 1):
        print(f"{g:2d}  {_mid(bounds.hk_upper(g)):.7f}   "
              f"{_mid(bounds.tau_cc_infs_upper(g)):.7f}          "
              f"{bounds.filling_intersection_lower(g)}")
    return 0


if __name__ == "__main__":
    # exits 1 without a traceback when the reader of stdout closes early
    cli.main(main)
