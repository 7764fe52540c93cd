#!/usr/bin/env python3
"""Sweep exact column extremal values against the closed form.

For each (m, k, c) in the grid, computes ex_k(m, all-ones k x c) by search
and compares with (c-1) * C(m, k).  Emits CSV with one row per case.

Usage:
    python3 scripts/column_extremal_sweep.py [--max-m 7] [--max-k 3] [--max-c 3]
"""

import argparse
import sys
import time
from math import comb

from exmat import PatternSet, ex_columns, pattern_P


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-m", type=int, default=7)
    ap.add_argument("--max-k", type=int, default=3)
    ap.add_argument("--max-c", type=int, default=3)
    args = ap.parse_args()

    print("m,k,c,value,closed_form,match,nodes,seconds")
    mismatches = 0
    for m in range(1, args.max_m + 1):
        for k in range(1, min(args.max_k, m) + 1):
            for c in range(2, args.max_c + 1):
                t0 = time.perf_counter()
                res = ex_columns(m, k, PatternSet.of(pattern_P(k, c)))
                dt = time.perf_counter() - t0
                expected = (c - 1) * comb(m, k)
                match = res.exact and res.value == expected
                mismatches += not match
                print(
                    f"{m},{k},{c},{res.value},{expected},{match},"
                    f"{res.nodes_explored},{dt:.3f}"
                )
    if mismatches:
        print(f"{mismatches} mismatches", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
