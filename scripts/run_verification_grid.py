#!/usr/bin/env python3
"""Run the full verification battery and print a summary table.

Covers the family grid in both evaluation modes plus the seeded random
identity suites. Exits nonzero on any unregistered mismatch.
"""
from __future__ import annotations

import argparse
import sys
import time

from statusindex import DEFAULT_SEED, verify_grid, verify_random_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--count", type=int, default=200,
                        help="random corpus size per suite")
    args = parser.parse_args()

    ok = True
    print(f"{'suite':<28} {'cases':>6} {'passed':>7} {'errata':>7} {'hard':>5} {'secs':>6}")
    suites = [
        ("grid corrected", lambda: verify_grid("corrected")),
        ("grid as-printed", lambda: verify_grid("as_printed")),
        ("random mixed identities",
         lambda: verify_random_suite(count=args.count, seed=args.seed)),
        ("random dense identities",
         lambda: verify_random_suite(count=args.count, seed=args.seed, dense=True)),
    ]
    for name, run in suites:
        start = time.perf_counter()
        report = run()
        elapsed = time.perf_counter() - start
        summary = report.summary()
        print(
            f"{name:<28} {summary['cases']:>6} {summary['passed']:>7} "
            f"{summary['registered_errata']:>7} {summary['hard_failures']:>5} "
            f"{elapsed:>6.2f}"
        )
        for case in report.hard_failures():
            print(f"  FAIL {case.case_id} {case.index_name}: "
                  f"{case.formula} vs oracle {case.oracle}")
        ok = ok and report.ok
    print("result:", "clean" if ok else "UNREGISTERED MISMATCHES")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
