#!/usr/bin/env python3
"""Sweep the divisor audits over a grid of (n, d) pairs and print a table.

Reproduces the headline verification runs:

    python3 scripts/run_audits.py                 # the default grid
    python3 scripts/run_audits.py --pairs 2:5 3:6 # a custom grid

Each pair is swept once for all the claims (harness.audit_row), so every row
of a pair shows that pair's sweep time.  The script exits 1 when a row has a
violation or is partial (a support skipped by the enumeration cap or left
inconclusive by the smoothness certificate), and when a pair is skipped
because it is unsupported or over a size cap, since its audit did not run.
"""

import argparse
import sys
import time

from hyperaut.classify import UnsupportedRangeError
from hyperaut.harness import AUDIT_CLAIM_IDS, audit_row
from hyperaut.poly import CapExceededError

DEFAULT_PAIRS = [(2, 5), (2, 6), (3, 4), (3, 5), (4, 4), (4, 5)]


def pair(text: str) -> tuple[int, int]:
    """An n:d pair such as 3:5."""
    try:
        n, d = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an n:d pair: {text!r}") from None
    return n, d


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", nargs="+", type=pair, default=DEFAULT_PAIRS,
                        help="n:d pairs to audit")
    parser.add_argument("--claims", nargs="+", choices=AUDIT_CLAIM_IDS, metavar="CLAIM",
                        default=["thm-1.1-codim1", "thm-1.1-codim2"],
                        help=f"claim ids to audit: {', '.join(AUDIT_CLAIM_IDS)}")
    args = parser.parse_args()

    failed = False
    print(f"{'n':>2} {'d':>2} {'claim':<16} {'supports':>8} {'smooth':>6} "
          f"{'cases':>6} {'violations':>10} {'time':>7}")
    for n, d in args.pairs:
        start = time.perf_counter()
        try:
            reports = audit_row(n, d, args.claims, keep_records=False)
        except (UnsupportedRangeError, CapExceededError) as exc:
            for claim in args.claims:
                print(f"{n:>2} {d:>2} {claim:<16} skipped: {exc}")
            failed = True
            continue
        elapsed = time.perf_counter() - start
        for report in reports:
            print(f"{n:>2} {d:>2} {report.claim:<16} {report.supports_total:>8} "
                  f"{report.supports_smooth:>6} {report.cases_examined:>6} "
                  f"{len(report.violations):>10} {elapsed:>6.1f}s"
                  + ("  PARTIAL" if report.partial else ""))
            for v in report.violations:
                print(f"      VIOLATION {v.support} exps={v.exps} "
                      f"order={v.order}: {v.detail}")
            failed |= not report.ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
