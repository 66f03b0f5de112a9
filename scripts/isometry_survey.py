#!/usr/bin/env python3
"""Survey isometry groups of canonical blocks over a small prime field:
group order, determinant tally, and whether every determinant is one.

Example:
    python3 scripts/isometry_survey.py --p 3 --max-size 5
"""

import argparse
import time

from isodet import (GF, BudgetExceededError, Matrix, direct_sum, enumerate_isometries, gamma,
                    jordan, symplectic_unit)


def survey(label: str, M: Matrix) -> None:
    t0 = time.time()
    try:
        s = enumerate_isometries(M)
    except BudgetExceededError:
        print(f"{label:<22} beyond the oracle's default budget")
        return
    dt = time.time() - t0
    tally = dict(sorted(s.det_counts.items()))
    print(f"{label:<22} order {s.group_order:>8}  dets {tally}  "
          f"all-det-one {str(s.all_det_one):<5}  {dt:.1f}s")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--max-size", type=int, default=5,
                    help="largest block size to enumerate")
    args = ap.parse_args()
    f = GF(args.p)
    for m in range(1, args.max_size // 2 + 1):
        survey(f"symplectic Z_{2*m}", symplectic_unit(m, f))
    for r in range(1, args.max_size + 1):
        survey(f"gamma({r})", gamma(r, f))
    for s in range(1, args.max_size + 1):
        survey(f"jordan J_{s}(0)", jordan(s, 0, f))
    if args.max_size >= 3:
        survey("J_1(0) + Z_2", direct_sum([jordan(1, 0, f), symplectic_unit(1, f)]))


if __name__ == "__main__":
    main()
