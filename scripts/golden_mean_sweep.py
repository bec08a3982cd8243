#!/usr/bin/env python3
"""Continued-fraction approximants of the almost Mathieu operator.

Sweeps the golden-mean frequency's convergents a/b, builds the periodic
cosine potential for each, and prints its period next to the denominator
(the period of a reduced a/b approximant is b, not the naive b+1), spectral
gap data, and the Hausdorff distance between consecutive approximant
spectra against its sup-norm potential bound.  Ends with the
bounded-period premise check: at coupling 1 a period cap of 5 forces
deviation <= 0.8, which the cosine potential's deviation 1.0 violates, so
that family is reported incompatible.
"""
import argparse
import math

from borg_spectra import approximant_sweep, tenmartini_premise

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alpha", type=float, default=GOLDEN)
    parser.add_argument("--count", type=int, default=5)
    parser.add_argument("--coupling", type=float, default=1.0)
    parser.add_argument("--epsilon", type=float, default=0.1,
                        help="epsilon for the premise check")
    parser.add_argument("--period-cap", type=int, default=5,
                        help="period cap assumed by the premise check")
    args = parser.parse_args()

    sweep = approximant_sweep(args.alpha, args.count, coupling=args.coupling)
    print(f"alpha = {args.alpha!r}, coupling = {args.coupling}")
    print(f"{'a/b':>8} {'period':>6} {'gaps':>4} {'eps*':>10} {'d_H next':>10} {'sup next':>10}")
    for i, rep in enumerate(sweep.reports):
        dh = f"{sweep.hausdorff_next[i]:.6f}" if i < len(sweep.hausdorff_next) else "-"
        sup = (
            f"{sweep.potential_sup_next[i]:.6f}"
            if i < len(sweep.potential_sup_next)
            else "-"
        )
        print(
            f"{rep.convergent.a:>4}/{rep.convergent.b:<3} {rep.spec.period:>6} "
            f"{rep.gap_count:>4} {rep.epsilon_star:>10.6f} {dh:>10} {sup:>10}"
        )
    same = all(r.spec.period == r.convergent.b for r in sweep.reports)
    print(f"period == denominator everywhere: {same}")

    specs = [rep.spec for rep in sweep.reports]
    premise = tenmartini_premise(specs, args.epsilon, period_cap=args.period_cap)
    verdict = "compatible" if premise.compatible else "incompatible"
    print(
        f"premise check: period cap {args.period_cap} "
        f"(family periods actually bounded: {premise.periods_bounded}), "
        f"epsilon {args.epsilon} -> forced deviation bound {premise.bound:.6g}; "
        f"limit deviation {premise.limit_deviation:.6g} -> {verdict} "
        f"(threshold epsilon = {premise.incompatibility_threshold:.6g})"
    )


if __name__ == "__main__":
    main()
