#!/usr/bin/env python3
"""Gap structure and deviation certificates for the period-5 staircase.

The potential v = (1, 1.1, 1.2, 1.3, 1.4) is the smallest example in the
suite whose spectrum is disconnected while a modest fattening (epsilon =
0.2 = exactly the potential's deviation from its best constant) already
reconnects it.  The script prints the band intervals, the gap report,
and the forward certificate, then repeats the exercise for the period-10
ramp v_j = 0.05 j.  The band edges are exact (theta in {0, pi}), padded
only by the eigensolver bound.
"""
from borg_spectra import (
    best_constant,
    compute_spectrum,
    connectivity,
    forward_from_spectrum,
)
from borg_spectra.symbols import OperatorKind, OperatorSpec


def schrodinger(v):
    return OperatorSpec(kind=OperatorKind.SCHRODINGER, period=len(v), v=tuple(v))


def describe(name, spec, epsilon):
    spectrum = compute_spectrum(spec)
    c, dev = best_constant(spec.v)
    forward = forward_from_spectrum(spec, spectrum, epsilon)

    print(f"== {name} (period {spec.period}) ==")
    print(f"  best constant c = {c:.6g}, deviation = {dev:.6g}")
    print(
        f"  resolution padding = {spectrum.resolution_error:.3e} "
        f"(eigensolver part {spectrum.solver:.3e})"
    )
    for lo, hi in spectrum.intervals:
        print(f"  band [{lo:+.6f}, {hi:+.6f}]")
    for lo, hi, width in spectrum.gaps:
        print(f"  gap  ({lo:+.6f}, {hi:+.6f})  width {width:.6f}")
    print(f"  spectrum {connectivity(spectrum, 0.0).value}, epsilon* = {spectrum.epsilon_star:.6f}")
    print(
        f"  {epsilon}-pseudospectrum {connectivity(spectrum, epsilon).value}; forward "
        f"certificate: deviation {forward.deviation:.6g} <= bound "
        f"{forward.bound:.6g} (margin {forward.margin:+.3e}, "
        f"satisfied={forward.satisfied})"
    )
    print()


def main():
    describe("staircase", schrodinger([1.0, 1.1, 1.2, 1.3, 1.4]), 0.2)
    describe("ramp", schrodinger([0.05 * j for j in range(10)]), 0.225)


if __name__ == "__main__":
    main()
