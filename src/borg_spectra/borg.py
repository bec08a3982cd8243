"""Gap/deviation certificates linking pseudospectrum connectivity to the
flatness of the potential.

Forward direction: if the epsilon-pseudospectrum is connected then some
constant c satisfies sup_n |v_n - c| <= 2 epsilon (p - 1).  Converse: if
sup_n |v_n - c| <= epsilon (for Jacobi also sup_n |a_n - c'| <= epsilon
together with the combined bound sup|v_n - c| + 2 sup|a_n - c'| <=
2 epsilon, which is what actually controls the total perturbation) then
the 2 epsilon-pseudospectrum is connected.  The general Laurent family
only carries the forward direction, and only under an ascending
potential; no converse certificate exists for it.

Both checks read the verdict `spectra.connectivity` derives from the
enclosure's gaps and its own terms delta and solver, and the enclosure's
epsilon_star, and add no slack of their own.
Forward: the hypothesis holds only on a `connected` verdict, and then
`satisfied` is margin >= 0 exactly.  A certified verdict puts each of the
at most p - 1 true gaps within 2 epsilon; for Schrodinger and Jacobi
specs Cauchy interlacing of the submatrices J_k bounds max v - min v by
the total gap length, so the deviation is at most epsilon (p - 1), half
the bound, and the rounding of either side stays far inside the margin.
Converse: `satisfied` means the verdict at 2 epsilon is not
`disconnected`.

`best_constant` uses the Chebyshev center (midpoint of min and max),
which minimizes the sup deviation; any other constant only makes the
forward inequality easier to satisfy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import HypothesisViolationError, InvalidParameterError
from .spectra import Connectivity, RealSpectrum, connectivity
from .symbols import OperatorKind, OperatorSpec, _real, lipschitz_bound


class TheoremId(Enum):
    FORWARD21 = "Forward21"
    CONVERSE22 = "Converse22"
    FORWARD_JACOBI31 = "ForwardJacobi31"
    CONVERSE_JACOBI32 = "ConverseJacobi32"
    FORWARD_LAURENT33 = "ForwardLaurent33"


_FORWARD_THEOREM = {
    OperatorKind.SCHRODINGER: TheoremId.FORWARD21,
    OperatorKind.JACOBI: TheoremId.FORWARD_JACOBI31,
    OperatorKind.LAURENT_GENERAL: TheoremId.FORWARD_LAURENT33,
}
_CONVERSE_THEOREM = {
    OperatorKind.SCHRODINGER: TheoremId.CONVERSE22,
    OperatorKind.JACOBI: TheoremId.CONVERSE_JACOBI32,
}


@dataclass(frozen=True)
class BorgReport:
    """Outcome of one forward or converse check.

    `connected` is the verdict of `spectra.connectivity` at epsilon
    (forward) or 2 epsilon (converse), and `epsilon_star` is the
    enclosure's, which that verdict reads too.  For forward checks
    `margin = bound - deviation`, and `satisfied` is margin >= 0 when the
    verdict is `connected` and vacuously true otherwise.  For converse
    checks `margin = 2 epsilon - epsilon_star` (the connecting slack), and
    `satisfied` means a verdict other than `disconnected`, vacuously true
    when the deviation hypothesis fails; `hypothesis_met` records which
    case occurred.
    """

    theorem: TheoremId
    epsilon: float
    best_c: float
    deviation: float
    bound: float
    satisfied: bool
    margin: float
    hypothesis_met: bool
    connected: Connectivity
    epsilon_star: float
    a_deviation: float | None = None


def best_constant(v: Sequence[float]) -> tuple[float, float]:
    """Chebyshev center of the potential values and the sup deviation."""
    values = [_real(x, "potential values") for x in v]
    if not values:
        raise InvalidParameterError("best_constant needs at least one value")
    lo, hi = min(values), max(values)
    return (lo + hi) / 2.0, (hi - lo) / 2.0


def check_epsilon(spec: OperatorSpec, epsilon: float) -> float:
    """epsilon as a float, refused unless it is finite, > 0 and small enough
    that no width built from it overflows.  The widest are the forward bound
    2 epsilon (p - 1), the converse radius 2 epsilon and the spectrum's hull
    fattened by 2 epsilon, all below 4 (p epsilon + max(1, ||f||) + L): the
    rule `OperatorSpec` applies to its own entries, extended by epsilon."""
    epsilon = _real(epsilon, "epsilon")
    if epsilon <= 0.0:
        raise InvalidParameterError(f"epsilon must be > 0, got {epsilon!r}")
    widest = spec.period * epsilon + max(1.0, spec.norm_bound()) + lipschitz_bound(spec)
    if not math.isfinite(4.0 * widest):
        raise InvalidParameterError(
            f"epsilon = {epsilon!r} too large: a width built from it overflows"
        )
    return epsilon


def converse_threshold(spec: OperatorSpec) -> float:
    """Smallest epsilon at which the converse hypothesis holds:
    sup|v_n - c| <= epsilon, and for Jacobi also sup|a_n - c'| <= epsilon
    and sup|v_n - c| + 2 sup|a_n - c'| <= 2 epsilon.

    Off-diagonal deviations perturb the operator twice as hard as diagonal
    ones (they appear on both sides of the diagonal), so the 2-epsilon
    conclusion needs the combined bound on top of the per-sequence bounds;
    without it a p=2 gap of half-width sqrt(dev(v)^2 + 4 dev(a)^2) can
    exceed 2 epsilon and connectivity genuinely fails.
    """
    return _deviations(spec)[3]


def _deviations(spec: OperatorSpec) -> tuple[float, float, float | None, float]:
    """Every input the checks read from the spec, derived once per check:
    the Chebyshev center c of v, the deviation of v, that of a (Jacobi
    specs only, else None) and the converse threshold."""
    c, deviation = best_constant(spec.v)
    if spec.kind is not OperatorKind.JACOBI:
        return c, deviation, None, deviation
    a_dev = best_constant(spec.a)[1]
    return c, deviation, a_dev, max(deviation, a_dev, (deviation + 2.0 * a_dev) / 2.0)


def forward_from_spectrum(
    spec: OperatorSpec, spectrum: RealSpectrum, epsilon: float
) -> BorgReport:
    """Connected epsilon-pseudospectrum => deviation <= 2 epsilon (p-1),
    checked against `spectrum`, the computed spectrum of `spec`."""
    epsilon = check_epsilon(spec, epsilon)
    verdict = connectivity(spectrum, epsilon)
    connected = verdict is Connectivity.CONNECTED
    c, deviation, a_dev, _ = _deviations(spec)
    bound = 2.0 * epsilon * (spec.period - 1)
    margin = bound - deviation
    return BorgReport(
        theorem=_FORWARD_THEOREM[spec.kind],
        epsilon=epsilon,
        best_c=c,
        deviation=deviation,
        bound=bound,
        satisfied=margin >= 0.0 if connected else True,
        margin=margin,
        hypothesis_met=connected,
        connected=verdict,
        epsilon_star=spectrum.epsilon_star,
        a_deviation=a_dev,
    )


def converse_from_spectrum(
    spec: OperatorSpec, spectrum: RealSpectrum, epsilon: float
) -> BorgReport:
    """deviation <= epsilon => the 2 epsilon-pseudospectrum is connected,
    checked against `spectrum`, the computed spectrum of `spec`."""
    epsilon = check_epsilon(spec, epsilon)
    if spec.kind is OperatorKind.LAURENT_GENERAL:
        raise HypothesisViolationError(
            "no converse certificate exists for general laurent specs"
        )
    c, deviation, a_dev, threshold = _deviations(spec)
    hypothesis_met = threshold <= epsilon
    verdict = connectivity(spectrum, 2.0 * epsilon)
    epsilon_star = spectrum.epsilon_star
    return BorgReport(
        theorem=_CONVERSE_THEOREM[spec.kind],
        epsilon=epsilon,
        best_c=c,
        deviation=deviation,
        bound=2.0 * epsilon,
        satisfied=verdict is not Connectivity.DISCONNECTED if hypothesis_met else True,
        margin=2.0 * epsilon - epsilon_star,
        hypothesis_met=hypothesis_met,
        connected=verdict,
        epsilon_star=epsilon_star,
        a_deviation=a_dev,
    )
