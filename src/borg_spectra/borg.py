"""Gap/deviation certificates linking pseudospectrum connectivity to the
flatness of the potential, plus the interlacing and trace identities the
certificates rest on.

Forward direction: if the epsilon-pseudospectrum is connected then some
constant c satisfies sup_n |v_n - c| <= 2 epsilon (p - 1).  Converse: if
sup_n |v_n - c| <= epsilon (for Jacobi also sup_n |a_n - c'| <= epsilon
together with the combined bound sup|v_n - c| + 2 sup|a_n - c'| <=
2 epsilon, which is what actually controls the total perturbation) then
the 2 epsilon-pseudospectrum is connected.  The general Laurent family
only carries the forward direction, and only under an ascending
potential; no converse certificate exists for it.

`best_constant` uses the Chebyshev center (midpoint of min and max),
which minimizes the sup deviation; any other constant only makes the
forward inequality easier to satisfy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .eig import hermitian_eigenvalues
from .errors import HypothesisViolationError, InvalidParameterError
from .spectra import (
    DEFAULT_GRID,
    RealSpectrum,
    band_table,
    gap_report,
    pseudospectrum_intervals,
)
from .symbols import OperatorKind, OperatorSpec, interlacing_submatrix, lipschitz_bound

CHECK_TOL = 1e-8  # slack granted to the forward margin before flagging
TRACE_TOL = 1e-12


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

    For forward checks `margin = bound - deviation` and `satisfied` is
    vacuously true when the pseudospectrum is not connected.  For
    converse checks `margin = 2 epsilon - epsilon_star` (the connecting
    slack) and `satisfied` is vacuously true when the deviation
    hypothesis fails; `hypothesis_met` records which case occurred.
    """

    theorem: TheoremId
    epsilon: float
    best_c: float
    deviation: float
    bound: float
    satisfied: bool
    margin: float
    hypothesis_met: bool
    connected: bool
    epsilon_star: float
    a_deviation: float | None = None


@dataclass(frozen=True)
class InterlacingReport:
    """Worst interlacing violation of J_k against f_k over a theta grid."""

    ok: bool
    worst_violation: float


@dataclass(frozen=True)
class TraceGap:
    """|Tr J_{k1} - Tr J_{k2}| plus the 2 epsilon (p-1) comparison."""

    difference: float
    span: int  # p - 1

    def bound_ok(self, epsilon: float) -> bool:
        return self.difference <= 2.0 * float(epsilon) * self.span + TRACE_TOL


def best_constant(v: Sequence[float]) -> tuple[float, float]:
    """Chebyshev center of the potential values and the sup deviation."""
    values = [float(x) for x in v]
    if not values:
        raise InvalidParameterError("best_constant needs at least one value")
    if not all(math.isfinite(x) for x in values):
        raise InvalidParameterError("potential values must be finite")
    lo, hi = min(values), max(values)
    return (lo + hi) / 2.0, (hi - lo) / 2.0


def check_epsilon(spec: OperatorSpec, epsilon: float) -> float:
    """epsilon as a float, refused unless it is finite, > 0 and small enough
    that no width built from it overflows.  The widest are the forward bound
    2 epsilon (p - 1), the converse radius 2 epsilon and the spectrum's hull
    fattened by 2 epsilon, all below 4 (p epsilon + max(1, ||f||) + L): the
    rule `OperatorSpec` applies to its own entries, extended by epsilon."""
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon <= 0.0:
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
    deviation = best_constant(spec.v)[1]
    if spec.kind is not OperatorKind.JACOBI:
        return deviation
    a_dev = best_constant(spec.a)[1]
    return max(deviation, a_dev, (deviation + 2.0 * a_dev) / 2.0)


def forward_from_spectrum(
    spec: OperatorSpec, spectrum: RealSpectrum, epsilon: float
) -> BorgReport:
    """Connected epsilon-pseudospectrum => deviation <= 2 epsilon (p-1),
    checked against `spectrum`, the computed spectrum of `spec`."""
    epsilon = check_epsilon(spec, epsilon)
    base = gap_report(spectrum)
    fattened = gap_report(pseudospectrum_intervals(spectrum, epsilon))
    connected = fattened.connected
    c, deviation = best_constant(spec.v)
    bound = 2.0 * epsilon * (spec.period - 1)
    margin = bound - deviation
    satisfied = margin >= -CHECK_TOL if connected else True
    a_dev = best_constant(spec.a)[1] if spec.kind is OperatorKind.JACOBI else None
    return BorgReport(
        theorem=_FORWARD_THEOREM[spec.kind],
        epsilon=epsilon,
        best_c=c,
        deviation=deviation,
        bound=bound,
        satisfied=satisfied,
        margin=margin,
        hypothesis_met=connected,
        connected=connected,
        epsilon_star=base.epsilon_star,
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
    c, deviation = best_constant(spec.v)
    a_dev = best_constant(spec.a)[1] if spec.kind is OperatorKind.JACOBI else None
    hypothesis_met = converse_threshold(spec) <= epsilon
    base = gap_report(spectrum)
    fattened = gap_report(pseudospectrum_intervals(spectrum, 2.0 * epsilon))
    connected = fattened.connected
    margin = 2.0 * epsilon - base.epsilon_star
    satisfied = connected if hypothesis_met else True
    return BorgReport(
        theorem=_CONVERSE_THEOREM[spec.kind],
        epsilon=epsilon,
        best_c=c,
        deviation=deviation,
        bound=2.0 * epsilon,
        satisfied=satisfied,
        margin=margin,
        hypothesis_met=hypothesis_met,
        connected=connected,
        epsilon_star=base.epsilon_star,
        a_deviation=a_dev,
    )


def interlacing_report(
    spec: OperatorSpec, shift: int = 0, grid_size: int = DEFAULT_GRID
) -> InterlacingReport:
    """Check mu_j of J_k interlaces lambda_j of f_k(theta) on the whole grid.

    Ascending convention: lambda_1 <= mu_1 <= lambda_2 <= ... <= lambda_p.
    The shift k picks J_k only: f_k(theta) and f_0(theta) are unitarily
    equivalent, so the band table is that of f_0.
    """
    sub = interlacing_submatrix(spec, shift)  # refuses period 1 before any solve
    mus = hermitian_eigenvalues(sub).values
    lams = band_table(spec, grid_size).bands.T  # (N // 2 + 1, p)
    low = float(np.max(lams[:, :-1] - mus[None, :]))
    high = float(np.max(mus[None, :] - lams[:, 1:]))
    worst = max(0.0, low, high)
    return InterlacingReport(ok=worst <= 1e-9, worst_violation=worst)


def trace_gap(spec: OperatorSpec, k1: int, k2: int) -> TraceGap:
    """Trace difference of two interlacing submatrices.

    Telescoping leaves |Tr J_{k1} - Tr J_{k2}| equal to a difference of
    two potential entries' partial sums, so it is always <= 2 eps (p-1)
    whenever the potential deviates from a constant by at most eps.
    """
    if spec.period < 2:
        raise InvalidParameterError("trace gap needs period >= 2")
    t1 = float(np.trace(interlacing_submatrix(spec, k1)))
    t2 = float(np.trace(interlacing_submatrix(spec, k2)))
    return TraceGap(difference=abs(t1 - t2), span=spec.period - 1)
