"""Rational approximation pipeline for cosine quasi-periodic potentials.

v_j = coupling * cos(2 pi j alpha) with irrational alpha is approximated
by the periodic potentials obtained from continued-fraction convergents
a/b of alpha.  Each approximant is a genuine periodic Schrodinger
operator, so its band edges are exact from the two Floquet points
theta in {0, pi}: two p x p solves per approximant.  The sweep tracks how
the approximant spectra move (Hausdorff distance) against the sup-norm
distance of the potentials, which dominates it by a Weyl bound.

Both number-theoretic steps are closed forms, not searches.  Period: for
reduced a/b and coupling c != 0, c cos(2 pi j a/b) has minimal period b,
not the b + 1 that counting the repeat index suggests.  A shift 0 < P < b
would need, at every j, b | Pa, so b | P, or b | (2j + P)a, so
2j + P = 0 (mod b), which fails at j or j + 1 once b > 2 (and b <= 2
leaves no such P); at c = 0 the period is 1.  Distance: the sites j meet
exactly the residue pairs (j mod b1, j mod b2) that agree mod
g = gcd(b1, b2) (Chinese remainder theorem; g = 1 for consecutive
convergents), so sup_j |v1_j - v2_j| is the largest
max(max v1 - min v2, max v2 - min v1) over the classes mod g.  Rounded
subtraction is monotone, so this equals the maximum over an lcm(b1, b2)
window bit for bit (zero as +0.0), in O(b1 + b2) work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .borg import best_constant
from .errors import InvalidParameterError
from .spectra import (
    RealSpectrum,
    _check_budget,
    compute_spectrum,
    gap_report,
    pseudospectrum_intervals,
    hausdorff_distance,
)
from .symbols import TWO_PI, OperatorKind, OperatorSpec

DENOMINATOR_LIMIT = 1 << 26  # past this, float alpha cannot back its convergents


@dataclass(frozen=True)
class Convergent:
    """Reduced rational a/b from a continued-fraction expansion."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.b < 1:
            raise InvalidParameterError(f"denominator must be >= 1, got {self.b}")
        if math.gcd(abs(self.a), self.b) != 1:
            raise InvalidParameterError(f"{self.a}/{self.b} is not reduced")

    @property
    def value(self) -> float:
        return self.a / self.b


@dataclass(frozen=True)
class ConvergentRun:
    """Convergent list plus a flag set when precision cut the list short."""

    convergents: tuple[Convergent, ...]
    truncated: bool


@dataclass(frozen=True)
class ApproximantReport:
    """One convergent's periodic approximant, its spectrum and gap data."""

    convergent: Convergent
    period: int
    spectrum: RealSpectrum
    gap_count: int
    epsilon_star: float
    potential_distance: float  # sup over the window vs the irrational target
    potential_distance_bound: float  # 2 pi |alpha - a/b| * window * coupling
    pseudo_connected: dict[float, bool]


@dataclass(frozen=True)
class SweepResult:
    alpha: float
    coupling: float
    reports: tuple[ApproximantReport, ...]
    hausdorff_next: tuple[float, ...]  # consecutive spectra
    potential_sup_next: tuple[float, ...]  # consecutive potentials, sup norm
    truncated: bool


@dataclass(frozen=True)
class PremiseReport:
    """Bounded-period family vs. connected pseudospectrum compatibility.

    If a family with all periods <= period_cap has a connected
    epsilon-pseudospectrum limit, the limit potential must deviate from
    some constant by at most 2 epsilon (period_cap - 1).  A deviation
    above the bound is incompatible; epsilon below
    deviation / (2 (period_cap - 1)) forces unbounded periods.
    """

    period_cap: int
    periods_bounded: bool
    epsilon: float
    bound: float
    limit_deviation: float
    compatible: bool
    incompatibility_threshold: float


def convergents(alpha: float, count: int) -> ConvergentRun:
    """First `count` continued-fraction convergents of alpha.

    The zeroth convergent floor(alpha)/1 is skipped when it is 0/1 (alpha
    in (0,1)), since it approximates nothing.  The list stops early, with
    `truncated` set, when the remainder hits exact zero, its reciprocal
    overflows, or the denominators outgrow what float precision can support.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise InvalidParameterError(f"alpha must be finite, got {alpha!r}")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise InvalidParameterError(f"count must be an integer >= 1, got {count!r}")

    items: list[Convergent] = []
    a0 = math.floor(alpha)
    h_prev, k_prev = 1, 0
    h, k = a0, 1
    if a0 != 0:
        items.append(Convergent(a0, 1))
    frac = alpha - a0
    truncated = False
    while len(items) < count:
        if frac <= 0.0:
            truncated = True
            break
        inv = 1.0 / frac
        if math.isinf(inv):  # frac below about 5.6e-309
            truncated = True
            break
        q = math.floor(inv)
        frac = inv - q
        h, h_prev = q * h + h_prev, h
        k, k_prev = q * k + k_prev, k
        if k > DENOMINATOR_LIMIT:
            truncated = True
            break
        items.append(Convergent(h, k))
    return ConvergentRun(convergents=tuple(items), truncated=truncated)


def mathieu_potential(conv: Convergent, coupling: float = 1.0) -> OperatorSpec:
    """Periodic Schrodinger spec with v_j = coupling * cos(2 pi j a/b).

    The period is b, or 1 at zero coupling (see the module docstring).  The
    cosine argument is reduced modulo b in exact integer arithmetic, so the
    sequence is exactly periodic in floating point as well.
    """
    coupling = float(coupling)
    if not math.isfinite(coupling):
        raise InvalidParameterError(f"coupling must be finite, got {coupling!r}")
    period = conv.b if coupling != 0.0 else 1
    v = tuple(
        coupling * math.cos(TWO_PI * ((j * conv.a) % conv.b) / conv.b)
        for j in range(1, period + 1)
    )
    return OperatorSpec(kind=OperatorKind.SCHRODINGER, period=period, v=v)


def _potential_sup_distance(spec1: OperatorSpec, spec2: OperatorSpec) -> float:
    """Exact sup_j |v1_j - v2_j| over all sites, from each residue class's
    extreme values (see the module docstring)."""
    g = math.gcd(spec1.period, spec2.period)
    v1 = np.asarray(spec1.v).reshape(-1, g)
    v2 = np.asarray(spec2.v).reshape(-1, g)
    sup = np.max(np.maximum(v1.max(0) - v2.min(0), v2.max(0) - v1.min(0)))
    return abs(float(sup))  # a zero distance is +0.0, as |v1_j - v2_j| is


def _approximant_report(
    conv: Convergent,
    alpha: float,
    coupling: float,
    epsilons: Sequence[float],
) -> tuple[ApproximantReport, OperatorSpec]:
    spec = mathieu_potential(conv, coupling)
    spectrum = compute_spectrum(spec)
    gaps = gap_report(spectrum)
    window = 10 * conv.b
    j = np.arange(1, window + 1)
    target = coupling * np.cos(TWO_PI * alpha * j)
    approx = np.asarray(spec.v)[(j - 1) % spec.period]
    distance = float(np.max(np.abs(target - approx)))
    bound = abs(coupling) * TWO_PI * abs(alpha - conv.value) * window
    connected = {
        float(eps): gap_report(pseudospectrum_intervals(spectrum, float(eps))).connected
        for eps in epsilons
    }
    report = ApproximantReport(
        convergent=conv,
        period=spec.period,
        spectrum=spectrum,
        gap_count=len(gaps.gaps),
        epsilon_star=gaps.epsilon_star,
        potential_distance=distance,
        potential_distance_bound=bound,
        pseudo_connected=connected,
    )
    return report, spec


def approximant_sweep(
    alpha: float,
    count: int,
    epsilons: Sequence[float] = (),
    coupling: float = 1.0,
) -> SweepResult:
    """Run the whole convergent family and compare consecutive spectra."""
    if not isinstance(count, int) or isinstance(count, bool) or count < 2:
        raise InvalidParameterError(f"sweep count must be an integer >= 2, got {count!r}")
    run = convergents(alpha, count)
    if not run.convergents:
        raise InvalidParameterError(f"no convergents available for alpha = {alpha!r}")
    # each spectrum solves the two Floquet points; refuse before the first solve
    _check_budget(max(conv.b for conv in run.convergents), 2)
    pairs = [
        _approximant_report(conv, alpha, coupling, epsilons) for conv in run.convergents
    ]
    reports = tuple(rep for rep, _ in pairs)
    specs = [spec for _, spec in pairs]
    hausdorff = tuple(
        hausdorff_distance(r1.spectrum, r2.spectrum)
        for r1, r2 in zip(reports, reports[1:])
    )
    sup = tuple(
        _potential_sup_distance(s1, s2) for s1, s2 in zip(specs, specs[1:])
    )
    return SweepResult(
        alpha=float(alpha),
        coupling=float(coupling),
        reports=reports,
        hausdorff_next=hausdorff,
        potential_sup_next=sup,
        truncated=run.truncated,
    )


def tenmartini_premise(
    specs: Sequence[OperatorSpec],
    epsilon: float,
    period_cap: int | None = None,
) -> PremiseReport:
    """Check a bounded-period family against the forced deviation bound.

    The limit deviation is taken as the deviation of the last (finest)
    family member's potential.  An epsilon and period cap whose bound
    2 epsilon (period_cap - 1) overflows are refused.
    """
    if not specs:
        raise InvalidParameterError("premise check needs at least one spec")
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise InvalidParameterError(f"epsilon must be > 0, got {epsilon!r}")
    periods = [s.period for s in specs]
    cap = max(periods) if period_cap is None else period_cap
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise InvalidParameterError(f"period cap must be an integer >= 1, got {cap!r}")
    bounded = max(periods) <= cap
    limit_deviation = best_constant(specs[-1].v)[1]
    try:
        bound = 2.0 * epsilon * (cap - 1)
    except OverflowError:  # a period cap beyond the float range
        bound = math.inf
    if not math.isfinite(bound):
        raise InvalidParameterError(
            f"epsilon = {epsilon!r} too large: the bound 2 epsilon (period cap - 1) overflows"
        )
    compatible = limit_deviation <= bound + 1e-12
    if cap > 1:
        threshold = limit_deviation / (2.0 * (cap - 1))
    else:
        threshold = math.inf if limit_deviation > 0.0 else 0.0
    return PremiseReport(
        period_cap=cap,
        periods_bounded=bounded,
        epsilon=epsilon,
        bound=bound,
        limit_deviation=limit_deviation,
        compatible=compatible,
        incompatibility_threshold=threshold,
    )
