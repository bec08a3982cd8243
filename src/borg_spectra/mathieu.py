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
    Connectivity,
    RealSpectrum,
    _check_radius,
    check_bytes,
    compute_spectrum,
    connectivity,
    hausdorff_distance,
    spectrum_grid,
)
from .symbols import OperatorKind, OperatorSpec, _integer, _real

TWO_PI = 2.0 * math.pi

DENOMINATOR_LIMIT = 1 << 26  # past this, float alpha cannot back its convergents
# peak bytes per site b of one approximant report, its spectrum aside: 432
# by tracemalloc (the potential, and five float64 arrays over the 10 b-site
# window), at b = 1e4 and 1e5; the budget adds 12%
_APPROXIMANT_SITE_BYTES = 480


@dataclass(frozen=True)
class Convergent:
    """Reduced rational a/b from a continued-fraction expansion."""

    a: int
    b: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _integer(self.a, "numerator", None))
        object.__setattr__(self, "b", _integer(self.b, "denominator", 1))
        if math.gcd(abs(self.a), self.b) != 1:
            raise InvalidParameterError(f"{self.a}/{self.b} is not reduced")


@dataclass(frozen=True)
class ApproximantReport:
    """One convergent's periodic approximant, its spectrum and gap data."""

    convergent: Convergent
    spec: OperatorSpec  # the approximant's potential; its period is spec.period
    spectrum: RealSpectrum
    gap_count: int  # positive padded gaps: certified open
    unresolved_gaps: int  # adjacent band pairs whose padded ranges overlap
    epsilon_star: float
    potential_distance: float  # sup over the window vs the irrational target
    potential_distance_bound: float  # 2 pi |alpha - a/b| * window * coupling
    pseudo_connected: dict[float, Connectivity]


@dataclass(frozen=True)
class SweepResult:
    alpha: float
    coupling: float
    truncated: bool
    hausdorff_next: tuple[float, ...]  # consecutive spectra
    potential_sup_next: tuple[float, ...]  # consecutive potentials, sup norm
    reports: tuple[ApproximantReport, ...]


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


def convergents(alpha: float, count: int) -> tuple[Convergent, ...]:
    """First `count` continued-fraction convergents of alpha.

    The zeroth convergent floor(alpha)/1 is skipped when it is 0/1 (alpha
    in (0,1)), since it approximates nothing.  The partial quotients are
    exact: Euclid's algorithm on the integer ratio that the float alpha
    equals.  Fewer than `count` come back when that expansion ends or the
    denominators outgrow what float precision can support.
    """
    alpha = _real(alpha, "alpha")
    count = _integer(count, "count", 1)

    items: list[Convergent] = []
    num, den = alpha.as_integer_ratio()
    a0, rem = divmod(num, den)  # floor(alpha), and alpha - a0 = rem / den
    h_prev, k_prev = 1, 0
    h, k = a0, 1
    if a0 != 0:
        items.append(Convergent(a0, 1))
    while len(items) < count and rem:
        q, nxt = divmod(den, rem)  # the next quotient of den / rem
        den, rem = rem, nxt
        h, h_prev = q * h + h_prev, h
        k, k_prev = q * k + k_prev, k
        if k > DENOMINATOR_LIMIT:
            break
        items.append(Convergent(h, k))
    return tuple(items)


def mathieu_potential(conv: Convergent, coupling: float = 1.0) -> OperatorSpec:
    """Periodic Schrodinger spec with v_j = coupling * cos(2 pi j a/b).

    The period is b, or 1 at zero coupling (see the module docstring).  The
    cosine argument is reduced modulo b in exact integer arithmetic, so the
    sequence is exactly periodic in floating point as well.
    """
    coupling = _real(coupling, "coupling")
    period = _period(conv, coupling)
    v = tuple(
        coupling * math.cos(TWO_PI * ((j * conv.a) % conv.b) / conv.b)
        for j in range(1, period + 1)
    )
    return OperatorSpec(kind=OperatorKind.SCHRODINGER, period=period, v=v)


def _period(conv: Convergent, coupling: float) -> int:
    """The minimal period b, or 1 at zero coupling (module docstring)."""
    return conv.b if coupling != 0.0 else 1


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
) -> ApproximantReport:
    spec = mathieu_potential(conv, coupling)
    spectrum = compute_spectrum(spec)
    window = 10 * conv.b
    j = np.arange(1, window + 1)
    target = coupling * np.cos(TWO_PI * alpha * j)
    approx = np.asarray(spec.v)[(j - 1) % spec.period]
    distance = float(np.max(np.abs(target - approx)))
    bound = abs(coupling) * TWO_PI * abs(alpha - conv.a / conv.b) * window
    connected = {eps: connectivity(spectrum, eps) for eps in epsilons}
    return ApproximantReport(
        convergent=conv,
        spec=spec,
        spectrum=spectrum,
        gap_count=len(spectrum.gaps),
        unresolved_gaps=spec.period - 1 - len(spectrum.gaps),
        epsilon_star=spectrum.epsilon_star,
        potential_distance=distance,
        potential_distance_bound=bound,
        pseudo_connected=connected,
    )


def approximant_sweep(
    alpha: float,
    count: int,
    epsilons: Sequence[float] = (),
    coupling: float = 1.0,
) -> SweepResult:
    """Check every argument, radii as `connectivity` does, then compare the approximants."""
    count = _integer(count, "sweep count", 2)
    alpha = _real(alpha, "alpha")
    coupling = _real(coupling, "coupling")
    try:
        epsilons = tuple(_check_radius(eps) for eps in epsilons)
    except TypeError:  # not iterable: `_check_radius` raises only its own error
        raise InvalidParameterError(
            f"epsilons must be a list of radii, got {type(epsilons).__name__}") from None
    convs = convergents(alpha, count)
    if not convs:
        raise InvalidParameterError(f"no convergents available for alpha = {alpha!r}")
    # denominators never decrease, so the largest approximant's own cost and
    # the band table `compute_spectrum` solves for it bound every report's:
    # refused before any potential
    largest = convs[-1]
    check_bytes(largest.b * _APPROXIMANT_SITE_BYTES, f"approximant {largest.a}/{largest.b}")
    spectrum_grid(OperatorKind.SCHRODINGER, _period(largest, coupling))
    reports = tuple(_approximant_report(conv, alpha, coupling, epsilons) for conv in convs)
    pairs = list(zip(reports, reports[1:]))
    return SweepResult(
        alpha=alpha,
        coupling=coupling,
        truncated=len(convs) < count,
        hausdorff_next=tuple(hausdorff_distance(r1.spectrum, r2.spectrum) for r1, r2 in pairs),
        potential_sup_next=tuple(_potential_sup_distance(r1.spec, r2.spec) for r1, r2 in pairs),
        reports=reports,
    )


def tenmartini_premise(
    specs: Sequence[OperatorSpec],
    epsilon: float,
    period_cap: int | None = None,
) -> PremiseReport:
    """Check a bounded-period family against the forced deviation bound.

    The limit deviation is taken as the deviation of the last (finest)
    family member's potential.  An epsilon and period cap whose bound
    2 epsilon (period_cap - 1) overflows are refused.  The comparison
    deviation <= bound is exact: each side is one rounding from its exact
    value ((max v - min v) / 2 and (2 epsilon) (period_cap - 1), halving
    and doubling being exact), so no slack is added.
    """
    if not specs:
        raise InvalidParameterError("premise check needs at least one spec")
    epsilon = _real(epsilon, "epsilon")
    if epsilon <= 0.0:
        raise InvalidParameterError(f"epsilon must be > 0, got {epsilon!r}")
    periods = [s.period for s in specs]
    cap = max(periods) if period_cap is None else period_cap
    cap = _integer(cap, "period cap", 1)
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
    compatible = limit_deviation <= bound
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
