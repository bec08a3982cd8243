"""Band structure, real spectra, pseudospectra, gaps, and set distances.

The spectrum of a periodic self-adjoint operator is the union over theta
of the symbol's eigenvalues: p band functions, each Lipschitz in theta.
A band table samples them on the points in [0, pi] of the uniform grid
theta_i = -pi + 2 pi i / N and pads each band's sampled range by delta,
chosen by one rule:

* Schrodinger and Jacobi families, even N.  det(lambda - f(theta)) =
  D(lambda) - 2 (a_1 ... a_p) cos theta, so every band function is monotone
  in cos theta and takes its extrema at theta = 0 and theta = pi (Teschl,
  *Jacobi Operators and Completely Integrable Nonlinear Lattices*, ch. 7).
  An even grid contains both points, so the sampled extrema are the exact
  band edges and delta only covers the eigensolver:
  delta = BACKWARD_ERROR_TOL * max(1, max|v| + 2 max a), the second term
  the infinity-norm bound `OperatorSpec.norm_bound` on ||f(theta)||.
  `compute_spectrum` therefore solves these families on the two-point
  grid {0, pi} alone.
* Odd N, and the Laurent family at any N (its band extrema need not sit
  at 0 or pi): delta = L * pi / N + BACKWARD_ERROR_TOL * max(1, ||f||),
  L the Lipschitz bound and pi / N the worst distance to a grid point;
  the second term covers the eigensolver, so delta > 0 even when L = 0.

Fourier coefficients are real, so f(-theta) = conj f(theta) and every band
function is even in theta.  The grid's points in [0, pi] (N // 2 + 1 of
them) are a pi / N-net of [0, pi], so they carry every sample of the whole
grid: `theta_grid` returns only those, `band_table` solves them, and
`compute_spectrum` is the padded range of that table.

Either way the padded ranges are certified *supersets* of the true bands.
Consequences used throughout:

* reported intervals contain the true spectrum; reported gaps sit inside
  true gaps, so a reported gap that clears the significance threshold
  certifies a real one;
* sampled (unpadded) band extrema sit inside the true bands, so the
  unpadded gap width bounds the true gap width from above.  The reported
  `epsilon_star` is half that upper bound (padded width / 2 + delta):
  the smallest epsilon at which connectivity of the true epsilon-fattened
  spectrum is certified, not merely suggested by the samples.

Pseudospectra of self-adjoint operators are exact epsilon-fattenings of
the spectrum, so connectivity questions reduce to interval bookkeeping on
the real line (each fattened component is a stadium in the plane, and a
union of stadiums centered on the reals is connected iff its real trace
is an interval).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .eig import BACKWARD_ERROR_TOL, eigvalsh_stack
from .errors import InvalidParameterError
from .symbols import OperatorKind, OperatorSpec, lipschitz_bound, symbol_stack

MERGE_TOL = 1e-12  # intervals closer than this are considered touching
DEFAULT_GRID = 1024
# Largest working set, in bytes, that one band table or finite section may
# allocate; requests over it fail before anything is allocated.
BYTE_BUDGET = 2 << 30


@dataclass(frozen=True)
class BandTable:
    """Sampled band functions on the [0, pi] half of an N-point grid: grid
    (N // 2 + 1,) and bands (p, N // 2 + 1), ascending in j, plus the
    padding of the N-point grid that makes their ranges certified
    enclosures.  Bands are even in theta, so the half holds every value."""

    grid: np.ndarray
    bands: np.ndarray
    resolution_error: float


@dataclass(frozen=True)
class RealSpectrum:
    """Disjoint closed intervals, sorted, plus the endpoint error bound."""

    intervals: tuple[tuple[float, float], ...]
    resolution_error: float


@dataclass(frozen=True)
class GapReport:
    """Significant spectral gaps of a RealSpectrum.

    `gaps` holds (left_hi, right_lo, width) triples for every gap wider
    than the significance threshold 2*resolution_error + 4*eig_tol;
    `epsilon_star` is the smallest fattening radius at which the true
    spectrum is certified connected (0 when no significant gap remains).
    """

    connected: bool
    gaps: tuple[tuple[float, float, float], ...]
    epsilon_star: float


def _check_grid_size(grid_size: int) -> None:
    if not isinstance(grid_size, int) or isinstance(grid_size, bool) or grid_size < 2:
        raise InvalidParameterError(f"grid size must be an integer >= 2, got {grid_size!r}")


def theta_grid(grid_size: int) -> np.ndarray:
    """The N // 2 + 1 points in [0, pi] of the uniform grid
    theta_i = -pi + 2 pi i / N, i = 1..N, on (-pi, pi].

    Even N starts them at theta = 0; every N ends them at pi.  Both points
    are set exactly, since the scaled sum can miss them by an ulp.
    """
    _check_grid_size(grid_size)
    i = np.arange((grid_size + 1) // 2, grid_size + 1)  # the i with theta_i >= 0
    grid = -math.pi + (2.0 * math.pi / grid_size) * i
    grid[-1] = math.pi
    if grid_size % 2 == 0:
        grid[0] = 0.0
    return grid


def _band_padding(spec: OperatorSpec, grid_size: int) -> float:
    """Endpoint padding delta of an N-point band table (module docstring)."""
    eigensolver = BACKWARD_ERROR_TOL * max(1.0, spec.norm_bound())
    if spec.kind is not OperatorKind.LAURENT_GENERAL and grid_size % 2 == 0:
        return eigensolver
    return lipschitz_bound(spec) * math.pi / grid_size + eigensolver


def _check_budget(period: int, points: int) -> None:
    """Refuse a `points`-point band table at `period` over BYTE_BUDGET."""
    # a table holds only its N // 2 + 1 points in [0, pi], so this is six
    # of its complex (N // 2 + 1, p, p) symbol stacks.  The stack is its one
    # full-size array: assembly and the Hermiticity check add (N // 2 + 1,)
    # vectors and blocks, and the solve copies one p x p matrix at a time.
    # Measured peaks (tracemalloc, the table included, N = 4096 to 2^18):
    # 1.05 stacks at p = 24, 1.3 at p = 5, 1.7 at p = 2, and 3.1 at p = 1,
    # where the vectors dominate
    needed = 3 * points * period**2 * 16
    if needed > BYTE_BUDGET:
        raise InvalidParameterError(
            f"a {points}-point band table at period {period} needs about "
            f"{needed / 2**30:.1f} GiB, over the {BYTE_BUDGET / 2**30:g} GiB budget"
        )


def band_table(spec: OperatorSpec, grid_size: int = DEFAULT_GRID) -> BandTable:
    """Sample all p band functions on the N // 2 + 1 grid points in [0, pi].

    The byte budget is checked before the grid or the symbol stack is
    allocated.
    """
    _check_grid_size(grid_size)
    _check_budget(spec.period, grid_size)
    grid = theta_grid(grid_size)
    bands = eigvalsh_stack(symbol_stack(spec, 0, grid)).T
    return BandTable(grid=grid, bands=bands, resolution_error=_band_padding(spec, grid_size))


def merge_intervals(intervals: Sequence[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Union of closed intervals; pieces within MERGE_TOL of touching are fused."""
    pairs = sorted((float(lo), float(hi)) for lo, hi in intervals)
    for lo, hi in pairs:
        if hi < lo:
            raise InvalidParameterError(f"interval [{lo}, {hi}] is reversed")
    merged: list[list[float]] = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1] + MERGE_TOL:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def spectrum_intervals(table: BandTable) -> RealSpectrum:
    """Certified superset of the spectrum: padded band ranges, merged."""
    delta = table.resolution_error
    raw = [
        (float(band.min()) - delta, float(band.max()) + delta)
        for band in table.bands
    ]
    return RealSpectrum(intervals=merge_intervals(raw), resolution_error=delta)


def pseudospectrum_intervals(spectrum: RealSpectrum, epsilon: float) -> RealSpectrum:
    """Fatten every interval by epsilon and re-merge (exact for self-adjoint)."""
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon < 0.0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon!r}")
    fat = [(lo - epsilon, hi + epsilon) for lo, hi in spectrum.intervals]
    if not all(math.isfinite(x) for pair in fat for x in pair):
        raise InvalidParameterError(f"fattening by epsilon = {epsilon!r} overflows the endpoints")
    return RealSpectrum(
        intervals=merge_intervals(fat), resolution_error=spectrum.resolution_error
    )


def gap_report(spectrum: RealSpectrum) -> GapReport:
    """Significant gaps, connectivity verdict, and the certified epsilon_star."""
    if not spectrum.intervals:
        raise InvalidParameterError("gap report needs a nonempty spectrum")
    # the width at which a sampled gap certifies a true gap
    threshold = 2.0 * spectrum.resolution_error + 4.0 * BACKWARD_ERROR_TOL
    gaps: list[tuple[float, float, float]] = []
    for (_, hi), (lo, _) in zip(spectrum.intervals, spectrum.intervals[1:]):
        width = lo - hi
        if width > threshold:
            gaps.append((hi, lo, width))
    if gaps:
        # padded width underestimates the true gap by up to 2*delta; the
        # unpadded (sampled) width overestimates it, hence certifies closure
        epsilon_star = max(w for _, _, w in gaps) / 2.0 + spectrum.resolution_error
    else:
        epsilon_star = 0.0
    return GapReport(connected=not gaps, gaps=tuple(gaps), epsilon_star=epsilon_star)


def compute_spectrum(spec: OperatorSpec, grid_size: int = DEFAULT_GRID) -> RealSpectrum:
    """Certified enclosure of the spectrum: the padded band ranges, merged.

    Schrodinger and Jacobi bands are exact on {0, pi}, the 2-point grid, so
    only Laurent specs are sampled on `grid_size` points.
    """
    _check_grid_size(grid_size)
    if spec.kind is not OperatorKind.LAURENT_GENERAL:
        grid_size = 2
    return spectrum_intervals(band_table(spec, grid_size))


# -- distances on finite unions of closed intervals -------------------------


def points_distance(xs: np.ndarray, spectrum: RealSpectrum) -> np.ndarray:
    """Vectorized distance from points to the interval union (exact)."""
    if not spectrum.intervals:
        raise InvalidParameterError("distance to an empty spectrum is undefined")
    flat = np.asarray(spectrum.intervals, dtype=float).ravel()  # lo1,hi1,lo2,...
    xs = np.asarray(xs, dtype=float)
    pos = np.searchsorted(flat, xs)
    dist = np.zeros_like(xs)
    outside = pos % 2 == 0  # between intervals (or beyond the hull)
    left = np.where(pos > 0, np.abs(xs - flat[np.maximum(pos - 1, 0)]), np.inf)
    right = np.where(pos < len(flat), np.abs(flat[np.minimum(pos, len(flat) - 1)] - xs), np.inf)
    dist[outside] = np.minimum(left, right)[outside]
    return dist


def _directed_hausdorff(a: RealSpectrum, b: RealSpectrum) -> float:
    # the distance function to b is piecewise linear with local maxima at
    # midpoints of b's gaps; on each interval of a the sup is attained at
    # an endpoint or at such a midpoint, so finitely many candidates suffice.
    # a's intervals are sorted and disjoint, so a midpoint lies in a iff it
    # lies in the last interval of a starting at or before it
    ends_a = np.asarray(a.intervals, dtype=float)
    ends_b = np.asarray(b.intervals, dtype=float)
    mids = 0.5 * (ends_b[:-1, 1] + ends_b[1:, 0])
    k = np.searchsorted(ends_a[:, 0], mids, "right") - 1
    inside = (k >= 0) & (mids <= ends_a[np.maximum(k, 0), 1])
    candidates = np.concatenate([ends_a.ravel(), mids[inside]])
    return float(np.max(points_distance(candidates, b)))


def hausdorff_distance(s1: RealSpectrum, s2: RealSpectrum) -> float:
    """Exact Hausdorff distance between two finite unions of closed intervals."""
    if not s1.intervals or not s2.intervals:
        raise InvalidParameterError("Hausdorff distance needs nonempty spectra")
    return max(_directed_hausdorff(s1, s2), _directed_hausdorff(s2, s1))


def spectrum_from_points(points: Sequence[float]) -> RealSpectrum:
    """Finite point sets as degenerate interval unions (for set distances)."""
    pts = sorted(float(x) for x in points)
    if not pts:
        raise InvalidParameterError("need at least one point")
    return RealSpectrum(
        intervals=merge_intervals([(x, x) for x in pts]),
        resolution_error=0.0,
    )
