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
  band edges and delta is the eigensolver term alone:
  delta = solver = BACKWARD_ERROR_TOL * max(1, max|v| + 2 max a), the
  second term the infinity-norm bound `OperatorSpec.norm_bound` on
  ||f(theta)||.
  `compute_spectrum` therefore solves these families on the two-point
  grid {0, pi} alone: `spectrum_grid` is the one place that picks it.
* Odd N, and the Laurent family at any N (its band extrema need not sit
  at 0 or pi): delta = L * pi / N + solver, L the Lipschitz bound and
  pi / N the worst distance to a grid point; solver > 0, so delta > 0
  even when L = 0.

Fourier coefficients are real, so f(-theta) = conj f(theta) and every band
function is even in theta.  The grid's points in [0, pi] (N // 2 + 1 of
them) are a pi / N-net of [0, pi], so they carry every sample of the whole
grid: `theta_grid` returns only those, `band_table` solves them, and the
table's `spectrum` (what `compute_spectrum` returns) is their padded range.

Either way the padded ranges are certified *supersets* of the true bands,
and every slack below comes from two named terms: delta
(`resolution_error`, the whole padding) and `solver`, its eigensolver
part.  Consequences:

* every gap between the merged padded intervals is a true gap, and the
  enclosure's `gaps`, built at most once, lists them all;
* a computed extremum lies within `solver` of a true band value, so the
  true bands reach within delta + solver of every padded endpoint: a true
  gap is at most its padded gap plus 2 (delta + solver), or 2 (delta +
  solver) where padded ranges overlap.  With W the widest padded gap (0
  when there is none), the true epsilon-pseudospectrum is therefore
  connected once epsilon >= epsilon_star = W / 2 + delta + solver, and
  disconnected when W > 2 epsilon; between the two, `connectivity`
  answers `undecided`.

Every `RealSpectrum` is valid by construction (sorted, disjoint, finite,
nonempty, 0 <= solver <= delta): its builders hand the constructor raw
pairs, and its readers check none of that again.

Pseudospectra of self-adjoint operators are exact epsilon-fattenings of
the spectrum, so connectivity questions reduce to interval bookkeeping on
the real line (each fattened component is a stadium in the plane, and a
union of stadiums centered on the reals is connected iff its real trace
is an interval).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .eig import BACKWARD_ERROR_TOL, eigvalsh_stack
from .errors import InvalidParameterError
from .symbols import OperatorKind, OperatorSpec, _integer, _real, lipschitz_bound, symbol_stack

DEFAULT_GRID = 1024
# Largest working set, in bytes, that one request may allocate; `check_bytes`
# refuses larger ones before anything is allocated.
BYTE_BUDGET = 2 << 30


@dataclass(frozen=True)
class RealSpectrum:
    """Disjoint closed intervals, sorted, plus the endpoint error bound delta and
    its eigensolver part, made so from pairs in any order (module docstring)."""

    intervals: tuple[tuple[float, float], ...]
    resolution_error: float
    solver: float

    def __post_init__(self) -> None:
        intervals = merge_intervals(self.intervals)
        if not intervals:
            raise InvalidParameterError("a spectrum needs at least one interval")
        delta = _real(self.resolution_error, "resolution_error")
        solver = _real(self.solver, "solver")
        if not 0.0 <= solver <= delta:
            raise InvalidParameterError(
                f"need 0 <= solver <= resolution_error, got {solver!r} and {delta!r}"
            )
        object.__setattr__(self, "intervals", intervals)
        object.__setattr__(self, "resolution_error", delta)
        object.__setattr__(self, "solver", solver)

    # cached properties, not fields: records, equality and hashing ignore them
    @cached_property
    def gaps(self) -> tuple[tuple[float, float, float], ...]:
        """A (left_hi, right_lo, width) triple for every gap between the
        intervals, each a true gap (module docstring), built once."""
        pairs = zip(self.intervals, self.intervals[1:])
        return tuple((hi, lo, lo - hi) for (_, hi), (lo, _) in pairs)

    @cached_property
    def epsilon_star(self) -> float:
        """W / 2 + delta + solver, W the widest gap (0 when there is none):
        the smallest radius at which the true spectrum is certified connected."""
        widest = max((width for _, _, width in self.gaps), default=0.0)
        return widest / 2.0 + self.resolution_error + self.solver


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class BandTable:
    """Sampled band functions on the [0, pi] half of an N-point grid: grid
    (N // 2 + 1,) and bands (p, N // 2 + 1), ascending in j, plus
    `spectrum`, their ranges padded by the N-point grid's delta and merged:
    the certified enclosure, carrying delta and its eigensolver part.
    Bands are even in theta, so the half holds every value."""

    grid: np.ndarray
    bands: np.ndarray
    spectrum: RealSpectrum


class Connectivity(Enum):
    """Verdict on the true epsilon-pseudospectrum (see `connectivity`)."""

    CONNECTED = "connected"
    UNDECIDED = "undecided"
    DISCONNECTED = "disconnected"


def theta_grid(grid_size: int) -> np.ndarray:
    """The N // 2 + 1 points in [0, pi] of the uniform grid
    theta_i = -pi + 2 pi i / N, i = 1..N, on (-pi, pi].

    Even N starts them at theta = 0; every N ends them at pi.  Both points
    are set exactly, since the scaled sum can miss them by an ulp.
    """
    grid_size = _integer(grid_size, "grid size", 2)
    i = np.arange((grid_size + 1) // 2, grid_size + 1)  # the i with theta_i >= 0
    grid = -math.pi + (2.0 * math.pi / grid_size) * i
    grid[-1] = math.pi
    if grid_size % 2 == 0:
        grid[0] = 0.0
    return grid


def check_bytes(needed: int, what: str) -> None:
    """Refuse `what`, which needs `needed` bytes, over BYTE_BUDGET.  Each caller
    states its own cost before it allocates; past the float range the message
    gives the size as a power of two."""
    if needed > BYTE_BUDGET:
        size = f"{needed / 2**30:.1f}" if needed < 2**1000 else f"2^{needed.bit_length() - 31}"
        raise InvalidParameterError(
            f"{what} needs about {size} GiB, over the {BYTE_BUDGET / 2**30:g} GiB budget"
        )


def spectrum_grid(kind: OperatorKind, period: int, grid_size: int = DEFAULT_GRID) -> int:
    """The grid `compute_spectrum` samples for `grid_size` at this kind and
    period: N for Laurent specs, 2 for Schrodinger and Jacobi specs (module
    docstring).  Refused, before anything is allocated, where N is not an
    integer >= 2 or the band table is over the byte budget."""
    grid_size = _integer(grid_size, "grid size", 2)
    return _table_grid(period, grid_size if kind is OperatorKind.LAURENT_GENERAL else 2)


def _table_grid(period: int, grid_size: int) -> int:
    """N, refused where it is not an integer >= 2 or where an N-point band
    table at period p is over the byte budget.

    A table holds only its N // 2 + 1 points in [0, pi], so the cost,
    3 N p^2 16 bytes, is six of its complex (N // 2 + 1, p, p) symbol
    stacks.  The stack is its one full-size array: assembly adds
    (N // 2 + 1,) vectors, and the solve copies one p x p matrix at a time.
    Measured peaks (tracemalloc, the table included, N = 4096 to 2^18, at
    p = 24 to 2^16, the largest under the budget; the smallest N sets the
    top of each range): 1.02 stacks at p = 24, 1.1-1.5 at p = 5, 1.4-2.9 at
    p = 2, and 2.6-3.6 at p = 1, where the vectors dominate.
    """
    grid_size = _integer(grid_size, "grid size", 2)
    what = f"a {grid_size}-point band table at period {period}"
    check_bytes(3 * grid_size * period**2 * 16, what)
    return grid_size


def band_table(spec: OperatorSpec, grid_size: int = DEFAULT_GRID) -> BandTable:
    """Sample all p band functions on the N // 2 + 1 grid points in [0, pi];
    the table's `spectrum` is their ranges padded by delta (module docstring).

    The byte budget is checked before the grid or the symbol stack is
    allocated.
    """
    grid_size = _table_grid(spec.period, grid_size)
    grid = theta_grid(grid_size)
    bands = eigvalsh_stack(symbol_stack(spec, grid)).T
    delta = solver = BACKWARD_ERROR_TOL * max(1.0, spec.norm_bound())
    if spec.kind is OperatorKind.LAURENT_GENERAL or grid_size % 2:
        delta = lipschitz_bound(spec) * math.pi / grid_size + solver
    ranges = zip(bands.min(axis=1).tolist(), bands.max(axis=1).tolist())
    spectrum = RealSpectrum([(lo - delta, hi + delta) for lo, hi in ranges], delta, solver)
    return BandTable(grid=grid, bands=bands, spectrum=spectrum)


def merge_intervals(intervals: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Union of closed intervals; only pieces that overlap or touch are fused.
    Every endpoint goes through `_real` ("interval endpoint"); a reversed pair is refused."""
    pairs = sorted((_real(lo, "interval endpoint"), _real(hi, "interval endpoint"))
                   for lo, hi in intervals)
    for lo, hi in pairs:
        if hi < lo:
            raise InvalidParameterError(f"interval [{lo}, {hi}] is reversed")
    merged: list[list[float]] = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def _check_radius(epsilon: float) -> float:
    epsilon = _real(epsilon, "epsilon")
    if epsilon < 0.0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon!r}")
    return epsilon


def pseudospectrum_intervals(spectrum: RealSpectrum, epsilon: float) -> RealSpectrum:
    """Fatten every interval by epsilon and re-merge (exact for self-adjoint)."""
    eps = _check_radius(epsilon)
    return replace(spectrum, intervals=[(lo - eps, hi + eps) for lo, hi in spectrum.intervals])


def connectivity(spectrum: RealSpectrum, epsilon: float) -> Connectivity:
    """Verdict on the true epsilon-pseudospectrum of the operator whose
    enclosure is `spectrum`, read from its gaps: disconnected when the
    widest gap W exceeds 2 epsilon, connected from epsilon_star on (so
    epsilon_star itself is connected), undecided between the two (module
    docstring)."""
    epsilon = _check_radius(epsilon)
    if any(width > 2.0 * epsilon for _, _, width in spectrum.gaps):
        return Connectivity.DISCONNECTED
    if epsilon >= spectrum.epsilon_star:
        return Connectivity.CONNECTED
    return Connectivity.UNDECIDED


def compute_spectrum(spec: OperatorSpec, grid_size: int = DEFAULT_GRID) -> RealSpectrum:
    """Certified enclosure of the spectrum: the padded band ranges, merged.

    Schrodinger and Jacobi bands are exact on {0, pi}, the 2-point grid, so
    only Laurent specs are sampled on `grid_size` points (`spectrum_grid`).
    """
    return band_table(spec, spectrum_grid(spec.kind, spec.period, grid_size)).spectrum


# -- distances on finite unions of closed intervals -------------------------


def points_distance(xs: np.ndarray, spectrum: RealSpectrum) -> np.ndarray:
    """Vectorized distance from points to the interval union (exact)."""
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
    return max(_directed_hausdorff(s1, s2), _directed_hausdorff(s2, s1))


def spectrum_from_points(points: Sequence[float]) -> RealSpectrum:
    """Finite point sets as degenerate interval unions (for set distances): an empty
    set is refused, and every point goes through `_real` as an interval endpoint."""
    return RealSpectrum([(x, x) for x in np.asarray(points).tolist()], 0.0, 0.0)
