"""Finite truncations of the bi-infinite operators, as an independent
check on the symbol-based spectra.

`truncate` builds the leading n*p x n*p principal section of the
operator's matrix from the symbol's own pieces (`symbols._bonds`): the
interior bonds inside each block, and each corner pair (k, a_k) between
the first site of block r and the last site of block r - k.  For the
tridiagonal pair (1, a_p) that is the bond between consecutive blocks.
The Dirichlet cutoff drops pairs whose block falls outside the window; a
periodic-wrap variant takes r - k modulo n instead, closing the window
into a block circulant whose eigenvalues equal the symbol's eigenvalues
on the exact grid theta = 2 pi m / n.  That identity is the sharpest
available cross-check between the two representations.

A section is built in LAPACK's lower band storage (`eig`), band[j, d] =
P[j + d, j] of shape (n*p, kd + 1), with kd exact: the outermost
subdiagonal of P holding a nonzero.  P is the section with the sites of
each block reordered (`TruncatedOperator.order`); a permutation leaves
the eigenvalues as they are and can narrow the band.  In the natural
order pair (k, a_k) sits at offset k p - (p - 1), so k in {-1, 0, 1, 2}
at p = 24 gives kd = 47.  A Dirichlet section gives every block one order
instead: its last site T sits e positions after its first site H (before
it for e < 0), sites 1 .. |e| - 1 run ascending from H to T, and sites
|e| .. p - 2 zigzag out by twos and back, so no interior bond spans more
than 2 and the pair sits at offset k p - e.  `truncate` picks e in
+-{1, ..., p - 1} minimizing max(w, max |k p - e|) over the pairs that
reach the window, w = 1 at e = +-(p - 1), where the chain runs straight,
and 2 otherwise; the natural order e = p - 1 wins every tie.  So
tridiagonal specs keep it (kd = 1), and the p = 24 example gets
kd = 36 = 1.5 p.  A wrapped section keeps the natural order and may reach
n*p - 1.  The dense matrix, `TruncatedOperator.entries`, is the section in
its natural site order, for tests and scripts: it allocates (n*p)^2
floats on each access.

`_section_blocks` is the one rule for a block request, a lone section's
included.  `truncation_compare` refuses its request through it alone, as
it holds every section, builds each with `truncate` on the calling
thread, then hands its worker the largest section's band alone.

For Schrodinger and Jacobi operators the Dirichlet section's eigenvalues
do *not* approach the spectrum as n grows.  What holds is:

* they lie in the hull [min sigma, max sigma], and principal sections of
  increasing size interlace;
* the Dirichlet and wrapped sections differ by one cut bond of weight a,
  a rank-2 perturbation with eigenvalues +a and -a, so
  lambda_{j-1}(wrapped) <= lambda_j(Dirichlet) <= lambda_{j+1}(wrapped);
* the wrapped eigenvalues lie in the spectrum, so at most 2 Dirichlet
  eigenvalues fall inside any one gap;
* those in-gap eigenvalues belong to states bound to the open ends of the
  section (spectral pollution).  They converge exponentially to fixed
  points inside the gaps, so where the cut binds such states the
  one-sided distance plateaus at a nonzero depth instead of shrinking.
  Wrapping removes the cut and the states with it.  How many states an
  end binds depends on the operator: the period-5 staircase binds two at
  each end, one deep in a gap and one only 0.0026 inside another, which
  a grid enclosure padded by L * pi / N hides at N = 1024.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidParameterError
from .eig import _band_to_dense, hermitian_eigenvalues
from .spectra import (
    DEFAULT_GRID,
    RealSpectrum,
    check_bytes,
    compute_spectrum,
    hausdorff_distance,
    points_distance,
    spectrum_from_points,
    spectrum_grid,
)
from .symbols import OperatorSpec, _bonds, _integer


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class TruncatedOperator:
    """Real symmetric principal section (or its periodic closure), held as
    the lower band storage `band` of its reordered matrix, band row j
    holding site `order[j]` of the section (module docstring)."""

    band: np.ndarray
    order: np.ndarray

    @property
    def size(self) -> int:
        """The number of sites n*p, one band row each."""
        return len(self.band)

    @property
    def entries(self) -> np.ndarray:
        """The dense size x size section in its natural site order,
        expanded from `band` on each access."""
        rows = np.argsort(self.order)  # the band row of each site
        return _band_to_dense(self.band)[np.ix_(rows, rows)]


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class TruncationRow:
    blocks: int
    size: int
    eigenvalues: np.ndarray
    distances: np.ndarray  # per-eigenvalue distance to the symbol spectrum
    one_sided: float  # max of `distances`; need not shrink, plateaus at the cut states
    hausdorff: float  # between the eigenvalue set and the symbol spectrum


@dataclass(frozen=True)
class TruncationComparison:
    spectrum: RealSpectrum
    rows: tuple[TruncationRow, ...]


def _section_blocks(spec: OperatorSpec, blocks: Iterable[int]) -> list[int]:
    """`blocks`, any iterable of integers >= 1, as Python ints; refused if it
    is no iterable or empty, or its sections, held together, over budget."""
    try:
        blocks = [_integer(n, "blocks", 1) for n in blocks]
    except TypeError:  # not iterable: `_integer` raises only its own error
        raise InvalidParameterError(
            f"blocks must be a list of block counts, got {type(blocks).__name__}") from None
    if not blocks:
        raise InvalidParameterError("need at least one block count")
    # 4 n^2 float64s a section: the n x n expansion that `entries` and a numpy
    # without dsbevd_2stage build, LAPACK's copy of it and room for two more; a
    # band solve needs far less, but refusals must not depend on the numpy build
    what = f"a request for sections of {', '.join(map(str, blocks))} blocks"
    check_bytes(32 * spec.period**2 * sum(n * n for n in blocks), f"{what} at period {spec.period}")
    return blocks


def _tail_offset(p: int, ks: Sequence[int]) -> int:
    """The offset e of a block's last site from its first that gives the
    narrowest band for corner pairs of indices `ks` (module docstring)."""
    if not ks:
        return p - 1
    lo, hi = min(ks) * p, max(ks) * p

    def width(e: int) -> int:  # max(w, max |k p - e|)
        return max(1 if abs(e) == p - 1 else 2, hi - e, e - lo)

    # the natural e = p - 1 first, so that it wins every tie
    return min([p - 1, *range(1 - p, 0), *range(1, p - 1)], key=width)


def _block_positions(p: int, e: int) -> np.ndarray:
    """Position within its block of each site of a block whose last site
    sits e positions after its first (module docstring): sites 0 .. |e| - 1
    ascending, the last site next, then sites |e| .. p - 2 out by twos and
    back; mirrored for e < 0.  e = p - 1 is the natural order."""
    f = abs(e)
    m = p - 1 - f  # the sites after the last one
    zigzag = [*range(0, m, 2), *reversed(range(1, m, 2))]
    pos = np.array([*range(f), *(f + 1 + z for z in zigzag), f])
    return pos if e >= 0 else p - 1 - pos


def truncate(spec: OperatorSpec, blocks: int, periodic: bool = False) -> TruncatedOperator:
    """Principal n*p section of the operator matrix (optionally wrapped), in
    lower band storage of its reordered sites (module docstring).

    Each entry takes the additions of the dense definition in its order, so
    it is exact bit for bit: v, the interior bonds, then each corner pair in
    list order at (min(r, c), |r - c|) of its band rows (r, c), twice on the
    diagonal, as the pair enters M at (r, c) and (c, r), and by
    `np.add.at`, since a wrapped pair may reach one band cell twice.
    Trailing zero columns are then dropped, which makes kd exact."""
    p = spec.period
    (blocks,) = _section_blocks(spec, [blocks])
    size = blocks * p
    interior, pairs = _bonds(spec)
    # reduced in Python ints, so no k overflows the int64 block indices
    if periodic:
        pairs = [(k % blocks, coeff) for k, coeff in pairs]
        e = p - 1
    else:
        # block r - k lies outside the window for every r once |k| >= n
        pairs = [(k, coeff) for k, coeff in pairs if abs(k) < blocks]
        e = _tail_offset(p, [k for k, _ in pairs])
    pos = _block_positions(p, e)
    starts = np.arange(0, size, p)
    first = starts + pos[0]  # band row of each block's first site
    corners = []  # (band rows, band columns, coefficient) of each pair
    for k, coeff in pairs:
        last = first - k * p + e
        if periodic:
            rows, cols = first, last % size
        else:
            inside = (last >= 0) & (last < size)
            rows, cols = first[inside], last[inside]
        lo, d = np.minimum(rows, cols), np.abs(rows - cols)
        on_diagonal = lo[d == 0]
        corners.append((np.concatenate([lo, on_diagonal]),
                        np.concatenate([d, np.zeros_like(on_diagonal)]), coeff))
    # the diagonal and interior bonds of span <= 2, then the corner pairs
    width = max([3, *(int(d.max()) + 1 for _, d, _ in corners if len(d))])
    band = np.zeros((size, width))
    order = (starts[:, None] + np.argsort(pos)).ravel()  # the site at each band row
    band[:, 0] = np.asarray(spec.v)[order % p]
    # bonds (i, i + 1) inside a block
    inner = (starts[:, None] + np.minimum(pos[:-1], pos[1:])).ravel()
    band[inner, np.tile(np.abs(np.diff(pos)), blocks)] = np.tile(interior, blocks)
    for lo, d, coeff in corners:
        np.add.at(band, (lo, d), coeff)
    used = np.flatnonzero(band.any(axis=0))
    kd = int(used[-1]) if len(used) else 0
    return TruncatedOperator(band=np.ascontiguousarray(band[:, : kd + 1]), order=order)


def truncation_compare(
    spec: OperatorSpec,
    blocks: Iterable[int],
    grid_size: int = DEFAULT_GRID,
) -> TruncationComparison:
    """Eigenvalues of growing Dirichlet truncations against the symbol spectrum.

    For Schrodinger and Jacobi operators each row's eigenvalues stay in the
    spectrum's hull, with at most 2 per gap.  Those in a gap are states
    bound to the cut, so `one_sided` need not shrink with n: it plateaus
    at their nonzero depth (see the module docstring).

    `_section_blocks` alone reads and refuses `blocks`, its sections budgeted
    together as all are held until the call returns; then `truncate` builds each
    on this thread before the worker starts, which solves the largest one's
    band while this thread computes the spectrum and then solves the others:
    only one solve runs beside the symbol route, and the routes share nothing
    until the distances.  An exception on either side propagates unchanged
    once the worker has finished.
    """
    # the request and the band table are refused before the first section is built
    blocks = _section_blocks(spec, blocks)
    spectrum_grid(spec.kind, spec.period, grid_size)
    sections = [truncate(spec, n) for n in blocks]
    largest = max(range(len(sections)), key=lambda i: sections[i].size)
    values: list[np.ndarray | None] = [None] * len(sections)
    failed: list[BaseException] = []

    def solve_largest(band: np.ndarray) -> None:
        try:
            values[largest] = hermitian_eigenvalues(band).values
        except BaseException as exc:  # re-raised by the caller after the join
            failed.append(exc)

    worker = threading.Thread(target=solve_largest, args=(sections[largest].band,),
                              name="truncation-section")
    worker.start()
    try:
        spectrum = compute_spectrum(spec, grid_size)
        for i, section in enumerate(sections):
            if i != largest:
                values[i] = hermitian_eigenvalues(section.band).values
    finally:
        worker.join()
    if failed:
        raise failed[0]
    rows = []
    for section, lam in zip(sections, values):
        dists = points_distance(lam, spectrum)
        rows.append(
            TruncationRow(
                blocks=section.size // spec.period,
                size=section.size,
                eigenvalues=lam,
                distances=dists,
                one_sided=float(np.max(dists)),
                hausdorff=hausdorff_distance(spectrum_from_points(lam), spectrum),
            )
        )
    return TruncationComparison(spectrum=spectrum, rows=tuple(rows))
