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
M[j + d, j] of shape (n*p, kd + 1), with kd exact: the outermost
subdiagonal holding a nonzero (max |k p - p + 1| over the Dirichlet pairs
that reach it; a wrapped section may reach n*p - 1).  The dense matrix,
`TruncatedOperator.entries`, is for tests and scripts: it allocates
(n*p)^2 floats on each access.

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
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError
from .eig import _band_to_dense, hermitian_eigenvalues
from .spectra import (
    DEFAULT_GRID,
    RealSpectrum,
    _sampled_grid,
    check_bytes,
    compute_spectrum,
    hausdorff_distance,
    points_distance,
    spectrum_from_points,
)
from .symbols import OperatorSpec, _bonds, _integer


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class TruncatedOperator:
    """Real symmetric principal section (or its periodic closure), held as
    its lower band storage `band` (module docstring)."""

    size: int
    band: np.ndarray

    @property
    def entries(self) -> np.ndarray:
        """The dense size x size matrix, expanded from `band` on each access."""
        return _band_to_dense(self.band)


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


def _section_size(spec: OperatorSpec, blocks: int) -> int:
    """Size n*p of a `blocks`-block section, refused over the byte budget."""
    size = blocks * spec.period
    # 4 n^2 float64s: the dense path's expansion and LAPACK's copy of it,
    # with room for two more; a band solve needs far less, but the budget
    # is the same for every section
    check_bytes(32 * size**2, f"a {blocks}-block section at period {spec.period}")
    return size


def truncate(spec: OperatorSpec, blocks: int, periodic: bool = False) -> TruncatedOperator:
    """Principal n*p section of the operator matrix (optionally wrapped), in
    lower band storage (module docstring).

    Each entry takes the additions of the dense definition in its order, so
    it is exact bit for bit: v, the interior bonds in column 1, then each
    corner pair in list order at (min(r, c), |r - c|) of its cells (r, c),
    twice on the diagonal, as the pair enters M at (r, c) and (c, r), and
    by `np.add.at`, since a wrapped pair may reach one band cell twice.
    Trailing zero columns are then dropped, which makes kd exact."""
    p = spec.period
    blocks = _integer(blocks, "blocks", 1)
    size = _section_size(spec, blocks)
    interior, pairs = _bonds(spec)
    idx = np.arange(size)
    first = idx[::p]
    corners = []  # (band rows, band columns, coefficient) of each pair
    for k, coeff in pairs:
        # reduced in Python ints, so no k overflows the int64 block indices
        if periodic:
            k %= blocks
        elif abs(k) >= blocks:
            continue  # block r - k lies outside the window for every r
        last = first - k * p + p - 1
        if periodic:
            rows, cols = first, last % size
        else:
            inside = (last >= 0) & (last < size)
            rows, cols = first[inside], last[inside]
        lo, d = np.minimum(rows, cols), np.abs(rows - cols)
        on_diagonal = lo[d == 0]
        corners.append((np.concatenate([lo, on_diagonal]),
                        np.concatenate([d, np.zeros_like(on_diagonal)]), coeff))
    width = max([2, *(int(d.max()) + 1 for _, d, _ in corners if len(d))])
    band = np.zeros((size, width))
    band[:, 0] = np.asarray(spec.v)[idx % p]
    inner = np.flatnonzero(idx[1:] % p)  # bonds (i, i + 1) inside a block
    band[inner, 1] = interior[inner % p]
    for lo, d, coeff in corners:
        np.add.at(band, (lo, d), coeff)
    used = np.flatnonzero(band.any(axis=0))
    kd = int(used[-1]) if len(used) else 0
    return TruncatedOperator(size=size, band=np.ascontiguousarray(band[:, : kd + 1]))


def truncation_compare(
    spec: OperatorSpec,
    blocks: Sequence[int],
    grid_size: int = DEFAULT_GRID,
) -> TruncationComparison:
    """Eigenvalues of growing Dirichlet truncations against the symbol spectrum.

    For Schrodinger and Jacobi operators each row's eigenvalues stay in the
    spectrum's hull, with at most 2 per gap.  Those in a gap are states
    bound to the cut, so `one_sided` need not shrink with n: it plateaus
    at their nonzero depth (see the module docstring).

    The routes share nothing until the distances: one worker thread solves
    the sections, largest first, while this thread computes the spectrum.
    Every refusal comes before the worker starts, and an exception on either
    side propagates unchanged once the worker has finished.
    """
    if not blocks:
        raise InvalidParameterError("need at least one block count")
    # refuse an oversized section or band table before the worker starts
    blocks = [_integer(n, "blocks", 1) for n in blocks]
    sizes = [_section_size(spec, n) for n in blocks]
    _sampled_grid(spec.kind, spec.period, grid_size)
    values: list[np.ndarray | None] = [None] * len(blocks)
    failed: list[BaseException] = []

    def solve_sections() -> None:
        try:
            for i in sorted(range(len(blocks)), key=sizes.__getitem__, reverse=True):
                values[i] = hermitian_eigenvalues(truncate(spec, blocks[i]).band).values
        except BaseException as exc:  # re-raised by the caller after the join
            failed.append(exc)

    worker = threading.Thread(target=solve_sections, name="truncation-sections")
    worker.start()
    try:
        spectrum = compute_spectrum(spec, grid_size)
    finally:
        worker.join()
    if failed:
        raise failed[0]
    rows = []
    for n, size, lam in zip(blocks, sizes, values):
        dists = points_distance(lam, spectrum)
        rows.append(
            TruncationRow(
                blocks=n,
                size=size,
                eigenvalues=lam,
                distances=dists,
                one_sided=float(np.max(dists)),
                hausdorff=hausdorff_distance(spectrum_from_points(lam), spectrum),
            )
        )
    return TruncationComparison(spectrum=spectrum, rows=tuple(rows))
