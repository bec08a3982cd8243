"""Finite truncations of the bi-infinite operators, as an independent
check on the symbol-based spectra.

`truncate` materializes the leading n*p x n*p principal section of the
operator's matrix from the symbol's own pieces (`symbols._bonds`): the
interior bonds inside each block, and each corner pair (k, a_k) between
the first site of block r and the last site of block r - k.  For the
tridiagonal pair (1, a_p) that is the bond between consecutive blocks.
The Dirichlet cutoff drops pairs whose block falls outside the window; a
periodic-wrap variant takes r - k modulo n instead, closing the window
into a block circulant whose eigenvalues equal the symbol's eigenvalues
on the exact grid theta = 2 pi m / n.  That identity is the sharpest
available cross-check between the two representations.

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError
from .eig import hermitian_eigenvalues
from .spectra import (
    DEFAULT_GRID,
    RealSpectrum,
    check_bytes,
    compute_spectrum,
    hausdorff_distance,
    points_distance,
    spectrum_from_points,
)
from .symbols import OperatorSpec, _bonds


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense real symmetric principal section (or its periodic closure)."""

    size: int
    blocks: int
    periodic: bool
    entries: np.ndarray


@dataclass(frozen=True)
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
    if not isinstance(blocks, int) or isinstance(blocks, bool) or blocks < 1:
        raise InvalidParameterError(f"blocks must be an integer >= 1, got {blocks!r}")
    size = blocks * spec.period
    # 4 n^2 float64s: the section and LAPACK's dense copy of it, with room
    # for two more; a banded section (`eig`) needs only a band copy, but
    # every other section takes the dense path
    check_bytes(32 * size**2, f"a {blocks}-block section at period {spec.period}")
    return size


def truncate(spec: OperatorSpec, blocks: int, periodic: bool = False) -> TruncatedOperator:
    """Principal n*p section of the operator matrix (optionally wrapped),
    assembled as the module docstring describes."""
    p = spec.period
    size = _section_size(spec, blocks)
    interior, pairs = _bonds(spec)
    m = np.zeros((size, size))
    idx = np.arange(size)
    m[idx, idx] = np.asarray(spec.v)[idx % p]
    inner = np.flatnonzero(idx[1:] % p)  # bonds (i, i + 1) inside a block
    m[inner, inner + 1] = interior[inner % p]
    m[inner + 1, inner] = interior[inner % p]
    first = idx[::p]
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
        m[rows, cols] += coeff
        m[cols, rows] += coeff
    return TruncatedOperator(size=size, blocks=blocks, periodic=periodic, entries=m)


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
    """
    if not blocks:
        raise InvalidParameterError("need at least one block count")
    for n in blocks:  # refuse an oversized section before the first solve
        _section_size(spec, n)
    spectrum = compute_spectrum(spec, grid_size)
    rows = []
    for n in blocks:
        trunc = truncate(spec, n)
        values = hermitian_eigenvalues(trunc.entries).values
        dists = points_distance(values, spectrum)
        rows.append(
            TruncationRow(
                blocks=n,
                size=trunc.size,
                eigenvalues=values,
                distances=dists,
                one_sided=float(np.max(dists)),
                hausdorff=hausdorff_distance(spectrum_from_points(values), spectrum),
            )
        )
    return TruncationComparison(spectrum=spectrum, rows=tuple(rows))
