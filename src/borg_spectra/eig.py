"""Hermitian eigenvalue solves used by every downstream module.

Eigenvalues are returned sorted ascending (band indexing counts from the
bottom of the spectrum; the classical top-down labeling is just the
reverse).  Both functions are the bare LAPACK solve and check nothing.
`eigvalsh_stack` reads only the lower triangle of each Hermitian matrix;
`symbols.symbol_stack` writes both exactly, and the tests pin them as
exactly Hermitian.  `hermitian_eigenvalues` takes one real symmetric
matrix M in LAPACK's lower band storage, which holds one triangle only:
the (n, kd + 1) array band[j, d] = M[j + d, j], LAPACK's AB(1 + i - j, j)
laid out C-contiguous, as `oracle.truncate` builds it with kd exact.
LAPACK's symmetric eigensolvers are backward stable well inside the 1e-10
contract assumed elsewhere.

Every nonempty band, Dirichlet or wrapped up to kd = n - 1, goes to a
copy solved by LAPACKE dsbevd_2stage, `scipy_LAPACKE_dsbevd_2stage64_`
(ILP64) in numpy's bundled OpenBLAS, the LAPACK `numpy.linalg` links,
looked up through ctypes; only where it is missing does the band expand to
n x n for `np.linalg.eigvalsh`.  Band against dense, medians on 2 CPUs:
0.35 against 8.0 ms for the benchmark's 96-site Laurent section, and
0.24/0.58, 5.5/5.8 and 103/130 ms for wrapped staircase sections of 80,
320 and 1,280 sites.  The one loss: under one BLAS thread, kd about n and
n >= 768 run 1.2-1.5x slower (random bands, 56/48 ms at n = 768, 139/100
ms at 1,000), and only `scripts/truncation_sweep.py` and the tests build
such sections.  Unlike dense dsyevd, the band solve gave the same bits at
1 and 2 threads for every kd <= 175 tried (n = 96 to 1992), not at 200.
"""
from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

BACKWARD_ERROR_TOL = 1e-10  # relative to ||M||; LAPACK delivers ~n*eps

_BAND_SYMBOL = "scipy_LAPACKE_dsbevd_2stage64_"
_COL_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR


@dataclass(frozen=True, eq=False)  # holds arrays: equal and hashed by identity
class EigenResult:
    """Ascending eigenvalues of one Hermitian matrix."""

    values: np.ndarray


def hermitian_eigenvalues(band) -> EigenResult:
    """Ascending eigenvalues of the real symmetric matrix stored as the
    lower band `band`, shape (n, kd + 1); dimension 0 allowed.

    The input is not checked.  The band goes to dsbevd_2stage; on a numpy
    without that routine its n x n expansion goes to `np.linalg.eigvalsh`.
    A LAPACK failure raises `np.linalg.LinAlgError` on either path."""
    band = np.asarray(band)
    n, kd = band.shape[0], band.shape[1] - 1
    if n == 0 or (routine := _band_solver()) is None:
        return EigenResult(values=np.linalg.eigvalsh(_band_to_dense(band)))
    # the routine overwrites its `ab`, so it gets a C-contiguous float64 copy
    ab = np.array(band, dtype=np.float64, order="C")
    w = np.empty(n)
    info = routine(_COL_MAJOR, b"N", b"L", n, kd, ab.ctypes.data, kd + 1, w.ctypes.data, None, 1)
    if info != 0:  # < 0: an argument LAPACKE refused; > 0: no convergence
        raise np.linalg.LinAlgError(f"LAPACKE dsbevd_2stage failed with info = {info}")
    return EigenResult(values=w)


def eigvalsh_stack(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a whole (N, p, p) Hermitian stack at once.
    The input is not checked: only each lower triangle is read."""
    return np.linalg.eigvalsh(stack)


def _band_to_dense(band: np.ndarray) -> np.ndarray:
    """The n x n symmetric matrix whose lower band storage is `band`, both
    triangles written."""
    n = len(band)
    m = np.zeros((n, n), dtype=band.dtype)
    for d in range(band.shape[1]):
        j = np.arange(n - d)
        m[j + d, j] = m[j, j + d] = band[: n - d, d]
    return m


@functools.cache
def _band_solver():
    """numpy's own LAPACKE dsbevd_2stage, or None where its LAPACK lacks it."""
    try:
        routine = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), _BAND_SYMBOL)
    except (OSError, AttributeError):
        return None
    i64 = ctypes.c_int64
    # (layout, jobz, uplo, n, kd, ab, ldab, w, z, ldz) -> info
    routine.argtypes = (
        ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, i64,
        ctypes.c_void_p, i64, ctypes.c_void_p, ctypes.c_void_p, i64,
    )
    routine.restype = i64
    return routine

