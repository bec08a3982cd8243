"""Hermitian eigenvalue solves used by every downstream module.

Eigenvalues are returned sorted ascending (band indexing counts from the
bottom of the spectrum; the classical top-down labeling is just the
reverse).  Both functions are the bare LAPACK solve: the input must be
Hermitian, and only its lower triangle (or lower band) is read.  The
package's own builders (`symbols.symbol_stack`, `oracle.truncate`) write
both triangles exactly, and the tests pin every matrix they hand here as
exactly Hermitian.  LAPACK's symmetric eigensolvers are backward stable well
inside the 1e-10 contract assumed elsewhere.

`hermitian_eigenvalues` picks one of two solvers.  A real float64 matrix
of size n whose lower half-bandwidth kd (the outermost subdiagonal with a
nonzero) has 32 kd <= n is copied into LAPACK's (n, kd + 1) band storage
and solved by LAPACKE dsbevd_2stage; every other input goes to the dense
`np.linalg.eigvalsh`.  Oracle sections are banded by construction
(kd = max |k p - p + 1| over the corner pairs).  The measured crossover
is n / kd about 21 (random banded matrices, n = 512 to 4000, 2 CPUs), so
the band solve wins wherever 32 selects it; dsbevd_2stage beats dsbevd at
the benchmark's (n, kd) = (1992, 47), 224 against 312 ms.  The symbol is
`scipy_LAPACKE_dsbevd_2stage64_` (ILP64) in numpy's bundled OpenBLAS, the
LAPACK that `numpy.linalg` itself links; it is looked up through ctypes
on the first eligible call, and a numpy whose LAPACK lacks it solves
every matrix densely.
"""
from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

BACKWARD_ERROR_TOL = 1e-10  # relative to ||M||; LAPACK delivers ~n*eps

_BAND_RATIO = 32  # the band solver runs when _BAND_RATIO * kd <= n
_BAND_SYMBOL = "scipy_LAPACKE_dsbevd_2stage64_"
_COL_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues of one Hermitian matrix."""

    values: np.ndarray


def hermitian_eigenvalues(m) -> EigenResult:
    """Ascending eigenvalues of a Hermitian matrix (dimension 0 allowed).

    The input is not checked: only its lower triangle is read.  A real
    float64 matrix with 32 kd <= n is solved as a band matrix, anything
    else densely (module docstring).  A LAPACK failure raises
    `np.linalg.LinAlgError` on either path."""
    m = np.asarray(m)
    if m.dtype == np.float64 and m.ndim == 2 and 0 < len(m) == m.shape[1]:
        kd = _lower_bandwidth(m)
        if _BAND_RATIO * kd <= len(m) and (routine := _band_solver()) is not None:
            return EigenResult(values=_band_eigenvalues(routine, m, kd))
    return EigenResult(values=np.linalg.eigvalsh(m))


def eigvalsh_stack(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a whole (N, p, p) Hermitian stack at once.
    The input is not checked: only each lower triangle is read."""
    return np.linalg.eigvalsh(stack)


def _lower_bandwidth(m: np.ndarray) -> int:
    """The largest d with a nonzero on subdiagonal d of a nonempty square m,
    from each row's first nonzero column.  It is never too small: an
    all-zero row can only make it larger."""
    first = np.argmax(m != 0, axis=1)
    return max(0, int(np.max(np.arange(len(m)) - first)))


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


def _band_eigenvalues(routine, m: np.ndarray, kd: int) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric m with lower half-bandwidth
    kd, from its lower band only.  `ab` is LAPACK's column-major lower band
    storage AB(1 + i - j, j) = m[i, j], laid out C-contiguous as
    ab[j, d] = m[j + d, j]; the routine overwrites it."""
    n = len(m)
    ab = np.zeros((n, kd + 1))
    for d in range(kd + 1):
        ab[: n - d, d] = m.diagonal(-d)
    w = np.empty(n)
    info = routine(_COL_MAJOR, b"N", b"L", n, kd, ab.ctypes.data, kd + 1, w.ctypes.data, None, 1)
    if info != 0:  # < 0: an argument LAPACKE refused; > 0: no convergence
        raise np.linalg.LinAlgError(f"LAPACKE dsbevd_2stage failed with info = {info}")
    return w
