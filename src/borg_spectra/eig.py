"""Hermitian eigenvalue contract used by every downstream module.

Eigenvalues are returned sorted ascending (band indexing counts from the
bottom of the spectrum; the classical top-down labeling is just the
reverse).  Inputs are validated to be Hermitian up to a strict relative
tolerance and then handed to LAPACK, whose symmetric drivers are
backward stable well inside the 1e-10 contract assumed elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

HERMITICITY_RTOL = 1e-12
BACKWARD_ERROR_TOL = 1e-10  # relative to ||M||; LAPACK delivers ~n*eps
_BLOCK_ENTRIES = 1 << 14  # entries per block of the Hermiticity check


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues of one Hermitian matrix."""

    values: np.ndarray


def _check_hermitian(arr: np.ndarray) -> None:
    """Refuse a non-square array, a NaN, or an asymmetry
    max|A - A^H| > HERMITICITY_RTOL * max(1, max|A|).

    The check runs over blocks of the leading axis (rows of a matrix,
    matrices of a stack), so every temporary is block-sized.  The
    transposed view, sliced the same way, gives each block's counterpart:
    the matching columns of a matrix, the same matrices of a stack."""
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ContractViolationError(f"matrix must be square, got shape {arr.shape}")
    if arr.size == 0:
        return
    transposed = np.swapaxes(arr, -1, -2)
    step = max(1, _BLOCK_ENTRIES // (arr.size // len(arr)))
    scales, asyms = [], []  # max|A| and max|A - A^H| of each block
    for start in range(0, len(arr), step):
        block = arr[start : start + step]
        # conj() of a real array is the array itself, not a copy
        diff = block - transposed[start : start + step].conj()
        scales.append(np.abs(block).max())
        asyms.append(np.abs(diff).max())
    # np.max keeps a NaN that Python's max() could drop
    scale = max(1.0, float(np.max(scales)))
    asym = float(np.max(asyms))
    if not asym <= HERMITICITY_RTOL * scale:  # NaN fails this comparison too
        raise ContractViolationError(
            f"matrix is not Hermitian: relative asymmetry {asym / scale:.3e}"
        )


def hermitian_eigenvalues(m) -> EigenResult:
    """Ascending eigenvalues of a Hermitian matrix (dimension 0 allowed)."""
    arr = np.asarray(m)
    _check_hermitian(arr)
    return EigenResult(values=np.linalg.eigvalsh(arr))


def eigvalsh_stack(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a whole (N, p, p) Hermitian stack at once."""
    arr = np.asarray(stack)
    if arr.ndim != 3:
        raise ContractViolationError(f"expected a 3d stack, got shape {arr.shape}")
    _check_hermitian(arr)
    return np.linalg.eigvalsh(arr)
