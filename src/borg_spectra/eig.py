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


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues of one Hermitian matrix."""

    values: np.ndarray


def _check_hermitian(arr: np.ndarray) -> None:
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ContractViolationError(f"matrix must be square, got shape {arr.shape}")
    if arr.size == 0:
        return
    scale = max(1.0, float(np.max(np.abs(arr))))
    if np.iscomplexobj(arr):
        asym = float(np.max(np.abs(arr - np.conjugate(np.swapaxes(arr, -1, -2)))))
    else:
        # conjugating a real array would copy it: one temporary, made absolute in place
        diff = arr - np.swapaxes(arr, -1, -2)
        asym = float(np.max(np.abs(diff, out=diff)))
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
