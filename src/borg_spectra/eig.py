"""Hermitian eigenvalue solves used by every downstream module.

Eigenvalues are returned sorted ascending (band indexing counts from the
bottom of the spectrum; the classical top-down labeling is just the
reverse).  Both functions are the bare LAPACK solve: the input must be
Hermitian, and only its lower triangle is read.  The package's own
builders (`symbols.symbol_stack`, `oracle.truncate`) write both triangles
exactly, and the tests pin every matrix they hand here as exactly
Hermitian.  LAPACK's symmetric drivers are backward stable well inside the
1e-10 contract assumed elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BACKWARD_ERROR_TOL = 1e-10  # relative to ||M||; LAPACK delivers ~n*eps


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues of one Hermitian matrix."""

    values: np.ndarray


def hermitian_eigenvalues(m) -> EigenResult:
    """Ascending eigenvalues of a Hermitian matrix (dimension 0 allowed).
    The input is not checked: only its lower triangle is read."""
    return EigenResult(values=np.linalg.eigvalsh(m))


def eigvalsh_stack(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a whole (N, p, p) Hermitian stack at once.
    The input is not checked: only each lower triangle is read."""
    return np.linalg.eigvalsh(stack)
