"""Shared builders for the test suite."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from borg_spectra import InvalidParameterError, OperatorKind, OperatorSpec


def schrodinger(v) -> OperatorSpec:
    return OperatorSpec(kind=OperatorKind.SCHRODINGER, period=len(v), v=tuple(v))


def jacobi(v, a) -> OperatorSpec:
    return OperatorSpec(kind=OperatorKind.JACOBI, period=len(v), v=tuple(v), a=tuple(a))


def laurent(v, fourier) -> OperatorSpec:
    return OperatorSpec(
        kind=OperatorKind.LAURENT_GENERAL,
        period=len(v),
        v=tuple(v),
        fourier=tuple((int(k), float(c)) for k, c in fourier),
    )


def assert_rejected_before_allocating(call) -> None:
    """`call()` raises InvalidParameterError having allocated under 1 MiB."""
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def random_spec(rng: np.random.Generator, p_max: int = 8) -> OperatorSpec:
    p = int(rng.integers(2, p_max + 1))
    v = tuple(rng.uniform(-1.0, 1.0, size=p))
    if int(rng.integers(0, 2)) == 1:
        return jacobi(v, rng.uniform(0.5, 2.0, size=p))
    return schrodinger(v)


def random_laurent(rng: np.random.Generator, p: int) -> OperatorSpec:
    """Ascending potential and 1-3 corner terms a_k e^{ik theta}, |k| <= 3."""
    terms = int(rng.integers(1, 4))
    fourier = zip(rng.integers(-3, 4, size=terms), rng.uniform(-1.0, 1.0, size=terms))
    return laurent(np.sort(rng.uniform(-2.0, 2.0, size=p)), fourier)
