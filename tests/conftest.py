"""Shared builders for the test suite."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from borg_spectra import (
    InvalidParameterError,
    OperatorKind,
    OperatorSpec,
    band_table,
    interlacing_submatrix,
)


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


# the benchmark's p = 24 Laurent spec (kd = 36), and the period-5 staircase (kd = 1)
LAURENT_24 = laurent(0.8 * np.arange(24) + 0.1 * np.cos(np.arange(24)),
                     ((-1, 0.3), (0, 0.5), (1, 0.4), (2, 0.2)))
STAIRCASE = schrodinger((1.0, 1.1, 1.2, 1.3, 1.4))


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


def full_theta_grid(n: int) -> np.ndarray:
    """The whole N-point grid theta_i = -pi + 2 pi i / N, i = 1..N, as an
    exact mirror: pi and, for even N, 0 set exactly, and each negative
    point j the negation of point N - 2 - j.  `theta_grid(N)` is its tail
    from index (N - 1) // 2."""
    grid = -math.pi + (2.0 * math.pi / n) * np.arange(1, n + 1)
    grid[-1] = math.pi
    if n % 2 == 0:
        grid[n // 2 - 1] = 0.0
    k = (n - 1) // 2
    grid[:k] = -grid[n - 1 - k : n - 1][::-1]
    return grid


def full_grid_columns(half: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole N-point grid, and for each of its points the column of
    the half grid `half` that holds |theta| exactly."""
    full = full_theta_grid(n)
    columns = np.searchsorted(half, np.abs(full))
    assert np.array_equal(half[columns], np.abs(full))
    return full, columns


def interlacing_violation(spec: OperatorSpec, shift: int, grid_size: int) -> float:
    """Worst violation of lambda_j <= mu_j <= lambda_{j+1} over the grid:
    mu the eigenvalues of J_k, lambda the bands of f(theta).  J_k is a
    principal submatrix of f_k(theta), unitarily equivalent to f(theta), so
    the exact values interlace.  Each side is within solver = 1e-10
    max(1, ||f||) of its exact value (||J_k|| <= ||f||), so an exact
    interlacing shows as a violation of at most 2 solver, which is below
    1e-9 for ||f|| <= 5."""
    mus = np.linalg.eigvalsh(interlacing_submatrix(spec, shift))
    lams = band_table(spec, grid_size).bands.T  # (N // 2 + 1, p)
    low = float(np.max(lams[:, :-1] - mus[None, :]))
    high = float(np.max(mus[None, :] - lams[:, 1:]))
    return max(0.0, low, high)


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


ANGLES = st.floats(-math.pi, math.pi, exclude_min=True) | st.sampled_from(
    [math.pi, 0.0, -0.0]
)


@st.composite
def any_symbol_args(draw) -> tuple:
    """(spec, thetas): every kind, p = 1..6, angles in (-pi, pi]; Laurent
    lists may repeat an index k."""
    kind = draw(st.sampled_from(list(OperatorKind)))
    p = draw(st.integers(1, 6))
    v = draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p))
    thetas = draw(st.lists(ANGLES, min_size=1, max_size=6))
    if kind is OperatorKind.LAURENT_GENERAL:
        pairs = st.tuples(st.integers(-3, 3), st.floats(-1.0, 1.0))
        return laurent(sorted(v), draw(st.lists(pairs, min_size=1, max_size=4))), thetas
    if kind is OperatorKind.JACOBI:
        a = draw(st.lists(st.floats(0.1, 3.0), min_size=p, max_size=p))
        return jacobi(v, a), thetas
    return schrodinger(v), thetas
