"""Hermitian eigensolver contract: ordering, Hermiticity gate, trace/Weyl."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borg_spectra import (
    ContractViolationError,
    eigvalsh_stack,
    hermitian_eigenvalues,
)
from borg_spectra.eig import _BLOCK_ENTRIES, _check_hermitian


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


def multi_block(shape: str, dtype) -> np.ndarray:
    """A Hermitian matrix or stack of 5 x 5 matrices spanning about 16
    blocks of the check, the last one partial."""
    rng = np.random.default_rng(5)
    if shape == "matrix":
        shape = (4 * math.isqrt(_BLOCK_ENTRIES) + 3,) * 2
    else:
        shape = (16 * _BLOCK_ENTRIES // 25 + 7, 5, 5)
    arr = rng.normal(size=shape).astype(dtype)
    if dtype is complex:
        arr += 1j * rng.normal(size=shape)
    return arr + np.conj(np.swapaxes(arr, -1, -2))


class TestHermitianEigenvalues:
    def test_identity(self):
        res = hermitian_eigenvalues(np.eye(4))
        assert np.allclose(res.values, np.ones(4))

    def test_flip_matrix(self):
        res = hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(res.values, (-1.0, 1.0))

    def test_ascending_order(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = hermitian_eigenvalues(random_hermitian(rng, 7)).values
            assert np.all(np.diff(vals) >= 0.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        # NaN fails every comparison, so the asymmetry test must not be `asym > tol`
        with pytest.raises(ContractViolationError):
            eigvalsh_stack(np.full((1, 2, 2), np.nan))
        with pytest.raises(ContractViolationError):
            hermitian_eigenvalues(np.full((2, 2), np.nan))

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
            np.stack([np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]])]),
            np.array([[1.0, np.nan], [np.nan, 1.0]]),
            np.array([[0.0, 1j], [1j, 0.0]]),
            np.array([[1j]]),
        ],
        ids=["real-asymmetric", "real-stack-member", "real-nan",
             "complex-symmetric", "complex-diagonal"],
    )
    def test_check_rejects(self, arr):
        with pytest.raises(ContractViolationError):
            _check_hermitian(arr)

    def test_real_check_holds_one_temporary(self):
        # no conjugate copy: the difference is the only array-sized temporary
        arr = np.random.default_rng(5).normal(size=(1024, 1024))
        arr = arr + arr.T
        tracemalloc.start()
        try:
            _check_hermitian(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * arr.nbytes

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("shape", ["matrix", "stack"])
    def test_check_holds_only_blocks(self, shape, dtype):
        # every temporary is one block of rows or of matrices, not a copy
        arr = multi_block(shape, dtype)
        tracemalloc.start()
        try:
            _check_hermitian(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * arr.nbytes

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("shape", ["matrix", "stack"])
    @pytest.mark.parametrize("fault", ["nan", "asymmetry"])
    def test_fault_in_last_block_only(self, shape, dtype, fault):
        arr = multi_block(shape, dtype)
        _check_hermitian(arr)
        # entry (-1, -2) and its mirror are both in the last block alone
        tail = arr[-1] if shape == "stack" else arr
        tail[-1, -2] = np.nan if fault == "nan" else tail[-1, -2] + 1e-6
        with pytest.raises(ContractViolationError):
            _check_hermitian(arr)

    @pytest.mark.parametrize("shape", ["matrix", "stack"])
    def test_tolerance_edge(self, shape):
        # max|A| = 4, so the bound is 4e-12; the asymmetric pair is (x, 0)
        arr = multi_block(shape, complex)
        arr /= np.abs(arr).max() / 4.0
        tail = arr[-1] if shape == "stack" else arr
        tail[-1, -2] = tail[-2, -1] = 0.0
        tail[-1, -2] = 4e-12 * (1.0 - 1e-6)
        _check_hermitian(arr)
        tail[-1, -2] = 4e-12 * (1.0 + 1e-6)
        with pytest.raises(ContractViolationError):
            _check_hermitian(arr)

    def test_empty_matrix(self):
        res = hermitian_eigenvalues(np.zeros((0, 0)))
        assert res.values.shape == (0,)

    @given(st.integers(0, 10_000), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_trace_identity(self, seed, n):
        m = random_hermitian(np.random.default_rng(seed), n)
        vals = hermitian_eigenvalues(m).values
        scale = max(1.0, float(np.max(np.abs(m))))
        assert abs(float(np.sum(vals)) - float(np.trace(m).real)) <= n * 1e-12 * scale

    @given(st.integers(0, 10_000), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_weyl_perturbation_bound(self, seed, n):
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, n)
        e = random_hermitian(rng, n)
        lam = hermitian_eigenvalues(m).values
        lam_pert = hermitian_eigenvalues(m + e).values
        assert float(np.max(np.abs(lam - lam_pert))) <= np.linalg.norm(e, 2) + 1e-10

    @given(st.integers(0, 10_000), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_cauchy_interlacing_principal_submatrix(self, seed, n):
        m = random_hermitian(np.random.default_rng(seed), n)
        lam = hermitian_eigenvalues(m).values
        mu = hermitian_eigenvalues(m[:-1, :-1]).values
        assert np.all(lam[:-1] <= mu + 1e-10)
        assert np.all(mu <= lam[1:] + 1e-10)


class TestEigvalshStack:
    def test_matches_individual_calls(self):
        rng = np.random.default_rng(11)
        stack = np.stack([random_hermitian(rng, 5) for _ in range(9)])
        batched = eigvalsh_stack(stack)
        for i in range(9):
            single = hermitian_eigenvalues(stack[i]).values
            assert np.allclose(batched[i], single, atol=1e-12)

    def test_rejects_non_hermitian_member(self):
        stack = np.zeros((2, 2, 2), dtype=complex)
        stack[1, 0, 1] = 1.0  # asymmetric entry
        with pytest.raises(ContractViolationError):
            eigvalsh_stack(stack)

    @pytest.mark.parametrize("shape, expected", [((0, 2, 2), (0, 2)), ((3, 0, 0), (3, 0))])
    def test_empty_stack(self, shape, expected):
        assert eigvalsh_stack(np.zeros(shape)).shape == expected

    def test_empty_stack_must_be_square(self):
        with pytest.raises(ContractViolationError):
            eigvalsh_stack(np.zeros((0, 2, 3)))


class TestOperatorNorm:
    """np.linalg.norm(m, 2), the spectral norm the Weyl-bound tests use."""

    def test_hermitian_norm_is_max_abs_eigenvalue(self):
        m = np.diag([3.0, -5.0, 1.0])
        assert np.linalg.norm(m, 2) == pytest.approx(5.0)

    def test_non_hermitian_uses_singular_value(self):
        m = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert np.linalg.norm(m, 2) == pytest.approx(2.0)

    def test_zero_matrix(self):
        assert np.linalg.norm(np.zeros((3, 3)), 2) == 0.0
