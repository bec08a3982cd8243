"""Hermitian eigensolves: ordering, empty inputs, trace, Weyl and Cauchy."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borg_spectra import eigvalsh_stack, hermitian_eigenvalues


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


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

    @pytest.mark.parametrize("shape, expected", [((0, 2, 2), (0, 2)), ((3, 0, 0), (3, 0))])
    def test_empty_stack(self, shape, expected):
        assert eigvalsh_stack(np.zeros(shape)).shape == expected


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
