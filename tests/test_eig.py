"""Hermitian eigensolves: ordering, empty inputs, trace, Weyl and Cauchy,
and the two solvers of `hermitian_eigenvalues` (band and dense)."""
from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borg_spectra import eig, eigvalsh_stack, hermitian_eigenvalues, truncate
from conftest import laurent, schrodinger

needs_band_solver = pytest.mark.skipif(
    eig._band_solver() is None,
    reason=f"numpy's LAPACK does not export {eig._BAND_SYMBOL}: only the dense path runs",
)

# the benchmark's p = 24 Laurent spec (kd = 47), and the period-5 staircase (kd = 1)
LAURENT_24 = laurent(0.8 * np.arange(24) + 0.1 * np.cos(np.arange(24)),
                     ((-1, 0.3), (0, 0.5), (1, 0.4), (2, 0.2)))
STAIRCASE = schrodinger((1.0, 1.1, 1.2, 1.3, 1.4))


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


def random_banded(rng: np.random.Generator, n: int, kd: int) -> np.ndarray:
    """Real symmetric n x n matrix, normal entries on every diagonal |d| <= kd."""
    m = rng.normal(size=(n, n))
    m = (m + m.T) / 2.0
    m[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > kd] = 0.0
    return m


def corner_nonzero(m: np.ndarray) -> np.ndarray:
    """m with one more symmetric pair at (n - 1, 0): kd = n - 1."""
    m[-1, 0] = m[0, -1] = 0.5
    return m


@pytest.fixture
def band_calls(monkeypatch):
    """(n, kd) of every call the band solver receives."""
    calls = []
    real = eig._band_solver()

    def spy(*args):
        calls.append(args[3:5])
        return real(*args)

    monkeypatch.setattr(eig, "_band_solver", lambda: spy)
    return calls


@needs_band_solver
class TestBandSolver:
    """dsbevd_2stage on LAPACK band storage against the dense eigvalsh."""

    @staticmethod
    def assert_agrees(m: np.ndarray) -> None:
        kd = eig._lower_bandwidth(m)
        band = eig._band_eigenvalues(eig._band_solver(), m, kd)
        dense = np.linalg.eigvalsh(m)
        assert np.max(np.abs(band - dense)) <= 1e-12 * max(1.0, np.linalg.norm(m, np.inf))

    @pytest.mark.parametrize("n", [33, 257, 1992])
    @pytest.mark.parametrize("kd", [0, 1, 2, 47, "n//32"])
    def test_random_banded_agrees(self, n, kd):
        kd = n // 32 if kd == "n//32" else kd
        m = random_banded(np.random.default_rng(n + kd), n, kd)
        assert eig._lower_bandwidth(m) == min(kd, n - 1)
        self.assert_agrees(m)

    @pytest.mark.parametrize("spec, blocks", [
        (LAURENT_24, 4), (LAURENT_24, 16), (LAURENT_24, 83), (STAIRCASE, 64),
    ], ids=["laurent-96", "laurent-384", "laurent-1992", "staircase-320"])
    def test_sections_agree(self, spec, blocks):
        self.assert_agrees(truncate(spec, blocks).entries)

    def test_benchmark_sections_select_by_size(self, band_calls):
        # kd = 47: the 96 and 384 sections stay dense, the 1992 one is banded
        for blocks in (4, 16, 83):
            hermitian_eigenvalues(truncate(LAURENT_24, blocks).entries)
        assert band_calls == [(1992, 47)]

    @pytest.mark.parametrize("build, expected", [
        pytest.param(lambda rng: random_banded(rng, 1024, 32), [(1024, 32)], id="32kd=n"),
        pytest.param(lambda rng: random_banded(rng, 1024, 33), [], id="32kd=n+32"),
        pytest.param(lambda rng: np.zeros((0, 0)), [], id="n=0"),
        pytest.param(lambda rng: random_banded(rng, 64, 1) + 0j, [], id="complex"),
        pytest.param(lambda rng: random_banded(rng, 64, 1).astype(np.float32), [],
                     id="float32"),
        pytest.param(lambda rng: corner_nonzero(random_banded(rng, 64, 1)), [],
                     id="corner-nonzero"),
    ])
    def test_selection(self, band_calls, build, expected):
        m = build(np.random.default_rng(7))
        values = hermitian_eigenvalues(m).values
        assert band_calls == expected
        tol = 1e-12 * max(1.0, float(np.linalg.norm(m, np.inf))) if len(m) else 0.0
        assert np.allclose(values, np.linalg.eigvalsh(m), rtol=0.0, atol=tol)

    def test_refused_call_raises(self, monkeypatch):
        # ldab = kd is an argument LAPACKE refuses (info = -7): it raises,
        # and the dense solve does not paper over it
        real = eig._band_solver()
        monkeypatch.setattr(
            eig, "_band_solver", lambda: lambda *a: real(*a[:6], a[6] - 1, *a[7:])
        )
        with pytest.raises(np.linalg.LinAlgError, match="info = -7"):
            hermitian_eigenvalues(random_banded(np.random.default_rng(1), 64, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises_as_dense_does(self, band_calls, bad):
        # LAPACKE refuses the NaN (info -6), LAPACK fails to converge on inf
        m = np.eye(64)
        m[5, 5] = bad
        with pytest.raises(np.linalg.LinAlgError, match="dsbevd_2stage failed"):
            hermitian_eigenvalues(m)
        assert band_calls == [(64, 0)]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvalsh(m)


class TestDenseFallback:
    def test_no_band_solver_is_bitwise_eigvalsh(self, monkeypatch):
        monkeypatch.setattr(eig, "_band_solver", lambda: None)
        rng = np.random.default_rng(5)
        for m in (random_banded(rng, 257, 2), random_banded(rng, 64, 0),
                  truncate(STAIRCASE, 64).entries):
            assert np.array_equal(hermitian_eigenvalues(m).values, np.linalg.eigvalsh(m))

    def test_positive_info_raises(self, monkeypatch):
        monkeypatch.setattr(eig, "_band_solver", lambda: lambda *args: 3)
        with pytest.raises(np.linalg.LinAlgError, match="info = 3"):
            hermitian_eigenvalues(np.eye(64))

    def test_loader_finds_nothing(self, monkeypatch):
        def missing(path):
            raise OSError(f"cannot open {path}")

        monkeypatch.setattr(eig, "_BAND_SYMBOL", "no_such_lapack_symbol")
        assert eig._band_solver.__wrapped__() is None
        monkeypatch.setattr(ctypes, "CDLL", missing)
        assert eig._band_solver.__wrapped__() is None


@given(st.integers(0, 10_000), st.integers(1, 40), st.floats(0.0, 0.5))
@settings(max_examples=80, deadline=None)
def test_lower_bandwidth_never_too_small(seed, n, density):
    rng = np.random.default_rng(seed)
    m = np.where(rng.random((n, n)) < density, rng.normal(size=(n, n)), 0.0)
    m = m + m.T
    exact = max((d for d in range(n) if np.any(np.diagonal(m, -d))), default=0)
    kd = eig._lower_bandwidth(m)
    assert kd >= exact
    if np.all(np.any(m != 0, axis=1)):
        assert kd == exact
