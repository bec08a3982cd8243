"""Hermitian eigensolves: ordering, empty inputs, trace, Weyl and Cauchy
for the dense stacked solve, and the two paths of `hermitian_eigenvalues`
on band storage (band and dense)."""
from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borg_spectra import eig, eigvalsh_stack, hermitian_eigenvalues, truncate
from conftest import LAURENT_24, STAIRCASE

needs_band_solver = pytest.mark.skipif(
    eig._band_solver() is None,
    reason=f"numpy's LAPACK does not export {eig._BAND_SYMBOL}: only the dense path runs",
)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2.0


def eigvalsh_one(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one dense Hermitian matrix, by the stacked solve."""
    return eigvalsh_stack(m[None])[0]


class TestHermitianEigenvalues:
    """The dense Hermitian solve, one matrix at a time."""

    def test_identity(self):
        assert np.allclose(eigvalsh_one(np.eye(4)), np.ones(4))

    def test_flip_matrix(self):
        assert np.allclose(eigvalsh_one(np.array([[0.0, 1.0], [1.0, 0.0]])), (-1.0, 1.0))

    def test_ascending_order(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = eigvalsh_one(random_hermitian(rng, 7))
            assert np.all(np.diff(vals) >= 0.0)

    def test_empty_matrix(self):
        assert eigvalsh_one(np.zeros((0, 0))).shape == (0,)

    @given(st.integers(0, 10_000), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_trace_identity(self, seed, n):
        m = random_hermitian(np.random.default_rng(seed), n)
        vals = eigvalsh_one(m)
        scale = max(1.0, float(np.max(np.abs(m))))
        assert abs(float(np.sum(vals)) - float(np.trace(m).real)) <= n * 1e-12 * scale

    @given(st.integers(0, 10_000), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_weyl_perturbation_bound(self, seed, n):
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, n)
        e = random_hermitian(rng, n)
        lam = eigvalsh_one(m)
        lam_pert = eigvalsh_one(m + e)
        assert float(np.max(np.abs(lam - lam_pert))) <= np.linalg.norm(e, 2) + 1e-10

    @given(st.integers(0, 10_000), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_cauchy_interlacing_principal_submatrix(self, seed, n):
        m = random_hermitian(np.random.default_rng(seed), n)
        lam = eigvalsh_one(m)
        mu = eigvalsh_one(m[:-1, :-1])
        assert np.all(lam[:-1] <= mu + 1e-10)
        assert np.all(mu <= lam[1:] + 1e-10)


class TestEigvalshStack:
    def test_matches_individual_calls(self):
        rng = np.random.default_rng(11)
        stack = np.stack([random_hermitian(rng, 5) for _ in range(9)])
        batched = eigvalsh_stack(stack)
        for i in range(9):
            single = np.linalg.eigvalsh(stack[i])
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


def random_band(rng: np.random.Generator, n: int, kd: int) -> np.ndarray:
    """Lower band storage (n, kd + 1) of a real symmetric n x n matrix with
    normal entries on every diagonal |d| <= kd; kd < n is exact."""
    band = rng.normal(size=(n, kd + 1))
    for d in range(1, kd + 1):
        band[n - d :, d] = 0.0  # cells past the matrix
    return band


def dense(band: np.ndarray) -> np.ndarray:
    """The float64 symmetric matrix that `band` stores, diagonal by diagonal."""
    n = len(band)
    m = np.diag(band[:, 0].astype(np.float64))
    for d in range(1, band.shape[1]):
        m += np.diag(band[: n - d, d], -d) + np.diag(band[: n - d, d], d)
    return m


def corner_nonzero(band: np.ndarray) -> np.ndarray:
    """`band` widened to kd = n - 1 by one more symmetric pair at (n - 1, 0)."""
    wide = np.zeros((len(band), len(band)))
    wide[:, : band.shape[1]] = band
    wide[0, -1] = 0.5
    return wide


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
    def assert_agrees(band: np.ndarray) -> None:
        m = dense(band)
        values = hermitian_eigenvalues(band).values
        assert np.max(np.abs(values - np.linalg.eigvalsh(m))) <= (
            1e-12 * max(1.0, np.linalg.norm(m, np.inf)))

    @pytest.mark.parametrize("n", [33, 257, 1992])
    @pytest.mark.parametrize("kd", [0, 1, 2, 47, "n//32"])
    def test_random_banded_agrees(self, n, kd):
        kd = min(n // 32 if kd == "n//32" else kd, n - 1)
        self.assert_agrees(random_band(np.random.default_rng(n + kd), n, kd))

    @pytest.mark.parametrize("spec, blocks, periodic", [
        (LAURENT_24, 4, False), (LAURENT_24, 16, False), (LAURENT_24, 83, False),
        (STAIRCASE, 32, False), (STAIRCASE, 64, False), (STAIRCASE, 16, True),
        (LAURENT_24, 8, True),
    ], ids=["laurent-96", "laurent-384", "laurent-1992", "staircase-160", "staircase-320",
            "staircase-wrapped-80", "laurent-wrapped-192"])
    def test_sections_agree(self, spec, blocks, periodic):
        self.assert_agrees(truncate(spec, blocks, periodic=periodic).band)

    def test_every_section_reaches_band_solver(self, band_calls):
        # kd = 36 at every size, and a wrapped section's corner makes kd = n - 1
        for blocks in (4, 16, 83):
            hermitian_eigenvalues(truncate(LAURENT_24, blocks).band)
        hermitian_eigenvalues(truncate(STAIRCASE, 16, periodic=True).band)
        assert band_calls == [(96, 36), (384, 36), (1992, 36), (80, 79)]

    @pytest.mark.parametrize("build, expected", [
        # either side of the former 32 kd <= n crossover: both banded
        pytest.param(lambda rng: random_band(rng, 1024, 32), [(1024, 32)], id="32kd=n"),
        pytest.param(lambda rng: random_band(rng, 1024, 33), [(1024, 33)], id="32kd=n+32"),
        pytest.param(lambda rng: np.zeros((0, 1)), [], id="n=0"),
        # the band solve takes a float64 copy of any real band
        pytest.param(lambda rng: random_band(rng, 64, 1).astype(np.float32), [(64, 1)],
                     id="float32"),
        pytest.param(lambda rng: corner_nonzero(random_band(rng, 64, 1)), [(64, 63)],
                     id="corner-nonzero"),
    ])
    def test_selection(self, band_calls, build, expected):
        band = build(np.random.default_rng(7))
        m = dense(band)
        values = hermitian_eigenvalues(band).values
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
            hermitian_eigenvalues(random_band(np.random.default_rng(1), 64, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises_as_dense_does(self, band_calls, bad):
        # LAPACKE refuses the NaN (info -6), LAPACK fails to converge on inf
        band = np.ones((64, 1))
        band[5, 0] = bad
        with pytest.raises(np.linalg.LinAlgError, match="dsbevd_2stage failed"):
            hermitian_eigenvalues(band)
        assert band_calls == [(64, 0)]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvalsh(dense(band))

    def test_band_is_not_overwritten(self):
        band = random_band(np.random.default_rng(2), 64, 1)
        kept = band.copy()
        hermitian_eigenvalues(band)
        assert np.array_equal(band, kept)


class TestDenseFallback:
    def test_no_band_solver_is_bitwise_eigvalsh(self, monkeypatch):
        monkeypatch.setattr(eig, "_band_solver", lambda: None)
        rng = np.random.default_rng(5)
        for band in (random_band(rng, 257, 2), random_band(rng, 64, 0),
                     truncate(STAIRCASE, 64).band):
            assert np.array_equal(hermitian_eigenvalues(band).values,
                                  np.linalg.eigvalsh(dense(band)))

    def test_expansion_matches_entries(self):
        for band in (random_band(np.random.default_rng(6), 40, 3),
                     truncate(LAURENT_24, 4).band):
            assert np.array_equal(eig._band_to_dense(band), dense(band))

    def test_positive_info_raises(self, monkeypatch):
        monkeypatch.setattr(eig, "_band_solver", lambda: lambda *args: 3)
        with pytest.raises(np.linalg.LinAlgError, match="info = 3"):
            hermitian_eigenvalues(np.ones((64, 1)))

    def test_loader_finds_nothing(self, monkeypatch):
        def missing(path):
            raise OSError(f"cannot open {path}")

        monkeypatch.setattr(eig, "_BAND_SYMBOL", "no_such_lapack_symbol")
        assert eig._band_solver.__wrapped__() is None
        monkeypatch.setattr(ctypes, "CDLL", missing)
        assert eig._band_solver.__wrapped__() is None
