"""Symbol construction: operator specs, wrapping, Hermiticity, shifts."""
from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borg_spectra import (
    InvalidParameterError,
    InvalidSpecError,
    OperatorKind,
    OperatorSpec,
    band_table,
    hermitian_eigenvalues,
    interlacing_submatrix,
    lipschitz_bound,
    symbol,
    symbol_stack,
    wrap_theta,
)
from borg_spectra.symbols import _bonds
from conftest import any_symbol_args, jacobi, laurent, random_laurent, schrodinger


def m_plus_mh_stack(spec, shift, thetas) -> np.ndarray:
    """The reference assembly: the strict upper triangle and the corner in m,
    then m + m^H, then the diagonal."""
    p = spec.period
    th = np.array([wrap_theta(t) for t in thetas])
    interior, pairs = _bonds(spec, shift)
    corner = np.zeros(len(th), dtype=complex)
    for k, coeff in pairs:
        corner += coeff * np.exp(1j * k * th)
    m = np.zeros((len(th), p, p), dtype=complex)
    idx = np.arange(p - 1)
    m[:, idx, idx + 1] = interior
    m[:, 0, p - 1] += corner
    m = m + np.conjugate(np.swapaxes(m, 1, 2))
    m[:, np.arange(p), np.arange(p)] += np.asarray(spec.v)[(shift + np.arange(p)) % p]
    return m


class TestWrapTheta:
    def test_identity_on_domain(self):
        for t in (-3.0, -1.0, 0.0, 1.0, math.pi):
            assert wrap_theta(t) == pytest.approx(t, abs=0)

    def test_left_endpoint_maps_to_pi(self):
        assert wrap_theta(-math.pi) == pytest.approx(math.pi)
        assert wrap_theta(3 * math.pi) == pytest.approx(math.pi)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            wrap_theta(float("nan"))
        with pytest.raises(InvalidParameterError):
            wrap_theta(float("inf"))

    @given(st.floats(-50.0, 50.0), st.integers(-5, 5))
    def test_period_2pi(self, theta, k):
        w1 = wrap_theta(theta)
        w2 = wrap_theta(theta + 2.0 * math.pi * k)
        assert -math.pi < w1 <= math.pi
        assert w1 == pytest.approx(w2, abs=1e-9)


class TestOperatorSpec:
    def test_schrodinger_defaults(self):
        spec = schrodinger((0.0, 1.0))
        assert spec.kind is OperatorKind.SCHRODINGER
        assert np.array_equal(spec.offdiagonals(), np.ones(2))

    def test_rejects_bad_period(self):
        with pytest.raises(InvalidSpecError):
            OperatorSpec(kind=OperatorKind.SCHRODINGER, period=0, v=())
        with pytest.raises(InvalidSpecError):
            OperatorSpec(kind=OperatorKind.SCHRODINGER, period=2, v=(1.0,))

    def test_rejects_non_finite_potential(self):
        with pytest.raises(InvalidSpecError):
            schrodinger((0.0, float("nan")))

    def test_jacobi_needs_positive_weights(self):
        with pytest.raises(InvalidSpecError):
            jacobi((0.0, 0.0), (1.0, 0.0))
        with pytest.raises(InvalidSpecError):
            jacobi((0.0, 0.0), (1.0, -1.0))

    def test_jacobi_defaults_to_unit_weights(self):
        spec = OperatorSpec(kind=OperatorKind.JACOBI, period=2, v=(0.0, 1.0))
        assert spec.a == (1.0, 1.0)

    def test_laurent_requires_fourier_and_sorted_v(self):
        with pytest.raises(InvalidSpecError):
            OperatorSpec(kind=OperatorKind.LAURENT_GENERAL, period=2, v=(0.0, 1.0))
        with pytest.raises(InvalidSpecError):
            laurent((1.0, 0.0), ((1, 1.0),))

    def test_schrodinger_rejects_custom_weights(self):
        with pytest.raises(InvalidSpecError):
            OperatorSpec(
                kind=OperatorKind.SCHRODINGER, period=2, v=(0.0, 1.0), a=(2.0, 2.0)
            )

    @pytest.mark.parametrize("kwargs", [
        dict(kind=OperatorKind.LAURENT_GENERAL, period=1, v=(0.0,),
             fourier=((10**400, 1.0),)),
        dict(kind=OperatorKind.LAURENT_GENERAL, period=1, v=(0.0,),
             fourier=((1, 10**400),)),
        dict(kind=OperatorKind.SCHRODINGER, period=1, v=(10**400,)),
        dict(kind=OperatorKind.JACOBI, period=1, v=(0.0,), a=(10**400,)),
        dict(kind=OperatorKind.SCHRODINGER, period=1, v=("x",)),
        dict(kind=OperatorKind.LAURENT_GENERAL, period=1, v=(0.0,), fourier=((1,),)),
    ], ids=["huge-index", "huge-coefficient", "huge-v", "huge-a", "string-v", "short-pair"])
    def test_direct_construction_rejects_bad_entries(self, kwargs):
        with pytest.raises(InvalidSpecError):
            OperatorSpec(**kwargs)

    def test_json_round_trip(self):
        spec = jacobi((0.5, -0.5, 1.0), (1.0, 2.0, 0.5))
        again = OperatorSpec.from_json(json.dumps(spec.to_dict()))
        assert again == spec

    def test_from_json_rejects_garbage(self):
        with pytest.raises(InvalidSpecError):
            OperatorSpec.from_json("not json at all")
        with pytest.raises(InvalidSpecError):
            OperatorSpec.from_json('{"kind": "unknown", "period": 1, "v": [0]}')


class TestSymbolShape:
    def test_period_one_is_scalar_cosine(self):
        spec = schrodinger((0.7,))
        for theta in (-2.0, 0.0, 1.3, math.pi):
            m = symbol(spec, 0, theta)
            assert m.shape == (1, 1)
            assert m[0, 0] == pytest.approx(0.7 + 2.0 * math.cos(theta))

    def test_period_two_offdiagonal_sums_corner(self):
        spec = jacobi((0.0, 0.0), (1.25, 0.75))
        theta = 0.9
        m = symbol(spec, 0, theta)
        expected = 1.25 + 0.75 * np.exp(1j * theta)
        assert m[0, 1] == pytest.approx(expected)
        assert m[1, 0] == pytest.approx(np.conj(expected))

    def test_gap_endpoints_diagonalize_at_pi(self):
        # v=(0, d): at theta=pi the off-diagonal 1 + e^{i pi} vanishes
        spec = schrodinger((0.0, 0.25))
        m = symbol(spec, 0, math.pi)
        assert np.allclose(m, np.array([[0.0, 0.0], [0.0, 0.25]]), atol=1e-15)

    def test_interior_structure(self):
        spec = schrodinger((1.0, 1.1, 1.2, 1.3, 1.4))
        theta = 0.4
        m = symbol(spec, 0, theta)
        assert np.allclose(np.diag(m), spec.v)
        for i in range(4):
            assert m[i, i + 1] == pytest.approx(1.0)
        assert m[0, 4] == pytest.approx(np.exp(1j * theta))
        assert m[2, 0] == 0.0

    def test_shift_rotates_coefficients(self):
        spec = jacobi((1.0, 2.0, 3.0), (0.5, 0.7, 0.9))
        m = symbol(spec, 1, 0.3)
        assert np.allclose(np.diag(m), (2.0, 3.0, 1.0))
        assert m[0, 1] == pytest.approx(0.7)
        assert m[1, 2] == pytest.approx(0.9)
        assert abs(m[0, 2]) == pytest.approx(0.5)

    def test_shift_out_of_range(self):
        spec = schrodinger((0.0, 1.0))
        with pytest.raises(InvalidParameterError):
            symbol(spec, 2, 0.0)
        with pytest.raises(InvalidParameterError):
            symbol(spec, -1, 0.0)

    def test_laurent_corner_series(self):
        spec = laurent((0.0, 0.5, 1.0), ((1, 1.0), (-2, 0.25)))
        theta = 0.7
        m = symbol(spec, 0, theta)
        g = 1.0 * np.exp(1j * theta) + 0.25 * np.exp(-2j * theta)
        assert m[0, 2] == pytest.approx(g)
        assert m[2, 0] == pytest.approx(np.conj(g))

    def test_laurent_shift_rejected(self):
        spec = laurent((0.0, 1.0), ((1, 1.0),))
        with pytest.raises(InvalidParameterError):
            symbol(spec, 1, 0.0)


class TestSymbolStack:
    def test_matches_single_symbol(self):
        spec = jacobi((0.1, -0.4, 0.9), (1.0, 1.5, 0.5))
        thetas = np.array([-1.0, 0.0, 2.5])
        stack = symbol_stack(spec, 0, thetas)
        for i, t in enumerate(thetas):
            assert np.allclose(stack[i], symbol(spec, 0, float(t)))

    @given(any_symbol_args())
    @settings(max_examples=150, deadline=None)
    def test_always_exactly_hermitian(self, args):
        stack = symbol_stack(*args)
        assert np.max(np.abs(stack - np.conj(np.swapaxes(stack, 1, 2)))) == 0.0

    @given(any_symbol_args())
    @settings(max_examples=150, deadline=None)
    def test_matches_m_plus_mh_assembly(self, args):
        # both triangles are written in place; the sums must be those of m + m^H
        assert symbol_stack(*args).tobytes() == m_plus_mh_stack(*args).tobytes()

    def test_holds_one_stack(self):
        spec = random_laurent(np.random.default_rng(8), 24)
        thetas = np.linspace(0.0, math.pi, 1025)
        tracemalloc.start()
        try:
            stack = symbol_stack(spec, 0, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * stack.nbytes

    @pytest.mark.parametrize("spec", [
        schrodinger((0.3,)),
        laurent((0.3,), ((1, 0.5), (-2, 0.25), (3, 0.1))),
    ], ids=["schrodinger", "laurent"])
    def test_period_one_table_peak(self, spec):
        # at p = 1 the (N // 2 + 1,) vectors set the peak: the grid, its copy,
        # the corner and one term buffer, under 3.5 half-grid stacks
        n = 1 << 18
        tracemalloc.start()
        try:
            band_table(spec, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * (n // 2 + 1) * 16

    @pytest.mark.parametrize("spec, shift", [
        (jacobi((0.1, -0.4, 0.9), (1.0, 1.5, 0.5)), 1),
        (laurent((0.0, 0.5), ((1, 0.5), (-2, 0.25))), 0),
    ], ids=["jacobi", "laurent"])
    def test_wrapping_matches_wrap_theta(self, spec, shift):
        rng = np.random.default_rng(3)
        base = rng.uniform(-math.pi, math.pi, size=40)
        ks = rng.integers(-4, 5, size=40)
        thetas = np.concatenate(
            [base + 2.0 * math.pi * ks, [math.pi, -math.pi, 3.0 * math.pi]]
        )
        before = thetas.copy()
        expected = symbol_stack(spec, shift, [wrap_theta(t) for t in thetas.tolist()])
        assert np.array_equal(symbol_stack(spec, shift, thetas), expected)
        assert np.array_equal(thetas, before)  # the caller's array is not wrapped

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_theta(self, bad):
        spec = jacobi((0.1, -0.4, 0.9), (1.0, 1.5, 0.5))
        with pytest.raises(InvalidParameterError):
            symbol_stack(spec, 0, np.array([0.5, bad]))

    def test_eigenvalues_shift_invariant(self):
        spec = jacobi((0.3, -1.0, 0.5, 2.0), (0.7, 1.1, 1.9, 0.6))
        theta = 1.234
        base = hermitian_eigenvalues(symbol(spec, 0, theta)).values
        for k in range(1, 4):
            shifted = hermitian_eigenvalues(symbol(spec, k, theta)).values
            assert np.allclose(base, shifted, atol=1e-12)


class TestInterlacingSubmatrix:
    def test_drops_last_row_and_column(self):
        spec = jacobi((1.0, 2.0, 3.0), (0.4, 0.6, 0.8))
        sub = interlacing_submatrix(spec, 0)
        assert sub.shape == (2, 2)
        assert np.allclose(np.diag(sub), (1.0, 2.0))
        assert sub[0, 1] == pytest.approx(0.4)

    def test_theta_independent_by_construction(self):
        spec = schrodinger((0.0, 1.0, 2.0))
        sub = interlacing_submatrix(spec, 0)
        assert np.allclose(sub.imag, 0.0)

    def test_needs_period_two(self):
        with pytest.raises(InvalidSpecError):
            interlacing_submatrix(schrodinger((0.0,)), 0)


class TestNormBound:
    def test_tridiagonal_families(self):
        assert schrodinger((0.0, -3.0)).norm_bound() == pytest.approx(5.0)
        assert jacobi((1.0, 0.0), (0.5, 3.0)).norm_bound() == pytest.approx(7.0)

    def test_laurent_adds_corner_series(self):
        spec = laurent((0.0, 1.0), ((1, 1.0), (-2, 0.25)))
        assert spec.norm_bound() == pytest.approx(1.0 + 2.0 + 2.0 * 1.25)

    @given(st.integers(1, 6), st.integers(0, 981), st.floats(-3.1, 3.1))
    @settings(max_examples=40, deadline=None)
    def test_bounds_the_symbol_norm(self, p, seed, theta):
        rng = np.random.default_rng(seed)
        spec = jacobi(rng.uniform(-2, 2, size=p), rng.uniform(0.2, 2, size=p))
        for k in range(p):
            assert np.linalg.norm(symbol(spec, k, theta), 2) <= spec.norm_bound() + 1e-12
        spec = laurent(np.sort(spec.v), ((1, spec.a[0]), (-2, -spec.a[-1])))
        assert np.linalg.norm(symbol(spec, 0, theta), 2) <= spec.norm_bound() + 1e-12


class TestLipschitzBound:
    def test_schrodinger_is_two(self):
        # two only at p = 1, where the corner pair collides on 2 cos theta
        assert lipschitz_bound(schrodinger((0.0, 1.0, 2.0))) == pytest.approx(1.0)
        assert lipschitz_bound(schrodinger((0.5,))) == pytest.approx(2.0)

    def test_jacobi_uses_corner_weight(self):
        assert lipschitz_bound(jacobi((0.0, 0.0), (0.5, 3.0))) == pytest.approx(3.0)

    def test_laurent_weighted_series(self):
        spec = laurent((0.0, 1.0), ((1, 1.0), (-2, 0.25)))
        assert lipschitz_bound(spec) == pytest.approx(1.0 + 2 * 0.25)

    @given(st.integers(0, 10_000), st.integers(1, 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_band_slopes_within_bound(self, seed, p, is_laurent):
        # p = 1 covers the corner collision that doubles the bound
        rng = np.random.default_rng(seed)
        if is_laurent:
            spec = random_laurent(rng, p)
        else:
            spec = jacobi(rng.uniform(-2.0, 2.0, size=p), rng.uniform(0.3, 2.0, size=p))
        table = band_table(spec, 401)
        slopes = np.abs(np.diff(table.bands, axis=1)) / np.diff(table.grid)
        assert np.max(slopes) <= lipschitz_bound(spec) + 1e-9 * max(1.0, spec.norm_bound())
