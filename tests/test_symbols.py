"""Symbol construction: operator specs, the theta domain, Hermiticity, and
the interlacing blocks J_k."""
from __future__ import annotations

import json
import math
import tracemalloc
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borg_spectra import (
    BorgSpectraError,
    Convergent,
    InvalidParameterError,
    InvalidSpecError,
    OperatorKind,
    OperatorSpec,
    RealSpectrum,
    approximant_sweep,
    band_table,
    best_constant,
    compute_spectrum,
    connectivity,
    convergents,
    converse_from_spectrum,
    forward_from_spectrum,
    interlacing_submatrix,
    lipschitz_bound,
    mathieu_potential,
    merge_intervals,
    pseudospectrum_intervals,
    spectrum_from_points,
    symbol_stack,
    tenmartini_premise,
    theta_grid,
    truncate,
    truncation_compare,
)
from borg_spectra.borg import check_epsilon
from borg_spectra.symbols import _bonds
from conftest import any_symbol_args, jacobi, laurent, random_laurent, schrodinger


def symbol(spec, theta) -> np.ndarray:
    """One symbol matrix f(theta), shape (p, p)."""
    return symbol_stack(spec, [theta])[0]


def m_plus_mh_stack(spec, thetas) -> np.ndarray:
    """The reference assembly: the strict upper triangle and the corner in m,
    then m + m^H, then the diagonal."""
    p = spec.period
    th = np.array(thetas)
    interior, pairs = _bonds(spec)
    corner = np.zeros(len(th), dtype=complex)
    for k, coeff in pairs:
        corner += coeff * np.exp(1j * k * th)
    m = np.zeros((len(th), p, p), dtype=complex)
    idx = np.arange(p - 1)
    m[:, idx, idx + 1] = interior
    m[:, 0, p - 1] += corner
    m = m + np.conjugate(np.swapaxes(m, 1, 2))
    m[:, np.arange(p), np.arange(p)] += np.asarray(spec.v)
    return m


def assert_theta_refused(bad: float) -> None:
    """symbol_stack refuses an angle off (-pi, pi] with one line, and leaves
    the caller's grid as it was."""
    spec = jacobi((0.1, -0.4, 0.9), (1.0, 1.5, 0.5))
    thetas = np.array([0.5, math.pi, bad])
    before = thetas.copy()
    with pytest.raises(InvalidParameterError) as info:
        symbol_stack(spec, thetas)
    assert str(info.value).startswith("theta must lie in (-pi, pi]")
    assert "\n" not in str(info.value)
    assert np.array_equal(thetas, before, equal_nan=True)


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

    def test_schrodinger_unit_weights_stored_implicit(self):
        spec = OperatorSpec(kind=OperatorKind.SCHRODINGER, period=2, v=(0.0, 1.0), a=(1.0, 1.0))
        assert spec.a is None and spec == schrodinger((0.0, 1.0))

    @pytest.mark.parametrize("kwargs", [
        dict(kind=OperatorKind.LAURENT_GENERAL, period=1, v=(0.0,),
             fourier=((10**400, 1.0),)),
        dict(kind=OperatorKind.LAURENT_GENERAL, period=1, v=(0.0,),
             fourier=((1, 10**400),)),
        dict(kind=OperatorKind.SCHRODINGER, period=1, v=(10**400,)),
        dict(kind=OperatorKind.JACOBI, period=1, v=(0.0,), a=(10**400,)),
        dict(kind=OperatorKind.SCHRODINGER, period=1, v=("x",)),
        dict(kind=OperatorKind.LAURENT_GENERAL, period=1, v=(0.0,), fourier=((1,),)),
        dict(kind=OperatorKind.SCHRODINGER, period=1, v=5),
        dict(kind=OperatorKind.JACOBI, period=1, v=(0.0,), a=2.0),
        dict(kind=OperatorKind.LAURENT_GENERAL, period=1, v=(0.0,), fourier=1),
        dict(kind="schrodinger", period=1, v=(0.0,)),
    ], ids=["huge-index", "huge-coefficient", "huge-v", "huge-a", "string-v", "short-pair",
            "scalar-v", "scalar-a", "scalar-fourier", "string-kind"])
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
            m = symbol(spec, theta)
            assert m.shape == (1, 1)
            assert m[0, 0] == pytest.approx(0.7 + 2.0 * math.cos(theta))

    def test_period_two_offdiagonal_sums_corner(self):
        spec = jacobi((0.0, 0.0), (1.25, 0.75))
        theta = 0.9
        m = symbol(spec, theta)
        expected = 1.25 + 0.75 * np.exp(1j * theta)
        assert m[0, 1] == pytest.approx(expected)
        assert m[1, 0] == pytest.approx(np.conj(expected))

    def test_gap_endpoints_diagonalize_at_pi(self):
        # v=(0, d): at theta=pi the off-diagonal 1 + e^{i pi} vanishes
        spec = schrodinger((0.0, 0.25))
        m = symbol(spec, math.pi)
        assert np.allclose(m, np.array([[0.0, 0.0], [0.0, 0.25]]), atol=1e-15)

    def test_interior_structure(self):
        spec = schrodinger((1.0, 1.1, 1.2, 1.3, 1.4))
        theta = 0.4
        m = symbol(spec, theta)
        assert np.allclose(np.diag(m), spec.v)
        for i in range(4):
            assert m[i, i + 1] == pytest.approx(1.0)
        assert m[0, 4] == pytest.approx(np.exp(1j * theta))
        assert m[2, 0] == 0.0

    def test_shift_rotates_coefficients(self):
        # J_2 of f_2: the sequences rotated by two sites, modulo p
        spec = jacobi((1.0, 2.0, 3.0, 4.0), (0.5, 0.7, 0.9, 1.1))
        sub = interlacing_submatrix(spec, 2)
        assert np.array_equal(np.diag(sub), (3.0, 4.0, 1.0))
        assert np.array_equal(np.diag(sub, 1), (0.9, 1.1))
        assert np.array_equal(np.diag(sub, -1), (0.9, 1.1))

    def test_shift_out_of_range(self):
        spec = schrodinger((0.0, 1.0))
        for shift in (2, -1, 1.0, True):
            with pytest.raises(InvalidParameterError):
                interlacing_submatrix(spec, shift)

    def test_laurent_corner_series(self):
        spec = laurent((0.0, 0.5, 1.0), ((1, 1.0), (-2, 0.25)))
        theta = 0.7
        m = symbol(spec, theta)
        g = 1.0 * np.exp(1j * theta) + 0.25 * np.exp(-2j * theta)
        assert m[0, 2] == pytest.approx(g)
        assert m[2, 0] == pytest.approx(np.conj(g))

    def test_laurent_shift_rejected(self):
        spec = laurent((0.0, 1.0), ((1, 1.0),))
        with pytest.raises(InvalidParameterError):
            interlacing_submatrix(spec, 1)


class TestSymbolStack:
    def test_matches_single_symbol(self):
        spec = jacobi((0.1, -0.4, 0.9), (1.0, 1.5, 0.5))
        thetas = np.array([-1.0, 0.0, 2.5])
        stack = symbol_stack(spec, thetas)
        for i, t in enumerate(thetas):
            assert np.array_equal(stack[i], symbol(spec, float(t)))

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
            stack = symbol_stack(spec, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * stack.nbytes

    @pytest.mark.parametrize("spec", [
        schrodinger((0.3,)),
        laurent((0.3,), ((1, 0.5), (-2, 0.25), (3, 0.1))),
    ], ids=["schrodinger", "laurent"])
    def test_period_one_table_peak(self, spec):
        # at p = 1 the (N // 2 + 1,) vectors set the peak: the grid, the
        # corner and one term buffer, under 3.5 half-grid stacks
        n = 1 << 18
        tracemalloc.start()
        try:
            band_table(spec, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * (n // 2 + 1) * 16

    @pytest.mark.parametrize("bad", [-math.pi, 3.0 * math.pi], ids=["-pi", "3pi"])
    def test_rejects_theta_off_domain(self, bad):
        # the left endpoint and angles past pi are refused, not wrapped
        assert_theta_refused(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_theta(self, bad):
        assert_theta_refused(bad)


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

    @pytest.mark.parametrize("p", [2, 3, 4, 7])
    def test_matches_direct_construction(self, p):
        # diagonal v_{k+1..k+p-1} and off-diagonals a_{k+1..k+p-2}, entry by entry
        rng = np.random.default_rng(p)
        v, a = rng.uniform(-2.0, 2.0, size=p), rng.uniform(0.2, 2.0, size=p)
        cases = [
            (schrodinger(v), np.ones(p), range(p)),
            (jacobi(v, a), a, range(p)),
            (laurent(np.sort(v), ((1, 0.5), (-2, 0.25))), np.ones(p), [0]),
        ]
        for spec, weights, shifts in cases:
            for k in shifts:
                direct = np.zeros((p - 1, p - 1))
                for i in range(p - 1):
                    direct[i, i] = spec.v[(k + i) % p]
                    if i + 1 < p - 1:
                        direct[i, i + 1] = direct[i + 1, i] = weights[(k + i) % p]
                assert np.array_equal(interlacing_submatrix(spec, k), direct)


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
        assert np.linalg.norm(symbol(spec, theta), 2) <= spec.norm_bound() + 1e-12
        spec = laurent(np.sort(spec.v), ((1, spec.a[0]), (-2, -spec.a[-1])))
        assert np.linalg.norm(symbol(spec, theta), 2) <= spec.norm_bound() + 1e-12


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


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
ENTRIES = st.floats(-1e3, 1e3) | SIGNED_ZEROS


@st.composite
def bound_specs(draw) -> OperatorSpec:
    """Every kind at p = 1..8, entries with both signed zeros; a Laurent
    list may be empty, and its index 0 or its coefficient a signed zero."""
    kind = draw(st.sampled_from(list(OperatorKind)))
    p = draw(st.integers(1, 8))
    v = draw(st.lists(ENTRIES, min_size=p, max_size=p))
    if kind is OperatorKind.LAURENT_GENERAL:
        pairs = st.tuples(st.integers(-4, 4), ENTRIES)
        return laurent(sorted(v), draw(st.lists(pairs, max_size=4)))
    if kind is OperatorKind.JACOBI:
        return jacobi(v, draw(st.lists(st.floats(1e-3, 1e3), min_size=p, max_size=p)))
    return schrodinger(v)


def numpy_bounds(spec: OperatorSpec) -> tuple[float, float]:
    """norm_bound and lipschitz_bound by the numpy reductions they once used."""
    weights = np.asarray(spec.a) if spec.kind is OperatorKind.JACOBI else np.ones(spec.period)
    norm = float(np.max(np.abs(spec.v))) + 2.0 * float(np.max(weights))
    pairs = ((1, float(weights[-1])),)
    if spec.kind is OperatorKind.LAURENT_GENERAL:
        norm += 2.0 * float(sum(abs(c) for _, c in spec.fourier))
        pairs = spec.fourier
    slope = float(sum(abs(k) * abs(c) for k, c in pairs))
    return norm, slope if spec.period >= 2 else 2.0 * slope


@given(bound_specs())
@settings(max_examples=300, deadline=None)
def test_bounds_match_numpy_reductions_bit_for_bit(spec):
    norm, slope = numpy_bounds(spec)
    got = spec.norm_bound(), lipschitz_bound(spec)
    assert all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [norm.hex(), slope.hex()]


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
STAIRCASE = schrodinger((1.0, 1.1, 1.2, 1.3, 1.4))
# an index past int64: a wrapped section reduces it modulo a Python-int block count
WIDE_CORNER = laurent((0.0, 0.5, 1.0), ((1, 0.5), (-2, 0.25), (10**30, 0.125)))

# every public entry point that takes an integer, called with one, and a
# valid value of it
INTEGER_ENTRY_POINTS = {
    "theta_grid": (theta_grid, 9),
    "band_table": (lambda n: band_table(STAIRCASE, n), 8),
    "compute_spectrum": (lambda n: compute_spectrum(WIDE_CORNER, n), 9),
    "truncate": (lambda n: truncate(WIDE_CORNER, n, periodic=True), 3),
    "truncation_compare": (lambda n: truncation_compare(STAIRCASE, [n, 2], 64), 4),
    "convergents": (lambda n: convergents(GOLDEN, n), 4),
    "approximant_sweep": (lambda n: approximant_sweep(GOLDEN, n), 3),
    "tenmartini_premise": (lambda n: tenmartini_premise([STAIRCASE], 0.1, period_cap=n), 5),
    "OperatorSpec.period": (
        lambda n: OperatorSpec(kind=OperatorKind.SCHRODINGER, period=n, v=(0.0, 0.5, 1.0)), 3
    ),
    "OperatorSpec.fourier": (lambda n: laurent_with_index(n), -2),
    "interlacing_submatrix": (lambda n: interlacing_submatrix(STAIRCASE, n), 2),
}


def laurent_with_index(k) -> OperatorSpec:
    return OperatorSpec(
        kind=OperatorKind.LAURENT_GENERAL, period=2, v=(0.0, 1.0), fourier=((k, 0.5),)
    )


def same(x, y) -> bool:
    """Equal values of the same types all the way down: records field by
    field, arrays by dtype and entries, containers item by item."""
    if type(x) is not type(y):
        return False
    if is_dataclass(x):
        return all(same(getattr(x, f.name), getattr(y, f.name)) for f in fields(x))
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    if isinstance(x, dict):
        return list(x) == list(y) and all(same(x[k], y[k]) for k in x)
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(map(same, x, y))
    return x == y


class TestIntegerRule:
    """One rule for every integer argument: numpy integers count as
    integers and are stored as Python ints; bools, floats and strings are
    refused with the library's error."""

    @pytest.mark.parametrize("name", INTEGER_ENTRY_POINTS)
    @pytest.mark.parametrize("cast", [np.int64, np.int32])
    def test_numpy_integers_give_the_int_result(self, name, cast):
        call, n = INTEGER_ENTRY_POINTS[name]
        assert same(call(cast(n)), call(n))

    @pytest.mark.parametrize("name", INTEGER_ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=repr)
    def test_non_integers_refused(self, name, bad):
        call, _ = INTEGER_ENTRY_POINTS[name]
        with pytest.raises(BorgSpectraError):
            call(bad)

    def test_message_names_the_argument_and_minimum(self):
        with pytest.raises(InvalidParameterError,
                           match=r"grid size must be an integer >= 2, got np\.int64\(1\)"):
            theta_grid(np.int64(1))
        with pytest.raises(InvalidSpecError, match="period must be an integer >= 1, got 0"):
            OperatorSpec(kind=OperatorKind.SCHRODINGER, period=0, v=())
        with pytest.raises(InvalidSpecError, match="fourier index must be an integer, got 1.0"):
            laurent_with_index(1.0)

    def test_convergent_stores_python_ints(self):
        conv = Convergent(np.int64(3), np.int64(5))
        assert (type(conv.a), type(conv.b)) == (int, int)
        assert conv == Convergent(3, 5)

    @pytest.mark.parametrize("a, b", [(1.5, 2), (True, 2), (1, True), (1, 2.0), ("1", 2)])
    def test_convergent_refuses_non_integers(self, a, b):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            Convergent(a, b)


STAIRCASE_SPECTRUM = compute_spectrum(STAIRCASE)
# every public entry point that takes a real number, called with one, and
# the name its messages give that number
REAL_ENTRY_POINTS = {
    "connectivity": (lambda x: connectivity(STAIRCASE_SPECTRUM, x), "epsilon"),
    "pseudospectrum_intervals": (
        lambda x: pseudospectrum_intervals(STAIRCASE_SPECTRUM, x), "epsilon"
    ),
    "forward_from_spectrum": (
        lambda x: forward_from_spectrum(STAIRCASE, STAIRCASE_SPECTRUM, x), "epsilon"
    ),
    "converse_from_spectrum": (
        lambda x: converse_from_spectrum(STAIRCASE, STAIRCASE_SPECTRUM, x), "epsilon"
    ),
    "check_epsilon": (lambda x: check_epsilon(STAIRCASE, x), "epsilon"),
    "best_constant": (lambda x: best_constant((0.0, x)), "potential values"),
    "convergents": (lambda x: convergents(x, 4), "alpha"),
    "mathieu_potential": (lambda x: mathieu_potential(Convergent(2, 5), x), "coupling"),
    "approximant_sweep.alpha": (lambda x: approximant_sweep(x, 3), "alpha"),
    "approximant_sweep.coupling": (
        lambda x: approximant_sweep(GOLDEN, 3, coupling=x), "coupling"
    ),
    "approximant_sweep.epsilons": (
        lambda x: approximant_sweep(GOLDEN, 3, epsilons=(x,)), "epsilon"
    ),
    "tenmartini_premise": (lambda x: tenmartini_premise([STAIRCASE], x), "epsilon"),
    "merge_intervals": (lambda x: merge_intervals([(x, 2.0)]), "interval endpoint"),
    "RealSpectrum.intervals": (
        lambda x: RealSpectrum(((0.0, 0.5), (x, 2.0)), 0.0, 0.0), "interval endpoint"
    ),
    "spectrum_from_points": (lambda x: spectrum_from_points([x]), "interval endpoint"),
    "OperatorSpec.v": (
        lambda x: OperatorSpec(kind=OperatorKind.SCHRODINGER, period=2, v=(0.0, x)), "'v' entry"
    ),
}


class TestRealRule:
    """One rule for every real argument: numpy reals and ints count as real
    numbers and are kept as Python floats; bools, strings and values that
    are not finite as a float are refused with the library's error, never
    with a TypeError or an OverflowError."""

    @pytest.mark.parametrize("name", REAL_ENTRY_POINTS)
    @pytest.mark.parametrize("cast", [np.float32, np.float64, np.int64, int])
    def test_numpy_reals_and_ints_give_the_float_result(self, name, cast):
        call, _ = REAL_ENTRY_POINTS[name]
        # 1 is exact in every cast, so each call reads the float 1.0
        assert same(call(cast(1)), call(1.0))

    @pytest.mark.parametrize("name", REAL_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "bad, problem",
        [("0.1", "a real number"), (True, "a real number"), (None, "a real number"),
         (10**400, "finite"), (math.nan, "finite"), (math.inf, "finite"), (-math.inf, "finite")],
        ids=["str", "bool", "none", "huge-int", "nan", "inf", "-inf"],
    )
    def test_non_reals_refused(self, name, bad, problem):
        call, argument = REAL_ENTRY_POINTS[name]
        error = InvalidSpecError if name.startswith("OperatorSpec") else InvalidParameterError
        with pytest.raises(error) as info:
            call(bad)
        assert str(info.value) == f"{argument} must be {problem}, got {bad!r}"


@pytest.mark.parametrize("call, message", [
    (lambda: convergents(0.6, -10**5000),
     "count must be an integer >= 1, got <negative int of 16610 bits>"),
    (lambda: connectivity(STAIRCASE_SPECTRUM, 10**5000),
     "epsilon must be finite, got <int of 16610 bits>"),
], ids=["convergents-count", "connectivity-epsilon"])
def test_int_past_the_digit_limit_refused(call, message):
    # repr of an int past Python's 4,300-digit limit raises ValueError; the
    # integer and the real rule both give its sign and bit length instead
    with pytest.raises(InvalidParameterError) as info:
        call()
    assert str(info.value) == message
