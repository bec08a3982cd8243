"""Band tables, certified intervals, gap reports, and interval metrics.

The closed forms used as oracles here are computed inside the tests,
independently of the library code paths they validate:

* period-2 potential (v1, v2), weights (a1, a2): eigenvalues are
  m +- sqrt(d^2 + |a1 + a2 e^{i theta}|^2) with m the mean and d the half
  difference of v, so the bands and the central gap are known exactly;
* constant potential: the spectrum is exactly [c - 2, c + 2].
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borg_spectra import (
    InvalidParameterError,
    RealSpectrum,
    band_table,
    compute_spectrum,
    gap_report,
    hausdorff_distance,
    merge_intervals,
    point_distance,
    points_distance,
    pseudospectrum_intervals,
    spectrum_from_points,
    spectrum_intervals,
    theta_grid,
)
from borg_spectra.spectra import spectrum_json_dict
from conftest import jacobi, laurent, schrodinger


def two_band_edges(v1, v2, a1, a2):
    """Exact band edges for a period-2 operator (derivation in module docstring)."""
    m = (v1 + v2) / 2.0
    d = abs(v1 - v2) / 2.0
    r_min = abs(a1 - a2)
    r_max = a1 + a2
    lo = math.hypot(d, r_min)
    hi = math.hypot(d, r_max)
    return (m - hi, m - lo), (m + lo, m + hi)


class TestThetaGrid:
    def test_shape_and_range(self):
        g = theta_grid(8)
        assert g.shape == (8,)
        assert g[-1] == pytest.approx(math.pi)
        assert g[0] > -math.pi
        assert np.allclose(np.diff(g), 2 * math.pi / 8)

    def test_rejects_tiny_grid(self):
        with pytest.raises(InvalidParameterError):
            theta_grid(1)

    def test_documented_endpoints(self):
        # (-pi, pi], ending exactly at pi, with theta = 0 exactly on even grids
        for n in range(2, 4097):
            g = theta_grid(n)
            assert np.all(np.diff(g) > 0.0), n
            assert g[0] > -math.pi and g[-1] == math.pi, n
            if n % 2 == 0:
                assert g[n // 2 - 1] == 0.0, n


class TestMergeIntervals:
    def test_disjoint_kept(self):
        assert merge_intervals([(0.0, 1.0), (2.0, 3.0)]) == ((0.0, 1.0), (2.0, 3.0))

    def test_overlap_merged(self):
        assert merge_intervals([(0.0, 1.5), (1.0, 3.0)]) == ((0.0, 3.0),)

    def test_touching_merged(self):
        assert merge_intervals([(1.0, 2.0), (2.0, 3.0)]) == ((1.0, 3.0),)

    def test_unsorted_input(self):
        assert merge_intervals([(4.0, 5.0), (0.0, 1.0)]) == ((0.0, 1.0), (4.0, 5.0))

    @given(
        st.lists(
            st.tuples(st.floats(-10, 10), st.floats(0, 5)).map(
                lambda t: (t[0], t[0] + t[1])
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_result_is_sorted_disjoint_and_covers(self, raw):
        merged = merge_intervals(raw)
        for (lo1, hi1), (lo2, hi2) in zip(merged, merged[1:]):
            assert hi1 < lo2
        for lo, hi in raw:
            mids = (lo, hi, (lo + hi) / 2)
            for x in mids:
                assert any(mlo <= x <= mhi for mlo, mhi in merged)


class TestSpectrumIntervals:
    def test_padding_formula(self):
        # odd grids miss theta = 0, so the Lipschitz padding L * pi / N applies
        table = band_table(schrodinger((0.0, 1.0)), 0, 511)
        assert table.resolution_error == pytest.approx(2.0 * math.pi / 511)
        # even grids sample the exact edges: eigensolver bound only,
        # 1e-10 * (max|v| + 2 max a)
        table = band_table(jacobi((0.0, -3.0), (0.5, 2.0)), 0, 512)
        assert table.resolution_error == pytest.approx(1e-10 * (3.0 + 2.0 * 2.0))
        # Laurent extrema need not sit at 0 or pi: L * pi / N at any N
        table = band_table(laurent((0.0, 1.0), ((1, 0.5),)), 0, 512)
        assert table.resolution_error == pytest.approx(1.0 * math.pi / 512)

    def test_two_band_oracle(self):
        v1, v2, a1, a2 = 0.3, -0.9, 1.4, 0.6
        spec = jacobi((v1, v2), (a1, a2))
        s = compute_spectrum(spec, 2048)
        band_lo, band_hi = two_band_edges(v1, v2, a1, a2)
        assert len(s.intervals) == 2
        for computed, exact in zip(s.intervals, (band_lo, band_hi)):
            # certified superset, never wider than padding on each side
            assert computed[0] <= exact[0] + 1e-10
            assert computed[1] >= exact[1] - 1e-10
            assert computed[0] >= exact[0] - s.resolution_error - 1e-10
            assert computed[1] <= exact[1] + s.resolution_error + 1e-10

    def test_constant_potential_single_band(self):
        s = compute_spectrum(schrodinger((1.5, 1.5, 1.5)), 1024)
        assert len(s.intervals) == 1
        lo, hi = s.intervals[0]
        assert lo == pytest.approx(-0.5, abs=1e-6 + s.resolution_error)
        assert hi == pytest.approx(3.5, abs=1e-6 + s.resolution_error)

    def test_grid_refinement_tightens(self):
        spec = schrodinger((0.0, 1.0, 0.5))
        coarse = spectrum_intervals(band_table(spec, 0, 255))
        fine = spectrum_intervals(band_table(spec, 0, 511))
        assert fine.resolution_error <= coarse.resolution_error
        assert hausdorff_distance(coarse, fine) <= coarse.resolution_error + 1e-9

    @given(st.integers(0, 10_000), st.integers(1, 12), st.booleans(), st.integers(1, 100))
    @settings(max_examples=60, deadline=None)
    def test_odd_grid_agrees_with_exact_edges(self, seed, p, is_jacobi, half):
        # p <= 2 covers the corner collisions; odd N keeps theta = 0 off the grid
        rng = np.random.default_rng(seed)
        v = tuple(rng.uniform(-2.0, 2.0, size=p))
        spec = jacobi(v, rng.uniform(0.3, 2.0, size=p)) if is_jacobi else schrodinger(v)
        exact = compute_spectrum(spec)
        table = band_table(spec, 0, 2 * half + 1)
        assert np.all(points_distance(table.bands.ravel(), exact) == 0.0)
        grid = spectrum_intervals(table)
        for lo, hi in exact.intervals:
            assert any(g_lo <= lo and hi <= g_hi for g_lo, g_hi in grid.intervals)

    @given(st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_perturbation_is_lipschitz(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 6))
        v1 = rng.uniform(-1, 1, size=p)
        shiftv = rng.uniform(-0.3, 0.3, size=p)
        s1 = compute_spectrum(schrodinger(tuple(v1)), 512)
        s2 = compute_spectrum(schrodinger(tuple(v1 + shiftv)), 512)
        assert hausdorff_distance(s1, s2) <= float(np.max(np.abs(shiftv))) + 1e-9


class TestPseudospectrumIntervals:
    def test_zero_fattening_is_identity(self):
        s = compute_spectrum(schrodinger((0.0, 1.0)), 512)
        assert pseudospectrum_intervals(s, 0.0).intervals == s.intervals

    def test_fattening_grows_each_side(self):
        s = spectrum_from_points([0.0, 5.0])
        fat = pseudospectrum_intervals(s, 0.5)
        assert fat.intervals == ((-0.5, 0.5), (4.5, 5.5))

    def test_large_fattening_connects(self):
        s = spectrum_from_points([0.0, 5.0])
        fat = pseudospectrum_intervals(s, 2.5)
        assert fat.intervals == ((-2.5, 7.5),)

    def test_negative_epsilon_rejected(self):
        s = spectrum_from_points([0.0])
        with pytest.raises(InvalidParameterError):
            pseudospectrum_intervals(s, -0.1)

    def test_overflowing_fattening_rejected(self):
        s = spectrum_from_points([0.0, 1e307])
        with pytest.raises(InvalidParameterError):
            pseudospectrum_intervals(s, 1.7e308)


class TestGapReport:
    def test_single_interval_connected(self):
        rep = gap_report(RealSpectrum(intervals=((0.0, 1.0),), resolution_error=0.0))
        assert rep.connected and rep.gaps == () and rep.epsilon_star == 0.0

    def test_exact_gap(self):
        rep = gap_report(
            RealSpectrum(intervals=((0.0, 1.0), (3.0, 4.0)), resolution_error=0.0)
        )
        assert not rep.connected
        assert rep.gaps == ((1.0, 3.0, 2.0),)
        assert rep.epsilon_star == pytest.approx(1.0)

    def test_epsilon_star_accounts_for_padding(self):
        # padded gap (1, 3) of width 2 with padding 0.25: the unpadded gap
        # was 2.5 wide, so the smallest certifiably connecting epsilon is 1.25
        rep = gap_report(
            RealSpectrum(intervals=((0.0, 1.0), (3.0, 4.0)), resolution_error=0.25)
        )
        assert rep.epsilon_star == pytest.approx(1.25)

    def test_insignificant_gap_dropped(self):
        # gap width 0.3 is below the significance threshold 2*0.2 + noise
        rep = gap_report(
            RealSpectrum(intervals=((0.0, 1.0), (1.3, 2.0)), resolution_error=0.2)
        )
        assert rep.connected

    def test_fattening_by_epsilon_star_connects(self):
        s = compute_spectrum(schrodinger((1.0, 1.1, 1.2, 1.3, 1.4)), 1024)
        star = gap_report(s).epsilon_star
        assert gap_report(pseudospectrum_intervals(s, star)).connected
        assert not gap_report(
            pseudospectrum_intervals(s, max(0.0, star - 3 * s.resolution_error))
        ).connected


class TestDistances:
    def test_point_inside_is_zero(self):
        s = RealSpectrum(intervals=((0.0, 1.0), (3.0, 4.0)), resolution_error=0.0)
        assert point_distance(0.5, s) == 0.0
        assert point_distance(1.0, s) == 0.0

    def test_point_in_gap(self):
        s = RealSpectrum(intervals=((0.0, 1.0), (3.0, 4.0)), resolution_error=0.0)
        assert point_distance(1.4, s) == pytest.approx(0.4)
        assert point_distance(2.9, s) == pytest.approx(0.1)

    def test_point_outside_hull(self):
        s = RealSpectrum(intervals=((0.0, 1.0),), resolution_error=0.0)
        assert point_distance(-2.0, s) == pytest.approx(2.0)
        assert point_distance(5.0, s) == pytest.approx(4.0)

    @given(st.floats(-20, 20))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, x):
        intervals = ((-3.0, -1.0), (0.5, 0.5), (2.0, 7.0))
        s = RealSpectrum(intervals=intervals, resolution_error=0.0)
        brute = min(
            0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
            for lo, hi in intervals
        )
        assert point_distance(x, s) == pytest.approx(brute, abs=1e-12)
        assert points_distance(np.array([x]), s)[0] == pytest.approx(brute, abs=1e-12)


class TestHausdorff:
    def test_gap_against_hull(self):
        s1 = RealSpectrum(intervals=((0.0, 1.0), (3.0, 4.0)), resolution_error=0.0)
        s2 = RealSpectrum(intervals=((0.0, 4.0),), resolution_error=0.0)
        assert hausdorff_distance(s1, s2) == pytest.approx(1.0)

    def test_symmetric_and_zero_on_equal(self):
        s1 = RealSpectrum(intervals=((0.0, 1.0), (2.0, 5.0)), resolution_error=0.0)
        s2 = RealSpectrum(intervals=((-1.0, 1.5),), resolution_error=0.0)
        assert hausdorff_distance(s1, s2) == hausdorff_distance(s2, s1)
        assert hausdorff_distance(s1, s1) == 0.0

    def test_translation(self):
        s1 = RealSpectrum(intervals=((0.0, 1.0),), resolution_error=0.0)
        s2 = RealSpectrum(intervals=((2.5, 3.5),), resolution_error=0.0)
        assert hausdorff_distance(s1, s2) == pytest.approx(2.5)

    def test_empty_rejected(self):
        s = RealSpectrum(intervals=(), resolution_error=0.0)
        t = RealSpectrum(intervals=((0.0, 1.0),), resolution_error=0.0)
        with pytest.raises(InvalidParameterError):
            hausdorff_distance(s, t)

    @given(st.integers(0, 2_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_sampling(self, seed):
        rng = np.random.default_rng(seed)
        ints1 = merge_intervals(
            [(x, x + w) for x, w in zip(rng.uniform(-5, 5, 3), rng.uniform(0.1, 2, 3))]
        )
        ints2 = merge_intervals(
            [(x, x + w) for x, w in zip(rng.uniform(-5, 5, 3), rng.uniform(0.1, 2, 3))]
        )
        s1 = RealSpectrum(intervals=ints1, resolution_error=0.0)
        s2 = RealSpectrum(intervals=ints2, resolution_error=0.0)
        xs1 = np.concatenate([np.linspace(lo, hi, 400) for lo, hi in ints1])
        xs2 = np.concatenate([np.linspace(lo, hi, 400) for lo, hi in ints2])
        approx = max(
            float(np.max(points_distance(xs1, s2))),
            float(np.max(points_distance(xs2, s1))),
        )
        exact = hausdorff_distance(s1, s2)
        assert exact >= approx - 1e-9
        assert exact <= approx + 0.02  # dense sampling underestimates slightly


class TestSerialization:
    def test_json_dict_fields(self):
        s = compute_spectrum(schrodinger((0.0, 1.0)), 256)
        d = spectrum_json_dict(s)
        assert set(d) == {"intervals", "resolution_error"}
        assert all(len(pair) == 2 for pair in d["intervals"])
