"""Band tables, certified intervals, gap reports, and interval metrics.

The closed forms used as oracles here are computed inside the tests,
independently of the library code paths they validate:

* period-2 potential (v1, v2), weights (a1, a2): eigenvalues are
  m +- sqrt(d^2 + |a1 + a2 e^{i theta}|^2) with m the mean and d the half
  difference of v, so the bands and the central gap are known exactly;
* constant potential: the spectrum is exactly [c - 2, c + 2].
"""
from __future__ import annotations

import json
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
    points_distance,
    pseudospectrum_intervals,
    spectrum_from_points,
    spectrum_intervals,
    theta_grid,
)
from borg_spectra.cli import main
from borg_spectra.eig import eigvalsh_stack
from borg_spectra.spectra import _directed_hausdorff
from borg_spectra.symbols import symbol_stack
from conftest import (
    assert_rejected_before_allocating,
    full_grid_columns,
    full_theta_grid,
    jacobi,
    laurent,
    random_laurent,
    schrodinger,
)


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
        assert g.shape == (5,)
        assert g[0] == 0.0
        assert g[-1] == pytest.approx(math.pi)
        assert np.allclose(np.diff(g), 2 * math.pi / 8)

    def test_rejects_tiny_grid(self):
        with pytest.raises(InvalidParameterError):
            theta_grid(1)

    def test_documented_endpoints(self):
        # the points of the N-point grid in [0, pi], bit for bit: ending
        # exactly at pi, starting exactly at theta = 0 on even grids
        for n in range(2, 4097):
            g = theta_grid(n)
            full = full_theta_grid(n)
            assert np.array_equal(np.flatnonzero(full < 0.0), np.arange((n - 1) // 2)), n
            assert g.tobytes() == full[(n - 1) // 2 :].tobytes(), n
            assert g.shape == (n // 2 + 1,), n
            assert np.all(np.diff(g) > 0.0), n
            assert g[0] >= 0.0 and g[-1] == math.pi, n
            if n % 2 == 0:
                assert g[0] == 0.0, n


class TestAllocationBudget:
    """Band tables over the byte budget fail before anything is allocated."""

    def test_band_table_at_a_billion_points(self):
        spec = schrodinger((0.3, -0.7, 0.1, 0.9, -0.2))
        assert_rejected_before_allocating(lambda: band_table(spec, 10**9))

    def test_period_6765_spectrum(self):
        # the b = 6765 golden-mean approximant, reached by `mathieu --count 19`
        spec = schrodinger(np.cos(0.1 * np.arange(6765)))
        assert_rejected_before_allocating(lambda: compute_spectrum(spec))


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
        # odd grids miss theta = 0, so the Lipschitz padding L * pi / N applies,
        # plus the eigensolver bound 1e-10 * max(1, max|v| + 2 max a)
        table = band_table(schrodinger((0.0, 1.0)), 511)
        assert table.resolution_error == pytest.approx(1.0 * math.pi / 511 + 1e-10 * 3.0)
        # even grids sample the exact edges: eigensolver bound only
        table = band_table(jacobi((0.0, -3.0), (0.5, 2.0)), 512)
        assert table.resolution_error == pytest.approx(1e-10 * (3.0 + 2.0 * 2.0))
        # Laurent extrema need not sit at 0 or pi: L * pi / N at any N, plus
        # the eigensolver bound with the corner's 2 sum |a_k| in the norm
        table = band_table(laurent((0.0, 1.0), ((1, 0.5),)), 512)
        assert table.resolution_error == pytest.approx(
            0.5 * math.pi / 512 + 1e-10 * (1.0 + 2.0 + 2.0 * 0.5)
        )

    def test_zero_lipschitz_spec_keeps_eigensolver_padding(self):
        # a corner with only a k = 0 term does not move with theta, so L = 0;
        # the enclosure must still cover the eigensolver's rounding
        spec = laurent((0.0, 0.5, 1.0), ((0, 0.3),))
        s = compute_spectrum(spec, 64)
        assert s.resolution_error == 1e-10 * spec.norm_bound() > 0.0
        assert all(hi - lo >= 2.0 * s.resolution_error for lo, hi in s.intervals)

    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 150), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_half_grid_matches_full_table(self, seed, p, half, odd):
        # the spectrum is the padded range of the band table itself
        spec = random_laurent(np.random.default_rng(seed), p)
        grid_size = 2 * half + odd
        s = compute_spectrum(spec, grid_size)
        full = spectrum_intervals(band_table(spec, grid_size))
        assert s.resolution_error == full.resolution_error
        assert s.intervals == full.intervals

    @given(
        st.integers(0, 10_000),
        st.sampled_from(["schrodinger", "jacobi", "laurent"]),
        st.integers(1, 6),
        st.integers(2, 200),
        st.integers(0, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_band_table_is_even_and_matches_full_grid(self, seed, kind, p, n, shift):
        # f(-theta) = conj f(theta), and every shift has the same eigenvalues:
        # solving every point of the whole grid directly at any shift gives
        # the half table's column at |theta|, up to LAPACK rounding
        rng = np.random.default_rng(seed)
        v = rng.uniform(-2.0, 2.0, size=p)
        if kind == "laurent":
            spec, shift = random_laurent(rng, p), 0
        elif kind == "jacobi":
            spec = jacobi(v, rng.uniform(0.3, 2.0, size=p))
        else:
            spec = schrodinger(v)
        shift %= p
        table = band_table(spec, n)
        assert table.bands.shape == (p, n // 2 + 1)
        full, columns = full_grid_columns(table.grid, n)
        direct = eigvalsh_stack(symbol_stack(spec, shift, full)).T
        np.testing.assert_allclose(table.bands[:, columns], direct, rtol=0.0, atol=1e-13)
        exact_grid = n if kind == "laurent" else 2
        assert compute_spectrum(spec, n) == spectrum_intervals(band_table(spec, exact_grid))

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
        coarse = spectrum_intervals(band_table(spec, 255))
        fine = spectrum_intervals(band_table(spec, 511))
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
        table = band_table(spec, 2 * half + 1)
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
        assert points_distance(np.array([0.5]), s)[0] == 0.0
        assert points_distance(np.array([1.0]), s)[0] == 0.0

    def test_point_in_gap(self):
        s = RealSpectrum(intervals=((0.0, 1.0), (3.0, 4.0)), resolution_error=0.0)
        assert points_distance(np.array([1.4]), s)[0] == pytest.approx(0.4)
        assert points_distance(np.array([2.9]), s)[0] == pytest.approx(0.1)

    def test_point_outside_hull(self):
        s = RealSpectrum(intervals=((0.0, 1.0),), resolution_error=0.0)
        assert points_distance(np.array([-2.0]), s)[0] == pytest.approx(2.0)
        assert points_distance(np.array([5.0]), s)[0] == pytest.approx(4.0)

    @given(st.floats(-20, 20))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, x):
        intervals = ((-3.0, -1.0), (0.5, 0.5), (2.0, 7.0))
        s = RealSpectrum(intervals=intervals, resolution_error=0.0)
        brute = min(
            0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
            for lo, hi in intervals
        )
        assert points_distance(np.array([x]), s)[0] == pytest.approx(brute, abs=1e-12)


def directed_hausdorff_loop(a: RealSpectrum, b: RealSpectrum) -> float:
    """The candidate loop `_directed_hausdorff` replaced, kept as its oracle."""
    candidates = [x for lo, hi in a.intervals for x in (lo, hi)]
    for (_, hi), (lo, _) in zip(b.intervals, b.intervals[1:]):
        mid = 0.5 * (hi + lo)
        if any(lo_a <= mid <= hi_a for lo_a, hi_a in a.intervals):
            candidates.append(mid)
    return float(np.max(points_distance(np.asarray(candidates), b)))


class TestHausdorff:
    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_directed_matches_candidate_loop(self, seed):
        rng = np.random.default_rng(seed)

        def union() -> RealSpectrum:
            n = int(rng.integers(1, 8))
            shape = int(rng.integers(0, 3))
            if shape == 0:  # a point set
                return spectrum_from_points(rng.integers(-6, 7, size=n) * 0.5)
            if shape == 1:  # half-integer ends: midpoints land on ends, pieces touch
                lo = rng.integers(-6, 6, size=n) * 0.5
                hi = lo + rng.integers(0, 4, size=n) * 0.5
            else:
                lo = rng.uniform(-3.0, 3.0, size=n)
                hi = lo + rng.uniform(0.0, 1.0, size=n)
            return RealSpectrum(intervals=merge_intervals(zip(lo, hi)), resolution_error=0.0)

        a, b = union(), union()
        assert _directed_hausdorff(a, b) == directed_hausdorff_loop(a, b)
        assert _directed_hausdorff(b, a) == directed_hausdorff_loop(b, a)

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
    def test_json_dict_fields(self, tmp_path):
        spec = {"kind": "schrodinger", "period": 2, "v": [0.0, 1.0]}
        assert main(["spectrum", "--spec", json.dumps(spec), "--grid", "256",
                     "--out", str(tmp_path), "--format", "json"]) == 0
        d = json.loads((tmp_path / "spectrum.json").read_text())
        assert set(d) - {"version", "gap_report"} == {"intervals", "resolution_error"}
        assert all(len(pair) == 2 for pair in d["intervals"])
