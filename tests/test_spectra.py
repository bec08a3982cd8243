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
import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borg_spectra import (
    Connectivity,
    InvalidParameterError,
    OperatorKind,
    RealSpectrum,
    band_table,
    compute_spectrum,
    connectivity,
    forward_from_spectrum,
    hausdorff_distance,
    lipschitz_bound,
    merge_intervals,
    points_distance,
    pseudospectrum_intervals,
    spectrum_from_points,
    theta_grid,
)
from borg_spectra.cli import _record, main
from borg_spectra.eig import eigvalsh_stack
from borg_spectra.spectra import _directed_hausdorff, spectrum_grid
from borg_spectra.symbols import symbol_stack
from conftest import (
    assert_rejected_before_allocating,
    full_grid_columns,
    full_theta_grid,
    jacobi,
    laurent,
    random_laurent,
    random_spec,
    schrodinger,
)

CONNECTED, UNDECIDED, DISCONNECTED = Connectivity
# the Laurent spec at which a significance threshold of 2 delta + 4e-10
# called the 0.3152-pseudospectrum connected: its padded gap at N = 1024 is
# 0.63538 > 2 epsilon = 0.6304, so the enclosure itself refutes that
LAURENT_BOUNDARY = laurent((0.0, 0.4, 0.9), ((1, 1.0), (2, 0.3)))


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


class TestSpectrumGrid:
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_grid_by_kind(self, kind):
        # band edges of tridiagonal kinds sit on {0, pi}: N is never read
        assert spectrum_grid(kind, 3, 511) == (511 if kind is OperatorKind.LAURENT_GENERAL else 2)

    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize("grid_size", [1, 0, 2.5, "512", True])
    def test_invalid_grid_refused_for_every_kind(self, kind, grid_size):
        with pytest.raises(InvalidParameterError, match="grid size"):
            spectrum_grid(kind, 3, grid_size)

    def test_over_budget_table_refused(self):
        assert_rejected_before_allocating(
            lambda: spectrum_grid(OperatorKind.LAURENT_GENERAL, 24, 10**9))
        # the b = 6765 approximant's table is over budget at N = 2 already
        assert_rejected_before_allocating(lambda: spectrum_grid(OperatorKind.SCHRODINGER, 6765))
        assert spectrum_grid(OperatorKind.SCHRODINGER, 24, 10**9) == 2


class TestMergeIntervals:
    def test_disjoint_kept(self):
        assert merge_intervals([(0.0, 1.0), (2.0, 3.0)]) == ((0.0, 1.0), (2.0, 3.0))

    def test_overlap_merged(self):
        assert merge_intervals([(0.0, 1.5), (1.0, 3.0)]) == ((0.0, 3.0),)

    def test_touching_merged(self):
        assert merge_intervals([(1.0, 2.0), (2.0, 3.0)]) == ((1.0, 3.0),)

    def test_tiny_gap_kept(self):
        # any positive gap between padded intervals is a true gap
        merged = merge_intervals([(0.0, 1.0), (1.0 + 5e-13, 2.0)])
        assert merged == ((0.0, 1.0), (1.0 + 5e-13, 2.0))
        s = RealSpectrum(intervals=merged, resolution_error=0.0, solver=0.0)
        assert s.gaps == ((1.0, 1.0 + 5e-13, (1.0 + 5e-13) - 1.0),)

    def test_unsorted_input(self):
        assert merge_intervals([(4.0, 5.0), (0.0, 1.0)]) == ((0.0, 1.0), (4.0, 5.0))

    def test_reversed_interval_refused(self):
        with pytest.raises(InvalidParameterError, match=r"interval \[2.0, 1.0\] is reversed"):
            merge_intervals([(0.0, 0.5), (2.0, 1.0)])

    @pytest.mark.parametrize("intervals", [[1.0], [(0.0, 1.0), (2.0,)], [(0.0, 1.0, 2.0)], 1.0],
                             ids=["bare-number", "one-endpoint", "three-endpoints", "no-list"])
    def test_item_that_is_no_pair_refused(self, intervals):
        # once the bare TypeError or ValueError of the unpacking
        with pytest.raises(InvalidParameterError, match=r"^intervals must be \(lo, hi\) pairs$"):
            merge_intervals(intervals)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_endpoint_refused(self, bad):
        for interval in ((bad, 1.0), (0.0, bad)):
            with pytest.raises(InvalidParameterError, match="interval endpoint must be finite"):
                merge_intervals([interval, (0.0, 2.0)])
            with pytest.raises(InvalidParameterError, match="interval endpoint must be finite"):
                merge_intervals([interval])

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


class TestRealSpectrumConstructor:
    """Every interval set is sorted, merged and checked where it is built."""

    @given(
        st.lists(
            st.tuples(st.floats(-10, 10), st.floats(0, 5)).map(lambda t: (t[0], t[0] + t[1])),
            min_size=1,
            max_size=12,
        ),
        st.floats(0, 1),
        st.randoms(use_true_random=False),
    )
    @example([(0.0, 0.0), (5e-324, 1.0)], 0.0, random.Random(0))
    @settings(max_examples=150, deadline=None)
    def test_shuffled_pairs_read_like_sorted_ones(self, raw, delta, shuffler):
        shuffled, twin = list(raw), list(raw)
        shuffler.shuffle(shuffled)
        shuffler.shuffle(twin)
        s = RealSpectrum(shuffled, delta, delta / 2)
        ordered = RealSpectrum(sorted(raw), delta, delta / 2)
        for (_, hi1), (lo2, _) in zip(s.intervals, s.intervals[1:]):
            assert hi1 < lo2
        assert all(lo <= hi for lo, hi in s.intervals)
        ends = np.array([x for pair in raw for x in pair])
        assert not points_distance(ends, s).any()
        for hi, lo, _ in s.gaps:
            assert not any(a <= hi and lo <= b for a, b in raw)  # no pair spans a gap
            mid = 0.5 * (hi + lo)
            if hi < mid < lo:  # adjacent floats have no midpoint between them
                assert not any(a <= mid <= b for a, b in raw)
        assert (s.gaps, s.epsilon_star) == (ordered.gaps, ordered.epsilon_star)
        for eps in (0.0, 0.25, 1.0, s.epsilon_star):
            assert connectivity(s, eps) is connectivity(ordered, eps)
        assert hausdorff_distance(s, RealSpectrum(twin, delta, delta / 2)) == 0.0

    def test_reversed_enclosure_reads_like_sorted(self):
        # listed in reverse, the p = 2 enclosure of v = (0, 3) once read as
        # connected (epsilon_star -2.5) and lay 4.0 from its sorted twin
        spec = schrodinger((0.0, 3.0))
        s = compute_spectrum(spec)
        reversed_s = RealSpectrum(s.intervals[::-1], s.resolution_error, s.solver)
        report = forward_from_spectrum(spec, reversed_s, 0.1)
        assert report.connected is DISCONNECTED and not report.hypothesis_met
        assert reversed_s.epsilon_star == s.epsilon_star == 1.5000000005
        assert hausdorff_distance(reversed_s, s) == 0.0

    def test_reversed_pair_equals_sorted_pair(self):
        reversed_s = RealSpectrum(((3.0, 4.0), (0.0, 1.0)), 0.0, 0.0)
        assert reversed_s == RealSpectrum(((0.0, 1.0), (3.0, 4.0)), 0.0, 0.0)
        assert connectivity(reversed_s, 0.0) is DISCONNECTED

    @pytest.mark.parametrize(
        "intervals, delta, solver, message",
        [
            ((), 0.0, 0.0, "a spectrum needs at least one interval"),
            (((0.0, 1.0), (2.0, math.nan)), 0.0, 0.0, "interval endpoint must be finite"),
            (((0.0, 1.0),), -1e-9, 0.0, "need 0 <= solver <= resolution_error"),
            (((0.0, 1.0),), math.nan, 0.0, "resolution_error must be finite"),
            (((0.0, 1.0),), 1e-10, 2e-10, "need 0 <= solver <= resolution_error"),
            (((1.0,),), 0.0, 0.0, r"intervals must be \(lo, hi\) pairs"),
        ],
        ids=["empty", "nan-endpoint", "negative-delta", "nan-delta", "solver-over-delta",
             "one-endpoint"],
    )
    def test_invalid_sets_refused(self, intervals, delta, solver, message):
        with pytest.raises(InvalidParameterError, match=message):
            RealSpectrum(intervals, delta, solver)


class TestSpectrumIntervals:
    def test_padding_formula(self):
        # odd grids miss theta = 0, so the Lipschitz padding L * pi / N applies,
        # plus the eigensolver bound 1e-10 * max(1, max|v| + 2 max a)
        table = band_table(schrodinger((0.0, 1.0)), 511)
        assert table.spectrum.resolution_error == pytest.approx(1.0 * math.pi / 511 + 1e-10 * 3.0)
        # even grids sample the exact edges: eigensolver bound only
        table = band_table(jacobi((0.0, -3.0), (0.5, 2.0)), 512)
        assert table.spectrum.resolution_error == pytest.approx(1e-10 * (3.0 + 2.0 * 2.0))
        # Laurent extrema need not sit at 0 or pi: L * pi / N at any N, plus
        # the eigensolver bound with the corner's 2 sum |a_k| in the norm
        table = band_table(laurent((0.0, 1.0), ((1, 0.5),)), 512)
        assert table.spectrum.resolution_error == pytest.approx(
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
        full = band_table(spec, grid_size).spectrum
        assert s.resolution_error == full.resolution_error
        assert s.intervals == full.intervals

    @given(
        st.integers(0, 10_000),
        st.sampled_from(["schrodinger", "jacobi", "laurent"]),
        st.integers(1, 6),
        st.integers(2, 200),
    )
    @settings(max_examples=80, deadline=None)
    def test_band_table_is_even_and_matches_full_grid(self, seed, kind, p, n):
        # f(-theta) = conj f(theta): solving every point of the whole grid
        # directly gives the half table's column at |theta|, up to LAPACK rounding
        rng = np.random.default_rng(seed)
        v = rng.uniform(-2.0, 2.0, size=p)
        if kind == "laurent":
            spec = random_laurent(rng, p)
        elif kind == "jacobi":
            spec = jacobi(v, rng.uniform(0.3, 2.0, size=p))
        else:
            spec = schrodinger(v)
        table = band_table(spec, n)
        assert table.bands.shape == (p, n // 2 + 1)
        full, columns = full_grid_columns(table.grid, n)
        direct = eigvalsh_stack(symbol_stack(spec, full)).T
        np.testing.assert_allclose(table.bands[:, columns], direct, rtol=0.0, atol=1e-13)
        exact_grid = n if kind == "laurent" else 2
        assert compute_spectrum(spec, n) == band_table(spec, exact_grid).spectrum
        # tridiagonal kinds: an even grid holds the exact edges, so its table
        # is the {0, pi} route bit for bit; an odd one is Lipschitz-padded
        if kind != "laurent":
            s = table.spectrum
            if n % 2:
                assert s.resolution_error == lipschitz_bound(spec) * math.pi / n + s.solver
            else:
                assert s == compute_spectrum(spec, n)
                assert s.resolution_error == s.solver

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
        coarse = band_table(spec, 255).spectrum
        fine = band_table(spec, 511).spectrum
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
        grid = table.spectrum
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
        s = RealSpectrum(intervals=((0.0, 1.0),), resolution_error=0.0, solver=0.0)
        rep = s
        assert rep.gaps == () and rep.epsilon_star == 0.0
        assert connectivity(s, 0.0) is CONNECTED

    def test_exact_gap(self):
        s = RealSpectrum(intervals=((0.0, 1.0), (3.0, 4.0)), resolution_error=0.0, solver=0.0)
        rep = s
        assert connectivity(s, 0.0) is DISCONNECTED
        assert rep.gaps == ((1.0, 3.0, 2.0),)
        assert rep.epsilon_star == pytest.approx(1.0)

    def test_epsilon_star_accounts_for_padding(self):
        # padded gap (1, 3) of width 2 with padding 0.25, 0.125 of it the
        # eigensolver's: computed extrema sit within 0.125 of the true bands,
        # so the true gap is at most 2 + 2 (0.25 + 0.125) = 2.75 wide, and
        # the smallest certifiably connecting epsilon is 1.375
        rep = RealSpectrum(
            intervals=((0.0, 1.0), (3.0, 4.0)), resolution_error=0.25, solver=0.125
        )
        assert rep.epsilon_star == 1.375
        # the verdict reads the same expression: solver counts there too
        s = RealSpectrum(intervals=((0.0, 1.0), (3.0, 4.0)), resolution_error=0.25, solver=0.125)
        assert connectivity(s, 1.25) is UNDECIDED
        assert connectivity(s, 1.375) is CONNECTED

    def test_narrow_padded_gap_listed(self):
        # a padded gap of width 0.3 is a true gap whatever the padding: it
        # is listed, and refutes connectivity below epsilon = 0.15
        s = RealSpectrum(intervals=((0.0, 1.0), (1.3, 2.0)), resolution_error=0.2, solver=0.0)
        (gap,) = s.gaps
        assert gap == pytest.approx((1.0, 1.3, 0.3))
        assert connectivity(s, 0.149) is DISCONNECTED
        assert connectivity(s, 0.151) is UNDECIDED
        assert connectivity(s, 0.36) is CONNECTED  # epsilon_star = 0.15 + 0.2

    def test_fattening_by_epsilon_star_connects(self):
        s = compute_spectrum(schrodinger((1.0, 1.1, 1.2, 1.3, 1.4)), 1024)
        star = s.epsilon_star
        assert connectivity(s, star) is CONNECTED
        assert pseudospectrum_intervals(s, star).gaps == ()
        below = max(0.0, star - 3 * (s.resolution_error + s.solver))
        assert connectivity(s, below) is DISCONNECTED


def draw_spec(rng, family):
    if family == "spec":
        return random_spec(rng)
    return random_laurent(rng, int(rng.integers(1, 6)))


class TestConnectivity:
    def test_laurent_boundary_case_refuted(self):
        s = compute_spectrum(LAURENT_BOUNDARY, 1024)
        widest = max(width for _, _, width in s.gaps)
        assert widest > 2 * 0.3152
        assert connectivity(s, 0.3152) is DISCONNECTED

    def test_rejects_negative_epsilon(self):
        with pytest.raises(InvalidParameterError):
            connectivity(spectrum_from_points([0.0, 1.0]), -0.1)

    @given(st.integers(0, 10_000), st.sampled_from(["spec", "laurent"]))
    @settings(max_examples=40, deadline=None)
    def test_epsilon_star_is_connected(self, seed, family):
        rng = np.random.default_rng(seed)
        spec = draw_spec(rng, family)
        s = compute_spectrum(spec, int(rng.integers(2, 300)))
        assert connectivity(s, s.epsilon_star) is CONNECTED

    @given(st.integers(0, 10_000), st.sampled_from(["spec", "laurent"]))
    @settings(max_examples=25, deadline=None)
    def test_verdicts_agree_across_grids(self, seed, family):
        # a certified verdict on the coarse enclosure is a statement about
        # the true pseudospectrum, so the fine one may not contradict it
        rng = np.random.default_rng(seed)
        spec = draw_spec(rng, family)
        coarse, fine = compute_spectrum(spec, 1024), compute_spectrum(spec, 1 << 16)
        star = max(coarse.epsilon_star, fine.epsilon_star)
        for eps in rng.uniform(0.0, 1.2 * star, size=8):
            verdicts = {connectivity(coarse, eps), connectivity(fine, eps)} - {UNDECIDED}
            assert len(verdicts) <= 1, (eps, verdicts)


class TestDistances:
    def test_empty_spectra_refused(self):
        # refused where it is built, so no reader ever meets one
        with pytest.raises(InvalidParameterError, match="a spectrum needs at least one interval"):
            RealSpectrum(intervals=(), resolution_error=0.0, solver=0.0)
        with pytest.raises(InvalidParameterError, match="a spectrum needs at least one interval"):
            spectrum_from_points([])

    def test_point_inside_is_zero(self):
        s = RealSpectrum(intervals=((0.0, 1.0), (3.0, 4.0)), resolution_error=0.0, solver=0.0)
        assert points_distance(np.array([0.5]), s)[0] == 0.0
        assert points_distance(np.array([1.0]), s)[0] == 0.0

    def test_point_in_gap(self):
        s = RealSpectrum(intervals=((0.0, 1.0), (3.0, 4.0)), resolution_error=0.0, solver=0.0)
        assert points_distance(np.array([1.4]), s)[0] == pytest.approx(0.4)
        assert points_distance(np.array([2.9]), s)[0] == pytest.approx(0.1)

    def test_point_outside_hull(self):
        s = RealSpectrum(intervals=((0.0, 1.0),), resolution_error=0.0, solver=0.0)
        assert points_distance(np.array([-2.0]), s)[0] == pytest.approx(2.0)
        assert points_distance(np.array([5.0]), s)[0] == pytest.approx(4.0)

    @pytest.mark.parametrize("xs, message", [
        (["1.5", 0.5], "point must be a real number, got '1.5'"),
        ([0.5, True], "point must be a real number, got True"),
        ([None], "point must be a real number, got None"),
        ([0.5, math.nan], "point must be finite, got nan"),
        (np.array([0.5, math.nan]), "point must be finite, got nan"),
        (np.array([[0.5], [-math.inf]]), "point must be finite, got -inf"),
        (np.array(["1.5"]), f"point must be a real number, got {np.str_('1.5')!r}"),
        (np.array([True]), f"point must be a real number, got {np.True_!r}"),
        (None, "point must be a real number, got None"),
        ("1.5", "point must be a real number, got '1.5'"),
        (np.array("1.5"), "point must be a real number, got '1.5'"),
        (np.array(True), "point must be a real number, got True"),
        (np.array(math.nan), "point must be finite, got nan"),
    ], ids=["string", "bool", "none", "nan-in-list", "nan-in-array", "inf-in-2d-array",
            "string-array", "bool-array", "none-argument", "string-argument",
            "string-0d-array", "bool-0d-array", "nan-0d-array"])
    def test_refuses_what_real_refuses(self, xs, message):
        # once read as numbers ("1.5" as 1.5, True as 1.0) or given a NaN distance
        s = spectrum_from_points([0.0, 2.0])
        with pytest.raises(InvalidParameterError) as info:
            points_distance(xs, s)
        assert str(info.value) == message

    @pytest.mark.parametrize("x", [np.array(1), np.array(1.0), 1, 1.0])
    def test_lone_number(self, x):
        # a 0-d array is its one number, as a lone int or float is
        assert points_distance(x, spectrum_from_points([0.0, 2.0])).tolist() == 1.0

    @given(st.floats(-20, 20))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, x):
        intervals = ((-3.0, -1.0), (0.5, 0.5), (2.0, 7.0))
        s = RealSpectrum(intervals=intervals, resolution_error=0.0, solver=0.0)
        brute = min(
            0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
            for lo, hi in intervals
        )
        assert points_distance(np.array([x]), s)[0] == pytest.approx(brute, abs=1e-12)


class TestSpectrumFromPoints:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_refused(self, bad):
        with pytest.raises(InvalidParameterError, match="interval endpoint must be finite"):
            spectrum_from_points([bad, 1.0])
        with pytest.raises(InvalidParameterError, match="interval endpoint must be finite"):
            spectrum_from_points(np.array([0.0, 2.0, bad]))

    def test_nested_point_refused(self):
        # once a bare TypeError from the float conversion of a nested list
        with pytest.raises(InvalidParameterError,
                           match=r"interval endpoint must be a real number, got \[1.0, 2.0\]"):
            spectrum_from_points([[1.0, 2.0]])

    def test_ragged_points_refused(self):
        # once numpy's bare ValueError for an inhomogeneous shape
        with pytest.raises(InvalidParameterError,
                           match=r"interval endpoint must be a real number, got \[1.0\]"):
            spectrum_from_points([[1.0], 2.0])

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                    | st.sampled_from([0.0, -0.0, 1.0]), min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_matches_sort_and_merge(self, points):
        # the np.unique construction sort-and-merge replaced, as the reference:
        # return_index sorts stably, so of 0.0 and -0.0 the first given is
        # kept; repr tells the two apart
        unique, _ = np.unique(np.asarray(points, dtype=float), return_index=True)
        expected = tuple((x, x) for x in unique.tolist())
        assert repr(spectrum_from_points(points).intervals) == repr(expected)
        assert repr(spectrum_from_points(np.array(points)).intervals) == repr(expected)


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
            merged = merge_intervals(zip(lo, hi))
            return RealSpectrum(intervals=merged, resolution_error=0.0, solver=0.0)

        a, b = union(), union()
        assert _directed_hausdorff(a, b) == directed_hausdorff_loop(a, b)
        assert _directed_hausdorff(b, a) == directed_hausdorff_loop(b, a)

    def test_gap_against_hull(self):
        s1 = RealSpectrum(intervals=((0.0, 1.0), (3.0, 4.0)), resolution_error=0.0, solver=0.0)
        s2 = RealSpectrum(intervals=((0.0, 4.0),), resolution_error=0.0, solver=0.0)
        assert hausdorff_distance(s1, s2) == pytest.approx(1.0)

    def test_symmetric_and_zero_on_equal(self):
        s1 = RealSpectrum(intervals=((0.0, 1.0), (2.0, 5.0)), resolution_error=0.0, solver=0.0)
        s2 = RealSpectrum(intervals=((-1.0, 1.5),), resolution_error=0.0, solver=0.0)
        assert hausdorff_distance(s1, s2) == hausdorff_distance(s2, s1)
        assert hausdorff_distance(s1, s1) == 0.0

    def test_translation(self):
        s1 = RealSpectrum(intervals=((0.0, 1.0),), resolution_error=0.0, solver=0.0)
        s2 = RealSpectrum(intervals=((2.5, 3.5),), resolution_error=0.0, solver=0.0)
        assert hausdorff_distance(s1, s2) == pytest.approx(2.5)

    def test_empty_rejected(self):
        # the empty operand is refused where it is built, before any distance
        t = RealSpectrum(intervals=((0.0, 1.0),), resolution_error=0.0, solver=0.0)
        assert hausdorff_distance(t, t) == 0.0
        with pytest.raises(InvalidParameterError, match="a spectrum needs at least one interval"):
            RealSpectrum(intervals=(), resolution_error=0.0, solver=0.0)

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
        s1 = RealSpectrum(intervals=ints1, resolution_error=0.0, solver=0.0)
        s2 = RealSpectrum(intervals=ints2, resolution_error=0.0, solver=0.0)
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
    def test_gaps_and_epsilon_star_are_not_fields(self):
        # cached on the enclosure, but records, equality and hashing ignore them
        s = RealSpectrum(intervals=((0.0, 1.0), (3.0, 4.0)), resolution_error=0.0, solver=0.0)
        assert (s.gaps, s.epsilon_star) == (((1.0, 3.0, 2.0),), 1.0)
        assert [f.name for f in fields(RealSpectrum)] == ["intervals", "resolution_error", "solver"]
        assert list(_record(s)) == ["intervals", "resolution_error", "solver"]
        twin = RealSpectrum(intervals=s.intervals, resolution_error=0.0, solver=0.0)
        assert s == twin and hash(s) == hash(twin)
        with pytest.raises(InvalidParameterError, match="a spectrum needs at least one interval"):
            RealSpectrum(intervals=(), resolution_error=0.0, solver=0.0)

    def test_json_dict_fields(self, tmp_path):
        spec = {"kind": "schrodinger", "period": 2, "v": [0.0, 1.0]}
        assert main(["spectrum", "--spec", json.dumps(spec), "--grid", "256",
                     "--out", str(tmp_path), "--format", "json"]) == 0
        d = json.loads((tmp_path / "spectrum.json").read_text())
        assert set(d) - {"version", "gap_report"} == {"intervals", "resolution_error", "solver"}
        assert all(len(pair) == 2 for pair in d["intervals"])
