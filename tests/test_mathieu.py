"""Continued-fraction approximants and the cosine quasi-periodic sweep."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borg_spectra import (
    Convergent,
    InvalidParameterError,
    approximant_sweep,
    compute_spectrum,
    convergents,
    hausdorff_distance,
    mathieu_potential,
    tenmartini_premise,
)
from borg_spectra.mathieu import _potential_sup_distance
from conftest import schrodinger

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestConvergents:
    def test_golden_mean(self):
        run = convergents(GOLDEN, 5)
        assert [(c.a, c.b) for c in run.convergents] == [
            (1, 1), (1, 2), (2, 3), (3, 5), (5, 8)
        ]
        assert not run.truncated

    def test_pi_fraction(self):
        run = convergents(math.pi - 3.0, 3)
        assert [(c.a, c.b) for c in run.convergents] == [(1, 7), (15, 106), (16, 113)]

    def test_rational_input_truncates(self):
        run = convergents(0.5, 5)
        assert [(c.a, c.b) for c in run.convergents] == [(1, 2)]
        assert run.truncated

    def test_quality_bound(self):
        for c in convergents(GOLDEN, 12).convergents:
            assert abs(GOLDEN - c.a / c.b) <= 1.0 / c.b**2 + 1e-15

    def test_reduced_fractions(self):
        for c in convergents(math.pi - 3.0, 8).convergents:
            assert math.gcd(c.a, c.b) == 1

    def test_denominator_cap(self):
        run = convergents(GOLDEN, 60)
        assert run.truncated
        assert all(c.b <= 1 << 26 for c in run.convergents)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            convergents(float("nan"), 3)
        with pytest.raises(InvalidParameterError):
            convergents(float("inf"), 3)
        with pytest.raises(InvalidParameterError):
            convergents(GOLDEN, 0)

    def test_reciprocal_overflow_truncates(self):
        # 1 / alpha overflows to inf below about 5.6e-309
        run = convergents(1e-310, 3)
        assert run.convergents == () and run.truncated

    def test_integer_part_kept_when_nonzero(self):
        run = convergents(1.0 + GOLDEN, 3)
        first = run.convergents[0]
        assert (first.a, first.b) == (1, 1)

    @given(st.floats(0.01, 0.99), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_denominators_nondecreasing(self, alpha, count):
        run = convergents(alpha, count)
        bs = [c.b for c in run.convergents]
        assert all(b1 <= b2 for b1, b2 in zip(bs, bs[1:]))

    def test_convergent_validation(self):
        with pytest.raises(InvalidParameterError):
            Convergent(a=2, b=4)  # not reduced
        with pytest.raises(InvalidParameterError):
            Convergent(a=1, b=0)


class TestMathieuPotential:
    def test_values_are_scaled_cosines(self):
        conv = Convergent(a=2, b=5)
        spec = mathieu_potential(conv, coupling=1.5)
        assert spec.period == 5
        for j in range(5):
            expected = 1.5 * math.cos(2.0 * math.pi * ((j + 1) * 2 % 5) / 5.0)
            assert spec.v[j] == pytest.approx(expected, abs=1e-15)

    def test_exact_periodicity(self):
        spec = mathieu_potential(Convergent(a=5, b=8), coupling=1.0)
        # the phase is reduced mod b in exact integers, so the defining
        # cosine evaluated 8 sites later gives the same floats bit for bit
        later = [math.cos(2.0 * math.pi * (((j + 8) * 5) % 8) / 8) for j in range(1, 9)]
        assert np.asarray(spec.v).tobytes() == np.asarray(later).tobytes()

    def test_minimal_period_is_denominator(self):
        for a, b in ((1, 2), (2, 3), (3, 5), (5, 8), (8, 13)):
            conv = Convergent(a=a, b=b)
            spec = mathieu_potential(conv, coupling=1.0)
            assert spec.period == b

    def test_zero_coupling_gives_free_operator(self):
        conv = Convergent(a=3, b=5)
        spec = mathieu_potential(conv, coupling=0.0)
        assert spec.period == 1  # constant zero potential collapses
        s = compute_spectrum(spec, 512)
        assert len(s.intervals) == 1
        assert s.intervals[0][0] == pytest.approx(-2.0, abs=0.02)
        assert s.intervals[0][1] == pytest.approx(2.0, abs=0.02)


    @pytest.mark.parametrize("a, b, coupling", [
        (55, 89, 1e-11), (987, 1597, 1e-11), (1597, 2584, 1e-11),
        (987, 1597, 1e-10), (1597, 2584, 1e-10), (1597, 2584, 1e-12),
    ])
    def test_small_coupling_keeps_period_b(self, a, b, coupling):
        # a search within a fixed tolerance once reported 34, 377 or 3 here
        spec = mathieu_potential(Convergent(a=a, b=b), coupling)
        assert spec.period == b
        assert len(spec.v) == b

    def test_no_smaller_exact_period_below_400(self):
        # exact, no tolerance: cos(2 pi r/b) = cos(2 pi s/b) iff s = +-r
        # (mod b), so key min(r, b - r) names each exact value, and the
        # minimal period of one window s is the first index >= 1 at which s
        # recurs in s + s
        for b in range(1, 400):
            units = [a for a in range(b) if math.gcd(a, b) == 1]
            r = np.outer(np.array(units, dtype=np.uint32), np.arange(1, b + 1, dtype=np.uint32)) % b
            keys = np.minimum(r, b - r)
            for row in keys:
                s = row.tobytes().decode("utf-32-le")
                assert (s + s).find(s, 1) == b

    def test_period_is_denominator_for_every_reduced_fraction(self):
        for b in range(1, 60):
            for a in range(-b, b + 1):
                if math.gcd(a, b) == 1:
                    assert mathieu_potential(Convergent(a=a, b=b), -0.3).period == b


def windowed_sup_distance(spec1, spec2) -> float:
    """The reference: sup_j |v1_j - v2_j| over one lcm(p1, p2) window."""
    window = math.lcm(spec1.period, spec2.period)
    v1 = np.asarray(spec1.v)[np.arange(window) % spec1.period]
    v2 = np.asarray(spec2.v)[np.arange(window) % spec2.period]
    return float(np.max(np.abs(v1 - v2)))


VALUES = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, 1.0])


class TestPotentialSupDistance:
    def test_matches_window_on_golden_pairs(self):
        pots = [mathieu_potential(c, 1.0) for c in convergents(GOLDEN, 15).convergents]
        assert pots[-1].period == 987
        for s1, s2 in zip(pots, pots[1:]):
            assert repr(_potential_sup_distance(s1, s2)) == repr(windowed_sup_distance(s1, s2))

    @given(st.lists(VALUES, min_size=1, max_size=12), st.lists(VALUES, min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_matches_window_for_any_periods(self, v1, v2):
        s1, s2 = schrodinger(v1), schrodinger(v2)
        # repr tells -0.0 from 0.0, which == does not
        assert repr(_potential_sup_distance(s1, s2)) == repr(windowed_sup_distance(s1, s2))
        assert repr(_potential_sup_distance(s2, s1)) == repr(windowed_sup_distance(s2, s1))

    def test_zero_coupling_distance_is_positive_zero(self):
        pots = [mathieu_potential(c, 0.0) for c in convergents(GOLDEN, 8).convergents]
        assert {math.copysign(1.0, v) for s in pots for v in s.v} == {1.0, -1.0}
        for s1, s2 in zip(pots, pots[1:]):
            assert repr(_potential_sup_distance(s1, s2)) == "0.0"

    def test_linear_memory(self):
        s1 = mathieu_potential(Convergent(a=987, b=1597))
        s2 = mathieu_potential(Convergent(a=1597, b=2584))
        tracemalloc.start()
        try:
            _potential_sup_distance(s1, s2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20  # one lcm window is 126 MB


class TestSweep:
    def test_golden_sweep_shape(self):
        sweep = approximant_sweep(GOLDEN, 5, epsilons=(0.1,), coupling=1.0)
        assert [r.convergent.b for r in sweep.reports] == [1, 2, 3, 5, 8]
        assert [r.period for r in sweep.reports] == [1, 2, 3, 5, 8]
        assert len(sweep.hausdorff_next) == 4
        assert len(sweep.potential_sup_next) == 4

    def test_hausdorff_bounded_by_sup_distance(self):
        sweep = approximant_sweep(GOLDEN, 6, coupling=1.0)
        for dh, sup in zip(sweep.hausdorff_next, sweep.potential_sup_next):
            assert dh <= sup + 1e-9

    def test_gap_counts_recorded(self):
        sweep = approximant_sweep(GOLDEN, 5, coupling=1.0)
        for rep in sweep.reports:
            assert rep.gap_count == len(gaps_of(rep))
            assert rep.epsilon_star >= 0.0

    def test_connectivity_flags_per_epsilon(self):
        sweep = approximant_sweep(GOLDEN, 3, epsilons=(0.05, 2.5), coupling=1.0)
        for rep in sweep.reports:
            assert set(rep.pseudo_connected) == {0.05, 2.5}
            assert rep.pseudo_connected[2.5]  # huge fattening always connects

    def test_needs_two_convergents(self):
        with pytest.raises(InvalidParameterError):
            approximant_sweep(GOLDEN, 1)


def gaps_of(report):
    from borg_spectra import gap_report

    return gap_report(report.spectrum).gaps


class TestPremise:
    def test_incompatible_case(self):
        pots = [
            mathieu_potential(c, 1.0)
            for c in convergents(GOLDEN, 5).convergents
        ]
        rep = tenmartini_premise(pots, 0.1, period_cap=5)
        assert rep.period_cap == 5
        assert rep.bound == pytest.approx(0.8)
        assert rep.limit_deviation == pytest.approx(1.0)
        assert not rep.compatible  # 1.0 > 0.8
        assert rep.incompatibility_threshold == pytest.approx(0.125)

    def test_compatible_with_large_epsilon(self):
        pots = [
            mathieu_potential(c, 1.0)
            for c in convergents(GOLDEN, 5).convergents
        ]
        rep = tenmartini_premise(pots, 0.2)
        assert rep.period_cap == 8
        assert rep.bound == pytest.approx(2.8)
        assert rep.compatible

    def test_period_cap_must_cover_specs(self):
        pots = [mathieu_potential(c, 1.0) for c in convergents(GOLDEN, 4).convergents]
        rep = tenmartini_premise(pots, 0.1, period_cap=3)
        assert not rep.periods_bounded  # largest period 5 exceeds the cap

    def test_epsilon_validation(self):
        pots = [mathieu_potential(Convergent(a=1, b=2), 1.0)]
        with pytest.raises(InvalidParameterError):
            tenmartini_premise(pots, 0.0)

    def test_overflowing_bound_refused(self):
        pots = [mathieu_potential(c, 1.0) for c in convergents(GOLDEN, 3).convergents]
        with pytest.raises(InvalidParameterError, match="too large"):
            tenmartini_premise(pots, 1e308)
        with pytest.raises(InvalidParameterError, match="too large"):
            tenmartini_premise(pots, 0.1, period_cap=10**400)
