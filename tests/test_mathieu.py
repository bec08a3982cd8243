"""Continued-fraction approximants and the cosine quasi-periodic sweep."""
from __future__ import annotations

import json
import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from borg_spectra import (
    Connectivity,
    Convergent,
    InvalidParameterError,
    approximant_sweep,
    cli,
    compute_spectrum,
    convergents,
    hausdorff_distance,
    mathieu,
    mathieu_potential,
    spectra,
    tenmartini_premise,
)
from borg_spectra.mathieu import DENOMINATOR_LIMIT, _potential_sup_distance
from conftest import assert_rejected_before_allocating, schrodinger

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def exact_convergents(alpha: float, count: int) -> list[tuple[int, int]]:
    """Reference expansion of the float alpha in exact rationals, by the
    recursion x -> 1 / (x - floor x), with the library's skip and limit."""
    x = Fraction(alpha)
    q = math.floor(x)
    h_prev, k_prev, h, k = 1, 0, q, 1
    out = [(h, k)] if q != 0 else []
    while len(out) < count and x != q:
        x = 1 / (x - q)
        q = math.floor(x)
        h, h_prev = q * h + h_prev, h
        k, k_prev = q * k + k_prev, k
        if k > DENOMINATOR_LIMIT:
            break
        out.append((h, k))
    return out


class TestConvergents:
    def test_golden_mean(self):
        run = convergents(GOLDEN, 5)
        assert [(c.a, c.b) for c in run] == [
            (1, 1), (1, 2), (2, 3), (3, 5), (5, 8)
        ]
        assert not len(run) < 5

    def test_pi_fraction(self):
        run = convergents(math.pi - 3.0, 3)
        assert [(c.a, c.b) for c in run] == [(1, 7), (15, 106), (16, 113)]

    def test_rational_input_truncates(self):
        run = convergents(0.5, 5)
        assert [(c.a, c.b) for c in run] == [(1, 2)]
        assert len(run) < 5

    def test_quality_bound(self):
        for c in convergents(GOLDEN, 12):
            assert abs(GOLDEN - c.a / c.b) <= 1.0 / c.b**2 + 1e-15

    def test_reduced_fractions(self):
        for c in convergents(math.pi - 3.0, 8):
            assert math.gcd(c.a, c.b) == 1

    def test_denominator_cap(self):
        run = convergents(GOLDEN, 60)
        assert len(run) < 60
        assert all(c.b <= 1 << 26 for c in run)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            convergents(float("nan"), 3)
        with pytest.raises(InvalidParameterError):
            convergents(float("inf"), 3)
        with pytest.raises(InvalidParameterError):
            convergents(GOLDEN, 0)

    def test_reciprocal_overflow_truncates(self):
        # 1 / alpha would overflow to inf below about 5.6e-309; the first
        # denominator is then far past the limit
        run = convergents(1e-310, 3)
        assert run == () and len(run) < 3

    def test_integer_part_kept_when_nonzero(self):
        run = convergents(1.0 + GOLDEN, 3)
        first = run[0]
        assert (first.a, first.b) == (1, 1)

    @given(st.floats(0.01, 0.99), st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_denominators_nondecreasing(self, alpha, count):
        run = convergents(alpha, count)
        bs = [c.b for c in run]
        assert all(b1 <= b2 for b1, b2 in zip(bs, bs[1:]))

    def test_exact_past_float_drift(self):
        # the float recursion frac = 1 / frac - q once drifted here and ended
        # on 100740715/57513141, which is not a convergent of this float
        alpha = 1.7516121228711885
        run = convergents(alpha, 60)
        assert [(c.a, c.b) for c in run] == exact_convergents(alpha, 60)
        assert (run[-1].a, run[-1].b) == (70590184, 40300123)
        assert len(run) < 60

    @given(st.one_of(st.floats(-10.0, 10.0), st.floats(0.0, 1e-3)), st.integers(1, 60))
    @example(GOLDEN, 60)
    @example(math.sqrt(2.0), 60)
    @example(math.sqrt(2.0) - 1.0, 60)
    @example(math.e, 60)
    @example(math.pi, 60)
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_expansion(self, alpha, count):
        run = convergents(alpha, count)
        expected = exact_convergents(alpha, count)
        assert [(c.a, c.b) for c in run] == expected

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
        pots = [mathieu_potential(c, 1.0) for c in convergents(GOLDEN, 15)]
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
        pots = [mathieu_potential(c, 0.0) for c in convergents(GOLDEN, 8)]
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
        assert [r.spec.period for r in sweep.reports] == [1, 2, 3, 5, 8]
        for rep in sweep.reports:
            assert rep.spec == mathieu_potential(rep.convergent, 1.0)
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

    def test_every_gap_counted_at_89(self):
        # all 50 positive padded gaps of b = 89 are true gaps (Ten Martini:
        # every gap is open), none dropped as too narrow
        rep = approximant_sweep(GOLDEN, 10, coupling=1.0).reports[-1]
        assert rep.convergent.b == 89
        assert rep.gap_count == len(rep.spectrum.intervals) - 1 == 50
        # the other 38 of the 88 open gaps lie where padded bands overlap
        assert rep.unresolved_gaps == 38

    def test_connectivity_flags_per_epsilon(self):
        sweep = approximant_sweep(GOLDEN, 3, epsilons=(0.05, 2.5), coupling=1.0)
        for rep in sweep.reports:
            assert set(rep.pseudo_connected) == {0.05, 2.5}
            # huge fattening always connects
            assert rep.pseudo_connected[2.5] is Connectivity.CONNECTED

    @given(st.sampled_from([GOLDEN, 1.0 + GOLDEN, 0.5]), st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_truncated_when_fewer_reports_than_asked(self, alpha, count):
        sweep = approximant_sweep(alpha, count)
        assert sweep.truncated == (len(sweep.reports) < count)

    @pytest.mark.parametrize("alpha, coupling", [(np.float32(0.618), 1.0), (0.618, np.float32(1.0))])
    def test_numpy_inputs_give_python_floats(self, alpha, coupling):
        # single-precision inputs once reached the reports unconverted, so
        # potential_distance_bound came back a numpy.float32 and the record
        # could not be written as JSON
        sweep = approximant_sweep(alpha, 3, epsilons=(np.float32(0.5),), coupling=coupling)
        for record in (sweep, *sweep.reports):
            for field in fields(record):
                if field.type == "float":
                    assert type(getattr(record, field.name)) is float, field.name
        assert all(type(x) is float for x in sweep.hausdorff_next + sweep.potential_sup_next)
        assert all(type(eps) is float for r in sweep.reports for eps in r.pseudo_connected)
        assert json.loads(cli._json_text(cli._record(sweep)))["alpha"] == float(alpha)

    @pytest.mark.parametrize("keyword", ["alpha", "coupling"])
    def test_string_inputs_refused(self, keyword):
        args = {"alpha": GOLDEN, "coupling": 1.0, keyword: "0.618"}
        with pytest.raises(InvalidParameterError, match=f"{keyword} must be a real number"):
            approximant_sweep(args["alpha"], 3, coupling=args["coupling"])

    def test_negative_radius_refused_before_any_solve(self, monkeypatch):
        # the 1,500-site approximant of 1 / 1500.3 was once solved (about
        # 2.5 s) before connectivity refused the radius
        calls = []
        monkeypatch.setattr(mathieu, "compute_spectrum", lambda *args: calls.append(args))
        with pytest.raises(InvalidParameterError, match="epsilon must be >= 0, got -1.0"):
            approximant_sweep(1 / 1500.3, 2, epsilons=[-1.0])
        assert calls == []

    def test_lone_radius_refused_before_any_solve(self, monkeypatch):
        # the radii are a list; a lone number is refused, not iterated
        calls = []
        monkeypatch.setattr(mathieu, "compute_spectrum", lambda *args: calls.append(args))
        with pytest.raises(InvalidParameterError) as info:
            approximant_sweep(0.618, 3, epsilons=0.1)
        assert str(info.value) == "epsilons must be a list of radii, got float"
        assert calls == []

    def test_needs_two_convergents(self):
        with pytest.raises(InvalidParameterError):
            approximant_sweep(GOLDEN, 1)

    def test_largest_approximant_refused_before_its_potential(self, monkeypatch):
        # this budget admits the own cost, 480 bytes per site, of b <= 10,000;
        # count 22 reaches b = 28,657, whose potential alone takes 1.8 MB
        monkeypatch.setattr(spectra, "BYTE_BUDGET", 480 * 10_000)
        assert_rejected_before_allocating(lambda: approximant_sweep(GOLDEN, 22))


def gaps_of(report):
    return report.spectrum.gaps


class TestPremise:
    def test_incompatible_case(self):
        pots = [
            mathieu_potential(c, 1.0)
            for c in convergents(GOLDEN, 5)
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
            for c in convergents(GOLDEN, 5)
        ]
        rep = tenmartini_premise(pots, 0.2)
        assert rep.period_cap == 8
        assert rep.bound == pytest.approx(2.8)
        assert rep.compatible

    def test_deviation_at_bound_is_compatible(self):
        # deviation (0.2 - -0.2) / 2 and bound 2 * 0.1 * (2 - 1) are both 0.2
        # in floating point, so the exact comparison admits them; 2e-13 more
        # deviation is refused, with no absolute slack to hide it
        pot = schrodinger((-0.2, 0.2))
        rep = tenmartini_premise([pot], 0.1, period_cap=2)
        assert rep.limit_deviation == rep.bound == 0.2
        assert rep.compatible
        above = schrodinger((-0.2, 0.2 + 4e-13))
        rep = tenmartini_premise([above], 0.1, period_cap=2)
        assert rep.limit_deviation > rep.bound
        assert not rep.compatible

    def test_period_cap_must_cover_specs(self):
        pots = [mathieu_potential(c, 1.0) for c in convergents(GOLDEN, 4)]
        rep = tenmartini_premise(pots, 0.1, period_cap=3)
        assert not rep.periods_bounded  # largest period 5 exceeds the cap

    def test_epsilon_validation(self):
        pots = [mathieu_potential(Convergent(a=1, b=2), 1.0)]
        with pytest.raises(InvalidParameterError):
            tenmartini_premise(pots, 0.0)

    def test_empty_family_and_zero_cap_refused(self):
        with pytest.raises(InvalidParameterError, match="at least one spec"):
            tenmartini_premise([], 0.1)
        pots = [mathieu_potential(Convergent(a=1, b=2), 1.0)]
        with pytest.raises(InvalidParameterError, match="period cap must be an integer >= 1, got 0"):
            tenmartini_premise(pots, 0.1, period_cap=0)

    def test_period_cap_one_threshold(self):
        # at cap 1 the bound is 0: a constant potential meets it for every
        # epsilon (threshold 0), any deviation for none (threshold inf)
        flat = tenmartini_premise([schrodinger((0.3,))], 0.1, period_cap=1)
        assert (flat.bound, flat.limit_deviation) == (0.0, 0.0)
        assert flat.compatible and flat.incompatibility_threshold == 0.0
        steep = tenmartini_premise([schrodinger((0.0, 0.5))], 0.1, period_cap=1)
        assert steep.limit_deviation == 0.25 and not steep.periods_bounded
        assert not steep.compatible and steep.incompatibility_threshold == math.inf

    def test_overflowing_bound_refused(self):
        pots = [mathieu_potential(c, 1.0) for c in convergents(GOLDEN, 3)]
        with pytest.raises(InvalidParameterError, match="too large"):
            tenmartini_premise(pots, 1e308)
        with pytest.raises(InvalidParameterError, match="too large"):
            tenmartini_premise(pots, 0.1, period_cap=10**400)
