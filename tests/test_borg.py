"""Deviation certificates: forward/converse checks, and the interlacing and
trace identities of the submatrices J_k that the forward proof rests on.

The frozen period-2 instance in TestConverse documents why the converse
hypothesis carries the combined bound dev(v) + 2 dev(a) <= 2 eps: for p=2
the central gap has half-width sqrt(dev(v)^2 + (a1 - a2)^2) exactly, which
can exceed 2 eps when only the per-sequence bounds hold.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borg_spectra import (
    Connectivity,
    HypothesisViolationError,
    InvalidParameterError,
    InvalidSpecError,
    OperatorKind,
    RealSpectrum,
    TheoremId,
    best_constant,
    compute_spectrum,
    connectivity,
    converse_from_spectrum,
    forward_from_spectrum,
    interlacing_submatrix,
)
from borg_spectra.borg import converse_threshold
from borg_spectra.cli import main
from conftest import interlacing_violation, jacobi, laurent, random_spec, schrodinger

CONNECTED = Connectivity.CONNECTED
# Each trace sums p - 1 <= 7 entries of size <= 5, so each float sum is
# within 6 u 35 < 3e-14 (u = 2^-53) of its exact value; a difference of two
# traces, against the difference of two direct sums, stays below 1.5e-13.
TRACE_TOL = 1e-12


def trace_difference(spec, k1, k2):
    """|Tr J_{k1} - Tr J_{k2}|, a difference of two partial sums of v."""
    t1 = float(np.trace(interlacing_submatrix(spec, k1)))
    return abs(t1 - float(np.trace(interlacing_submatrix(spec, k2))))


class TestBestConstant:
    def test_staircase(self):
        c, dev = best_constant((1.0, 1.1, 1.2, 1.3, 1.4))
        assert c == pytest.approx(1.2)
        assert dev == pytest.approx(0.2)

    def test_ramp(self):
        c, dev = best_constant([0.05 * j for j in range(10)])
        assert c == pytest.approx(0.225)
        assert dev == pytest.approx(0.225)

    def test_constant(self):
        assert best_constant((2.5, 2.5, 2.5)) == (2.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            best_constant(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="potential values must be finite"):
            best_constant((0.0, bad))

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_chebyshev_center_is_optimal(self, v):
        c, dev = best_constant(v)
        assert dev == pytest.approx(max(abs(x - c) for x in v), abs=1e-12)
        for other in (c - 0.1, c + 0.1, 0.0):
            assert dev <= max(abs(x - other) for x in v) + 1e-12


class TestForward:
    def test_staircase_satisfied(self):
        spec = schrodinger((1.0, 1.1, 1.2, 1.3, 1.4))
        rep = forward_from_spectrum(spec, compute_spectrum(spec), 0.2)
        assert rep.theorem is TheoremId.FORWARD21
        assert rep.connected is CONNECTED and rep.hypothesis_met
        assert rep.bound == pytest.approx(1.6)
        assert rep.deviation == pytest.approx(0.2)
        assert rep.satisfied
        assert rep.margin == pytest.approx(rep.bound - rep.deviation)

    def test_constant_margin_equals_bound(self):
        spec = schrodinger((0.5, 0.5, 0.5))
        rep = forward_from_spectrum(spec, compute_spectrum(spec), 0.3)
        assert rep.connected is CONNECTED and rep.satisfied
        assert rep.deviation == 0.0
        assert rep.margin == pytest.approx(rep.bound)

    def test_two_site_at_half_gap(self):
        delta = 1.0
        spec = schrodinger((0.0, delta))
        rep = forward_from_spectrum(spec, compute_spectrum(spec), delta / 2.0)
        # the true gap delta closes under delta/2-fattening, but the
        # enclosure certifies that only from epsilon_star = (delta - 2 pad) / 2
        # + pad + solver = delta/2 + solver on
        assert rep.connected is Connectivity.UNDECIDED
        rep = forward_from_spectrum(spec, compute_spectrum(spec), rep.epsilon_star)
        assert rep.connected is CONNECTED
        assert rep.deviation == pytest.approx(delta / 2.0)
        assert rep.bound == pytest.approx(delta)
        assert rep.satisfied

    def test_disconnected_is_vacuous(self):
        spec = schrodinger((0.0, 3.0))
        rep = forward_from_spectrum(spec, compute_spectrum(spec), 0.05)
        assert rep.connected is Connectivity.DISCONNECTED
        assert rep.satisfied  # nothing to certify

    def test_negative_margin_unsatisfied(self):
        # a connected verdict (here on a made-up one-interval enclosure) with
        # the deviation 2e-9 over the bound: flagged, with no slack to absorb it
        spec = schrodinger((0.0, 0.4 + 4e-9))
        spectrum = RealSpectrum(intervals=((-3.0, 3.0),), resolution_error=0.0, solver=0.0)
        rep = forward_from_spectrum(spec, spectrum, 0.1)
        assert rep.connected is CONNECTED
        assert -1e-8 < rep.margin < 0.0
        assert not rep.satisfied

    def test_jacobi_reports_weight_deviation(self):
        spec = jacobi((0.0, 0.1), (1.0, 1.2))
        rep = forward_from_spectrum(spec, compute_spectrum(spec), 0.5)
        assert rep.theorem is TheoremId.FORWARD_JACOBI31
        assert rep.a_deviation == pytest.approx(0.1)

    def test_laurent_forward_runs(self):
        spec = laurent((0.0, 0.5, 1.0), ((1, 1.0),))
        rep = forward_from_spectrum(spec, compute_spectrum(spec), 0.4)
        assert rep.theorem is TheoremId.FORWARD_LAURENT33

    def test_epsilon_validation(self):
        spec = schrodinger((0.0, 1.0))
        spectrum = compute_spectrum(spec)
        with pytest.raises(InvalidParameterError):
            forward_from_spectrum(spec, spectrum, 0.0)
        with pytest.raises(InvalidParameterError):
            forward_from_spectrum(spec, spectrum, -1.0)

    def test_overflowing_epsilon_refused(self):
        # 2 eps (p - 1) and the 2 eps-fattened hull would be infinite
        spec = schrodinger((0.0, 1.0))
        spectrum = compute_spectrum(spec)
        for check in (forward_from_spectrum, converse_from_spectrum):
            with pytest.raises(InvalidParameterError, match="too large"):
                check(spec, spectrum, 1e308)


class TestConverse:
    def test_two_site_slack(self):
        delta = 1.0
        spec = schrodinger((0.0, delta))
        rep = converse_from_spectrum(spec, compute_spectrum(spec), delta / 2.0)
        assert rep.theorem is TheoremId.CONVERSE22
        assert rep.hypothesis_met and rep.connected is CONNECTED and rep.satisfied
        # slack = 2 eps - epsilon_star = delta - delta/2
        assert rep.margin == pytest.approx(delta / 2.0, abs=1e-6)

    def test_constant_trivially_connected(self):
        spec = schrodinger((1.0, 1.0, 1.0))
        rep = converse_from_spectrum(spec, compute_spectrum(spec), 0.2)
        assert rep.hypothesis_met and rep.connected is CONNECTED and rep.satisfied

    def test_hypothesis_unmet_is_vacuous(self):
        spec = schrodinger((0.0, 3.0))
        rep = converse_from_spectrum(spec, compute_spectrum(spec), 0.1)
        assert not rep.hypothesis_met
        assert rep.satisfied

    def test_laurent_has_no_converse(self):
        spec = laurent((0.0, 1.0), ((1, 1.0),))
        with pytest.raises(HypothesisViolationError):
            converse_from_spectrum(spec, compute_spectrum(spec), 0.5)

    def test_combined_bound_counterexample_frozen(self):
        # Both per-sequence deviations are <= eps, yet the gap half-width
        # sqrt(dev_v^2 + 4 dev_a^2) = 0.5449 exceeds 2 eps = 0.4878: the
        # 2 eps fattening genuinely stays disconnected, so the hypothesis
        # must be reported unmet rather than the certificate violated.
        v = (0.09194979150319749, -0.39333774878924466)
        a = (1.0559775512594793, 1.5438003170799237)
        spec = jacobi(v, a)
        eps = best_constant(a)[1]
        dev_v = best_constant(v)[1]
        assert dev_v <= eps and best_constant(a)[1] <= eps
        half_width = math.hypot(dev_v, a[0] - a[1])
        assert half_width > 2 * eps  # the 2x2 closed form confirms the gap
        rep = converse_from_spectrum(spec, compute_spectrum(spec), eps)
        assert rep.connected is Connectivity.DISCONNECTED
        assert not rep.hypothesis_met
        assert rep.satisfied  # vacuous, not violated

    def test_combined_bound_admits_certificate(self):
        v = (0.09194979150319749, -0.39333774878924466)
        a = (1.0559775512594793, 1.5438003170799237)
        spec = jacobi(v, a)
        dev_v = best_constant(v)[1]
        dev_a = best_constant(a)[1]
        eps = max(dev_v, dev_a, (dev_v + 2 * dev_a) / 2.0)
        rep = converse_from_spectrum(spec, compute_spectrum(spec), eps)
        assert rep.hypothesis_met
        assert rep.connected is CONNECTED and rep.satisfied

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_threshold_is_where_the_hypothesis_starts(self, seed):
        spec = random_spec(np.random.default_rng(seed), p_max=5)
        spectrum = compute_spectrum(spec)
        eps = converse_threshold(spec)
        assert converse_from_spectrum(spec, spectrum, eps).hypothesis_met
        below = math.nextafter(eps, 0.0)
        assert not converse_from_spectrum(spec, spectrum, below).hypothesis_met

    @given(st.integers(0, 5_000))
    @settings(max_examples=60, deadline=None)
    def test_schrodinger_converse_always_holds(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 7))
        spec = schrodinger(tuple(rng.uniform(-1, 1, size=p)))
        dev = best_constant(spec.v)[1]
        if dev == 0.0:
            return
        rep = converse_from_spectrum(spec, compute_spectrum(spec, 512), dev)
        assert rep.hypothesis_met and rep.connected is CONNECTED and rep.satisfied


def random_specs(count: int) -> list:
    rng = np.random.default_rng(2026)
    return [random_spec(rng) for _ in range(count)]


class TestSharpForms:
    """The sharp statements behind both directions, on today's enclosures.
    Forward: the j-th eigenvalue of J_k lies in the closed j-th gap
    (interlacing), so |v_k - v_k'| = |Tr J_k' - Tr J_k| is at most the sum
    of the gap widths, with equality at p = 2, v = (d, -d), whose one gap
    is (-d, d).  Each of the at most p - 1 true gaps is at most its padded
    gap plus 2 (delta + solver) (module docstring of `spectra`).
    Converse: a Schrodinger potential within dev of c moves the gapless
    free spectrum [c - 2, c + 2] by at most dev (Weyl), so no gap is wider
    than 2 dev; Jacobi weights enter twice, and their converse needs 2 eps."""

    def test_forward_inequality(self):
        for spec in random_specs(3_000):
            spectrum = compute_spectrum(spec)
            widths = sum(width for _, _, width in spectrum.gaps)
            slack = 2 * (spec.period - 1) * (spectrum.resolution_error + spectrum.solver)
            assert max(spec.v) - min(spec.v) <= widths + slack, spec

    @pytest.mark.parametrize("d", [0.1, 0.5, 1.0, 3.0])
    def test_forward_equality_case(self, d):
        spec = schrodinger((d, -d))
        spectrum = compute_spectrum(spec)
        (_, _, width), = spectrum.gaps
        slack = 2 * (spectrum.resolution_error + spectrum.solver)
        assert width <= 2 * d <= width + slack

    def test_schrodinger_converse_at_epsilon(self):
        # no padded gap is wider than 2 dev, so the dev-pseudospectrum,
        # not only the 2 dev one, is never certified disconnected
        specs = [s for s in random_specs(3_000) if s.kind is OperatorKind.SCHRODINGER]
        assert len(specs) > 1_000
        for spec in specs:
            deviation = best_constant(spec.v)[1]
            if deviation > 0.0:
                verdict = connectivity(compute_spectrum(spec), deviation)
                assert verdict is not Connectivity.DISCONNECTED, spec

    def test_schrodinger_converse_is_sharp(self):
        spec = schrodinger((0.5, -0.5))
        assert connectivity(compute_spectrum(spec), 0.5) is Connectivity.UNDECIDED

    @pytest.mark.parametrize("e", [0.2, 0.5, 0.9])
    def test_jacobi_needs_two_epsilon(self, e):
        # bands +-|a_1 + a_2 e^{i theta}| = +-[2e, 2]: one gap of width 4e,
        # twice the threshold e, so only the 2e radius can reach it
        spec = jacobi((0.0, 0.0), (1.0 + e, 1.0 - e))
        spectrum = compute_spectrum(spec)
        threshold = converse_threshold(spec)  # e, up to the rounding of 1 +- e
        assert threshold == pytest.approx(e, abs=1e-15)
        assert connectivity(spectrum, threshold) is Connectivity.DISCONNECTED
        assert connectivity(spectrum, 2.0 * threshold) is Connectivity.UNDECIDED
        (_, _, width), = spectrum.gaps
        assert width == pytest.approx(4.0 * e - 2.0 * spectrum.resolution_error, abs=1e-12)
        report = converse_from_spectrum(spec, spectrum, threshold)
        assert report.hypothesis_met and report.satisfied


class TestInterlacing:
    def test_staircase_all_grid_points(self):
        assert interlacing_violation(schrodinger((1.0, 1.1, 1.2, 1.3, 1.4)), 0, 1024) <= 1e-9

    def test_two_site_truncation_value_in_band_gap(self):
        delta = 0.5
        spec = schrodinger((0.0, delta))
        assert interlacing_violation(spec, 0, 512) <= 1e-9
        # the 1x1 truncation eigenvalue v_1 = 0 sits between band 1 max (0)
        # and band 2 min (delta)
        s = compute_spectrum(spec, 2048)
        assert s.intervals[0][1] >= 0.0 - 1e-9
        assert s.intervals[1][0] <= delta + 1e-9

    def test_shift_choice(self):
        spec = jacobi((0.0, 1.0, -1.0), (0.5, 1.5, 1.0))
        for k in range(3):
            assert interlacing_violation(spec, k, 256) <= 1e-9

    def test_period_one_rejected(self):
        with pytest.raises((InvalidParameterError, InvalidSpecError)):
            interlacing_submatrix(schrodinger((0.0,)), 0)


class TestTraceGap:
    def test_staircase_adjacent(self):
        difference = trace_difference(schrodinger((1.0, 1.1, 1.2, 1.3, 1.4)), 0, 1)
        assert difference == pytest.approx(0.4, abs=TRACE_TOL)
        assert difference <= 2.0 * 0.2 * 4  # 2 eps (p - 1) at eps = 0.2

    def test_ramp_two_apart(self):
        difference = trace_difference(schrodinger((0.0, 1.0, 2.0, 3.0)), 0, 2)
        assert difference == pytest.approx(2.0, abs=TRACE_TOL)

    def test_constant_all_pairs(self):
        spec = schrodinger((0.7, 0.7, 0.7, 0.7))
        for k1 in range(4):
            for k2 in range(4):
                assert trace_difference(spec, k1, k2) <= TRACE_TOL

    def test_telescoped_identity_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = int(rng.integers(2, 9))
            v = rng.uniform(-5, 5, size=p)
            spec = schrodinger(tuple(v))
            for i in range(p):
                direct = abs(
                    float(np.sum(v[:p - 1])) - float(np.sum(v[(np.arange(p - 1) + i) % p]))
                )
                assert trace_difference(spec, 0, i) == pytest.approx(direct, abs=TRACE_TOL)

    def test_period_one_rejected(self):
        with pytest.raises(InvalidSpecError):  # as interlacing_submatrix refuses it
            trace_difference(schrodinger((0.0,)), 0, 0)


class TestReportInvariants:
    @given(st.integers(0, 3_000))
    @settings(max_examples=40, deadline=None)
    def test_satisfied_iff_margin_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        eps = float(rng.uniform(0.01, 1.0))
        rep = forward_from_spectrum(spec, compute_spectrum(spec, 512), eps)
        if rep.connected is CONNECTED:
            assert rep.satisfied == (rep.margin >= 0.0)
            assert rep.deviation <= eps * (spec.period - 1)  # half the bound
        else:
            assert rep.satisfied

    @given(st.integers(0, 3_000))
    @settings(max_examples=40, deadline=None)
    def test_verdict_and_epsilon_star_match_connectivity(self, seed):
        # each check reads its verdict and epsilon_star from one gap report;
        # the radii straddle every verdict: half the widest gap (disconnected
        # from below), just under epsilon_star (undecided) and epsilon_star
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        spectrum = compute_spectrum(spec, 512)
        report = spectrum
        half_widest = max((w for _, _, w in report.gaps), default=0.0) / 2.0
        radii = [report.epsilon_star, 0.999 * report.epsilon_star,
                 converse_threshold(spec), float(rng.uniform(0.01, 1.0)),
                 half_widest, 0.999 * half_widest, 0.5 * half_widest]
        for eps in filter(None, radii):
            forward = forward_from_spectrum(spec, spectrum, eps)
            converse = converse_from_spectrum(spec, spectrum, eps)
            assert forward.connected is connectivity(spectrum, eps)
            assert converse.connected is connectivity(spectrum, 2.0 * eps)
            assert forward.epsilon_star == converse.epsilon_star == report.epsilon_star

    def test_json_dict_fields(self, tmp_path):
        jacobi_spec = {"kind": "jacobi", "period": 2, "v": [0.0, 0.2], "a": [1.0, 1.1]}
        argv = ["borg", "--epsilon", "0.3", "--check", "forward", "--grid", "256",
                "--out", str(tmp_path), "--format", "json"]
        assert main(argv + ["--spec", json.dumps(jacobi_spec)]) == 0
        (d,) = json.loads((tmp_path / "borg.json").read_text())["reports"]
        assert d["theorem"] == "ForwardJacobi31"
        assert set(d) == {
            "theorem", "epsilon", "best_c", "deviation", "bound",
            "satisfied", "margin", "hypothesis_met", "connected",
            "epsilon_star", "a_deviation",
        }
        schrodinger_spec = {"kind": "schrodinger", "period": 2, "v": [0.0, 0.2]}
        assert main(argv + ["--spec", json.dumps(schrodinger_spec)]) == 0
        (d2,) = json.loads((tmp_path / "borg.json").read_text())["reports"]
        assert "a_deviation" not in d2
