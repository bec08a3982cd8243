"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines.
Each test computes everything first, prints exactly one line

    ACCEPTANCE <n>: <PASS|FAIL> - <measured details>

and only then asserts, so the measured numbers are visible either way.

Criterion 8 checks what finite sections guarantee, not a monotone
distance.  Dirichlet sections of a gapped operator bind states at their
open ends: for the period-5 staircase two states at each end, at
-0.476012 (first gap) and 0.532641 (second gap) at the first end and at
2.876012 (last gap) and 1.867359 (third gap) at the last, so the
one-sided distance grows and then plateaus (0.025842 -> 0.032180 ->
0.032185 at 4 -> 16 -> 64 blocks, exact band edges).  The criterion asserts
those states (present at every size, converged, two per end, localized at
their end), and the bounds that hold anyway: hull containment, Cauchy
interlacing across sizes, rank-2 interlacing against the wrapped section,
at most 2 eigenvalues per gap, and zero one-sided distance for wrapped
sections.  See README and scripts/truncation_sweep.py.
"""
import math
import time

import numpy as np
import pytest

from borg_spectra import (
    Connectivity,
    best_constant,
    compute_spectrum,
    connectivity,
    converse_from_spectrum,
    eigvalsh_stack,
    forward_from_spectrum,
    hermitian_eigenvalues,
    interlacing_submatrix,
    points_distance,
    tenmartini_premise,
    truncate,
    truncation_compare,
    approximant_sweep,
    mathieu_potential,
    convergents,
)
from borg_spectra.cli import main as cli_main

from conftest import interlacing_violation, jacobi, random_spec, schrodinger

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
STAIRCASE = schrodinger([1.0, 1.1, 1.2, 1.3, 1.4])
RAMP10 = schrodinger([0.05 * j for j in range(10)])


def record(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_staircase_example():
    t0 = time.perf_counter()
    spectrum = compute_spectrum(STAIRCASE, 1024)
    base = spectrum
    fat = connectivity(spectrum, 0.2)
    c, dev = best_constant(STAIRCASE.v)
    fwd = forward_from_spectrum(STAIRCASE, spectrum, 0.2)
    elapsed = time.perf_counter() - t0
    ok = (
        connectivity(spectrum, 0.0) is Connectivity.DISCONNECTED
        and len(base.gaps) >= 1
        and fat is Connectivity.CONNECTED
        and (c, dev) == (1.2, pytest.approx(0.2, abs=1e-15))
        and fwd.satisfied
        and fwd.bound == pytest.approx(1.6, abs=1e-15)
        and elapsed < 1.0
    )
    record(
        1,
        ok,
        f"gaps={len(base.gaps)}, 0.2-fattened {fat.value}, "
        f"best_c=({c}, {dev}), forward bound={fwd.bound} "
        f"satisfied={fwd.satisfied}, {elapsed:.2f}s < 1s",
    )


def test_criterion_02_ramp_example():
    t0 = time.perf_counter()
    spectrum = compute_spectrum(RAMP10, 1024)
    base = spectrum
    fat = connectivity(spectrum, 0.225)
    c, dev = best_constant(RAMP10.v)
    elapsed = time.perf_counter() - t0
    ok = (
        connectivity(spectrum, 0.0) is Connectivity.DISCONNECTED
        and fat is Connectivity.CONNECTED
        and c == pytest.approx(0.225, abs=1e-15)
        and dev == pytest.approx(0.225, abs=1e-15)
        and elapsed < 1.0
    )
    record(
        2,
        ok,
        f"gaps={len(base.gaps)}, 0.225-fattened {fat.value}, "
        f"best_c=({c}, {dev}), {elapsed:.2f}s < 1s",
    )


def test_criterion_03_two_site_closed_form():
    checks = []
    for delta in (0.5, 1.0, 2.0):
        spec = schrodinger([0.0, delta])
        spectrum = compute_spectrum(spec, 1024)
        tol = 2.0 * (spectrum.resolution_error + 1e-9)
        report = spectrum
        width = report.gaps[0][1] - report.gaps[0][0] if report.gaps else 0.0
        small = connectivity(spectrum, 0.4 * delta)
        large = connectivity(spectrum, 0.6 * delta)
        checks.append(
            (
                abs(width - delta) <= tol,
                abs(report.epsilon_star - delta / 2.0) <= tol,
                small is Connectivity.DISCONNECTED,
                large is Connectivity.CONNECTED,
                width,
                report.epsilon_star,
            )
        )
    ok = all(all(c[:4]) for c in checks)
    detail = "; ".join(
        f"delta={d}: width={c[4]:.6f}, eps*={c[5]:.6f}, "
        f"0.4d/0.6d connected={not c[2]}/{c[3]}"
        for d, c in zip((0.5, 1.0, 2.0), checks)
    )
    record(3, ok, detail)


def test_criterion_04_constant_potential_bands():
    checks = []
    for p, c in ((1, 0.0), (3, -1.5), (7, 2.25)):
        spectrum = compute_spectrum(schrodinger([c] * p), 1024)
        tol = 1e-6 + spectrum.resolution_error
        lo, hi = spectrum.intervals[0][0], spectrum.intervals[-1][1]
        checks.append(
            (
                len(spectrum.intervals) == 1,
                abs(lo - (c - 2.0)) <= tol,
                abs(hi - (c + 2.0)) <= tol,
            )
        )
    ok = all(all(c) for c in checks)
    record(
        4,
        ok,
        "single interval within 1e-6+padding of [c-2, c+2] for p in (1, 3, 7): "
        + ", ".join(str(all(c)) for c in checks),
    )


def test_criterion_05_randomized_theorem_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    forward_checked = forward_vacuous = 0
    worst_forward_margin = math.inf
    converse_checked = converse_vacuous = guarded = 0
    worst_slack = math.inf
    violations = 0
    for _ in range(500):
        spec = random_spec(rng)
        spectrum = compute_spectrum(spec, 1024)
        gaps = spectrum
        if gaps.gaps:
            fwd = forward_from_spectrum(spec, spectrum, gaps.epsilon_star)
            forward_checked += 1
            if fwd.connected is Connectivity.CONNECTED:
                worst_forward_margin = min(worst_forward_margin, fwd.margin)
            if not fwd.satisfied:
                violations += 1
        else:
            forward_vacuous += 1
        dev = best_constant(spec.v)[1]
        a_dev = best_constant(spec.a)[1] if spec.a is not None else 0.0
        # Tight epsilon that satisfies the converse hypothesis exactly.
        eps_tight = max(dev, a_dev, (dev + 2.0 * a_dev) / 2.0)
        # Per-sequence epsilon alone; the combined off-diagonal bound can
        # fail here, in which case the check must be vacuous, not wrong.
        eps_literal = max(dev, a_dev)
        if eps_tight > 0.0:
            con = converse_from_spectrum(spec, spectrum, eps_tight)
            converse_checked += 1
            if not con.hypothesis_met:
                converse_vacuous += 1
            else:
                worst_slack = min(worst_slack, con.margin)
            if not con.satisfied:
                violations += 1
        if eps_literal > 0.0:
            lit = converse_from_spectrum(spec, spectrum, eps_literal)
            if not lit.hypothesis_met:
                guarded += 1
            if not lit.satisfied:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    record(
        5,
        ok,
        f"500 instances seed 12345: forward checked={forward_checked} "
        f"(vacuous {forward_vacuous}), worst margin={worst_forward_margin:+.3e}; "
        f"converse checked={converse_checked} (hypothesis-vacuous "
        f"{converse_vacuous}), worst slack={worst_slack:+.3e}, "
        f"combined-bound-guarded literal runs={guarded}; "
        f"violations={violations}, {elapsed:.1f}s < 60s",
    )


def test_criterion_06_interlacing_and_weyl_suites():
    rng = np.random.default_rng(606)
    worst_interlace = 0.0
    # Each eigenvalue on either side is within solver = 1e-10 max(1, ||f||)
    # of its exact value (||J_k|| <= ||f||), so a computed violation is at
    # most 2 solver; random_spec has ||f|| <= max|v| + 2 max a <= 5, and
    # 2 solver <= 1e-9.
    for _ in range(100):
        spec = random_spec(rng)
        violation = interlacing_violation(spec, int(rng.integers(0, spec.period)), 256)
        worst_interlace = max(worst_interlace, violation)
    worst_weyl = -math.inf
    for _ in range(100):
        n = int(rng.integers(2, 12))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = (m + m.conj().T) / 2.0
        e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        e = (e + e.conj().T) / 2.0
        lam = eigvalsh_stack(m[None])[0]
        mu = eigvalsh_stack((m + e)[None])[0]
        worst_weyl = max(worst_weyl, float(np.max(np.abs(lam - mu))) - np.linalg.norm(e, 2))
    ok = worst_interlace <= 1e-9 and worst_weyl <= 1e-10
    record(
        6,
        ok,
        f"100 specs worst interlacing violation={worst_interlace:.3e} <= 1e-9; "
        f"100 pairs worst Weyl excess={worst_weyl:+.3e} <= 1e-10",
    )


def test_criterion_07_trace_identity():
    rng = np.random.default_rng(707)
    worst = 0.0
    # Tr J_k sums p - 1 <= 7 entries with |v| <= 1, so each float sum is
    # within 6 u sum|v| <= 5e-15 (u = 2^-53) of its exact value; the four
    # sums compared stay within 2e-14, inside 1e-12.
    for _ in range(50):
        spec = random_spec(rng)
        v = np.asarray(spec.v)
        p = spec.period
        window = np.arange(p - 1)
        trace_0 = float(np.trace(interlacing_submatrix(spec, 0)))
        for i in range(p):
            got = abs(trace_0 - float(np.trace(interlacing_submatrix(spec, i))))
            expected = abs(float(np.sum(v[window % p]) - np.sum(v[(window + i) % p])))
            worst = max(worst, abs(got - expected))
    ok = worst <= 1e-12
    record(
        7,
        ok,
        f"50 specs, all shifts: worst |trace gap - telescoped sum|={worst:.3e} <= 1e-12",
    )


def section_guarantees(spec, blocks, spectrum):
    """Worst violation of each finite-section guarantee over ascending `blocks`.

    Returns (cauchy, rank2, hull, per_gap, wrapped):
    * cauchy: worst excess in the Cauchy interlacing of each section with
      the next larger one, of which it is a leading principal submatrix;
    * rank2: worst excess in lambda_{j-1}(P) <= lambda_j(H) <= lambda_{j+1}(P),
      H the Dirichlet section and P the wrapped one.  They differ by one cut
      bond of weight a, a rank-2 perturbation with eigenvalues +a and -a;
    * hull: farthest Dirichlet eigenvalue outside [min sigma, max sigma];
    * per_gap: most Dirichlet eigenvalues strictly inside one gap of the
      spectrum.  P samples the symbol exactly (theta = 2 pi m / n), so it
      has none there, and the rank-2 interlacing then allows at most 2;
    * wrapped: largest one-sided distance of a wrapped section's eigenvalues.
    """
    (hull_lo, _), (_, hull_hi) = spectrum.intervals[0], spectrum.intervals[-1]
    gaps = [(hi, lo) for (_, hi), (lo, _) in zip(spectrum.intervals, spectrum.intervals[1:])]
    cauchy = rank2 = hull = wrapped = 0.0
    per_gap = 0
    smaller = None
    for n in blocks:
        lam = hermitian_eigenvalues(truncate(spec, n).band).values
        wrap = hermitian_eigenvalues(truncate(spec, n, periodic=True).band).values
        rank2 = max(rank2, float(np.max(wrap[:-1] - lam[1:])), float(np.max(lam[:-1] - wrap[1:])))
        hull = max(hull, hull_lo - lam[0], lam[-1] - hull_hi)
        for lo, hi in gaps:
            per_gap = max(per_gap, int(np.sum((lam > lo) & (lam < hi))))
        wrapped = max(wrapped, float(np.max(points_distance(wrap, spectrum))))
        if smaller is not None:
            k, d = len(smaller), len(lam) - len(smaller)
            cauchy = max(cauchy, float(np.max(lam[:k] - smaller)), float(np.max(smaller - lam[d:])))
        smaller = lam
    return cauchy, rank2, hull, per_gap, wrapped


def end_masses(spec, row, delta):
    """Mass of each in-gap eigenvector of `row`'s Dirichlet section in the
    first and in the last quarter of the section: two arrays."""
    vectors = np.linalg.eigh(truncate(spec, row.blocks).entries)[1]
    weight = vectors[:, row.distances > delta] ** 2
    quarter = row.size // 4
    return weight[:quarter].sum(axis=0), weight[-quarter:].sum(axis=0)


def test_criterion_08_truncation_containment():
    sizes = [4, 16, 64, 256]
    details = []
    all_ok = True
    # expect_cut_states: the staircase's open ends bind in-gap states; the
    # two-site operator's do not, so its one-sided distance must be exactly 0.
    for spec, label, expect_cut_states in (
        (STAIRCASE, "staircase", True),
        (schrodinger([0.0, 1.0]), "two-site", False),
    ):
        comparison = truncation_compare(spec, sizes, 1024)
        spectrum = comparison.spectrum
        one_sided = [row.one_sided for row in comparison.rows]
        cauchy, rank2, hull, per_gap, wrapped = section_guarantees(spec, sizes, spectrum)
        ok = max(cauchy, rank2, hull) <= 1e-9 and per_gap <= 2 and wrapped == 0.0
        detail = (
            f"{label}: one-sided={['%.6f' % x for x in one_sided]}, "
            f"worst interlacing excess (cross-size {cauchy:.1e}, rank-2 {rank2:.1e}), "
            f"hull excess={hull:.1e}, most eigenvalues in one gap={per_gap} <= 2, "
            f"wrapped one-sided={wrapped}"
        )
        if not expect_cut_states:
            ok = ok and all(x == 0.0 for x in one_sided)
        else:
            # Each open cut binds two in-gap states (spectral pollution):
            # present at every size, converged by 16 blocks, two at each end
            # from 64 blocks on, localized at their end in the largest section.
            delta = spectrum.resolution_error
            rows = dict(zip(sizes, comparison.rows))
            cut_counts = [int(np.sum(row.distances > delta)) for row in comparison.rows]
            plateau = abs(rows[64].one_sided - rows[16].one_sided)
            masses = {n: end_masses(spec, rows[n], delta) for n in (64, 256)}
            per_end = {
                n: (int(np.sum(first > last)), int(np.sum(last > first)))
                for n, (first, last) in masses.items()
            }
            end_mass = {n: np.maximum(first, last) for n, (first, last) in masses.items()}
            cut_values = rows[sizes[-1]].eigenvalues[rows[sizes[-1]].distances > delta]
            ok = (
                ok
                and min(cut_counts) >= 1
                and plateau <= 1e-4
                and all(counts == (2, 2) for counts in per_end.values())
                and min(end_mass[sizes[-1]].tolist(), default=0.0) >= 0.99
            )
            detail += (
                f", eigenvalues beyond delta={delta:.2e} per size={cut_counts} >= 1, "
                f"|d64 - d16|={plateau:.1e} <= 1e-4, cut states (first end, last end) "
                f"at 64/256 blocks={per_end[64]}/{per_end[256]} == (2, 2), at "
                f"{sizes[-1]} blocks {['%.6f' % x for x in cut_values]} with end-quarter "
                f"mass {['%.4f' % x for x in end_mass[sizes[-1]]]} >= 0.99 "
                f"(at 64 blocks {['%.4f' % x for x in end_mass[64]]})"
            )
        all_ok = all_ok and ok
        details.append(detail)

    rng = np.random.default_rng(808)
    worst_interlace = worst_hull = worst_wrapped = 0.0
    most_per_gap = 0
    for _ in range(50):
        spec = random_spec(rng)
        cauchy, rank2, hull, per_gap, wrapped = section_guarantees(
            spec, [1, 2, 3, 4, 16], compute_spectrum(spec, 1024)
        )
        worst_interlace = max(worst_interlace, cauchy, rank2)
        worst_hull = max(worst_hull, hull)
        most_per_gap = max(most_per_gap, per_gap)
        worst_wrapped = max(worst_wrapped, wrapped)
    all_ok = (
        all_ok
        and worst_interlace <= 1e-9
        and worst_hull <= 1e-9
        and most_per_gap <= 2
        and worst_wrapped == 0.0
    )
    details.append(
        f"50 specs seed 808 at 1/2/3/4/16 blocks: worst interlacing excess="
        f"{worst_interlace:.1e}, hull excess={worst_hull:.1e}, most eigenvalues "
        f"in one gap={most_per_gap} <= 2, wrapped one-sided={worst_wrapped}"
    )
    record(8, all_ok, "; ".join(details))


def test_criterion_09_golden_mean_sweep():
    t0 = time.perf_counter()
    sweep = approximant_sweep(GOLDEN, 5, coupling=1.0)
    bs = [r.convergent.b for r in sweep.reports]
    periods = [r.spec.period for r in sweep.reports]
    hausdorff_ok = all(
        dh <= sup + 1e-9
        for dh, sup in zip(sweep.hausdorff_next, sweep.potential_sup_next)
    )
    gap_counts = [r.gap_count for r in sweep.reports]
    pots = [mathieu_potential(c, 1.0) for c in convergents(GOLDEN, 5)]
    premise = tenmartini_premise(pots, 0.1, period_cap=5)
    elapsed = time.perf_counter() - t0
    ok = (
        bs == [1, 2, 3, 5, 8]
        and periods == bs
        and hausdorff_ok
        and all(g >= 0 for g in gap_counts)
        and premise.bound == pytest.approx(0.8)
        and premise.limit_deviation == pytest.approx(1.0)
        and not premise.compatible
        and elapsed < 30.0
    )
    record(
        9,
        ok,
        f"periods={periods} == denominators, "
        f"d_H<=sup-dist={hausdorff_ok}, gap counts={gap_counts}, premise: "
        f"deviation {premise.limit_deviation} > bound {premise.bound} -> "
        f"incompatible={not premise.compatible}, {elapsed:.1f}s < 30s",
    )


def test_criterion_10_determinism(tmp_path):
    spec = '{"kind": "schrodinger", "period": 5, "v": [1.0, 1.1, 1.2, 1.3, 1.4]}'
    commands = [
        ("spectrum", ["spectrum", "--spec", spec, "--grid", "512",
                      "--format", "csv,json"], ["spectrum.json", "bands.csv"]),
        ("borg-random", ["borg", "--random", "20", "--seed", "99"], ["borg_random.json"]),
        ("mathieu", ["mathieu", "--alpha", repr(GOLDEN), "--count", "4",
                     "--grid", "256", "--format", "csv,json"],
         ["mathieu_sweep.csv", "mathieu_sweep.json"]),
        ("oracle", ["oracle", "--spec", spec, "--grid", "256", "--blocks", "4",
                    "--blocks", "16", "--format", "csv,json"],
         ["oracle.csv", "oracle.json"]),
    ]
    mismatches = []
    for label, argv, names in commands:
        a, b = tmp_path / f"{label}-a", tmp_path / f"{label}-b"
        for out in (a, b):
            code = cli_main(argv + ["--out", str(out)])
            if code != 0:
                mismatches.append(f"{label}: exit {code}")
        for name in names:
            if (a / name).read_bytes() != (b / name).read_bytes():
                mismatches.append(f"{label}/{name}")
    ok = not mismatches
    record(
        10,
        ok,
        "byte-identical CSV/JSON across repeated runs of "
        f"{len(commands)} commands"
        + ("" if ok else f"; mismatches: {mismatches}"),
    )
