"""The four benchmark commands, paired into two workloads: seeded inputs,
the CLI arguments that run them, and the correctness gate that checks their
artifacts.

The seed changes values, never sizes: period, grid, instance count,
convergent denominators and section sizes are fixed, so every seed costs
the same work.  Each gate checks the artifacts against the independent
reference in `reference.py` and returns the tightness figures
(`gap_recall`, `edge_slack`) together with the call counts the inputs
imply, which the traced run compares against what it recorded.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as ref

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GAP_TOL = 1e-9  # narrower exact gaps do not count as true components


class GateError(Exception):
    """An artifact is missing, malformed or contradicts the reference."""


@dataclass
class GateResult:
    gap_recall: float
    edge_slack: float
    expected_calls: dict[str, int]


def _reject_constant(name: str):
    raise GateError(f"non-finite JSON value {name}")


def load_json(path: Path) -> dict:
    """Parse an artifact, refusing NaN and Infinity anywhere in it."""
    if not path.is_file():
        raise GateError(f"missing artifact {path.name}")
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


def _check_enclosure(intervals, bands, tol, declared, max_padding, label):
    """Exact bands inside the enclosure, which is no looser than it claims.

    Returns (reported components, true components, edge slack)."""
    comps = ref.components(bands, GAP_TOL)
    n_out = ref.not_covered(bands, intervals, tol)
    _require(n_out == 0, f"{label}: {n_out} exact bands not inside one reported interval")
    _require(
        declared <= max_padding * (1.0 + 1e-9) + tol,
        f"{label}: resolution_error {declared!r} exceeds L*pi/N = {max_padding!r}",
    )
    slack = ref.edge_slack(intervals, comps)
    _require(
        slack <= declared + tol,
        f"{label}: endpoint sits {slack!r} outside an exact edge, more than "
        f"the declared resolution_error {declared!r}",
    )
    return len(intervals), len(comps), slack


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def argv(self) -> list[str]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute whatever reference the gate needs (untimed)."""

    def gate(self, out: Path) -> GateResult:
        raise NotImplementedError

    def _write_spec(self, spec: dict) -> str:
        path = self.workdir / f"{self.name}_spec.json"
        path.write_text(json.dumps(spec))
        return str(path)


class BandsDump(Workload):
    """Emission-bound control: CSV formatting of N*p rows outweighs the solve."""

    name = "bands_dump"
    PERIOD = 5
    GRID = 16384

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.v = [float(x) for x in self.rng.uniform(-1.0, 1.0, self.PERIOD)]

    def argv(self):
        spec = {"kind": "schrodinger", "period": self.PERIOD, "v": self.v}
        return ["spectrum", "--spec", self._write_spec(spec), "--grid", str(self.GRID),
                "--format", "csv,json,svg"]

    def prepare(self):
        self.a = np.ones(self.PERIOD)
        self.bands = ref.floquet_bands(self.v, self.a)
        self.tol = ref.rounding_tol(self.v, self.a)

    def gate(self, out):
        data = load_json(out / "spectrum.json")
        intervals = data["intervals"]
        declared = data["resolution_error"]
        padding = 2.0 * self.a[-1] * math.pi / self.GRID
        n_rep, n_true, slack = _check_enclosure(
            intervals, self.bands, self.tol, declared, padding, "spectrum.json")
        star = data["gap_report"]["epsilon_star"]
        exact_star = ref.max_gap(self.bands, GAP_TOL) / 2.0
        _require(star >= exact_star - self.tol,
                 f"epsilon_star {star!r} below the exact {exact_star!r}")

        rows = np.loadtxt(out / "bands.csv", delimiter=",", skiprows=2, ndmin=2)
        _require(rows.shape == (self.GRID * self.PERIOD, 3),
                 f"bands.csv has shape {rows.shape}")
        j = rows[:, 1].astype(int)
        _require(np.array_equal(np.bincount(j, minlength=self.PERIOD + 1)[1:],
                                np.full(self.PERIOD, self.GRID)), "bands.csv band counts")
        lam = rows[:, 2]
        lo, hi = self.bands[j - 1, 0], self.bands[j - 1, 1]
        bad = int(np.count_nonzero((lam < lo - self.tol) | (lam > hi + self.tol)))
        _require(bad == 0, f"bands.csv: {bad} samples outside their exact band")
        _require(bool(np.all(np.abs(rows[:, 0]) <= math.pi)), "bands.csv theta range")
        _require((out / "spectrum.svg").read_text().lstrip().startswith("<"), "spectrum.svg")
        return GateResult(
            gap_recall=n_rep / n_true,
            edge_slack=slack,
            expected_calls={"symbols.symbol_stack": 1, "eig.eigvalsh_stack": 1},
        )


class RandomSuite(Workload):
    """100 small problems: per-call overhead and spectra/borg bookkeeping."""

    name = "random_suite"
    COUNT = 100

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # the CLI draws each period from its own seed, which would move the
        # work by ~10% between seeds at 100 instances; take the first
        # candidate seed whose draw sits at the mean work: sum p = 5n,
        # sum p^3 = 185n (each within 1%) and n/2 Jacobi operators (within 2)
        for cli_seed in self.rng.integers(0, 2**31, size=100_000):
            instances = self._draw(int(cli_seed))
            periods = np.array([len(v) for v, _, _ in instances])
            jacobi = sum(j for _, _, j in instances)
            if (abs(periods.sum() - 5 * self.COUNT) <= 0.01 * 5 * self.COUNT
                    and abs((periods**3).sum() - 185 * self.COUNT) <= 0.01 * 185 * self.COUNT
                    and abs(jacobi - self.COUNT / 2) <= 2):
                self.cli_seed = int(cli_seed)
                return
        raise GateError("no CLI seed with the mean work")

    def _draw(self, cli_seed: int) -> list:
        # the suite's documented generator: p in 2..8, v ~ U(-1, 1), and with
        # probability 1/2 a Jacobi operator with a ~ U(0.5, 2)
        rng = np.random.default_rng(cli_seed)
        instances = []
        for _ in range(self.COUNT):
            p = int(rng.integers(2, 9))
            v = rng.uniform(-1.0, 1.0, size=p)
            jacobi = int(rng.integers(0, 2)) == 1
            a = rng.uniform(0.5, 2.0, size=p) if jacobi else np.ones(p)
            instances.append((v, a, jacobi))
        return instances

    def argv(self):
        return ["borg", "--random", str(self.COUNT), "--seed", str(self.cli_seed)]

    def prepare(self):
        self.instances = []
        for v, a, jacobi in self._draw(self.cli_seed):
            bands = ref.floquet_bands(v, a)
            dev = (v.max() - v.min()) / 2.0
            if jacobi:
                a_dev = (a.max() - a.min()) / 2.0
                dev = max(dev, a_dev, (dev + 2.0 * a_dev) / 2.0)
            self.instances.append((jacobi, dev, ref.max_gap(bands, GAP_TOL) / 2.0,
                                   ref.rounding_tol(v, a)))

    def gate(self, out):
        data = load_json(out / "borg_random.json")
        _require(data["seed"] == self.cli_seed, f"seed {data['seed']!r}")
        _require(data["instances"] == self.COUNT, f"instances {data['instances']!r}")
        _require(data["violations"] == 0, f"violations {data['violations']!r}")
        reports = iter(data["reports"])
        recalled = gapped = 0
        slack = 0.0
        for i, (jacobi, dev, exact_star, tol) in enumerate(self.instances):
            forward, converse = ("ForwardJacobi31", "ConverseJacobi32") if jacobi else (
                "Forward21", "Converse22")
            rep = next(reports, None)
            gapped += exact_star > 0.0
            if rep is not None and rep["theorem"] == forward:
                _require(exact_star > 0.0, f"instance {i}: gap reported where none exists")
                recalled += 1
                _require(rep["satisfied"], f"instance {i}: forward check not satisfied")
                _require(rep["epsilon_star"] >= exact_star - tol,
                         f"instance {i}: epsilon_star below the exact value")
                slack = max(slack, rep["epsilon_star"] - exact_star)
                rep = next(reports, None)
            _require(rep is not None and rep["theorem"] == converse,
                     f"instance {i}: expected a {converse} report")
            _require(abs(rep["epsilon"] - dev) <= 1e-12 * max(1.0, dev),
                     f"instance {i}: converse epsilon {rep['epsilon']!r} != {dev!r}")
            _require(rep["satisfied"], f"instance {i}: converse check not satisfied")
        _require(next(reports, None) is None, "more reports than instances imply")
        return GateResult(
            gap_recall=recalled / gapped,
            edge_slack=slack,
            expected_calls={"symbols.symbol_stack": self.COUNT,
                            "eig.eigvalsh_stack": self.COUNT,
                            "borg.certificates": len(data["reports"])},
        )


class MathieuSweep(Workload):
    """Large periods: N*p^3 solves in the thread pool, the largest RSS."""

    name = "mathieu_sweep"
    COUNT = 10
    GRID = 1024
    COUPLING = 1.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # only epsilon varies: the coupling moves the exact gap count, and
        # with it gap_recall, by about 10% between seeds
        self.epsilon = float(self.rng.uniform(0.01, 0.3))

    def argv(self):
        return ["mathieu", "--alpha", repr(GOLDEN), "--count", str(self.COUNT),
                "--coupling", repr(self.COUPLING), "--epsilon", repr(self.epsilon),
                "--grid", str(self.GRID)]

    def prepare(self):
        # convergents from the exact continued fraction of the float alpha
        x = Fraction(GOLDEN)
        h, h_prev, k, k_prev = 0, 1, 1, 0  # the zeroth convergent 0/1 is skipped
        self.convergents = []
        while len(self.convergents) < self.COUNT:
            x = 1 / x
            q = math.floor(x)
            x -= q
            h, h_prev = q * h + h_prev, h
            k, k_prev = q * k + k_prev, k
            self.convergents.append((h, k))
        self.bands = []
        for a, b in self.convergents:
            v = [self.COUPLING * math.cos(2.0 * math.pi * ((j * a) % b) / b)
                 for j in range(1, b + 1)]
            ones = np.ones(b)
            self.bands.append((ref.floquet_bands(v, ones), ref.rounding_tol(v, ones)))

    def gate(self, out):
        data = load_json(out / "mathieu_sweep.json")
        reps = data["approximants"]
        _require(len(reps) == self.COUNT, f"{len(reps)} approximants")
        n_rep = n_true = 0
        slack = 0.0
        padding = 2.0 * math.pi / self.GRID
        for rep, (a, b), (bands, tol) in zip(reps, self.convergents, self.bands):
            label = f"approximant {a}/{b}"
            _require((rep["a"], rep["b"], rep["period"]) == (a, b, b),
                     f"{label}: reported {rep['a']}/{rep['b']} period {rep['period']}")
            r, t, s = _check_enclosure(rep["intervals"], bands, tol,
                                       rep["resolution_error"], padding, label)
            exact_star = ref.max_gap(bands, GAP_TOL) / 2.0
            _require(rep["epsilon_star"] >= exact_star - tol,
                     f"{label}: epsilon_star below the exact value")
            n_rep, n_true, slack = n_rep + r, n_true + t, max(slack, s)
        csv_rows = (out / "mathieu_sweep.csv").read_text().splitlines()[2:]
        _require([int(r.split(",")[0]) for r in csv_rows] == [b for _, b in self.convergents],
                 "mathieu_sweep.csv denominators")
        _require((out / "mathieu_sweep.svg").read_text().lstrip().startswith("<"),
                 "mathieu_sweep.svg")
        return GateResult(
            gap_recall=n_rep / n_true,
            edge_slack=slack,
            expected_calls={"symbols.symbol_stack": self.COUNT,
                            "eig.eigvalsh_stack": self.COUNT,
                            "mathieu.approximant_sweep": 1},
        )


class OracleLaurent(Workload):
    """A dense section solve beside a stacked one; no Floquet shortcut."""

    name = "oracle_laurent"
    PERIOD = 24
    GRID = 4096
    BLOCKS = (4, 16, 83)
    # |a_k| is fixed so the Lipschitz padding is the same for every seed
    FOURIER = ((-1, 0.3), (0, 0.5), (1, 0.4), (2, 0.2))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # steps of 0.8 against jitter below 0.3 keep the potential ascending
        self.v = [float(x) for x in
                  0.8 * np.arange(self.PERIOD) + self.rng.uniform(0.0, 0.3, self.PERIOD)]
        signs = self.rng.choice([-1.0, 1.0], size=len(self.FOURIER))
        self.fourier = [(k, float(s * c)) for (k, c), s in zip(self.FOURIER, signs)]

    def argv(self):
        spec = {"kind": "laurent", "period": self.PERIOD, "v": self.v,
                "fourier": [[k, c] for k, c in self.fourier]}
        blocks = [arg for n in self.BLOCKS for arg in ("--blocks", str(n))]
        return ["oracle", "--spec", self._write_spec(spec), "--grid", str(self.GRID), *blocks]

    def prepare(self):
        self.samples = ref.laurent_samples(self.v, self.fourier)
        self.rounding = ref.rounding_tol(self.v, [1.0, sum(abs(c) for _, c in self.fourier)])
        self.lipschitz = ref.laurent_lipschitz(self.fourier)
        # the dense samples sit within L*pi/2^16 of the true band extrema
        self.tol = self.lipschitz * math.pi / ref.DENSE_SAMPLES
        self.sample_bands = np.stack([self.samples.min(axis=0), self.samples.max(axis=0)], 1)

    def _section(self, blocks: int) -> np.ndarray:
        p, size = self.PERIOD, blocks * self.PERIOD
        m = np.diag(np.asarray(self.v)[np.arange(size) % p])
        for i in range(size - 1):
            if (i + 1) % p:
                m[i, i + 1] = m[i + 1, i] = 1.0
        for r in range(blocks):
            for k, c in self.fourier:
                j = (r - k) * p + p - 1
                if 0 <= j < size:
                    m[r * p, j] += c
                    m[j, r * p] += c
        return m

    def gate(self, out):
        data = load_json(out / "oracle.json")
        spectrum = data["spectrum"]
        intervals = spectrum["intervals"]
        samples = self.samples.ravel()
        n_out = ref.not_covered(np.stack([samples, samples], 1), intervals, self.rounding)
        _require(n_out == 0, f"{n_out} of {self.samples.size} dense samples outside the enclosure")
        comps = ref.components(self.sample_bands, 2.0 * self.tol)
        declared = spectrum["resolution_error"]
        padding = self.lipschitz * math.pi / self.GRID
        _require(declared <= padding * (1.0 + 1e-9) + 1e-12,
                 f"resolution_error {declared!r} exceeds L*pi/N = {padding!r}")
        slack = ref.edge_slack(intervals, comps)
        _require(slack <= declared + self.tol,
                 f"endpoint {slack!r} outside a sampled edge, beyond resolution_error")

        rows = data["rows"]
        sizes = [n * self.PERIOD for n in self.BLOCKS]
        _require([(r["blocks"], r["size"]) for r in rows] == list(zip(self.BLOCKS, sizes)),
                 "oracle.json section sizes")
        table = np.loadtxt(out / "oracle.csv", delimiter=",", skiprows=2, ndmin=2)
        _require(table.shape == (sum(sizes), 4), f"oracle.csv has shape {table.shape}")
        for n, size in zip(self.BLOCKS, sizes):
            lam = table[table[:, 0] == n, 2]
            m = self._section(n)
            # trace and Frobenius norm of the section fix sum(lam), sum(lam^2)
            scale = size * float(np.max(np.abs(lam))) ** 2
            _require(len(lam) == size, f"section {n}: {len(lam)} eigenvalues")
            _require(abs(lam.sum() - np.trace(m)) <= 1e-9 * scale,
                     f"section {n}: eigenvalue sum != trace")
            _require(abs(np.dot(lam, lam) - np.sum(m * m)) <= 1e-9 * scale,
                     f"section {n}: eigenvalue square sum != Frobenius norm")
        return GateResult(
            gap_recall=len(intervals) / len(comps),
            edge_slack=slack,
            expected_calls={"symbols.symbol_stack": 1, "eig.eigvalsh_stack": 1,
                            "eig.hermitian_eigenvalues": len(self.BLOCKS),
                            "oracle.truncate": len(self.BLOCKS)},
        )


# A workload runs its commands in turn, each in a fresh process, for the
# whole run.  Every command is short, so a run holds many samples of each.
WORKLOADS = {
    "bands_suite": (BandsDump, RandomSuite),
    "mathieu_oracle": (MathieuSweep, OracleLaurent),
}
