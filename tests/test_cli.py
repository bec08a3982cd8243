"""End-to-end tests of the command-line interface.

Every invocation goes through `main(argv)` with outputs directed at a
temporary directory; assertions cover artifact names, file contents,
version stamping, exit codes, and byte-level determinism.
"""
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from borg_spectra import (
    OperatorSpec,
    __version__,
    band_table,
    cli,
    eig,
    mathieu,
    oracle,
    render,
    spectra,
    symbols,
)
from borg_spectra.cli import main
from borg_spectra.errors import InvalidParameterError
from conftest import assert_rejected_before_allocating, full_grid_columns

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

STAIRCASE = json.dumps(
    {"kind": "schrodinger", "period": 5, "v": [1.0, 1.1, 1.2, 1.3, 1.4]}
)
TWO_SITE = json.dumps({"kind": "schrodinger", "period": 2, "v": [0.0, 1.0]})
JACOBI = json.dumps(
    {"kind": "jacobi", "period": 2, "v": [0.0, 0.5], "a": [1.0, 1.5]}
)
LAURENT = json.dumps(
    {"kind": "laurent", "period": 2, "v": [0.0, 0.5], "fourier": [[1, 0.5]]}
)
# at period 1 the pairs k = 1 and k = -1 write the same section entries,
# and every pair lands on the symbol's one entry
LAURENT_PERIOD_ONE = json.dumps(
    {"kind": "laurent", "period": 1, "v": [0.2], "fourier": [[1, 0.5], [-1, 0.25], [2, 0.1]]}
)
# padded gap 0.63538 at N = 1024, wider than 2 epsilon = 0.6304
LAURENT_BOUNDARY = json.dumps(
    {"kind": "laurent", "period": 3, "v": [0.0, 0.4, 0.9], "fourier": [[1, 1.0], [2, 0.3]]}
)


def run(*argv) -> int:
    return main(list(argv))


def read_json(path):
    data = json.loads(path.read_text())
    assert data["version"] == __version__
    return data


# the calls whose counts the traced benchmark run checks against its inputs
COUNTED = {
    "symbol_stack": symbols.symbol_stack,
    "eigvalsh_stack": eig.eigvalsh_stack,
    "hermitian_eigenvalues": eig.hermitian_eigenvalues,
    "truncate": oracle.truncate,
}


def patch_counted(monkeypatch, replace) -> None:
    """Rebind every COUNTED function to `replace(name, fn)`, through every
    package module that binds it (modules import these functions by name)."""
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "borg_spectra":
            for name, fn in COUNTED.items():
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, replace(name, fn))


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts every call of a COUNTED function."""
    counts: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    patch_counted(monkeypatch, counting)
    return counts


@pytest.fixture
def no_solves(monkeypatch) -> None:
    """Every COUNTED function fails the test if it is called."""

    def failing(name, fn):
        def wrapper(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return wrapper

    patch_counted(monkeypatch, failing)


class TestSpectrum:
    def test_writes_all_formats(self, tmp_path):
        assert run("spectrum", "--spec", STAIRCASE, "--out", str(tmp_path)) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["bands.csv", "spectrum.json", "spectrum.svg"]

    def test_json_payload(self, tmp_path):
        run("spectrum", "--spec", TWO_SITE, "--grid", "512", "--out", str(tmp_path))
        data = read_json(tmp_path / "spectrum.json")
        assert set(data) == {"version", "intervals", "resolution_error", "solver", "gap_report"}
        assert len(data["intervals"]) == 2  # two bands, one gap
        assert len(data["gap_report"]["gaps"]) == 1
        assert data["gap_report"]["epsilon_star"] > 0.0

    def test_csv_header_and_shape(self, tmp_path):
        run("spectrum", "--spec", TWO_SITE, "--grid", "64", "--out", str(tmp_path),
            "--format", "csv")
        lines = (tmp_path / "bands.csv").read_text().splitlines()
        assert lines[0] == f"# borg-spectra {__version__}"
        assert lines[1] == "theta,band_index,lambda"
        assert len(lines) == 2 + 64 * 2  # N grid points x p bands

    def test_csv_rows_cover_grid(self, tmp_path):
        run("spectrum", "--spec", TWO_SITE, "--grid", "64", "--out", str(tmp_path),
            "--format", "csv")
        rows = [line.split(",") for line in
                (tmp_path / "bands.csv").read_text().splitlines()[2:]]
        assert len(rows) == 64 * 2
        thetas, indices, lams = zip(*rows)
        assert set(indices) == {"1", "2"}
        table = band_table(OperatorSpec.from_json(TWO_SITE), 64)
        assert min(map(float, lams)) == pytest.approx(float(np.min(table.bands)))

    @staticmethod
    def per_row_bands_csv(table, grid: int) -> str:
        """bands.csv as the per-row loop wrote it over the whole N-point
        grid: one (theta, j, lambda) tuple per cell, each cell formatted on
        its own, lambda at theta < 0 the even band's value at -theta."""
        full, columns = full_grid_columns(table.grid, grid)
        lines = [f"# borg-spectra {__version__}", "theta,band_index,lambda"]
        for j, band in enumerate(table.bands[:, columns], start=1):
            for theta, lam in zip(full, band):
                row = (float(theta), j, float(lam))
                lines.append(",".join(
                    "" if x is None else repr(x) if isinstance(x, float) else str(x)
                    for x in row
                ))
        return "\n".join(lines) + "\n"

    # besides three full-size grids, the smallest ones, where the mirrored
    # half is empty (N = 2), has no theta = 0 row to skip (odd N) or is one
    # row (N = 4), and a period-1 spec, whose table has a single band
    @pytest.mark.parametrize("spec, grid", [
        (json.dumps({"kind": "schrodinger", "period": 5,
                     "v": [0.3, -0.7, 0.1, 0.9, -0.2]}), 512),
        (json.dumps({"kind": "jacobi", "period": 3, "v": [0.0, 0.5, -0.4],
                     "a": [1.0, 1.5, 0.7]}), 511),
        (json.dumps({"kind": "laurent", "period": 3, "v": [-0.5, 0.0, 0.5],
                     "fourier": [[1, 0.5], [-2, 0.25], [3, 0.1]]}), 1024),
        (STAIRCASE, 2),
        (STAIRCASE, 3),
        (STAIRCASE, 4),
        (STAIRCASE, 5),
        (json.dumps({"kind": "schrodinger", "period": 1, "v": [0.3]}), 64),
        (json.dumps({"kind": "laurent", "period": 1, "v": [0.0],
                     "fourier": [[1, 0.5], [2, -0.25]]}), 63),
    ], ids=["schrodinger-512", "jacobi-511", "laurent-1024", "staircase-2", "staircase-3",
            "staircase-4", "staircase-5", "period-1-64", "laurent-period-1-63"])
    def test_bands_csv_matches_per_row_loop(self, tmp_path, spec, grid):
        run("spectrum", "--spec", spec, "--grid", str(grid), "--out", str(tmp_path),
            "--format", "csv")
        table = band_table(OperatorSpec.from_json(spec), grid)
        got = (tmp_path / "bands.csv").read_bytes()
        want = self.per_row_bands_csv(table, grid).encode()
        if got != want:  # name the first differing line: a full diff takes minutes
            pairs = enumerate(zip(got.splitlines(), want.splitlines()))
            first = next((i for i, (g, w) in pairs if g != w), None)
            pytest.fail(f"bands.csv differs from the per-row loop, first at line {first}")

    @staticmethod
    def bands_csv_peak_ratio(spec: str, grid: int) -> float:
        """tracemalloc's peak while `_bands_csv` runs, over its text's length."""
        table = band_table(OperatorSpec.from_json(spec), grid)
        tracemalloc.start()
        try:
            text = cli._bands_csv(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / len(text)

    def test_bands_csv_holds_one_joined_copy(self):
        # the benchmark's period-5 table at a quarter of its grid peaks at the
        # final join: the row blocks and the one joined text, no further copy
        # (2.00x; 2.44x with the last band's rows and the theta reprs alive)
        assert self.bands_csv_peak_ratio(STAIRCASE, 4096) <= 2.05

    def test_bands_csv_frees_each_band_before_the_join(self):
        # one band: its row strings and the theta reprs peak beside its two
        # blocks (3.21x); kept alive through the final join they read 4.20x
        spec = json.dumps({"kind": "schrodinger", "period": 1, "v": [0.3]})
        assert self.bands_csv_peak_ratio(spec, 200_000) <= 3.3

    def test_svg_is_valid_xml(self, tmp_path):
        run("spectrum", "--spec", STAIRCASE, "--out", str(tmp_path), "--format", "svg")
        root = ET.fromstring((tmp_path / "spectrum.svg").read_text())
        assert root.tag.endswith("svg")

    def test_spec_from_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(STAIRCASE)
        out = tmp_path / "out"
        assert run("spectrum", "--spec", str(spec_path), "--out", str(out)) == 0
        assert (out / "spectrum.json").exists()

    def test_format_filter(self, tmp_path):
        run("spectrum", "--spec", TWO_SITE, "--out", str(tmp_path), "--format", "json")
        assert [p.name for p in tmp_path.iterdir()] == ["spectrum.json"]


class TestPseudospectrum:
    def test_per_epsilon_files(self, tmp_path):
        assert run(
            "pseudospectrum", "--spec", TWO_SITE, "--out", str(tmp_path),
            "--epsilon", "0.1", "--epsilon", "0.5", "--format", "json",
        ) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["pseudospectrum_0.1.json", "pseudospectrum_0.5.json"]

    def test_fattening_connects(self, tmp_path):
        run("pseudospectrum", "--spec", TWO_SITE, "--out", str(tmp_path),
            "--epsilon", "0.1", "--epsilon", "2.0", "--format", "json")
        small = read_json(tmp_path / "pseudospectrum_0.1.json")
        large = read_json(tmp_path / "pseudospectrum_2.0.json")
        assert small["connected"] == "disconnected"
        assert large["connected"] == "connected"
        assert len(large["intervals"]) == 1

    def test_requires_epsilon(self, tmp_path):
        assert run("pseudospectrum", "--spec", TWO_SITE, "--out", str(tmp_path)) == 2

    def test_rejects_nonpositive_epsilon(self, tmp_path):
        assert run("pseudospectrum", "--spec", TWO_SITE, "--out", str(tmp_path),
                   "--epsilon", "-0.5") == 2

    def test_repeated_epsilon_written_and_printed_once(self, tmp_path, capsys):
        assert run("pseudospectrum", "--spec", TWO_SITE, "--out", str(tmp_path),
                   "--epsilon", "0.1", "--epsilon", "0.1") == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(tmp_path / "pseudospectrum_0.1.json"),
                           str(tmp_path / "pseudospectrum_0.1.svg")]


class TestBorg:
    @staticmethod
    def directions(data):
        return ["forward" if r["theorem"].startswith("Forward") else "converse"
                for r in data["reports"]]

    def test_verdict_at_boundary_is_refuted(self, tmp_path):
        # the enclosure's own padded gap refutes connectivity at 0.3152, so
        # neither artifact may call it connected
        out = str(tmp_path)
        assert run("pseudospectrum", "--spec", LAURENT_BOUNDARY, "--epsilon", "0.3152",
                   "--out", out, "--format", "json") == 0
        assert run("borg", "--spec", LAURENT_BOUNDARY, "--epsilon", "0.3152", "--out", out) == 0
        pseudo = read_json(tmp_path / "pseudospectrum_0.3152.json")
        assert pseudo["connected"] == "disconnected"
        (report,) = read_json(tmp_path / "borg.json")["reports"]
        assert report["connected"] == "disconnected"
        assert not report["hypothesis_met"] and report["satisfied"]
        # both name the operator's epsilon_star, not one of the fattened enclosure
        assert pseudo["epsilon_star"] == report["epsilon_star"]

    def test_verdict_between_the_bounds_is_undecided(self, tmp_path):
        # 0.32 lies in [W / 2, epsilon_star) = [0.31769, 0.32260): the
        # enclosure neither refutes connectivity nor certifies it
        out = str(tmp_path)
        assert run("pseudospectrum", "--spec", LAURENT_BOUNDARY, "--epsilon", "0.32",
                   "--out", out, "--format", "json") == 0
        assert run("borg", "--spec", LAURENT_BOUNDARY, "--epsilon", "0.32", "--out", out) == 0
        pseudo = read_json(tmp_path / "pseudospectrum_0.32.json")
        assert pseudo["connected"] == "undecided"
        assert 0.32 < pseudo["epsilon_star"]
        (report,) = read_json(tmp_path / "borg.json")["reports"]
        assert report["connected"] == "undecided"
        assert report["hypothesis_met"] is False and report["satisfied"] is True

    def test_forward_and_converse_reports(self, tmp_path):
        assert run("borg", "--spec", TWO_SITE, "--out", str(tmp_path),
                   "--epsilon", "0.6") == 0
        data = read_json(tmp_path / "borg.json")
        assert self.directions(data) == ["forward", "converse"]
        assert all(r["satisfied"] for r in data["reports"])

    def test_check_selector(self, tmp_path):
        run("borg", "--spec", TWO_SITE, "--out", str(tmp_path),
            "--epsilon", "0.6", "--check", "forward")
        data = read_json(tmp_path / "borg.json")
        assert self.directions(data) == ["forward"]

    def test_laurent_converse_skipped_quietly_on_both(self, tmp_path):
        assert run("borg", "--spec", LAURENT, "--out", str(tmp_path),
                   "--epsilon", "0.5", "--check", "both") == 0
        data = read_json(tmp_path / "borg.json")
        assert self.directions(data) == ["forward"]

    def test_laurent_explicit_converse_exits_3(self, tmp_path):
        assert run("borg", "--spec", LAURENT, "--out", str(tmp_path),
                   "--epsilon", "0.5", "--check", "converse") == 3

    def test_jacobi_reports_offdiagonal_deviation(self, tmp_path):
        run("borg", "--spec", JACOBI, "--out", str(tmp_path), "--epsilon", "1.0")
        data = read_json(tmp_path / "borg.json")
        forward = data["reports"][0]
        assert forward["a_deviation"] == pytest.approx(0.25)

    def test_random_suite(self, tmp_path):
        assert run("borg", "--random", "10", "--seed", "7",
                   "--out", str(tmp_path)) == 0
        data = read_json(tmp_path / "borg_random.json")
        assert data["seed"] == 7
        assert data["instances"] == 10
        assert data["violations"] == 0
        assert data["reports"]

    @pytest.mark.parametrize("check", ["forward", "converse"])
    def test_random_suite_check_selector(self, tmp_path, check):
        # --check selects the random suite's checks as it does a spec's
        both, only = tmp_path / "both", tmp_path / check
        assert run("borg", "--random", "10", "--seed", "7", "--out", str(both)) == 0
        assert run("borg", "--random", "10", "--seed", "7", "--check", check,
                   "--out", str(only)) == 0
        everything = read_json(both / "borg_random.json")
        data = read_json(only / "borg_random.json")
        assert set(self.directions(data)) == {check}
        chosen = [r for r, d in zip(everything["reports"], self.directions(everything))
                  if d == check]
        assert data["reports"] == chosen
        assert data["violations"] == sum(not r["satisfied"] for r in chosen)

    def test_requires_epsilon_without_random(self, tmp_path):
        assert run("borg", "--spec", TWO_SITE, "--out", str(tmp_path)) == 2

    def test_format_selects_borg_json(self, tmp_path, capsys):
        assert run("borg", "--spec", TWO_SITE, "--epsilon", "0.6", "--format", "json",
                   "--out", str(tmp_path / "json")) == 0
        assert [p.name for p in (tmp_path / "json").iterdir()] == ["borg.json"]
        assert run("borg", "--spec", TWO_SITE, "--epsilon", "0.6", "--format", "svg",
                   "--out", str(tmp_path / "svg")) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "svg").exists()


class TestMathieu:
    def test_sweep_outputs(self, tmp_path):
        assert run("mathieu", "--alpha", repr(GOLDEN), "--count", "4",
                   "--grid", "256", "--out", str(tmp_path)) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["mathieu_sweep.csv", "mathieu_sweep.json", "mathieu_sweep.svg"]

    def test_csv_columns(self, tmp_path):
        run("mathieu", "--alpha", repr(GOLDEN), "--count", "3", "--grid", "256",
            "--out", str(tmp_path), "--format", "csv")
        lines = (tmp_path / "mathieu_sweep.csv").read_text().splitlines()
        assert lines[0] == f"# borg-spectra {__version__}"
        header = lines[1].split(",")
        assert header[:4] == ["b", "period", "gap_count", "epsilon_star"]
        assert header[-1] == "unresolved_gaps"
        assert len(lines) == 2 + 3

    def test_every_gap_accounted(self, tmp_path):
        # Ten Martini: all b - 1 gaps are open; those whose padded band
        # ranges overlap are reported as unresolved, in both artifacts
        assert run("mathieu", "--alpha", repr(GOLDEN), "--count", "10",
                   "--out", str(tmp_path), "--format", "csv,json") == 0
        reps = read_json(tmp_path / "mathieu_sweep.json")["approximants"]
        assert all(r["gap_count"] + r["unresolved_gaps"] == r["b"] - 1 for r in reps)
        assert [r["unresolved_gaps"] for r in reps] == [0, 0, 0, 0, 1, 0, 0, 0, 4, 38]
        rows = (tmp_path / "mathieu_sweep.csv").read_text().splitlines()[2:]
        assert [int(row.split(",")[-1]) for row in rows] == [r["unresolved_gaps"] for r in reps]

    @pytest.mark.parametrize(
        "argv", [["--count", "10"], ["--count", "6", "--coupling", "0"]], ids=["golden", "free"]
    )
    def test_csv_rows_match_json(self, tmp_path, argv):
        # every CSV cell is its approximant's JSON value (floats as repr);
        # d_H_to_next is hausdorff_next, empty on the last row
        assert run("mathieu", "--alpha", repr(GOLDEN), *argv, "--out", str(tmp_path),
                   "--format", "csv,json") == 0
        data = read_json(tmp_path / "mathieu_sweep.json")
        reps, distances = data["approximants"], data["hausdorff_next"]
        lines = (tmp_path / "mathieu_sweep.csv").read_text().splitlines()
        header = ["b", "period", "gap_count", "epsilon_star", "d_H_to_next", "unresolved_gaps"]
        assert lines[1].split(",") == header
        assert len(lines) - 2 == len(reps) == len(distances) + 1
        for line, r, d in zip(lines[2:], reps, [*distances, None]):
            assert line.split(",") == [
                str(r["b"]), str(r["period"]), str(r["gap_count"]), repr(r["epsilon_star"]),
                "" if d is None else repr(d), str(r["unresolved_gaps"]),
            ]

    @pytest.mark.parametrize("coupling", ["inf", "nan"])
    def test_nonfinite_coupling_exit_2_with_one_line(self, tmp_path, capsys, coupling):
        out = tmp_path / "out"
        assert run("mathieu", "--alpha", repr(GOLDEN), "--coupling", coupling,
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: coupling must be finite, got {coupling}\n"
        assert not out.exists()

    def test_stacked_svg_needs_a_row(self):
        # the package's own error, which is still a ValueError
        with pytest.raises(InvalidParameterError, match="need at least one spectrum row"):
            render.stacked_svg([], "no rows")

    def test_json_periods(self, tmp_path):
        run("mathieu", "--alpha", repr(GOLDEN), "--count", "5", "--grid", "256",
            "--out", str(tmp_path), "--format", "json")
        data = read_json(tmp_path / "mathieu_sweep.json")
        assert [r["b"] for r in data["approximants"]] == [1, 2, 3, 5, 8]
        assert all(r["period"] == r["b"] for r in data["approximants"])

    def test_small_coupling_periods(self, tmp_path):
        # a tolerance search once reported the period 34 for b = 89 here
        assert run("mathieu", "--alpha", repr(GOLDEN), "--count", "10", "--coupling", "1e-11",
                   "--out", str(tmp_path), "--format", "json") == 0
        reps = read_json(tmp_path / "mathieu_sweep.json")["approximants"]
        assert [r["b"] for r in reps] == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        assert [r["period"] for r in reps] == [r["b"] for r in reps]

    def test_failing_builder_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise InvalidParameterError("no svg")

        monkeypatch.setattr(cli, "stacked_svg", refuse)
        out = tmp_path / "out"
        assert run("mathieu", "--alpha", repr(GOLDEN), "--count", "3", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: no svg\n"
        assert not out.exists()

    def test_requires_alpha(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("mathieu", "--out", str(tmp_path))
        assert exc.value.code == 2
        assert capsys.readouterr().err == "error: the following arguments are required: --alpha\n"


class TestOracle:
    def test_outputs_and_columns(self, tmp_path):
        assert run("oracle", "--spec", TWO_SITE, "--grid", "256",
                   "--blocks", "2", "--blocks", "4", "--out", str(tmp_path),
                   "--format", "csv,json") == 0
        lines = (tmp_path / "oracle.csv").read_text().splitlines()
        assert lines[1] == "n,eigenvalue_index,eigenvalue,dist_to_symbol_spectrum"
        assert len(lines) == 2 + 2 * 2 + 4 * 2  # sizes 4 and 8
        data = read_json(tmp_path / "oracle.json")
        assert [row["blocks"] for row in data["rows"]] == [2, 4]

    def test_default_blocks(self, tmp_path):
        run("oracle", "--spec", TWO_SITE, "--grid", "256", "--out", str(tmp_path),
            "--format", "json")
        data = read_json(tmp_path / "oracle.json")
        assert [row["blocks"] for row in data["rows"]] == [4, 16, 64]

    @pytest.mark.parametrize("k", [2**62, -(2**62), 10**30])
    def test_huge_fourier_index(self, tmp_path, k):
        # the pair reaches no row of a 4-block Dirichlet section, so the
        # eigenvalues are those of the spec without it
        def eigenvalues(fourier, out):
            spec = json.dumps({"kind": "laurent", "period": 2, "v": [0.0, 0.5],
                               "fourier": fourier})
            assert run("oracle", "--spec", spec, "--blocks", "4", "--out", str(out),
                       "--format", "csv") == 0
            lines = (out / "oracle.csv").read_text().splitlines()[2:]
            return [line.split(",")[2] for line in lines]

        with_pair = eigenvalues([[1, 0.5], [k, 0.25]], tmp_path / "huge")
        assert with_pair == eigenvalues([[1, 0.5]], tmp_path / "without")


class TestCallContract:
    """One stacked solve per spectrum and one dense solve per section."""

    def test_oracle(self, tmp_path, calls):
        assert run("oracle", "--spec", LAURENT, "--grid", "64", "--blocks", "2",
                   "--blocks", "3", "--blocks", "5", "--out", str(tmp_path),
                   "--format", "csv,json") == 0
        assert calls == {"symbol_stack": 1, "eigvalsh_stack": 1, "truncate": 3,
                         "hermitian_eigenvalues": 3}

    def test_oracle_repeated_blocks(self, tmp_path, calls):
        # one section and one solve per requested block, repeats included
        assert run("oracle", "--spec", LAURENT, "--grid", "64", "--blocks", "4",
                   "--blocks", "4", "--out", str(tmp_path), "--format", "json") == 0
        assert calls == {"symbol_stack": 1, "eigvalsh_stack": 1, "truncate": 2,
                         "hermitian_eigenvalues": 2}

    @pytest.mark.parametrize("count", [2, 7])
    def test_mathieu(self, tmp_path, calls, count):
        assert run("mathieu", "--alpha", repr(GOLDEN), "--count", str(count),
                   "--epsilon", "0.1", "--out", str(tmp_path)) == 0
        assert calls == {"symbol_stack": count, "eigvalsh_stack": count}


def test_every_solved_matrix_is_exactly_hermitian(tmp_path, monkeypatch):
    """The solves read one triangle, so the builders own Hermiticity: every
    stack a command hands to a solve is finite and equals its conjugate
    transpose bit for bit.  A section arrives as real band storage, one
    triangle only: it is finite, and its outermost column holds a nonzero."""
    solved = []

    def recording(name, fn):
        if name not in ("eigvalsh_stack", "hermitian_eigenvalues"):
            return fn

        def wrapper(arr):
            solved.append(np.asarray(arr))
            return fn(arr)

        return wrapper

    patch_counted(monkeypatch, recording)
    commands = [["spectrum"], ["pseudospectrum", "--epsilon", "0.3"],
                ["borg", "--epsilon", "0.3"], ["oracle", "--blocks", "3", "--blocks", "7"]]
    for spec in (STAIRCASE, JACOBI, LAURENT, LAURENT_PERIOD_ONE):
        for argv in commands:
            assert run(*argv, "--spec", spec, "--grid", "64", "--out", str(tmp_path)) == 0
    assert run("borg", "--random", "10", "--out", str(tmp_path)) == 0
    assert run("mathieu", "--alpha", repr(GOLDEN), "--count", "6", "--out", str(tmp_path)) == 0
    assert {arr.ndim for arr in solved} == {2, 3}  # section bands and symbol stacks
    for arr in solved:
        assert np.isfinite(arr).all()
        if arr.ndim == 2:
            assert arr.dtype == np.float64 and arr.shape[1] <= arr.shape[0]
            assert arr.shape[1] == 1 or np.any(arr[:, -1])
        else:
            assert np.array_equal(arr, np.conj(np.swapaxes(arr, -1, -2)))


@pytest.mark.parametrize("argv, built", [
    (["borg", "--random", "20", "--seed", "3"], 20),
    (["pseudospectrum", "--spec", JACOBI, "--epsilon", "0.05", "--epsilon", "0.4",
      "--epsilon", "2.0"], 1),
    (["mathieu", "--alpha", repr(GOLDEN), "--count", "6", "--epsilon", "0.1",
      "--epsilon", "0.02"], 6),
], ids=["borg-random-20", "pseudospectrum-3-epsilons", "mathieu-6"])
def test_one_gap_report_per_enclosure(tmp_path, monkeypatch, argv, built):
    # every verdict, epsilon_star and gap count reads its enclosure's one
    # `gaps`: the property is wrapped in a counting one of its own kind
    reports = []
    gaps = vars(spectra.RealSpectrum)["gaps"]
    build = getattr(gaps, "func", None) or gaps.fget  # cached or plain property

    def counted(self):
        reports.append(self)
        return build(self)

    counting = type(gaps)(counted)
    counting.__set_name__(spectra.RealSpectrum, "gaps")
    monkeypatch.setattr(spectra.RealSpectrum, "gaps", counting)
    assert run(*argv, "--out", str(tmp_path)) == 0
    assert len(reports) == built


class TestRefusedBeforeSolving:
    """Every size in a request is checked before its first eigensolve."""

    def test_mathieu_largest_period(self, tmp_path, capsys, calls, monkeypatch):
        # an approximant's two Floquet solves need 3 * 2 * b^2 * 16 bytes:
        # b = 55 (--count 9) just fits this budget, b = 89 (--count 10) does not
        monkeypatch.setattr(spectra, "BYTE_BUDGET", 3 * 2 * 55**2 * 16)
        assert run("mathieu", "--alpha", repr(GOLDEN), "--count", "9",
                   "--out", str(tmp_path / "fits"), "--format", "json") == 0
        calls.clear()
        out = tmp_path / "over"
        assert run("mathieu", "--alpha", repr(GOLDEN), "--count", "10",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert calls["eigvalsh_stack"] == 0
        assert not out.exists()

    def test_mathieu_oversized_sweep_builds_no_potential(self, tmp_path, capsys, monkeypatch):
        # count 32 reaches b = 3,524,578, whose two-point band table is far
        # over the budget: refused before the first potential is built
        built = Counter()
        potential = mathieu.mathieu_potential

        def counting(conv, coupling=1.0):
            built[conv.b] += 1
            return potential(conv, coupling)

        monkeypatch.setattr(mathieu, "mathieu_potential", counting)
        out = tmp_path / "over"
        assert run("mathieu", "--alpha", repr(GOLDEN), "--count", "32", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == ("error: a 2-point band table at period 3524578 needs about "
                       "1110671.5 GiB, over the 2 GiB budget\n")
        assert not built and not out.exists()
        # at zero coupling every period is 1: only the 10 b-site window grows
        assert run("mathieu", "--alpha", repr(GOLDEN), "--coupling", "0", "--count", "25",
                   "--out", str(tmp_path / "free"), "--format", "json") == 0
        assert sum(built.values()) == 25

    def test_oracle_largest_section(self, tmp_path, capsys, calls):
        out = tmp_path / "out"
        assert run("oracle", "--spec", TWO_SITE, "--blocks", "4", "--blocks", "9000",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert calls["hermitian_eigenvalues"] == calls["eigvalsh_stack"] == 0
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # 3 N p^2 16 bytes of band table: N = 10^8 at p = 2 is over the budget
        ["oracle", "--spec", LAURENT, "--grid", "100000000"],
        ["oracle", "--spec", TWO_SITE, "--blocks", "4", "--blocks", "9000"],
    ], ids=["band-table", "section"])
    def test_oracle_refused_before_the_worker(self, tmp_path, capsys, no_solves,
                                              monkeypatch, argv):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        before = threading.active_count()
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert threading.active_count() == before and not started
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["oracle", "--spec", TWO_SITE, "--blocks", "1500", "--format", "svg"],
        ["spectrum", "--spec", TWO_SITE, "--format", ""],
        ["pseudospectrum", "--spec", TWO_SITE, "--epsilon", "0.1", "--format", "csv"],
        ["borg", "--spec", TWO_SITE, "--epsilon", "0.6", "--format", "csv,svg"],
        ["borg", "--random", "5", "--format", "csv"],
        ["mathieu", "--alpha", repr(GOLDEN), "--format", ""],
    ], ids=["oracle-svg", "spectrum-empty", "pseudospectrum-csv", "borg-csv-svg",
            "random-csv", "mathieu-empty"])
    def test_format_selecting_no_artifact(self, tmp_path, capsys, no_solves, argv):
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --format ") and err.count("\n") == 1
        assert not out.exists()

    def test_bands_csv_over_budget(self, tmp_path, capsys, no_solves):
        # 4e7 rows at period 1: the band table's 3 N p^2 16 bytes fit the
        # budget, the text of bands.csv does not
        argv = ["spectrum", "--spec", '{"kind": "schrodinger", "period": 1, "v": [0.0]}',
                "--grid", "40000000", "--out", str(tmp_path / "out")]
        args = cli.build_parser().parse_args(argv)
        assert_rejected_before_allocating(lambda: cli._check_args(args))
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bands.csv ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        cli._check_args(cli.build_parser().parse_args([*argv, "--format", "json,svg"]))

    def test_bands_csv_at_budget(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spectra, "BYTE_BUDGET", 64 * 2 * cli._BANDS_CSV_ROW_BYTES)
        argv = ["spectrum", "--spec", TWO_SITE, "--format", "csv"]
        assert run(*argv, "--grid", "64", "--out", str(tmp_path / "fits")) == 0
        assert run(*argv, "--grid", "65", "--out", str(tmp_path / "over")) == 2
        assert not (tmp_path / "over").exists()

    def test_random_count_over_budget(self, tmp_path):
        # a fresh process with a timeout: an unchecked count runs until killed
        out = tmp_path / "out"
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "borg_spectra.cli", "borg", "--random", "1000000000",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: --random ") and result.stderr.count("\n") == 1
        assert result.stdout == ""
        assert not out.exists()

    def test_random_count_at_budget(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spectra, "BYTE_BUDGET", 3 * cli._RANDOM_INSTANCE_BYTES)
        assert run("borg", "--random", "3", "--out", str(tmp_path / "fits")) == 0
        assert run("borg", "--random", "4", "--out", str(tmp_path / "over")) == 2
        assert not (tmp_path / "over").exists()
        args = cli.build_parser().parse_args(["borg", "--random", str(10**30)])
        assert_rejected_before_allocating(lambda: cli._check_args(args))


@pytest.mark.parametrize("argv", [
    ["spectrum", "--spec", TWO_SITE, "--grid", "16"],
    ["pseudospectrum", "--spec", TWO_SITE, "--epsilon", "0.1", "--epsilon", "0.5"],
    ["borg", "--spec", TWO_SITE, "--epsilon", "0.6"],
    ["borg", "--random", "2"],
    ["mathieu", "--alpha", repr(GOLDEN), "--count", "2"],
    ["oracle", "--spec", TWO_SITE, "--blocks", "2", "--grid", "16"],
], ids=["spectrum", "pseudospectrum", "borg", "borg-random", "mathieu", "oracle"])
def test_artifacts_have_declared_suffixes(argv):
    # `--format` is checked against the declared suffixes before a command
    # runs, so each command returns exactly those
    args = cli.build_parser().parse_args(argv)
    cli._check_args(args)
    command, suffixes = cli._COMMANDS[args.command]
    assert {name.rpartition(".")[2] for name in command(args)} == set(suffixes)


class TestErrorPaths:
    def test_missing_spec(self, tmp_path):
        assert run("spectrum", "--out", str(tmp_path)) == 2

    def test_nonexistent_spec_file(self, tmp_path):
        assert run("spectrum", "--spec", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)) == 2

    def test_malformed_inline_spec(self, tmp_path):
        assert run("spectrum", "--spec", '{"kind": "schrodinger"}',
                   "--out", str(tmp_path)) == 2
        assert run("spectrum", "--spec", "{not json", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize(
        "spec",
        [
            '{"kind": "schrodinger", "period": 1, "v": 5}',
            '{"kind": "schrodinger", "period": 2, "v": ["a", "b"]}',
            '{"kind": "laurent", "period": 1, "v": [0.0], "fourier": [["x", 1]]}',
            '{"kind": "laurent", "period": 1, "v": [0.0], "fourier": [[1]]}',
            "[1, 2]",
            '{"kind": "schrodinger", "period": 1, "v": [1%s]}' % ("0" * 400),
            '{"kind": "laurent", "period": 1, "v": [0.0], "fourier": [[1%s, 1]]}' % ("0" * 400),
            '{"kind": "laurent", "period": 1, "v": [0.0], "fourier": 5}',
            '{"kind": "laurent", "period": 1, "v": [0.0], "fourier": [[1.5, 1]]}',
            '{"kind": "laurent", "period": 1, "v": [0.0], "fourier": [[true, 1]]}',
            '{"kind": "schrodinger", "period": "2", "v": [0.0, 1.0]}',
            '{"kind": "jacobi", "period": 1, "v": [0.0], "a": ["x"]}',
            '{"kind": "schrodinger", "period": 1, "v": [0], "fourier": [[1, 5.0]]}',
            '{"kind": "jacobi", "period": 2, "v": [0.0, 1.0], "weights": [1, 2]}',
        ],
        ids=["v-number", "v-strings", "fourier-index-string", "fourier-short-pair",
             "inline-list", "v-overflow", "fourier-index-overflow", "fourier-number",
             "fourier-index-float", "fourier-index-bool", "period-string", "jacobi-a-string",
             "fourier-on-schrodinger", "unknown-key"],
    )
    def test_malformed_spec_exits_2_with_one_line(self, tmp_path, capsys, spec):
        assert run("spectrum", "--spec", spec, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not found" not in err  # inline JSON, never read as a path

    @pytest.mark.parametrize("raw, as_file", [
        (b"\xff\xfe{}", True),
        (b"{\xff\xfe}", False),
        (b"[" * 100_000, True),
        (b"[" * 5_000, False),
        (b'{"kind": "schrodinger", "period": 1, "v": [1%s]}' % (b"0" * 4999), True),
        (b'{"kind": "schrodinger", "period": 1, "v": [1%s]}' % (b"0" * 4999), False),
    ], ids=["not-utf8-file", "not-utf8-inline", "deep-nesting-file", "deep-nesting-inline",
            "5000-digits-file", "5000-digits-inline"])
    def test_undecodable_spec_exits_2_with_one_line(self, tmp_path, capsys, raw, as_file):
        value = os.fsdecode(raw)  # inline, as a POSIX argv byte string reaches Python
        if as_file:
            path = tmp_path / "spec.json"
            path.write_bytes(raw)
            value = str(path)
        out = tmp_path / "out"
        assert run("spectrum", "--spec", value, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not found" not in err
        assert not out.exists()

    def test_nonpositive_random_count(self, tmp_path, capsys):
        assert run("borg", "--random", "-3", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "borg_random.json").exists()

    def test_overflowing_fattening(self, tmp_path, capsys):
        spec = '{"kind": "schrodinger", "period": 2, "v": [0.0, 1e308]}'
        assert run("pseudospectrum", "--spec", spec, "--epsilon", "1e308",
                   "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.glob("pseudospectrum_*"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["pseudospectrum", "--spec", TWO_SITE, "--epsilon", "0"],
            ["borg", "--spec", TWO_SITE, "--epsilon", "0"],
            ["mathieu", "--alpha", repr(GOLDEN), "--epsilon", "0"],
            ["mathieu", "--alpha", repr(GOLDEN), "--grid", "1"],
            ["oracle", "--spec", TWO_SITE, "--blocks", "0"],
            ["spectrum", "--spec", TWO_SITE, "--grid", "1000000000"],
            ["pseudospectrum", "--spec", TWO_SITE, "--epsilon", "1e308"],
            ["borg", "--spec", TWO_SITE, "--check", "forward", "--epsilon", "1e308"],
            ["borg", "--spec", TWO_SITE, "--check", "converse", "--epsilon", "1e308"],
            ["mathieu", "--alpha", repr(GOLDEN), "--epsilon", "inf"],
            ["borg", "--random", "1", "--seed", "-1"],
            ["spectrum", "--spec", TWO_SITE, "--format", ""],
            ["oracle", "--spec", TWO_SITE, "--format", "svg"],
            ["borg", "--random", "5", "--format", "csv"],
            ["mathieu", "--alpha", "1e-310"],
            ["mathieu", "--alpha", "5e-324"],
            ["spectrum", "--spec", TWO_SITE, "--grid", "1" + "0" * 400],
            ["pseudospectrum", "--spec", LAURENT, "--epsilon", "0.1", "--grid", "1" + "0" * 400],
            ["oracle", "--spec", TWO_SITE, "--blocks", "1" + "0" * 400],
            ["borg", "--spec", TWO_SITE, "--epsilon", "0.1", "--seed", "7"],
            ["borg", "--random", "3", "--epsilon", "1e308"],
            ["borg", "--random", "3", "--spec", TWO_SITE],
            ["borg", "--random", "3", "--spec", "/nonexistent.json"],
            ["borg", "--random", "3", "--grid", "16"],
            ["pseudospectrum", "--spec", TWO_SITE],
            ["borg", "--spec", TWO_SITE],
        ],
        ids=["pseudospectrum-epsilon", "borg-epsilon", "mathieu-epsilon",
             "mathieu-grid", "oracle-blocks", "spectrum-grid-over-budget",
             "pseudospectrum-epsilon-overflow", "forward-epsilon-overflow",
             "converse-epsilon-overflow", "mathieu-epsilon-inf", "random-negative-seed",
             "spectrum-format-empty", "oracle-format-svg", "random-format-csv",
             "mathieu-alpha-tiny", "mathieu-alpha-subnormal", "bands-csv-past-float",
             "band-table-past-float", "section-past-float", "borg-seed-without-random",
             "random-with-epsilon", "random-with-spec", "random-with-missing-spec",
             "random-with-grid", "pseudospectrum-no-epsilon", "borg-no-epsilon"],
    )
    def test_option_checks_exit_2_with_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "inf" not in err or "inf" in argv  # no infinity the user did not type
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--spec",
             '{"kind": "schrodinger", "period": 2, "v": [-1e308, 1e308]}'],
            ["spectrum", "--spec",
             '{"kind": "jacobi", "period": 2, "v": [0.0, 0.0], "a": [1e308, 1e308]}'],
            ["spectrum", "--spec",
             '{"kind": "laurent", "period": 2, "v": [0.0, 1.0], "fourier": [[%d, 1e10]]}'
             % 10**300],
            ["mathieu", "--alpha", repr(GOLDEN), "--coupling", "1e308"],
            ["mathieu", "--alpha", "0.5", "--coupling", "1e308"],
        ],
        ids=["potential", "jacobi-weights", "laurent-corner", "mathieu-coupling",
             "mathieu-coupling-alternating"],
    )
    def test_oversized_entries_exit_2_with_one_line(self, tmp_path, capsys, argv):
        # each of these once exited 0 with Infinity or NaN in its JSON
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--spec", TWO_SITE, "--grid", "2.5"],
            ["pseudospectrum", "--spec", TWO_SITE, "--epsilon", "x"],
            ["borg", "--spec", TWO_SITE, "--epsilon", "0.5", "--check", "sideways"],
            ["spectrum", "--spec", TWO_SITE, "--sideways"],
            [],
            ["spectra"],
        ],
        ids=["grid-float", "epsilon-word", "check-choice", "unknown-flag",
             "no-command", "unknown-command"],
    )
    def test_parser_errors_exit_2_with_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_format(self, tmp_path):
        assert run("spectrum", "--spec", TWO_SITE, "--out", str(tmp_path),
                   "--format", "tsv") == 2

    def test_bad_grid(self, tmp_path):
        assert run("spectrum", "--spec", TWO_SITE, "--grid", "1",
                   "--out", str(tmp_path)) == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestJsonLayout:
    """Key order of each JSON artifact: rerun checks show byte identity
    between runs, never the layout itself."""

    REPORT_KEYS = ["theorem", "epsilon", "best_c", "deviation", "bound", "satisfied",
                   "margin", "hypothesis_met", "connected", "epsilon_star"]

    def test_key_order(self, tmp_path):
        out = str(tmp_path)
        run("spectrum", "--spec", TWO_SITE, "--grid", "256", "--out", out, "--format", "json")
        data = read_json(tmp_path / "spectrum.json")
        assert list(data) == ["version", "intervals", "resolution_error", "solver", "gap_report"]
        assert list(data["gap_report"]) == ["gaps", "epsilon_star"]
        assert all(len(pair) == 2 for pair in data["intervals"])

        run("pseudospectrum", "--spec", TWO_SITE, "--epsilon", "0.1", "--out", out,
            "--format", "json")
        data = read_json(tmp_path / "pseudospectrum_0.1.json")
        assert list(data) == ["version", "epsilon", "connected", "epsilon_star", "intervals",
                              "resolution_error", "solver"]

        run("mathieu", "--alpha", repr(GOLDEN), "--count", "2", "--epsilon", "0.1",
            "--epsilon", "0.02", "--out", out, "--format", "json")
        data = read_json(tmp_path / "mathieu_sweep.json")
        assert list(data) == ["version", "alpha", "coupling", "truncated", "hausdorff_next",
                              "potential_sup_next", "approximants"]
        for approximant in data["approximants"]:
            assert list(approximant) == [
                "a", "b", "period", "gap_count", "unresolved_gaps", "epsilon_star",
                "potential_distance", "potential_distance_bound", "pseudo_connected",
                "intervals", "resolution_error", "solver",
            ]
            assert list(approximant["pseudo_connected"]) == ["0.1", "0.02"]

        run("oracle", "--spec", TWO_SITE, "--blocks", "2", "--blocks", "5", "--out", out,
            "--format", "json")
        data = read_json(tmp_path / "oracle.json")
        assert list(data) == ["version", "spectrum", "rows"]
        assert list(data["spectrum"]) == ["intervals", "resolution_error", "solver"]
        assert [list(row) for row in data["rows"]] == [
            ["blocks", "size", "one_sided", "hausdorff"]] * 2

        run("borg", "--spec", JACOBI, "--epsilon", "0.3", "--check", "forward", "--out", out)
        (report,) = read_json(tmp_path / "borg.json")["reports"]
        assert report["theorem"] == "ForwardJacobi31"
        assert list(report) == self.REPORT_KEYS + ["a_deviation"]
        run("borg", "--spec", TWO_SITE, "--epsilon", "0.3", "--out", out)
        reports = read_json(tmp_path / "borg.json")["reports"]
        assert [list(r) for r in reports] == [self.REPORT_KEYS] * 2

    def test_value_that_is_no_record_refused(self):
        # only records (dataclasses) and Enums reach the hook; anything else is a bug
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            cli._json_text({"x": object()})


class TestDeterminism:
    def test_spectrum_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("spectrum", "--spec", STAIRCASE, "--grid", "512", "--out", str(out))
        for name in ("spectrum.json", "bands.csv", "spectrum.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_random_suite_byte_identical_for_fixed_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("borg", "--random", "5", "--seed", "123", "--out", str(out))
        assert (a / "borg_random.json").read_bytes() == (b / "borg_random.json").read_bytes()

    def test_mathieu_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("mathieu", "--alpha", repr(GOLDEN), "--count", "4", "--grid", "256",
                "--out", str(out), "--format", "csv,json")
        for name in ("mathieu_sweep.csv", "mathieu_sweep.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_paths_printed_on_stdout(self, tmp_path, capsys):
        run("spectrum", "--spec", TWO_SITE, "--out", str(tmp_path), "--format", "json")
        out = capsys.readouterr().out
        assert str(tmp_path / "spectrum.json") in out
