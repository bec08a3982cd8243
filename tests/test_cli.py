"""End-to-end tests of the command-line interface.

Every invocation goes through `main(argv)` with outputs directed at a
temporary directory; assertions cover artifact names, file contents,
version stamping, exit codes, and byte-level determinism.
"""
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from borg_spectra import OperatorSpec, __version__, band_table
from borg_spectra.cli import main

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


def run(*argv) -> int:
    return main(list(argv))


def read_json(path):
    data = json.loads(path.read_text())
    assert data["version"] == __version__
    return data


class TestSpectrum:
    def test_writes_all_formats(self, tmp_path):
        assert run("spectrum", "--spec", STAIRCASE, "--out", str(tmp_path)) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["bands.csv", "spectrum.json", "spectrum.svg"]

    def test_json_payload(self, tmp_path):
        run("spectrum", "--spec", TWO_SITE, "--grid", "512", "--out", str(tmp_path))
        data = read_json(tmp_path / "spectrum.json")
        assert set(data) == {"version", "intervals", "resolution_error", "gap_report"}
        assert len(data["intervals"]) == 2  # two bands, one gap
        assert data["gap_report"]["connected"] is False
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
        table = band_table(OperatorSpec.from_json(TWO_SITE), 0, 64)
        assert min(map(float, lams)) == pytest.approx(float(np.min(table.bands)))

    @staticmethod
    def per_row_bands_csv(table) -> str:
        """bands.csv as the per-row loop wrote it: one (theta, j, lambda)
        tuple per cell, each cell formatted on its own."""
        lines = [f"# borg-spectra {__version__}", "theta,band_index,lambda"]
        for j, band in enumerate(table.bands, start=1):
            for theta, lam in zip(table.grid, band):
                row = (float(theta), j, float(lam))
                lines.append(",".join(
                    "" if x is None else repr(x) if isinstance(x, float) else str(x)
                    for x in row
                ))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("spec, grid", [
        (json.dumps({"kind": "schrodinger", "period": 5,
                     "v": [0.3, -0.7, 0.1, 0.9, -0.2]}), 512),
        (json.dumps({"kind": "jacobi", "period": 3, "v": [0.0, 0.5, -0.4],
                     "a": [1.0, 1.5, 0.7]}), 511),
        (json.dumps({"kind": "laurent", "period": 3, "v": [-0.5, 0.0, 0.5],
                     "fourier": [[1, 0.5], [-2, 0.25], [3, 0.1]]}), 1024),
    ], ids=["schrodinger-512", "jacobi-511", "laurent-1024"])
    def test_bands_csv_matches_per_row_loop(self, tmp_path, spec, grid):
        run("spectrum", "--spec", spec, "--grid", str(grid), "--out", str(tmp_path),
            "--format", "csv")
        table = band_table(OperatorSpec.from_json(spec), 0, grid)
        got = (tmp_path / "bands.csv").read_bytes()
        want = self.per_row_bands_csv(table).encode()
        if got != want:  # name the first differing line: a full diff takes minutes
            pairs = enumerate(zip(got.splitlines(), want.splitlines()))
            first = next((i for i, (g, w) in pairs if g != w), None)
            pytest.fail(f"bands.csv differs from the per-row loop, first at line {first}")

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
        assert small["gap_report"]["connected"] is False
        assert large["gap_report"]["connected"] is True
        assert len(large["intervals"]) == 1

    def test_requires_epsilon(self, tmp_path):
        assert run("pseudospectrum", "--spec", TWO_SITE, "--out", str(tmp_path)) == 2

    def test_rejects_nonpositive_epsilon(self, tmp_path):
        assert run("pseudospectrum", "--spec", TWO_SITE, "--out", str(tmp_path),
                   "--epsilon", "-0.5") == 2


class TestBorg:
    @staticmethod
    def directions(data):
        return ["forward" if r["theorem"].startswith("Forward") else "converse"
                for r in data["reports"]]

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

    def test_requires_epsilon_without_random(self, tmp_path):
        assert run("borg", "--spec", TWO_SITE, "--out", str(tmp_path)) == 2


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
        assert len(lines) == 2 + 3

    def test_json_periods(self, tmp_path):
        run("mathieu", "--alpha", repr(GOLDEN), "--count", "5", "--grid", "256",
            "--out", str(tmp_path), "--format", "json")
        data = read_json(tmp_path / "mathieu_sweep.json")
        assert [r["b"] for r in data["approximants"]] == [1, 2, 3, 5, 8]
        assert all(r["offbyone_discrepancy"] for r in data["approximants"])

    def test_requires_alpha(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("mathieu", "--out", str(tmp_path))
        assert exc.value.code == 2


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
        ],
        ids=["v-number", "v-strings", "fourier-index-string", "fourier-short-pair",
             "inline-list", "v-overflow", "fourier-index-overflow"],
    )
    def test_malformed_spec_exits_2_with_one_line(self, tmp_path, capsys, spec):
        assert run("spectrum", "--spec", spec, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not found" not in err  # inline JSON, never read as a path

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
        ],
        ids=["pseudospectrum-epsilon", "borg-epsilon", "mathieu-epsilon",
             "mathieu-grid", "oracle-blocks"],
    )
    def test_option_checks_exit_2_with_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
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
        ],
        ids=["potential", "jacobi-weights", "laurent-corner", "mathieu-coupling"],
    )
    def test_oversized_entries_exit_2_with_one_line(self, tmp_path, capsys, argv):
        # each of these once exited 0 with Infinity or NaN in its JSON
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

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
            run("borg", "--random", "5", "--seed", "123", "--grid", "256",
                "--out", str(out))
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
