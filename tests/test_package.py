"""The package namespace and console scripts resolve, records holding
arrays compare by identity, the README's library example runs as it
says, modules share only the private names they are meant to, and the
test configuration reports a failing test as a failure."""
import ast
import importlib
import json
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import borg_spectra
from borg_spectra import Connectivity, OperatorKind, OperatorSpec, band_table, eig, oracle

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

TWO_SITE = OperatorSpec(kind=OperatorKind.SCHRODINGER, period=2, v=(0.0, 1.0))

# the records that hold arrays, each built afresh by its lambda
ARRAY_RECORDS = {
    "BandTable": lambda: band_table(TWO_SITE, 8),
    "EigenResult": lambda: eig.hermitian_eigenvalues(oracle.truncate(TWO_SITE, 3).band),
    "TruncatedOperator": lambda: oracle.truncate(TWO_SITE, 3),
    "TruncationRow": lambda: oracle.truncation_compare(TWO_SITE, [3], 16).rows[0],
    "TruncationComparison": lambda: oracle.truncation_compare(TWO_SITE, [3], 16),
}


def test_all_names_resolve():
    names = borg_spectra.__all__
    assert [n for n in names if not hasattr(borg_spectra, n)] == []
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec("from borg_spectra import *", namespace)
    assert set(names) <= set(namespace)


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_records_holding_arrays_compare_by_identity(name):
    # field-wise __eq__ and __hash__ would compare and hash arrays (a
    # ValueError and a TypeError); TruncationComparison compares its rows,
    # so it follows them
    first, second = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(first).__name__ == name
    assert first == first and not first != first
    assert first != second and not first == second
    assert hash(first) == hash(first)
    assert first in {first} and second not in {first}


def test_readme_library_example_runs_as_commented():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)
    assert namespace["verdict"] is Connectivity.DISCONNECTED
    assert namespace["converse"].satisfied
    assert namespace["periods"] == [1, 2, 3, 5, 8]
    assert [row.one_sided for row in namespace["oracle"].rows] == [0.0] * 3


def test_private_names_shared_between_modules():
    # every `from .module import _name` in the package, dunders aside, with
    # the modules that make it: the number rules (and `_real_array`, the
    # real rule for arrays) may be imported anywhere, the assembly internals
    # by the oracle alone, and the radius rule by the sweep, which checks its
    # radii before any solve
    imported = defaultdict(set)
    for path in (ROOT / "src" / "borg_spectra").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.endswith("__"):
                        imported[node.module, alias.name].add(path.stem)
    rules = {("symbols", "_integer"), ("symbols", "_real"), ("symbols", "_real_array")}
    assert set(imported) >= rules
    assert {key: stems for key, stems in imported.items() if key not in rules} == {
        ("symbols", "_bonds"): {"oracle"},
        ("eig", "_band_to_dense"): {"oracle"},
        ("spectra", "_check_radius"): {"mathieu"},
    }


def test_console_scripts_run_like_their_wrapper(tmp_path, monkeypatch, capsys):
    # an installed console script runs sys.exit(target()) with the command
    # line in sys.argv
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    assert list(scripts) == ["borg-spectra"]
    spec = json.dumps({"kind": "schrodinger", "period": 2, "v": [0.0, 1.0]})
    cases = [
        (["--version"], 0, f"borg-spectra {borg_spectra.__version__}\n", ""),
        (["spectrum", "--grid", "1", "--spec", spec, "--out", str(tmp_path)], 2, "",
         "error: --grid must be an integer >= 2, got 1\n"),
    ]
    for name, entry in scripts.items():
        module, _, attr = entry.partition(":")
        target = getattr(importlib.import_module(module), attr)
        for argv, code, out, err in cases:
            monkeypatch.setattr(sys, "argv", [name, *argv])
            with pytest.raises(SystemExit) as exc:
                sys.exit(target())
            assert (exc.value.code, *capsys.readouterr()) == (code, out, err)
    assert not list(tmp_path.iterdir())


def test_failing_property_test_is_reported_as_failed(tmp_path):
    # hypothesis's failure report imports libcst, whose mypy_extensions
    # DeprecationWarning the ini's "error" filter must not turn into an
    # INTERNALERROR (exit 3) that stops the run at the first failing @given
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "@settings(database=None, derandomize=True)\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "1 failed" in result.stdout and result.returncode == 1, result.stdout[-500:]
