"""The package namespace resolves, and the test configuration reports a
failing test as a failure."""
import subprocess
import sys
from pathlib import Path

import borg_spectra

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_all_names_resolve():
    names = borg_spectra.__all__
    assert [n for n in names if not hasattr(borg_spectra, n)] == []
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec("from borg_spectra import *", namespace)
    assert set(names) <= set(namespace)


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
