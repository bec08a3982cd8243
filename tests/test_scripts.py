"""Each experiment script under scripts/ runs to completion in a fresh
interpreter, so a library name that a script uses cannot vanish unseen; it
runs in development mode with warnings as errors, as the suite itself does,
so a numpy warning in a script cannot pass unseen either."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda path: path.name
)
def test_script_exits_0(script, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []  # the scripts only print
