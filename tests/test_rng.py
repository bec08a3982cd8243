"""The `borg --random` generator against numpy's `default_rng`, its
reference: the same seed gives the same integers and bit-identical floats
(compared by `float.hex`), and the suite's draws never import
`numpy.random`."""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borg_spectra import OperatorKind, OperatorSpec, cli
from borg_spectra._rng import Generator

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# one word, the largest one-word seed, two, three and four words, and six
# words, more than the pool of four holds
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64, 2**100 + 12345, 2**160 + 7]


def hexes(values) -> list[str]:
    return [float(x).hex() for x in values]


def spec_draws(rng, rounds: int) -> list:
    """The suite's call sequence: p, v, the Jacobi flag, and a when it is set."""
    out = []
    for _ in range(rounds):
        p = int(rng.integers(2, 9))
        v = hexes(rng.uniform(-1.0, 1.0, p))
        jacobi = int(rng.integers(0, 2))
        a = hexes(rng.uniform(0.5, 2.0, p)) if jacobi else []
        out.append((p, v, jacobi, a))
    return out


def mixed_draws(rng, rounds: int) -> list:
    """32-bit and 64-bit draws interleaved, so a buffered high half is read
    after a 64-bit draw: a full 32-bit word, a bounded draw that rejects
    about half of its candidates, and uniforms of odd lengths."""
    out = []
    for i in range(rounds):
        out.append(int(rng.integers(0, 2**32)))
        out.extend(hexes(rng.uniform(-3.0, 5.0, i % 3 + 1)))
        out.append(int(rng.integers(0, 2**31 + 1)))
        out.append(int(rng.integers(10, 17)))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_suite_sequence_matches_numpy(seed):
    assert spec_draws(Generator(seed), 60) == spec_draws(np.random.default_rng(seed), 60)


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_match_numpy(seed):
    assert mixed_draws(Generator(seed), 40) == mixed_draws(np.random.default_rng(seed), 40)


@pytest.mark.parametrize("seed", SEEDS)
def test_repeated_small_range_matches_numpy(seed):
    ours, ref = Generator(seed), np.random.default_rng(seed)
    assert [ours.integers(0, 3) for _ in range(500)] == [int(ref.integers(0, 3)) for _ in range(500)]


def test_rejection_loop_is_reached():
    # 2**32 % (2**31 + 1) = 2**31 - 1: about half the candidates are rejected,
    # so 40 draws take more than 40 words of the stream
    rng = Generator(0)
    draws = [rng.integers(0, 2**31 + 1) for _ in range(40)]
    ref = np.random.default_rng(0)
    assert draws == [int(ref.integers(0, 2**31 + 1)) for _ in range(40)]
    plain = np.random.default_rng(0)
    assert draws != [int(plain.integers(0, 2**32)) * (2**31 + 1) >> 32 for _ in range(40)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**128 - 1))
def test_any_seed_matches_numpy(seed):
    assert spec_draws(Generator(seed), 3) == spec_draws(np.random.default_rng(seed), 3)
    assert mixed_draws(Generator(seed), 3) == mixed_draws(np.random.default_rng(seed), 3)


def numpy_spec(rng: np.random.Generator) -> OperatorSpec:
    """The suite's documented generator, drawn through numpy."""
    p = int(rng.integers(2, 9))
    v = tuple(rng.uniform(-1.0, 1.0, size=p).tolist())
    if int(rng.integers(0, 2)) == 1:
        a = tuple(rng.uniform(0.5, 2.0, size=p).tolist())
        return OperatorSpec(kind=OperatorKind.JACOBI, period=p, v=v, a=a)
    return OperatorSpec(kind=OperatorKind.SCHRODINGER, period=p, v=v)


@pytest.mark.parametrize("seed", [0, 7, 99, 2**64])
def test_suite_specs_match_numpy(seed):
    ours, ref = Generator(seed), np.random.default_rng(seed)
    assert [cli._random_spec(ours) for _ in range(100)] == [numpy_spec(ref) for _ in range(100)]


def test_random_suite_does_not_import_numpy_random(tmp_path):
    code = (
        "import sys\n"
        "from borg_spectra import cli\n"
        "code = cli.main(['borg', '--random', '3', '--out', sys.argv[1]])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "borg_random.json").exists()
