"""Fuzzing the spec parser and the CLI with arbitrary JSON and options.

Any JSON value given as a spec must either parse into an OperatorSpec or be
refused with a BorgSpectraError; through the CLI, with any spec and any
well-typed options of any subcommand, it must exit 0, 2 or 3 with at most
one line of error, and every JSON artifact it writes must hold finite
numbers only.  Sizes stay small: periods up to 4, and every size option
either small or far over its limit, so that it is refused before anything
is allocated.
"""
from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from borg_spectra import BorgSpectraError, InvalidSpecError, OperatorSpec
from borg_spectra.cli import main

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([1e308, -1e308, 5e-324, 10**400])
    | st.text(max_size=6)
)
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
FINITE = st.floats(-3.0, 3.0)


FIELDS = ("kind", "period", "v", "a", "fourier")
BREAKS = (None, *FIELDS, "entry", "extra", "misplaced")


@st.composite
def spec_like(draw, breaks=BREAKS) -> dict:
    """A valid spec object, then maybe broken by one of `breaks`: one field
    or one entry replaced, an unknown key added, or the field of another
    kind added (`fourier` on a tridiagonal spec, `a` on a Laurent one)."""
    kind = draw(st.sampled_from(["schrodinger", "jacobi", "laurent"]))
    period = draw(st.integers(1, 4))
    v = draw(st.lists(FINITE, min_size=period, max_size=period))
    data = {"kind": kind, "period": period, "v": sorted(v) if kind == "laurent" else v}
    if kind == "jacobi":
        data["a"] = draw(st.lists(st.floats(0.1, 3.0), min_size=period, max_size=period))
    if kind == "laurent":
        index = st.integers(-4, 4) | st.sampled_from([2**62, -(2**62), 10**30])
        pairs = st.tuples(index, FINITE).map(list)
        data["fourier"] = draw(st.lists(pairs, min_size=1, max_size=3))
    broken = draw(st.sampled_from(breaks))
    if broken == "entry":
        entries = data.get("fourier") or data["v"]
        entries[draw(st.integers(0, len(entries) - 1))] = draw(ANY_JSON)
    elif broken == "extra":
        data[draw(st.text(max_size=6).filter(lambda key: key not in FIELDS))] = draw(ANY_JSON)
    elif broken == "misplaced":
        if kind == "laurent":
            data["a"] = [1.0] * period
        else:
            data["fourier"] = [[1, draw(FINITE)]]
    elif broken is not None:
        data[broken] = draw(ANY_JSON)
    return data


SPECS = spec_like() | ANY_JSON


def _finite_only(text: str) -> None:
    def refuse(constant):
        raise AssertionError(f"non-finite {constant} in a JSON artifact")

    json.loads(text, parse_constant=refuse)


@given(SPECS)
@settings(max_examples=150, deadline=None)
def test_from_dict_returns_a_spec_or_refuses(data):
    try:
        spec = OperatorSpec.from_dict(data)
    except BorgSpectraError:
        return
    assert isinstance(spec, OperatorSpec)
    assert all(math.isfinite(x) for x in spec.v)


@given(spec_like(breaks=(None,)))
@settings(max_examples=100, deadline=None)
def test_valid_spec_round_trips(data):
    spec = OperatorSpec.from_dict(data)
    assert OperatorSpec.from_dict(spec.to_dict()) == spec


@given(spec_like(breaks=("extra", "misplaced")))
@settings(max_examples=50, deadline=None)
def test_unknown_or_misplaced_field_refused(data):
    with pytest.raises(InvalidSpecError):
        OperatorSpec.from_dict(data)


@given(spec_like() | st.dictionaries(st.text(max_size=6), ANY_JSON, max_size=4))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exits_cleanly_on_any_spec(tmp_path_factory, capsys, data):
    out = tmp_path_factory.mktemp("fuzz")
    code = main(["spectrum", "--spec", json.dumps(data), "--grid", "8",
                 "--out", str(out), "--format", "json,csv"])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert err.count("\n") <= 1 and "Traceback" not in err
    if code == 0:
        _finite_only((out / "spectrum.json").read_text())
    else:
        assert not list(out.iterdir())


def _option(name: str, values) -> st.SearchStrategy:
    """`--name=value` (the `=` keeps a value such as -inf from reading as a
    flag), or nothing."""
    return st.none() | values.map(
        lambda x: f"--{name}={x!r}" if isinstance(x, float) else f"--{name}={x}")


ANY_FLOAT = st.floats(0.01, 2.0) | st.floats() | st.sampled_from([1e308, -1e308, 5e-324, -0.0])
SMALL_OR_HUGE = st.integers(-2, 9) | st.sampled_from([10**9, 2**62, 10**30])
# convergent denominators of these stay below 120 for --count <= 6, or are
# refused (pi at --count 5 reaches 33102); 1e-9, 1e-310 and 5e-324 have no
# convergent at all
ALPHAS = st.sampled_from([
    (math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0), math.pi, math.e, 0.5, 0.0, -0.25,
    1.0 / 7.0, 1e-6, 1e-9, 1e-310, 5e-324, 1e300, math.nan, math.inf, -math.inf,
])
FORMATS = st.sampled_from(["json", "csv,json", "json,svg"]) | st.lists(
    st.sampled_from(["csv", "json", "svg", "tsv", "", " json "]), max_size=4).map(",".join)
COMMANDS = {
    "spectrum": [],
    "pseudospectrum": [_option("epsilon", ANY_FLOAT)] * 2,
    "borg": [_option("epsilon", ANY_FLOAT), _option("random", SMALL_OR_HUGE),
             _option("seed", st.integers(-2, 3) | st.just(2**64 + 1)),
             _option("check", st.sampled_from(["forward", "converse", "both"]))],
    "mathieu": [ALPHAS.map(lambda alpha: f"--alpha={alpha!r}"),  # required
                _option("count", st.integers(-1, 6)),
                _option("coupling", ANY_FLOAT), _option("epsilon", ANY_FLOAT)],
    "oracle": [_option("blocks", SMALL_OR_HUGE)] * 2,
}


@st.composite
def cli_argv(draw, command: str) -> list[str]:
    argv = [command]
    if command != "mathieu" and draw(st.integers(0, 9)):
        argv.append("--spec=" + json.dumps(draw(spec_like(breaks=(None,)))))
    options = COMMANDS[command] + [_option("grid", SMALL_OR_HUGE), _option("format", FORMATS)]
    argv += [arg for arg in (draw(opt) for opt in options) if arg is not None]
    return argv


@pytest.mark.parametrize("command", sorted(COMMANDS))
@given(data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_exits_cleanly_on_any_options(tmp_path_factory, capsys, command, data):
    argv = data.draw(cli_argv(command))
    out = tmp_path_factory.mktemp("fuzz")
    capsys.readouterr()  # the fixture spans every example
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert err.count("\n") <= 1 and "Traceback" not in err
    if code == 0:
        for path in out.glob("*.json"):
            _finite_only(path.read_text())
    else:
        assert not list(out.iterdir())
