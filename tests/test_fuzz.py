"""Fuzzing the spec parser and the CLI with arbitrary JSON.

Any JSON value given as a spec must either parse into an OperatorSpec or be
refused with a BorgSpectraError; through the CLI it must exit 0, 2 or 3
with at most one line of error, and every JSON artifact it writes must hold
finite numbers only.  Sizes stay small: periods up to 4 and grids of 8.
"""
from __future__ import annotations

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from borg_spectra import BorgSpectraError, OperatorSpec
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


@st.composite
def spec_like(draw) -> dict:
    """A valid spec object, then maybe broken at one field or one entry."""
    kind = draw(st.sampled_from(["schrodinger", "jacobi", "laurent"]))
    period = draw(st.integers(1, 4))
    v = draw(st.lists(FINITE, min_size=period, max_size=period))
    data = {"kind": kind, "period": period, "v": sorted(v) if kind == "laurent" else v}
    if kind == "jacobi":
        data["a"] = draw(st.lists(st.floats(0.1, 3.0), min_size=period, max_size=period))
    if kind == "laurent":
        pairs = st.tuples(st.integers(-4, 4), FINITE).map(list)
        data["fourier"] = draw(st.lists(pairs, min_size=1, max_size=3))
    broken = draw(st.sampled_from([None, "kind", "period", "v", "a", "fourier", "entry"]))
    if broken == "entry":
        entries = data.get("fourier") or data["v"]
        entries[draw(st.integers(0, len(entries) - 1))] = draw(ANY_JSON)
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
