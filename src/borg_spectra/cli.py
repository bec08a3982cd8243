"""Command-line front end: parse operator specs, run the pipelines, and
emit CSV / JSON / SVG artifacts.

Subcommands: spectrum, pseudospectrum, borg, mathieu, oracle.  Each one
computes its results and returns its artifacts, an ordered table from file
name to a builder of that file's text.  Each command declares its suffixes,
so a `--format` that selects none of them is refused before it runs; `main`
keeps the names whose suffix `--format` selects, builds every selected text
and only then writes them.
Exit codes: 0 on success, 2 on bad input, 3 when a check command hits a
theorem-hypothesis violation.  All CSV/JSON output is deterministic for a
fixed seed; files are written atomically (temp file + rename).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, is_dataclass
from enum import Enum
from functools import partial
from itertools import chain, zip_longest
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__, spectra
from .borg import (
    BorgReport,
    check_epsilon,
    converse_from_spectrum,
    converse_threshold,
    forward_from_spectrum,
)
from .errors import (
    BorgSpectraError,
    HypothesisViolationError,
    InvalidParameterError,
    InvalidSpecError,
)
from .mathieu import approximant_sweep
from .oracle import truncation_compare
from .render import pseudospectrum_svg, spectrum_svg, stacked_svg
from .spectra import (
    DEFAULT_GRID,
    BandTable,
    band_table,
    compute_spectrum,
    connectivity,
    pseudospectrum_intervals,
)
from .symbols import OperatorKind, OperatorSpec, _integer
from .util import atomic_write_text

if TYPE_CHECKING:
    from ._rng import Generator

FORMATS = ("csv", "json", "svg")
# peak bytes per bands.csv row while `spectrum` builds and writes it, table
# included: 158-172 at period 1 (N = 1e6 and 2.5e5) and 95 at period 5
# (N = 2e5), by peak RSS (Python 3.11, numpy 2.4, x86-64 Linux).  The peak
# is the joined text beside its blocks, or at small periods one band's row
# strings and the theta reprs beside the blocks.  The budget adds 12% to the
# largest
_BANDS_CSV_ROW_BYTES = 195
# peak bytes per `borg --random` instance, its reports and JSON included:
# 5.4-5.5 KB from 1,000 to 16,000 instances by peak RSS (5.5-5.6 KB when the
# specs were drawn through numpy); the budget adds 12% to 5.6 KB
_RANDOM_INSTANCE_BYTES = 6300

Artifacts = dict[str, Callable[[], str]]  # file name -> builder of its text


def _load_spec(value: str) -> OperatorSpec:
    """Accept either a path to a JSON spec or inline JSON (an object, or any
    value starting with `[`, which the spec parser then rejects)."""
    text = value
    if not value.lstrip().startswith(("{", "[")):
        path = Path(value)
        if not path.exists():
            raise InvalidSpecError(f"spec file not found: {value}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise InvalidSpecError(f"spec file {value} is not UTF-8: {exc}") from None
    return OperatorSpec.from_json(text)


def _cells(column: Iterable) -> list[str]:
    """One CSV column as text, by the rule every CSV artifact shares:
    repr for floats, str for ints, empty for None."""
    return ["" if x is None else repr(x) if isinstance(x, float) else str(x) for x in column]


def _rows(*columns: Iterable) -> Iterator[str]:
    """CSV lines of equal-length columns of Python scalars."""
    return map(",".join, zip(*map(_cells, columns)))


def _csv(header: Sequence[str], lines: Iterable[str]) -> str:
    """The version comment, the header and the body lines, newline-terminated
    (the empty last item puts the final newline in the one joined copy)."""
    return "\n".join([f"# borg-spectra {__version__}", ",".join(header), *lines, ""])


def _bands_csv(table: BandTable) -> str:
    """bands.csv: (theta, band_index, lambda) rows over the whole N-point
    grid, band by band, band_index counting from 1.  The table holds the
    [0, pi] half and every band is even, so the row of each negative theta
    is "-" followed by the row of its mirror: every point but 0 and pi.
    Each value (a float) is formatted once, and rows are built by joins
    into two blocks per band; only the blocks meet the final join."""
    thetas = list(map(repr, table.grid.tolist()))
    first = 1 if table.grid[0] == 0.0 else 0  # even N: theta = 0 has no mirror
    blocks = []
    for j, band in enumerate(table.bands, start=1):
        rows = list(map(f",{j},".join, zip(thetas, map(repr, band.tolist()))))
        mirrored = rows[first:-1][::-1]
        if mirrored:
            blocks.append("-" + "\n-".join(mirrored))
        blocks.append("\n".join(rows))
        del rows, mirrored  # freed before the next band's rows are built
    del thetas
    return _csv(("theta", "band_index", "lambda"), blocks)


def _record(obj) -> dict | str:
    """The `json.dumps` hook: a record (a dataclass) is its fields in
    declaration order, None fields and arrays left out (arrays go to CSV,
    never to JSON), and an Enum is its value."""
    if isinstance(obj, Enum):
        return obj.value
    if not is_dataclass(obj):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    values = ((f.name, getattr(obj, f.name)) for f in fields(obj))
    return {
        name: value
        for name, value in values
        if value is not None and not isinstance(value, np.ndarray)
    }


def _omit(record: dict, *names: str) -> dict:
    return {name: value for name, value in record.items() if name not in names}


def _json_text(obj: dict) -> str:
    return json.dumps({"version": __version__, **obj}, indent=2, default=_record) + "\n"


def cmd_spectrum(args: argparse.Namespace) -> Artifacts:
    table = band_table(args.spec, args.grid)
    spectrum = table.spectrum
    title = f"spectrum: {args.spec.kind.value}, period {args.spec.period}, grid {args.grid}"
    return {
        "spectrum.json": lambda: _json_text({
            **_record(spectrum),
            "gap_report": {"gaps": spectrum.gaps, "epsilon_star": spectrum.epsilon_star},
        }),
        "bands.csv": partial(_bands_csv, table),
        "spectrum.svg": partial(spectrum_svg, spectrum, title),
    }


def cmd_pseudospectrum(args: argparse.Namespace) -> Artifacts:
    spectrum = compute_spectrum(args.spec, args.grid)
    epsilon_star = spectrum.epsilon_star  # the operator's, not the fattening's
    artifacts: Artifacts = {}
    for eps in args.epsilon:
        verdict = {"epsilon": eps, "connected": connectivity(spectrum, eps),
                   "epsilon_star": epsilon_star}
        fattened = _record(pseudospectrum_intervals(spectrum, eps))
        tag = repr(float(eps))
        title = f"pseudospectrum at eps={tag}: {args.spec.kind.value}, period {args.spec.period}"
        artifacts[f"pseudospectrum_{tag}.json"] = partial(_json_text, {**verdict, **fattened})
        artifacts[f"pseudospectrum_{tag}.svg"] = partial(pseudospectrum_svg, spectrum, eps, title)
    return artifacts


def _random_spec(rng: Generator) -> OperatorSpec:
    p = rng.integers(2, 9)
    v = tuple(rng.uniform(-1.0, 1.0, p))
    if rng.integers(0, 2) == 1:
        a = tuple(rng.uniform(0.5, 2.0, p))
        return OperatorSpec(kind=OperatorKind.JACOBI, period=p, v=v, a=a)
    return OperatorSpec(kind=OperatorKind.SCHRODINGER, period=p, v=v)


def _random_suite(args: argparse.Namespace) -> dict:
    # imported here, not by `import borg_spectra.cli`, which every command
    # runs: without cached bytecode, compiling it costs about 1 ms
    from ._rng import Generator

    rng = Generator(args.seed)
    reports = []
    for _ in range(args.random):
        spec = _random_spec(rng)
        spectrum = compute_spectrum(spec)
        # a true gap: check forward at the least certified radius
        if args.check in ("forward", "both") and spectrum.gaps:
            reports.append(forward_from_spectrum(spec, spectrum, spectrum.epsilon_star))
        dev = converse_threshold(spec)
        if args.check in ("converse", "both") and dev > 0.0:
            reports.append(converse_from_spectrum(spec, spectrum, dev))
    return {
        "seed": args.seed,
        "instances": args.random,
        "violations": sum(not r.satisfied for r in reports),
        "reports": reports,
    }


def cmd_borg(args: argparse.Namespace) -> Artifacts:
    if args.random is not None:
        return {"borg_random.json": partial(_json_text, _random_suite(args))}
    spectrum = compute_spectrum(args.spec, args.grid)
    reports: list[BorgReport] = []
    for eps in args.epsilon:
        if args.check in ("forward", "both"):
            reports.append(forward_from_spectrum(args.spec, spectrum, eps))
        if args.check in ("converse", "both"):
            if (
                args.spec.kind is OperatorKind.LAURENT_GENERAL
                and args.check == "both"
            ):
                continue  # no converse exists; only fail when asked explicitly
            reports.append(converse_from_spectrum(args.spec, spectrum, eps))
    return {"borg.json": partial(_json_text, {"reports": reports})}


def cmd_mathieu(args: argparse.Namespace) -> Artifacts:
    sweep = approximant_sweep(
        args.alpha, args.count, epsilons=args.epsilon, coupling=args.coupling
    )
    reports = sweep.reports
    records = [
        {
            **_record(rep.convergent),
            "period": rep.spec.period,
            **_omit(_record(rep), "convergent", "spec", "spectrum"),
            **_record(rep.spectrum),
        }
        for rep in reports
    ]
    # a CSV row: the record and its distance to the next spectrum (None on the last)
    csv_rows = [{**rec, "d_H_to_next": d} for rec, d in zip_longest(records, sweep.hausdorff_next)]
    columns = ("b", "period", "gap_count", "epsilon_star", "d_H_to_next", "unresolved_gaps")
    rows = [(f"{rep.convergent.a}/{rep.convergent.b}", rep.spectrum) for rep in reports]
    title = f"approximant spectra, alpha={args.alpha!r}, coupling={args.coupling!r}"
    return {
        "mathieu_sweep.csv": lambda: _csv(
            columns, _rows(*([row[key] for row in csv_rows] for key in columns))
        ),
        "mathieu_sweep.json": lambda: _json_text(
            {**_omit(_record(sweep), "reports"), "approximants": records}
        ),
        "mathieu_sweep.svg": partial(stacked_svg, rows, title),
    }


def cmd_oracle(args: argparse.Namespace) -> Artifacts:
    comparison = truncation_compare(args.spec, args.blocks or [4, 16, 64], args.grid)
    return {
        "oracle.csv": lambda: _csv(
            ("n", "eigenvalue_index", "eigenvalue", "dist_to_symbol_spectrum"),
            chain.from_iterable(
                _rows(
                    [row.blocks] * len(row.eigenvalues),
                    range(1, len(row.eigenvalues) + 1),
                    row.eigenvalues.tolist(),
                    row.distances.tolist(),
                )
                for row in comparison.rows
            ),
        ),
        "oracle.json": lambda: _json_text(_record(comparison)),
    }


# each command and the suffixes of the artifacts it returns, known before it runs
_COMMANDS = {
    "spectrum": (cmd_spectrum, ("json", "csv", "svg")),
    "pseudospectrum": (cmd_pseudospectrum, ("json", "svg")),
    "borg": (cmd_borg, ("json",)),
    "mathieu": (cmd_mathieu, ("csv", "json", "svg")),
    "oracle": (cmd_oracle, ("csv", "json")),
}


class _Parser(argparse.ArgumentParser):
    """Option errors exit 2 with one line, like every other refused input
    (subparsers are made of the same class)."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="borg-spectra",
        description="Band spectra, pseudospectra, and gap certificates of "
        "periodic discrete Schrodinger / Jacobi / block Laurent operators.",
    )
    parser.add_argument("--version", action="version", version=f"borg-spectra {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, spec: bool = True) -> None:
        if spec:
            p.add_argument("--spec", required=False, help="path to a JSON operator spec, or an inline JSON object")
        p.add_argument(
            "--grid",
            type=int,
            default=None,
            help=f"theta grid size N (default {DEFAULT_GRID}). Schrodinger/Jacobi band edges sit "
            "at theta = 0 and pi, so an even N samples them exactly and pads them by "
            "the eigensolver bound only; an odd N, or a Laurent spec, pads them by "
            "L*pi/N plus that bound. Bands are even in theta, so only the N//2 + 1 "
            "points in [0, pi] are solved and bands.csv mirrors them onto the negative half. "
            "N is used by Laurent spectra and by the spectrum command's band table; "
            "other Schrodinger/Jacobi spectra take their edges from theta in {0, pi} alone",
        )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", default="csv,json,svg", help="comma-separated subset of csv,json,svg")

    p_spec = sub.add_parser("spectrum", help="band table and spectrum intervals")
    common(p_spec)

    p_pseudo = sub.add_parser("pseudospectrum", help="epsilon-fattened spectrum and gap report")
    common(p_pseudo)
    p_pseudo.add_argument("--epsilon", type=float, action="append", default=[], help="fattening radius (repeatable)")

    p_borg = sub.add_parser("borg", help="forward/converse deviation certificates")
    common(p_borg)
    p_borg.add_argument("--seed", type=int, default=None, help="seed for --random (default 0)")
    p_borg.add_argument("--epsilon", type=float, action="append", default=[], help="certificate epsilon (repeatable)")
    p_borg.add_argument("--check", choices=("forward", "converse", "both"), default="both")
    p_borg.add_argument("--random", type=int, default=None, metavar="COUNT", help="run a seeded randomized certificate suite instead")

    p_mat = sub.add_parser("mathieu", help="continued-fraction approximant sweep")
    common(p_mat, spec=False)
    p_mat.add_argument("--alpha", type=float, required=True, help="target frequency")
    p_mat.add_argument("--count", type=int, default=5, help="number of convergents")
    p_mat.add_argument("--coupling", type=float, default=1.0, help="cosine coupling strength")
    p_mat.add_argument("--epsilon", type=float, action="append", default=[], help="also report pseudospectrum connectivity at this epsilon (repeatable)")

    p_oracle = sub.add_parser("oracle", help="finite truncations vs. the symbol spectrum")
    common(p_oracle)
    p_oracle.add_argument("--blocks", type=int, action="append", default=[], help="truncation block count (repeatable; default 4 16 64)")

    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Make the checks that argparse and the library leave to the front end, parsing
    `--spec` into an OperatorSpec and `--format` into a tuple.  All of them run before
    anything is solved: a `--format` naming none of the command's suffixes, a `bands.csv`
    or a `--random` count over the byte budget, a `borg` option its mode never reads
    (`--spec`, `--epsilon` and `--grid` with `--random`, `--seed` without it), and a
    missing `--epsilon` where the command reads one, are refused."""
    if getattr(args, "random", None) is not None:
        for option in ("--spec", "--epsilon", "--grid"):
            if getattr(args, option[2:]) not in (None, []):
                raise InvalidParameterError(f"borg --random draws its own specs and radii; drop {option}")
        args.seed = _integer(0 if args.seed is None else args.seed, "--seed", 0)
        _integer(args.random, "--random", 1)
        spectra.check_bytes(args.random * _RANDOM_INSTANCE_BYTES, f"--random {args.random}")
    elif getattr(args, "seed", None) is not None:
        raise InvalidParameterError("--seed is read by borg --random alone")
    if getattr(args, "spec", None) is not None:
        args.spec = _load_spec(args.spec)
    elif args.command != "mathieu" and getattr(args, "random", None) is None:
        raise InvalidSpecError(f"{args.command} needs --spec")
    args.grid = _integer(DEFAULT_GRID if args.grid is None else args.grid, "--grid", 2)
    for eps in getattr(args, "epsilon", []):
        if getattr(args, "spec", None) is not None:
            check_epsilon(args.spec, eps)
        elif not 0.0 < eps < math.inf:
            raise InvalidParameterError(f"--epsilon must be finite and > 0, got {eps!r}")
    args.format = tuple(f.strip() for f in args.format.split(",") if f.strip())
    for fmt in args.format:
        if fmt not in FORMATS:
            raise InvalidParameterError(f"unknown format {fmt!r}")
    suffixes = _COMMANDS[args.command][1]
    if not set(args.format) & set(suffixes):
        raise InvalidParameterError(
            f"--format {','.join(args.format)!r} selects none of the {args.command} "
            f"formats {','.join(suffixes)}"
        )
    if args.command == "spectrum" and "csv" in args.format:
        spectra.check_bytes(
            args.grid * args.spec.period * _BANDS_CSV_ROW_BYTES,
            f"bands.csv at grid {args.grid} and period {args.spec.period}",
        )
    needs_epsilon = args.command == "pseudospectrum" or args.command == "borg" and args.random is None
    if needs_epsilon and not args.epsilon:
        raise InvalidParameterError(f"{args.command} needs at least one --epsilon")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        artifacts = _COMMANDS[args.command][0](args)
        # every selected text is built before the first write: a failing
        # builder leaves no partial artifact set
        texts = {
            name: build()
            for name, build in artifacts.items()
            if name.rpartition(".")[2] in args.format
        }
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            atomic_write_text(out_dir / name, text)
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except (BorgSpectraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in texts:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
