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
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
    RealSpectrum,
    band_table,
    compute_spectrum,
    gap_report,
    pseudospectrum_intervals,
    spectrum_intervals,
)
from .symbols import OperatorKind, OperatorSpec
from .util import atomic_write_text

FORMATS = ("csv", "json", "svg")
# peak bytes per bands.csv row while `spectrum` builds and writes it, table
# included: 223-231 at period 1 (N = 1e6 and 2.5e5) and 124-126 at period 5
# (N = 2e5), by peak RSS (Python 3.11, numpy 2.4, x86-64 Linux); the budget
# adds 12% to the largest
_BANDS_CSV_ROW_BYTES = 260
# peak bytes per `borg --random` instance, its reports and JSON included:
# 5.5-5.6 KB from 1,000 to 16,000 instances by peak RSS; the budget adds 12%
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
        text = path.read_text()
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
    is "-" followed by the row of its mirror: every point but 0 and pi."""
    thetas = _cells(table.grid.tolist())
    first = 1 if table.grid[0] == 0.0 else 0  # even N: theta = 0 has no mirror
    blocks = []
    for j, band in enumerate(table.bands, start=1):
        mid = f",{j},"
        rows = [t + mid + lam for t, lam in zip(thetas, _cells(band.tolist()))]
        blocks.append("\n".join(["-" + row for row in rows[first:-1][::-1]] + rows))
    return _csv(("theta", "band_index", "lambda"), blocks)


def _json_text(obj: dict) -> str:
    return json.dumps({"version": __version__, **obj}, indent=2) + "\n"


def _spectrum_json(spectrum: RealSpectrum) -> dict:
    return {
        "intervals": [[lo, hi] for lo, hi in spectrum.intervals],
        "resolution_error": spectrum.resolution_error,
    }


def _report_json(report: BorgReport) -> dict:
    out = {
        "theorem": report.theorem.value,
        "epsilon": report.epsilon,
        "best_c": report.best_c,
        "deviation": report.deviation,
        "bound": report.bound,
        "satisfied": report.satisfied,
        "margin": report.margin,
        "hypothesis_met": report.hypothesis_met,
        "connected": report.connected,
        "epsilon_star": report.epsilon_star,
    }
    if report.a_deviation is not None:
        out["a_deviation"] = report.a_deviation
    return out


def _spectrum_file(spectrum: RealSpectrum, **head) -> str:
    """A spectrum's JSON artifact: `head`, the intervals and the gap report."""
    report = gap_report(spectrum)
    gaps = {
        "connected": report.connected,
        "gaps": [list(g) for g in report.gaps],
        "epsilon_star": report.epsilon_star,
    }
    return _json_text({**head, **_spectrum_json(spectrum), "gap_report": gaps})


def cmd_spectrum(args: argparse.Namespace) -> Artifacts:
    table = band_table(args.spec, args.grid)
    spectrum = spectrum_intervals(table)
    title = f"spectrum: {args.spec.kind.value}, period {args.spec.period}, grid {args.grid}"
    return {
        "spectrum.json": partial(_spectrum_file, spectrum),
        "bands.csv": partial(_bands_csv, table),
        "spectrum.svg": partial(spectrum_svg, spectrum, title),
    }


def cmd_pseudospectrum(args: argparse.Namespace) -> Artifacts:
    if not args.epsilon:
        raise InvalidParameterError("pseudospectrum needs at least one --epsilon")
    spectrum = compute_spectrum(args.spec, args.grid)
    artifacts: Artifacts = {}
    for eps in args.epsilon:
        fattened = pseudospectrum_intervals(spectrum, eps)
        tag = repr(float(eps))
        title = f"pseudospectrum at eps={tag}: {args.spec.kind.value}, period {args.spec.period}"
        artifacts[f"pseudospectrum_{tag}.json"] = partial(_spectrum_file, fattened, epsilon=eps)
        artifacts[f"pseudospectrum_{tag}.svg"] = partial(pseudospectrum_svg, spectrum, eps, title)
    return artifacts


def _random_spec(rng: np.random.Generator) -> OperatorSpec:
    p = int(rng.integers(2, 9))
    v = tuple(rng.uniform(-1.0, 1.0, size=p))
    if int(rng.integers(0, 2)) == 1:
        a = tuple(rng.uniform(0.5, 2.0, size=p))
        return OperatorSpec(kind=OperatorKind.JACOBI, period=p, v=v, a=a)
    return OperatorSpec(kind=OperatorKind.SCHRODINGER, period=p, v=v)


def _random_suite(args: argparse.Namespace) -> dict:
    rng = np.random.default_rng(args.seed)
    reports = []
    violations = 0
    for _ in range(args.random):
        spec = _random_spec(rng)
        spectrum = compute_spectrum(spec, args.grid)
        star = gap_report(spectrum).epsilon_star
        if star > 0.0:
            fwd = forward_from_spectrum(spec, spectrum, star)
            reports.append(_report_json(fwd))
            violations += 0 if fwd.satisfied else 1
        dev = converse_threshold(spec)
        if dev > 0.0:
            con = converse_from_spectrum(spec, spectrum, dev)
            reports.append(_report_json(con))
            violations += 0 if con.satisfied else 1
    return {
        "seed": args.seed,
        "instances": args.random,
        "violations": violations,
        "reports": reports,
    }


def cmd_borg(args: argparse.Namespace) -> Artifacts:
    if args.random is not None:
        return {"borg_random.json": partial(_json_text, _random_suite(args))}
    if not args.epsilon:
        raise InvalidParameterError("borg needs at least one --epsilon")
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
    payload = {"reports": [_report_json(r) for r in reports]}
    return {"borg.json": partial(_json_text, payload)}


def cmd_mathieu(args: argparse.Namespace) -> Artifacts:
    sweep = approximant_sweep(
        args.alpha, args.count, epsilons=args.epsilon, coupling=args.coupling
    )
    reports = sweep.reports
    rows = [(f"{rep.convergent.a}/{rep.convergent.b}", rep.spectrum) for rep in reports]
    title = f"approximant spectra, alpha={args.alpha!r}, coupling={args.coupling!r}"
    return {
        "mathieu_sweep.csv": lambda: _csv(
            ("b", "period", "gap_count", "epsilon_star", "d_H_to_next"),
            _rows(
                [rep.convergent.b for rep in reports],
                [rep.period for rep in reports],
                [rep.gap_count for rep in reports],
                [rep.epsilon_star for rep in reports],
                list(sweep.hausdorff_next) + [None] * (len(reports) - len(sweep.hausdorff_next)),
            ),
        ),
        "mathieu_sweep.json": lambda: _json_text({
            "alpha": sweep.alpha,
            "coupling": sweep.coupling,
            "truncated": sweep.truncated,
            "hausdorff_next": list(sweep.hausdorff_next),
            "potential_sup_next": list(sweep.potential_sup_next),
            "approximants": [
                {
                    "a": rep.convergent.a,
                    "b": rep.convergent.b,
                    "period": rep.period,
                    "gap_count": rep.gap_count,
                    "epsilon_star": rep.epsilon_star,
                    "potential_distance": rep.potential_distance,
                    "potential_distance_bound": rep.potential_distance_bound,
                    "pseudo_connected": {
                        repr(k): v for k, v in rep.pseudo_connected.items()
                    },
                    **_spectrum_json(rep.spectrum),
                }
                for rep in reports
            ],
        }),
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
        "oracle.json": lambda: _json_text({
            "spectrum": _spectrum_json(comparison.spectrum),
            "rows": [
                {
                    "blocks": row.blocks,
                    "size": row.size,
                    "one_sided": row.one_sided,
                    "hausdorff": row.hausdorff,
                }
                for row in comparison.rows
            ],
        }),
    }


# each command and the suffixes of the artifacts it returns, known before it runs
_COMMANDS = {
    "spectrum": (cmd_spectrum, ("json", "csv", "svg")),
    "pseudospectrum": (cmd_pseudospectrum, ("json", "svg")),
    "borg": (cmd_borg, ("json",)),
    "mathieu": (cmd_mathieu, ("csv", "json", "svg")),
    "oracle": (cmd_oracle, ("csv", "json")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
            default=DEFAULT_GRID,
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
    p_borg.add_argument("--seed", type=int, default=0, help="seed for randomized modes")
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
    """Make the checks that argparse and the library leave to the front end,
    parsing `--spec` into an OperatorSpec and `--format` into a tuple.  All
    of them run before anything is solved: a `--format` naming none of the
    command's suffixes, and a `bands.csv` or a `--random` count over the byte
    budget, are refused."""
    if getattr(args, "spec", None) is not None:
        args.spec = _load_spec(args.spec)
    elif args.command != "mathieu" and getattr(args, "random", None) is None:
        raise InvalidSpecError(f"{args.command} needs --spec")
    if args.grid < 2:
        raise InvalidParameterError(f"--grid must be an integer >= 2, got {args.grid!r}")
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
        needed = args.grid * args.spec.period * _BANDS_CSV_ROW_BYTES
        if needed > spectra.BYTE_BUDGET:
            raise InvalidParameterError(
                f"bands.csv at grid {args.grid} and period {args.spec.period} needs about "
                f"{needed / 2**30:.1f} GiB, over the {spectra.BYTE_BUDGET / 2**30:g} GiB budget"
            )
    limit = spectra.BYTE_BUDGET // _RANDOM_INSTANCE_BYTES  # instances the budget admits
    if getattr(args, "random", None) is not None and not 1 <= args.random <= limit:
        raise InvalidParameterError(f"--random must be in 1..{limit}, got {args.random!r}")
    if getattr(args, "seed", 0) < 0:
        raise InvalidParameterError(f"--seed must be >= 0, got {args.seed!r}")


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


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
