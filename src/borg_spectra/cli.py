"""Command-line front end: parse operator specs, run the pipelines, and
emit CSV / JSON / SVG artifacts.

Subcommands: spectrum, pseudospectrum, borg, mathieu, oracle.
Exit codes: 0 on success, 2 on bad input, 3 when a check command hits a
theorem-hypothesis violation.  All CSV/JSON output is deterministic for a
fixed seed; files are written atomically (temp file + rename).
"""
from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .borg import (
    BorgReport,
    best_constant,
    converse_from_spectrum,
    forward_from_spectrum,
    report_json_dict,
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
    BandTable,
    RealSpectrum,
    band_table,
    compute_spectrum,
    gap_report,
    pseudospectrum_intervals,
    spectrum_intervals,
    spectrum_json_dict,
)
from .symbols import OperatorKind, OperatorSpec
from .util import atomic_write_text

FORMATS = ("csv", "json", "svg")


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
    """The version comment, the header and the body lines, newline-terminated."""
    return "\n".join([f"# borg-spectra {__version__}", ",".join(header), *lines]) + "\n"


def _bands_csv(table: BandTable) -> str:
    """bands.csv: (theta, band_index, lambda) rows, band by band, band_index
    counting from 1; each theta is formatted once and reused for every band."""
    thetas = _cells(table.grid.tolist())
    blocks = []
    for j, band in enumerate(table.bands, start=1):
        mid = f",{j},"
        blocks.append("\n".join([t + mid + lam for t, lam in zip(thetas, _cells(band.tolist()))]))
    return _csv(("theta", "band_index", "lambda"), blocks)


def _json_text(obj: dict) -> str:
    return json.dumps({"version": __version__, **obj}, indent=2) + "\n"


def _gap_report_json(spectrum: RealSpectrum) -> dict:
    report = gap_report(spectrum)
    return {
        "connected": report.connected,
        "gaps": [list(g) for g in report.gaps],
        "epsilon_star": report.epsilon_star,
    }


def _write(args: argparse.Namespace, name: str, text: str, paths: list[Path]) -> None:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    atomic_write_text(path, text)
    paths.append(path)


def cmd_spectrum(args: argparse.Namespace) -> list[Path]:
    table = band_table(args.spec, 0, args.grid)
    spectrum = spectrum_intervals(table)
    paths: list[Path] = []
    if "json" in args.format:
        payload = spectrum_json_dict(spectrum)
        payload["gap_report"] = _gap_report_json(spectrum)
        _write(args, "spectrum.json", _json_text(payload), paths)
    if "csv" in args.format:
        _write(args, "bands.csv", _bands_csv(table), paths)
    if "svg" in args.format:
        title = f"spectrum: {args.spec.kind.value}, period {args.spec.period}, grid {args.grid}"
        _write(args, "spectrum.svg", spectrum_svg(spectrum, title, __version__), paths)
    return paths


def cmd_pseudospectrum(args: argparse.Namespace) -> list[Path]:
    if not args.epsilon:
        raise InvalidParameterError("pseudospectrum needs at least one --epsilon")
    spectrum = compute_spectrum(args.spec, args.grid)
    paths: list[Path] = []
    for eps in args.epsilon:
        fattened = pseudospectrum_intervals(spectrum, eps)
        tag = repr(float(eps))
        if "json" in args.format:
            payload = {
                "epsilon": eps,
                "intervals": [[lo, hi] for lo, hi in fattened.intervals],
                "resolution_error": fattened.resolution_error,
                "gap_report": _gap_report_json(fattened),
            }
            _write(args, f"pseudospectrum_{tag}.json", _json_text(payload), paths)
        if "svg" in args.format:
            title = (
                f"pseudospectrum at eps={tag}: {args.spec.kind.value}, "
                f"period {args.spec.period}"
            )
            _write(
                args,
                f"pseudospectrum_{tag}.svg",
                pseudospectrum_svg(spectrum, eps, title, __version__),
                paths,
            )
    return paths


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
            reports.append(report_json_dict(fwd))
            violations += 0 if fwd.satisfied else 1
        dev = best_constant(spec.v)[1]
        if spec.kind is OperatorKind.JACOBI:
            a_dev = best_constant(spec.a)[1]
            dev = max(dev, a_dev, (dev + 2.0 * a_dev) / 2.0)
        if dev > 0.0:
            con = converse_from_spectrum(spec, spectrum, dev)
            reports.append(report_json_dict(con))
            violations += 0 if con.satisfied else 1
    return {
        "seed": args.seed,
        "instances": args.random,
        "violations": violations,
        "reports": reports,
    }


def cmd_borg(args: argparse.Namespace) -> list[Path]:
    paths: list[Path] = []
    if args.random is not None:
        payload = _random_suite(args)
        _write(args, "borg_random.json", _json_text(payload), paths)
        return paths
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
    payload = {"reports": [report_json_dict(r) for r in reports]}
    _write(args, "borg.json", _json_text(payload), paths)
    return paths


def cmd_mathieu(args: argparse.Namespace) -> list[Path]:
    sweep = approximant_sweep(
        args.alpha, args.count, epsilons=args.epsilon, coupling=args.coupling
    )
    paths: list[Path] = []
    if "csv" in args.format:
        reports = sweep.reports
        lines = _rows(
            [rep.convergent.b for rep in reports],
            [rep.period for rep in reports],
            [rep.gap_count for rep in reports],
            [rep.epsilon_star for rep in reports],
            list(sweep.hausdorff_next) + [None] * (len(reports) - len(sweep.hausdorff_next)),
        )
        _write(
            args,
            "mathieu_sweep.csv",
            _csv(("b", "period", "gap_count", "epsilon_star", "d_H_to_next"), lines),
            paths,
        )
    if "json" in args.format:
        payload = {
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
                    "offbyone_discrepancy": rep.offbyone_discrepancy,
                    "gap_count": rep.gap_count,
                    "epsilon_star": rep.epsilon_star,
                    "potential_distance": rep.potential_distance,
                    "potential_distance_bound": rep.potential_distance_bound,
                    "pseudo_connected": {
                        repr(k): v for k, v in rep.pseudo_connected.items()
                    },
                    "intervals": [[lo, hi] for lo, hi in rep.spectrum.intervals],
                    "resolution_error": rep.spectrum.resolution_error,
                }
                for rep in sweep.reports
            ],
        }
        _write(args, "mathieu_sweep.json", _json_text(payload), paths)
    if "svg" in args.format:
        rows = [
            (f"{rep.convergent.a}/{rep.convergent.b}", rep.spectrum)
            for rep in sweep.reports
        ]
        title = f"approximant spectra, alpha={args.alpha!r}, coupling={args.coupling!r}"
        _write(args, "mathieu_sweep.svg", stacked_svg(rows, title, __version__), paths)
    return paths


def cmd_oracle(args: argparse.Namespace) -> list[Path]:
    comparison = truncation_compare(args.spec, args.blocks or [4, 16, 64], args.grid)
    paths: list[Path] = []
    if "csv" in args.format:
        lines = chain.from_iterable(
            _rows(
                [row.blocks] * len(row.eigenvalues),
                range(1, len(row.eigenvalues) + 1),
                row.eigenvalues.tolist(),
                row.distances.tolist(),
            )
            for row in comparison.rows
        )
        _write(
            args,
            "oracle.csv",
            _csv(
                ("n", "eigenvalue_index", "eigenvalue", "dist_to_symbol_spectrum"),
                lines,
            ),
            paths,
        )
    if "json" in args.format:
        payload = {
            "spectrum": spectrum_json_dict(comparison.spectrum),
            "rows": [
                {
                    "blocks": row.blocks,
                    "size": row.size,
                    "one_sided": row.one_sided,
                    "hausdorff": row.hausdorff,
                }
                for row in comparison.rows
            ],
        }
        _write(args, "oracle.json", _json_text(payload), paths)
    return paths


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "pseudospectrum": cmd_pseudospectrum,
    "borg": cmd_borg,
    "mathieu": cmd_mathieu,
    "oracle": cmd_oracle,
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
            default=1024,
            help="theta grid size N (default 1024). Schrodinger/Jacobi band edges sit "
            "at theta = 0 and pi, so an even N samples them exactly and pads them by "
            "the eigensolver bound only; an odd N, or a Laurent spec, pads them by "
            "L*pi/N. N is used by Laurent spectra and by the spectrum command's band "
            "table; other Schrodinger/Jacobi spectra take their edges from theta in "
            "{0, pi} alone",
        )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", default="csv,json,svg", help="comma-separated subset of csv,json,svg")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized modes")

    p_spec = sub.add_parser("spectrum", help="band table and spectrum intervals")
    common(p_spec)

    p_pseudo = sub.add_parser("pseudospectrum", help="epsilon-fattened spectrum and gap report")
    common(p_pseudo)
    p_pseudo.add_argument("--epsilon", type=float, action="append", default=[], help="fattening radius (repeatable)")

    p_borg = sub.add_parser("borg", help="forward/converse deviation certificates")
    common(p_borg)
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
    parsing `--spec` into an OperatorSpec and `--format` into a tuple."""
    if getattr(args, "spec", None) is not None:
        args.spec = _load_spec(args.spec)
    elif args.command != "mathieu" and getattr(args, "random", None) is None:
        raise InvalidSpecError(f"{args.command} needs --spec")
    if args.grid < 2:
        raise InvalidParameterError(f"--grid must be an integer >= 2, got {args.grid!r}")
    for eps in getattr(args, "epsilon", []):
        if not eps > 0.0:
            raise InvalidParameterError(f"--epsilon must be > 0, got {eps!r}")
    args.format = tuple(f.strip() for f in args.format.split(",") if f.strip())
    for fmt in args.format:
        if fmt not in FORMATS:
            raise InvalidParameterError(f"unknown format {fmt!r}")
    for n in getattr(args, "blocks", []):
        if n < 1:
            raise InvalidParameterError(f"--blocks must be integers >= 1, got {n!r}")
    if getattr(args, "random", None) is not None and args.random < 1:
        raise InvalidParameterError(f"--random must be >= 1, got {args.random!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        paths = _COMMANDS[args.command](args)
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except (BorgSpectraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
