#!/usr/bin/env python3
"""SHA-256 of every artifact of a fixed list of CLI commands.

A change that should move no number must leave every artifact these
commands write byte-identical, SVG included.  Each command runs in-process
(`borg_spectra.cli.main`) into its own directory under a temporary
directory, and the script prints one `<sha256>  <command>/<artifact>` line
per artifact, so the check is a diff of two outputs:

    PYTHONPATH=src python3 scripts/artifact_hashes.py > after.txt

run once in each checkout.  Two runs in one checkout must print the same
lines too, though the `oracle` commands solve their largest section on a
worker thread, and so must runs at different BLAS thread counts:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/artifact_hashes.py > one.txt
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python3 scripts/artifact_hashes.py > two.txt

print the same 66 lines, since every section is solved from its band by
dsbevd_2stage (`borg_spectra.eig`), which gives the same bits at both
counts for the bandwidths here; numpy's multithreaded dense eigvalsh
gives different bits on the 384-site section of `bench-oracle`.

The list holds the four determinism commands of acceptance criterion 10,
the four command shapes of the benchmark (`perfbench/workloads.py`) with
fixed inputs, one command for each other spec kind, grid parity and option
the CLI takes (a repeated `--epsilon`, a repeated `--blocks` and a
`--seed` of more than one 32-bit word among them), a borg and a
pseudospectrum command at an odd `--grid` whose artifacts must hash like
their default-grid twins (a Schrodinger or Jacobi enclosure comes from
theta in {0, pi} alone, whatever N), an oracle whose corner indices are
all negative (its sections reverse every block), a mathieu sweep that ends
before its `--count` (`"truncated": true`), and a pseudospectrum and a
borg command at each of two Laurent connectivity verdicts near the
boundary of what the enclosure decides: `disconnected` just below W / 2
and `undecided` in [W / 2, epsilon_star), so the artifacts hold all three
verdict values.  A command that exits non-zero prints
`exit <code>  <command>` and makes the script exit 1.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from borg_spectra.cli import main

GOLDEN = 0.6180339887498949


def spec(kind, v, **fields):
    return json.dumps({"kind": kind, "period": len(v), "v": v, **fields})


STAIRCASE = spec("schrodinger", [1.0, 1.1, 1.2, 1.3, 1.4])
BENCH_BANDS = spec("schrodinger", [0.62, -0.41, 0.93, -0.87, 0.05])
JACOBI = spec("jacobi", [0.3, -0.5, 0.9], a=[1.0, 1.6, 0.7])
LAURENT = spec("laurent", [0.0, 0.4, 1.1], fourier=[[1, 0.8], [-2, 0.25]])
# its padded gap at N = 1024, W = 0.63538, just exceeds 2 epsilon at 0.3152;
# 0.32 lies in [W / 2, epsilon_star) = [0.31769, 0.32260)
LAURENT_BOUNDARY = spec("laurent", [0.0, 0.4, 0.9], fourier=[[1, 1.0], [2, 0.3]])
# the benchmark's dense-section shape: period 24, four corner terms
LAURENT_24 = spec("laurent", [0.8 * j + 0.1 * (j % 3) for j in range(24)],
                  fourier=[[-1, 0.3], [0, -0.5], [1, 0.4], [2, -0.2]])
# every corner index negative: its Dirichlet sections reverse each block
LAURENT_NEGATIVE = spec("laurent", [0.0, 0.3, 0.5, 0.9, 1.2], fourier=[[-2, 0.3], [-1, 0.5]])

COMMANDS = {
    # acceptance criterion 10
    "c10-spectrum": ["spectrum", "--spec", STAIRCASE, "--grid", "512", "--format", "csv,json"],
    "c10-borg-random": ["borg", "--random", "20", "--seed", "99"],
    "c10-mathieu": ["mathieu", "--alpha", repr(GOLDEN), "--count", "4", "--grid", "256",
                    "--format", "csv,json"],
    "c10-oracle": ["oracle", "--spec", STAIRCASE, "--grid", "256", "--blocks", "4",
                   "--blocks", "16", "--format", "csv,json"],
    # the benchmark's command shapes
    "bench-spectrum": ["spectrum", "--spec", BENCH_BANDS, "--grid", "16384"],
    "bench-borg-random": ["borg", "--random", "100", "--seed", "7"],
    "bench-mathieu": ["mathieu", "--alpha", repr(GOLDEN), "--count", "10",
                      "--epsilon", "0.1", "--grid", "1024"],
    "bench-oracle": ["oracle", "--spec", LAURENT_24, "--grid", "4096", "--blocks", "4",
                     "--blocks", "16", "--blocks", "83"],
    # every kind, both grid parities and the remaining options
    "spectrum-schrodinger-511": ["spectrum", "--spec", STAIRCASE, "--grid", "511"],
    "spectrum-jacobi-511": ["spectrum", "--spec", JACOBI, "--grid", "511"],
    "spectrum-laurent-1023": ["spectrum", "--spec", LAURENT, "--grid", "1023"],
    "spectrum-laurent-1024": ["spectrum", "--spec", LAURENT, "--grid", "1024"],
    "pseudospectrum-jacobi": ["pseudospectrum", "--spec", JACOBI, "--epsilon", "0.05",
                              "--epsilon", "0.4"],
    "borg-schrodinger": ["borg", "--spec", STAIRCASE, "--epsilon", "0.1", "--epsilon", "0.2"],
    "borg-jacobi": ["borg", "--spec", JACOBI, "--epsilon", "0.3", "--epsilon", "1.0"],
    "borg-laurent": ["borg", "--spec", LAURENT, "--epsilon", "0.2", "--check", "forward"],
    # tridiagonal enclosures never read N: each hashes like its default-grid twin above
    "borg-schrodinger-511": ["borg", "--spec", STAIRCASE, "--epsilon", "0.1", "--epsilon", "0.2",
                             "--grid", "511"],
    "pseudospectrum-jacobi-511": ["pseudospectrum", "--spec", JACOBI, "--epsilon", "0.05",
                                  "--epsilon", "0.4", "--grid", "511"],
    "borg-random-50": ["borg", "--random", "50", "--seed", "3"],
    "borg-random-multiword-seed": ["borg", "--random", "20", "--seed", "18446744073709551616"],
    "mathieu-epsilon": ["mathieu", "--alpha", repr(GOLDEN), "--count", "6", "--epsilon", "0.1"],
    "mathieu-coupling-0": ["mathieu", "--alpha", repr(GOLDEN), "--count", "6",
                           "--coupling", "0"],
    "mathieu-two-epsilons": ["mathieu", "--alpha", repr(GOLDEN), "--count", "6",
                             "--epsilon", "0.1", "--epsilon", "0.02"],
    # alpha = 1/2 has one convergent, so the sweep is cut short: truncated
    "mathieu-truncated": ["mathieu", "--alpha", "0.5", "--count", "3"],
    "oracle-laurent": ["oracle", "--spec", LAURENT, "--grid", "512", "--blocks", "3",
                       "--blocks", "7"],
    "oracle-repeated-blocks": ["oracle", "--spec", STAIRCASE, "--blocks", "4", "--blocks", "16",
                               "--blocks", "4"],
    "oracle-laurent-negative": ["oracle", "--spec", LAURENT_NEGATIVE, "--grid", "512",
                                "--blocks", "3", "--blocks", "8"],
    # a connectivity verdict at the edge of what the enclosure decides
    "pseudospectrum-laurent-boundary": ["pseudospectrum", "--spec", LAURENT_BOUNDARY,
                                        "--epsilon", "0.3152"],
    "borg-laurent-boundary": ["borg", "--spec", LAURENT_BOUNDARY, "--epsilon", "0.3152"],
    "pseudospectrum-laurent-undecided": ["pseudospectrum", "--spec", LAURENT_BOUNDARY,
                                         "--epsilon", "0.32"],
    "borg-laurent-undecided": ["borg", "--spec", LAURENT_BOUNDARY, "--epsilon", "0.32"],
}


def run_all(root: Path) -> int:
    status = 0
    for label, argv in COMMANDS.items():
        out = root / label
        with contextlib.redirect_stdout(io.StringIO()):  # the printed paths name `root`
            code = main([*argv, "--out", str(out)])
        if code != 0:
            print(f"exit {code}  {label}")
            status = 1
            continue
        for path in sorted(out.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {label}/{path.name}")
    return status


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(run_all(Path(tmp)))
