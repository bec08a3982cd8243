"""Benchmark for the borg-spectra CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

A workload is two CLI commands.  Untraced (`--trace 0`), each round times
one bare `import borg_spectra.cli` start (setup_s), one fixed calibration
process (calibrate.py) and one run of each command in a fresh process
(worker.py: wall_s, main_s, peak_rss_mb); times are reported relative to
the calibration of their round.
Traced (`--trace 1`), each round runs every command untraced and traced and
reports the per-layer split.  See README.md for the metrics and the gate.

Every run's artifacts pass through the workload's correctness gate (the
first set in full, the rest by hash).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
only when every check passed; 2 when there is no borg_spectra to run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, GateError  # noqa: E402

SETUP_CMD = [sys.executable, "-c", "import borg_spectra.cli"]
CALIBRATE_CMD = [sys.executable, str(HERE / "calibrate.py")]
# the calibration's fastest wall time on the host the benchmark was built on
# (2 CPUs, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31); end-to-end times
# are reported in seconds of that host (see README.md)
CALIBRATE_REF_S = 0.33
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("BORG_SPECTRA_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# counts that must repeat exactly from one traced run to the next
EXACT_COUNTS = (
    "cli.bytes_out", "symbols.calls", "symbols.matrices", "symbols.bytes_est",
    "eig.calls", "eig.matrices", "eig.max_dim", "eig.flops_est", "eig.edge_yield",
    "spectra.calls", "borg.certificates", "oracle.dense_dim",
)
GATE_ERRORS = (GateError, KeyError, TypeError, ValueError, IndexError, OSError)
# metric name -> unit, for each mode, as BENCHMARK.json declares them
DECLARED = {
    kind: {m["name"]: m["unit"] for m in metrics}
    for kind, metrics in json.loads((HERE.parent / "BENCHMARK.json").read_text()).items()
    if kind in ("end_to_end", "per_layer")
}


def timed_process(cmd, root: Path, env: dict, stdout, stderr) -> tuple[float, int]:
    """Wall seconds and exit code of one child process."""
    start = time.perf_counter()
    try:
        rc = subprocess.run(cmd, cwd=root, env=env, stdout=stdout, stderr=stderr,
                            timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        rc = -9
    return time.perf_counter() - start, rc


def run_worker(argv: list[str], trace: bool, out: Path, root: Path, env: dict, log) -> dict:
    """One CLI run writing to `out` in a fresh process (see worker.py)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(int(trace)), *argv, "--out", str(out)]
    reply_path = out.with_name(out.name + ".reply")
    with open(reply_path, "w+") as reply_file:
        wall, rc = timed_process(cmd, root, env, reply_file, log)
        reply_file.seek(0)
        lines = reply_file.read().splitlines()
    reply_path.unlink()
    if rc != 0 or not lines:
        return {"rc": rc or 1}
    return {**json.loads(lines[-1]), "wall_s": wall}


def artifact_hashes(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


class Checker:
    """Counts runs, gates the first good artifact set, hashes the rest."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.gate = None
        self.hashes = None
        self.bytes_out = None

    def check(self, out: Path, rc: int, label: str) -> bool:
        self.attempted += 1
        ok = rc == 0
        problem = f"exit code {rc}"
        if ok:
            hashes = artifact_hashes(out)
            if self.hashes is None:
                try:
                    self.gate = self.workload.gate(out)
                    self.hashes = hashes
                    self.bytes_out = sum(p.stat().st_size for p in out.iterdir())
                except GATE_ERRORS as exc:
                    ok, problem = False, f"gate: {exc!r}"
            elif hashes != self.hashes:
                ok, problem = False, "artifacts differ from the first run's"
        if not ok:
            self.failed += 1
            print(f"FAIL {self.workload.name} {label}: {problem}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return ok


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def environment(root: Path) -> dict:
    import numpy

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    began = time.perf_counter()  # the run's budget covers preparing and gating
    workdir = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    checkers = [Checker(command(seed, workdir)) for command in WORKLOADS[name]]
    try:
        with open(workdir / "children.log", "w") as log:
            rounds, samples, traced = _measure(checkers, seconds, began, trace, root, env, log)
        failed = sum(c.failed for c in checkers)
        if failed:
            log_tail = (workdir / "children.log").read_text()[-4000:]
            print(f"program output of {name}:\n{log_tail}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if trace and not failed:
        for checker, replies in zip(checkers, traced):
            for reply in replies:
                problems = _trace_problems(reply, replies[0], checker)
                for problem in problems:
                    print(f"FAIL {checker.workload.name} traced run: {problem}", file=sys.stderr)
                checker.failed += bool(problems)
        failed = sum(c.failed for c in checkers)

    metrics: dict[str, float] = {}
    if failed:
        pass  # no figures from a run that failed a check
    elif not trace:
        # each time over the calibration's time in the same round: the
        # shared host changes speed by up to 1.3x for minutes at a time,
        # which moves both alike
        metrics["setup_s"] = CALIBRATE_REF_S * _median_ratio(rounds["setup_s"], rounds)
        for key in ("wall_s", "main_s"):
            metrics[key] = CALIBRATE_REF_S * sum(_median_ratio(s[key], s) for s in samples)
        metrics["peak_rss_mb"] = max(statistics.median(s["peak_rss_mb"]) for s in samples)
        metrics["gap_recall"] = min(c.gate.gap_recall for c in checkers)
    else:
        metrics = _pool_traced(samples, traced)
        metrics["spectra.edge_slack"] = max(c.gate.edge_slack for c in checkers)

    declared = DECLARED["per_layer" if trace else "end_to_end"]
    complete = set(metrics) == set(declared)
    if not failed and not complete:
        print(f"FAIL {name}: metrics {sorted(set(metrics) ^ set(declared))} "
              "differ from BENCHMARK.json", file=sys.stderr)
    attempted = sum(c.attempted for c in checkers)
    print(f"{name}: seed {seed}, {attempted} runs, fail_frac {failed / max(attempted, 1):.6g}")
    for key, values in rounds.items():
        print(f"  {key:30s} {_quartiles(values)}")
    for checker, s in zip(checkers, samples):
        for key, values in s.items():
            if key != "calibrate_s":
                print(f"  {checker.workload.name + ':' + key:30s} {_quartiles(values)}")
    for key, value in metrics.items():
        print(f"  {key:20s} {value:<12.6g} {declared.get(key, '')}")
    return {
        "correct": complete and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": declared.get(k, "")} for k, v in metrics.items()},
    }


# traced figures pooled over a workload's commands: the largest of these,
# ratios from their summed parts, and the sum of everything else
POOL_MAX = ("eig.max_dim", "oracle.dense_dim")
POOL_RATIO = {"eig.edge_yield": ("eig.edges", "eig.eigenvalues"),
              "util.pool_overlap": ("util.task_s", "mathieu.sweep_s")}


def _pool_traced(samples: list[dict], traced: list[list[dict]]) -> dict[str, float]:
    """Per command, counts from the first traced run and medians of the rest;
    then pooled over the commands."""
    per_command = []
    for replies in traced:
        figures = {}
        for field in ("metrics", "parts"):
            for key in replies[0][field]:
                values = [r[field][key] for r in replies]
                exact = key in EXACT_COUNTS or key in ("eig.edges", "eig.eigenvalues")
                figures[key] = values[0] if exact else statistics.median(values)
        figures["package.import_s"] = statistics.median(r["import_s"] for r in replies)
        per_command.append(figures)
    metrics = {}
    for key in traced[0][0]["metrics"]:
        if key in POOL_RATIO:
            num, den = (sum(f[part] for f in per_command) for part in POOL_RATIO[key])
            metrics[key] = num / den if den else 0.0
        elif key in POOL_MAX:
            metrics[key] = max(f[key] for f in per_command)
        else:
            metrics[key] = sum(f[key] for f in per_command)
    metrics["package.import_s"] = statistics.median(f["package.import_s"] for f in per_command)
    # paired by round: both sides of a round see the same host phase
    metrics["trace.overhead_s"] = sum(
        statistics.median(t - u for t, u in zip(s["traced_main_s"], s["main_s"], strict=True))
        for s in samples)
    return metrics


def _median_ratio(values: list[float], samples: dict) -> float:
    """Median over rounds of a time over that round's calibration time."""
    return statistics.median(v / c for v, c in zip(values, samples["calibrate_s"], strict=True))


def _measure(checkers, seconds, began, trace, root, env, log):
    """Run every command in turn until the next round would overrun
    `seconds` from `began`; returns the samples of each round (import and
    calibration), the timing samples of each command and the traced replies
    of each command."""
    argvs = []
    for checker in checkers:
        checker.workload.prepare()
        argvs.append(checker.workload.argv())
    rounds: dict[str, list[float]] = {}
    samples: list[dict[str, list[float]]] = [{} for _ in checkers]
    traced: list[list[dict]] = [[] for _ in checkers]
    longest = 0.0
    i = 0
    while True:
        t_iter = time.perf_counter()
        if not trace:
            # one bare import per round spreads setup_s over the run
            for key, cmd in (("setup_s", SETUP_CMD), ("calibrate_s", CALIBRATE_CMD)):
                wall, rc = timed_process(cmd, root, env, log, log)
                if rc != 0:
                    raise RuntimeError(f"{' '.join(cmd[1:])} failed")
                rounds.setdefault(key, []).append(wall)
        for checker, argv, s, replies in zip(checkers, argvs, samples, traced):
            workdir = checker.workload.workdir
            # traced: alternate which side goes first, so drift hits both
            sides = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
            for traced_side in sides:
                out = workdir / f"{checker.workload.name}-{int(traced_side)}-{i}"
                reply = run_worker(argv, traced_side, out, root, env, log)
                if not checker.check(out, reply["rc"], f"round {i}"):
                    continue
                if traced_side:
                    s.setdefault("traced_main_s", []).append(reply["main_s"])
                    replies.append(reply)
                else:
                    s.setdefault("main_s", []).append(reply["main_s"])
                    if not trace:
                        for key in ("wall_s", "peak_rss_mb"):
                            s.setdefault(key, []).append(reply[key])
                        s.setdefault("calibrate_s", []).append(rounds["calibrate_s"][-1])
        i += 1
        now = time.perf_counter()
        longest = max(longest, now - t_iter)
        if now - began + longest > seconds or any(c.failed for c in checkers):
            return rounds, samples, traced


def _trace_problems(reply: dict, first: dict, checker: Checker) -> list[str]:
    """Self-checks of one traced run against the inputs and the first run."""
    problems = []
    if reply["min_self_ns"] < 0:
        problems.append(f"negative self time {reply['min_self_ns']} ns")
    for key, expected in checker.gate.expected_calls.items():
        got = reply["calls"].get(key, reply["metrics"].get(key, 0))
        if got != expected:
            problems.append(f"{key}: traced {got} calls, inputs imply {expected}")
    for key in EXACT_COUNTS:
        if reply["metrics"][key] != first["metrics"][key]:
            problems.append(f"{key} did not repeat exactly")
    if reply["metrics"]["cli.bytes_out"] != checker.bytes_out:
        problems.append(f"cli.bytes_out {reply['metrics']['cli.bytes_out']} "
                        f"!= {checker.bytes_out} bytes on disk")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "borg_spectra" / "cli.py").is_file():
        print("error: run from the root of a borg-spectra checkout "
              "(src/borg_spectra/cli.py not found)", file=sys.stderr)
        return 2

    print("environment " + json.dumps(environment(root)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), root)
               for n in names}
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}:{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
