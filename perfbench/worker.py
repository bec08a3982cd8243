"""One measured `borg_spectra.cli.main(argv)` call in a fresh process.

    python perfbench/worker.py <0|1> <cli arguments...>

Imports the package first, so `main_s` is the program's own work; with
1 the call is traced (see tracer.py).  Prints one JSON line: rc, main_s,
import_s, peak_rss_mb and, when traced, the per-layer summary.  The
program's own stdout is captured so that it cannot corrupt that line.

Peak RSS is VmHWM of this process image: `ru_maxrss` seen by the parent
would include the parent's own RSS, which a forked child inherits.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    trace, argv = sys.argv[1] == "1", sys.argv[2:]
    start = time.perf_counter()
    import borg_spectra.cli as cli

    reply = {"import_s": time.perf_counter() - start}
    run = cli.main
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer

        rec = tracer.Recorder()
        run = tracer.install(rec)[cli.main]
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = run(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed run; report it as one
        traceback.print_exc()
        rc = 1
    reply.update(rc=rc, main_s=time.perf_counter() - start, peak_rss_mb=peak_rss_mb())
    if trace:
        reply.update(tracer.summarize(rec.spans))
    print(json.dumps(reply))


if __name__ == "__main__":
    main()
