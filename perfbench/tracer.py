"""Thread-aware span recorder that wraps borg_spectra from the outside.

`install` rebinds every public function of every `borg_spectra` module in
every `borg_spectra` namespace that holds it (`cli`, `borg`, `mathieu` and
`oracle` import by name, so patching the defining module alone would miss
their calls).  Nothing under `src/` changes.

Each thread keeps its own span stack, and every span records its thread
and its parent.  Work that `util.ordered_map` hands to pool threads is
recorded as `task` spans whose parent is the `ordered_map` span, so the
tree stays connected across threads.  A span's self time is its duration
minus the union of its children's intervals, in integer nanoseconds, so it
is never negative even when children on other threads overlap.

A call from inside the defining module crosses no layer boundary, so that
module keeps its own, unwrapped binding (no span and no overhead; the time
stays with the caller, in the same layer), except for the functions in
MEASURES, whose every call is counted.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass

PACKAGE = "borg_spectra"


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    thread: int
    module: str
    name: str
    start_ns: int
    end_ns: int
    info: dict


def _dims(stack) -> tuple[int, int]:
    shape = getattr(stack, "shape", ())
    return (shape[0], shape[1]) if len(shape) == 2 else (0, 0)


def _write_bytes(args, kwargs) -> int:
    text = kwargs.get("text", args[1] if len(args) > 1 else "")
    return len(text.encode())


# counts taken from arguments and results, computed from shapes only
MEASURES = {
    ("symbols", "symbol_stack"): lambda a, kw, r: {
        "matrices": r.shape[0], "bytes_est": r.shape[0] * r.shape[1] ** 2 * 16},
    ("eig", "eigvalsh_stack"): lambda a, kw, r: {
        "matrices": _dims(r)[0], "dim": _dims(r)[1],
        "flops_est": _dims(r)[0] * _dims(r)[1] ** 3,
        "eigenvalues": _dims(r)[0] * _dims(r)[1], "edges": 2 * _dims(r)[1]},
    ("eig", "hermitian_eigenvalues"): lambda a, kw, r: {
        "matrices": 1, "dim": len(r.values), "flops_est": len(r.values) ** 3},
    ("oracle", "truncate"): lambda a, kw, r: {"dense_dim": r.size},
    ("util", "atomic_write_text"): lambda a, kw, r: {"bytes": _write_bytes(a, kw)},
    ("borg", "forward_from_spectrum"): lambda a, kw, r: {"certificates": 1},
    ("borg", "converse_from_spectrum"): lambda a, kw, r: {"certificates": 1},
}


class Recorder:
    """Collects spans from any thread; read `spans` after the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []  # list.append is atomic under the GIL
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, module, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        measure = MEASURES.get((module, name))
        span_id = next(self._ids)
        parent = stack[-1] if stack else parent
        stack.append(span_id)
        start = time.perf_counter_ns()
        done, result = False, None
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            info = measure(args, kwargs, result) if measure and done else {}
            self.spans.append(Span(span_id, parent, threading.get_ident(), module,
                                   name, start, end, info))


def _short(modname: str) -> str:
    return modname.rpartition(".")[2] if modname != PACKAGE else PACKAGE


def _wrapper(rec: Recorder, module: str, name: str, fn):
    if (module, name) == ("util", "ordered_map"):
        @functools.wraps(fn)
        def ordered_map(task_fn, items):
            def body(task_fn, items):
                parent = rec.current()
                task_module = _short(getattr(task_fn, "__module__", "") or "")

                def task(item):
                    return rec.call(task_module, "task", task_fn, (item,), {}, parent=parent)

                return fn(task, items)

            return rec.call(module, name, body, (task_fn, items), {})

        return ordered_map

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(module, name, fn, args, kwargs)

    return wrapper


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def install(rec: Recorder) -> dict:
    """Wrap every public function of the package for the rest of the process;
    returns original -> wrapper, for callers outside the package."""
    modules = _package_modules()
    wrappers = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrappers[obj] = _wrapper(rec, _short(mod.__name__), attr, obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers and (
                    obj.__module__ != mod.__name__
                    or (_short(mod.__name__), attr) in MEASURES):
                setattr(mod, attr, wrappers[obj])
    return wrappers


def _union_ns(intervals, lo: int, hi: int) -> int:
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return {s.span_id: (s.end_ns - s.start_ns)
            - _union_ns(children.get(s.span_id, ()), s.start_ns, s.end_ns)
            for s in spans}


LAYERS = ("cli", "symbols", "eig", "spectra", "borg", "mathieu", "oracle", "render", "util")


def summarize(spans: list[Span]) -> dict:
    """Per-layer figures of one traced run (times in seconds)."""
    selfs = self_times_ns(spans)
    calls: dict[str, int] = {}
    for s in spans:
        calls[f"{s.module}.{s.name}"] = calls.get(f"{s.module}.{s.name}", 0) + 1
        calls[s.module] = calls.get(s.module, 0) + 1

    def values(module, key):
        return [s.info.get(key, 0) for s in spans if s.module == module]

    def duration_s(module, name):
        return sum(s.end_ns - s.start_ns for s in spans
                   if (s.module, s.name) == (module, name)) / 1e9

    out = {f"{m}.self_s": sum(selfs[s.span_id] for s in spans if s.module == m) / 1e9
           for m in LAYERS}
    sweep_s = duration_s("mathieu", "approximant_sweep")
    task_s = sum(s.end_ns - s.start_ns for s in spans if s.name == "task") / 1e9
    computed = sum(values("eig", "eigenvalues"))
    out.update({
        "cli.bytes_out": sum(values("util", "bytes")),
        "util.write_s": duration_s("util", "atomic_write_text"),
        "util.pool_overlap": task_s / sweep_s if sweep_s else 0.0,
        "symbols.calls": calls.get("symbols.symbol_stack", 0),
        "symbols.matrices": sum(values("symbols", "matrices")),
        "symbols.bytes_est": sum(values("symbols", "bytes_est")),
        "eig.calls": calls.get("eig.eigvalsh_stack", 0)
        + calls.get("eig.hermitian_eigenvalues", 0),
        "eig.matrices": sum(values("eig", "matrices")),
        "eig.max_dim": max(values("eig", "dim"), default=0),
        "eig.flops_est": sum(values("eig", "flops_est")),
        "eig.edge_yield": sum(values("eig", "edges")) / computed if computed else 0.0,
        "spectra.calls": calls.get("spectra", 0),
        "borg.certificates": sum(values("borg", "certificates")),
        "oracle.dense_dim": max(values("oracle", "dense_dim"), default=0),
    })
    # numerators and denominators of the ratios, so that runs can be pooled
    parts = {"eig.edges": sum(values("eig", "edges")), "eig.eigenvalues": computed,
             "util.task_s": task_s, "mathieu.sweep_s": sweep_s}
    return {"metrics": out, "parts": parts, "calls": calls,
            "min_self_ns": min(selfs.values(), default=0)}
