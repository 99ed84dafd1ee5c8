"""Span tracing of pathlens from the outside, without editing the package.

`Tracer.install()` replaces every public function of the layer modules with
a timing wrapper, in every pathlens namespace that binds it (so a call from
`optimizers` into `inner.solve_free` is seen, because `optimizers` looks the
name up in its own globals). Each call becomes a span: name, start, end,
parent span and thread. The current span travels in a context variable, and
`pareto`'s thread pool is replaced by one that runs each task in a copy of
the submitting context, so spans from `sweep`'s worker threads attach to the
`sweep` span that scheduled them. `uninstall()` restores the originals.

Spans are kept in flat arrays in memory and summarised per batch by
`SpanTable`.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import math
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("regression", "paths", "inner", "optimizers", "pareto", "cli")
NAMESPACES = ("pathlens",) + tuple(f"pathlens.{m}" for m in LAYERS)

_current = contextvars.ContextVar("pathlens_bench_span", default=-1)


def _work_solve_batch(args, kwargs, result):
    return args[0].shape[0]


def _work_exact_path(args, kwargs, result):
    stats, cfg = args[0], args[2] if len(args) > 2 else kwargs["cfg"]
    n = stats.d ** cfg.K
    return n * 3**cfg.K if cfg.step_mode == "unit" else n


def _work_best_explanation(args, kwargs, result):
    stats, base, target = args[0], args[1], args[2]
    k_max = args[4] if len(args) > 4 else kwargs["K_max"]
    k_min = int(np.sum(base.coefficients != target.coefficients))
    return sum(stats.d**k for k in range(max(k_min, 1), k_max + 1)) if k_min else 0


def _work_local_improvement(args, kwargs, result):
    stats, cfg = args[0], args[2] if len(args) > 2 else kwargs["cfg"]
    return stats.d**cfg.q  # candidates per iteration


def _work_load_csv(args, kwargs, result):
    return result.n


def _work_write_out(args, kwargs, result):
    return len(args[1].encode("utf-8"))


# Work counted at the boundary of a span, besides the call itself: batch
# items, candidate patterns, local-search candidates per iteration, rows
# read, bytes written.
WORK = {
    "inner.solve_batch": _work_solve_batch,
    "optimizers.exact_path": _work_exact_path,
    "optimizers.best_explanation": _work_best_explanation,
    "optimizers.local_improvement": _work_local_improvement,
    "regression.load_csv": _work_load_csv,
    "cli.write_out": _work_write_out,
}


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in the context of the submitting thread."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._originals: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._threads = {threading.get_ident(): 0}  # the installing thread is 0
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("q")
        self.thread = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.error = bytearray()

    def _wrap(self, qualname: str, fn):
        nid = self._name_index.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        work = WORK.get(qualname)
        lock, clock, current = self._lock, time.perf_counter, _current

        def traced(*args, **kwargs):
            parent = current.get()
            tid = threading.get_ident()
            with lock:
                sid = len(self.start)
                self.name.append(nid)
                self.parent.append(parent)
                self.thread.append(self._threads.setdefault(tid, len(self._threads)))
                self.work.append(0.0)
                self.error.append(0)
                self.end.append(math.nan)
                self.start.append(clock())
            token = current.set(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.error[sid] = 1
                raise
            finally:
                self.end[sid] = clock()
                current.reset(token)
            if work is not None:
                self.work[sid] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in NAMESPACES]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pathlens.{layer}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        pareto = importlib.import_module("pathlens.pareto")
        self._originals.append((pareto, "ThreadPoolExecutor", pareto.ThreadPoolExecutor))
        pareto.ThreadPoolExecutor = _ContextPool

    def uninstall(self):
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def table(self) -> "SpanTable":
        return SpanTable(
            list(self.names),
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.thread, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            np.frombuffer(self.work, dtype=np.float64).copy(),
            np.frombuffer(bytes(self.error), dtype=np.uint8).astype(bool),
        )


class SpanTable:
    """Columnar spans with derived self times. Span ids are row indices, and
    a parent always has a smaller id than its children."""

    def __init__(self, names, name, parent, thread, start, end, work, error):
        self.names = names
        self.name, self.parent, self.thread = name, parent, thread
        self.start, self.end, self.work, self.error = start, end, work, error
        self.duration = end - start
        self.self_time = self._self_times()

    def __len__(self):
        return self.start.shape[0]

    def _self_times(self) -> np.ndarray:
        """Duration minus the part of it covered by child spans. Children in
        the parent's own thread never overlap, so their durations add; for
        children in other threads the union of their intervals is taken."""
        n = len(self)
        has_parent = self.parent >= 0
        kids = np.nonzero(has_parent)[0]
        same = kids[self.thread[kids] == self.thread[self.parent[kids]]]
        covered = np.bincount(self.parent[same], weights=self.duration[same],
                              minlength=n).astype(float)  # int when `same` is empty
        cross = kids[self.thread[kids] != self.thread[self.parent[kids]]]
        for p in np.unique(self.parent[cross]):
            mine = np.nonzero(self.parent == p)[0]
            covered[p] = _union_length(self.start[mine], self.end[mine])
        return self.duration - covered

    def ids(self, qualname: str) -> np.ndarray:
        if qualname not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.nonzero(self.name == self.names.index(qualname))[0]

    def nearest(self, qualname: str) -> np.ndarray:
        """For each span, the id of its nearest enclosing span (itself
        included) named `qualname`, or -1."""
        anc = np.full(len(self), -1, dtype=np.int64)
        named = self.ids(qualname)
        anc[named] = named
        todo = np.nonzero((anc < 0) & (self.parent >= 0))[0]
        while todo.size:  # each pass resolves one more level of the tree
            new = anc[self.parent[todo]]
            if np.array_equal(new, anc[todo]):
                break
            anc[todo] = new
        return anc

    def problems(self) -> list[str]:
        """Violations of the span tree's invariants (empty when sound)."""
        out = []
        if not np.all(np.isfinite(self.end)):
            out.append(f"{int(np.sum(~np.isfinite(self.end)))} spans never closed")
        kids = np.nonzero(self.parent >= 0)[0]
        par = self.parent[kids]
        if np.any(par >= kids):
            out.append("a parent span starts after its child")
        outside = (self.start[kids] < self.start[par]) | (self.end[kids] > self.end[par])
        if np.any(outside):
            out.append(f"{int(outside.sum())} spans lie outside their parent's interval")
        if np.any(self.self_time < -1e-9) or np.any(self.self_time > self.duration + 1e-9):
            out.append("a self time is negative or exceeds its span's duration")
        for i in np.nonzero((self.parent < 0) & (self.thread != 0))[0]:
            out.append(f"{self.names[self.name[i]]} in a worker thread has no parent span")
        cross = kids[self.thread[kids] != self.thread[par]]
        for i in cross:
            pname = self.names[self.name[self.parent[i]]]
            if pname != "pareto.sweep":
                out.append(f"{self.names[self.name[i]]} crosses threads under {pname}")
        return out


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    order = np.argsort(starts)
    total, cur_s, cur_e = 0.0, starts[order[0]], ends[order[0]]
    for s, e in zip(starts[order[1:]], ends[order[1:]]):
        if s > cur_e:
            total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + cur_e - cur_s


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _p50(values: np.ndarray) -> float:
    return float(np.median(values)) if values.size else 0.0


def layer_metrics(t: SpanTable) -> dict[str, float]:
    """Per-layer metrics of one traced batch. A layer the batch never calls
    reads 0 throughout."""
    calls = {n: t.ids(n) for n in t.names}
    empty = np.zeros(0, dtype=np.int64)

    def ids(n):
        return calls.get(n, empty)

    def count(n):
        return float(ids(n).size)

    def self_s(n):
        return float(t.self_time[ids(n)].sum())

    def total_s(n):
        return float(t.duration[ids(n)].sum())

    def work(n):
        return float(t.work[ids(n)].sum())

    m = {}
    for n in ("regression.load_csv", "regression.standardize", "regression.compute_stats",
              "pareto.sweep"):
        m[f"{n}.s"] = total_s(n)
    m["regression.load_csv.rows_per_s"] = _rate(work("regression.load_csv"),
                                               total_s("regression.load_csv"))
    for n in ("inner.solve_fixed_endpoint", "inner.solve_free", "inner.solve_batch",
              "optimizers.exact_path", "optimizers.local_improvement", "pareto.solve_tradeoff",
              "paths.cost_sequence"):
        m[f"{n}.calls"] = count(n)
    for n in ("inner.solve_fixed_endpoint", "inner.solve_free", "inner.build_systems_batch",
              "inner.solve_batch", "optimizers.exact_path", "optimizers.local_improvement",
              "optimizers.best_explanation", "pareto.sweep", "paths.cost_sequence",
              "paths.weighted_loss", "cli.main"):
        m[f"{n}.self_s"] = self_s(n)
    pinned = "inner.solve_fixed_endpoint"
    m[f"{pinned}.per_s"] = _rate(count(pinned), total_s(pinned))
    m["inner.solve_batch.items"] = work("inner.solve_batch")
    m["optimizers.exact_path.p50_s"] = _p50(t.duration[ids("optimizers.exact_path")])
    m["optimizers.exact_path.cand_per_s"] = _rate(work("optimizers.exact_path"),
                                                  total_s("optimizers.exact_path"))
    m["pareto.solve_tradeoff.p50_s"] = _p50(t.duration[ids("pareto.solve_tradeoff")])
    m["cli.artifact_bytes"] = work("cli.write_out")

    # Local-search iterations: batch solves, or pinned solves / d^q, per call.
    local = "optimizers.local_improvement"
    anc = t.nearest(local)

    def per_local(name):
        owner = anc[ids(name)]
        return np.bincount(owner[owner >= 0], minlength=len(t))

    spans = ids(local)
    spans = spans[t.work[spans] > 0]  # calls that returned
    iters = float(np.sum(per_local("inner.solve_batch")[spans]
                         + per_local(pinned)[spans] / t.work[spans]))
    m[f"{local}.iters"] = iters
    m[f"{local}.iters_per_s"] = _rate(iters, total_s(local))

    # best_explanation: feasible pinned solves per pattern enumerated.
    best = "optimizers.best_explanation"
    inside = t.nearest(best)[ids(pinned)] >= 0
    feasible = float(np.sum(inside & ~t.error[ids(pinned)]))
    m[f"{best}.feasible_ratio"] = _rate(feasible, work(best))
    return m
