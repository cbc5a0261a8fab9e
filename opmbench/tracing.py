"""Span tracing around the public calls into each layer of ``repro``.

Wrappers are installed from the benchmark's side on the attribute that
callers resolve (``session.py`` calls ``kernels.sweep_toeplitz``, so
``repro.engine.kernels.sweep_toeplitz`` is the one patched); nothing
inside ``src/repro`` is edited.  Spans live in memory and are written
out once, when the traced process ends.

A span is ``(id, name, start, end, parent, job, size)``: ``parent`` is
the enclosing span on the same thread, ``job`` the job id current when
the span opened, and ``size`` an optional work measure taken from the
call (deck bytes, columns swept, pencil order ...).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    size: float | None = None
    meta: dict | None = None


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = self._next
            self._next += 1
        span = Span(span_id, name, time.perf_counter(), 0.0,
                    stack[-1].id if stack else None, self.job)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (the benchmark's own job roots)."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name: str, size=None, meta=None):
        """``fn`` recording a span per call; ``size(args, kwargs, result)``
        and ``meta(args, kwargs, result)`` annotate it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if size is not None:
                span.size = float(size(args, kwargs, result))
            if meta is not None:
                span.meta = meta(args, kwargs, result)
            return result

        traced.__opmbench_traced__ = True
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def load_spans(path, id_offset: int = 0) -> list[Span]:
    """Spans written by :meth:`Tracer.dump`; ``id_offset`` shifts span ids
    (and parent links) so spans of several processes can be merged."""
    with open(path) as fh:
        spans = [Span(**d) for d in json.load(fh)]
    for s in spans:
        s.id += id_offset
        if s.parent is not None:
            s.parent += id_offset
    return spans


def patch(tracer: Tracer, owners, attr: str, name: str, size=None, meta=None) -> None:
    """Replace ``owner.attr`` on every owner by one traced wrapper.

    ``owners[0]`` holds the original definition; the other owners are
    modules that imported the same function by name.  Class-level
    ``classmethod``/``staticmethod`` descriptors are re-wrapped as such.
    """
    home = owners[0]
    raw = inspect.getattr_static(home, attr)
    if isinstance(raw, classmethod):
        wrapped = classmethod(tracer.wrap(raw.__func__, name, size, meta))
    elif isinstance(raw, staticmethod):
        wrapped = staticmethod(tracer.wrap(raw.__func__, name, size, meta))
    else:
        if getattr(raw, "__opmbench_traced__", False):
            raise RuntimeError(f"{attr} is already traced")
        wrapped = tracer.wrap(raw, name, size, meta)
    for owner in owners:
        if owner is not home and getattr(owner, attr) is not raw:
            raise RuntimeError(f"{owner.__name__}.{attr} is not {home.__name__}.{attr}")
        setattr(owner, attr, wrapped)


def _n_rows(args, kwargs, result) -> float:
    return args[0].n


def _columns(args, kwargs, result) -> float:
    R = args[1]
    return R.shape[1] * (R.shape[2] if R.ndim == 3 else 1)


def _file_bytes(args, kwargs, result) -> float:
    return os.path.getsize(result)


def install(tracer: Tracer, *, service: bool = False) -> None:
    """Trace every layer boundary named in the benchmark README.

    ``service=True`` adds the daemon-side solve spans (``Simulator.run``
    and ``Simulator.sweep``), whose calls are timing-dependent there
    because coalescing batches concurrent requests.
    """
    import repro.circuits as circuits
    import repro.circuits.graph as graph
    import repro.circuits.mna as mna
    import repro.core.result as result_mod
    import repro.engine.assembly as assembly
    import repro.engine.backends as backends
    import repro.engine.bundle as bundle
    import repro.engine.executor as executor
    import repro.engine.kernels as kernels
    import repro.engine.marching as marching
    import repro.engine.netlist_session as netlist_session
    import repro.engine.session as session
    import repro.engine.sweep as sweep_mod
    import repro.fractional as fractional
    import repro.fractional.grunwald as grunwald
    import repro.fractional.soe as soe
    import repro.io as io
    import repro.io.csvout as csvout

    Netlist = circuits.Netlist
    patch(tracer, [Netlist], "from_spice", "parse",
          size=lambda a, k, r: len(a[1] if len(a) > 1 else k["text"]))
    patch(tracer, [graph.CircuitGraph], "check", "lint")
    patch(tracer, [graph.CircuitGraph], "lint", "lint")
    patch(tracer, [mna, netlist_session, circuits], "assemble_mna", "assemble")
    patch(tracer, [netlist_session], "from_netlist", "bind")
    patch(tracer, [session.Simulator], "__init__", "bind")
    patch(tracer, [assembly], "toeplitz_coefficients", "operator")
    for attr in ("toeplitz_coefficients", "fractional_integration_matrix", "history_matrix"):
        patch(tracer, [bundle.OperatorBundle], attr, "operator")
    for cls in (backends.DenseBackend, backends.SparseBackend):
        patch(tracer, [cls], "factorize", "factorize", size=_n_rows)
    for attr in ("sweep_toeplitz", "sweep_general", "sweep_multiterm"):
        patch(tracer, [kernels], attr, "sweep", size=_columns,
              meta=lambda a, k, r: {"m": a[1].shape[1]})
    patch(tracer, [session.Simulator], "march", "march",
          size=lambda a, k, r: len(r.windows))
    certified = lambda a, k, r: {"certified": bool(r.certified)}  # noqa: E731
    patch(tracer, [soe, marching, grunwald, fractional], "fit_discrete_kernel", "soe",
          meta=certified)
    patch(tracer, [soe, marching, fractional], "fit_continuous_kernel", "soe", meta=certified)
    for cls in (result_mod.SimulationResult, sweep_mod.SweepResult):
        for attr in ("states", "outputs"):
            patch(tracer, [cls], attr, "sample")
    for attr in ("states", "outputs"):
        patch(tracer, [result_mod.MarchingResult], attr, "sample")
    owners = [csvout, io]
    main = sys.modules.get("repro.__main__")
    if main is not None:
        owners.append(main)
    patch(tracer, owners, "write_csv", "csv", size=_file_bytes)
    patch(tracer, [executor.ParallelExecutor], "run", "executor",
          size=lambda a, k, r: r.info["n_tasks"],
          meta=lambda a, k, r: {"jobs": r.info["jobs"], "executor": r.info["executor"]})
    if service:
        patch(tracer, [session.Simulator], "run", "svc.solve")
        patch(tracer, [session.Simulator], "sweep", "svc.solve")


# ----------------------------------------------------------------------
# reduction of spans to per-layer figures
# ----------------------------------------------------------------------
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children count once, so concurrent children never drive a self
    time negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return {
        s.id: (s.end - s.start) - _union_length(children.get(s.id, []))
        for s in spans
    }


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans of ``name`` not nested in another span of the same name
    (``CircuitGraph.check`` calls ``lint``: one lint, not two)."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent) if s.parent is not None else None
        while p is not None and p.name != name:
            p = by_id.get(p.parent) if p.parent is not None else None
        if p is None:
            out.append(s)
    return out


def under(spans: list[Span], span: Span, name: str) -> bool:
    """True when ``span`` has an ancestor called ``name``."""
    by_id = {s.id: s for s in spans}
    p = by_id.get(span.parent) if span.parent is not None else None
    while p is not None:
        if p.name == name:
            return True
        p = by_id.get(p.parent) if p.parent is not None else None
    return False


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts, self times and rates from one traced run.

    Names match the README table; a layer the run never entered reads 0.
    Counts take outermost spans only (``CircuitGraph.check`` calls
    ``lint``: one lint, not two); self times sum every span of the layer.
    """
    from stats import fit_exponent

    own = self_times(spans)

    def of(name):
        return [s for s in spans if s.name == name]

    def self_s(name):
        return sum(own[s.id] for s in of(name))

    def wall(group):
        return sum(s.end - s.start for s in group)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    out = {}
    for layer in ("parse", "lint", "assemble", "bind", "operator", "factorize",
                  "sweep", "march", "sample", "csv"):
        out[f"{layer}.calls"] = len(outermost(spans, layer))
        out[f"{layer}.self_s"] = self_s(layer)
    parses = outermost(spans, "parse")
    out["parse.kib_per_s"] = rate(sum(s.size for s in parses) / 1024.0, wall(parses))
    factorizations = of("factorize")
    out["factorize.n_exponent"] = fit_exponent(
        [s.size for s in factorizations], [own[s.id] for s in factorizations])
    sweeps = of("sweep")
    out["sweep.columns_per_s"] = rate(sum(s.size for s in sweeps), self_s("sweep"))
    single = [s for s in sweeps if not under(spans, s, "march")]
    out["sweep.m_exponent"] = fit_exponent(
        [s.meta["m"] for s in single], [own[s.id] for s in single])
    out["march.windows"] = int(sum(s.size for s in of("march")))
    fits = of("soe")
    out["soe.fits"] = len(fits)
    out["soe.fit_s"] = self_s("soe")
    out["soe.certified_ratio"] = rate(sum(s.meta["certified"] for s in fits), len(fits))
    csvs = of("csv")
    out["csv.mib_per_s"] = rate(sum(s.size for s in csvs) / 2**20, wall(csvs))
    runs = of("executor")
    out["executor.tasks"] = int(sum(s.size for s in runs))
    out["executor.wall_s"] = wall(runs)
    # efficiency: the same ensemble on the serial backend against the
    # process backend's wall time multiplied by its worker count
    serial = [s for s in runs if s.meta["executor"] == "serial"]
    parallel = [s for s in runs if s.meta["executor"] != "serial"]
    out["executor.efficiency"] = rate(
        wall(serial) / max(len(serial), 1),
        sum((s.end - s.start) * s.meta["jobs"] for s in parallel) / max(len(parallel), 1))
    out["job.self_s"] = self_s("job")
    return out
