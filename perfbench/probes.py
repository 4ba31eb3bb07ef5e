"""Measurement probes placed around the public entry points of ``repro``.

Every probe times or counts a call and passes its arguments and result
through unchanged, so a probed run computes exactly what an unprobed run
computes:

* ``Tracer`` keeps spans (name, start, end, parent, run id) in memory and
  writes them once, when the run ends;
* ``RecordingStorage`` is the emulated-NFS ``StorageModel`` handed to the
  Controller through ``storage=``; it splits the emulated sleep between
  the Controller thread and the single background writer and counts
  bytes;
* ``OptimizerProbe`` times constraint generation, the MKP and MA-DFS by
  wrapping the ``repro.core.flagging`` attributes that ``simplified_mkp``
  looks up and by passing timed callables to ``optimize``;
* ``CatalogWaits`` times the Controller's waits for a Memory Catalog
  slot by wrapping the ``wait`` that ``repro.warehouse.executor`` looks
  up;
* ``SparkJobs`` counts Spark jobs per refresh through job groups, and
  ``CachedBytesSampler`` samples Spark's cached bytes from
  ``getRDDStorageInfo()``.
"""
from __future__ import annotations

import contextlib
import inspect
import json
import threading
import time
from concurrent.futures import ALL_COMPLETED, FIRST_COMPLETED
from dataclasses import dataclass, field

import repro.core.flagging as flagging
import repro.warehouse.executor as executor
from repro.core.alternating import OptResult, optimize
from repro.core.madfs import ma_dfs
from repro.warehouse.storage import StorageModel

_MAX_ITERATIONS = inspect.signature(optimize).parameters["max_iterations"].default


class Tracer:
    """In-memory span recorder. Disabled, ``span`` costs one branch."""

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Record ``name`` around the ``with`` body. The parent defaults to
        the innermost open span of the calling thread."""
        if not self.enabled:
            yield None
            return
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "id": sid, "name": name, "parent": parent,
                    "run": self.run_id,
                    "start": start - self._t0, "end": end - self._t0,
                    **attrs,
                })

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(sorted(self.spans, key=lambda s: s["start"]), f)


@dataclass
class StorageRecord:
    """Emulated storage time and bytes of one refresh."""

    sync_read_s: float = 0.0
    sync_write_s: float = 0.0
    bg_write_s: float = 0.0
    read_bytes: float = 0.0
    write_bytes: float = 0.0
    bg_intervals: list[tuple[float, float]] = field(default_factory=list)

    @property
    def sync_s(self) -> float:
        return self.sync_read_s + self.sync_write_s

    def bg_overlap_frac(self, tail_start: float) -> float:
        """Share of background-write time spent before the Controller
        began its tail wait, i.e. hidden behind downstream work."""
        if not self.bg_write_s:
            return 0.0
        hidden = sum(
            max(0.0, min(end, tail_start) - start)
            for start, end in self.bg_intervals
        )
        return hidden / self.bg_write_s


class RecordingStorage(StorageModel):
    """A ``StorageModel`` with the bandwidths of ``base`` that records
    where its emulated sleep happens. The Controller thread is the
    thread that called the refresh; every other thread is the
    background writer."""

    def __init__(self, base: StorageModel, tracer: Tracer) -> None:
        super().__init__(base.read_bw, base.write_bw)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "_controller", threading.main_thread())
        object.__setattr__(self, "refresh_span", None)
        object.__setattr__(self, "record", StorageRecord())

    def start_refresh(self, span: int | None) -> StorageRecord:
        """Begin a fresh record; background spans attach to ``span``."""
        object.__setattr__(self, "refresh_span", span)
        object.__setattr__(self, "record", StorageRecord())
        return self.record

    def pay_read(self, nbytes: float) -> None:
        self._pay("read", nbytes, super().pay_read)

    def pay_write(self, nbytes: float) -> None:
        self._pay("write", nbytes, super().pay_write)

    def _pay(self, kind: str, nbytes: float, pay) -> None:
        sync = threading.current_thread() is self._controller
        rec = self.record
        name = f"storage.{'sync' if sync else 'bg'}_{kind}"
        parent = None if sync else self.refresh_span
        with self._tracer.span(name, parent=parent, bytes=nbytes):
            start = time.perf_counter()
            pay(nbytes)
            end = time.perf_counter()
        with self._lock:
            if kind == "read":
                rec.read_bytes += nbytes
            else:
                rec.write_bytes += nbytes
            if not sync:
                rec.bg_write_s += end - start
                rec.bg_intervals.append((start, end))
            elif kind == "read":
                rec.sync_read_s += end - start
            else:
                rec.sync_write_s += end - start


@dataclass
class OptimizerRecord:
    """Optimizer layer totals over a set of ``optimize`` calls."""

    calls: int = 0
    constraints_s: float = 0.0
    constraint_sets: int = 0
    constraint_calls: int = 0
    mkp_s: float = 0.0
    mkp_calls: int = 0
    mkp_optimal: int = 0
    mkp_explored: int = 0
    madfs_s: float = 0.0
    iterations: int = 0
    line8_exits: int = 0


class OptimizerProbe:
    """Runs ``optimize`` (MKP + MA-DFS, the defaults) with each stage
    timed. Without a probe the benchmark calls ``optimize`` directly."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.record = OptimizerRecord()

    @contextlib.contextmanager
    def installed(self):
        """Wrap the constraint generator and MKP solver that
        ``simplified_mkp`` looks up in ``repro.core.flagging``."""
        get_constraints, solve_mkp = flagging.get_constraints, flagging.solve_mkp
        rec = self.record

        def timed_constraints(*args, **kwargs):
            with self.tracer.span("constraints.get_constraints"):
                t = time.perf_counter()
                cons = get_constraints(*args, **kwargs)
                rec.constraints_s += time.perf_counter() - t
            rec.constraint_calls += 1
            rec.constraint_sets += len(cons)
            return cons

        def timed_mkp(*args, **kwargs):
            with self.tracer.span("mkp.solve_mkp"):
                t = time.perf_counter()
                res = solve_mkp(*args, **kwargs)
                rec.mkp_s += time.perf_counter() - t
            rec.mkp_calls += 1
            rec.mkp_optimal += bool(res.optimal)
            rec.mkp_explored += res.explored
            return res

        flagging.get_constraints = timed_constraints
        flagging.solve_mkp = timed_mkp
        try:
            yield self
        finally:
            flagging.get_constraints = get_constraints
            flagging.solve_mkp = solve_mkp

    def optimize(self, g, budget: float) -> OptResult:
        rec = self.record
        scheduler_calls = 0

        def node_selector(*args, **kwargs):
            with self.tracer.span("flagging.simplified_mkp"):
                return flagging.simplified_mkp(*args, **kwargs)

        def order_scheduler(*args, **kwargs):
            nonlocal scheduler_calls
            scheduler_calls += 1
            with self.tracer.span("madfs.ma_dfs"):
                t = time.perf_counter()
                order = ma_dfs(*args, **kwargs)
                rec.madfs_s += time.perf_counter() - t
            return order

        with self.tracer.span("alternating.optimize", n_nodes=g.n):
            res = optimize(
                g, budget,
                node_selector=node_selector, order_scheduler=order_scheduler,
            )
        rec.calls += 1
        rec.iterations += res.iterations
        # Alg. 2 calls the order scheduler in its last iteration only
        # when it then exits at line 8 (a line-5 exit returns before it).
        rec.line8_exits += (
            scheduler_calls == res.iterations < _MAX_ITERATIONS
        )
        return res


class CatalogWaits:
    """Time ``run_workload`` spends blocked until a pending release frees
    catalog space: its ``wait(..., return_when=FIRST_COMPLETED)`` calls.
    The tail wait for the last background writes (ALL_COMPLETED) is
    already in ``RunReport.async_write_wait_s``."""

    def __init__(self) -> None:
        self.wait_s = 0.0

    @contextlib.contextmanager
    def installed(self):
        wait = executor.wait

        def timed_wait(fs, timeout=None, return_when=ALL_COMPLETED):
            t = time.perf_counter()
            try:
                return wait(fs, timeout=timeout, return_when=return_when)
            finally:
                if return_when == FIRST_COMPLETED:
                    self.wait_s += time.perf_counter() - t

        executor.wait = timed_wait
        try:
            yield self
        finally:
            executor.wait = wait


class SparkJobs:
    """Counts the Spark jobs started inside ``group`` from this thread."""

    def __init__(self, spark) -> None:
        self.sc = spark.sparkContext
        self._n = 0

    @contextlib.contextmanager
    def group(self, label: str):
        self._n += 1
        gid = f"perfbench-{self._n}-{label}"
        self.sc.setJobGroup(gid, label)
        counter = {"jobs": 0}
        try:
            yield counter
        finally:
            self.sc.setJobGroup("perfbench-idle", "idle")
            counter["jobs"] = len(self.sc.statusTracker().getJobIdsForGroup(gid))


class CachedBytesSampler:
    """Polls Spark's cached bytes (memory + disk over all persisted RDDs)
    on its own thread and keeps the peak."""

    def __init__(self, spark, interval_s: float = 0.05) -> None:
        self._jsc = spark.sparkContext._jsc
        self.interval_s = interval_s
        self.peak = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def cached_bytes(self) -> float:
        infos = self._jsc.sc().getRDDStorageInfo()
        return float(sum(i.memSize() + i.diskSize() for i in infos))

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, self.cached_bytes())
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "CachedBytesSampler":
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
