"""Set-up, timed window and metrics of one benchmark run (see run.py)."""
from __future__ import annotations

import argparse
import contextlib
import glob
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import duckdb
import pyarrow.parquet as pq
from pyspark import SparkContext
from pyspark.sql import SparkSession

import checks
from probes import (
    CachedBytesSampler,
    CatalogWaits,
    OptimizerProbe,
    RecordingStorage,
    SparkJobs,
    StorageRecord,
    Tracer,
)
from repro.core.alternating import optimize
from repro.core.graph import Plan
from repro.experiments import nominal_bytes
from repro.sim.engine import simulate_run
from repro.synth_data import write_tpcds
from repro.warehouse.executor import RunReport, no_opt_plan, run_workload
from repro.warehouse.lru import run_workload_lru
from repro.warehouse.metadata import build_depgraph, profile_workload
from repro.warehouse.storage import EMULATED_NFS, StorageModel
from repro.workloads.generator import GenParams, generate_dag
from repro.workloads.tpcds import workload


@dataclass(frozen=True)
class Workload:
    dag: str  # a Table III workload of repro.workloads.tpcds
    sf: float  # TPC-DS-lite scale factor (1.0 ~ 1 GB nominal)
    plan_seed: int  # generator seed of its planning suite
    budget_frac: float = 0.016  # Memory Catalog M as a share of sf x 1 GB

    def storage_model(self) -> StorageModel:
        """EMULATED_NFS charging each transfer as if the data had scale
        factor IO_SF: at SF 0.01-0.02 the real MV bytes are too few for
        the calibrated bandwidth to cost anything measurable."""
        k = self.sf / IO_SF
        return StorageModel(
            EMULATED_NFS.read_bw * k, EMULATED_NFS.write_bw * k
        )


# io-refresh: the I/O 2 DAG, whose MVs are about twice M, so the
# Memory Catalog, the background writer and emulated I/O matter.
# compute-refresh: the Compute 2 DAG with M = 0.2 %, so that few MVs are
# flagged and Spark work dominates. At M = 1.6 % this scaled run flags
# 8-14 of its 16 MVs and an S/C refresh takes 14-27 s against 8-9 s
# unoptimized, varying with the plan the noisy profile yields.
WORKLOADS = {
    "io-refresh": Workload("io2_yoy_sales", 0.02, 0),
    "compute-refresh": Workload("compute2_cross_channel", 0.01, 1, 0.002),
}
IO_SF = 0.05
PLAN_BUDGET_FRAC = 0.016  # M of a planning-suite DAG, share of its bytes
PLAN_SIZES = (50, 75, 100)  # node counts of the generated planning DAGs
SPARK_CORES = 4


@dataclass
class Ledger:
    """Operations attempted and failed; a failed one names its problems."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


@dataclass
class Refresh:
    method: str
    wall_s: float
    report: RunReport
    storage: StorageRecord
    traced: bool
    end: float  # perf_counter() when the refresh call returned
    catalog_wait_s: float
    jobs: int = 0
    cached_peak: float = 0.0

    @property
    def bg_overlap_frac(self) -> float:
        return self.storage.bg_overlap_frac(
            self.end - self.report.async_write_wait_s
        )

    @property
    def uncovered_s(self) -> float:
        """Refresh time outside every node's ``NodeTiming.exec_s`` and the
        tail wait: view registration, releases and bookkeeping."""
        return (
            self.wall_s - sum(n.exec_s for n in self.report.nodes)
            - self.report.async_write_wait_s
        )

    @property
    def busy_s(self) -> float:
        """Wall time minus the Controller thread's emulated sleep and its
        waits for background writes (for a catalog slot, measured only
        when traced, and at the end): time spent in Spark work."""
        return (
            self.wall_s - self.storage.sync_s - self.catalog_wait_s
            - self.report.async_write_wait_s
        )


def start_spark(work: str):
    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{min(SPARK_CORES, os.cpu_count() or 1)}]")
        .config("spark.driver.memory", "1g")
        .config("spark.local.dir", os.path.join(work, "spark-local"))
        .config("spark.sql.warehouse.dir", os.path.join(work, "warehouse"))
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "2")
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.session.timeZone", "UTC")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    try:
        spark.stop()
    finally:
        if gateway is not None:
            gateway.shutdown()
        if proc is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                proc.wait(timeout=30)
            except Exception:
                proc.kill()
                proc.wait()


def timing(values: list[float]) -> str:
    """Median, range and sample count (runs are too short for a
    percentile with ten samples beyond it)."""
    return (
        f"median {statistics.median(values):.4f}, min {min(values):.4f}, "
        f"max {max(values):.4f}, n={len(values)}"
    )


class Bench:
    """One benchmark run: set-up, the timed window, then the checks."""

    def __init__(self, args, work: str, cfg: Workload | None = None) -> None:
        self.args = args
        self.work = work
        self.cfg = cfg or WORKLOADS[args.workload]
        self.tracer = Tracer(
            f"{args.workload}/seed{args.seed}", bool(args.trace)
        )
        self.storage = RecordingStorage(self.cfg.storage_model(), self.tracer)
        self.opt_probe = OptimizerProbe(self.tracer) if args.trace else None
        self.ledger = Ledger()
        self.stages: dict[str, float] = {}
        self.refreshes: list[Refresh] = []
        self.plan_times: list[float] = []
        self.plan_score = 0.0
        self.planning_s = 0.0
        self.reference = None

    # ---- set-up ------------------------------------------------------------
    def stage(self, name: str, fn, *args, **kwargs):
        with self.tracer.span(name):
            t = time.perf_counter()
            out = fn(*args, **kwargs)
            self.stages[name] = time.perf_counter() - t
        return out

    def setup_planning(self) -> None:
        self.suite = self.stage("generator.generate_dag", lambda: [
            generate_dag(GenParams(n_nodes=n, seed=self.cfg.plan_seed))
            for n in PLAN_SIZES
        ])

    def setup_refresh(self) -> None:
        cfg, work = self.cfg, self.work
        self.spark = self.stage("spark.start", start_spark, work)
        self.base = self.stage(
            "synth_data.write_tpcds", write_tpcds, self.spark,
            os.path.join(work, "base"), sf=cfg.sf, seed=self.args.seed,
        )
        self.wl = workload(cfg.dag)
        self.profile = self.stage(
            "metadata.profile_workload", profile_workload, self.spark, self.wl,
            self.base, os.path.join(work, "profile"), storage=self.storage,
        )
        self.spark.catalog.clearCache()
        self.sizes = {
            n: self.profile.stats[n].out_bytes for n in self.wl.node_names
        }
        self.budget = cfg.budget_frac * nominal_bytes(cfg.sf)
        self.graph = g = build_depgraph(self.wl, self.profile)
        self.sc_plan = self.stage(
            "alternating.optimize", optimize, g, self.budget
        ).plan
        self.ledger.record(
            "S/C plan", checks.plan_problems(g, self.sc_plan, self.budget)
        )
        self.noopt_plan = no_opt_plan(self.wl)

    @property
    def setup_s(self) -> float:
        return sum(self.stages.values())

    # ---- timed window -----------------------------------------------------
    def measure_planning(self) -> None:
        """Plan every suite DAG once with the default optimizer (MKP +
        MA-DFS). Runs before Spark starts, so no JVM thread competes."""
        t0 = time.perf_counter()
        with self.tracer.span("window.planning"), (
            self.opt_probe.installed() if self.opt_probe
            else contextlib.nullcontext()
        ):
            for g in self.suite:
                budget = PLAN_BUDGET_FRAC * sum(g.sizes)
                t = time.perf_counter()
                try:
                    if self.opt_probe:
                        res = self.opt_probe.optimize(g, budget)
                    else:
                        res = optimize(g, budget)
                except Exception as e:  # counted, not raised
                    self.ledger.record(f"plan n={g.n}", [repr(e)])
                    continue
                self.plan_times.append(time.perf_counter() - t)
                self.plan_score += res.score
                self.ledger.record(
                    f"plan n={g.n}", checks.plan_problems(g, res.plan, budget)
                )
        self.planning_s = time.perf_counter() - t0

    def refresh(self, method: str, traced: bool) -> None:
        """One refresh under ``method``; timed, then checked untimed."""
        out_dir = os.path.join(self.work, "out", method)
        tracer = self.tracer
        tracer.enabled = traced
        jobs = SparkJobs(self.spark) if traced else None
        sampler = CachedBytesSampler(self.spark) if traced else None
        waits = CatalogWaits()
        with tracer.span(f"refresh.{method}") as sid:
            rec = self.storage.start_refresh(sid)
            with (jobs.group(method) if jobs else contextlib.nullcontext()) \
                    as job_count, (sampler or contextlib.nullcontext()), \
                    (waits.installed() if traced else contextlib.nullcontext()):
                t = time.perf_counter()
                try:
                    if method == "lru":
                        report = run_workload_lru(
                            self.spark, self.wl, self.sizes, self.budget,
                            out_dir, self.base, storage=self.storage,
                        )
                    else:
                        plan, budget = (
                            (self.sc_plan, self.budget) if method == "sc"
                            else (self.noopt_plan, 0.0)
                        )
                        report = run_workload(
                            self.spark, self.wl, plan, self.sizes, budget,
                            out_dir, self.base, storage=self.storage,
                        )
                    end = time.perf_counter()
                    error = None
                except Exception as e:  # counted, not raised
                    error = repr(e)
        tracer.enabled = bool(self.args.trace)
        if error:
            self.ledger.record(f"refresh {method}", [error])
            return
        problems = []
        if self.reference is None and method == "noopt":
            try:
                self.reference = checks.read_outputs(
                    out_dir, self.wl.node_names
                )
            except (FileNotFoundError, duckdb.Error) as e:
                problems.append(f"unreadable output: {e}")
        if self.reference is None:
            problems.append("no reference output")
        else:
            problems += checks.output_problems(out_dir, self.reference)
        if report.peak_catalog_bytes > self.budget + 1e-9:
            problems.append(
                f"planned catalog peak {report.peak_catalog_bytes:.0f} B > M"
            )
        if self.ledger.record(f"refresh {method}", problems):
            self.refreshes.append(Refresh(
                method, end - t, report, rec, traced, end, waits.wait_s,
                jobs=job_count["jobs"] if jobs else 0,
                cached_peak=sampler.peak if sampler else 0.0,
            ))

    def measure_refreshes(self) -> None:
        """Closed-loop rounds of one refresh per method. A round starts
        only while it is expected to end within the time ``--seconds``
        leaves after planning; the first round always runs. A traced run
        adds an untraced S/C refresh (for the tracing overhead) and the
        LRU baseline to each round."""
        trace = bool(self.args.trace)
        methods = (
            [("noopt", True), ("sc", False), ("sc", True), ("lru", True)]
            if trace else [("noopt", False), ("sc", False)]
        )
        t0 = time.perf_counter()
        deadline = t0 + self.args.seconds - self.planning_s
        with self.tracer.span("window.refresh"):
            while True:
                start = time.perf_counter()
                for method, traced in methods:
                    self.refresh(method, traced)
                now = time.perf_counter()
                if now + (now - start) > deadline:
                    break

    # ---- results -----------------------------------------------------------
    def walls(self, method: str, traced: bool | None = None) -> list[float]:
        return [
            r.wall_s for r in self.refreshes
            if r.method == method and (traced is None or r.traced == traced)
        ]

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "sc_refresh_s": (statistics.median(self.walls("sc")), "s"),
            "noopt_refresh_s": (statistics.median(self.walls("noopt")), "s"),
            "setup_s": (self.setup_s, "s"),
        }

    def predicted_s(self, method: str) -> float:
        """``simulate_run``'s refresh time for the no-opt or S/C plan."""
        plan = self.sc_plan if method == "sc" else self.noopt_plan
        return simulate_run(self.wl, self.profile, plan).end_to_end_s

    def per_layer(self) -> dict[str, tuple[float, str]]:
        def of(method: str) -> list[Refresh]:
            return [r for r in self.refreshes if r.method == method and r.traced]

        def med(refreshes: list[Refresh], value) -> float:
            return statistics.median(value(r) for r in refreshes)

        def node_sum(r: Refresh, value) -> float:
            return sum(value(n) for n in r.report.nodes)

        def sim_err(method: str) -> float:
            measured = statistics.median(self.walls(method))
            return abs(self.predicted_s(method) - measured) / measured

        sc, noopt, lru = of("sc"), of("noopt"), of("lru")
        opt = self.opt_probe.record
        m = self.budget
        lru_reads = sum(
            node_sum(r, lambda n: n.mem_parents + n.disk_parents) for r in lru
        )
        lru_hits = sum(node_sum(r, lambda n: n.mem_parents) for r in lru)
        return {
            "synth_data.write_s": (self.stages["synth_data.write_tpcds"], "s"),
            "metadata.profile_s": (self.stages["metadata.profile_workload"], "s"),
            "plan.time_s": (statistics.mean(self.plan_times), "s"),
            "plan.score": (self.plan_score, "s_saved"),
            "constraints.time_s": (opt.constraints_s / opt.calls, "s"),
            "constraints.sets": (
                opt.constraint_sets / opt.constraint_calls, "count"
            ),
            "mkp.time_s": (opt.mkp_s / opt.calls, "s"),
            "mkp.explored": (opt.mkp_explored, "count"),
            "mkp.optimal_frac": (opt.mkp_optimal / opt.mkp_calls, "frac"),
            "madfs.time_s": (opt.madfs_s / opt.calls, "s"),
            "alternating.iterations": (opt.iterations / opt.calls, "count"),
            "alternating.line8_exits": (opt.line8_exits, "count"),
            "executor.node_exec_s": (
                med(sc, lambda r: node_sum(r, lambda n: n.exec_s)), "s"
            ),
            "executor.tail_wait_s": (
                med(sc, lambda r: r.report.async_write_wait_s), "s"
            ),
            "catalog.wait_s": (med(sc, lambda r: r.catalog_wait_s), "s"),
            "executor.uncovered_s": (med(sc, lambda r: r.uncovered_s), "s"),
            "executor.mem_parent_reads": (
                med(sc, lambda r: node_sum(r, lambda n: n.mem_parents)), "count"
            ),
            "executor.disk_parent_reads": (
                med(sc, lambda r: node_sum(r, lambda n: n.disk_parents)), "count"
            ),
            "storage.sync_read_s": (med(sc, lambda r: r.storage.sync_read_s), "s"),
            "storage.sync_write_s": (
                med(sc, lambda r: r.storage.sync_write_s), "s"
            ),
            "storage.bg_write_s": (med(sc, lambda r: r.storage.bg_write_s), "s"),
            "storage.bg_overlap_frac": (
                med(sc, lambda r: r.bg_overlap_frac), "frac"
            ),
            "storage.read_bytes": (med(sc, lambda r: r.storage.read_bytes), "B"),
            "storage.write_bytes": (
                med(sc, lambda r: r.storage.write_bytes), "B"
            ),
            "storage.noopt_sync_s": (med(noopt, lambda r: r.storage.sync_s), "s"),
            "catalog.planned_peak_frac": (
                med(sc, lambda r: r.report.peak_catalog_bytes / m), "frac"
            ),
            "catalog.spark_cached_peak_frac": (
                max(r.cached_peak for r in sc) / m, "frac"
            ),
            "lru.refresh_s": (med(lru, lambda r: r.wall_s), "s"),
            "lru.hit_ratio": (lru_hits / max(lru_reads, 1), "frac"),
            "spark.jobs.noopt": (med(noopt, lambda r: r.jobs), "count"),
            "spark.jobs.sc": (med(sc, lambda r: r.jobs), "count"),
            "spark.jobs.lru": (med(lru, lambda r: r.jobs), "count"),
            "spark.busy_s.noopt": (med(noopt, lambda r: r.busy_s), "s"),
            "spark.busy_s.sc": (med(sc, lambda r: r.busy_s), "s"),
            "sim.err_frac.noopt": (sim_err("noopt"), "frac"),
            "sim.err_frac.sc": (sim_err("sc"), "frac"),
            "trace.overhead_s": (
                statistics.median(self.walls("sc", True))
                - statistics.median(self.walls("sc", False)), "s"
            ),
        }

    def describe(self, metrics: dict[str, tuple[float, str]]) -> None:
        """Human-readable report: sizes, every refresh, every metric."""
        ws = sum(self.sizes.values())
        print(
            f"{self.args.workload} seed={self.args.seed}: {self.cfg.dag} "
            f"SF={self.cfg.sf} M={self.budget:.0f} B, MV bytes {ws:.0f} B "
            f"= {ws / self.budget:.2f} x M, {len(self.sc_plan.flagged)} of "
            f"{len(self.wl.nodes)} MVs flagged"
        )
        print("set-up stages: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in self.stages.items()
        ))
        for r in self.refreshes:
            traced = "traced" if r.traced else "untraced"
            print(
                f"  refresh {r.method:<5} {traced:<8} "
                f"wall {r.wall_s:.3f} s = spark busy {r.busy_s:.3f} s "
                f"+ sync emulated I/O {r.storage.sync_s:.3f} s "
                + (f"+ catalog wait {r.catalog_wait_s:.3f} s " if r.traced else "")
                + f"+ tail wait {r.report.async_write_wait_s:.3f} s "
                f"(background writes {r.storage.bg_write_s:.3f} s; "
                f"outside every node's exec_s: {r.uncovered_s:.3f} s)"
            )
        samples = {
            "sc_refresh_s": self.walls("sc"),
            "noopt_refresh_s": self.walls("noopt"),
            "lru.refresh_s": self.walls("lru"),
            "plan.time_s": self.plan_times,
        }
        for method in ("noopt", "sc"):
            print(
                f"  {method}: simulate_run predicts "
                f"{self.predicted_s(method):.3f} s, measured median "
                f"{statistics.median(self.walls(method)):.3f} s"
            )
        for name, (value, unit) in metrics.items():
            extra = f"  ({timing(samples[name])})" if name in samples else ""
            print(f"{name} = {value:.6g} {unit}{extra}")
        if self.plan_times:  # reported, not gated
            print(
                f"plan_s = {statistics.mean(self.plan_times):.6g} s mean per "
                f"optimize() call  ({timing(self.plan_times)})"
            )
        led = self.ledger
        print(
            f"failed_frac = {led.failed}/{led.attempted} = "
            f"{led.failed / led.attempted:.4g}"
        )
        for problem in led.problems:
            print(f"  FAILED {problem}")


def run(args, work: str, trace_dir: str) -> dict:
    """One run of ``args.workload``; returns the result object."""
    b = Bench(args, work)
    if args.trace:
        b.setup_planning()
        b.measure_planning()
    try:
        b.setup_refresh()
        b.measure_refreshes()
    finally:
        if getattr(b, "spark", None) is not None:
            stop_spark(b.spark)
    metrics = b.per_layer() if args.trace else b.end_to_end()
    b.describe(metrics)
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        b.tracer.write(path)
        print(f"spans -> {path}")
    return {
        "correct": b.ledger.failed == 0,
        "attempted": b.ledger.attempted,
        "failed": b.ledger.failed,
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
        },
    }


def self_test(work: str) -> int:
    """Show, at SF 0.002, that the checks count an injected wrong MV and
    an infeasible plan (both in the plan check and as a failed refresh).
    Returns the exit code: 0 when every injected fault was counted."""
    args = argparse.Namespace(workload="self-test", seed=0, seconds=0, trace=0)
    b = Bench(args, work, Workload("io2_yoy_sales", 0.002, 0))
    try:
        b.setup_refresh()
        b.refresh("noopt", traced=False)
        b.refresh("sc", traced=False)
        clean = b.ledger.failed == 0
        # A wrong MV: drop one row of a non-empty S/C output.
        out = os.path.join(work, "out", "sc")
        victim = next(n for n, df in b.reference.items() if len(df))
        files = sorted(glob.glob(os.path.join(out, victim, "*.parquet")))
        con = duckdb.connect()
        rows = con.execute(
            "SELECT * FROM read_parquet(?)", [files]
        ).fetch_arrow_table().slice(1)
        con.close()
        shutil.rmtree(os.path.join(out, victim))
        os.makedirs(os.path.join(out, victim))
        pq.write_table(rows, os.path.join(out, victim, "part-0.parquet"))
        wrong_mv = not b.ledger.record(
            "injected wrong MV",
            checks.output_problems(out, {victim: b.reference[victim]}),
        )
        # An infeasible plan: flag every MV under the same M.
        bad = Plan(b.sc_plan.order, frozenset(range(len(b.wl.nodes))))
        bad_plan = not b.ledger.record(
            "injected infeasible plan",
            checks.plan_problems(b.graph, bad, b.budget),
        )
        b.sc_plan = bad
        failed_before = b.ledger.failed
        b.refresh("sc", traced=False)
        bad_refresh = b.ledger.failed == failed_before + 1
    finally:
        stop_spark(b.spark)
    for problem in b.ledger.problems:
        print(f"  counted: {problem}")
    verdicts = {
        "clean refreshes pass": clean,
        "wrong MV counted": wrong_mv,
        "infeasible plan counted": bad_plan,
        "refresh under infeasible plan counted": bad_refresh,
    }
    for what, ok in verdicts.items():
        print(f"self-test: {what}: {'yes' if ok else 'NO'}")
    print(f"self-test: failed {b.ledger.failed} of {b.ledger.attempted}")
    return 0 if all(verdicts.values()) else 1
