"""S/C Controller: performs an MV refresh run on Spark (paper §III).

``run_workload`` executes the workload's nodes one by one in the plan's
order, directing where each output lives (paper Fig. 6):

* **flagged** node → created directly in the Memory Catalog
  (``persist()`` + materialize) and registered under its MV name so
  downstream SQL reads it from memory; its Parquet files are encoded
  locally right away (CPU work, kept on the critical path — it cannot
  be hidden on shared cores) and the *storage transfer* to "NFS" runs
  on a single-worker background thread, overlapping downstream compute
  exactly like the paper's disk channel;
* **unflagged** node → encoded and transferred synchronously;
  downstream reads re-scan Parquet and pay the transfer delay.

A flagged node is released (unpersisted, catalog slot freed) as soon as
its last child finishes — but never before its background
materialization completed, so every MV is always fully persisted by the
end of the run (the paper's SLA guarantee). Childless flagged nodes are
freed at the end of the run, matching the planner's conservative
residency model (`core.graph`).

Release is ``unpersist()`` only (``release_cached``, shared with the
LRU baseline). The released node's view stays as it is, since no reader
of it remains. Re-pointing it at the Parquet copy with
``createOrReplaceTempView`` would uncache, in cascade, every cached
frame whose plan embeds the old view, i.e. every still-resident flagged
descendant, and their children would recompute the whole lineage.
``NodeTiming.mem_parents`` counts the parents Spark still holds in its
cache when the child's SQL is issued.

If a node fails, the run waits out its background writes and unpersists
every frame it cached before the error propagates.

``storage`` is the optional emulated-NFS model (`warehouse.storage`):
reads of disk-resident tables and all writes additionally pay
``bytes/bandwidth``; background writes pay it in the writer thread, so
the delay overlaps downstream compute exactly as the paper's
materialization does. ``storage=None`` runs against raw local disk.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from pyspark.sql import SparkSession
from pyspark.storagelevel import StorageLevel

from repro.core.graph import Plan
from repro.warehouse.catalog import MemoryCatalog
from repro.warehouse.storage import StorageModel
from repro.workloads.spec import WorkloadSpec

# Target bytes per output partition: small MVs collapse to one file so
# the fixed per-task/commit overhead does not swamp byte costs.
_PARTITION_BYTES = 4 << 20


def n_output_partitions(est_bytes: float) -> int:
    """Partition count for writing an MV of ``est_bytes`` (clamped 1–16)."""
    return max(1, min(16, int(est_bytes // _PARTITION_BYTES) + 1))


def write_parquet(df, path: str, est_bytes: float) -> None:
    """Local Parquet encode of an MV of ``est_bytes`` to ``path``."""
    df.coalesce(n_output_partitions(est_bytes)).write.mode(
        "overwrite"
    ).parquet(path)


def is_cached(df) -> bool:
    """Whether Spark currently holds ``df``'s plan in its cache."""
    return df.storageLevel != StorageLevel.NONE


def release_cached(
    spark: SparkSession, name: str, df, disk_path: str | None = None
) -> None:
    """Drop ``name``'s cached frame ``df`` from Spark's cache. With
    ``disk_path``, later readers of ``name`` read its Parquet copy.

    The view is dropped before the disk view is registered: replacing a
    temp view in place uncaches, in cascade, every cached frame built on
    it, while ``unpersist`` and ``dropTempView`` uncache only this one.
    """
    df.unpersist()
    if disk_path is not None:
        spark.catalog.dropTempView(name)
        spark.read.parquet(disk_path).createOrReplaceTempView(name)


@dataclass
class NodeTiming:
    name: str
    flagged: bool
    exec_s: float  # SQL, cache fill if flagged, encode, sync transfer
    mem_parents: int  # parents read from Spark's cache
    disk_parents: int  # parents read from storage (or recomputed)


@dataclass
class RunReport:
    workload: str
    plan_order: tuple[str, ...]
    flagged: frozenset[str]
    total_s: float
    nodes: list[NodeTiming] = field(default_factory=list)
    peak_catalog_bytes: float = 0.0
    async_write_wait_s: float = 0.0  # tail wait for background writes


def register_base_tables(spark: SparkSession, paths: dict[str, str]) -> None:
    """Expose base tables to SQL as views over their Parquet files (the
    Hive-catalog analogue)."""
    for name, path in paths.items():
        spark.read.parquet(path).createOrReplaceTempView(name)


def no_opt_plan(wl: WorkloadSpec) -> Plan:
    """The unoptimized baseline: plain topological order, nothing flagged
    (paper's "raw engine")."""
    idx = {n: i for i, n in enumerate(wl.node_names)}
    order = []
    seen: set[str] = set()
    for nd in wl.nodes:  # declaration order is topological
        assert all(p in seen for p in nd.parents)
        seen.add(nd.name)
        order.append(idx[nd.name])
    return Plan(tuple(order), frozenset())


def run_workload(
    spark: SparkSession,
    wl: WorkloadSpec,
    plan: Plan,
    sizes: dict[str, float],
    budget: float,
    out_dir: str,
    base_paths: dict[str, str],
    *,
    storage: StorageModel | None = None,
) -> RunReport:
    """Perform one MV refresh run under ``plan``; returns timing report.

    ``sizes`` are the Optimizer's estimated output sizes (bytes) used
    for Memory Catalog accounting, write partitioning, and storage
    delays; ``budget`` is the catalog bound M. All MVs end up
    materialized under ``out_dir/<name>``.
    """
    os.makedirs(out_dir, exist_ok=True)
    register_base_tables(spark, base_paths)
    names = wl.node_names
    flagged_names = frozenset(names[i] for i in plan.flagged)
    catalog = MemoryCatalog(budget)
    pending_children = {
        n: sum(1 for nd in wl.nodes for p in nd.parents if p == n)
        for n in names
    }
    cached_dfs: dict[str, object] = {}
    write_futures: dict[str, Future] = {}
    report = RunReport(
        workload=wl.name,
        plan_order=tuple(names[i] for i in plan.order),
        flagged=flagged_names,
        total_s=0.0,
    )

    def encode(df, name: str) -> None:
        """Local Parquet encode (synchronous; CPU work stays on the
        critical path for both plans so overlap never hides compute)."""
        write_parquet(df, os.path.join(out_dir, name), sizes[name])

    def transfer(name: str) -> None:
        """Emulated NFS transfer of the encoded output — pure channel
        time, no CPU. For flagged nodes it runs on the single-worker
        background pool (the paper's disk channel), overlapping
        downstream compute exactly as the simulator accounts it."""
        if storage:
            storage.pay_write(sizes[name])

    def pay_disk_reads(nd) -> None:
        """Storage delays for ``nd``'s disk-resident *intermediate*
        inputs (unflagged or already-released parents). Base tables stay
        on fast local storage — S/C's mechanism concerns intermediate
        materialization, and exempting base scans isolates exactly the
        I/O it can short-circuit (DESIGN.md §4.1)."""
        if not storage:
            return
        for p in nd.parents:
            if p not in catalog:
                storage.pay_read(sizes[p])

    # A flagged node whose children all finished becomes *releasable*:
    # its catalog slot frees once the background write completes. The
    # pipeline never blocks on that — finalization is lazy, and only a
    # catalog reservation that actually needs the space waits for it.
    releasing: dict[str, Future] = {}

    def finalize_done() -> None:
        for name in [n for n, f in releasing.items() if f.done()]:
            f = releasing.pop(name)
            f.result()  # surface background-write errors
            release_cached(spark, name, cached_dfs.pop(name))
            catalog.release(name)

    def reserve(name: str, nbytes: float) -> None:
        """Claim catalog space, waiting out pending releases if the
        budget is momentarily exhausted; raises only when no pending
        release could ever free enough (an infeasible plan)."""
        finalize_done()
        while catalog.used + nbytes > catalog.budget + 1e-9 and releasing:
            wait(list(releasing.values()), return_when=FIRST_COMPLETED)
            finalize_done()
        catalog.add(name, nbytes)  # raises CatalogOverflowError if over

    t0 = time.perf_counter()
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:  # one storage channel
            for i in plan.order:
                nd = wl.nodes[i]
                finalize_done()
                mem_p = sum(
                    1 for p in nd.parents
                    if p in cached_dfs and is_cached(cached_dfs[p])
                )
                te = time.perf_counter()
                pay_disk_reads(nd)
                df = spark.sql(nd.sql)
                if nd.name in flagged_names:
                    reserve(nd.name, sizes[nd.name])
                    df = df.persist(StorageLevel.MEMORY_AND_DISK)
                    cached_dfs[nd.name] = df  # cleaned up even if the fill fails
                    df.count()  # materialize into the Memory Catalog
                    df.createOrReplaceTempView(nd.name)
                    # encode locally now; ship to "NFS" in the background
                    encode(df, nd.name)
                    write_futures[nd.name] = pool.submit(transfer, nd.name)
                else:
                    encode(df, nd.name)
                    transfer(nd.name)  # synchronous transfer, critical path
                    spark.read.parquet(
                        os.path.join(out_dir, nd.name)
                    ).createOrReplaceTempView(nd.name)
                report.nodes.append(
                    NodeTiming(
                        nd.name, nd.name in flagged_names,
                        time.perf_counter() - te,
                        mem_p, len(nd.parents) - mem_p,
                    )
                )
                for p in nd.parents:
                    pending_children[p] -= 1
                    if (
                        pending_children[p] == 0
                        and p in catalog
                        and p not in releasing
                    ):
                        releasing[p] = write_futures.pop(p)
            # Childless flagged nodes and any writes still in flight.
            tw = time.perf_counter()
            for n in list(write_futures):
                releasing[n] = write_futures.pop(n)
            if releasing:
                wait(list(releasing.values()))
                finalize_done()
            report.async_write_wait_s = time.perf_counter() - tw
    finally:
        # Empty after a clean run. After a failure the pool has waited
        # out the background writes; drop what is still cached.
        for name, df in cached_dfs.items():
            release_cached(spark, name, df)
    report.total_s = time.perf_counter() - t0
    report.peak_catalog_bytes = catalog.peak
    return report
