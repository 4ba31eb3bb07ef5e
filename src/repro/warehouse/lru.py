"""LRU result-cache baseline (paper §VI-A, "the LRU cache in the DBMS").

Models the off-the-shelf alternative S/C is compared against: the
engine's query-result cache, grown by the same amount of memory S/C
gets as Memory Catalog. Execution is a plain topological order with
*synchronous* writes (no reordering, no overlapped materialization);
each node's result is computed into an LRU cache of capacity M, which
then evicts least-recently-used entries, and written from the cache.
A child whose parent is still cached reads it from memory; otherwise it
re-reads storage (paying the emulated-NFS delay when a storage model is
given). Eviction goes through the Controller's ``release_cached``, which
re-points the evicted view at its Parquet copy without uncaching the
cached entries built on it.
"""
from __future__ import annotations

import os
import time
from collections import OrderedDict

from pyspark.sql import SparkSession
from pyspark.storagelevel import StorageLevel

from repro.warehouse.executor import (
    NodeTiming,
    RunReport,
    is_cached,
    no_opt_plan,
    register_base_tables,
    release_cached,
    write_parquet,
)
from repro.warehouse.storage import StorageModel
from repro.workloads.spec import WorkloadSpec


def run_workload_lru(
    spark: SparkSession,
    wl: WorkloadSpec,
    sizes: dict[str, float],
    capacity: float,
    out_dir: str,
    base_paths: dict[str, str],
    *,
    storage: StorageModel | None = None,
) -> RunReport:
    """Refresh all MVs with an LRU result cache of ``capacity`` bytes."""
    os.makedirs(out_dir, exist_ok=True)
    register_base_tables(spark, base_paths)
    plan = no_opt_plan(wl)
    cache: OrderedDict[str, object] = OrderedDict()
    cache_bytes: dict[str, float] = {}
    report = RunReport(
        workload=wl.name,
        plan_order=tuple(wl.node_names[i] for i in plan.order),
        flagged=frozenset(),
        total_s=0.0,
    )

    def path(name: str) -> str:
        return os.path.join(out_dir, name)

    def used() -> float:
        return sum(cache_bytes.values())

    def evict_over_capacity() -> None:
        # A later node may still read an evicted one: from its Parquet copy.
        while used() > capacity:
            name, df = cache.popitem(last=False)
            cache_bytes.pop(name)
            release_cached(spark, name, df, path(name))

    t0 = time.perf_counter()
    try:
        for i in plan.order:
            nd = wl.nodes[i]
            mem_p = 0
            te = time.perf_counter()
            for p in nd.parents:
                if p in cache and is_cached(cache[p]):
                    cache.move_to_end(p)  # LRU touch
                    mem_p += 1
                elif storage:
                    storage.pay_read(sizes[p])
            df = spark.sql(nd.sql)
            nbytes = sizes[nd.name]
            if nbytes <= capacity:
                # Fill the cache while the parents are still in it, then
                # evict, then write from the cache: computed once, as in
                # the Controller.
                df = df.persist(StorageLevel.MEMORY_AND_DISK)
                cache[nd.name] = df
                cache_bytes[nd.name] = nbytes
                df.count()
                evict_over_capacity()
                df.createOrReplaceTempView(nd.name)
            write_parquet(df, path(nd.name), nbytes)  # synchronous baseline
            if storage:
                storage.pay_write(nbytes)
            if nd.name not in cache:
                spark.read.parquet(path(nd.name)).createOrReplaceTempView(
                    nd.name
                )
            report.nodes.append(
                NodeTiming(
                    nd.name, False, time.perf_counter() - te,
                    mem_p, len(nd.parents) - mem_p,
                )
            )
            report.peak_catalog_bytes = max(report.peak_catalog_bytes, used())
    finally:
        for name, df in cache.items():
            release_cached(spark, name, df)
    report.total_s = time.perf_counter() - t0
    return report
