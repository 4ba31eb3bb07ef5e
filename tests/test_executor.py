"""Integration tests for the S/C Controller (warehouse.executor) and the
Memory Catalog, on real Spark executions.

The key guarantees (paper §III-C): plans execute in the given order;
flagged nodes live in the Memory Catalog within budget and are released
right after their last child; every MV — flagged or not — ends up fully
materialized on disk with exactly the declared contents.
"""
import os

import pytest
from pyspark.storagelevel import StorageLevel

from repro.core.alternating import optimize
from repro.core.graph import Plan
from repro.oracle import assert_equivalent
from repro.warehouse.catalog import CatalogOverflowError, MemoryCatalog
from repro.warehouse.executor import no_opt_plan, run_workload
from repro.warehouse.metadata import build_depgraph
from repro.warehouse.storage import StorageModel
from repro.workloads.spec import MVSpec, WorkloadSpec
from repro.workloads.tpcds import workload
from tests.conftest import duck_chain


class TestMemoryCatalog:
    def test_add_and_release(self):
        c = MemoryCatalog(10)
        c.add("a", 6)
        assert "a" in c and c.used == 6
        c.release("a")
        assert c.used == 0

    def test_overflow_raises(self):
        c = MemoryCatalog(10)
        c.add("a", 6)
        with pytest.raises(CatalogOverflowError):
            c.add("b", 5)

    def test_duplicate_raises(self):
        c = MemoryCatalog(10)
        c.add("a", 1)
        with pytest.raises(ValueError):
            c.add("a", 1)

    def test_peak_tracking(self):
        c = MemoryCatalog(10)
        c.add("a", 4)
        c.add("b", 5)
        c.release("a")
        c.add("c", 1)
        assert c.peak == 9


@pytest.fixture(scope="module")
def w5_run(spark, tpcds_base, tpcds_pdfs, w5_profile, tmp_path_factory):
    """One S/C refresh run of the Compute-2 workload under a
    deterministic non-trivial plan (size-proxy scores — see conftest)."""
    from tests.conftest import size_proxy_plan

    wl, prof = w5_profile
    plan, budget = size_proxy_plan(wl, prof)
    sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
    out = tmp_path_factory.mktemp("w5_out")
    rep = run_workload(spark, wl, plan, sizes, budget, str(out), tpcds_base)
    return wl, plan, rep, str(out), budget


class TestOptimizedRun:
    def test_runs_in_plan_order(self, w5_run):
        wl, plan, rep, _, _ = w5_run
        assert rep.plan_order == tuple(wl.node_names[i] for i in plan.order)

    def test_all_mvs_materialized(self, spark, w5_run):
        wl, _, _, out, _ = w5_run
        for n in wl.node_names:
            assert spark.read.parquet(os.path.join(out, n)).count() >= 0

    def test_peak_within_budget(self, w5_run):
        _, _, rep, _, budget = w5_run
        assert rep.peak_catalog_bytes <= budget + 1e-6

    def test_flagged_nodes_recorded(self, w5_run):
        wl, plan, rep, _, _ = w5_run
        assert rep.flagged == frozenset(
            wl.node_names[i] for i in plan.flagged
        )

    def test_children_of_flagged_read_from_memory(self, w5_run):
        """``mem_parents`` counts the parents Spark still holds in its
        cache when the child runs, so this checks Spark, not the
        Memory Catalog's bookkeeping."""
        wl, _, rep, _, _ = w5_run
        timing = {t.name: t for t in rep.nodes}
        for nd in wl.nodes:
            n_flagged_parents = sum(
                1 for p in nd.parents if p in rep.flagged
            )
            assert timing[nd.name].mem_parents == n_flagged_parents

    def test_flagged_outputs_match_oracle(self, spark, w5_run, tpcds_pdfs):
        """The short-circuit path must not change MV contents: compare
        the *materialized parquet* of flagged nodes against DuckDB."""
        wl, _, rep, out, _ = w5_run
        duck = duck_chain(wl, tpcds_pdfs)
        checked = 0
        for n in sorted(rep.flagged)[:4]:
            nd = wl.node(n)
            inputs = {t: tpcds_pdfs[t] for t in wl.base_tables}
            inputs.update({p: duck[p] for p in nd.parents})
            df = spark.read.parquet(os.path.join(out, n))
            assert_equivalent(df, nd.sql, **inputs)
            checked += 1
        assert checked > 0

    def test_terminal_output_matches_oracle(self, spark, w5_run, tpcds_pdfs):
        wl, _, _, out, _ = w5_run
        duck = duck_chain(wl, tpcds_pdfs)
        nd = wl.node("workload_summary")
        inputs = {t: tpcds_pdfs[t] for t in wl.base_tables}
        inputs.update({p: duck[p] for p in nd.parents})
        df = spark.read.parquet(os.path.join(out, "workload_summary"))
        assert_equivalent(df, nd.sql, **inputs)


class TestNoOptRun:
    def test_no_opt_plan_is_declaration_order(self):
        wl = workload("compute2_cross_channel")
        plan = no_opt_plan(wl)
        assert plan.flagged == frozenset()
        assert list(plan.order) == list(range(len(wl.nodes)))

    def test_no_opt_run_materializes_everything(
        self, spark, tpcds_base, w5_profile, tmp_path_factory
    ):
        wl, prof = w5_profile
        sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
        out = tmp_path_factory.mktemp("w5_noopt")
        rep = run_workload(
            spark, wl, no_opt_plan(wl), sizes, 0.0, str(out), tpcds_base
        )
        assert rep.peak_catalog_bytes == 0.0
        assert rep.flagged == frozenset()
        for n in wl.node_names:
            assert os.path.isdir(os.path.join(str(out), n))

    def test_no_opt_terminal_matches_optimized(
        self, spark, w5_run, tpcds_base, w5_profile, tmp_path_factory
    ):
        """Reordering + caching must not change any result: no-opt and
        optimized runs produce identical terminal MVs."""
        wl, prof = w5_profile
        _, _, _, opt_out, _ = w5_run
        sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
        out = tmp_path_factory.mktemp("w5_noopt_cmp")
        run_workload(
            spark, wl, no_opt_plan(wl), sizes, 0.0, str(out), tpcds_base
        )
        a = (
            spark.read.parquet(os.path.join(str(out), "mix_summary"))
            .toPandas()
            .sort_values(["channel", "d_year", "d_moy"])
            .reset_index(drop=True)
        )
        b = (
            spark.read.parquet(os.path.join(opt_out, "mix_summary"))
            .toPandas()
            .sort_values(["channel", "d_year", "d_moy"])
            .reset_index(drop=True)
        )
        import pandas as pd

        pd.testing.assert_frame_equal(
            a[sorted(a.columns)], b[sorted(b.columns)], check_dtype=False
        )


class TestInfeasiblePlan:
    def test_overflow_detected(self, spark, tpcds_base, w5_profile, tmp_path):
        """An infeasible plan (flag everything, near-zero budget) must
        trip the Memory Catalog accounting, not silently overcommit."""
        wl, prof = w5_profile
        sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
        plan = Plan(
            tuple(range(len(wl.nodes))), frozenset(range(len(wl.nodes)))
        )
        try:
            with pytest.raises(CatalogOverflowError):
                run_workload(
                    spark, wl, plan, sizes, 1.0, str(tmp_path), tpcds_base
                )
        finally:
            spark.catalog.clearCache()  # drop partially-persisted MVs


class SparkSpy:
    """A SparkSession that calls ``on_sql(text)`` before each ``sql``."""

    def __init__(self, spark, on_sql):
        self._spark = spark
        self._on_sql = on_sql

    def __getattr__(self, name):
        return getattr(self._spark, name)

    def sql(self, text):
        self._on_sql(text)
        return self._spark.sql(text)


def spark_cached(spark, view: str) -> bool:
    return spark.table(view).storageLevel != StorageLevel.NONE


def rdd_storage_ids(spark) -> set[int]:
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return {i.id() for i in infos}


CHAIN_A = (
    "SELECT ss_item_sk, ss_net_paid FROM store_sales WHERE ss_quantity > 10"
)


class TestCacheResidency:
    def test_release_keeps_resident_descendants_cached(
        self, spark, tpcds_base, tmp_path
    ):
        """Chain A→B→C with A and B flagged: A is released once B ran,
        before C runs; releasing A must leave B in Spark's cache, so C
        reads B from memory rather than recomputing A and B."""
        c_sql = "SELECT COUNT(*) AS n, SUM(paid) AS paid FROM chain_b"
        wl = WorkloadSpec(
            "chain",
            (
                MVSpec("chain_a", CHAIN_A),
                MVSpec(
                    "chain_b",
                    "SELECT ss_item_sk, SUM(ss_net_paid) AS paid "
                    "FROM chain_a GROUP BY ss_item_sk",
                    ("chain_a",),
                ),
                MVSpec("chain_c", c_sql, ("chain_b",)),
            ),
            ("store_sales",),
        )
        at_c: dict[str, bool] = {}

        def on_sql(text):
            if text == c_sql:
                at_c.update(
                    (v, spark_cached(spark, v)) for v in ("chain_a", "chain_b")
                )

        rep = run_workload(
            SparkSpy(spark, on_sql), wl, Plan((0, 1, 2), frozenset({0, 1})),
            {n: 1.0 for n in wl.node_names}, 2.0, str(tmp_path), tpcds_base,
        )
        assert at_c == {"chain_a": False, "chain_b": True}
        timing = {t.name: t for t in rep.nodes}
        assert timing["chain_b"].mem_parents == 1
        assert timing["chain_c"].mem_parents == 1
        got = spark.read.parquet(str(tmp_path / "chain_c")).collect()
        want = spark.sql(
            "SELECT COUNT(DISTINCT ss_item_sk) AS n, SUM(ss_net_paid) AS paid "
            f"FROM ({CHAIN_A})"
        ).collect()
        assert got[0]["n"] == want[0]["n"]
        assert got[0]["paid"] == pytest.approx(want[0]["paid"])


class TestFailureCleanup:
    def test_failed_node_leaves_nothing_cached(
        self, spark, tpcds_base, tmp_path
    ):
        """A node whose SQL fails while its cache fills: the error
        propagates, the in-flight background write of its flagged parent
        completes, and no frame of the run stays in Spark's cache."""
        finished: list[float] = []

        class SlowWrites(StorageModel):
            def pay_write(self, nbytes):
                super().pay_write(nbytes)
                finished.append(nbytes)

        b_sql = "SELECT raise_error('injected failure') AS x FROM fail_a"
        wl = WorkloadSpec(
            "failing",
            (
                MVSpec("fail_a", CHAIN_A),
                MVSpec("fail_b", b_sql, ("fail_a",)),
            ),
            ("store_sales",),
        )
        before = rdd_storage_ids(spark)
        with pytest.raises(Exception, match="injected failure"):
            run_workload(
                spark, wl, Plan((0, 1), frozenset({0, 1})),
                {"fail_a": 1e5, "fail_b": 1.0}, 2e5, str(tmp_path),
                tpcds_base, storage=SlowWrites(read_bw=1e9, write_bw=1e5),
            )
        assert finished == [1e5]  # fail_a's 1 s transfer was waited out
        assert rdd_storage_ids(spark) == before
        assert not spark_cached(spark, "fail_a")
        assert spark.sql(b_sql).storageLevel == StorageLevel.NONE
