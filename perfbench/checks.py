"""Correctness checks of refresh outputs and plans, run outside the timed
window. Each returns a list of problems; an empty list means correct.

MV outputs are read back with DuckDB and put in ``repro.oracle``'s
canonical form (sorted columns, floats rounded, rows sorted), so two
refreshes that wrote the same rows in another order or partitioning
compare equal.
"""
from __future__ import annotations

import glob
import os

import duckdb
import pandas as pd

from repro.core.graph import DepGraph, Plan
from repro.oracle import _canon


def read_mv(out_dir: str, name: str) -> pd.DataFrame:
    """One MV's Parquet output in canonical form; raises if missing."""
    files = sorted(glob.glob(os.path.join(out_dir, name, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"MV {name!r} has no Parquet files")
    con = duckdb.connect()
    try:
        pdf = con.execute("SELECT * FROM read_parquet(?)", [files]).fetchdf()
    finally:
        con.close()
    return _canon(pdf)


def read_outputs(out_dir: str, names) -> dict[str, pd.DataFrame]:
    return {n: read_mv(out_dir, n) for n in names}


def output_problems(
    out_dir: str, reference: dict[str, pd.DataFrame]
) -> list[str]:
    """Every MV in ``reference`` exists under ``out_dir`` and equals it."""
    problems = []
    for name, want in reference.items():
        try:
            got = read_mv(out_dir, name)
            pd.testing.assert_frame_equal(got, want, check_dtype=False)
        except (AssertionError, FileNotFoundError, duckdb.Error) as e:
            problems.append(f"{name}: {str(e).splitlines()[0]}")
    return problems


def plan_problems(g: DepGraph, plan: Plan, budget: float) -> list[str]:
    """The plan's order is a valid topological order and its flagged set
    never holds more than ``budget`` bytes at any step."""
    if not g.is_valid_order(plan.order):
        return ["plan order is not a valid topological order"]
    peak = g.peak_memory(plan.flagged, plan.order)
    if peak > budget + 1e-9:
        return [f"planned peak {peak:.0f} B exceeds M = {budget:.0f} B"]
    return []
