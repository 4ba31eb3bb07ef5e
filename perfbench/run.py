"""Refresh benchmark of the S/C reproduction.

    python3 perfbench/run.py --workload io-refresh --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Each run starts one local Spark session, builds TPC-DS-lite from
``--seed``, profiles the workload's MV DAG and plans it with S/C
(set-up), then refreshes the DAG under the unoptimized and the S/C plan
in a closed loop for about ``--seconds`` seconds. Every output is
checked outside the timed window. With ``--trace 1`` the run also plans
a fixed suite of generated 50/75/100-node DAGs, runs the LRU baseline,
records spans and reports per-layer metrics instead of end-to-end ones.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. perfbench/README.md says what
each workload and metric is.

All files go under ``.bench_work/`` at the repository root; the run
removes its own directory and stops the Spark JVM before it exits.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".bench_work")


def prepare_env(work: str) -> None:
    """Keep every file Spark, the JVM and Python write under ``work``."""
    for sub in ("tmp", "spark-local", "warehouse"):
        os.makedirs(os.path.join(work, sub), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    # Every JVM, the spark-submit launcher included: no /tmp/hsperfdata.
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-Djava.io.tmpdir={work}/tmp -XX:-UsePerfData"
    )
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(work, "spark-local")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="io-refresh")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="show that a wrong MV and an infeasible plan are "
                        "counted as failures, at SF 0.002")
    args = p.parse_args()
    name = "self-test" if args.self_test else (
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    work = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    # Turn a termination request into SystemExit, so that Spark is
    # stopped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    prepare_env(work)
    try:
        import bench

        if args.self_test:
            return bench.self_test(work)
        if args.workload not in bench.WORKLOADS:
            p.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
        result = bench.run(args, work, os.path.join(WORK_ROOT, "traces"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
