#!/usr/bin/env python3
"""HQI benchmark: workload QPS at tuned Recall@10 >= 0.8 on both engines,
index build time and set-up time.

    python3 perfbench/run.py --workload msturing-hqi --seed 1 --seconds 3 --trace 0

One run generates the workload's inputs from ``--seed`` and starts one
Spark session. An untimed warm-up builds the index once cold, then
again for ``WARMUP_BUILD_SECONDS``, and runs three Spark batches. Then
three rounds each set the system up afresh (Spark build, local mirror,
per-template nprobe tuning), time local batches for a third of
``--seconds``, time two Spark batches and time further builds for about
``BUILD_SECONDS``. Set-up time is the median of the three set-ups, build
time the median of every timed build (the set-ups' and the further
ones); QPS is the batch size over the median batch time. The answers are
checked against an independent reference (``check.py``). With
``--trace 1`` the layers are wrapped with timers (``tracing.py``) and the
per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 3  # timed rounds per run; setup_s is the median of their set-ups
BUILD_SECONDS = 1.0  # per round: timed builds beyond the set-up's, at least one
WARMUP_BUILD_SECONDS = 3.0  # untimed builds after the cold first one
SPARK_WARMUP = 3  # untimed Spark batches before the timed rounds
SPARK_PER_ROUND = 2  # timed Spark batches per round, a fixed count
MAX_SLOTS = 4


def _slots() -> int:
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(n, MAX_SLOTS))


def _one_blas_thread() -> None:
    """One BLAS thread per process; must run before numpy is imported.

    Spark runs one task per slot, and each Python worker's BLAS would
    start threads on top of that: more threads than cores. The local
    engine on its own, left at OpenBLAS's default, kept all four cores
    busy during a msturing-hqi batch and ran slower and less evenly than
    on one thread (median 0.52 s, up to 1.26 s, against 0.44 s, up to
    0.54 s). Spark's JVM and Python workers inherit these variables."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _prepare_env(slots: int) -> None:
    """Make ``repro`` importable for this process and Spark's workers and
    keep every file Spark, the JVM and Python write under ``WORK``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    tmp = WORK / "tmp"
    for d in (tmp, WORK / "spark-local", WORK / "warehouse"):
        d.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{slots}] --driver-memory 1g "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )


def _start_spark(slots: int):
    from pyspark.sql import SparkSession

    # The job entry points' settings (jobs/_common.py), except two shuffle
    # partitions per task slot instead of 32: at this data size the extra
    # empty tasks only add scheduling time to every Spark batch.
    spark = (
        SparkSession.builder.appName("hqi-perfbench")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.shuffle.partitions", str(2 * slots))
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop the session, then end the JVM and wait for it: the gateway
    exits when its stdin closes."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def held_bytes(*roots) -> int:
    """Bytes of numpy arrays and pandas frames reachable from ``roots``
    through dataclasses, dicts, lists and tuples."""
    import dataclasses

    import numpy as np
    import pandas as pd

    seen: set[int] = set()
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if isinstance(obj.base, np.ndarray):
                stack.append(obj.base)  # count the owner once, not each view
            else:
                total += obj.nbytes
        elif isinstance(obj, pd.DataFrame):
            total += int(obj.memory_usage(deep=True, index=True).sum())
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            stack.extend(vars(obj).values())
    return total


def _timed_batches(run, budget: float, tracer, phase: str, first: int):
    """Run ``run()`` once, then again until ``budget`` seconds have
    passed; returns (wall seconds per batch, results)."""
    times, results = [], []
    end = time.perf_counter() + budget
    while not times or time.perf_counter() < end:
        with tracer.scope(phase, first + len(times)):
            t0 = time.perf_counter()
            results.append(run())
            times.append(time.perf_counter() - t0)
    return times, results


class _NoTracer:
    """Stands in for ``tracing.Tracer`` when the run is not traced."""

    def scope(self, phase, request=0):
        return contextlib.nullcontext()

    def span(self, name):
        return contextlib.nullcontext()

    def set_counts(self, span, **counts):
        pass


def bench(spark, inputs, seconds: float, tracer) -> dict:
    import numpy as np

    import check
    from repro.exec.recall import exhaustive_local
    from repro.exec.strategies import build_index, ensure_local, run_queries
    from repro.exec.tuning import sample_workload, tune_nprobe
    from workloads import K, TARGET_RECALL

    ds, serve, sizes = inputs.dataset, inputs.serve, inputs.sizes
    print(
        f"workload={inputs.name} approach={inputs.approach} n={ds.n} "
        f"dim={ds.dim} metric={ds.metric} nq={serve.nq} "
        f"templates={len(np.unique(serve.qtemplates))}",
        flush=True,
    )
    ref = check.Reference(ds, serve, K)

    def build():
        return build_index(
            inputs.approach, ds, inputs.build_from, engine="spark",
            spark=spark, min_size=sizes.min_size, n_buckets=sizes.n_buckets,
        )

    def set_up(i):
        """Spark build, local mirror and nprobe tuning: what the system
        does before it serves the batch."""
        with tracer.scope(f"setup{i}"):
            t0 = time.perf_counter()
            built = build()
            t1 = time.perf_counter()
            ensure_local(built)
            sample = sample_workload(
                inputs.tune_from, sizes.tune_per_template, seed=inputs.sample_seed
            )
            gt = exhaustive_local(ds, sample, K)
            rounds = [0]

            def run_fn(cfg):
                rounds[0] += 1
                return run_queries(
                    built, sample, k=K, nprobe_by_tid=cfg, engine="local"
                )

            with tracer.span("tuning") as sp:
                outcome = tune_nprobe(
                    run_fn, sample, gt, target=TARGET_RECALL,
                    max_nprobe=math.isqrt(ds.n) + 1,
                )
                tracer.set_counts(
                    sp, rounds=rounds[0],
                    nprobe_mean=float(np.mean(list(outcome.nprobe_by_tid.values()))),
                    recall=float(np.mean(list(outcome.recall_by_tid.values()))),
                )
            t2 = time.perf_counter()
        return built, t1 - t0, t2 - t0, outcome.nprobe_by_tid

    # Warm-up, untimed: the first build in a fresh session starts the
    # Python workers and compiles the JVM's hot paths; build and Spark
    # batch times keep falling over the next few repetitions (PreFilter's
    # builds for about ten seconds).
    warmup_build_s = []
    with tracer.scope("warmup"):
        while sum(warmup_build_s[1:]) < WARMUP_BUILD_SECONDS:
            if warmup_build_s:
                warm.layout.unpersist()
            t0 = time.perf_counter()
            warm = build()
            warmup_build_s.append(time.perf_counter() - t0)
        for _ in range(SPARK_WARMUP):
            run_queries(warm, serve, k=K, nprobe_by_tid=dict.fromkeys(serve.templates, 1),
                        engine="spark", spark=spark)
        warm.layout.unpersist()
        del warm
    print(f"warmup_build_s={[round(x, 3) for x in warmup_build_s]}", flush=True)

    # SETUPS rounds, each a fresh set-up followed by timed local and Spark
    # batches, so the samples spread over the whole run.
    setup_s, build_s, nprobes = [], [], []
    local_t, local_r, spark_t, spark_r = [], [], [], []
    for i in range(SETUPS):
        built, b, su, nprobe = set_up(i)
        build_s.append(b)
        setup_s.append(su)
        nprobes.append(nprobe)
        if i == 0:
            index_mb = held_bytes(built.parts, built.plan) / 1e6

        def run(engine):
            return run_queries(
                built, serve, k=K, nprobe_by_tid=nprobe, engine=engine,
                spark=spark if engine == "spark" else None,
            )

        t, r = _timed_batches(lambda: run("local"), seconds / SETUPS,
                              tracer, "local", len(local_t))
        local_t += t
        local_r += r
        # A fixed count, not a time budget: every run then times the same
        # points of Spark's warm-up curve.
        for _ in range(SPARK_PER_ROUND):
            t, r = _timed_batches(lambda: run("spark"), 0.0,
                                  tracer, "spark", len(spark_t))
            spark_t += t
            spark_r += r
        built.layout.unpersist()
        # One build is a short sample that a brief stall of the host can
        # double; the median over several per round is steadier. Each is
        # unpersisted before the next: while an equal layout is still
        # cached, Spark reuses it and a PreFilter build takes half as long.
        end = time.perf_counter() + BUILD_SECONDS
        while True:
            with tracer.scope("build", len(build_s)):
                t0 = time.perf_counter()
                extra = build()
                build_s.append(time.perf_counter() - t0)
            extra.layout.unpersist()
            if time.perf_counter() >= end:
                break
    print(f"setup_s={[round(x, 3) for x in setup_s]} nprobe={nprobes[0]}", flush=True)
    print(f"build_s={[round(x, 3) for x in build_s]}", flush=True)
    print(f"local_batch_s={[round(x, 4) for x in local_t]}", flush=True)
    print(f"spark_batch_s={[round(x, 4) for x in spark_t]}", flush=True)

    # Checks: both engines against the reference, Spark against local,
    # and every later batch against the engine's first answer.
    qids, qt = serve.qids, ref.qtemplates
    first_local, first_spark = local_r[0], spark_r[0]
    p_local, p_spark = check.pack(first_local, qids, K), check.pack(first_spark, qids, K)
    by_check = {}
    for engine, p in (("local", p_local), ("spark", p_spark)):
        for name, bad in ref.failures(p).items():
            by_check[f"{engine}.{name}"] = bad
    by_check["spark_vs_local"] = check.mismatches(p_local, p_spark, qt)
    failed = np.logical_or.reduce(list(by_check.values()))
    for first, later in ((p_local, local_r[1:]), (p_spark, spark_r[1:])):
        for r in later:
            failed = failed | check.mismatches(first, check.pack(r, qids, K), qt)
    print("failed_by_check=" + json.dumps(
        {n: int(b.sum()) for n, b in by_check.items() if b.any()}), flush=True)
    recall_local, recall_spark = ref.recall(p_local), ref.recall(p_spark)
    consistent = all(n == nprobes[0] for n in nprobes)
    print(
        f"recall_local={recall_local:.4f} recall_spark={recall_spark:.4f} "
        f"failed={int(failed.sum())}/{serve.nq} "
        f"tuples_scanned={first_local.tuples_scanned} "
        f"distance_computations={first_local.distance_computations} "
        f"tuning_repeats={consistent}",
        flush=True,
    )
    if not consistent:
        print("tuning chose different nprobe across set-ups", file=sys.stderr)
    return {
        "correct": bool(
            recall_local >= TARGET_RECALL and recall_spark >= TARGET_RECALL
            and consistent
        ),
        "attempted": int(serve.nq),
        "failed": int(failed.sum()),
        "metrics": {
            "qps_local": {"value": serve.nq / statistics.median(local_t), "unit": "queries/s"},
            "qps_spark": {"value": serve.nq / statistics.median(spark_t), "unit": "queries/s"},
            "build_s": {"value": statistics.median(build_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "index_mb": {"value": index_mb, "unit": "MB"},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "test"), default="bench")
    args = ap.parse_args(argv)

    _one_blas_thread()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    slots = _slots()
    _prepare_env(slots)
    spark = _start_spark(slots)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, args.scale)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install(type(spark.range(0)))
            try:
                out = bench(spark, inputs, args.seconds, tracer)
            finally:
                tracer.uninstall()
            print(f"traced qps_local={out['metrics']['qps_local']['value']:.2f}", flush=True)
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json.gz")
            out["metrics"] = tracing.layer_metrics(tracer, f"setup{SETUPS - 1}")
        else:
            out = bench(spark, inputs, args.seconds, _NoTracer())
    finally:
        _stop_spark(spark)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
