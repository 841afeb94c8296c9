"""Spans and counts around the program's layers, recorded from outside.

``Tracer.install`` replaces public functions of ``repro.*`` with timing
wrappers at the names their callers look up (module globals and class
attributes), in the benchmark's own process. Spark tasks import the
modules afresh and run unwrapped, so nothing inside a Spark task is
traced. Every span records its name, start, end, parent span, and the
phase and request (query batch) it belongs to; spans stay in memory
until the run ends.

A layer's self time is its span's duration minus the durations of its
direct child spans. ``layer_metrics`` turns the spans of one run into the
per-layer numbers listed in ``BENCHMARK.json``.
"""
from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager

import numpy as np

# name, parent, start, end, phase, request, counts
_NAME, _PARENT, _T0, _T1, _PHASE, _REQ, _COUNTS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.phase = "init"
        self.request = 0

    # ------------------------------------------------------------ recording
    @contextmanager
    def scope(self, phase: str, request: int = 0):
        """Tag every span opened inside with ``phase`` and ``request``."""
        saved = self.phase, self.request
        self.phase, self.request = phase, request
        try:
            yield
        finally:
            self.phase, self.request = saved

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, parent, time.perf_counter(), None, self.phase, self.request, None]
        )
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][_T1] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield self.spans[sid]
        finally:
            self._close(sid)

    def set_counts(self, span: list, **counts) -> None:
        span[_COUNTS] = counts

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``before(args, kwargs)`` runs first and its value is handed to
        ``after(args, kwargs, result, state)``, which returns the span's
        counts.
        """
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, owner.__dict__.get(attr), attr in owner.__dict__))
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            sid = tracer._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after:
                tracer.spans[sid][_COUNTS] = after(args, kwargs, out, state)
            return out

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, own, had = self._undo.pop()
            if had:
                setattr(owner, attr, own)
            else:
                delattr(owner, attr)

    def install(self, dataframe_cls) -> None:
        """Wrap the layer boundaries named in the benchmark README."""
        import repro.core.ivf as ivf
        import repro.exec.local_engine as local_engine
        import repro.exec.routing as routing
        import repro.exec.spark_engine as spark_engine
        import repro.exec.strategies as strategies
        import repro.index.layout as layout
        from repro.core.predicates import Conjunction

        def plan_counts(args, kwargs, plan, state):
            sizes = np.bincount(plan.pid_of_row, minlength=plan.n_parts)
            return {"partitions": int(plan.n_parts),
                    "partition_rows_max": int(sizes.max())}

        for fn in ("plan_hqi", "plan_flat", "plan_range"):
            self.wrap(strategies, fn, "layout.plan", after=plan_counts)
        self.wrap(strategies, "materialize_spark", "layout.materialize_spark")
        self.wrap(strategies, "materialize_local", "layout.materialize_local")
        self.wrap(layout, "construct_balanced_qdtree", "qdtree.construct")
        self.wrap(layout, "kmeans", "kmeans")
        self.wrap(strategies, "run_local", "local.batch")
        held: dict = {}

        def rows_held(args, kwargs, out, state):
            # Every layout row goes through the cogroup, routed or not.
            df = args[1].df
            if id(df) not in held:
                held[id(df)] = df.count()
            return {"rows_held": held[id(df)]}

        self.wrap(strategies, "run_spark", "spark.batch", after=rows_held)

        def route_counts(args, kwargs, routed, state):
            plan, workload = args[0], args[1]
            sizes = np.bincount(plan.pid_of_row, minlength=plan.n_parts)
            pids = np.unique(routed["pid"].to_numpy(dtype=np.int64))
            return {"pairs": len(routed),
                    "fanout": len(routed) / max(workload.nq, 1),
                    "rows_touched": int(sizes[pids].sum())}

        self.wrap(local_engine, "route_queries", "routing", after=route_counts)
        self.wrap(spark_engine, "route_queries", "spark.route")
        self.wrap(local_engine, "search_partition", "engine.search_partition")
        self.wrap(local_engine, "merge_rows_to_result", "engine.merge",
                  after=lambda a, kw, out, st: {"rows": len(a[0])})

        def stats_before(args, kwargs):
            s = kwargs.get("stats")
            return None if s is None else (s.tuples_scanned, s.distance_computations)

        def stats_after(args, kwargs, out, state):
            s = kwargs.get("stats")
            if s is None:
                return None
            return {"tuples_scanned": s.tuples_scanned - state[0],
                    "distance_computations": s.distance_computations - state[1]}

        self.wrap(ivf.IVFIndex, "batch_search", "ivf.batch_search",
                  before=stats_before, after=stats_after)
        self.wrap(ivf.IVFIndex, "search", "ivf.search",
                  before=stats_before, after=stats_after)
        self.wrap(Conjunction, "mask", "predicates.mask")

        def pairwise_counts(args, kwargs, out, state):
            m, n = out.shape
            d = np.shape(args[0])[-1]
            return {"gflop": 2e-9 * m * n * d,
                    "gbytes": 8e-9 * (m * d + n * d + m * n)}

        for mod in (ivf, routing):
            self.wrap(mod, "pairwise_scores", "distance.pairwise",
                      after=pairwise_counts)
        self.wrap(ivf, "topk_rows", "distance.topk")
        self.wrap(dataframe_cls, "toPandas", "spark.job")

    # ----------------------------------------------------------- reporting
    def totals(self, phase: str) -> dict:
        """Per span name within ``phase``: calls, inclusive and self
        seconds, and summed counts."""
        out: dict[str, dict] = {}
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp[_PARENT] >= 0 and sp[_PHASE] == phase:
                child[sp[_PARENT]] += sp[_T1] - sp[_T0]
        for sid, sp in enumerate(self.spans):
            if sp[_PHASE] != phase:
                continue
            agg = out.setdefault(sp[_NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = sp[_T1] - sp[_T0]
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child[sid]
            for key, val in (sp[_COUNTS] or {}).items():
                agg[key] = agg.get(key, 0) + val
        return out

    def requests(self, phase: str) -> int:
        return len({sp[_REQ] for sp in self.spans if sp[_PHASE] == phase})

    def dump(self, path) -> None:
        """Write every span, column-wise, as gzipped JSON."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        keys = ("name", "parent", "start", "end", "phase", "request", "counts")
        with gzip.open(path, "wt") as fh:
            json.dump(dict(zip(keys, (list(c) for c in cols))), fh)


# (metric, unit, phase, span, field): ``field`` is "s", "self_s", "calls"
# or a count recorded on the span. Setup-phase metrics come from the last
# set-up; query-phase metrics are per timed batch.
LAYER_METRICS = [
    ("layout.plan_s", "s", "setup", "layout.plan", "s"),
    ("layout.plan_self_s", "s", "setup", "layout.plan", "self_s"),
    ("layout.materialize_spark_s", "s", "setup", "layout.materialize_spark", "s"),
    ("layout.materialize_spark_self_s", "s", "setup", "layout.materialize_spark", "self_s"),
    ("layout.materialize_local_s", "s", "setup", "layout.materialize_local", "s"),
    ("layout.materialize_local_self_s", "s", "setup", "layout.materialize_local", "self_s"),
    ("layout.partitions", "count", "setup", "layout.plan", "partitions"),
    ("layout.partition_rows_max", "rows", "setup", "layout.plan", "partition_rows_max"),
    ("qdtree.construct_s", "s", "setup", "qdtree.construct", "s"),
    ("qdtree.construct_self_s", "s", "setup", "qdtree.construct", "self_s"),
    ("kmeans.s", "s", "setup", "kmeans", "s"),
    ("kmeans.self_s", "s", "setup", "kmeans", "self_s"),
    ("kmeans.calls", "count", "setup", "kmeans", "calls"),
    ("tuning.s", "s", "setup", "tuning", "s"),
    ("tuning.self_s", "s", "setup", "tuning", "self_s"),
    ("tuning.rounds", "count", "setup", "tuning", "rounds"),
    ("tuning.nprobe_mean", "lists", "setup", "tuning", "nprobe_mean"),
    ("tuning.recall", "ratio", "setup", "tuning", "recall"),
    ("routing.s", "s", "local", "routing", "s"),
    ("routing.self_s", "s", "local", "routing", "self_s"),
    ("routing.pairs", "count", "local", "routing", "pairs"),
    ("routing.fanout_mean", "partitions", "local", "routing", "fanout"),
    ("routing.rows_touched", "rows", "local", "routing", "rows_touched"),
    ("predicates.mask_s", "s", "local", "predicates.mask", "s"),
    ("predicates.mask_self_s", "s", "local", "predicates.mask", "self_s"),
    ("predicates.mask_calls", "count", "local", "predicates.mask", "calls"),
    ("ivf.batch_search_s", "s", "local", "ivf.batch_search", "s"),
    ("ivf.batch_search_self_s", "s", "local", "ivf.batch_search", "self_s"),
    ("ivf.search_s", "s", "local", "ivf.search", "s"),
    ("ivf.search_self_s", "s", "local", "ivf.search", "self_s"),
    ("ivf.calls", "count", "local", ("ivf.batch_search", "ivf.search"), "calls"),
    ("ivf.tuples_scanned", "count", "local", ("ivf.batch_search", "ivf.search"), "tuples_scanned"),
    ("ivf.distance_computations", "count", "local", ("ivf.batch_search", "ivf.search"), "distance_computations"),
    ("distance.pairwise_s", "s", "local", "distance.pairwise", "s"),
    ("distance.pairwise_self_s", "s", "local", "distance.pairwise", "self_s"),
    ("distance.pairwise_calls", "count", "local", "distance.pairwise", "calls"),
    ("distance.gflop", "GFLOP", "local", "distance.pairwise", "gflop"),
    ("distance.gbytes", "GB", "local", "distance.pairwise", "gbytes"),
    ("distance.topk_s", "s", "local", "distance.topk", "s"),
    ("distance.topk_self_s", "s", "local", "distance.topk", "self_s"),
    ("distance.topk_calls", "count", "local", "distance.topk", "calls"),
    ("engine.search_partition_s", "s", "local", "engine.search_partition", "s"),
    ("engine.search_partition_self_s", "s", "local", "engine.search_partition", "self_s"),
    ("engine.search_partition_calls", "count", "local", "engine.search_partition", "calls"),
    ("engine.merge_s", "s", "local", "engine.merge", "s"),
    ("engine.merge_self_s", "s", "local", "engine.merge", "self_s"),
    ("engine.merge_rows", "rows", "local", "engine.merge", "rows"),
    ("local.batch_s", "s", "local", "local.batch", "s"),
    ("local.self_s", "s", "local", "local.batch", "self_s"),
    ("spark.batch_s", "s", "spark", "spark.batch", "s"),
    ("spark.batch_self_s", "s", "spark", "spark.batch", "self_s"),
    ("spark.route_s", "s", "spark", "spark.route", "s"),
    ("spark.job_s", "s", "spark", "spark.job", "s"),
    ("spark.rows_held", "rows", "spark", "spark.batch", "rows_held"),
]


def layer_metrics(tracer: Tracer, setup_phase: str) -> dict:
    """Every per-layer metric; a layer the run never entered reads 0."""
    per_phase = {
        "setup": (tracer.totals(setup_phase), 1),
        "local": (tracer.totals("local"), max(tracer.requests("local"), 1)),
        "spark": (tracer.totals("spark"), max(tracer.requests("spark"), 1)),
    }
    out = {}
    for metric, unit, phase, spans, field in LAYER_METRICS:
        totals, batches = per_phase[phase]
        names = spans if isinstance(spans, tuple) else (spans,)
        value = sum(totals.get(n, {}).get(field, 0) for n in names)
        if phase != "setup":
            value = value / batches
        out[metric] = {"value": value, "unit": unit}
    return out
