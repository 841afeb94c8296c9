"""The benchmark's own test: the checker flags corrupted answers (negative
control), and every workload runs end to end at the ``test`` scale.

    python3 -m pytest perfbench/ -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ref():
    from repro.kg.entities import kg_entities
    from repro.kg.workload import relatedqs_workload

    ds = kg_entities(n=600, dim=8, seed=5)
    wl = relatedqs_workload(ds, n_queries_per_split=60, seed=6)[0]
    return check.Reference(ds, wl, workloads.K)


def _valid(ref) -> check.Packed:
    """The exact answer, shaped as an engine's ``RunResult``."""
    from repro.core.ivf import SearchStats
    from repro.exec.engine import RunResult

    res = RunResult()
    for i, qid in enumerate(ref.qids):
        keep = ref.gt_ids[i] != check.PAD
        res.ids_by_qid[int(qid)] = ref.gt_ids[i][keep]
        res.scores_by_qid[int(qid)] = ref.gt_scores[i][keep]
    res.stats_by_tid = {t: SearchStats(100 * t, 10 * t) for t in ref.tids}
    return check.pack(res, ref.qids, ref.k)


def _copy(p: check.Packed) -> check.Packed:
    return check.Packed(p.ids.copy(), p.scores.copy(), p.lens.copy(), dict(p.counters))


def _flagged(ref, p, name) -> set[int]:
    return set(np.flatnonzero(ref.failures(p)[name]).tolist())


def test_valid_answer_passes(ref):
    p = _valid(ref)
    assert not any(bad.any() for bad in ref.failures(p).values())
    assert ref.recall(p) == 1.0
    assert not check.mismatches(p, _copy(p), ref.qtemplates).any()


def test_filter_violation_is_flagged(ref):
    p = _copy(_valid(ref))
    q = int(np.flatnonzero(p.lens >= 2)[0])
    outside = ref.ids[~ref.mask[:, ref.tcol[q]]]
    bad_id = int(outside[0])
    row = int(np.searchsorted(ref.ids, bad_id))
    p.ids[q, 1] = bad_id
    p.scores[q, 1] = ref._recompute(np.full((len(p.ids), ref.k), row))[0][q, 1]
    assert _flagged(ref, p, "filter") == {q}


def test_perturbed_score_is_flagged(ref):
    p = _copy(_valid(ref))
    p.scores[3, 0] += 1e-6
    assert _flagged(ref, p, "score") == {3}


def test_duplicated_id_is_flagged(ref):
    p = _copy(_valid(ref))
    q = int(np.flatnonzero(p.lens >= 2)[0])
    p.ids[q, 1], p.scores[q, 1] = p.ids[q, 0], p.scores[q, 0]
    assert _flagged(ref, p, "duplicate") == {q}


def test_order_and_length_are_flagged(ref):
    p = _copy(_valid(ref))
    p.ids[4, [0, 1]] = p.ids[4, [1, 0]]
    p.scores[4, [0, 1]] = p.scores[4, [1, 0]]
    p.lens[5] = ref.k + 1
    assert _flagged(ref, p, "order") == {4}
    assert _flagged(ref, p, "too_many") == {5}


def test_spark_local_mismatch_is_flagged(ref):
    local = _valid(ref)
    spark = _copy(local)
    spark.ids[7, 2] = spark.ids[7, 3]
    assert set(np.flatnonzero(check.mismatches(local, spark, ref.qtemplates))) == {7}
    spark = _copy(local)
    t = ref.tids[0]
    spark.counters[t] = (spark.counters[t][0] + 1, spark.counters[t][1])
    flagged = check.mismatches(local, spark, ref.qtemplates)
    assert np.array_equal(flagged, ref.qtemplates == t)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_end_to_end(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "test")
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_to_run_without_program_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
