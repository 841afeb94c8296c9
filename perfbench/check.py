"""Independent correctness reference for one query batch.

Filters are evaluated by DuckDB from each template's ``to_sql()`` over the
dataset's attributes, and exact filtered top-k is computed here in
float64 numpy with the ``(score, id)`` tie-break. Neither
``repro.exec.recall`` nor ``Conjunction.mask`` is used, so a fault shared
by the engines and the program's own ground truth still shows.

Results are packed into padded ``(nq, k)`` arrays so every per-query check
is vectorised. A query fails if its answer breaks any check; recall is a
batch-level property.
"""
from __future__ import annotations

from dataclasses import dataclass

import duckdb
import numpy as np
import pyarrow as pa

PAD = -1


@dataclass
class Packed:
    """A batch answer as padded arrays, in workload query order."""

    ids: np.ndarray  # (nq, k) int64, PAD beyond ``lens``
    scores: np.ndarray  # (nq, k) float64, nan beyond ``lens``
    lens: np.ndarray  # (nq,) rows returned per query (may exceed k)
    counters: dict  # tid -> (tuples_scanned, distance_computations)


def pack(result, qids: np.ndarray, k: int) -> Packed:
    """Pack a ``RunResult``-shaped answer (``ids_by_qid``, ``scores_by_qid``,
    ``stats_by_tid``)."""
    nq = len(qids)
    ids = np.full((nq, k), PAD, dtype=np.int64)
    scores = np.full((nq, k), np.nan)
    lens = np.zeros(nq, dtype=np.int64)
    for i, qid in enumerate(qids):
        r_ids = np.asarray(result.ids_by_qid.get(int(qid), ()), dtype=np.int64)
        r_sc = np.asarray(result.scores_by_qid.get(int(qid), ()), dtype=np.float64)
        lens[i] = max(len(r_ids), len(r_sc))
        m = min(len(r_ids), len(r_sc), k)
        ids[i, :m] = r_ids[:m]
        scores[i, :m] = r_sc[:m]
    counters = {
        int(t): (int(s.tuples_scanned), int(s.distance_computations))
        for t, s in result.stats_by_tid.items()
    }
    return Packed(ids=ids, scores=scores, lens=lens, counters=counters)


def _topk_tie_exact(scores: np.ndarray, ids: np.ndarray, k: int):
    """Per-row top-k by ``(score, id)``: every candidate at or below the
    k-th score survives the partition, then a lexsort settles ties."""
    nq, n = scores.shape
    kk = min(k, n)
    out_ids = np.full((nq, k), PAD, dtype=np.int64)
    out_sc = np.full((nq, k), np.nan)
    if kk == 0:
        return out_ids, out_sc
    kth = np.partition(scores, kk - 1, axis=1)[:, kk - 1]
    for r in range(nq):
        cand = np.flatnonzero(scores[r] <= kth[r])
        order = np.lexsort((ids[cand], scores[r, cand]))[:kk]
        out_ids[r, :kk] = ids[cand[order]]
        out_sc[r, :kk] = scores[r, cand[order]]
    return out_ids, out_sc


class Reference:
    """Filter bitmaps and exact answers for one (dataset, workload, k)."""

    def __init__(self, dataset, workload, k: int, *, chunk: int = 512):
        pdf = dataset.pdf
        self.k = k
        self.metric = dataset.metric
        self.qids = np.asarray(workload.qids, dtype=np.int64)
        self.qvecs = np.asarray(workload.qvecs, dtype=np.float64)
        self.qtemplates = np.asarray(workload.qtemplates, dtype=np.int64)
        self.tids = sorted(int(t) for t in np.unique(self.qtemplates))
        self.col_of_tid = {t: j for j, t in enumerate(self.tids)}
        self.tcol = np.array([self.col_of_tid[int(t)] for t in self.qtemplates])

        # Pandas NaN becomes an Arrow null, so IS NOT NULL sees SQL NULLs.
        table = pa.Table.from_pandas(
            pdf[["id", *dataset.attr_cols]], preserve_index=False
        )
        select = ", ".join(
            f"COALESCE({workload.templates[t].to_sql()}, FALSE) AS t{t}"
            for t in self.tids
        )
        con = duckdb.connect()
        try:
            con.register("attrs", table)
            rows = con.execute(
                f"SELECT id, {select} FROM attrs ORDER BY id"
            ).fetchnumpy()
        finally:
            con.close()
        self.ids = np.asarray(rows["id"], dtype=np.int64)  # ascending
        self.mask = np.stack(
            [np.asarray(rows[f"t{t}"], dtype=bool) for t in self.tids], axis=1
        )
        order = np.argsort(pdf["id"].to_numpy(dtype=np.int64), kind="stable")
        self.vecs = np.stack(pdf["vec"].to_numpy()[order]).astype(np.float64)

        nq = len(self.qids)
        self.gt_ids = np.full((nq, k), PAD, dtype=np.int64)
        self.gt_scores = np.full((nq, k), np.nan)
        sq = (self.vecs**2).sum(axis=1)
        for t in self.tids:
            cand = np.flatnonzero(self.mask[:, self.col_of_tid[t]])
            qpos = np.flatnonzero(self.qtemplates == t)
            for s in range(0, len(qpos), chunk):
                qp = qpos[s : s + chunk]
                dots = self.qvecs[qp] @ self.vecs[cand].T
                if self.metric == "l2":
                    qsq = (self.qvecs[qp] ** 2).sum(axis=1)
                    sc = qsq[:, None] - 2.0 * dots + sq[cand][None, :]
                else:
                    sc = -dots
                gi, gs = _topk_tie_exact(sc, self.ids[cand], k)
                self.gt_ids[qp], self.gt_scores[qp] = gi, gs

    # ------------------------------------------------------------ checking
    def _rows(self, ids: np.ndarray):
        pos = np.clip(np.searchsorted(self.ids, ids), 0, len(self.ids) - 1)
        return pos, self.ids[pos] == ids

    def _recompute(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Direct-form scores of (query, row) pairs and their tolerance."""
        x = self.vecs[rows]  # (nq, k, d)
        q = self.qvecs[:, None, :]
        if self.metric == "l2":
            exact = ((x - q) ** 2).sum(axis=2)
            scale = (x**2).sum(axis=2) + (q**2).sum(axis=2)
        else:
            exact = -(x * q).sum(axis=2)
            scale = np.sqrt((x**2).sum(axis=2) * (q**2).sum(axis=2))
        return exact, 1e-9 * (1.0 + scale)

    def failures(self, p: Packed) -> dict[str, np.ndarray]:
        """Per check, a boolean per query: the answer breaks that check."""
        k = self.k
        valid = np.arange(k)[None, :] < np.minimum(p.lens, k)[:, None]
        rows, known = self._rows(p.ids)
        exact, tol = self._recompute(rows)
        s, i = p.scores, p.ids
        in_order = (s[:, :-1] < s[:, 1:]) | (
            (s[:, :-1] == s[:, 1:]) & (i[:, :-1] < i[:, 1:])
        )
        srt = np.sort(np.where(valid, i, PAD - np.arange(k)[None, :]), axis=1)
        return {
            "too_many": p.lens > k,
            "unknown_id": (valid & ~known).any(axis=1),
            "filter": (valid & ~self.mask[rows, self.tcol[:, None]]).any(axis=1),
            "score": (valid & ~(np.abs(p.scores - exact) <= tol)).any(axis=1),
            "order": (valid[:, 1:] & ~in_order).any(axis=1),
            "duplicate": (srt[:, 1:] == srt[:, :-1]).any(axis=1),
        }

    def recall(self, p: Packed) -> float:
        """Mean |answer ∩ exact| / |exact| over queries with a non-empty
        exact answer (the paper's Recall@k)."""
        gt_valid = self.gt_ids != PAD
        n_gt = gt_valid.sum(axis=1)
        hit = (
            (self.gt_ids[:, :, None] == p.ids[:, None, :])
            & gt_valid[:, :, None]
            & (p.ids[:, None, :] != PAD)
        ).any(axis=2).sum(axis=1)
        has = n_gt > 0
        return float((hit[has] / n_gt[has]).mean()) if has.any() else 1.0


def mismatches(a: Packed, b: Packed, qtemplates: np.ndarray) -> np.ndarray:
    """Per query: the two answers differ in ids or length, or the work
    counters of the query's template differ. Scores are not compared bit
    for bit: each answer's scores are checked against the reference."""
    bad = (a.lens != b.lens) | (a.ids != b.ids).any(axis=1)
    for t in set(a.counters) | set(b.counters):
        if a.counters.get(t) != b.counters.get(t):
            bad |= qtemplates == t
    return bad
