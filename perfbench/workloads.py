"""The benchmark's workloads and their seeded inputs.

Each workload names a dataset generator, the query batch it serves, the
query set the index is built and tuned from, and the approach. Every
generator receives a seed derived from ``--seed``, so one seed always
yields the same inputs and another seed yields different ones.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

K = 10
TARGET_RECALL = 0.8


@dataclass(frozen=True)
class Sizes:
    n: int  # base vectors / entities
    dim: int
    queries: int  # RelatedQS: queries per split; BIGANN: query vectors (x20 filters)
    min_size: int  # qd-tree MIN_SIZE
    n_buckets: int  # flat-IVF buckets (PreFilter)
    tune_per_template: int


# ``bench`` is what the benchmark measures; ``test`` is a smoke scale for
# the benchmark's own test. The bench sizes are 0.4x (RelatedQS) and 0.2x
# (MSTuring) of ``repro.bench.config``'s "bench" scale so that a run,
# which starts Spark, warms it up and sets the system up three times,
# stays under a minute; README.md gives the reasons and the make-up of
# each workload.
SCALES = {
    "bench": {
        "relatedqs": Sizes(n=24_000, dim=32, queries=2_400, min_size=1024,
                           n_buckets=16, tune_per_template=20),
        "msturing": Sizes(n=8_000, dim=100, queries=80, min_size=1024,
                          n_buckets=8, tune_per_template=20),
    },
    "test": {
        "relatedqs": Sizes(n=6_000, dim=8, queries=200, min_size=256,
                           n_buckets=8, tune_per_template=8),
        "msturing": Sizes(n=3_000, dim=100, queries=15, min_size=256,
                          n_buckets=8, tune_per_template=8),
    },
}


@dataclass
class Inputs:
    """Everything a run needs, generated from one seed."""

    name: str
    approach: str
    dataset: object  # repro.core.types.Dataset
    serve: object  # Workload whose batch is timed and checked
    build_from: object  # Workload the qd-tree is built from (None: no history)
    tune_from: object  # Workload the nprobe tuning sample is drawn from
    sizes: Sizes
    sample_seed: int


def derive_seed(seed: int, stream: int) -> int:
    """Independent 32-bit seed for one generator, from the run seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _relatedqs_hqi(seed: int, sizes: Sizes) -> Inputs:
    from repro.kg.entities import kg_entities
    from repro.kg.workload import relatedqs_workload

    ds = kg_entities(n=sizes.n, dim=sizes.dim, seed=derive_seed(seed, 1))
    splits = relatedqs_workload(
        ds, n_queries_per_split=sizes.queries, seed=derive_seed(seed, 2)
    )
    # Table 5 setting: the index is built and tuned on split t0 (history)
    # and serves split t1 (future queries).
    return Inputs(
        name="relatedqs-hqi", approach="hqi", dataset=ds, serve=splits[1],
        build_from=splits[0], tune_from=splits[0], sizes=sizes,
        sample_seed=derive_seed(seed, 3),
    )


def _msturing(approach: str):
    def make(seed: int, sizes: Sizes) -> Inputs:
        from repro.bench.datasets import bigann_lite, bigann_workload

        ds = bigann_lite("msturing", n=sizes.n, seed=derive_seed(seed, 1))
        wl = bigann_workload(ds, nq=sizes.queries, seed=derive_seed(seed, 2))
        return Inputs(
            name=f"msturing-{approach}", approach=approach, dataset=ds,
            serve=wl, build_from=wl if approach == "hqi" else None,
            tune_from=wl, sizes=sizes, sample_seed=derive_seed(seed, 3),
        )

    return make


WORKLOADS = {
    "relatedqs-hqi": ("relatedqs", _relatedqs_hqi),
    "msturing-hqi": ("msturing", _msturing("hqi")),
    "msturing-prefilter": ("msturing", _msturing("prefilter")),
}


def make_inputs(name: str, seed: int, scale: str = "bench") -> Inputs:
    family, make = WORKLOADS[name]
    return make(seed, SCALES[scale][family])
