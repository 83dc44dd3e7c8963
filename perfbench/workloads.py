"""The benchmark's workloads: one recorded update stream and one engine each.

Every workload is driven by a single closed-loop client: the next batch is
sent only after ``process_batch`` returned the previous one.  A *pass* is
the workload's first ``batches_per_pass`` batches fed to a freshly built
engine; a run replays passes until its time budget is spent, so every
pass sees the same inputs and must produce the same ΔM.

The run's seed picks the update stream and nothing else.  The data graph,
the rulebook and the engine's own random seed are fixed parts of each
workload, as a real dataset and a deployed configuration would be, so two
seeds differ only in which edges the stream inserts and deletes.

The system is reached only through its public entry points: the dataset
builder and stream derivations that ``build_workload`` composes (called
directly because ``build_workload`` ties the graph's seed to the stream's),
``make_system`` / ``MultiQueryEngine`` and ``process_batch``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from repro.bench.harness import Workload
from repro.core.baselines import make_system
from repro.core.multiquery import MultiQueryEngine
from repro.graphs import datasets
from repro.graphs.stream import churn_stream, derive_stream
from repro.query.catalog import query_by_name
from repro.query.generator import rulebook_suite

__all__ = ["WorkloadSpec", "WORKLOADS", "nproc", "fleet_workers"]

#: fixed seeds of the data graphs, the rulebook and the engines
DATASET_SEED = 0
RULEBOOK_SEED = 0
ENGINE_SEED = 0


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def fleet_workers(devices: int) -> int:
    """Shard thread-pool width: one thread per device, at most ``nproc``."""
    return max(1, min(devices, nproc()))


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    dataset: str
    update_mix: str
    batch_size: int
    batches_per_pass: int
    #: the standing queries
    queries: Callable[[], list]
    #: (initial graph, queries) -> engine with ``process_batch``
    engine: Callable[[object, list], object]
    #: engine configuration, recorded in the run's provenance
    config: dict

    def build(self, seed: int) -> Workload:
        """Dataset analog plus the update stream for ``seed``, with the
        harness's requested-versus-delivered audit."""
        graph = datasets.build(self.dataset, DATASET_SEED)
        requested = self.batch_size * self.batches_per_pass
        derive = churn_stream if self.update_mix == "churn" else derive_stream
        g0, batches = derive(
            graph, num_updates=requested, batch_size=self.batch_size, seed=seed,
        )
        return Workload(
            graph=g0, batches=list(batches),
            batch_size_requested=self.batch_size,
            num_batches_requested=self.batches_per_pass,
            updates_requested=requested, update_mix=self.update_mix,
        )


def _single(name: str, **kwargs) -> Callable[[object, list], object]:
    def make(graph, queries):
        return make_system(name, graph, queries[0], seed=ENGINE_SEED, **kwargs)
    return make


def _fleet(graph, queries):
    return make_system(
        "GCSM", graph, queries[0], seed=ENGINE_SEED, devices=4,
        partitioner="mincut", workers=fleet_workers(4),
    )


def _rulebook(graph, queries):
    return MultiQueryEngine(graph, queries, seed=ENGINE_SEED, prefilter="on")


def _catalog(name: str) -> Callable[[], list]:
    return lambda: [query_by_name(name)]


#: why each workload exists is recorded in BENCHMARK.json and METRICS.md;
#: ``ca-churn`` runs on request but is not in BENCHMARK.json (see METRICS.md)
WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="sf3k-q4",
            dataset="SF3K", update_mix="mixed", batch_size=512,
            batches_per_pass=16, queries=_catalog("Q4"),
            engine=_single("GCSM"),
            config={"system": "GCSM", "query": "Q4", "prefilter": "off"},
        ),
        WorkloadSpec(
            name="ca-churn",
            dataset="CA", update_mix="churn", batch_size=1024,
            batches_per_pass=12, queries=_catalog("Q1"),
            engine=_single("GCSM", prefilter="on"),
            config={"system": "GCSM", "query": "Q1", "prefilter": "on"},
        ),
        WorkloadSpec(
            name="lj-rulebook30",
            dataset="LJ", update_mix="mixed", batch_size=512,
            batches_per_pass=8,
            queries=lambda: rulebook_suite(30, seed=RULEBOOK_SEED),
            engine=_rulebook,
            config={"system": "MultiQueryEngine", "rulebook": 30,
                    "rulebook_seed": RULEBOOK_SEED, "shared": True,
                    "prefilter": "on"},
        ),
        WorkloadSpec(
            name="sf3k-fleet4",
            dataset="SF3K", update_mix="mixed", batch_size=512,
            batches_per_pass=16, queries=_catalog("Q1"),
            engine=_fleet,
            config={"system": "GCSM", "query": "Q1", "devices": 4,
                    "partitioner": "mincut"},
        ),
    )
}
