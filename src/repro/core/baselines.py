"""Baseline systems (paper Sec. VI-A "Baselines").

Four naive GPU implementations plus the CPU nested-loop baseline, all
sharing the *same* matching kernel as GCSM (``repro.core.matching``) and the
same dynamic-graph maintenance — they differ only in the data path:

* **UM**    — all neighbor lists in unified memory; the kernel faults pages
  across PCIe on demand (69-210x slower than ZC in the paper).
* **ZC**    — all lists pinned on the CPU; every read is a zero-copy PCIe
  access (the strongest naive GPU baseline).
* **VSGM**  — the caching of [20]: copy the k-hop neighborhood of the batch
  (k = query diameter) to the GPU up front, then match entirely from device
  memory.  Correct but copy-dominated (Fig. 13), and limited to small
  batches by device memory.
* **Naive** — GCSM's machinery with a *degree-based* cache policy instead of
  frequency estimation (ends up ≈ ZC in the paper).
* **CPU**   — the same nested loops run by 32 host threads (the paper's own
  CPU baseline, same stack-based implementation and matching order).

Every system runs the one batch lifecycle of
:class:`~repro.core.engine.BatchRunner` and supplies only its stage hooks, so
the harness drives them interchangeably through ``process_batch``.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import BatchJob, BatchRunner, GCSMEngine, MatchOutcome
from repro.core.matching import match_batch
from repro.core.prefilter import DEFAULT_PREFILTER
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import DEFAULT_CONFLICT_MODE, UpdateBatch
from repro.gpu.clock import simulated_time_ns
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import BYTES_PER_NEIGHBOR, DeviceConfig
from repro.gpu.transfer import DmaEngine
from repro.gpu.views import (
    FullDeviceView,
    GraphView,
    HostCPUView,
    UnifiedMemoryView,
    ZeroCopyView,
)
from repro.query.pattern import QueryGraph
from repro.query.plan import compile_delta_plans

__all__ = [
    "SimpleViewSystem",
    "ZeroCopySystem",
    "UnifiedMemorySystem",
    "CpuLoopSystem",
    "NaiveDegreeCacheSystem",
    "VsgmSystem",
    "VsgmCapacityError",
    "make_system",
    "SYSTEM_NAMES",
]


class SimpleViewSystem(BatchRunner):
    """The single-view baselines (UM / ZC / CPU): update → match through
    ``view_class`` → reorganize.  No frequency estimation, no packing.
    Keyword arguments are :class:`~repro.core.engine.BatchRunner`'s."""

    name = "abstract"
    view_class: type[GraphView]

    def __init__(self, initial_graph: StaticGraph, query: QueryGraph, **kwargs) -> None:
        super().__init__(initial_graph, **kwargs)
        self.query = query
        self.plans = compile_delta_plans(query)

    def _stage_match(self, job: BatchJob, graph: DynamicGraph) -> MatchOutcome:
        counters = AccessCounters()
        view = self.view_class(graph, self.device, counters)
        stats = match_batch(self.plans, job.batch, view, prefilter=job.decision)
        return MatchOutcome(
            stats, counters, simulated_time_ns(counters, self.device, platform=view.platform),
            dict(cache_misses=stats.roots_processed),
        )


class ZeroCopySystem(SimpleViewSystem):
    """ZC: every neighbor-list read crosses PCIe in 128 B lines."""

    name = "ZC"
    view_class = ZeroCopyView


class UnifiedMemorySystem(SimpleViewSystem):
    """UM: managed memory, page-fault-driven migration (cold per batch)."""

    name = "UM"
    view_class = UnifiedMemoryView


class CpuLoopSystem(SimpleViewSystem):
    """The paper's CPU baseline: same loops, 32 host threads, host DRAM."""

    name = "CPU"
    view_class = HostCPUView


#: Naive's cache budget: the paper notes GCSM's sampled lists occupy < 2 GB
#: of the 14 GB buffer; Naive gets the same footprint so the comparison is
#: policy-vs-policy, not budget-vs-budget.  2 GB / 14 GB of the scaled buffer:
NAIVE_CACHE_BUDGET_BYTES = 200_000


class NaiveDegreeCacheSystem(GCSMEngine):
    """Naive: GCSM's cache machinery with degree ranking, no estimation."""

    name = "Naive"

    def __init__(
        self,
        initial_graph: StaticGraph,
        query: QueryGraph,
        *,
        device: DeviceConfig | None = None,
        cache_budget_bytes: int = NAIVE_CACHE_BUDGET_BYTES,
        seed=0,
        conflict_mode: str = DEFAULT_CONFLICT_MODE,
        prefilter: str = DEFAULT_PREFILTER,
    ) -> None:
        super().__init__(
            initial_graph,
            query,
            device=device,
            policy="degree",
            cache_budget_bytes=cache_budget_bytes,
            seed=seed,
            conflict_mode=conflict_mode,
            prefilter=prefilter,
        )


class VsgmCapacityError(RuntimeError):
    """The k-hop working set of the batch exceeds the device buffer.

    This is the failure mode that forces the paper to shrink batches to
    128 (SF3K) / 64 (SF10K) edges when running VSGM (Sec. VI-B)."""


class VsgmSystem(BatchRunner):
    """The VSGM-style baseline: bulk-copy the batch's k-hop neighborhood.

    Per batch: BFS from every update endpoint out to ``k = diameter(Q)``
    hops on the CPU, pack all visited vertices' lists, DMA them to the GPU,
    then match entirely from device memory.  The kernel never touches the
    CPU — at the price of copying the (large) k-hop working set.  A
    certified skip also saves VSGM's dominant cost: the gather and bulk copy
    never happen.  Keyword arguments besides ``strict_capacity`` are
    :class:`~repro.core.engine.BatchRunner`'s.
    """

    name = "VSGM"

    def __init__(
        self,
        initial_graph: StaticGraph,
        query: QueryGraph,
        *,
        strict_capacity: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(initial_graph, **kwargs)
        self.query = query
        self.plans = compile_delta_plans(query)
        self.hops = query.diameter()
        self.strict_capacity = strict_capacity

    # -- k-hop gather ------------------------------------------------------
    def _khop_vertices(self, batch: UpdateBatch, counters: AccessCounters) -> set[int]:
        frontier = set(batch.edges.reshape(-1).tolist())
        visited = set(frontier)
        for _ in range(self.hops):
            nxt: set[int] = set()
            for v in frontier:
                nbrs = self.graph.neighbors_new(v)
                counters.record_compute(nbrs.size + 1)
                counters.record_access(
                    Channel.CPU_DRAM, v, nbrs.size * BYTES_PER_NEIGHBOR
                )
                nxt.update(int(w) for w in nbrs.tolist() if w not in visited)
            visited |= nxt
            frontier = nxt
            if not frontier:
                break
        return visited

    def _stage_pack(self, job: BatchJob) -> tuple[tuple[set[int], int], float]:
        """Gather + copy: VSGM's "DC" phase of Fig. 13."""
        graph = self.graph
        gather_counters = AccessCounters()
        resident = self._khop_vertices(job.batch, gather_counters)
        copy_bytes = sum(
            (graph.degree_old(v) + graph.delta_neighbors(v).size) * BYTES_PER_NEIGHBOR
            for v in resident
        ) + len(resident) * 3 * BYTES_PER_NEIGHBOR
        if self.strict_capacity and copy_bytes > self.device.cache_buffer_bytes:
            raise VsgmCapacityError(
                f"k-hop working set ({copy_bytes} B) exceeds device buffer "
                f"({self.device.cache_buffer_bytes} B); use a smaller batch"
            )
        gather_ns = simulated_time_ns(gather_counters, self.device, platform="cpu")
        dma_ns = DmaEngine(self.device, AccessCounters()).transfer(copy_bytes)
        return (resident, copy_bytes), gather_ns + dma_ns

    def _stage_match(self, job: BatchJob, graph: DynamicGraph) -> MatchOutcome:
        resident, copy_bytes = job.placement
        counters = AccessCounters()
        view = FullDeviceView(graph, self.device, counters, resident)
        stats = match_batch(self.plans, job.batch, view, prefilter=job.decision)
        cached = np.fromiter(resident, dtype=np.int64, count=len(resident))
        return MatchOutcome(
            stats, counters, simulated_time_ns(counters, self.device, platform="gpu"),
            dict(cached_vertices=np.sort(cached), cache_bytes=copy_bytes,
                 cache_hits=stats.roots_processed, cache_misses=view.fallthrough_accesses),
        )


SYSTEM_NAMES = ("GCSM", "Pipelined", "ZC", "UM", "Naive", "VSGM", "CPU")


def make_system(
    name: str,
    initial_graph: StaticGraph,
    query: QueryGraph,
    *,
    device: DeviceConfig | None = None,
    seed: int = 0,
    **kwargs,
):
    """Factory over every evaluated system (paper Fig. 8-14).

    For ``GCSM``, passing ``devices`` (an int or a
    :class:`~repro.gpu.device.ClusterConfig`) routes to the sharded
    :class:`~repro.multigpu.engine.MultiGpuEngine` — together with the
    optional ``partitioner`` / ``partitioner_opts`` / ``repartition`` /
    ``workers`` knobs.  ``devices`` omitted (or ``None``) keeps the
    single-GPU engine (which rejects the fleet-only knobs).
    """
    if name == "GCSM":
        devices = kwargs.pop("devices", None)
        partitioner = kwargs.pop("partitioner", "hash")
        partitioner_opts = kwargs.pop("partitioner_opts", None)
        repartition = kwargs.pop("repartition", None)
        workers = kwargs.pop("workers", None)
        if devices is not None:
            from repro.multigpu import MultiGpuEngine

            return MultiGpuEngine(
                initial_graph, query, devices=devices, partitioner=partitioner,
                partitioner_opts=partitioner_opts, repartition=repartition,
                device=device, seed=seed, workers=workers, **kwargs,
            )
        if partitioner_opts or repartition:
            raise ValueError(
                "partitioner_opts/repartition require a multi-device GCSM "
                "(pass devices=N)"
            )
        return GCSMEngine(initial_graph, query, device=device, seed=seed, **kwargs)
    if name == "Pipelined":
        # GCSM under the staged/overlapped schedule: bit-identical results,
        # pipeline-annotated TimeBreakdowns (repro.service.pipeline)
        from repro.service.pipeline import PipelinedEngine

        return PipelinedEngine(initial_graph, query, device=device, seed=seed, **kwargs)
    if name == "ZC":
        return ZeroCopySystem(initial_graph, query, device=device, **kwargs)
    if name == "UM":
        return UnifiedMemorySystem(initial_graph, query, device=device, **kwargs)
    if name == "Naive":
        return NaiveDegreeCacheSystem(
            initial_graph, query, device=device, seed=seed, **kwargs
        )
    if name == "VSGM":
        return VsgmSystem(initial_graph, query, device=device, **kwargs)
    if name == "CPU":
        return CpuLoopSystem(initial_graph, query, device=device, **kwargs)
    if name == "RapidFlow":
        from repro.core.rapidflow import RapidFlowSystem

        return RapidFlowSystem(initial_graph, query, device=device, **kwargs)
    raise ValueError(f"unknown system {name!r}")
