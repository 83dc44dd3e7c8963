"""The GCSM end-to-end engine and the one batch lifecycle every system runs.

For every update batch ``ΔE_k`` the paper's pipeline (Fig. 3) runs:

1. **Update** — ``ΔE_k`` is folded into the CPU adjacency store (insertions
   appended, deletions marked).
2. **Estimate** — merged random walks estimate per-vertex access frequency
   (Sec. IV); runs on the CPU.
3. **Pack** — the most frequent vertices' lists are packed into a DCSR
   buffer and moved to the GPU with a single DMA transfer (Sec. V-B).
4. **Match** — the incremental WCOJ kernel runs on the (simulated) GPU,
   reading cached lists from global memory and everything else via
   zero-copy (Sec. V-C).
5. **Reorganize** — updated CPU lists are re-sorted for the next batch;
   performed after matching so the kernel sees consistent data (Sec. V-A).

:class:`BatchRunner` runs these steps, plus the aggregate-invariant
prefilter and its certified-skip exit, in the order of
:data:`repro.gpu.clock.PIPELINE_STAGES` for *every* system.  The paper's
systems "all use the same GPU kernel" and differ only in where neighbor
lists live, so a system supplies stage hooks — its estimator, its cache or
placement step, its kernel view — and nothing else.  Every step's work is
counted and priced by the device cost model, giving the Table II / Fig. 13
phase breakdown per batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.cache import (
    CachedDeviceView,
    CachePolicy,
    DegreeCachePolicy,
    FrequencyCachePolicy,
    HybridCachePolicy,
)
from repro.core.dcsr import DcsrCache
from repro.core.frequency import EstimationResult
from repro.core.frequency_frontier import FrontierFrequencyEstimator
from repro.core.matching import MatchStats, match_batch, match_static
from repro.core.prefilter import (
    DEFAULT_PREFILTER,
    InvariantIndex,
    PrefilterStats,
    normalize_prefilter,
)
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import CanonicalReport, DEFAULT_CONFLICT_MODE, UpdateBatch
from repro.gpu.clock import PipelineClock, TimeBreakdown, simulated_time_ns
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import BYTES_PER_NEIGHBOR, DeviceConfig, default_device
from repro.gpu.transfer import DmaEngine
from repro.query.pattern import QueryGraph
from repro.query.plan import compile_delta_plans
from repro.utils import VERTEX_DTYPE, as_generator, require, spawn_generator

if TYPE_CHECKING:
    from repro.multigpu.comm import CommReport
    from repro.multigpu.engine import LoadBalanceReport, ShardBatchReport
    from repro.multigpu.repartition import RepartitionReport

__all__ = [
    "BatchRunner",
    "BatchJob",
    "MatchOutcome",
    "GCSMEngine",
    "BatchResult",
    "make_policy",
    "update_step",
    "pack_step",
    "reorganize_step",
]


# ----------------------------------------------------------------------
# Step pricing.  The runner prices update and reorganize through these for
# every system, and the sharded engine packs each shard with pack_step.
# ----------------------------------------------------------------------
def make_policy(policy: str | CachePolicy) -> CachePolicy:
    """Resolve a policy name to a CachePolicy instance."""
    if isinstance(policy, CachePolicy):
        return policy
    if policy == "frequency":
        return FrequencyCachePolicy()
    if policy == "degree":
        return DegreeCachePolicy()
    if policy == "hybrid":
        return HybridCachePolicy()
    raise ValueError(f"unknown cache policy {policy!r}")


def update_step(
    graph: DynamicGraph,
    batch: UpdateBatch,
    device: DeviceConfig,
    mode: str = DEFAULT_CONFLICT_MODE,
    extra_work: Callable[[UpdateBatch, AccessCounters], None] | None = None,
) -> tuple[UpdateBatch, float]:
    """Step 1: canonicalize ``ΔE`` under ``mode`` and fold it into the CPU
    store; returns ``(effective_batch, simulated_ns)``.

    Every later step — estimation, root generation, matching — must run on
    the returned *effective* batch: its updates are exactly the symmetric
    difference between the pre- and post-batch edge sets, which is what
    makes ΔM equal the true state difference on conflicted streams.  The
    raw batch is still what the CPU scans (and classifies), so the charged
    work covers the full input.  ``extra_work(effective, counters)`` charges
    a system's own per-batch host maintenance to the same step; it is priced
    together with the update because the cost model takes a max over
    resources, not a sum.
    """
    effective = graph.apply_batch(batch, mode=mode)
    counters = AccessCounters()
    avg_deg = max(2.0, 2.0 * graph.num_edges / max(1, graph.num_vertices))
    per_update_ops = int(2 * (1 + math.log2(avg_deg)))
    counters.record_compute(len(batch) * per_update_ops)
    if extra_work is not None:
        extra_work(effective, counters)
    return effective, simulated_time_ns(counters, device, platform="cpu")


def pack_step(
    graph: DynamicGraph, selected: np.ndarray, device: DeviceConfig
) -> tuple[DcsrCache, float]:
    """Step 3: pack ``selected`` vertices' lists into a DCSR buffer and DMA
    it to the device; returns ``(cache, simulated_ns)``."""
    cache = DcsrCache.build(graph, selected)
    pack_counters = AccessCounters()
    pack_counters.record_compute(int(cache.colidx.shape[0]) + cache.num_cached)
    pack_cpu_ns = simulated_time_ns(pack_counters, device, platform="cpu")
    dma_counters = AccessCounters()
    dma_ns = DmaEngine(device, dma_counters).transfer(cache.total_bytes)
    return cache, pack_cpu_ns + dma_ns


def reorganize_step(graph: DynamicGraph, device: DeviceConfig) -> float:
    """Step 5: re-sort updated CPU lists; returns simulated ns."""
    reorg_stats = graph.reorganize()
    counters = AccessCounters()
    counters.record_compute(reorg_stats.merged_elements + reorg_stats.lists_touched)
    counters.record_access(
        Channel.CPU_DRAM, 0, reorg_stats.merged_elements * BYTES_PER_NEIGHBOR
    )
    return simulated_time_ns(counters, device, platform="cpu")


def _empty_vertices() -> np.ndarray:
    return np.empty(0, dtype=VERTEX_DTYPE)


@dataclass
class BatchResult:
    """Everything one batch produced.

    ``delta_count`` is the signed incremental match count (ΔM).
    ``breakdown`` holds simulated per-phase times; ``match_counters`` the
    kernel's traffic (its per-vertex histogram is the *exact* access
    frequency ``C_v`` of this batch — the ground truth for Fig. 15);
    ``estimation`` the estimator output; ``cached_vertices`` the set shipped
    to the GPU.  The fleet fields are filled only by the multi-GPU engine.
    """

    delta_count: int
    match_stats: MatchStats
    breakdown: TimeBreakdown
    match_counters: AccessCounters
    estimation: EstimationResult | None
    cached_vertices: np.ndarray = field(default_factory=_empty_vertices)
    cache_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: classification of the raw batch against the pre-batch store;
    #: ``conflicts.anomalies`` counts updates a clean stream would never contain
    conflicts: CanonicalReport | None = None
    #: certified-skip accounting when the aggregate-invariant pre-filter is
    #: enabled (None with ``prefilter="off"``)
    prefilter: PrefilterStats | None = None
    #: per-shard work of the batch (multi-GPU engine only)
    shard_reports: list[ShardBatchReport] = field(default_factory=list)
    #: straggler diagnosis of the fleet (multi-GPU engine only)
    load_balance: LoadBalanceReport | None = None
    #: cross-device traffic summary (multi-GPU engine only)
    comm: CommReport | None = None
    #: online-repartitioning outcome (sticky-ownership fleets only)
    repartition: RepartitionReport | None = None

    @property
    def cpu_access_bytes(self) -> int:
        """Bytes the kernel read from CPU memory (the Fig. 8-10 bar labels)."""
        return self.match_counters.bytes_by_channel[Channel.ZERO_COPY]

    def coverage(self, top_fraction: float) -> float:
        """Fig. 15b metric: fraction of the exact top-``top_fraction``
        most-accessed vertices that were in the GPU cache (``|S∩T|/|S|``)."""
        counts = self.match_counters.vertex_access_counts()
        accessed = np.nonzero(counts > 0)[0]
        if accessed.size == 0:
            return 1.0
        k = max(1, int(round(top_fraction * accessed.size)))
        order = np.argsort(-counts[accessed], kind="stable")
        top = set(accessed[order[:k]].tolist())
        cached = set(self.cached_vertices.tolist())
        return len(top & cached) / len(top)


@dataclass
class MatchOutcome:
    """What a system's match stage hands back to the runner.

    ``stats`` and ``counters`` are the kernel's (summed over queries for a
    rulebook), ``match_ns`` its simulated time.  ``fields`` holds the result
    fields the system reports beyond those, by result-field name: where the
    kernel's lists were read from (cache residency, hits, misses) and any
    fleet or rulebook sections.
    """

    stats: MatchStats
    counters: AccessCounters
    match_ns: float = 0.0
    fields: dict[str, Any] = field(default_factory=dict)


@dataclass
class BatchJob:
    """One batch in flight: what each stage produced for the later ones."""

    breakdown: TimeBreakdown = field(default_factory=TimeBreakdown)
    #: the canonicalized *effective* batch every stage after update runs on
    batch: UpdateBatch | None = None
    conflicts: CanonicalReport | None = None
    #: the prefilter's certified-skip decision (None with the prefilter off)
    decision: Any = None
    estimation: EstimationResult | None = None
    #: what the pack stage hands the match stage (cache, placement, ...)
    placement: Any = None
    outcome: MatchOutcome | None = None

    @property
    def skipped(self) -> bool:
        """The prefilter certified ΔM = 0 for the whole batch."""
        return self.decision is not None and self.decision.skip_batch


class BatchRunner:
    """The batch lifecycle, in :data:`~repro.gpu.clock.PIPELINE_STAGES` order.

    :meth:`process_batch` runs, for every system:

    1. update — canonicalize and apply ``ΔE`` via :func:`update_step`
       (plus the system's :meth:`_update_work`);
    2. prefilter — maintain the invariant index and decide (:meth:`_decide`);
    3. the certified-skip exit — estimate, pack and match never run;
    4. estimate — :meth:`_stage_estimate`;
    5. pack or placement — :meth:`_stage_pack`;
    6. match — :meth:`_stage_match`;
    7. reorganize, then the prefilter's ``close_batch``;
    8. the :class:`~repro.gpu.clock.PipelineClock` annotation, when the
       system models cross-batch overlap;
    9. the batch and ΔM tallies.

    If estimate or pack raises (VSGM's capacity check), the store is left
    settled — reorganized, uncharged — and the prefilter closed.  Stages
    talk only through the :class:`BatchJob`, so a subclass may re-sequence
    them (:class:`~repro.service.pipeline.PipelinedEngine` overlaps match
    with reorganize).  Subclasses set ``plans``, the ΔM plans the default
    :meth:`_decide` evaluates.
    """

    #: cross-batch schedule model; None runs batches serially
    clock: PipelineClock | None = None
    #: placement of the batch over devices (the multi-GPU engine sets these)
    num_devices: int = 1
    partitioner = None
    repartition_config = None

    def __init__(
        self,
        initial_graph: StaticGraph,
        *,
        device: DeviceConfig | None = None,
        conflict_mode: str = DEFAULT_CONFLICT_MODE,
        prefilter: str = DEFAULT_PREFILTER,
    ) -> None:
        self.device = device or default_device()
        self.graph = DynamicGraph(initial_graph)
        self.conflict_mode = conflict_mode
        self.prefilter_name = normalize_prefilter(prefilter)
        self.prefilter_index = (
            InvariantIndex(self.graph) if self.prefilter_name != "off" else None
        )
        self.batches_processed = 0
        self.total_delta = 0

    # -- the lifecycle -------------------------------------------------
    def process_batch(self, batch: UpdateBatch):
        """Run one batch through every stage."""
        job = self._open_batch(batch)
        self._match_and_reorganize(job)
        return self._close_batch(job)

    def process_stream(self, batches: list[UpdateBatch]) -> list:
        """Convenience: process a whole stream, returning per-batch results."""
        return [self.process_batch(b) for b in batches]

    def _open_batch(self, batch: UpdateBatch) -> BatchJob:
        """Stages 1-5: update, prefilter, then estimate and pack unless the
        batch is certified ΔM = 0."""
        require(len(batch) > 0, "empty batch")
        job = BatchJob()
        bd = job.breakdown
        job.batch, bd.update_ns = update_step(
            self.graph, batch, self.device, self.conflict_mode, self._update_work
        )
        job.conflicts = self.graph.last_canonical_report
        job.decision, bd.prefilter_ns = self._stage_prefilter(job.batch)
        if job.skipped:
            job.outcome = self._skip_outcome(job)
            return job
        try:
            job.estimation = self._stage_estimate(job)
            if job.estimation is not None:
                bd.estimate_ns = simulated_time_ns(
                    job.estimation.counters, self.device, platform="cpu_estimator"
                )
            job.placement, bd.pack_ns = self._stage_pack(job)
        except Exception:
            self.graph.reorganize()
            self._close_prefilter()
            raise
        return job

    def _match_and_reorganize(self, job: BatchJob) -> None:
        """Stages 6-7: match (unless skipped), then settle the store."""
        if not job.skipped:
            job.outcome = self._stage_match(job, self.graph)
        job.breakdown.reorg_ns = self._stage_reorganize()

    def _close_batch(self, job: BatchJob):
        """Stages 8-9: build the result, annotate the schedule, tally."""
        job.breakdown.match_ns = job.outcome.match_ns
        result = self._result(job)
        if self.clock is not None:
            self.clock.annotate(job.breakdown)
        self.batches_processed += 1
        self.total_delta += job.outcome.stats.signed_count
        return result

    def _stage_prefilter(self, batch: UpdateBatch) -> tuple[Any, float]:
        """Maintain the aggregate-invariant index and certify skips.

        Runs on the host right after update, while the batch is open.  The
        decision's root masks are fully materialized here, so a concurrent
        match stage never needs the live index.  ``(None, 0.0)`` when off.
        """
        if self.prefilter_index is None:
            return None, 0.0
        counters = self.prefilter_index.apply_batch(batch)
        decision = self._decide(batch, counters)
        return decision, simulated_time_ns(counters, self.device, platform="cpu")

    def _stage_reorganize(self) -> float:
        ns = reorganize_step(self.graph, self.device)
        self._close_prefilter()
        return ns

    def _close_prefilter(self) -> None:
        if self.prefilter_index is not None:
            # the batch is settled: OLD adjacency is gone, drop the overlay
            self.prefilter_index.close_batch()

    def _prefilter_stats(self, job: BatchJob) -> PrefilterStats | None:
        if job.decision is None:
            return None
        return PrefilterStats(
            enabled=True,
            batches_skipped=int(job.skipped),
            # the roots the kernel dropped (RapidFlow's candidate filters
            # remove some certified-skippable roots before the prefilter)
            roots_skipped=job.outcome.stats.roots_skipped,
            maintenance_ns=job.breakdown.prefilter_ns,
        )

    # -- stage hooks ---------------------------------------------------
    def _update_work(self, batch: UpdateBatch, counters: AccessCounters) -> None:
        """Extra host work charged to the update step (none by default)."""

    def _decide(self, batch: UpdateBatch, counters: AccessCounters):
        """The prefilter decision for ``batch``; charges its work to ``counters``."""
        decision = self.prefilter_index.evaluate(self.plans, batch)
        counters.merge(decision.counters)
        return decision

    def _stage_estimate(self, job: BatchJob) -> EstimationResult | None:
        """Access-frequency estimate for the pack stage (none by default)."""
        return None

    def _stage_pack(self, job: BatchJob) -> tuple[Any, float]:
        """Ship data to the device; returns ``(placement, simulated_ns)``."""
        return None, 0.0

    def _stage_match(self, job: BatchJob, graph: DynamicGraph) -> MatchOutcome:
        """Run the kernel over ``graph`` (the live store, or a frozen epoch)."""
        raise NotImplementedError

    def _skip_outcome(self, job: BatchJob) -> MatchOutcome:
        """The outcome of a certified-skip batch: every root dropped."""
        return MatchOutcome(MatchStats(roots_skipped=job.decision.roots_total), AccessCounters())

    def _result(self, job: BatchJob) -> BatchResult:
        out = job.outcome
        return BatchResult(
            delta_count=out.stats.signed_count,
            match_stats=out.stats,
            breakdown=job.breakdown,
            match_counters=out.counters,
            estimation=job.estimation,
            conflicts=job.conflicts,
            prefilter=self._prefilter_stats(job),
            **out.fields,
        )

    def snapshot(self) -> StaticGraph:
        """Current settled graph snapshot."""
        return self.graph.snapshot()


class GCSMEngine(BatchRunner):
    """Continuous subgraph matching with GPU caching (the paper's system).

    Parameters
    ----------
    initial_graph:
        The ``G_0`` snapshot; copied into the dynamic store.
    query:
        The pattern to monitor continuously.
    device:
        Cost/capacity model; defaults to the scaled RTX3090 analog.
    policy:
        Cache-selection policy; the paper's system uses ``"frequency"``,
        the Naive baseline is this same engine with ``"degree"`` (which
        also skips the estimation step — degrees are already known).
    num_walks:
        Estimator budget; ``None`` uses :func:`~repro.core.frequency.default_num_walks`.
    adaptive_walks:
        Enable the Eq. (5) re-sampling loop.
    cache_budget_bytes:
        Device bytes available for cached lists; ``None`` uses the full
        device buffer (GCSM).  The Naive baseline restricts this to the
        scaled analog of the ~2 GB the paper's sampled sets occupy, for a
        like-for-like footprint comparison.
    """

    def __init__(
        self,
        initial_graph: StaticGraph,
        query: QueryGraph,
        *,
        device: DeviceConfig | None = None,
        policy: str | CachePolicy = "frequency",
        num_walks: int | None = None,
        adaptive_walks: bool = False,
        cache_budget_bytes: int | None = None,
        survival: float | None = 1.0,
        seed: int | np.random.Generator | None = 0,
        conflict_mode: str = DEFAULT_CONFLICT_MODE,
        prefilter: str = DEFAULT_PREFILTER,
    ) -> None:
        super().__init__(
            initial_graph, device=device, conflict_mode=conflict_mode, prefilter=prefilter,
        )
        self.cache_budget_bytes = (
            cache_budget_bytes
            if cache_budget_bytes is not None
            else self.device.cache_buffer_bytes
        )
        self.query = query
        self.plans = compile_delta_plans(query)
        self.num_walks = num_walks
        self.adaptive_walks = adaptive_walks
        rng = as_generator(seed)
        self.estimator = FrontierFrequencyEstimator(
            self.graph, self.device, seed=spawn_generator(rng), survival=survival,
        )
        self.policy: CachePolicy = make_policy(policy)

    def _stage_estimate(self, job: BatchJob) -> EstimationResult | None:
        """Merged-random-walk frequency estimation (policy-gated).  Root-masked
        updates shrink the walk budget and the packed cache."""
        if not self.policy.requires_estimation:
            return None
        batch = job.decision.estimate_batch if job.decision is not None else job.batch
        if self.adaptive_walks:
            return self.estimator.estimate_adaptive(
                self.plans, batch, initial_walks=self.num_walks
            )
        return self.estimator.estimate(self.plans, batch, num_walks=self.num_walks)

    def _stage_pack(self, job: BatchJob) -> tuple[tuple[np.ndarray, DcsrCache], float]:
        """Select + pack frequent lists, single DMA to the device."""
        frequencies = job.estimation.frequencies if job.estimation is not None else None
        selected = self.policy.select(self.graph, frequencies, self.cache_budget_bytes)
        cache, ns = pack_step(self.graph, selected, self.device)
        return (selected, cache), ns

    def _stage_match(self, job: BatchJob, graph: DynamicGraph) -> MatchOutcome:
        """The incremental WCOJ kernel through the DCSR cache.  ``graph`` is
        the store the view dereferences for zero-copy fallthrough; the
        decision's precomputed masks keep this stage safe to overlap."""
        selected, cache = job.placement
        counters = AccessCounters()
        view = CachedDeviceView(graph, self.device, counters, cache)
        stats = match_batch(self.plans, job.batch, view, prefilter=job.decision)
        return MatchOutcome(
            stats, counters, simulated_time_ns(counters, self.device, platform="gpu"),
            dict(cached_vertices=selected, cache_bytes=cache.total_bytes,
                 cache_hits=view.hits, cache_misses=view.misses),
        )

    def initial_match(self) -> tuple[int, float]:
        """Match the query on the current settled snapshot (paper Fig. 2a).

        CSM deployments bootstrap with one static matching pass before
        switching to incremental maintenance.  Prior GPU work covers this
        case (STMatch et al., paper Sec. III); here the snapshot is matched
        with the same kernel through the zero-copy path (the graph lives on
        the CPU).  Returns ``(embedding_count, simulated_ns)``.
        """
        require(not self.graph.batch_open, "settle the open batch first")
        from repro.gpu.views import ZeroCopyView
        from repro.query.plan import compile_static_plan

        counters = AccessCounters()
        view = ZeroCopyView(self.graph, self.device, counters)
        stats = match_static(compile_static_plan(self.query), view)
        return stats.signed_count, simulated_time_ns(counters, self.device, platform="gpu")
