"""Sharded execution of the five-step GCSM pipeline over N devices.

:class:`MultiGpuEngine` mirrors :class:`~repro.core.engine.GCSMEngine`
batch-for-batch, but fans the device-side steps over a fleet:

1. **Update** — host-side, shared (one CPU store feeds every device).
2. **Estimate** — host-side, shared: one random-walk pass; its estimates
   drive both cache selection *and* the frequency-aware partitioner.
3. **Pack** — per shard: each device selects the hot vertices *it owns*
   within its own buffer budget, packs its DCSR slice, and uploads over its
   own host link.  Phase time is the slowest shard (uploads overlap).
4. **Match** — per shard: directed roots are routed to the shard owning
   their first endpoint; each shard's kernel reads local cache / peer
   caches / host zero-copy as the walk dictates.  Phase time is the slowest
   shard, plus the ΔM all-reduce (reported separately as ``comm_ns``).
5. **Reorganize** — host-side, shared.

The engine is a :class:`~repro.core.engine.GCSMEngine` that overrides only
the pack and match hooks of the shared batch lifecycle; every other stage is
the single-GPU one.  The per-shard steps reuse
:func:`~repro.core.engine.pack_step` and the shared matching executor, and
run under :func:`repro.parallel.parallel_map` for wall-clock speedup of the
harness itself.  Fleet diagnostics ride on the ordinary
:class:`~repro.core.engine.BatchResult` (``shard_reports``,
``load_balance``, ``comm``, ``repartition``).

**Invariant (enforced by tests):** with ``devices=1`` the engine takes the
exact single-GPU code path — no owner map, no peer caches, no collective —
and reproduces :class:`~repro.core.engine.GCSMEngine`'s match counts,
channel byte counters, and simulated time bit-for-bit.  For ``N > 1`` the
match counts stay identical (roots are a disjoint cover; per-root work is
independent) while the timing shows sub-linear speedup dominated by
cross-shard PEER traffic and the serial host phases.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from repro.core.cache import CachePolicy
from repro.core.engine import BatchJob, GCSMEngine, MatchOutcome
from repro.core.matching import MatchStats, match_batch
from repro.core.prefilter import DEFAULT_PREFILTER
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import DEFAULT_CONFLICT_MODE
from repro.gpu.clock import PipelineClock, ScheduleReport, simulated_time_ns
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import ClusterConfig, DeviceConfig, default_device
from repro.multigpu.comm import allreduce_delta_ns, comm_report
from repro.multigpu.partition import Partitioner, _hash_owners, make_partitioner
from repro.multigpu.repartition import (
    OwnershipManager,
    RepartitionConfig,
    RepartitionReport,
    normalize_repartition,
)
from repro.multigpu.shard import Shard, ShardedDeviceView
from repro.parallel import parallel_map
from repro.query.pattern import QueryGraph
from repro.utils import require

__all__ = ["MultiGpuEngine", "LoadBalanceReport", "ShardBatchReport"]


@dataclass(frozen=True)
class ShardBatchReport:
    """What one shard did during one batch."""

    shard_id: int
    roots_processed: int
    match_ns: float
    pack_ns: float
    cache_bytes: int
    cached_vertices: int
    local_hits: int
    local_misses: int
    remote_hits: int
    remote_misses: int
    peer_bytes: int

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "roots_processed": self.roots_processed,
            "match_ns": self.match_ns,
            "pack_ns": self.pack_ns,
            "cache_bytes": self.cache_bytes,
            "cached_vertices": self.cached_vertices,
            "local_hits": self.local_hits,
            "local_misses": self.local_misses,
            "remote_hits": self.remote_hits,
            "remote_misses": self.remote_misses,
            "peer_bytes": self.peer_bytes,
        }


@dataclass(frozen=True)
class LoadBalanceReport:
    """Per-batch straggler diagnosis of the fleet (the scaling table's
    imbalance column): max/mean shard match time and who the straggler is."""

    shard_match_ns: tuple[float, ...]
    shard_roots: tuple[int, ...]

    @property
    def num_devices(self) -> int:
        return len(self.shard_match_ns)

    @property
    def max_ns(self) -> float:
        return max(self.shard_match_ns) if self.shard_match_ns else 0.0

    @property
    def mean_ns(self) -> float:
        return (
            sum(self.shard_match_ns) / len(self.shard_match_ns)
            if self.shard_match_ns
            else 0.0
        )

    @property
    def imbalance(self) -> float:
        """max/mean shard match time; 1.0 is a perfectly balanced fleet.

        An idle fleet (every shard's match time zero — e.g. all roots
        masked away) is *defined* as perfectly balanced: 1.0, not 0/0.
        """
        return self.max_ns / self.mean_ns if self.mean_ns else 1.0

    @property
    def straggler(self) -> int | None:
        """Shard id of the slowest device, or ``None`` on an idle fleet
        (all shard match times zero: nobody straggled)."""
        if not self.shard_match_ns or self.max_ns == 0.0:
            return None
        return int(max(range(len(self.shard_match_ns)),
                       key=lambda i: self.shard_match_ns[i]))

    def to_dict(self) -> dict:
        return {
            "num_devices": self.num_devices,
            "shard_match_ns": list(self.shard_match_ns),
            "shard_roots": list(self.shard_roots),
            "max_ns": self.max_ns,
            "mean_ns": self.mean_ns,
            "imbalance": self.imbalance,
            "straggler": self.straggler,
        }


class MultiGpuEngine(GCSMEngine):
    """Continuous subgraph matching sharded across N simulated devices.

    Parameters mirror :class:`~repro.core.engine.GCSMEngine` (``policy``,
    ``num_walks``, ``adaptive_walks``, ``cache_budget_bytes``, ``survival``,
    ``seed``) plus:

    devices:
        Device count, or a full :class:`~repro.gpu.device.ClusterConfig`
        (interconnect choice, all-reduce latency, base device).
    partitioner:
        ``"hash"`` | ``"range"`` | ``"freq"`` | ``"mincut"`` or a
        :class:`~repro.multigpu.partition.Partitioner` instance.  The
        frequency-aware partitioners re-run per batch on that batch's
        random-walk estimates (the cache is rebuilt and re-shipped every
        batch anyway, so re-homing is free) — unless ``repartition`` makes
        ownership sticky.
    partitioner_opts:
        Optional mapping of tuning knobs for a *named* partitioner
        (``balance_slack`` for freq/mincut; ``refine_passes`` / ``chunk``
        / ``load_weight`` for mincut).  The resolved knobs are recorded in
        the harness/results JSON.
    repartition:
        Online repartitioning (``None``/``False`` off, ``True`` defaults,
        or a mapping / :class:`~repro.multigpu.repartition.RepartitionConfig`
        of knobs).  When enabled the owner map becomes **sticky**: the
        partitioner runs once on the first batch, new vertices get hash
        homes, and an :class:`~repro.multigpu.repartition.OwnershipManager`
        tracks per-vertex access heat (EWMA over the match counters),
        detects drift, and migrates vertices whose move pays back within
        the horizon — migration priced as PEER + DMA traffic in
        ``breakdown.repartition_ns`` (its own host pipeline lane stage).
        Results never change, only placement and timing.
    device:
        Base per-shard DeviceConfig; ignored when ``devices`` is a
        ClusterConfig (use its ``base``).
    workers:
        Thread-pool width for fanning the per-shard pack/match steps
        (wall-clock only — simulated time is unaffected).  ``None`` uses
        :func:`repro.parallel.default_workers`.
    cache_budget_bytes:
        Per-device budget: every card in the fleet has its own buffer of
        this size (aggregate fleet cache capacity grows with N).
    pipeline:
        Model the staged cross-batch schedule in simulated time: a
        :class:`~repro.gpu.clock.PipelineClock` annotates every batch's
        breakdown with ``critical_path_ns``/``fill_ns``/``drain_ns`` (the
        fleet-wide match phase is one GPU-lane entry, the ΔM all-reduce
        rides the PEER lane).  Results are unaffected — only the time
        accounting changes, exactly as for
        :class:`~repro.service.pipeline.PipelinedEngine`.
    """

    def __init__(
        self,
        initial_graph: StaticGraph,
        query: QueryGraph,
        *,
        devices: int | ClusterConfig = 1,
        partitioner: str | Partitioner = "hash",
        partitioner_opts: Mapping | None = None,
        repartition: RepartitionConfig | Mapping | bool | None = None,
        device: DeviceConfig | None = None,
        policy: str | CachePolicy = "frequency",
        num_walks: int | None = None,
        adaptive_walks: bool = False,
        cache_budget_bytes: int | None = None,
        survival: float | None = 1.0,
        seed: int | np.random.Generator | None = 0,
        workers: int | None = None,
        conflict_mode: str = DEFAULT_CONFLICT_MODE,
        prefilter: str = DEFAULT_PREFILTER,
        pipeline: bool = False,
    ) -> None:
        if isinstance(devices, ClusterConfig):
            self.cluster = devices
        else:
            self.cluster = ClusterConfig(
                num_devices=int(devices), base=device or default_device()
            )
        self.num_devices = self.cluster.num_devices
        # the same estimator, RNG derivation and policy as GCSMEngine: the
        # fleet's estimates are bit-identical to the single-GPU engine's.
        # One shared host-side prefilter index serves the whole fleet:
        # maintenance is a host phase, and each shard kernel reads the live
        # index, which masks exactly the roots routed to it
        super().__init__(
            initial_graph, query, device=self.cluster.device(), policy=policy,
            num_walks=num_walks, adaptive_walks=adaptive_walks,
            cache_budget_bytes=cache_budget_bytes, survival=survival, seed=seed,
            conflict_mode=conflict_mode, prefilter=prefilter,
        )
        self.partitioner = make_partitioner(partitioner, partitioner_opts)
        self.repartition_config = normalize_repartition(repartition)
        # online repartitioning is a fleet concern: at N=1 there is no
        # placement, so the manager is absent and the single-GPU code path
        # (and its bit-identical invariant) is untouched
        self.ownership = (
            OwnershipManager(self.num_devices, self.repartition_config, self.device)
            if self.repartition_config is not None and self.num_devices > 1
            else None
        )
        self._owner: np.ndarray | None = None  # sticky map (repartition mode)
        self.workers = workers
        self.shards = [
            Shard(i, dev, self.cache_budget_bytes)
            for i, dev in enumerate(self.cluster.devices())
        ]
        if pipeline:
            self.clock = PipelineClock()

    def schedule_report(self) -> ScheduleReport:
        """Stream-level pipeline schedule summary (``pipeline=True`` only)."""
        require(self.clock is not None, "engine built without pipeline=True")
        return self.clock.report()

    # ------------------------------------------------------------------
    def _stage_pack(self, job: BatchJob):
        """Partition, then per-shard select + pack + DMA (own links overlap).

        Per-batch re-placement folds into the pack phase; sticky ownership
        (repartition mode) is its own host stage, ``repartition_ns``.
        """
        graph = self.graph
        frequencies = job.estimation.frequencies if job.estimation is not None else None
        owner: np.ndarray | None = None
        partition_ns = 0.0
        repart_report: RepartitionReport | None = None
        if self.num_devices > 1:
            part_counters = AccessCounters()
            if self.ownership is None:
                owner = self.partitioner.assign(
                    graph, frequencies, self.num_devices, part_counters,
                    roots=job.batch.edges,
                )
                partition_ns = simulated_time_ns(
                    part_counters, self.device, platform="cpu"
                )
            else:
                owner, repart_report = self._sticky_owner_step(
                    graph, frequencies, part_counters, job.batch.edges
                )
                job.breakdown.repartition_ns = (
                    simulated_time_ns(part_counters, self.device, platform="cpu")
                    + (repart_report.repartition_ns if repart_report else 0.0)
                )
                if repart_report is not None:
                    # surface the full stage cost (planning compute +
                    # migration traffic) to JSON consumers
                    repart_report = replace(
                        repart_report, repartition_ns=job.breakdown.repartition_ns
                    )

        ranked = self.policy.rank(graph, frequencies)
        parallel_map(
            lambda shard: shard.select_and_pack(graph, ranked, owner),
            self.shards,
            workers=self.workers,
        )
        return (owner, repart_report), partition_ns + max(s.pack_ns for s in self.shards)

    def _stage_match(self, job: BatchJob, graph: DynamicGraph) -> MatchOutcome:
        """Per-shard incremental matching, then the ΔM all-reduce."""
        owner, repart_report = job.placement
        caches = [s.cache for s in self.shards]

        def _match_one(shard: Shard):
            counters = AccessCounters()
            view = ShardedDeviceView(
                graph, shard.device, counters, shard.cache,
                shard_id=shard.shard_id, owner=owner, peer_caches=caches,
            )
            mask = None
            if owner is not None:
                sid = shard.shard_id
                mask = lambda roots: owner[roots[:, 0]] == sid  # noqa: E731
            # the live index masker recomputes per shard-routed subset, so
            # skipped-root accounting partitions exactly across the fleet
            stats = match_batch(
                self.plans, job.batch, view, root_mask=mask,
                prefilter=self.prefilter_index,
            )
            match_ns = simulated_time_ns(counters, shard.device, platform="gpu")
            return stats, counters, view, match_ns

        stats, counters, views, shard_ns = zip(
            *parallel_map(_match_one, self.shards, workers=self.workers)
        )
        job.breakdown.comm_ns = (
            allreduce_delta_ns(self.cluster, len(self.plans))
            if self.num_devices > 1
            else 0.0
        )
        total_stats = MatchStats()
        merged = AccessCounters()
        for st, c in zip(stats, counters):
            total_stats.merge(st)
            merged.merge(c)
        if self.ownership is not None:
            # feed the heat EWMA with this batch's per-vertex read bytes
            self.ownership.observe(merged.vertex_access_bytes(graph.num_vertices))
        shard_reports = [
            ShardBatchReport(
                shard_id=s.shard_id,
                roots_processed=st.roots_processed,
                match_ns=ns,
                pack_ns=s.pack_ns,
                cache_bytes=s.cache.total_bytes,
                cached_vertices=s.cache.num_cached,
                local_hits=view.hits,
                local_misses=view.misses,
                remote_hits=view.remote_hits,
                remote_misses=view.remote_misses,
                peer_bytes=c.bytes_by_channel[Channel.PEER],
            )
            for s, st, c, view, ns in zip(self.shards, stats, counters, views, shard_ns)
        ]
        return MatchOutcome(
            total_stats, merged, max(shard_ns),
            dict(
                cached_vertices=np.concatenate([s.selected for s in self.shards]),
                cache_bytes=sum(s.cache.total_bytes for s in self.shards),
                cache_hits=sum(view.total_hits for view in views),
                cache_misses=sum(view.total_misses for view in views),
                shard_reports=shard_reports,
                load_balance=LoadBalanceReport(
                    shard_match_ns=shard_ns,
                    shard_roots=tuple(st.roots_processed for st in stats),
                ),
                comm=comm_report(list(counters), job.breakdown.comm_ns),
                repartition=repart_report,
            ),
        )

    def _sticky_owner_step(
        self,
        graph: DynamicGraph,
        frequencies: np.ndarray | None,
        counters: AccessCounters,
        roots: np.ndarray | None = None,
    ) -> tuple[np.ndarray, RepartitionReport | None]:
        """Owner map under online repartitioning (sticky across batches).

        First batch: one full partitioner placement.  Later batches: grow
        the map with hash homes for new vertices, then let the ownership
        manager evaluate drift and maybe migrate.
        """
        if self._owner is None:
            self._owner = self.partitioner.assign(
                graph, frequencies, self.num_devices, counters, roots=roots
            )
            return self._owner, None
        n = graph.num_vertices
        if n > self._owner.size:
            old = self._owner.size
            grown = _hash_owners(n, self.num_devices)
            grown[:old] = self._owner
            self._owner = grown
            counters.record_compute(n - old)
        self._owner, report = self.ownership.step(graph, self._owner, counters)
        return self._owner, report
