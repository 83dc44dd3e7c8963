"""The pipelined batch engine: staged, overlapped execution of Fig. 3.

The serial :class:`~repro.core.engine.GCSMEngine` runs the five steps of
every batch back to back.  The paper's system (and GPU batch-dynamic
matchers generally) instead overlap host-side preparation with device-side
matching: while the kernel matches batch *k*, the host already reorganizes
batch *k*'s lists and updates/estimates/packs batch *k+1*.

:class:`PipelinedEngine` re-sequences the stages of the one batch lifecycle
(:class:`~repro.core.engine.BatchRunner`) in two coupled ways:

* **Simulated time** — a :class:`~repro.gpu.clock.PipelineClock` places each
  batch's stage durations on FIFO CPU/GPU/PEER lanes and annotates the
  batch's :class:`~repro.gpu.clock.TimeBreakdown` with ``critical_path_ns``
  / ``fill_ns`` / ``drain_ns``.  The per-batch critical path sums to the
  schedule makespan, which is what the service layer charges a device for.
* **Wall clock** — the GPU match really runs on a
  :func:`repro.parallel.submit` worker thread against a
  :meth:`~repro.graphs.dynamic_graph.DynamicGraph.freeze` of the store
  (copy-on-write isolation), while the host thread runs reorganize and the
  next batch's CPU stages concurrently.

**Bit-parity contract.**  Per-batch ΔM, ``MatchStats``, access counters,
cache selection, estimator output, and the final store are identical to the
serial engine on any stream, because

1. the frozen view the kernel reads *is* the store state the serial kernel
   would have read (captured after update/pack, before reorganize);
2. reorganize consumes only batch *k*'s touch-set, which the kernel never
   mutates; and
3. the estimator's RNG is consumed in the same order (all CPU stages stay
   serialized on the host thread).

Only the three pipeline fields of the breakdown differ from the serial
engine (they are zero there); ``total_ns`` and every stage time are equal.
The differential stream fuzzer enforces this via the ``"Pipelined"`` system
spec in :mod:`repro.core.validation`.
"""

from __future__ import annotations

from repro.core.engine import BatchJob, BatchResult, GCSMEngine
from repro.gpu.clock import PipelineClock, ScheduleReport
from repro.parallel import submit

__all__ = ["PipelinedEngine"]


class PipelinedEngine(GCSMEngine):
    """GCSM with cross-batch stage overlap (same results, different clock).

    Accepts every :class:`~repro.core.engine.GCSMEngine` parameter plus:

    threaded:
        Run the GPU match stage on a real worker thread overlapping the
        host stages (the default).  ``False`` keeps execution single-
        threaded — the simulated-time pipeline model still applies, so
        results and annotated breakdowns are identical either way; only
        the harness wall clock changes.

    Within a batch, reorganize overlaps the match (the kernel reads a
    frozen epoch); across ``process_batch`` calls the pipeline clock keeps
    modeling cross-batch overlap, because its lanes persist on the engine.
    For real cross-batch wall-clock overlap, feed whole streams to
    :meth:`process_stream`.
    """

    name = "Pipelined"

    def __init__(self, *args, threaded: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.threaded = threaded
        self.clock = PipelineClock()

    def _match_and_reorganize(self, job: BatchJob) -> None:
        """Match on a frozen epoch while the host reorganizes the store."""
        if job.skipped or not self.threaded:
            super()._match_and_reorganize(job)
            return
        with self.graph.freeze() as frozen:
            task = submit(self._stage_match, job, frozen)
            job.breakdown.reorg_ns = self._stage_reorganize()
            job.outcome = task.result()

    def process_stream(self, batches) -> list[BatchResult]:
        """Software-pipelined stream execution.

        While the device lane matches batch *k* (on its worker thread,
        against the frozen epoch), the host thread reorganizes *k* and runs
        update/estimate/pack of *k+1* — the schedule
        :class:`~repro.gpu.clock.PipelineClock` models.  Results are
        collected in batch order, so the returned list is exactly what the
        serial engine would have produced.
        """
        if not self.threaded:
            return super().process_stream(batches)
        results: list[BatchResult] = []
        inflight = None
        for raw in batches:
            job = self._open_batch(raw)
            if job.skipped:
                # certified ΔM = 0: nothing to ship to the device lane; the
                # store still reorganizes, and the in-flight batch drains
                # first so results stay in batch order
                self._match_and_reorganize(job)
                if inflight is not None:
                    results.append(self._collect(*inflight))
                    inflight = None
                results.append(self._close_batch(job))
                continue
            frozen = self.graph.freeze()
            # the decision's masks are immutable, so the kernel thread never
            # races the live index (maintained on this host thread)
            task = submit(self._stage_match, job, frozen)
            # host continues immediately: the freeze isolates the kernel
            job.breakdown.reorg_ns = self._stage_reorganize()
            if inflight is not None:
                results.append(self._collect(*inflight))
            inflight = (job, task, frozen)
        if inflight is not None:
            results.append(self._collect(*inflight))
        return results

    def _collect(self, job: BatchJob, task, frozen) -> BatchResult:
        try:
            job.outcome = task.result()
        finally:
            frozen.release()
        return self._close_batch(job)

    def schedule_report(self) -> ScheduleReport:
        """Stream-level pipeline schedule summary (makespan, overlap, fill/drain)."""
        return self.clock.report()
