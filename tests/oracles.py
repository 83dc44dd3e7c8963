"""Reference implementations the test suite checks production kernels against.

Production runs one matching kernel
(:class:`~repro.core.frontier.FrontierExecutor`), one frequency sampler
(:class:`~repro.core.frequency_frontier.FrontierFrequencyEstimator`), the
vectorized DCSR pack, the vectorized frequency partitioner and the
vectorized reorganize merge.  Each has a literal scalar counterpart here —
the per-root depth-first executor, the per-node depth-first sampler, the
per-vertex packing loop, the per-hot-vertex claiming loop and the
two-pointer merge — and the tests assert the production code reproduces
them bit for bit (or, for the sampler's stochastic regimes, in
distribution).

:func:`reference_kernels` swaps the depth-first executor and/or sampler
into every engine at once by patching the one name production resolves for
each, so a whole-system test can run its recursive leg without any engine
knob.  It is a plain context manager (not the ``monkeypatch`` fixture), so
hypothesis tests can enter it per example.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np

from repro.core import matching
from repro.core.dcsr import DcsrCache
from repro.core.frequency import EstimationResult, FrequencyEstimator, default_num_walks
from repro.core.frequency_frontier import FrontierFrequencyEstimator
from repro.core.frontier import MatchStats, merge_runs
from repro.core.matching import EmbeddingSink, delta_roots
from repro.core.validation import RulebookParityReport, verify_rulebook
from repro.graphs.attributes import edge_weights
from repro.graphs.dynamic_graph import DynamicGraph
from repro.graphs.stream import UpdateBatch
from repro.gpu.counters import AccessCounters, Channel
from repro.gpu.device import BYTES_PER_NEIGHBOR
from repro.gpu.views import GraphView
from repro.multigpu.partition import FrequencyPartitioner, _hash_owners
from repro.query.pattern import WILDCARD_LABEL
from repro.query.plan import EdgeVersion, MatchPlan
from repro.utils import VERTEX_DTYPE, intersect_sorted, merge_sorted, require

__all__ = [
    "KERNELS",
    "RecursiveExecutor",
    "RecursiveFrequencyEstimator",
    "SAMPLERS",
    "reference_kernels",
    "verify_rulebook_legs",
    "build_dcsr_reference",
    "assign_freq_reference",
    "merge_runs_reference",
]

#: the two implementations of each kernel a test leg can select
KERNELS = ("frontier", "recursive")


@contextmanager
def reference_kernels(executor: str = "recursive", estimator: str = "recursive"):
    """Run every engine with the selected matching executor and sampler.

    ``"recursive"`` swaps in the depth-first reference for the duration of
    the block: :class:`RecursiveExecutor` replaces the executor
    :func:`~repro.core.matching.match_batch` / ``match_static`` construct,
    and :meth:`RecursiveFrequencyEstimator.estimate` replaces the production
    sampler's ``estimate``.  ``"frontier"`` leaves production untouched.
    Engines built before or inside the block are both affected; the shared
    query trie drives the frontier kernel directly and is never swapped.
    """
    for name, value in (("executor", executor), ("estimator", estimator)):
        require(value in KERNELS, f"unknown {name} {value!r}; expected one of {KERNELS}")
    with ExitStack() as stack:
        if executor == "recursive":
            stack.enter_context(mock.patch.object(matching, "FrontierExecutor", RecursiveExecutor))
        if estimator == "recursive":
            stack.enter_context(mock.patch.object(
                FrontierFrequencyEstimator, "estimate", RecursiveFrequencyEstimator.estimate
            ))
        yield


def verify_rulebook_legs(*args, **kwargs) -> RulebookParityReport:
    """:func:`~repro.core.validation.verify_rulebook` with the independent
    engine on each executor in turn; both legs must report the same."""
    reports = []
    for executor in KERNELS:
        with reference_kernels(executor=executor, estimator="frontier"):
            reports.append(verify_rulebook(*args, **kwargs))
    assert reports[0] == reports[1]
    return reports[0]


# ----------------------------------------------------------------------
# matching: the per-root depth-first executor
# ----------------------------------------------------------------------
class RecursiveExecutor:
    """Depth-first execution of one plan over a set of roots.

    Same constructor and ``run`` as
    :class:`~repro.core.frontier.FrontierExecutor`; ``pool`` is accepted and
    ignored (the merged-list memo is per executor).
    """

    def __init__(
        self,
        plan: MatchPlan,
        view: GraphView,
        labels: np.ndarray,
        sink: EmbeddingSink | None,
        filters: dict[int, np.ndarray] | None = None,
        pool: dict | None = None,
    ) -> None:
        self.plan = plan
        self.view = view
        self.labels = labels
        self.sink = sink
        #: optional per-query-vertex candidate sets (sorted arrays); used by
        #: the RapidFlow baseline's candidate-index pruning
        self.filters = filters or {}
        #: per-level predicated constraints, in plan constraint order
        self._preds = [
            tuple(c for c in lvl.constraints if c.predicate is not None)
            for lvl in plan.levels
        ]
        self.stats = MatchStats()
        # merged-array memo: the kernel re-reads lists (recorded by the view)
        # but we keep one merged Python object per (vertex, version family)
        self._merged: dict[tuple[int, bool], np.ndarray] = {}
        self._bound = np.empty(plan.depth, dtype=VERTEX_DTYPE)

    def run(self, roots: np.ndarray, signs: np.ndarray) -> MatchStats:
        for (x_a, x_b), sign in zip(roots.tolist(), signs.tolist()):
            self.run_root(int(x_a), int(x_b), int(sign))
        return self.stats

    def _versioned_list(self, v: int, version: EdgeVersion) -> np.ndarray:
        runs = self.view.fetch(v, version)  # records the access every time
        key = (v, version is EdgeVersion.OLD)
        arr = self._merged.get(key)
        if arr is None:
            arr = merge_runs(runs)
            self._merged[key] = arr
        return arr

    def run_root(self, x_a: int, x_b: int, sign: int) -> None:
        self.stats.roots_processed += 1
        self.stats.tree_nodes += 1
        self._bound[0] = x_a
        self._bound[1] = x_b
        if self.plan.depth == 2:
            self._emit(2, 1, sign, leaf_candidates=None)
            return
        self._expand(0, sign)

    def _candidates(self, level_index: int, bound_count: int) -> np.ndarray:
        lvl = self.plan.levels[level_index]
        counters = self.view.counters
        # smallest constraint list first: maximal early pruning
        cons = sorted(
            lvl.constraints,
            key=lambda c: self.view.degree_bound(int(self._bound[c.position]), c.version),
        )
        first = cons[0]
        cand = self._versioned_list(int(self._bound[first.position]), first.version)
        counters.record_compute(cand.size)
        for c in cons[1:]:
            if cand.size == 0:
                break
            other = self._versioned_list(int(self._bound[c.position]), c.version)
            counters.record_compute(cand.size + other.size)
            cand = intersect_sorted(cand, other)
        if cand.size == 0:
            return cand
        cand_filter = self.filters.get(lvl.query_vertex)
        if cand_filter is not None:
            # candidate-index pruning (RapidFlow): the index already encodes
            # the label constraint, so it subsumes the label check; one
            # O(1) membership probe charged per candidate
            counters.record_compute(cand.size)
            cand = intersect_sorted(cand, cand_filter)
        elif lvl.label != WILDCARD_LABEL:
            cand = cand[self.labels[cand] == lvl.label]
        # predicate pushdown: one weight probe per surviving candidate, one
        # predicated constraint at a time (plan constraint order)
        for c in self._preds[level_index]:
            if cand.size == 0:
                break
            counters.record_compute(cand.size)
            w = edge_weights(int(self._bound[c.position]), cand)
            lo, hi = c.predicate
            cand = cand[(w >= lo) & (w <= hi)]
        for i in range(bound_count):  # injectivity
            if cand.size == 0:
                break
            cand = cand[cand != self._bound[i]]
        counters.record_compute(cand.size)
        return cand

    def _expand(self, level_index: int, sign: int) -> None:
        bound_count = level_index + 2
        cand = self._candidates(level_index, bound_count)
        if cand.size == 0:
            return
        if level_index == len(self.plan.levels) - 1:
            self._emit(bound_count, cand.size, sign, leaf_candidates=cand)
            return
        for v in cand.tolist():
            self.stats.tree_nodes += 1
            self._bound[bound_count] = v
            self._expand(level_index + 1, sign)

    def _emit(self, bound_count: int, count: int, sign: int,
              leaf_candidates: np.ndarray | None) -> None:
        self.stats.signed_count += sign * count
        self.stats.embeddings_found += count
        self.stats.tree_nodes += count if leaf_candidates is not None else 0
        self.view.counters.record_output(count)
        self.view.counters.record_compute(count * self.plan.depth)
        if self.sink is not None:
            order = self.plan.order
            inverse = np.empty(len(order), dtype=np.int64)
            for pos, u in enumerate(order):
                inverse[u] = pos
            if leaf_candidates is None:
                emb = tuple(int(self._bound[inverse[u]]) for u in range(len(order)))
                self.sink(emb, sign)
            else:
                for v in leaf_candidates.tolist():
                    self._bound[bound_count] = v
                    emb = tuple(int(self._bound[inverse[u]]) for u in range(len(order)))
                    self.sink(emb, sign)


# ----------------------------------------------------------------------
# frequency estimation: the per-node depth-first sampler
# ----------------------------------------------------------------------
class RecursiveFrequencyEstimator(FrequencyEstimator):
    """Merged-binomial walks expanded one execution-tree node per frame.

    ``estimate`` reads only the base-class state (``graph``, ``rng``,
    ``survival``), so :func:`reference_kernels` can install it on the
    production sampler class.
    """

    def estimate(
        self,
        plans: list[MatchPlan],
        batch: UpdateBatch,
        *,
        num_walks: int | None = None,
        max_degree: int | None = None,
    ) -> EstimationResult:
        graph = self.graph
        labels = graph.labels
        if max_degree is None:
            max_degree = max(1, graph.max_degree())
        if num_walks is None:
            num_walks = default_num_walks(
                len(batch), max_degree, plans[0].query.num_vertices
            )
        counters = AccessCounters()
        freq = np.zeros(graph.num_vertices, dtype=np.float64)
        nodes_visited = 0
        walks_per_plan = max(1, num_walks // max(1, len(plans)))
        inv_d = 1.0 / max_degree

        for plan in plans:
            roots, _signs = delta_roots(plan, batch, labels)
            num_roots = roots.shape[0]
            if num_roots == 0:
                continue
            # B_root ~ Binomial(M, 1/|ΔR_i|) per root (merged execution)
            b_roots = self.rng.binomial(walks_per_plan, 1.0 / num_roots, size=num_roots)
            bound = np.empty(plan.depth, dtype=np.int64)
            for r in np.nonzero(b_roots > 0)[0]:
                bound[0], bound[1] = roots[r]
                nodes_visited += _walk(
                    self, plan, bound, 0, int(b_roots[r]), float(num_roots),
                    inv_d, freq, counters, labels,
                )
        if num_walks > 0:
            freq /= walks_per_plan
        return EstimationResult(freq, num_walks, nodes_visited, counters)


#: sampler class per :data:`KERNELS` name (same constructor)
SAMPLERS: dict[str, type[FrequencyEstimator]] = {
    "frontier": FrontierFrequencyEstimator,
    "recursive": RecursiveFrequencyEstimator,
}


def _fetch(
    graph: DynamicGraph,
    v: int,
    version: EdgeVersion,
    counters: AccessCounters,
    multiplicity: int,
    weight: float,
    freq: np.ndarray,
) -> np.ndarray:
    """Read a versioned list on the CPU, recording the access for FE cost
    and charging the frequency estimate for vertex ``v``."""
    if version is EdgeVersion.OLD:
        arr = graph.neighbors_old(v)
    else:
        base, delta = graph.neighbors_new_parts(v)
        arr = merge_sorted(base, delta) if delta.size else base
    counters.record_access(Channel.CPU_DRAM, v, arr.size * BYTES_PER_NEIGHBOR)
    counters.record_compute(arr.size + 1)
    freq[v] += multiplicity * weight
    return arr


def _walk(
    est: FrequencyEstimator,
    plan: MatchPlan,
    bound: np.ndarray,
    level_index: int,
    multiplicity: int,
    weight: float,
    inv_d: float,
    freq: np.ndarray,
    counters: AccessCounters,
    labels: np.ndarray,
) -> int:
    """Expand one execution-tree node with merged multiplicity ``B``.

    ``weight`` is the inverse sampling probability of *this* node
    (``|ΔE| · D^{level-1}``); accesses performed here are charged at that
    weight times the node multiplicity (paper Eq. 3).  Returns the number
    of tree nodes visited.
    """
    if level_index >= len(plan.levels):
        return 1
    graph = est.graph
    lvl = plan.levels[level_index]

    # visit constraints smallest-list-first, like the matching kernel
    def _len_of(c):
        v = int(bound[c.position])
        return (graph.degree_old(v) if c.version is EdgeVersion.OLD
                else graph.degree_new(v))

    cand: np.ndarray | None = None
    for c in sorted(lvl.constraints, key=_len_of):
        arr = _fetch(graph, int(bound[c.position]), c.version, counters,
                     multiplicity, weight, freq)
        if cand is None:
            cand = arr
        else:
            counters.record_compute(cand.size + arr.size)
            cand = np.intersect1d(cand, arr, assume_unique=True)
        if cand.size == 0:
            return 1
    assert cand is not None
    if lvl.label != WILDCARD_LABEL:
        cand = cand[labels[cand] == lvl.label]
    for i in range(level_index + 2):
        cand = cand[cand != bound[i]]
    counters.record_compute(cand.size)
    if cand.size == 0:
        return 1
    nodes = 1
    if est.survival is None:
        child_p = inv_d  # paper schedule: 1/D per child
    else:
        child_p = min(1.0, est.survival / cand.size)
    if child_p >= 1.0:
        # saturated continuation: every child survives with its parent's
        # full multiplicity; skipping the degenerate binomial draw keeps the
        # RNG stream aligned with the frontier sampler
        b_children = np.full(cand.size, multiplicity, dtype=np.int64)
    else:
        b_children = est.rng.binomial(multiplicity, child_p, size=cand.size)
    child_weight = weight / child_p  # inverse sampling probability so far
    for j in np.nonzero(b_children > 0)[0]:
        bound[level_index + 2] = cand[j]
        nodes += _walk(
            est, plan, bound, level_index + 1, int(b_children[j]), child_weight,
            inv_d, freq, counters, labels,
        )
    return nodes


# ----------------------------------------------------------------------
# DCSR pack, frequency partitioner, reorganize merge
# ----------------------------------------------------------------------
def build_dcsr_reference(graph: DynamicGraph, vertices: np.ndarray) -> DcsrCache:
    """The per-vertex packing loop :meth:`DcsrCache.build` vectorizes (and
    the honest CPU-side cost baseline for it)."""
    verts = np.unique(np.asarray(vertices, dtype=VERTEX_DTYPE))
    if verts.size:
        require(
            bool(verts[0] >= 0 and verts[-1] < graph.num_vertices),
            "cache vertex out of range",
        )
    k = verts.size
    rowptr = np.empty((k + 1, 2), dtype=np.int64)
    chunks: list[np.ndarray] = []
    offset = 0
    for i, v in enumerate(verts.tolist()):
        base = graph.base_run_raw(v)
        delta = graph.delta_neighbors(v)
        rowptr[i, 0] = offset
        rowptr[i, 1] = offset + base.size if delta.size else -1
        chunks.append(base)
        if delta.size:
            chunks.append(delta)
        offset += base.size + delta.size
    rowptr[k, 0] = offset
    rowptr[k, 1] = -1
    colidx = np.concatenate(chunks) if chunks else np.empty(0, dtype=VERTEX_DTYPE)
    return DcsrCache(verts, rowptr, colidx.astype(VERTEX_DTYPE, copy=False))


def assign_freq_reference(
    partitioner: FrequencyPartitioner, graph, frequencies, num_devices, counters=None
) -> np.ndarray:
    """The per-hot-vertex claiming loop of :meth:`FrequencyPartitioner.assign`
    (one ``neighbors_new`` merge per hot vertex)."""
    n = graph.num_vertices
    owners = _hash_owners(n, num_devices)
    if counters is not None:
        counters.record_compute(n)
    if frequencies is None or num_devices == 1:
        return owners
    hot = np.nonzero(frequencies[:n] > 0)[0]
    if hot.size == 0:
        return owners
    hot = hot[np.argsort(-frequencies[hot], kind="stable")]

    degrees = graph.degrees_new().astype(np.int64)
    load = np.bincount(owners, weights=degrees, minlength=num_devices)
    cap = (1.0 + partitioner.balance_slack) * degrees.sum() / num_devices
    claimed = np.zeros(n, dtype=bool)
    ops = n
    for v in hot.tolist():
        if claimed[v]:
            continue
        nbrs = graph.neighbors_new(v)
        ops += nbrs.size + 1
        group = np.append(nbrs[~claimed[nbrs]], v)
        votes = np.bincount(owners[group], weights=degrees[group] + 1,
                            minlength=num_devices)
        target = int(np.argmax(votes))
        movers = group[owners[group] != target]
        moved_mass = int(degrees[movers].sum())
        if load[target] + moved_mass > cap:
            claimed[v] = True
            continue
        np.subtract.at(load, owners[movers], degrees[movers])
        load[target] += moved_mass
        owners[group] = target
        claimed[group] = True
    if counters is not None:
        counters.record_compute(ops)
    return owners


def merge_runs_reference(kept: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Scalar two-pointer merge of the kept base run and the ΔN run — the
    literal per-element loop of paper Sec. V-A step 4 that
    :meth:`~repro.graphs.dynamic_graph.DynamicGraph.reorganize` vectorizes."""
    merged = np.empty(kept.size + delta.size, dtype=VERTEX_DTYPE)
    i = j = k = 0
    while i < kept.size and j < delta.size:
        if kept[i] <= delta[j]:
            merged[k] = kept[i]
            i += 1
        else:
            merged[k] = delta[j]
            j += 1
        k += 1
    if i < kept.size:
        merged[k:] = kept[i:]
    elif j < delta.size:
        merged[k:] = delta[j:]
    return merged
