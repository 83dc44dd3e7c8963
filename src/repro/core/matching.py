"""Incremental WCOJ matching (the paper's GPU kernel, Sec. V-C).

This is the reproduction's analog of the STMatch-derived CUDA kernel: it
executes the nested-loop plans of :mod:`repro.query.plan`, binding one
query vertex per level by intersecting the (versioned) neighbor lists of
its bound query neighbors.  Faithful behaviours carried over from the
paper's kernel:

* **Split intersections.**  ``N'`` is handled as ``N ∪ ΔN``: the view
  returns the base and delta runs separately and the kernel merges them
  once (both runs are sorted, so the merge is linear) — deleted neighbors
  have already been dropped from the base run by the store, the analog of
  "skip the negative indices".
* **Every access counts.**  Each neighbor-list read goes through the
  :class:`~repro.gpu.views.GraphView`, which records channel traffic and the
  per-vertex access histogram.  Re-reads of the same list are recorded again
  (the real kernel streams lists from memory on every use); the kernel
  only memoizes the *merged array object* to keep Python-side costs down.
* **Work accounting.**  Merge-intersections charge ``len(a) + len(b)``
  compute ops (the cost model of merge-based SIMD intersection), candidate
  filtering and output emission charge per element.

The kernel is shared verbatim by GCSM and every baseline — exactly the
paper's "all the GPU versions use the same GPU kernel" setup — with only the
view deciding where reads are served from.  It is the level-synchronous
:class:`~repro.core.frontier.FrontierExecutor`; this module generates the
roots and drives it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.frontier import FrontierExecutor, MatchStats
from repro.graphs.attributes import edge_weights
from repro.graphs.stream import UpdateBatch
from repro.gpu.views import GraphView
from repro.query.pattern import WILDCARD_LABEL
from repro.query.plan import MatchPlan
from repro.utils import VERTEX_DTYPE

__all__ = [
    "MatchStats",
    "match_batch",
    "match_static",
    "delta_roots",
    "static_roots",
    "filter_root_predicate",
]

EmbeddingSink = Callable[[tuple[int, ...], int], None]


# ----------------------------------------------------------------------
# root generation
# ----------------------------------------------------------------------
def delta_roots(
    plan: MatchPlan, batch: UpdateBatch, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Directed signed batch edges matching plan's root query edge labels.

    Both orientations of every update are considered (paper Fig. 2 includes
    the reverse edges); label filtering prunes orientations whose endpoint
    labels cannot map to the root query vertices.
    """
    edges, signs = batch.directed_updates()
    if edges.shape[0] == 0:
        return edges, signs
    la, lb = plan.root_labels()
    mask = np.ones(edges.shape[0], dtype=bool)
    if la != WILDCARD_LABEL:
        mask &= labels[edges[:, 0]] == la
    if lb != WILDCARD_LABEL:
        mask &= labels[edges[:, 1]] == lb
    return edges[mask], signs[mask]


def static_roots(
    plan: MatchPlan, edge_array: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All directed data edges matching the root labels, with sign +1."""
    if edge_array.shape[0] == 0:
        empty = np.empty((0, 2), dtype=VERTEX_DTYPE)
        return empty, np.empty(0, dtype=np.int64)
    directed = np.concatenate([edge_array, edge_array[:, ::-1]], axis=0)
    la, lb = plan.root_labels()
    mask = np.ones(directed.shape[0], dtype=bool)
    if la != WILDCARD_LABEL:
        mask &= labels[directed[:, 0]] == la
    if lb != WILDCARD_LABEL:
        mask &= labels[directed[:, 1]] == lb
    directed = directed[mask]
    return directed, np.ones(directed.shape[0], dtype=np.int64)


def filter_root_predicate(
    plan: MatchPlan,
    roots: np.ndarray,
    signs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Drop roots whose data-edge weight violates the plan's root predicate.

    Uncharged, like the label filtering of :func:`delta_roots` (root
    generation is modeled as free stream-side work).  Applied *after* any
    precomputed prefilter masks — those are aligned with the raw
    ``delta_roots`` output and must see it unshrunk.
    """
    if plan.root_predicate is None or roots.shape[0] == 0:
        return roots, signs
    w = edge_weights(roots[:, 0], roots[:, 1])
    lo, hi = plan.root_predicate
    keep = (w >= lo) & (w <= hi)
    return roots[keep], signs[keep]


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def match_batch(
    plans: list[MatchPlan],
    batch: UpdateBatch,
    view: GraphView,
    *,
    sink: EmbeddingSink | None = None,
    filters: dict[int, np.ndarray] | None = None,
    root_mask: Callable[[np.ndarray], np.ndarray] | None = None,
    prefilter=None,
) -> MatchStats:
    """Run all ΔM_i plans against a signed batch (paper Fig. 2b-f).

    The view's graph must hold the *open* batch (``apply_batch`` done,
    ``reorganize`` not yet), so OLD/NEW adjacency versions are available.
    Returns aggregated stats whose ``signed_count`` is the exact ΔM.
    ``filters`` optionally restricts each query vertex to a sorted candidate
    array (RapidFlow's index pruning); root endpoints are filtered too.
    ``root_mask`` optionally selects a subset of the directed roots — given
    the ``(r, 2)`` root array it returns a boolean mask; multi-GPU sharding
    uses it to route each root to the shard owning its first endpoint.
    Per-root work is independent (counters are sums over roots), so any
    disjoint cover of the roots reproduces the unsharded counters exactly.
    ``prefilter`` optionally supplies a certified-skip masker
    (``repro.core.prefilter``): an object whose ``mask(plan_index, plan,
    roots)`` returns a boolean keep-mask; dropped roots are counted in
    ``MatchStats.roots_skipped``.  It is applied *last* — after routing and
    candidate filters — so the skip accounting composes with both, and
    exactness is certified (only provably-ΔM=0 roots are dropped).
    Plans whose query carries weight predicates filter on the deterministic
    hash weights (:func:`~repro.graphs.attributes.edge_weights`).
    Root-predicate filtering runs after the prefilter (whose precomputed
    masks are aligned with the raw root array).
    """
    labels = view.graph.labels
    total = MatchStats()
    pool: dict = {}
    for plan_index, plan in enumerate(plans):
        roots, signs = delta_roots(plan, batch, labels)
        if root_mask is not None and roots.shape[0]:
            mask = root_mask(roots)
            roots, signs = roots[mask], signs[mask]
        if filters and roots.shape[0]:
            mask = np.ones(roots.shape[0], dtype=bool)
            for col, u in ((0, plan.order[0]), (1, plan.order[1])):
                cand = filters.get(u)
                if cand is None:
                    continue
                if cand.size == 0:
                    mask[:] = False
                    break
                pos = np.minimum(np.searchsorted(cand, roots[:, col]), cand.size - 1)
                mask &= cand[pos] == roots[:, col]
            roots, signs = roots[mask], signs[mask]
        if prefilter is not None and roots.shape[0]:
            keep = prefilter.mask(plan_index, plan, roots)
            total.roots_skipped += int(roots.shape[0] - np.count_nonzero(keep))
            roots, signs = roots[keep], signs[keep]
        roots, signs = filter_root_predicate(plan, roots, signs)
        # ``pool`` shares the merged-list memo across the plans of one batch
        # (the adjacency is frozen in between, so merged contents are
        # plan-independent; accesses are still charged per plan)
        total.merge(
            FrontierExecutor(plan, view, labels, sink, filters, pool=pool).run(roots, signs)
        )
    return total


def match_static(
    plan: MatchPlan,
    view: GraphView,
    *,
    sink: EmbeddingSink | None = None,
) -> MatchStats:
    """Match the query on the current snapshot (paper Fig. 2a).

    Uses the post-batch adjacency (``CURRENT`` == ``NEW``), so on a settled
    graph it matches the settled snapshot.  The snapshot's edge relation is
    exported CSR-style from the dynamic store (vectorized v<w dedup), in the
    same source-major/ascending order as a per-vertex adjacency scan.
    """
    labels = view.graph.labels
    edge_array = view.graph.edges_new_array()
    roots, signs = static_roots(plan, edge_array, labels)
    roots, signs = filter_root_predicate(plan, roots, signs)
    return FrontierExecutor(plan, view, labels, sink).run(roots, signs)
