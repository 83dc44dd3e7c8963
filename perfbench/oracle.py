"""Expected per-batch ΔM and embedding counts, computed without the engine.

Two routes, both independent of the plan compiler, the graph views and the
dynamic store:

* :func:`anchored_expectations` replays the raw stream on plain Python
  adjacency sets and, for each batch, enumerates by backtracking every
  mapping that the incremental decomposition of ΔM counts: rooted at query
  edge ``i`` on a changed edge, with the query edges before ``i`` read in
  the pre-batch graph and those after ``i`` in the post-batch graph.  Each
  mapping adds its root's sign to ΔM and one to the embedding count.  It is
  fast enough to run in every benchmark run.
* :func:`telescoped_deltas` counts every snapshot from scratch with the
  brute-force reference matcher and takes differences
  (``ΔM_k = count(G_k) − count(G_{k−1})``).  It is slow (a minute on the
  SF3K analog) and is used only by ``derive.py`` to check the first route.
"""

from __future__ import annotations

from repro.core.reference import count_embeddings
from repro.graphs.static_graph import StaticGraph
from repro.query.pattern import WILDCARD_LABEL

__all__ = ["anchored_expectations", "telescoped_deltas"]


def _adjacency(graph) -> list[set[int]]:
    return [set(graph.neighbors(v).tolist()) for v in range(graph.num_vertices)]


def _apply(adj: list[set[int]], batch) -> tuple[set, set]:
    """Apply raw signed updates in order; return the net (inserted, deleted)
    edge sets, i.e. the symmetric difference of the pre/post edge sets."""
    inserted: set[tuple[int, int]] = set()
    deleted: set[tuple[int, int]] = set()
    for (u, v), sign in zip(batch.edges.tolist(), batch.signs.tolist()):
        key = (u, v) if u < v else (v, u)
        if sign > 0:
            if v in adj[u]:
                continue
            adj[u].add(v)
            adj[v].add(u)
            if key in deleted:
                deleted.discard(key)
            else:
                inserted.add(key)
        else:
            if v not in adj[u]:
                continue
            adj[u].discard(v)
            adj[v].discard(u)
            if key in inserted:
                inserted.discard(key)
            else:
                deleted.add(key)
    return inserted, deleted


def _replay(graph, batches):
    """Yield ``(old_adj, new_adj, inserted, deleted)`` per batch."""
    old = _adjacency(graph)
    new = _adjacency(graph)
    for batch in batches:
        inserted, deleted = _apply(new, batch)
        yield old, new, inserted, deleted
        for u, v in inserted:
            old[u].add(v)
            old[v].add(u)
        for u, v in deleted:
            old[u].discard(v)
            old[v].discard(u)


def _connected_order(query, a: int, b: int) -> list[int]:
    order, seen = [a, b], {a, b}
    while len(order) < query.num_vertices:
        u = max(
            (u for u in range(query.num_vertices)
             if u not in seen and query.neighbors(u) & seen),
            key=lambda u: (len(query.neighbors(u) & seen), query.degree(u), -u),
        )
        order.append(u)
        seen.add(u)
    return order


def _extend(steps, depth, f, used, labels, qlabels) -> int:
    if depth == len(steps):
        return 1
    u, back = steps[depth]
    w, adj = back[0]
    cand = adj[f[w]]
    if len(back) > 1:
        cand = cand.intersection(*[a[f[x]] for x, a in back[1:]])
    want = qlabels[u]
    total = 0
    for v in cand:
        if v in used or (want != WILDCARD_LABEL and labels[v] != want):
            continue
        f[u] = v
        used.add(v)
        total += _extend(steps, depth + 1, f, used, labels, qlabels)
        used.discard(v)
        del f[u]
    return total


def _delta(query, old, new, labels, inserted, deleted) -> tuple[int, int]:
    edges = [tuple(e) for e in query.edges]
    index = {}
    for j, (p, q) in enumerate(edges):
        index[(p, q)] = index[(q, p)] = j
    qlabels = [query.label(u) for u in range(query.num_vertices)]
    changes = [(e, 1) for e in inserted] + [(e, -1) for e in deleted]
    signed = found = 0
    for i, (a, b) in enumerate(edges):
        order = _connected_order(query, a, b)
        steps = []
        for d in range(2, len(order)):
            u = order[d]
            back = [(w, old if index[(w, u)] < i else new)
                    for w in order[:d] if w in query.neighbors(u)]
            steps.append((u, back))
        for (x, y), sign in changes:
            for ra, rb in ((x, y), (y, x)):
                if qlabels[a] != WILDCARD_LABEL and labels[ra] != qlabels[a]:
                    continue
                if qlabels[b] != WILDCARD_LABEL and labels[rb] != qlabels[b]:
                    continue
                n = _extend(steps, 0, {a: ra, b: rb}, {ra, rb}, labels, qlabels)
                signed += sign * n
                found += n
    return signed, found


def anchored_expectations(graph, batches, queries) -> list[dict]:
    """Per batch: ``{"delta": {query: ΔM}, "embeddings": {query: count}}``."""
    labels = graph.labels.tolist()
    out = []
    for old, new, inserted, deleted in _replay(graph, batches):
        delta, found = {}, {}
        for q in queries:
            delta[q.name], found[q.name] = _delta(q, old, new, labels, inserted, deleted)
        out.append({"delta": delta, "embeddings": found})
    return out


def _snapshot(adj: list[set[int]], labels) -> StaticGraph:
    edges = [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v]
    return StaticGraph.from_edges(len(adj), edges, labels)


def telescoped_deltas(graph, batches, queries) -> list[dict[str, int]]:
    """Per batch ``{query: count(G_k) − count(G_{k−1})}`` by full recounts."""
    labels = graph.labels
    before = {q.name: count_embeddings(graph, q) for q in queries}
    out = []
    for _old, new, _ins, _del in _replay(graph, batches):
        snap = _snapshot(new, labels)
        after = {q.name: count_embeddings(snap, q) for q in queries}
        out.append({name: after[name] - before[name] for name in after})
        before = after
    return out
