"""Golden per-batch record of the batch lifecycle on every system.

One small fixed stream — adversarial batches (duplicates, phantom deletes,
flapping, new-vertex bursts) around a batch that the aggregate-invariant
prefilter certifies as ΔM = 0 — runs through every system, with the
prefilter off and on.  For every batch the record keeps ΔM, every
``MatchStats`` field, every ``TimeBreakdown`` field as an exact float repr,
the kernel counters, the cache statistics, the prefilter statistics, the
fleet reports and the per-query rulebook statistics.

``tests/test_lifecycle_golden.py`` compares a fresh run with the committed
golden file.  The file is regenerated only when a change is *meant* to alter
results or simulated times::

    PYTHONPATH=src python -m tests.lifecycle_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.baselines import SYSTEM_NAMES, make_system
from repro.core.multiquery import MultiQueryEngine
from repro.core.validation import _parse_system_spec, generate_adversarial_stream
from repro.graphs.generators import erdos_renyi
from repro.graphs.static_graph import StaticGraph
from repro.graphs.stream import UpdateBatch
from repro.gpu.clock import TimeBreakdown
from repro.multigpu import MultiGpuEngine
from repro.query import QueryGraph

GOLDEN_PATH = Path(__file__).parent / "data" / "lifecycle_golden.json"

TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="triangle")
RULEBOOK = [
    TRIANGLE,
    QueryGraph(3, [(1, 2), (0, 1), (0, 2)], name="triangle-alias"),
    QueryGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], name="square"),
    QueryGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)], [0, 0, 1, 1], name="tailed"),
]

#: single-query systems, in the fuzzer's system-spec syntax
SINGLE_SPECS = [*SYSTEM_NAMES, "RapidFlow", "GCSM@2:mincut", "GCSM+repart@2:mincut"]
BREAKDOWN_FIELDS = tuple(TimeBreakdown.__dataclass_fields__)
STATS_FIELDS = ("signed_count", "embeddings_found", "roots_processed", "tree_nodes",
                "roots_skipped")
#: isolated vertices of the initial graph; the skip batch wires them up
ISOLATED = (40, 41, 42, 43)


def scenario() -> tuple[StaticGraph, list[UpdateBatch]]:
    """Initial graph plus the fixed stream: two adversarial batches, a batch
    of pendant edges between isolated vertices (no triangle, square or
    tailed triangle can use them, so the prefilter certifies a skip), then
    two more adversarial batches."""
    dense = erdos_renyi(40, 7.0, num_labels=2, seed=3)
    labels = np.concatenate([dense.labels, np.zeros(len(ISOLATED), dtype=dense.labels.dtype)])
    g0 = StaticGraph.from_edges(40 + len(ISOLATED), dense.edge_array(), labels)
    adversarial = generate_adversarial_stream(dense, num_batches=4, batch_size=12, seed=5)
    a, b, c, d = ISOLATED
    pendant = UpdateBatch([(a, b), (c, d)], [1, 1])
    return g0, [adversarial[0], adversarial[1], pendant, adversarial[2], adversarial[3]]


def _sha(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def _floats(obj) -> dict:
    return {f: repr(float(getattr(obj, f))) for f in BREAKDOWN_FIELDS}


def _stats(stats) -> dict:
    return {f: int(getattr(stats, f)) for f in STATS_FIELDS}


def _counters(counters) -> dict:
    out = {k: repr(v) for k, v in counters.summary().items()}
    hist = np.ascontiguousarray(counters.vertex_access_counts(), dtype=np.int64)
    out["vertex_hist_sha"] = hashlib.sha256(hist.tobytes()).hexdigest()
    return out


def _estimation(est) -> dict | None:
    if est is None:
        return None
    freq = np.ascontiguousarray(est.frequencies, dtype=np.float64)
    return {
        "num_walks": int(est.num_walks),
        "nodes_visited": int(est.nodes_visited),
        "frequencies_sha": hashlib.sha256(freq.tobytes()).hexdigest(),
    }


def _common(result) -> dict:
    pf = result.prefilter
    return {
        "breakdown": _floats(result.breakdown),
        "counters": _counters(result.match_counters),
        "estimation": _estimation(result.estimation),
        "cached_vertices": _sha([int(v) for v in result.cached_vertices]),
        "cache_bytes": int(result.cache_bytes),
        "cache_hits": int(result.cache_hits),
        "cache_misses": int(result.cache_misses),
        "prefilter": None if pf is None else {
            k: (repr(v) if isinstance(v, float) else v) for k, v in pf.to_dict().items()
        },
    }


def record_single(result) -> dict:
    rec = {"delta": int(result.delta_count), "stats": _stats(result.match_stats)}
    rec.update(_common(result))
    balance, comm, rep = result.load_balance, result.comm, result.repartition
    rec["fleet"] = {
        "shard_reports": [r.to_dict() for r in result.shard_reports],
        "load_balance": None if balance is None else balance.to_dict(),
        "comm": None if comm is None else comm.to_dict(),
        "repartition": None if rep is None else rep.to_dict(),
    }
    return json.loads(json.dumps(rec, default=repr))


def record_rulebook(result) -> dict:
    by_query = result.match_counters_by_query
    rec = {
        "delta": {n: int(v) for n, v in result.delta_counts.items()},
        "stats": {n: _stats(s) for n, s in result.match_stats.items()},
        "counters_by_query": None if by_query is None else {
            n: _counters(c) for n, c in by_query.items()
        },
        "aliases": dict(result.aliases),
        "trie": None if result.trie_stats is None else result.trie_stats.to_dict(),
    }
    rec.update(_common(result))
    return json.loads(json.dumps(rec, default=repr))


def _run_single(make, batches) -> list[dict]:
    system = make()
    return [record_single(system.process_batch(b)) for b in batches]


def _run_rulebook(g0, batches, shared: bool, prefilter: str) -> list[dict]:
    engine = MultiQueryEngine(g0, RULEBOOK, seed=0, shared=shared, prefilter=prefilter)
    out = []
    for batch in batches:
        emitted: dict[str, list] = {q.name: [] for q in RULEBOOK}
        sinks = {
            name: (lambda emb, sign, acc=acc: acc.append((tuple(int(x) for x in emb), int(sign))))
            for name, acc in emitted.items()
        }
        rec = record_rulebook(engine.process_batch(batch, sinks=sinks))
        rec["sink"] = {n: _sha(sorted(map(list, acc))) for n, acc in emitted.items()}
        out.append(rec)
    return out


def run_scenarios() -> dict[str, list[dict]]:
    """Every system x prefilter setting -> per-batch records."""
    g0, batches = scenario()
    runs: dict[str, list[dict]] = {}
    for prefilter in ("off", "on"):
        for spec in SINGLE_SPECS:
            name, kwargs = _parse_system_spec(spec)
            kwargs["prefilter"] = prefilter
            runs[f"{spec}/prefilter={prefilter}"] = _run_single(
                lambda: make_system(name, g0, TRIANGLE, seed=0, **kwargs), batches
            )
        runs[f"GCSM@2:pipeline/prefilter={prefilter}"] = _run_single(
            lambda: MultiGpuEngine(g0, TRIANGLE, devices=2, pipeline=True, seed=0,
                                   prefilter=prefilter),
            batches,
        )
        pipelined = make_system("Pipelined", g0, TRIANGLE, seed=0, prefilter=prefilter)
        runs[f"Pipelined:stream/prefilter={prefilter}"] = [
            record_single(r) for r in pipelined.process_stream(batches)
        ]
        for shared in (True, False):
            runs[f"Rulebook:shared={shared}/prefilter={prefilter}"] = _run_rulebook(
                g0, batches, shared, prefilter
            )
    return runs


def main() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(run_scenarios(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
