"""One benchmark process: cold set-up, then the closed-loop batch loop.

Started by ``run.py`` in a fresh interpreter for every repetition, so the
set-up time and peak memory it reports are never read off another
repetition's memoized graphs.  Prints one JSON object as its last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        [--trace] [--oracle] [--spans PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from repro.gpu.counters import Channel  # noqa: E402

from perfbench.oracle import anchored_expectations  # noqa: E402
from perfbench.stats import attribute_self_time  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, fleet_workers, nproc  # noqa: E402

BREAKDOWN_FIELDS = (
    "update_ns", "estimate_ns", "pack_ns", "match_ns", "reorg_ns",
    "comm_ns", "prefilter_ns", "repartition_ns",
)


def observe(result, queries) -> dict:
    """ΔM and embedding count per query for one batch result."""
    if hasattr(result, "delta_counts"):  # rulebook engine
        return {
            "delta": dict(result.delta_counts),
            "embeddings": {n: st.embeddings_found for n, st in result.match_stats.items()},
        }
    name = queries[0].name
    return {
        "delta": {name: result.delta_count},
        "embeddings": {name: result.match_stats.embeddings_found},
    }


def _stats_list(result) -> list:
    stats = result.match_stats
    return list(stats.values()) if isinstance(stats, dict) else [stats]


def _coverage_top5(result) -> float | None:
    """Share of the 5% most-accessed vertices that were cached."""
    if result.estimation is None or not result.cached_vertices.size:
        return None
    counts = result.match_counters.vertex_access_counts()
    accessed = np.nonzero(counts > 0)[0]
    if accessed.size == 0:
        return None
    k = max(1, int(round(0.05 * accessed.size)))
    top = accessed[np.argsort(-counts[accessed], kind="stable")[:k]]
    return float(np.isin(top, result.cached_vertices).mean())


def batch_record(result, queries) -> dict:
    """Everything deterministic one batch produced: outputs, simulated
    times and counters.  Compared bit for bit across passes and runs."""
    counters = result.match_counters
    stats = _stats_list(result)
    pf = result.prefilter
    balance = getattr(result, "load_balance", None)
    comm = getattr(result, "comm", None)
    trie = getattr(result, "trie_stats", None)
    return {
        "out": observe(result, queries),
        "breakdown": {f: getattr(result.breakdown, f) for f in BREAKDOWN_FIELDS},
        "counters": counters.summary(),
        "zero_copy_bytes": counters.bytes_by_channel[Channel.ZERO_COPY],
        "device_bytes": counters.bytes_by_channel[Channel.GPU_GLOBAL],
        "cache_bytes": result.cache_bytes,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "coverage_top5": _coverage_top5(result),
        "embeddings": sum(st.embeddings_found for st in stats),
        "roots_processed": sum(st.roots_processed for st in stats),
        "roots_skipped": sum(st.roots_skipped for st in stats),
        "batch_skipped": bool(pf is not None and pf.batches_skipped),
        "prefilter": pf is not None,
        "sharing_ratio": trie.sharing_ratio if trie is not None else None,
        "imbalance": balance.imbalance if balance is not None else None,
        "peer_bytes": comm.peer_bytes if comm is not None else None,
    }


def digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def layer_times(tracer: Tracer) -> dict:
    """Per-batch self ms by layer, shard-match maxima and call counts."""
    by_batch: dict[int, list] = {}
    for s in tracer.spans:
        if s.batch is not None:
            by_batch.setdefault(s.batch, []).append(s)
    per_batch = []
    for spans in by_batch.values():
        self_ns = attribute_self_time(spans)
        by_id = {s.id: s for s in spans}
        layers: dict[str, float] = {}
        for s in spans:
            layers[s.layer] = layers.get(s.layer, 0.0) + self_ns[s.id] / 1e6
        names: dict[str, float] = {}
        for s in spans:
            key = s.layer + ":" + s.name
            names[key] = names.get(key, 0.0) + self_ns[s.id] / 1e6
        root = next(s for s in spans if s.name == "process_batch")
        shard = [(s.end - s.start) / 1e6 for s in spans if s.name == "shard.match_batch"]
        raw = sum(s.attrs["raw"] for s in spans if "raw" in s.attrs)
        eff = sum(s.attrs["effective"] for s in spans if "effective" in s.attrs)
        per_batch.append({
            "wall_ms": (root.end - root.start) / 1e6,
            "layers": layers,
            "names": names,
            "shard_match_max_ms": max(shard) if shard else 0.0,
            "estimate_calls": sum(
                1 for s in spans
                if s.layer == "frequency"
                and (s.parent is None or by_id[s.parent].layer != "frequency")
            ),
            "effective_frac": eff / raw if raw else None,
        })
    outside = [s for s in tracer.spans if s.batch is None]
    builds = [(s.end - s.start) / 1e9 for s in outside if s.name == "datasets.build"]
    inits = [(s.end - s.start) / 1e9 for s in outside if s.name == "DynamicGraph.__init__"]
    return {
        "per_batch": per_batch,
        "build_s": sum(builds),
        "store_init_s": float(np.mean(inits)) if inits else 0.0,
    }


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({
                "id": s.id, "layer": s.layer, "name": s.name, "start": s.start,
                "end": s.end, "parent": s.parent, "batch": s.batch,
                "thread": s.thread, **s.attrs,
            }) + "\n")


def run(workload: str, seed: int, seconds: float, *, trace: bool = False,
        oracle: bool = False, spans_path: Path | None = None) -> dict:
    """Set up cold, then drive whole passes for about ``seconds`` of batch
    time (the pass count nearest it, at least one), so every repetition
    times the same batches."""
    spec = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()

    t0 = time.perf_counter()
    wl = spec.build(seed)
    queries = spec.queries()
    engine = spec.engine(wl.graph, queries)
    setup_s = time.perf_counter() - t0
    if wl.truncated:
        raise SystemExit(f"workload {workload} truncated: {wl.describe()}")
    batches = wl.batches[: spec.batches_per_pass]

    budget_ns = int(seconds * 1e9)
    busy_ns = 0
    samples_ns: list[int] = []
    updates = 0
    observed: list[list] = []  # [index in pass, outcome or None]
    records: list[dict] = []
    passes = 0
    while True:
        pass_start_ns = busy_ns
        for i, batch in enumerate(batches):
            root = tracer.begin_batch(len(observed)) if tracer is not None else None
            start = time.perf_counter_ns()
            try:
                result = engine.process_batch(batch)
            except Exception:  # a failed batch is counted, the run goes on
                traceback.print_exc(file=sys.stderr)
                result = None
            elapsed = time.perf_counter_ns() - start
            if root is not None:
                tracer.end_batch(root)
            busy_ns += elapsed
            if result is None:
                observed.append([i, None])
                break  # the store is in an unknown state: start a new pass
            samples_ns.append(elapsed)
            updates += len(batch)
            observed.append([i, observe(result, queries)])
            if passes == 0:
                records.append(batch_record(result, queries))
        passes += 1
        # stop at the pass boundary nearest the budget
        if busy_ns + (busy_ns - pass_start_ns) // 2 >= budget_ns:
            break
        engine = spec.engine(wl.graph, queries)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        if spans_path is not None:
            write_spans(tracer, spans_path)

    out = {
        "setup_s": setup_s,
        "busy_s": busy_ns / 1e9,
        "updates": updates,
        "samples_ms": [ns / 1e6 for ns in samples_ns],
        "observed": observed,
        "records": records,
        "digests": [digest(r) for r in records],
        "peak_rss_mb": peak_rss_mb,
        "env": {
            "workload": workload,
            "dataset": spec.dataset,
            "update_mix": spec.update_mix,
            "engine": spec.config,
            "batches_per_pass": spec.batches_per_pass,
            "nproc": nproc(),
            "fleet_workers": fleet_workers(4) if spec.config.get("devices") else None,
            "numpy": np.__version__,
        },
        "sizing": {
            "batch_size_requested": wl.batch_size_requested,
            "batch_sizes_delivered": [len(b) for b in batches],
            "num_batches_requested": wl.num_batches_requested,
            "num_batches_delivered": wl.num_batches_delivered,
            "truncated": wl.truncated,
        },
    }
    if tracer is not None:
        out["trace"] = layer_times(tracer)
    if oracle:
        out["expected"] = anchored_expectations(wl.graph, batches, queries)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--oracle", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, trace=args.trace,
              oracle=args.oracle, spans_path=args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
