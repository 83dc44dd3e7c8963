"""The repository benchmark: closed-loop stream workloads, one or all per run.

    python3 perfbench/run.py --workload sf3k-q4 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

Each repetition is a fresh ``worker.py`` process (cold set-up, then the
timed batch loop).  ``--trace 0`` runs three untraced repetitions and
prints the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced repetition and prints the per-layer metrics.  Every batch's ΔM and
embedding count is checked against values the brute-force route in
``oracle.py`` computes for the same seed, and against the telescoped
counts recorded in ``expected.json`` for the seeds listed there.  The last
line of standard output is the JSON result; ``METRICS.md`` documents every
metric.  A full report is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import count_errors, percentile, tail_percentile  # noqa: E402

#: the keys of ``workloads.WORKLOADS``; this process does not import the system
WORKLOAD_NAMES = ("sf3k-q4", "ca-churn", "lj-rulebook30", "sf3k-fleet4")
#: untraced repetitions per ``--trace 0`` run (``setup_s`` is their median)
REPETITIONS = 3
#: one workload's run, children included, must end within this many seconds
DEADLINE_S = 170.0
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "updates_per_s": "updates/s",
    "batch_ms_p50": "ms",
    "batch_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_batch_ms": "ms",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("benchmark deadline passed before a repetition could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit("a benchmark repetition overran the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"benchmark repetition failed (exit {proc.returncode})")
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    return proc.stdout.strip() or "unknown"


def _provenance(seed: int, children: list[dict]) -> dict:
    return {
        "git_sha": _git_sha(),
        "seed": seed,
        "python": platform.python_version(),
        "blas_threads": 1,
        "client": "closed loop, 1 client",
        **children[0]["env"],
        "sizing": children[0]["sizing"],
    }


def _check_sources() -> None:
    """Fail fast, without a result, when the system's sources are absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no system sources at {ROOT / 'src' / 'repro'}")


def correctness(workload: str, seed: int, children: list[dict]) -> dict:
    """Error count against the brute-force route, the recorded telescoped
    ΔM (when the seed is recorded) and run-to-run determinism."""
    expected = children[0]["expected"]
    recorded = json.loads((HERE / "expected.json").read_text())
    telescoped = recorded.get(workload, {}).get(str(seed))
    oracle_agrees = telescoped is None or telescoped == [e["delta"] for e in expected]
    attempted = sum(len(c["observed"]) for c in children)
    failed = sum(count_errors(c["observed"], expected) for c in children)
    longest = max(len(c["digests"]) for c in children)
    deterministic = all(
        len({c["digests"][i] for c in children if i < len(c["digests"])}) == 1
        for i in range(longest)
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "oracle_agrees_with_recorded": oracle_agrees if telescoped is not None else None,
        "deterministic": deterministic,
        "correct": failed == 0 and deterministic and oracle_agrees,
    }


def end_to_end(children: list[dict]) -> tuple[dict, dict]:
    """Throughput, median batch time, set-up and memory are medians over the
    repetitions, so a burst of outside load hits one repetition at most;
    the tail percentile pools every repetition's batches for its sample
    count."""
    samples = [ms for c in children for ms in c["samples_ms"]]
    p, tail = tail_percentile(samples)
    records = children[0]["records"]
    metrics = {
        "updates_per_s": statistics.median(c["updates"] / c["busy_s"] for c in children),
        "batch_ms_p50": statistics.median(percentile(c["samples_ms"], 50) for c in children),
        "batch_ms_tail": tail,
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "sim_batch_ms": statistics.fmean(
            sum(r["breakdown"].values()) / 1e6 for r in records
        ),
    }
    notes = {
        "batch_samples": len(samples),
        "tail_percentile": f"p{p}",
        "repetitions": len(children),
        "sim_batches": len(records),
    }
    return metrics, notes


def _mean(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else 0.0


def per_layer(untraced: dict, traced: dict) -> dict:
    """The per-layer metrics (``METRICS.md``) from one traced repetition."""
    trace = traced["trace"]
    batches = trace["per_batch"]
    records = traced["records"]

    def self_ms(layer: str) -> float:
        return _mean(b["layers"].get(layer, 0.0) for b in batches)

    def name_ms(key: str) -> float:
        return _mean(b["names"].get(key, 0.0) for b in batches)

    def sim(field: str) -> float:
        return _mean(r["breakdown"][field] for r in records)

    hits = sum(r["cache_hits"] for r in records)
    misses = sum(r["cache_misses"] for r in records)
    processed = sum(r["roots_processed"] for r in records)
    skipped = sum(r["roots_skipped"] for r in records)
    pf = any(r["prefilter"] for r in records)
    untraced_ups = untraced["updates"] / untraced["busy_s"]
    traced_ups = traced["updates"] / traced["busy_s"]
    return {
        "graphs.build_s": (trace["build_s"], "s"),
        "graphs.store_init_s": (trace["store_init_s"], "s"),
        "graphs.apply_batch_ms": (name_ms("graphs:DynamicGraph.apply_batch"), "ms"),
        "graphs.reorganize_ms": (name_ms("graphs:DynamicGraph.reorganize"), "ms"),
        "graphs.sim_update_ns": (sim("update_ns"), "ns"),
        "graphs.sim_reorg_ns": (sim("reorg_ns"), "ns"),
        "graphs.effective_frac": (_mean(b["effective_frac"] for b in batches), "fraction"),
        "frequency.estimate_ms": (self_ms("frequency"), "ms"),
        "frequency.estimate_calls": (_mean(b["estimate_calls"] for b in batches), "count"),
        "frequency.sim_estimate_ns": (sim("estimate_ns"), "ns"),
        "frequency.coverage_top5": (_mean(r["coverage_top5"] for r in records), "fraction"),
        "cache.select_ms": (self_ms("cache") - name_ms("cache:DcsrCache.build"), "ms"),
        "cache.pack_ms": (name_ms("cache:DcsrCache.build"), "ms"),
        "cache.sim_pack_ns": (sim("pack_ns"), "ns"),
        "cache.bytes": (_mean(r["cache_bytes"] for r in records), "bytes"),
        "cache.hit_rate": (hits / (hits + misses) if hits + misses else 0.0, "fraction"),
        "matching.match_ms": (self_ms("matching"), "ms"),
        "matching.sim_match_ns": (sim("match_ns"), "ns"),
        "matching.zero_copy_bytes": (_mean(r["zero_copy_bytes"] for r in records), "bytes"),
        "matching.device_bytes": (_mean(r["device_bytes"] for r in records), "bytes"),
        "matching.embeddings": (_mean(r["embeddings"] for r in records), "count"),
        "prefilter.maintain_ms": (name_ms("prefilter:InvariantIndex.apply_batch"), "ms"),
        "prefilter.evaluate_ms": (name_ms("prefilter:InvariantIndex.evaluate"), "ms"),
        "prefilter.sim_ns": (sim("prefilter_ns"), "ns"),
        "prefilter.batch_skip_frac": (
            _mean(float(r["batch_skipped"]) for r in records) if pf else 0.0, "fraction"),
        "prefilter.root_skip_frac": (
            skipped / (processed + skipped) if pf and processed + skipped else 0.0,
            "fraction"),
        "querytrie.run_ms": (self_ms("querytrie"), "ms"),
        "querytrie.sharing_ratio": (_mean(r["sharing_ratio"] for r in records), "fraction"),
        "multigpu.assign_ms": (self_ms("multigpu"), "ms"),
        "multigpu.shard_match_max_ms": (_mean(b["shard_match_max_ms"] for b in batches), "ms"),
        "multigpu.imbalance": (_mean(r["imbalance"] for r in records), "ratio"),
        "multigpu.peer_bytes": (_mean(r["peer_bytes"] for r in records), "bytes"),
        "multigpu.sim_comm_ns": (sim("comm_ns"), "ns"),
        "bench.unattributed_ms": (self_ms("bench"), "ms"),
        "bench.trace_overhead_frac": (1.0 - traced_ups / untraced_ups, "fraction"),
    }


def attribution(traced: dict) -> dict:
    """Mean per-batch wall ms and how the layers' self times split it."""
    batches = traced["trace"]["per_batch"]
    layers = sorted({k for b in batches for k in b["layers"]})
    return {
        "wall_ms": _mean(b["wall_ms"] for b in batches),
        "layers_ms": {k: _mean(b["layers"].get(k, 0.0) for b in batches) for k in layers},
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its report and return the JSON result."""
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    common = ["--workload", workload, "--seed", str(seed)]
    if trace:
        share = str(seconds / 2)
        untraced = _run_child([*common, "--seconds", share, "--oracle"], deadline)
        traced = _run_child(
            [*common, "--seconds", share, "--trace",
             "--spans", str(OUT_DIR / f"{tag}-spans.jsonl")],
            deadline,
        )
        children = [untraced, traced]
    else:
        share = str(seconds / REPETITIONS)
        children = [
            _run_child([*common, "--seconds", share, *(["--oracle"] if i == 0 else [])],
                       deadline)
            for i in range(REPETITIONS)
        ]

    check = correctness(workload, seed, children)
    provenance = _provenance(seed, children)
    report = {"provenance": provenance, "correctness": check}
    if trace:
        layer = per_layer(children[0], children[1])
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report["attribution"] = attribution(children[1])
        metrics = report["per_layer"]
    else:
        values, notes = end_to_end(children)
        report["notes"] = notes
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        report["end_to_end"] = metrics
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=2))

    print(f"provenance: {json.dumps(provenance, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':28s} {check['error_rate']:.6g} fraction "
          f"({check['failed']}/{check['attempted']} batches)")
    if trace:
        att = report["attribution"]
        parts = " + ".join(f"{k} {v:.2f}" for k, v in att["layers_ms"].items())
        print(f"attribution per batch: {parts} = {sum(att['layers_ms'].values()):.2f} ms "
              f"(root span wall {att['wall_ms']:.2f} ms)")
    else:
        print("notes: " + json.dumps(report["notes"], sort_keys=True))
    print(f"checks: deterministic={check['deterministic']} "
          f"oracle_agrees_with_recorded={check['oracle_agrees_with_recorded']}")
    return {
        "correct": check["correct"],
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _check_sources()
    if args.workload != "all":
        print(json.dumps(bench(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    results = {}
    for name in WORKLOAD_NAMES:
        print(f"== {name}")
        results[name] = bench(name, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}:{k}": m for name, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
