"""Record expected ΔM for chosen seeds by the static-count telescoping identity.

    python3 perfbench/derive.py --seeds 1 2 [--workloads sf3k-q4 ...]

For every batch of a workload's pass, recounts the whole post-batch graph
with the brute-force reference matcher and records
``ΔM_k = count(G_k) − count(G_{k−1})`` per query in ``expected.json``.
The faster anchored enumeration that every benchmark run uses must agree
with these values, or this script stops before recording that seed.
Slow (minutes per seed on the SF3K analog); run once when a workload's
inputs change.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench.oracle import anchored_expectations, telescoped_deltas  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

EXPECTED = HERE / "expected.json"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                    default=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for name in args.workloads:
        spec = WORKLOADS[name]
        queries = spec.queries()
        for seed in args.seeds:
            start = time.perf_counter()
            wl = spec.build(seed)
            batches = wl.batches[: spec.batches_per_pass]
            telescoped = telescoped_deltas(wl.graph, batches, queries)
            anchored = [e["delta"] for e in anchored_expectations(wl.graph, batches, queries)]
            if telescoped != anchored:
                raise SystemExit(f"{name} seed {seed}: anchored enumeration disagrees "
                                 f"with the telescoped counts\n{telescoped}\n{anchored}")
            recorded.setdefault(name, {})[str(seed)] = telescoped
            EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
            print(f"{name} seed {seed}: {len(batches)} batches agree "
                  f"({time.perf_counter() - start:.0f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
