"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench import run
from perfbench.oracle import anchored_expectations, telescoped_deltas
from perfbench.stats import Span, attribute_self_time, count_errors, tail_percentile
from perfbench.tracing import Tracer


# -- tail percentile --------------------------------------------------------
@pytest.mark.parametrize("n, p", [
    (10, 50), (39, 50), (40, 75), (99, 75), (100, 90), (500, 90),
])
def test_tail_percentile_needs_ten_samples_beyond(n, p):
    samples = [float(i) for i in range(1, n + 1)]
    chosen, value = tail_percentile(samples)
    assert chosen == p
    assert sum(s > value for s in samples) >= (10 if p != 50 else 0)


def test_tail_percentile_value_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert tail_percentile(samples) == (90, 90.0)
    assert tail_percentile(list(reversed(samples))) == (90, 90.0)


# -- self time ----------------------------------------------------------------
def test_self_time_nested_on_one_thread():
    spans = [
        Span(0, "bench", "root", 0, 10),
        Span(1, "a", "child", 2, 5, parent=0),
        Span(2, "b", "grandchild", 3, 4, parent=1),
        Span(3, "a", "child", 6, 7, parent=0),
    ]
    got = attribute_self_time(spans)
    assert got == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert sum(got.values()) == 10


def test_self_time_splits_overlapping_threads():
    # two shard spans on different threads under one root, overlapping 2..6
    spans = [
        Span(0, "bench", "root", 0, 10, thread=1),
        Span(1, "m", "shard", 1, 6, parent=0, thread=2),
        Span(2, "m", "shard", 2, 8, parent=0, thread=3),
        Span(3, "c", "pack", 3, 4, parent=2, thread=3),
    ]
    got = attribute_self_time(spans)
    # 1..2 shard1 alone; 2..3 both shards; 3..4 shard1 and pack; 4..6 both
    # shards; 6..8 shard2 alone; root keeps 0..1 and 8..10
    assert got[0] == pytest.approx(3.0)
    assert got[1] == pytest.approx(1 + 0.5 + 0.5 + 1.0)
    assert got[2] == pytest.approx(0.5 + 1.0 + 2.0)
    assert got[3] == pytest.approx(0.5)
    assert sum(got.values()) == pytest.approx(10.0)


def test_tracer_parents_pool_threads_to_the_batch_root():
    tracer = Tracer()
    root = tracer.begin_batch(7)

    def work(_):
        span = tracer.open("matching", "shard")
        inner = tracer.open("cache", "pack")
        tracer.close(inner)
        tracer.close(span)
        return threading.get_ident()

    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(work, range(4)))
    tracer.end_batch(root)
    shards = [s for s in tracer.spans if s.name == "shard"]
    packs = [s for s in tracer.spans if s.name == "pack"]
    assert len(shards) == 4 and all(s.parent == root.id for s in shards)
    assert {p.parent for p in packs} == {s.id for s in shards}
    assert all(s.batch == 7 for s in tracer.spans)
    total = sum(attribute_self_time(tracer.spans).values())
    assert total == pytest.approx(root.end - root.start)


def test_tracer_install_restores_originals():
    from repro.core import engine
    from repro.core.dcsr import DcsrCache
    from repro.graphs.dynamic_graph import DynamicGraph

    before = (engine.match_batch, DynamicGraph.apply_batch, DcsrCache.__dict__["build"])
    tracer = Tracer()
    tracer.install()
    assert engine.match_batch is not before[0]
    tracer.uninstall()
    after = (engine.match_batch, DynamicGraph.apply_batch, DcsrCache.__dict__["build"])
    assert after == before


# -- error counting -----------------------------------------------------------
EXPECTED = [
    {"delta": {"Q": 3}, "embeddings": {"Q": 5}},
    {"delta": {"Q": -1}, "embeddings": {"Q": 1}},
]


def _ok(i):
    return [i, {"delta": dict(EXPECTED[i]["delta"]),
                "embeddings": dict(EXPECTED[i]["embeddings"])}]


def test_count_errors_clean_run():
    assert count_errors([_ok(0), _ok(1), _ok(0)], EXPECTED) == 0


def test_count_errors_counts_each_kind_of_failure():
    perturbed = _ok(0)
    perturbed[1]["delta"]["Q"] += 1
    wrong_count = _ok(1)
    wrong_count[1]["embeddings"]["Q"] = 0
    raised = [0, None]
    observed = [perturbed, _ok(1), wrong_count, raised, _ok(1)]
    assert count_errors(observed, EXPECTED) == 3


def _child(observed, digests=("a", "b")):
    return {"observed": observed, "expected": EXPECTED, "digests": list(digests)}


def test_perturbed_delta_raises_error_rate():
    clean = run.correctness("ca-churn", 10_001, [_child([_ok(0), _ok(1)])] * 3)
    assert clean["error_rate"] == 0 and clean["correct"]
    bad = _ok(1)
    bad[1]["delta"]["Q"] = 0
    perturbed = run.correctness(
        "ca-churn", 10_001, [_child([_ok(0), _ok(1)]), _child([_ok(0), bad])]
    )
    assert perturbed["failed"] == 1
    assert perturbed["error_rate"] == pytest.approx(0.25)
    assert not perturbed["correct"]


def test_divergent_runs_are_not_deterministic():
    check = run.correctness(
        "ca-churn", 10_001, [_child([_ok(0)], ("a", "b")), _child([_ok(0)], ("a",)),
                             _child([_ok(0)], ("a", "c"))]
    )
    assert check["failed"] == 0 and not check["deterministic"] and not check["correct"]


def test_run_lists_every_workload():
    from perfbench.workloads import WORKLOADS

    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


# -- oracle --------------------------------------------------------------------
def test_anchored_oracle_matches_telescoped_counts_and_engine():
    from repro.core.engine import GCSMEngine
    from repro.graphs.generators import powerlaw_graph
    from repro.graphs.stream import derive_stream
    from repro.query.catalog import query_by_name

    graph = powerlaw_graph(300, 6.0, exponent=2.3, max_degree=40, num_labels=3, seed=3)
    g0, batches = derive_stream(graph, num_updates=240, batch_size=60, seed=4)
    queries = [query_by_name("Q1"), query_by_name("Q2")]
    expected = anchored_expectations(g0, batches, queries)
    assert [e["delta"] for e in expected] == telescoped_deltas(g0, batches, queries)
    assert any(d for e in expected for d in e["delta"].values())
    for q in queries:
        engine = GCSMEngine(g0, q, seed=0)
        for batch, want in zip(batches, expected):
            result = engine.process_batch(batch)
            assert result.delta_count == want["delta"][q.name]
            assert result.match_stats.embeddings_found == want["embeddings"][q.name]
