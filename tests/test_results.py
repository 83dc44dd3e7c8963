"""Tests for experiment records and comparison summaries."""

import json

import pytest

from repro.core.results import (
    ComparisonSummary,
    ExperimentRecord,
    load_records,
    save_records,
    summarize,
)


def rec(system, dataset="FR", query="Q1", total=100.0, **kw):
    defaults = dict(
        system=system, dataset=dataset, query=query, batch_size=256,
        num_batches=1, total_ns=total, match_ns=total * 0.8,
        estimate_ns=total * 0.05, pack_ns=total * 0.05, reorg_ns=total * 0.05,
        update_ns=total * 0.05, cpu_access_bytes=1000, delta_total=5,
        embeddings_total=7,
    )
    defaults.update(kw)
    return ExperimentRecord(**defaults)


class TestRecord:
    def test_dict_roundtrip(self):
        r = rec("GCSM", cache_hit_rate=0.5, coverage_top1=0.9, coverage_top5=0.8)
        assert ExperimentRecord.from_dict(r.to_dict()) == r

    def test_json_roundtrip(self, tmp_path):
        records = [rec("GCSM"), rec("ZC", total=180.0), rec("CPU", query="Q2")]
        path = tmp_path / "records.json"
        save_records(records, path)
        loaded = load_records(path)
        assert loaded == records

    def test_loads_records_that_name_the_fe_sampler(self, tmp_path):
        """Records written before the sampler knob was removed carry an
        ``"estimator"`` key; they must still load."""
        old = rec("GCSM", dataset="AZ", update_mix="mixed", conflict_mode="coalesce")
        payload = old.to_dict()
        payload["estimator"] = "frontier"
        path = tmp_path / "old.json"
        path.write_text(json.dumps([payload], indent=2))
        assert load_records(path) == [old]
        assert "estimator" not in old.to_dict()

    def test_from_run(self):
        from repro.bench.harness import run_stream
        from repro.query import query_by_name

        run = run_stream("ZC", "AZ", query_by_name("Q1"), batch_size=64, seed=0)
        r = ExperimentRecord.from_run(run)
        assert r.system == "ZC"
        assert r.dataset == "AZ"
        assert r.total_ns == run.breakdown.total_ns
        assert r.cache_hit_rate == run.cache_hit_rate


class TestSummarize:
    def test_speedups(self):
        records = [
            rec("GCSM", query="Q1", total=100.0),
            rec("ZC", query="Q1", total=200.0),
            rec("GCSM", query="Q2", total=50.0),
            rec("ZC", query="Q2", total=400.0),
        ]
        s = summarize(records, "GCSM", "ZC")
        assert s.speedups[("FR", "Q1")] == pytest.approx(2.0)
        assert s.speedups[("FR", "Q2")] == pytest.approx(8.0)
        assert s.min == pytest.approx(2.0)
        assert s.max == pytest.approx(8.0)
        assert s.geomean == pytest.approx(4.0)
        assert s.wins == 2
        assert "GCSM vs ZC" in s.describe()

    def test_missing_baseline_legs_skipped(self):
        records = [
            rec("GCSM", query="Q1", total=100.0),
            rec("ZC", query="Q1", total=150.0),
            rec("GCSM", query="Q9", total=10.0),  # no ZC leg
        ]
        s = summarize(records, "GCSM", "ZC")
        assert list(s.speedups) == [("FR", "Q1")]

    def test_no_overlap_rejected(self):
        with pytest.raises(ValueError):
            summarize([rec("GCSM")], "GCSM", "UM")
