"""Every system's per-batch output is bit-identical to the committed golden.

The golden file (``tests/data/lifecycle_golden.json``, written by
``tests/lifecycle_golden.py``) pins ΔM, match statistics, exact simulated
stage times, kernel counters, cache, prefilter, fleet and rulebook records
for a fixed adversarial stream.  The scenario guards both lifecycle paths:
every prefilter run takes the certified skip at least once, and every run
matches at least one batch with ΔM ≠ 0.
"""

import json

import pytest

from tests.lifecycle_golden import GOLDEN_PATH, run_scenarios


@pytest.fixture(scope="module")
def runs():
    return run_scenarios()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _skipped(rec) -> bool:
    pf = rec["prefilter"]
    return pf is not None and pf["batches_skipped"] == 1


def _nonzero(rec) -> bool:
    delta = rec["delta"]
    return any(delta.values()) if isinstance(delta, dict) else delta != 0


def test_same_runs_as_golden(runs, golden):
    assert sorted(runs) == sorted(golden)


def test_scenario_reaches_skip_and_match_paths(golden):
    for name, records in golden.items():
        assert any(_nonzero(r) for r in records), name
        if name.endswith("prefilter=on"):
            assert any(_skipped(r) for r in records), name
        else:
            assert not any(_skipped(r) for r in records), name


@pytest.mark.parametrize("name", sorted(json.loads(GOLDEN_PATH.read_text())))
def test_bit_identical_to_golden(name, runs, golden):
    fresh, expected = runs[name], golden[name]
    assert len(fresh) == len(expected)
    for k, (got, want) in enumerate(zip(fresh, expected)):
        assert got == want, f"{name}: batch {k} differs"
