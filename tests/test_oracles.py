"""The test-side reference kernels really replace, and restore, production's.

Every recursive parity leg in the suite relies on
:func:`tests.oracles.reference_kernels`; if it silently patched nothing the
legs would compare production with itself.
"""

from unittest import mock

import pytest

from repro.core import matching
from repro.core.engine import GCSMEngine
from repro.core.frequency_frontier import FrontierFrequencyEstimator
from repro.core.frontier import FrontierExecutor
from repro.graphs.generators import erdos_renyi
from repro.graphs.stream import derive_stream
from repro.query import query_by_name
from tests.oracles import (
    RecursiveExecutor,
    RecursiveFrequencyEstimator,
    reference_kernels,
)


def _run_one_batch():
    g = erdos_renyi(60, 5.0, num_labels=2, seed=3)
    g0, batches = derive_stream(g, update_fraction=0.3, batch_size=16, seed=3)
    engine = GCSMEngine(g0, query_by_name("Q1"), seed=1)
    return engine.process_batch(batches[0])


@pytest.mark.parametrize("executor", ["frontier", "recursive"])
@pytest.mark.parametrize("estimator", ["frontier", "recursive"])
def test_selected_kernels_run_and_are_restored(executor, estimator):
    run = mock.patch.object(RecursiveExecutor, "run", autospec=True,
                            side_effect=RecursiveExecutor.run)
    est = mock.patch.object(RecursiveFrequencyEstimator, "estimate", autospec=True,
                            side_effect=RecursiveFrequencyEstimator.estimate)
    with run as run_spy, est as est_spy:
        with reference_kernels(executor, estimator):
            _run_one_batch()
        assert run_spy.called == (executor == "recursive")
        assert est_spy.called == (estimator == "recursive")
    assert matching.FrontierExecutor is FrontierExecutor
    assert "estimate" in vars(FrontierFrequencyEstimator)
    assert FrontierFrequencyEstimator.estimate is not RecursiveFrequencyEstimator.estimate


def test_patches_are_undone_when_the_block_raises():
    with pytest.raises(RuntimeError):
        with reference_kernels():
            assert matching.FrontierExecutor is RecursiveExecutor
            raise RuntimeError("boom")
    assert matching.FrontierExecutor is FrontierExecutor
    assert FrontierFrequencyEstimator.estimate is not RecursiveFrequencyEstimator.estimate
