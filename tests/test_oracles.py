"""The scalar oracles never reach the fast paths they are compared with.

Every oracle in :mod:`tests.oracles` runs here with the CSR kernel
(``best_fidelity_row``) and the compiled plan's ``evaluate`` patched to
raise. A differential test comparing a fast path against an oracle is
only meaningful if the oracle computes its numbers independently; this
module is what stops one from silently comparing the kernel with
itself. Each test first checks that the patch really intercepts the
production path, so a renamed hook cannot make the check vacuous.
"""

import pytest

from repro.history import fidelity as fidelity_module
from repro.history.fidelity import FidelityCacheService
from repro.seeds.greedy import greedy_select
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import SeedSelectionObjective
from repro.seeds.partition import partition_greedy_select
from repro.speed.estimator import TwoStepEstimator
from repro.speed.plan import IntervalPlan
from repro.trend.model import TrendModel
from repro.trend.propagation import TrendPropagationInference
from tests.oracles import (
    ScalarFidelityService,
    ScalarObjective,
    ScalarPropagationInference,
    ScalarTwoStepEstimator,
    propagate_fidelity_scalar,
)


class FastPathReached(AssertionError):
    pass


def _forbid_fast_paths(monkeypatch):
    def raise_fast_path(*args, **kwargs):
        raise FastPathReached("an oracle reached a production fast path")

    monkeypatch.setattr(fidelity_module, "best_fidelity_row", raise_fast_path)
    monkeypatch.setattr(IntervalPlan, "evaluate", raise_fast_path)


def _round(dataset, seeds, index=20):
    interval = dataset.test_day_intervals()[index]
    return interval, {road: dataset.test.speed(road, interval) for road in seeds}


class TestOracleIndependence:
    def test_fidelity_rows(self, small_dataset, monkeypatch):
        graph = small_dataset.graph
        road = graph.road_ids[3]
        _forbid_fast_paths(monkeypatch)
        with pytest.raises(FastPathReached):
            FidelityCacheService().row(graph, road)
        walk = propagate_fidelity_scalar(graph, road)
        row = ScalarFidelityService().row(graph, road)
        assert row.sum() == pytest.approx(sum(walk.values()))
        assert ScalarFidelityService().rows(
            graph, list(graph.road_ids[:5]), transform="logodds"
        ).shape == (5, len(graph.road_ids))

    def test_step1_votes(self, small_dataset, monkeypatch):
        model = TrendModel(small_dataset.graph, small_dataset.store)
        interval = small_dataset.test_day_intervals()[30]
        truth = small_dataset.test.speeds_at(interval)
        seeds = small_dataset.graph.road_ids[::9]
        instance = model.instance(
            interval,
            {r: small_dataset.store.trend_of(r, interval, truth[r]) for r in seeds},
        )
        _forbid_fast_paths(monkeypatch)
        with pytest.raises(FastPathReached):
            TrendPropagationInference(
                fidelity_service=FidelityCacheService()
            ).infer(instance)
        posterior = ScalarPropagationInference().infer(instance)
        assert posterior.as_array().shape == (len(instance.road_ids),)

    @pytest.mark.parametrize(
        "select",
        [
            greedy_select,
            lazy_greedy_select,
            lambda objective, budget: partition_greedy_select(objective, budget, 4),
        ],
        ids=["greedy", "lazy", "partition"],
    )
    def test_coverage_gains(self, small_dataset, monkeypatch, select):
        graph = small_dataset.graph
        _forbid_fast_paths(monkeypatch)
        with pytest.raises(FastPathReached):
            select(
                SeedSelectionObjective(graph, fidelity_service=FidelityCacheService()),
                5,
            )
        result = select(ScalarObjective(graph), 5)
        assert len(result.seeds) == 5

    def test_step2_solve(self, small_dataset, monkeypatch):
        parts = (small_dataset.network, small_dataset.store, small_dataset.graph)
        # Scalar rows everywhere, so only the plan evaluation is fast.
        production = TwoStepEstimator(*parts, fidelity_service=ScalarFidelityService())
        oracle = ScalarTwoStepEstimator(*parts)
        interval, speeds = _round(small_dataset, small_dataset.graph.road_ids[::11])
        _forbid_fast_paths(monkeypatch)
        with pytest.raises(FastPathReached):
            production.estimate_interval(interval, speeds)
        estimates = oracle.estimate_interval(interval, speeds)
        assert set(estimates) == set(small_dataset.graph.road_ids)
        assert oracle.plan_cache.stats().total == 0
