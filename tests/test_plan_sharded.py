"""District-sharded interval plans: bitwise differentials and scoped eviction.

The Step-2 planner (``repro.speed.plan``) compiles one shard per
district. Any district cover must be **bitwise identical** to the
one-district plan — not merely close: every per-road quantity in the
evaluation is row-independent, so compiling district slices and
stitching them back must reproduce the one-district arrays bit for bit,
across any partition shape, with or without the compile process pool —
and every cover must stay within 1e-9 of the per-road scalar oracle.
Delta eviction must be district-scoped: a row invalidation recompiles
only the districts a dropped seed's influence touches, and untouched
districts' structures survive by object identity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import InferenceError
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import FidelityCacheService
from repro.history.incremental import GraphDelta
from repro.obs import FlightRecorder, set_recorder
from repro.speed.estimator import TwoStepEstimator
from repro.speed.hlm import HierarchicalLinearModel, HlmParams
from repro.speed.plan import IntervalPlanCache, IntervalPlanner, PlanCompilePool
from tests.oracles import ScalarTwoStepEstimator


def _counter(rec, name, **labels):
    return rec.registry.counter(name, **labels).value


@pytest.fixture(scope="module")
def fitted(small_dataset):
    """One fitted HLM shared by every estimator in this module."""
    params = HlmParams()
    hlm = HierarchicalLinearModel.fit(
        small_dataset.store, small_dataset.network, small_dataset.graph, params
    )
    return small_dataset, hlm, params


def _estimator(dataset, hlm, params, partitions=None, workers=1):
    """A fresh estimator; one district unless ``partitions`` is given."""
    return TwoStepEstimator(
        dataset.network,
        dataset.store,
        dataset.graph,
        hlm=hlm,
        hlm_params=params,
        fidelity_service=FidelityCacheService(),
        districts=partitions,
        plan_workers=workers,
    )


def _chunks(road_ids, num_districts):
    """Contiguous near-even partition of the road order."""
    roads = list(road_ids)
    num_districts = min(num_districts, len(roads))
    bounds = np.linspace(0, len(roads), num_districts + 1).astype(int)
    return [
        tuple(roads[bounds[i]: bounds[i + 1]])
        for i in range(num_districts)
        if bounds[i] < bounds[i + 1]
    ]


def _speeds(dataset, seeds, interval, factor=1.0):
    return {r: dataset.test.speed(r, interval) * factor for r in seeds}


def _assert_bitwise(a, b):
    assert set(a) == set(b)
    for road in a:
        assert a[road] == b[road], (
            f"road {road}: sharded {b[road]} != one-district {a[road]}"
        )


class TestShardedBitwise:
    @pytest.mark.parametrize("num_districts", [1, 2, 7, 10_000])
    def test_matches_monolithic(self, fitted, num_districts):
        """Bitwise equal to the one-district plan, 1e-9 from the oracle."""
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        mono = _estimator(dataset, hlm, params)
        shard = _estimator(
            dataset, hlm, params, partitions=_chunks(roads, num_districts)
        )
        assert shard.planner.num_districts == min(num_districts, len(roads))
        oracle = ScalarTwoStepEstimator(
            dataset.network, dataset.store, dataset.graph,
            hlm=hlm, hlm_params=params,
        )
        seeds = roads[::17][:7]
        intervals = dataset.test_day_intervals()[:3]
        for factor in (1.0, 0.82):
            for interval in intervals:
                speeds = _speeds(dataset, seeds, interval, factor)
                sharded = shard.estimate_interval(interval, speeds)
                _assert_bitwise(mono.estimate_interval(interval, speeds), sharded)
                reference = oracle.estimate_interval(interval, speeds)
                for road, estimate in reference.items():
                    assert sharded[road].speed_kmh == pytest.approx(
                        estimate.speed_kmh, abs=1e-9
                    )

    def test_seeds_concentrated_in_one_district(self, fitted):
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        partitions = _chunks(roads, 4)
        mono = _estimator(dataset, hlm, params)
        shard = _estimator(dataset, hlm, params, partitions=partitions)
        seeds = list(partitions[0])[:6]  # every seed in district 0
        interval = dataset.test_day_intervals()[0]
        speeds = _speeds(dataset, seeds, interval)
        _assert_bitwise(
            mono.estimate_interval(interval, speeds),
            shard.estimate_interval(interval, speeds),
        )

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_ragged_partitions_property(self, fitted, data):
        """Any disjoint contiguous cover, any seed subset: bitwise equal."""
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        n = len(roads)
        cuts = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=n - 1),
                min_size=0,
                max_size=6,
                unique=True,
            ),
            label="cuts",
        )
        bounds = [0, *sorted(cuts), n]
        partitions = [
            tuple(roads[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if lo < hi
        ]
        seed_idx = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=2,
                max_size=8,
                unique=True,
            ),
            label="seeds",
        )
        seeds = [roads[i] for i in seed_idx]
        mono = _estimator(dataset, hlm, params)
        shard = _estimator(dataset, hlm, params, partitions=partitions)
        interval = dataset.test_day_intervals()[1]
        speeds = _speeds(dataset, seeds, interval)
        _assert_bitwise(
            mono.estimate_interval(interval, speeds),
            shard.estimate_interval(interval, speeds),
        )

    def test_rejects_bad_partitions(self, fitted):
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        with pytest.raises(InferenceError):
            IntervalPlanner(
                dataset.store, dataset.network, hlm, roads, []
            )
        with pytest.raises(InferenceError, match="more than one district"):
            IntervalPlanner(
                dataset.store, dataset.network, hlm, roads,
                [tuple(roads), (roads[0],)],
            )
        with pytest.raises(InferenceError, match="cover"):
            IntervalPlanner(
                dataset.store, dataset.network, hlm, roads, [tuple(roads[:10])]
            )


class TestPoolDifferential:
    def test_two_workers_four_districts_bitwise(self, fitted):
        """The CI differential: worker-compiled shards == one district."""
        dataset, hlm, params = fitted
        roads = list(dataset.graph.road_ids)
        mono = _estimator(dataset, hlm, params)
        shard = _estimator(
            dataset, hlm, params, partitions=_chunks(roads, 4), workers=2
        )
        try:
            seeds = roads[::13][:8]
            for interval in dataset.test_day_intervals()[:2]:
                speeds = _speeds(dataset, seeds, interval)
                _assert_bitwise(
                    mono.estimate_interval(interval, speeds),
                    shard.estimate_interval(interval, speeds),
                )
        finally:
            shard.close()

    def test_closed_pool_raises(self, fitted):
        dataset, hlm, params = fitted
        pool = PlanCompilePool(hlm, dataset.store, num_workers=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(InferenceError, match="closed"):
            pool.compile_shards((1,), [])


def _split_graph(road_ids):
    """Two disconnected chain components over one road set.

    Influence cannot cross components, so a delta in one half must
    leave the other half's shard untouched — the isolation the
    district-scoped eviction assertions need.
    """
    roads = sorted(road_ids)
    half = len(roads) // 2
    first, second = roads[:half], roads[half:]
    edges = [
        CorrelationEdge(a, b, 0.8)
        for chunk in (first, second)
        for a, b in zip(chunk, chunk[1:])
    ]
    return CorrelationGraph(roads, edges), tuple(first), tuple(second)


class TestDistrictScopedEviction:
    def _build(self, dataset):
        graph, first, second = _split_graph(dataset.graph.road_ids)
        params = HlmParams()
        hlm = HierarchicalLinearModel.fit(
            dataset.store, dataset.network, graph, params
        )
        fidelity = FidelityCacheService()
        cache = IntervalPlanCache(maxsize=8).attach(fidelity)
        est = TwoStepEstimator(
            dataset.network,
            dataset.store,
            graph,
            hlm=hlm,
            hlm_params=params,
            fidelity_service=fidelity,
            plan_cache=cache,
            districts=[first, second],
        )
        return graph, hlm, params, fidelity, cache, est, first, second

    def test_delta_recompiles_only_touched_district(self, small_dataset):
        rec = FlightRecorder()
        previous = set_recorder(rec)
        try:
            graph, hlm, params, fidelity, cache, est, first, second = (
                self._build(small_dataset)
            )
            seeds = [first[5], first[20], second[5], second[20]]
            interval = small_dataset.test_day_intervals()[0]
            speeds = _speeds(small_dataset, seeds, interval)
            before = est.estimate_interval(interval, speeds)
            assert cache.stats().size == 1
            assert _counter(rec, "plan.shard_compiles", district="0") == 1
            assert _counter(rec, "plan.shard_compiles", district="1") == 1

            plan = next(iter(cache._plans.values()))
            structures = {s.district: s.structure for s in plan.shards}

            # Reweight one edge deep inside the *second* component.
            edge = graph.neighbours(second[5])[0]
            delta = GraphDelta(
                added=(),
                removed=(),
                reweighted=(
                    CorrelationEdge(edge.road_u, edge.road_v, 0.93),
                ),
            )
            graph.apply_delta(delta)
            dropped = fidelity.apply_graph_delta(graph, delta)
            assert dropped, "delta must invalidate fidelity rows"
            assert set(dropped) <= set(second), (
                "disconnected components: drops stay in the touched half"
            )

            # The plan stayed cached; its shards were marked, not evicted.
            assert cache.stats().size == 1
            assert cache.stats().shard_evictions == 1
            assert next(iter(cache._plans.values())) is plan
            assert _counter(rec, "plan.shards_evicted") == 1

            after = est.estimate_interval(interval, speeds)
            refreshed = {s.district: s.structure for s in plan.shards}
            assert refreshed[0] is structures[0], (
                "untouched district's structure must survive by identity"
            )
            assert refreshed[1] is not structures[1]
            assert _counter(rec, "plan.shard_compiles", district="0") == 1
            assert _counter(rec, "plan.shard_compiles", district="1") == 2

            # And the recompiled result matches a cold one-district
            # estimator over the mutated graph, bit for bit.
            mono = TwoStepEstimator(
                small_dataset.network,
                small_dataset.store,
                graph,
                hlm=hlm,
                hlm_params=params,
                fidelity_service=FidelityCacheService(),
            )
            _assert_bitwise(mono.estimate_interval(interval, speeds), after)
            # The delta moved the touched half's numbers.
            assert any(before[r] != after[r] for r in second)
        finally:
            set_recorder(previous)

    def test_mark_stale_without_seed_overlap_is_noop(self, small_dataset):
        graph, hlm, params, fidelity, cache, est, first, second = self._build(
            small_dataset
        )
        seeds = [first[5], second[5]]
        interval = small_dataset.test_day_intervals()[0]
        est.estimate_interval(interval, _speeds(small_dataset, seeds, interval))
        plan = next(iter(cache._plans.values()))
        structures = {s.district: s.structure for s in plan.shards}
        assert plan.mark_rows_stale({first[40], second[40]}) == 0
        est.estimate_interval(interval, _speeds(small_dataset, seeds, interval))
        assert all(
            s.structure is structures[s.district] for s in plan.shards
        )
