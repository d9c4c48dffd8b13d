"""The two-step estimator: the paper's full inference pipeline.

Wires Step 1 (trend inference over the correlation-graph MRF) to Step 2
(the hierarchical linear model) behind one call:
:meth:`TwoStepEstimator.estimate_interval` takes the crowdsourced seed
speeds for an interval and returns a :class:`~repro.core.types.SpeedEstimate`
for every road in the correlation graph.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.errors import DataError, InferenceError
from repro.core.types import SpeedEstimate, Trend
from repro.history.correlation import CorrelationGraph
from repro.history.store import HistoricalSpeedStore
from repro.obs import get_recorder
from repro.history.fidelity import (
    FidelityCacheService,
    WeakRowListener,
    get_fidelity_service,
)
from repro.roadnet.network import RoadNetwork
from repro.speed.hlm import HierarchicalLinearModel, HlmParams
from repro.speed.plan import IntervalPlanCache, IntervalPlanner
from repro.trend.model import TrendModel
from repro.trend.propagation import TrendPropagationInference


class TwoStepEstimator:
    """Trend inference + hierarchical linear model, end to end.

    The trend-inference algorithm is pluggable (any object with an
    ``infer(TrendInstance) -> TrendPosterior`` method); the default is
    the fast propagation method. Per-seed influence maps are cached, so
    repeated estimation with a fixed seed set (the production pattern —
    one seed set serves a whole day) costs one pruned Dijkstra per seed
    total, not per interval.

    Step-2 serving runs through compiled
    :class:`~repro.speed.plan.IntervalPlan` objects — one padded
    matrix-vector product per district plus a vectorized blend per
    interval. ``districts`` is the planner's district cover (default:
    one district holding every road; any cover evaluates bitwise equal)
    and ``plan_workers`` other than 1 compiles districts across a
    process pool; :meth:`close` releases it.
    """

    def __init__(
        self,
        network: RoadNetwork,
        store: HistoricalSpeedStore,
        graph: CorrelationGraph,
        hlm: HierarchicalLinearModel | None = None,
        trend_inference: object | None = None,
        hlm_params: HlmParams | None = None,
        fidelity_service: FidelityCacheService | None = None,
        plan_cache: IntervalPlanCache | None = None,
        districts: Sequence[Sequence[int]] | None = None,
        plan_workers: int = 1,
    ) -> None:
        self._network = network
        self._store = store
        self._graph = graph
        self._params = hlm_params or HlmParams()
        self._trend_model = TrendModel(graph, store)
        self._fidelity = fidelity_service or get_fidelity_service()
        self._inference = trend_inference or TrendPropagationInference(
            min_fidelity=self._params.min_fidelity,
            fidelity_service=self._fidelity,
        )
        self._hlm = hlm or HierarchicalLinearModel.fit(
            store, network, graph, self._params
        )
        self._influence_cache: dict[frozenset[int], dict[int, dict[int, float]]] = {}
        # `is not None`, not truthiness: an empty cache has len() == 0.
        self._plans = plan_cache if plan_cache is not None else IntervalPlanCache()
        self._planner = IntervalPlanner(
            store,
            network,
            self._hlm,
            graph.road_ids,
            districts,
            num_workers=plan_workers,
        )
        # Row invalidations (incremental re-mining, targeted evictions)
        # must also drop the influence indexes derived from the dropped
        # rows and mark the planner's affected shards — including shard
        # sets held outside the plan cache — or a later compile would
        # serve stale regressions.
        self._fidelity.add_row_invalidation_listener(
            WeakRowListener(self._on_rows_invalidated)
        )

    @property
    def trend_model(self) -> TrendModel:
        return self._trend_model

    @property
    def hlm(self) -> HierarchicalLinearModel:
        return self._hlm

    @property
    def plan_cache(self) -> IntervalPlanCache:
        """The LRU of compiled interval plans this estimator serves from."""
        return self._plans

    @property
    def planner(self) -> IntervalPlanner:
        """The district planner compiling this estimator's plans."""
        return self._planner

    def close(self) -> None:
        """Release the plan-compile pool, if one was started."""
        self._planner.close()

    def estimate_interval(
        self, interval: int, seed_speeds: dict[int, float]
    ) -> dict[int, SpeedEstimate]:
        """Estimates for every road given crowdsourced ``seed_speeds``.

        ``seed_speeds`` maps seed road id -> observed speed (km/h).
        Returns a dict keyed by road id covering every road in the
        correlation graph; seeds carry their observation verbatim.
        """
        return self._estimate(interval, seed_speeds, self._graph.road_ids)

    def estimate_roads(
        self,
        interval: int,
        seed_speeds: dict[int, float],
        roads: list[int],
    ) -> dict[int, SpeedEstimate]:
        """Estimates for ``roads`` only — the latency-sensitive query path.

        Trend inference still runs over the whole graph (evidence flows
        through roads you did not ask about), but Step-2 regression work
        is done only for the requested roads.
        """
        if not roads:
            raise InferenceError("estimate_roads needs at least one road")
        # Deduplicate before validating and estimating: repeated ids must
        # not double Step-2 work or inflate the unknown-road count.
        unique = sorted(set(roads))
        unknown = [r for r in unique if not self._graph.has_road(r)]
        if unknown:
            raise InferenceError(
                f"{len(unknown)} of {len(unique)} requested roads not in "
                f"correlation graph (first {min(len(unknown), 5)} shown): "
                f"{unknown[:5]}"
            )
        return self._estimate(interval, seed_speeds, unique)

    def _estimate(
        self,
        interval: int,
        seed_speeds: dict[int, float],
        roads: list[int],
    ) -> dict[int, SpeedEstimate]:
        if not seed_speeds:
            raise InferenceError("at least one seed observation is required")
        for road in seed_speeds:
            if not self._graph.has_road(road):
                raise InferenceError(f"seed road {road} not in correlation graph")

        recorder = get_recorder()
        # One bucket lookup + one historical mean per seed; trend and
        # deviation derive from the same mean (equivalent to trend_of /
        # deviation_ratio, without re-resolving the bucket four times).
        bucket = self._store.grid.bucket_of(interval)
        seed_trends: dict[int, Trend] = {}
        seed_deviations: dict[int, float] = {}
        for road, speed in seed_speeds.items():
            historical = self._store.mean(road, bucket)
            if historical <= 0:
                raise DataError(f"road {road} has non-positive historical mean")
            seed_trends[road] = Trend.RISE if speed >= historical else Trend.FALL
            seed_deviations[road] = speed / historical

        with recorder.span(
            "trend.infer",
            method=type(self._inference).__name__,
            seeds=len(seed_speeds),
        ):
            instance = self._trend_model.instance(interval, seed_trends)
            posterior = self._inference.infer(instance)

        estimates, seed_count = self._solve(
            interval, posterior, seed_speeds, seed_trends, seed_deviations, roads
        )
        recorder.count("speed.estimates", len(estimates))
        recorder.count("speed.seed_estimates", seed_count)
        return estimates

    def _solve(
        self,
        interval: int,
        posterior,
        seed_speeds: dict[int, float],
        seed_trends: dict[int, Trend],
        seed_deviations: dict[int, float],
        roads: list[int],
    ) -> tuple[dict[int, SpeedEstimate], int]:
        """The compiled-plan serving path: a few array ops per interval."""
        recorder = get_recorder()
        seeds = tuple(sorted(seed_speeds))
        bucket = self._store.grid.bucket_of(interval)
        with recorder.span(
            "speed.solve_vectorized", roads=len(roads), seeds=len(seeds)
        ) as span:
            key = (seeds, bucket, self._params)
            plan = self._plans.get_or_build(
                key, lambda: self._compile_plan(seeds, bucket)
            )
            deviations = np.fromiter(
                (seed_deviations[s] for s in seeds),
                dtype=np.float64,
                count=len(seeds),
            )
            if posterior.road_ids == plan.road_ids:
                p_rise = posterior.as_array()
            else:
                p_rise = np.fromiter(
                    (posterior.p_rise(road) for road in plan.road_ids),
                    dtype=np.float64,
                    count=plan.num_roads,
                )
            speeds = plan.evaluate(deviations, p_rise)
            span.set(plan_roads=plan.num_roads)

            index = plan.index
            speed_list = speeds.tolist()
            p_list = p_rise.tolist()
            rise, fall = Trend.RISE, Trend.FALL
            estimates: dict[int, SpeedEstimate] = {}
            seed_count = 0
            for road in roads:
                if road in seed_speeds:
                    trend = seed_trends[road]
                    estimates[road] = SpeedEstimate(
                        road,
                        interval,
                        seed_speeds[road],
                        trend,
                        1.0 if trend is rise else 0.0,
                        True,
                    )
                    seed_count += 1
                    continue
                i = index[road]
                p = p_list[i]
                estimates[road] = SpeedEstimate(
                    road,
                    interval,
                    speed_list[i],
                    rise if p >= 0.5 else fall,
                    p,
                )
        return estimates, seed_count

    def _compile_plan(self, seeds: tuple[int, ...], bucket: int):
        # The planner re-reads the index when it refreshes stale shards,
        # i.e. *after* a delta has dropped the memoised one.
        return self._planner.compile(
            seeds, bucket, lambda: self._influence_index(frozenset(seeds))
        )

    def influence_index(
        self, seeds: frozenset[int] | set[int]
    ) -> dict[int, dict[int, float]]:
        """road id -> {seed -> fidelity} for a seed set (cached).

        Public accessor used by the uncertainty model and diagnostics.
        """
        return self._influence_index(frozenset(seeds))

    # ------------------------------------------------------------------
    # Influence caching
    # ------------------------------------------------------------------
    def _on_rows_invalidated(self, graph, roads) -> None:
        """Drop derived state built from invalidated fidelity rows."""
        if graph is not None and graph is not self._graph:
            return
        if roads is None:
            self._influence_cache.clear()
            self._planner.evict_structures(None)
            self._trend_model.refresh_edges()
            return
        road_set = set(roads)
        stale = [key for key in self._influence_cache if key & road_set]
        for key in stale:
            del self._influence_cache[key]
        self._planner.evict_structures(road_set)
        # In-place graph deltas invalidate the model's baked edge
        # potentials too (cheap: one pass over the edge list).
        self._trend_model.refresh_edges()

    def _fidelity_map(self, seed: int):
        """Per-seed fidelity map from the shared cross-stage cache."""
        return self._fidelity.fidelity_map(
            self._graph, seed, min_fidelity=self._params.min_fidelity
        )

    def _influence_index(
        self, seeds: frozenset[int]
    ) -> dict[int, dict[int, float]]:
        """road id -> {seed -> fidelity} for the given seed set."""
        cached = self._influence_cache.get(seeds)
        if cached is None:
            cached = {}
            for seed in sorted(seeds):
                for road, q in self._fidelity_map(seed).items():
                    if road == seed:
                        continue
                    cached.setdefault(road, {})[seed] = q
            self._influence_cache[seeds] = cached
        return cached
