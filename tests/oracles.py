"""Scalar reference implementations of the fast paths: the test oracles.

Every stage of a round has one production implementation in ``src/``:
the CSR fidelity kernel, masked-dot coverage gains, one-matmul Step-1
votes and compiled district plans. The references below are the
original dict/heap/per-road versions. They back the differential tests
and the F3b/F4b/F8b benchmarks (imported as ``tests.oracles``).

None of them reaches a fast path: fidelity comes from the dict/heap walk
(:func:`propagate_fidelity_scalar`, wrapped by
:class:`ScalarFidelityService`), never from
:func:`repro.history.fidelity.best_fidelity_row`, and Step-2 never calls
a compiled plan's ``evaluate``. ``tests/test_oracles.py`` pins that with
both patched to raise, so a differential cannot silently compare a fast
path with itself. The only shared code is what defines the numbers:
the per-entry transforms, the HLM fits and the trend model.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.errors import InferenceError, SelectionError
from repro.core.pipeline import SpeedEstimationSystem
from repro.core.types import SpeedEstimate, Trend
from repro.history.correlation import CorrelationGraph
from repro.history.fidelity import FidelityCacheService, _validate, edge_fidelity
from repro.obs import get_recorder
from repro.seeds.objective import CoverageState, SeedSelectionObjective
from repro.speed.estimator import TwoStepEstimator
from repro.speed.hlm import HierarchicalLinearModel, HlmParams
from repro.trend.model import TrendPosterior
from repro.trend.propagation import TrendPropagationInference

__all__ = [
    "ScalarCoverageState",
    "ScalarFidelityService",
    "ScalarObjective",
    "ScalarPropagationInference",
    "ScalarTwoStepEstimator",
    "clamp_speed",
    "estimate_road",
    "propagate_fidelity_scalar",
    "scalar_system",
]


# ----------------------------------------------------------------------
# Fidelity rows
# ----------------------------------------------------------------------
def propagate_fidelity_scalar(
    graph: CorrelationGraph,
    source: int,
    min_fidelity: float = 0.05,
    max_hops: int | None = None,
) -> dict[int, float]:
    """Best-path fidelity from ``source`` by dict/heap walk.

    Without a hop budget this is a pruned max-product Dijkstra; with one
    it is a frontier-synchronous relaxation in dict form, because
    single-label Dijkstra cannot bound hops soundly — a weaker-but-
    shorter path must survive alongside a stronger-but-longer one.
    Returns only roads at or above the floor; the source has 1.
    """
    if not graph.has_road(source):
        raise InferenceError(f"source road {source} not in correlation graph")
    _validate(min_fidelity)
    if max_hops is not None:
        return _scalar_bounded(graph, source, min_fidelity, max_hops)

    best: dict[int, float] = {source: 1.0}
    # Max-heap via negated fidelity.
    heap: list[tuple[float, int]] = [(-1.0, source)]
    while heap:
        neg_fid, road = heapq.heappop(heap)
        fidelity = -neg_fid
        if fidelity < best.get(road, 0.0):
            continue
        for edge in graph.neighbours(road):
            other = edge.other(road)
            candidate = fidelity * edge_fidelity(edge.agreement)
            if candidate < min_fidelity:
                continue
            if candidate > best.get(other, 0.0):
                best[other] = candidate
                heapq.heappush(heap, (-candidate, other))
    return best


def _scalar_bounded(
    graph: CorrelationGraph, source: int, min_fidelity: float, max_hops: int
) -> dict[int, float]:
    """Hop-bounded best fidelity: synchronous layered relaxation.

    After layer ``h``, ``best`` is the optimum over paths of <= ``h``
    hops — the candidate path's own hop count is what gets bounded.
    """
    best: dict[int, float] = {source: 1.0}
    frontier: dict[int, float] = {source: 1.0}
    for _ in range(max_hops):
        improved: dict[int, float] = {}
        for road, fidelity in frontier.items():
            for edge in graph.neighbours(road):
                other = edge.other(road)
                candidate = fidelity * edge_fidelity(edge.agreement)
                if candidate < min_fidelity:
                    continue
                if candidate > best.get(other, 0.0) and candidate > improved.get(
                    other, 0.0
                ):
                    improved[other] = candidate
        if not improved:
            break
        best.update(improved)
        frontier = improved
    return best


class ScalarFidelityService(FidelityCacheService):
    """The shared cache with rows computed by the dict/heap walk.

    Same bookkeeping, keys, transforms and invalidation as production;
    only the raw propagation differs.
    """

    def _propagate(self, graph, road, min_fidelity, max_hops) -> np.ndarray:
        csr = self.csr(graph)
        row = np.zeros(csr.num_roads, dtype=np.float64)
        walk = propagate_fidelity_scalar(graph, road, min_fidelity, max_hops)
        for other, fidelity in walk.items():
            row[csr.index[other]] = fidelity
        return row


# ----------------------------------------------------------------------
# Coverage gains (seed selection)
# ----------------------------------------------------------------------
class ScalarCoverageState(CoverageState):
    """Coverage gains and updates by walking each seed's influence map."""

    def gain(self, candidate: int) -> float:
        if candidate in self._selected:
            return 0.0
        objective = self._objective
        if candidate not in objective.index:
            raise SelectionError(f"candidate {candidate} not in correlation graph")
        gain = 0.0
        weights = objective.weights
        index = objective.index
        for road, q in objective.influence_map(candidate).items():
            i = index[road]
            gain += weights[i] * self.residual[i] * q
        return gain

    def add(self, seed: int) -> float:
        gain = self.gain(seed)
        if seed in self._selected:
            return gain
        index = self._objective.index
        for road, q in self._objective.influence_map(seed).items():
            self.residual[index[road]] *= 1.0 - q
        self.seeds.append(seed)
        self._selected.add(seed)
        self.value += gain
        return gain


class ScalarObjective(SeedSelectionObjective):
    """The coverage objective over a :class:`ScalarFidelityService`.

    Its states are :class:`ScalarCoverageState`; clones (partitioned
    selection) stay scalar and share the service.
    """

    def __init__(
        self,
        graph: CorrelationGraph,
        min_fidelity: float = 0.05,
        road_weights: dict[int, float] | None = None,
        transform: str = "variance",
        fidelity_service: ScalarFidelityService | None = None,
    ) -> None:
        super().__init__(
            graph,
            min_fidelity=min_fidelity,
            road_weights=road_weights,
            transform=transform,
            fidelity_service=fidelity_service or ScalarFidelityService(),
        )

    def clone_with_weights(self, road_weights: dict[int, float]) -> "ScalarObjective":
        return ScalarObjective(
            self.graph,
            min_fidelity=self.min_fidelity,
            road_weights=road_weights,
            transform=self.transform,
            fidelity_service=self.fidelity_service,
        )

    def new_state(self) -> ScalarCoverageState:
        return ScalarCoverageState(self)


# ----------------------------------------------------------------------
# Step 1: trend votes
# ----------------------------------------------------------------------
class ScalarPropagationInference(TrendPropagationInference):
    """Step-1 propagation with one dict walk per seed vote."""

    def __init__(
        self,
        min_fidelity: float = 0.05,
        max_hops: int | None = None,
        prior_weight: float = 1.0,
        fidelity_service: ScalarFidelityService | None = None,
    ) -> None:
        super().__init__(
            min_fidelity=min_fidelity,
            max_hops=max_hops,
            prior_weight=prior_weight,
            fidelity_service=fidelity_service or ScalarFidelityService(),
        )

    def _accumulate(self, graph, instance, index, log_odds) -> int:
        votes = 0
        for seed_road in self._vote_seeds(graph, instance, index):
            fidelities = self.fidelity_service.fidelity_map(
                graph,
                seed_road,
                min_fidelity=self._min_fidelity,
                max_hops=self._max_hops,
            )
            votes += len(fidelities) - 1
            sign = float(int(instance.evidence[seed_road]))
            for road, q in fidelities.items():
                if road == seed_road:
                    continue
                i = index.get(road)
                if i is None:
                    continue
                q = min(q, 1.0 - 1e-9)
                log_odds[i] += sign * math.log((1.0 + q) / (1.0 - q))
        return votes


# ----------------------------------------------------------------------
# Step 2: per-road hierarchical linear model
# ----------------------------------------------------------------------
def estimate_road(
    hlm: HierarchicalLinearModel,
    store,
    network,
    road_id: int,
    interval: int,
    posterior: TrendPosterior,
    seed_deviations: dict[int, float],
    influence: dict[int, float],
) -> float:
    """Predicted speed (km/h) for one non-seed road, the per-road way.

    ``seed_deviations`` maps seed road -> observed deviation ratio;
    ``influence`` maps seed road -> best-path fidelity q(seed→road),
    already floor-filtered by the caller.
    """
    params = hlm.params
    bucket = store.grid.bucket_of(interval)
    if params.use_trend:
        p_rise = posterior.p_rise(road_id)
        map_trend = Trend.RISE if p_rise >= 0.5 else Trend.FALL
        if params.hierarchical:
            prior_mean = hlm.hierarchy.conditional_mean(road_id, bucket, map_trend)
        else:
            prior_mean = hlm.hierarchy.global_mean(map_trend)
        # A confident posterior makes the trend-conditional prior
        # trustworthy; an uncertain one should barely steer.
        confidence = 2.0 * max(p_rise, 1.0 - p_rise) - 1.0
        prior_weight = params.prior_weight * (0.25 + 0.75 * confidence)
    else:
        prior_mean = 1.0
        prior_weight = params.prior_weight

    fitted = hlm.regression.for_road(road_id, influence)
    if fitted is None:
        predicted_deviation = prior_mean
    else:
        missing = [s for s in fitted.seeds if s not in seed_deviations]
        if missing:
            raise InferenceError(
                f"influencing seeds {missing[:3]} have no observation"
            )
        regressed = fitted.predict(seed_deviations)
        predicted_deviation = (
            prior_weight * prior_mean + fitted.weight * regressed
        ) / (prior_weight + fitted.weight)

    speed = predicted_deviation * store.historical_speed(road_id, interval)
    return clamp_speed(hlm, network, road_id, speed)


def clamp_speed(hlm: HierarchicalLinearModel, network, road_id: int, speed: float) -> float:
    """Clamp to [min_speed_kmh, max_over_free_flow x free flow]."""
    upper = network.segment(road_id).free_flow_kmh * hlm.params.max_over_free_flow
    return float(min(upper, max(hlm.params.min_speed_kmh, speed)))


class ScalarTwoStepEstimator(TwoStepEstimator):
    """The two-step estimator with scalar Step 1 and per-road Step 2.

    Defaults to a fresh :class:`ScalarFidelityService` and
    :class:`ScalarPropagationInference`, so no stage reaches the kernel
    or a compiled plan.
    """

    def __init__(
        self,
        network,
        store,
        graph,
        hlm: HierarchicalLinearModel | None = None,
        trend_inference: object | None = None,
        hlm_params: HlmParams | None = None,
        fidelity_service: ScalarFidelityService | None = None,
    ) -> None:
        params = hlm_params or HlmParams()
        service = fidelity_service or ScalarFidelityService()
        super().__init__(
            network,
            store,
            graph,
            hlm=hlm,
            trend_inference=trend_inference
            or ScalarPropagationInference(
                min_fidelity=params.min_fidelity, fidelity_service=service
            ),
            hlm_params=params,
            fidelity_service=service,
        )

    def _solve(
        self, interval, posterior, seed_speeds, seed_trends, seed_deviations, roads
    ) -> tuple[dict[int, SpeedEstimate], int]:
        influence_by_road = self._influence_index(frozenset(seed_speeds))
        estimates: dict[int, SpeedEstimate] = {}
        seed_count = 0
        with get_recorder().span("speed.solve", roads=len(roads)):
            for road in roads:
                if road in seed_speeds:
                    trend = seed_trends[road]
                    estimates[road] = SpeedEstimate(
                        road_id=road,
                        interval=interval,
                        speed_kmh=seed_speeds[road],
                        trend=trend,
                        trend_probability=1.0 if trend is Trend.RISE else 0.0,
                        is_seed=True,
                    )
                    seed_count += 1
                    continue
                speed = estimate_road(
                    self._hlm,
                    self._store,
                    self._network,
                    road,
                    interval,
                    posterior,
                    seed_deviations,
                    influence_by_road.get(road, {}),
                )
                p_rise = posterior.p_rise(road)
                estimates[road] = SpeedEstimate(
                    road_id=road,
                    interval=interval,
                    speed_kmh=speed,
                    trend=Trend.RISE if p_rise >= 0.5 else Trend.FALL,
                    trend_probability=p_rise,
                )
        return estimates, seed_count


def scalar_system(network, store, graph, config=None) -> SpeedEstimationSystem:
    """A system whose rounds estimate through :class:`ScalarTwoStepEstimator`.

    Selection, degradation and the crowd loop stay production code, so
    a run against a production system isolates the estimator.
    """
    system = SpeedEstimationSystem.from_parts(network, store, graph, config)
    system._estimator = ScalarTwoStepEstimator(
        network, store, graph, hlm_params=system.config.hlm
    )
    return system
