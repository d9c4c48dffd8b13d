"""Fast trend inference by seed-evidence propagation.

This is the reproduction of the paper's *efficient* inference algorithm —
the one behind the "2 orders of magnitude in efficiency" claim. Instead
of iterating message passing over the whole graph, evidence flows
outward from each seed along **best-fidelity paths**:

* An edge with trend-agreement ``p`` behaves like a binary symmetric
  channel: it transmits a trend correctly with probability ``p``, so its
  *fidelity* is ``q = 2p - 1 ∈ (0, 1)`` (the correlation of the two
  endpoint trends).
* Fidelity composes multiplicatively along a path (channel chaining),
  so the influence of seed ``s`` on road ``r`` is the maximum over paths
  of the product of edge fidelities — computed by the shared
  :mod:`repro.history.fidelity` kernel, pruned once fidelity drops
  below ``min_fidelity``.
* Each seed's evidence then contributes an independent log-likelihood-
  ratio vote of magnitude ``log((1+q)/(1-q))``, signed by the seed's
  observed trend, added to the road's prior log-odds.

Because propagation is pruned at a fidelity floor, per-seed work is a
small constant neighbourhood, making inference near-linear in the number
of seeds and independent of total network size — which is exactly the
scaling experiment F3 demonstrates.

The hot path is fully vectorized: per-seed vote rows are served as
dense ``log((1+q)/(1-q))`` arrays by the shared
:class:`~repro.history.fidelity.FidelityCacheService` (one cache across
inference, seed selection and Step-2 regression), and one interval's
inference collapses to ``log_odds += signs @ vote_rows``. The original
dict/heap implementation lives on as a test oracle; experiment F3
asserts the kernel path matches it to 1e-9 while being several times
faster.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InferenceError
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import (
    CSRFidelityGraph,
    FidelityCacheService,
    best_fidelity_row,
    edge_fidelity,
    get_fidelity_service,
)
from repro.obs import get_recorder
from repro.trend.model import TrendInstance, TrendPosterior

__all__ = [
    "TrendPropagationInference",
    "edge_fidelity",
    "instance_graph",
    "propagate_fidelity",
]


def propagate_fidelity(
    graph: CorrelationGraph,
    source: int,
    min_fidelity: float = 0.05,
    max_hops: int | None = None,
) -> dict[int, float]:
    """Best-path fidelity from ``source`` to every reachable road.

    The dict form of one :func:`~repro.history.fidelity.best_fidelity_row`
    over a fresh CSR export of ``graph`` (fresh, so an in-place graph
    delta can never serve stale weights): expansion stops once the path
    fidelity falls below ``min_fidelity``, and ``max_hops`` bounds the
    *candidate path's own* hop count — a road reachable only through a
    short weak path is kept even when a longer, stronger path found it
    first. The source itself has fidelity 1. Returns only roads whose
    fidelity is at least the floor.
    """
    if not graph.has_road(source):
        raise InferenceError(f"source road {source} not in correlation graph")
    csr = CSRFidelityGraph.from_graph(graph)
    row = best_fidelity_row(csr, csr.index[source], min_fidelity, max_hops)
    return {csr.road_ids[i]: float(row[i]) for i in np.flatnonzero(row)}


def instance_graph(instance: TrendInstance) -> CorrelationGraph:
    """The correlation graph an instance was built from.

    Instances produced by :class:`~repro.trend.model.TrendModel` carry a
    reference to their source graph; hand-built instances (tests) get a
    graph reconstructed from their edge list.
    """
    if instance.graph is not None:
        return instance.graph
    roads = list(instance.road_ids)
    edges = [CorrelationEdge(roads[i], roads[j], p) for i, j, p in instance.edges]
    return CorrelationGraph(roads, edges)


class TrendPropagationInference:
    """The fast Step-1 inference: independent seed votes in log-odds space.

    ``fidelity_service`` is the shared cross-stage influence cache
    (defaults to the process-wide service). Evidence on roads absent
    from the instance's index or the correlation graph is skipped
    consistently in both the vote and the clamp stage.
    """

    def __init__(
        self,
        min_fidelity: float = 0.05,
        max_hops: int | None = None,
        prior_weight: float = 1.0,
        fidelity_service: FidelityCacheService | None = None,
    ) -> None:
        if prior_weight < 0.0:
            raise InferenceError("prior_weight must be non-negative")
        self._min_fidelity = min_fidelity
        self._max_hops = max_hops
        self._prior_weight = prior_weight
        self._service = fidelity_service or get_fidelity_service()
        self._vote_accumulator = None

    @property
    def fidelity_service(self) -> FidelityCacheService:
        return self._service

    def set_vote_accumulator(self, accumulator) -> None:
        """Install a district-parallel vote backend (or None to clear).

        ``accumulator(graph, seeds, signs)`` must return the CSR-ordered
        vote vector and its nonzero count — the contract of
        :meth:`repro.seeds.parallel.DistrictPool.vote_accumulator`.
        Partial sums may differ from the serial matmul by float
        re-association (≤ 1e-9), which the differential tests pin.
        """
        self._vote_accumulator = accumulator

    def infer(self, instance: TrendInstance) -> TrendPosterior:
        """Posterior P(RISE) per road from prior + seed votes."""
        recorder = get_recorder()
        with recorder.span(
            "trend.propagation",
            roads=instance.num_roads,
            seeds=len(instance.evidence),
        ) as span:
            prior = np.clip(instance.prior_rise, 1e-6, 1.0 - 1e-6)
            log_odds = self._prior_weight * np.log(prior / (1.0 - prior))

            graph = instance_graph(instance)
            csr = self._service.csr(graph)
            if csr.road_ids == instance.road_ids:
                index = csr.index
            else:
                index = instance.index
            misses_before = self._service.stats().misses
            votes = self._accumulate(graph, instance, index, log_odds)
            cache_misses = self._service.stats().misses - misses_before

            p_rise = 1.0 / (1.0 + np.exp(-np.clip(log_odds, -500, 500)))
            for road, trend in instance.evidence.items():
                i = index.get(road)
                if i is None:
                    continue
                p_rise[i] = 1.0 if trend.value == 1 else 0.0
            span.set(votes=votes, cache_misses=cache_misses)
            recorder.count("trend.propagation.votes", votes)
            hits = len(instance.evidence) - cache_misses
            if hits > 0:
                recorder.count("trend.propagation.cache", hits, hit="true")
            if cache_misses:
                recorder.count(
                    "trend.propagation.cache", cache_misses, hit="false"
                )
            return TrendPosterior(instance.road_ids, p_rise)

    def _vote_seeds(
        self,
        graph: CorrelationGraph,
        instance: TrendInstance,
        index: dict[int, int],
    ) -> list[int]:
        """Evidence roads that can vote, in canonical (sorted) order.

        Roads missing from the instance index or from the correlation
        graph are skipped — the same unknown-evidence policy the clamp
        stage applies.
        """
        return [
            road
            for road in sorted(instance.evidence)
            if road in index and graph.has_road(road)
        ]

    def _accumulate(
        self,
        graph: CorrelationGraph,
        instance: TrendInstance,
        index: dict[int, int],
        log_odds: np.ndarray,
    ) -> int:
        """One matmul: ``log_odds += signs @ log((1+Q)/(1-Q))`` rows."""
        seeds = self._vote_seeds(graph, instance, index)
        if not seeds:
            return 0
        signs = np.fromiter(
            (float(int(instance.evidence[s])) for s in seeds),
            dtype=np.float64,
            count=len(seeds),
        )
        # The district pool computes rows with an unbounded hop budget,
        # so the parallel backend only serves the max_hops=None case.
        if self._vote_accumulator is not None and self._max_hops is None:
            votes_csr, nonzeros = self._vote_accumulator(graph, seeds, signs)
            csr = self._service.csr(graph)
            if csr.index is index:
                log_odds += votes_csr
            else:
                gather = np.fromiter(
                    (index.get(road, -1) for road in csr.road_ids),
                    dtype=np.int64,
                    count=csr.num_roads,
                )
                valid = gather >= 0
                log_odds[gather[valid]] += votes_csr[valid]
            return int(nonzeros)
        matrix = self._service.rows(
            graph,
            seeds,
            min_fidelity=self._min_fidelity,
            max_hops=self._max_hops,
            transform="logodds",
        )
        votes_csr = signs @ matrix
        csr = self._service.csr(graph)
        if csr.index is index:
            log_odds += votes_csr
        else:
            gather = np.fromiter(
                (index.get(road, -1) for road in csr.road_ids),
                dtype=np.int64,
                count=csr.num_roads,
            )
            valid = gather >= 0
            log_odds[gather[valid]] += votes_csr[valid]
        return int(np.count_nonzero(matrix))
