"""Process-parallel district selection and Step-1 voting at metropolitan scale.

The single-process partition path (:mod:`repro.seeds.partition`) already
restricts every marginal-gain evaluation to one district; at 50k+ roads
the districts themselves become the unit of parallelism. This module
runs them across a process pool:

* The CSR fidelity arrays (``indptr``/``indices``/``data``) and the
  objective's road weights are exported **once** to
  :mod:`multiprocessing.shared_memory` — workers map them read-only, so
  a pool over a 50k-road graph costs one copy of the graph, not one per
  worker.
* Each worker rebuilds a :class:`~repro.history.fidelity.CSRFidelityGraph`
  view over the shared buffers and runs the *unchanged*
  :func:`~repro.seeds.lazy.lazy_greedy_select` against a duck-typed
  objective that recomputes influence rows on demand (bounded LRU).
  Because the kernel, the transform math and the weight construction are
  byte-identical to the parent's, each district returns the **identical
  seed sequence** the single-process path would have produced for that
  chunk.
* Stitching is deterministic: district results are concatenated in
  district order (the same order the serial loop uses), never in
  completion order, and the final global rescoring runs in the parent.

The same pool also accumulates Step-1 propagation votes per district
(:meth:`DistrictPool.vote_accumulator`): each worker sums its district
seeds' signed log-odds rows into one partial vote vector and the parent
adds the partials in district order — exact up to float re-association
(asserted ≤ 1e-9 against the serial kernel in the differential tests).

Workers recompute rows instead of memoizing them all because dense rows
at metropolitan scale are ~400 KB each; a bounded LRU keeps worker
memory flat while the CELF access pattern (one initial scan, then
re-evaluations clustered on recent picks) keeps the hit rate high.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import InferenceError, SelectionError
from repro.history.fidelity import (
    CSRFidelityGraph,
    _transform_row,
    best_fidelity_row,
)
from repro.obs import get_recorder
from repro.seeds.greedy import SelectionResult, validate_budget
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import CoverageState, SeedSelectionObjective
from repro.seeds.partition import allocate_budget, partition_graph

__all__ = [
    "DistrictPool",
    "SharedArrayExport",
    "attach_shared_array",
    "parallel_partition_select",
]


# ----------------------------------------------------------------------
# Shared-memory export
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ArraySpec:
    """Address of one read-only array in shared memory."""

    name: str
    shape: tuple[int, ...]
    dtype: str


class SharedArrayExport:
    """Named read-only numpy arrays published once to shared memory.

    The generic half of the worker plumbing: any pool that ships large
    read-only arrays to spawn workers (district selection here, sharded
    plan compilation in :mod:`repro.speed.plan`) publishes them
    through one of these and hands ``specs`` to the pool initializer.
    Owns the shared-memory segments: :meth:`close` both closes and
    unlinks them (workers keep their own mappings alive until exit).
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self.specs: dict[str, _ArraySpec] = {}
        try:
            for field, source in arrays.items():
                array = np.ascontiguousarray(source)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                self._segments.append(segment)
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                view[...] = array
                del view
                self.specs[field] = _ArraySpec(
                    segment.name, tuple(array.shape), array.dtype.str
                )
        except BaseException:
            self.close()
            raise
        self.nbytes = sum(segment.size for segment in self._segments)

    def close(self) -> None:
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments = []


class _SharedGraphExport(SharedArrayExport):
    """The CSR fidelity arrays + road ids + weights, published once."""

    def __init__(self, csr: CSRFidelityGraph, weights: np.ndarray) -> None:
        super().__init__(
            {
                "indptr": csr.indptr,
                "indices": csr.indices,
                "data": csr.data,
                "road_ids": np.asarray(csr.road_ids, dtype=np.int64),
                "weights": np.asarray(weights, dtype=np.float64),
            }
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_worker_csr: CSRFidelityGraph | None = None
_worker_weights: np.ndarray | None = None
_worker_min_fidelity: float = 0.05
_worker_transform: str = "variance"
_worker_segments: list[shared_memory.SharedMemory] = []


def _attach(spec: _ArraySpec) -> np.ndarray:
    # Workers attach by name; the parent owns creation and unlinking.
    # The resource tracker is shared with the parent under spawn, so
    # the attach-side registration is a set-level no-op there.
    segment = shared_memory.SharedMemory(name=spec.name)
    _worker_segments.append(segment)
    array: np.ndarray = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
    )
    array.setflags(write=False)
    return array


def attach_shared_array(spec: _ArraySpec) -> np.ndarray:
    """Worker-side attach to one exported array (read-only view).

    Public alias of the internal attach helper so other pools (the
    plan-compile pool in :mod:`repro.speed.plan`) can reuse the
    segment bookkeeping without reaching into module privates.
    """
    return _attach(spec)


def _init_worker(
    specs: dict[str, _ArraySpec], min_fidelity: float, transform: str
) -> None:
    """Pool initializer: map the shared arrays and rebuild the CSR view."""
    global _worker_csr, _worker_weights, _worker_min_fidelity, _worker_transform
    road_ids = tuple(int(r) for r in _attach(specs["road_ids"]))
    _worker_csr = CSRFidelityGraph(
        road_ids=road_ids,
        index={road: i for i, road in enumerate(road_ids)},
        indptr=_attach(specs["indptr"]),
        indices=_attach(specs["indices"]),
        data=_attach(specs["data"]),
    )
    _worker_weights = _attach(specs["weights"])
    _worker_min_fidelity = float(min_fidelity)
    _worker_transform = transform


class _SharedArrayObjective:
    """Duck-typed objective over the worker's shared CSR arrays.

    Exposes exactly the surface :class:`~repro.seeds.objective.
    CoverageState` and :func:`~repro.seeds.lazy.lazy_greedy_select`
    touch (``num_roads``/``road_ids``/``index``/``weights``/
    ``influence_row``/``new_state``), with rows
    recomputed from the shared arrays by the same kernel + transform
    math the parent's cache service uses — so gains, tie-breaks and
    therefore seed sequences are bitwise identical to the parent's.
    """

    def __init__(
        self,
        csr: CSRFidelityGraph,
        weights: np.ndarray,
        members: list[int],
        min_fidelity: float,
        transform: str,
        row_cache: int = 256,
    ) -> None:
        self._csr = csr
        self.num_roads = csr.num_roads
        self.index = csr.index
        self._min_fidelity = min_fidelity
        self._transform = transform
        # Zero weights outside the district, the district's own global
        # weights inside — the same array clone_with_weights builds.
        self.weights = np.zeros(csr.num_roads, dtype=np.float64)
        positions = [csr.index[road] for road in members]
        self.weights[positions] = weights[positions]
        self._row_cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._row_cache_size = row_cache

    @property
    def road_ids(self) -> list[int]:
        return list(self._csr.road_ids)

    def influence_row(self, road: int) -> np.ndarray:
        row = self._row_cache.get(road)
        if row is not None:
            self._row_cache.move_to_end(road)
            return row
        raw = best_fidelity_row(self._csr, self.index[road], self._min_fidelity)
        row = _transform_row(
            raw, self.index[road], self._transform, np.flatnonzero(raw)
        )
        if len(self._row_cache) >= self._row_cache_size:
            self._row_cache.popitem(last=False)
        self._row_cache[road] = row
        return row

    def new_state(self) -> CoverageState:
        return CoverageState(self)


def _select_chunk(task: tuple[list[int], int]) -> tuple[tuple[int, ...], int]:
    """Worker task: CELF inside one district; returns (seeds, evaluations)."""
    chunk, share = task
    assert _worker_csr is not None and _worker_weights is not None
    objective = _SharedArrayObjective(
        _worker_csr,
        _worker_weights,
        chunk,
        _worker_min_fidelity,
        _worker_transform,
    )
    result = lazy_greedy_select(objective, share, candidates=chunk)  # type: ignore[arg-type]
    return result.seeds, result.evaluations


def _vote_chunk(
    pairs: tuple[tuple[int, float], ...]
) -> tuple[np.ndarray, int]:
    """Worker task: partial Step-1 vote vector for one district's seeds."""
    assert _worker_csr is not None
    csr = _worker_csr
    votes = np.zeros(csr.num_roads, dtype=np.float64)
    nonzeros = 0
    for road, sign in pairs:
        position = csr.index[road]
        raw = best_fidelity_row(csr, position, _worker_min_fidelity)
        row = _transform_row(raw, position, "logodds", np.flatnonzero(raw))
        nonzeros += int(np.count_nonzero(row))
        votes += sign * row
    return votes, nonzeros


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class DistrictPool:
    """A process pool bound to one objective's graph via shared arrays.

    Create once, reuse for every selection and Step-1 round on the same
    system (spawning workers and exporting the arrays is the expensive
    part). ``partitions`` reuses districts the caller already computed
    (default: ``partition_graph(objective, num_partitions)``). Close
    explicitly (or use as a
    context manager) to release the pool and unlink the shared segments.
    """

    def __init__(
        self,
        objective: SeedSelectionObjective,
        num_partitions: int = 8,
        num_workers: int = 0,
        partitions: Sequence[Sequence[int]] | None = None,
    ) -> None:
        self._objective = objective
        self._graph = objective.graph
        if partitions is None:
            partitions = partition_graph(objective, num_partitions)
        self._partitions = [list(chunk) for chunk in partitions]
        self._district_of = {
            road: district
            for district, chunk in enumerate(self._partitions)
            for road in chunk
        }
        csr = objective.fidelity_service.csr(self._graph)
        self._export = _SharedGraphExport(csr, objective.weights)
        workers = num_workers or (os.cpu_count() or 1)
        self.num_workers = max(1, min(workers, len(self._partitions)))
        self._pool = ProcessPoolExecutor(
            max_workers=self.num_workers,
            mp_context=get_context("spawn"),
            initializer=_init_worker,
            initargs=(
                self._export.specs,
                objective.min_fidelity,
                objective.transform,
            ),
        )
        self._closed = False
        recorder = get_recorder()
        recorder.gauge("seeds.parallel.workers", self.num_workers)
        recorder.gauge("seeds.parallel.districts", len(self._partitions))
        recorder.gauge("seeds.parallel.shared_bytes", self._export.nbytes)

    @property
    def partitions(self) -> list[list[int]]:
        return [list(chunk) for chunk in self._partitions]

    def _check_open(self) -> None:
        if self._closed:
            raise SelectionError("district pool is closed")

    def select(self, budget: int) -> SelectionResult:
        """District-parallel partition greedy; deterministic stitching.

        Identical output to :func:`~repro.seeds.partition.
        partition_greedy_select` with the same ``num_partitions`` —
        same seed sequence, same gains/values — because each worker
        runs the same CELF on bitwise-equal rows and districts are
        stitched in district order, not completion order.
        """
        self._check_open()
        validate_budget(self._objective, budget)
        shares = allocate_budget(self._partitions, budget)
        recorder = get_recorder()
        with recorder.span(
            "seeds.parallel.select",
            budget=budget,
            districts=len(self._partitions),
            workers=self.num_workers,
        ) as span:
            futures = [
                (self._pool.submit(_select_chunk, (chunk, share)))
                for chunk, share in zip(self._partitions, shares)
                if share > 0
            ]
            seeds: list[int] = []
            evaluations = 0
            # future order == district order == serial stitch order.
            for future in futures:
                chunk_seeds, chunk_evaluations = future.result()
                seeds.extend(chunk_seeds)
                evaluations += chunk_evaluations

            # Global rescoring in the parent, exactly as the serial path.
            state = self._objective.new_state()
            gains: list[float] = []
            values: list[float] = []
            for seed in seeds:
                gains.append(state.add(seed))
                values.append(state.value)
            span.set(evaluations=evaluations, objective=round(state.value, 3))
        return SelectionResult(
            method="partition-greedy-parallel",
            seeds=tuple(seeds),
            gains=tuple(gains),
            values=tuple(values),
            evaluations=evaluations,
        )

    def vote_accumulator(
        self, graph, seeds: list[int], signs: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """District-partial Step-1 vote accumulation.

        Drop-in for the serial ``signs @ logodds_rows`` matmul in
        :class:`~repro.trend.propagation.TrendPropagationInference`:
        each district's partial vote vector is computed by a worker and
        the partials are summed in district order, so the result is
        deterministic and within float re-association (≤ 1e-9) of the
        serial kernel. Never materialises the (S, N) stacked matrix.
        """
        self._check_open()
        if graph is not self._graph:
            raise InferenceError(
                "district pool is bound to a different correlation graph"
            )
        buckets: dict[int, list[tuple[int, float]]] = {}
        for road, sign in zip(seeds, signs):
            buckets.setdefault(self._district_of[road], []).append(
                (road, float(sign))
            )
        votes = np.zeros(self._export.specs["weights"].shape[0], dtype=np.float64)
        ordered = [
            self._pool.submit(_vote_chunk, tuple(buckets[district]))
            for district in sorted(buckets)
        ]
        nonzeros = 0
        for future in ordered:
            partial, partial_nonzeros = future.result()
            votes += partial
            nonzeros += partial_nonzeros
        get_recorder().count(
            "trend.propagation.parallel_votes", nonzeros, districts=len(buckets)
        )
        return votes, nonzeros

    def close(self) -> None:
        """Shut the pool down and unlink the shared segments."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        self._export.close()

    def __enter__(self) -> "DistrictPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parallel_partition_select(
    objective: SeedSelectionObjective,
    budget: int,
    num_partitions: int = 8,
    num_workers: int = 0,
) -> SelectionResult:
    """One-shot district-parallel partition greedy (pool per call).

    Systems running many rounds should hold a :class:`DistrictPool`
    instead and amortise the worker spawn + shared export.
    """
    with DistrictPool(objective, num_partitions, num_workers) as pool:
        return pool.select(budget)
