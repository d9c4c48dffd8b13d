"""Compiled interval plans: the vectorized Step-2 serving path, per district.

Serving one interval the per-road way re-does the same bookkeeping
every time: rank a road's influencing seeds, look up its fitted joint
regression, fetch two trend-conditional prior means, blend, clamp. For
a fixed (seed set, time bucket) none of that structure changes — only
the observed seed deviations and the Step-1 posterior do. This module
compiles the structure once, per district, so serving an interval
becomes a handful of array ops:

* :class:`_SeedStructure` — the seed-dependent half of one district,
  shared by every bucket: each member road's fitted regression row
  packed into a padded ``(roads, max_seeds_per_road)`` coefficient block
  (a CSR-in-disguise whose rows have at most ``max_seeds_per_road``
  entries), the per-road regression blend weights, and a per-seed
  reverse index of the rows each seed touches. It also carries the
  **incremental state**: the last seed-deviation vector and the
  regressed predictions it produced, so consecutive intervals that
  change only a few seed observations (a degraded round substituting a
  seed, a sentinel round) recompute only the affected rows — bit-for-bit
  identical to a cold evaluation, because affected rows are re-evaluated
  with the same row reduction rather than patched with float deltas.
* :class:`IntervalPlan` — one seed set's district shards plus one
  bucket's overlay (trend-conditional prior means, historical bucket-mean
  speeds, clamp bounds). :meth:`IntervalPlan.evaluate` turns a deviation
  vector and a posterior array into clamped speeds: a padded-row
  gather-multiply-reduce per district scattered into global row order, a
  vectorized posterior-confidence blend, one multiply by the historical
  speeds, one clip. Every per-road quantity is row-independent and the
  padded width derives from the *global* seed count, so the result is
  bitwise identical for any district cover — one district included.
* :class:`IntervalPlanner` — compiles plans for one fitted system over
  a fixed district cover (normally the system's
  :func:`~repro.seeds.partition.partition_graph` districts), reusing
  shard sets across buckets through a weak-value cache. With
  ``num_workers != 1`` district compiles run across a
  :class:`PlanCompilePool`; otherwise in-process.
* :class:`IntervalPlanCache` — the small LRU keyed by (seed set,
  bucket, params) that the pipeline owns next to its
  :class:`~repro.history.fidelity.FidelityCacheService`; attaching it
  to the service makes fidelity invalidation reach compiled plans too.

**Eviction.** A row invalidation marks stale only the district shards
whose compiled regressions used a dropped seed's influence
(``plan.shards_evicted``); the next evaluation recompiles exactly those
shards (``plan.shard_compiles{district}``, ``speed.plan.compile`` spans
carrying a ``district`` attribute) after re-checking the *fresh*
influence index for districts the dropped seeds newly reach. Soundness:
a changed fidelity row for seed ``s`` can only change road ``r``'s
regression if ``s`` influenced ``r`` before the delta (then ``s`` is in
``r``'s shard's ``active_seeds``) or influences it after (then ``r``
shows up in the refreshed influence index with ``s`` among its seeds,
which the refresh pass scans). Untouched districts' shards survive by
object identity. Only a whole-graph invalidation flushes plans.

Cache traffic is exported as ``plan.cache`` counts and evaluations as
``plan.eval`` (mode = full / incremental / cached); the estimator wraps
evaluation in a ``speed.solve_vectorized`` span (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import os
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.core.errors import InferenceError
from repro.core.types import Trend
from repro.history.store import HistoricalSpeedStore
from repro.obs import get_recorder
from repro.roadnet.network import RoadNetwork
from repro.seeds.parallel import SharedArrayExport, attach_shared_array
from repro.speed.hlm import HierarchicalLinearModel, HlmParams, JointSeedRegression

#: Influence index type: road id -> {seed -> fidelity}.
InfluenceIndex = Mapping[int, Mapping[int, float]]


class _SeedStructure:
    """The bucket-independent half of one district shard.

    ``coef`` and ``seed_idx`` are padded ``(roads, width)`` blocks: row
    ``i`` holds road ``i``'s fitted joint-regression coefficients in its
    regression's own seed order, padded with zero coefficients pointing
    at the sentinel residual slot (index ``num_seeds``, always 0), so
    the regressed prediction for every road is one gather-multiply-
    reduce over the block. ``rows_by_seed[k]`` lists the rows whose
    regression uses seed ``k`` — the reverse index the incremental path
    uses to find the rows a changed deviation can affect.
    """

    def __init__(
        self,
        seeds: tuple[int, ...],
        coef: np.ndarray,
        seed_idx: np.ndarray,
        reg_weight: np.ndarray,
        has_reg: np.ndarray,
        rows_by_seed: list[np.ndarray],
    ) -> None:
        self.seeds = seeds
        self.coef = coef
        self.seed_idx = seed_idx
        self.reg_weight = reg_weight
        self.has_reg = has_reg
        self.rows_by_seed = rows_by_seed
        self._last_resid: np.ndarray | None = None
        self._last_regressed: np.ndarray | None = None

    @property
    def num_roads(self) -> int:
        return self.coef.shape[0]

    def _evaluate_rows(self, resid: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Regressed deviation predictions for a subset of rows.

        The reduction runs over each row's padded width independently,
        so evaluating a subset is bitwise identical to slicing a full
        evaluation — the invariant the incremental path relies on.
        """
        resid_ext = np.append(resid, 0.0)
        gathered = self.coef[rows] * resid_ext[self.seed_idx[rows]]
        return 1.0 + gathered.sum(axis=1)

    def _evaluate_all(self, resid: np.ndarray) -> np.ndarray:
        resid_ext = np.append(resid, 0.0)
        return 1.0 + (self.coef * resid_ext[self.seed_idx]).sum(axis=1)

    def regressed(self, deviations: np.ndarray) -> tuple[np.ndarray, str]:
        """Per-road regressed deviation predictions for one interval.

        Returns the prediction vector and the evaluation mode:
        ``"full"`` (cold or mostly-changed), ``"incremental"`` (only the
        rows reachable from changed seeds re-evaluated) or ``"cached"``
        (deviation vector unchanged). All three produce bit-identical
        results.
        """
        if deviations.shape != (len(self.seeds),):
            raise InferenceError(
                f"deviation vector has shape {deviations.shape}, plan "
                f"expects ({len(self.seeds)},)"
            )
        resid = deviations - 1.0
        last = self._last_resid
        if last is not None and self._last_regressed is not None:
            changed = np.flatnonzero(resid != last)
            if changed.size == 0:
                return self._last_regressed, "cached"
            if changed.size < len(self.seeds):
                rows = [self.rows_by_seed[int(k)] for k in changed]
                affected = (
                    np.unique(np.concatenate(rows))
                    if rows
                    else np.empty(0, dtype=np.int64)
                )
                if affected.size <= self.num_roads // 2:
                    regressed = self._last_regressed.copy()
                    if affected.size:
                        regressed[affected] = self._evaluate_rows(resid, affected)
                    self._last_resid = resid
                    self._last_regressed = regressed
                    return regressed, "incremental"
        regressed = self._evaluate_all(resid)
        self._last_resid = resid
        self._last_regressed = regressed
        return regressed, "full"


def compile_seed_structure(
    regression: JointSeedRegression,
    params: HlmParams,
    seeds: tuple[int, ...],
    road_ids: tuple[int, ...],
    influence_by_road: InfluenceIndex,
) -> _SeedStructure:
    """Compile the padded regression block for one district's ``road_ids``.

    ``seeds`` is always the *global* seed tuple, so the padded width and
    the seed-index positions are identical however the rows are sliced
    — the property that makes every district cover evaluate bitwise
    equal. Row indices (including ``rows_by_seed``) are local to
    ``road_ids``.
    """
    n = len(road_ids)
    num_seeds = len(seeds)
    width = max(1, min(params.max_seeds_per_road, num_seeds))
    seed_pos = {seed: k for k, seed in enumerate(seeds)}
    coef = np.zeros((n, width))
    # Padding entries point at the sentinel residual slot, which the
    # evaluator pins to 0, so padded columns never contribute.
    seed_idx = np.full((n, width), num_seeds, dtype=np.int64)
    reg_weight = np.zeros(n)
    has_reg = np.zeros(n, dtype=bool)
    rows_by_seed: list[list[int]] = [[] for _ in seeds]
    seed_set = set(seeds)
    empty: dict[int, float] = {}
    for i, road in enumerate(road_ids):
        if road in seed_set:
            # Seed estimates are observation pass-throughs, so a seed
            # road never gets a regression.
            continue
        fitted = regression.for_road(road, influence_by_road.get(road, empty))
        if fitted is None:
            continue
        has_reg[i] = True
        reg_weight[i] = fitted.weight
        for j, seed in enumerate(fitted.seeds):
            coef[i, j] = fitted.coefficients[j]
            position = seed_pos[seed]
            seed_idx[i, j] = position
            rows_by_seed[position].append(i)
    return _SeedStructure(
        seeds=seeds,
        coef=coef,
        seed_idx=seed_idx,
        reg_weight=reg_weight,
        has_reg=has_reg,
        rows_by_seed=[np.array(rows, dtype=np.int64) for rows in rows_by_seed],
    )


class PlanShard:
    """One district's slice of a plan.

    ``positions`` are the members' row positions in the planner's global
    road order — the scatter targets of the stitched evaluation.
    ``active_seeds`` is the set of plan seeds whose influence reached
    any member at compile time (the seed's *old support* restricted to
    this district), the key eviction tests dropped rows against.
    """

    __slots__ = ("district", "members", "positions", "structure", "active_seeds")

    def __init__(
        self, district: int, members: tuple[int, ...], positions: np.ndarray
    ) -> None:
        self.district = district
        self.members = members
        self.positions = positions
        self.structure: _SeedStructure | None = None
        self.active_seeds: frozenset[int] = frozenset()


class _ShardSet:
    """The per-seed-set compile product: shards + staleness bookkeeping.

    Shared (via the planner's weak-value cache) by every bucket's plan
    for one seed set, so marking shards stale once reaches all buckets
    and a recompile refreshes them all. ``influence`` re-reads the
    *current* influence index at refresh time.
    """

    def __init__(
        self,
        seeds: tuple[int, ...],
        shards: list[PlanShard],
        num_roads: int,
        influence: Callable[[], InfluenceIndex],
    ) -> None:
        self.seeds = seeds
        self._seed_set = frozenset(seeds)
        self.shards = shards
        self.reg_weight = np.zeros(num_roads)
        self.has_reg = np.zeros(num_roads, dtype=bool)
        for shard in shards:
            self.restitch(shard)
        self.stale: set[int] = set()
        self.pending_dropped: set[int] = set()
        self.influence = influence

    def restitch(self, shard: PlanShard) -> None:
        """Scatter one shard's blend weights into the global arrays."""
        assert shard.structure is not None
        self.reg_weight[shard.positions] = shard.structure.reg_weight
        self.has_reg[shard.positions] = shard.structure.has_reg

    @property
    def needs_refresh(self) -> bool:
        return bool(self.stale or self.pending_dropped)

    def mark_stale(self, roads: set[int]) -> int:
        """Mark shards whose regressions touched dropped seed rows.

        Returns the number of *newly* stale shards (idempotent: both the
        plan cache and the estimator's row listener call this for the
        same invalidation). Dropped seeds are also queued so the next
        refresh can mark districts the seeds newly reach — that side
        needs the fresh influence index, which only exists lazily.
        """
        dropped = self._seed_set.intersection(roads)
        if not dropped:
            return 0
        newly = 0
        for district, shard in enumerate(self.shards):
            if district in self.stale:
                continue
            if not shard.active_seeds.isdisjoint(dropped):
                self.stale.add(district)
                newly += 1
        self.pending_dropped |= dropped
        if newly:
            get_recorder().count("plan.shards_evicted", newly)
        return newly


class IntervalPlan:
    """A compiled (seed set, bucket) serving plan. Build via the planner.

    Immutable from the caller's point of view; the mutable state is the
    shards' incremental memos and staleness marks, which never change
    results — only how much is re-evaluated or recompiled.
    """

    def __init__(
        self,
        planner: "IntervalPlanner",
        bucket: int,
        shard_set: _ShardSet,
        prior_rise: np.ndarray,
        prior_fall: np.ndarray,
        historical: np.ndarray,
    ) -> None:
        self._planner = planner
        self.road_ids = planner.road_ids
        self.index = planner.index
        self.bucket = bucket
        self._shard_set = shard_set
        self._prior_rise = prior_rise
        self._prior_fall = prior_fall
        self._historical = historical

    @property
    def seeds(self) -> tuple[int, ...]:
        return self._shard_set.seeds

    @property
    def num_roads(self) -> int:
        return len(self.road_ids)

    @property
    def num_seeds(self) -> int:
        return len(self._shard_set.seeds)

    @property
    def shards(self) -> list[PlanShard]:
        return self._shard_set.shards

    def mark_rows_stale(self, roads: set[int]) -> int:
        """Mark the shards a row invalidation reaches; returns newly stale."""
        return self._shard_set.mark_stale(roads)

    def evaluate(self, deviations: np.ndarray, p_rise: np.ndarray) -> np.ndarray:
        """Clamped speed estimates for every road in plan order.

        ``deviations[k]`` is the observed deviation ratio of plan seed
        ``k``; ``p_rise[i]`` is the Step-1 posterior P(RISE) of plan
        road ``i``. Seed roads get a regular non-seed evaluation here —
        the estimator overwrites them with their observations. Stale
        shards are recompiled first.
        """
        if p_rise.shape != (self.num_roads,):
            raise InferenceError(
                f"posterior vector has shape {p_rise.shape}, plan expects "
                f"({self.num_roads},)"
            )
        shard_set = self._shard_set
        if shard_set.needs_refresh:
            self._planner.refresh_shards(shard_set)
        regressed = np.empty(self.num_roads)
        modes: set[str] = set()
        for shard in shard_set.shards:
            assert shard.structure is not None
            part, mode = shard.structure.regressed(deviations)
            regressed[shard.positions] = part
            modes.add(mode)
        params = self._planner.params
        if params.use_trend:
            # Confidence scales the prior's pull, the MAP trend picks
            # the prior branch.
            confidence = 2.0 * np.maximum(p_rise, 1.0 - p_rise) - 1.0
            prior_weight = params.prior_weight * (0.25 + 0.75 * confidence)
            prior_mean = np.where(p_rise >= 0.5, self._prior_rise, self._prior_fall)
        else:
            prior_weight = np.full(self.num_roads, params.prior_weight)
            prior_mean = np.ones(self.num_roads)
        weight = shard_set.reg_weight
        denominator = prior_weight + weight
        blend = prior_mean.copy()
        np.divide(
            prior_weight * prior_mean + weight * regressed,
            denominator,
            out=blend,
            where=denominator > 0.0,
        )
        predicted = np.where(shard_set.has_reg, blend, prior_mean)
        speeds = np.minimum(
            self._planner.upper,
            np.maximum(params.min_speed_kmh, predicted * self._historical),
        )
        # One plan.eval per evaluation; the mode is the most expensive
        # any shard paid this interval.
        mode = (
            "full"
            if "full" in modes
            else ("incremental" if "incremental" in modes else "cached")
        )
        get_recorder().count("plan.eval", mode=mode)
        return speeds


# ----------------------------------------------------------------------
# Plan-compile pool: worker side
# ----------------------------------------------------------------------
_plan_regression: JointSeedRegression | None = None


def _init_plan_worker(specs: dict, params: HlmParams) -> None:
    """Pool initializer: rebuild the regression over shared arrays."""
    global _plan_regression
    centred = attach_shared_array(specs["centred"])
    road_ids = tuple(int(r) for r in attach_shared_array(specs["road_ids"]))
    _plan_regression = JointSeedRegression.from_arrays(centred, road_ids, params)


def _compile_shard_task(
    task: tuple[tuple[int, ...], tuple[int, ...], dict[int, dict[int, float]]]
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray], float
]:
    """Worker task: compile one district's structure rows."""
    seeds, members, influence = task
    assert _plan_regression is not None
    start = time.perf_counter()
    structure = compile_seed_structure(
        _plan_regression, _plan_regression.params, seeds, members, influence
    )
    compile_s = time.perf_counter() - start
    return (
        structure.coef,
        structure.seed_idx,
        structure.reg_weight,
        structure.has_reg,
        structure.rows_by_seed,
        compile_s,
    )


# ----------------------------------------------------------------------
# Plan-compile pool: parent side
# ----------------------------------------------------------------------
class PlanCompilePool:
    """A process pool for district structure compiles on one history.

    Exports the joint regression's centred deviation matrix and the
    store's column order once through
    :class:`~repro.seeds.parallel.SharedArrayExport`; workers fit
    per-road ridge regressions against the shared (bit-identical)
    matrix, so returned coefficient blocks are bitwise equal to an
    in-process compile. Close explicitly (or via the owning planner) to
    release workers and shared segments.
    """

    def __init__(
        self,
        hlm: HierarchicalLinearModel,
        store: HistoricalSpeedStore,
        num_workers: int = 0,
    ) -> None:
        self._export = SharedArrayExport(
            {
                "centred": hlm.regression.centred,
                "road_ids": np.asarray(store.road_ids, dtype=np.int64),
            }
        )
        self.num_workers = max(1, num_workers or (os.cpu_count() or 1))
        self._pool = ProcessPoolExecutor(
            max_workers=self.num_workers,
            mp_context=get_context("spawn"),
            initializer=_init_plan_worker,
            initargs=(self._export.specs, hlm.params),
        )
        self._closed = False
        recorder = get_recorder()
        recorder.gauge("plan.parallel.workers", self.num_workers)
        recorder.gauge("plan.parallel.shared_bytes", self._export.nbytes)

    def compile_shards(
        self,
        seeds: tuple[int, ...],
        tasks: Sequence[tuple[tuple[int, ...], InfluenceIndex]],
    ) -> list[tuple[_SeedStructure, float]]:
        """One (structure, worker compile seconds) per task, in order."""
        if self._closed:
            raise InferenceError("plan compile pool is closed")
        futures = [
            self._pool.submit(_compile_shard_task, (seeds, members, influence))
            for members, influence in tasks
        ]
        structures: list[tuple[_SeedStructure, float]] = []
        # future order == district order == stitch order, never
        # completion order.
        for future in futures:
            (
                coef, seed_idx, reg_weight, has_reg, rows_by_seed, compile_s,
            ) = future.result()
            structures.append(
                (
                    _SeedStructure(
                        seeds=seeds,
                        coef=coef,
                        seed_idx=seed_idx,
                        reg_weight=reg_weight,
                        has_reg=has_reg,
                        rows_by_seed=rows_by_seed,
                    ),
                    compile_s,
                )
            )
        return structures

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        self._export.close()

    def __enter__(self) -> "PlanCompilePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class IntervalPlanner:
    """Compiles :class:`IntervalPlan` objects for one fitted system.

    ``partitions`` is any disjoint cover of ``road_ids`` (normally the
    system's :func:`~repro.seeds.partition.partition_graph` districts;
    ``None`` means one district holding every road). Shard sets are
    shared across buckets through a weak-value cache: as long as any
    plan for a seed set is alive, its shards (the expensive compile
    product) are reused. ``num_workers`` other than 1 compiles districts
    across a lazily created :class:`PlanCompilePool` (0 = one worker per
    CPU); :meth:`close` releases it.
    """

    def __init__(
        self,
        store: HistoricalSpeedStore,
        network: RoadNetwork,
        hlm: HierarchicalLinearModel,
        road_ids: Sequence[int],
        partitions: Sequence[Sequence[int]] | None = None,
        num_workers: int = 1,
    ) -> None:
        self._store = store
        self._hlm = hlm
        self.road_ids = tuple(road_ids)
        self.index = {road: i for i, road in enumerate(self.road_ids)}
        self._columns = np.array(
            [store.road_column(road) for road in self.road_ids], dtype=np.int64
        )
        self.upper = np.array(
            [network.segment(road).free_flow_kmh for road in self.road_ids]
        ) * hlm.params.max_over_free_flow
        self.upper.setflags(write=False)
        if partitions is None:
            partitions = [self.road_ids]
        self._partitions = [tuple(chunk) for chunk in partitions]
        if not self._partitions:
            raise InferenceError("planner needs at least one district")
        self._district_of: dict[int, int] = {}
        for district, chunk in enumerate(self._partitions):
            for road in chunk:
                if road not in self.index:
                    raise InferenceError(
                        f"district road {road} not in the planner's road set"
                    )
                if road in self._district_of:
                    raise InferenceError(
                        f"road {road} appears in more than one district"
                    )
                self._district_of[road] = district
        if len(self._district_of) != len(self.road_ids):
            raise InferenceError(
                f"districts cover {len(self._district_of)} of "
                f"{len(self.road_ids)} roads"
            )
        self._shard_positions = [
            np.fromiter(
                (self.index[road] for road in chunk),
                dtype=np.int64,
                count=len(chunk),
            )
            for chunk in self._partitions
        ]
        self._num_workers = num_workers
        self._pool: PlanCompilePool | None = None
        self._shard_sets: "weakref.WeakValueDictionary[tuple[int, ...], _ShardSet]" = (
            weakref.WeakValueDictionary()
        )

    @property
    def params(self) -> HlmParams:
        return self._hlm.params

    @property
    def num_districts(self) -> int:
        return len(self._partitions)

    @property
    def partitions(self) -> list[tuple[int, ...]]:
        return list(self._partitions)

    def close(self) -> None:
        """Release the plan-compile pool, if one was started."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def evict_structures(self, roads: set[int] | None = None) -> None:
        """Forget every shard set (``None``) or mark the affected shards.

        Shard sets live in a weak-value cache, so normally they die with
        the plans referencing them — but a caller holding a plan outside
        the :class:`IntervalPlanCache` keeps its shards alive past a row
        invalidation, and a later :meth:`compile` for the same seed set
        must not resurrect stale coefficients. Row-scoped evictions
        therefore mark shards stale (idempotently with the plan cache's
        own marking) rather than forgetting the seed set.
        """
        if roads is None:
            self._shard_sets.clear()
            return
        for shard_set in list(self._shard_sets.values()):
            shard_set.mark_stale(roads)

    def compile(
        self,
        seeds: tuple[int, ...],
        bucket: int,
        influence: Callable[[], InfluenceIndex],
    ) -> IntervalPlan:
        """Compile the plan for ``(seeds, bucket)``.

        ``influence`` returns the *current* road id -> {seed ->
        fidelity} index for ``seeds`` — the floor-filtered index
        :meth:`~repro.speed.hlm.JointSeedRegression.for_road` fits from.
        The first compile of a seed set reads it now and keeps it to
        re-read whenever stale shards are refreshed, so after a graph
        delta it must serve the refreshed rows.
        """
        with get_recorder().span(
            "speed.plan.compile",
            roads=len(self.road_ids),
            seeds=len(seeds),
            bucket=bucket,
            districts=len(self._partitions),
        ):
            shard_set = self._shard_sets.get(seeds)
            if shard_set is None:
                shards = [
                    PlanShard(district, chunk, self._shard_positions[district])
                    for district, chunk in enumerate(self._partitions)
                ]
                self._compile_districts(
                    seeds, shards, range(len(shards)), influence()
                )
                shard_set = _ShardSet(seeds, shards, len(self.road_ids), influence)
                self._shard_sets[seeds] = shard_set
            prior_rise, prior_fall, historical = self._bucket_overlays(bucket)
            return IntervalPlan(
                planner=self,
                bucket=bucket,
                shard_set=shard_set,
                prior_rise=prior_rise,
                prior_fall=prior_fall,
                historical=historical,
            )

    def refresh_shards(self, shard_set: _ShardSet) -> None:
        """Recompile exactly the stale shards of one seed set.

        Two-sided staleness: shards already marked (a dropped seed's
        *old* support touched them) plus districts the dropped seeds
        newly reach in the refreshed influence index (*new* support).
        Untouched districts keep their structures — and their
        incremental memos — by object identity.
        """
        influence = shard_set.influence()
        pending = shard_set.pending_dropped
        if pending:
            for road, seed_influence in influence.items():
                if pending.isdisjoint(seed_influence):
                    continue
                district = self._district_of.get(road)
                if district is not None:
                    shard_set.stale.add(district)
        if shard_set.stale:
            stale = sorted(shard_set.stale)
            self._compile_districts(
                shard_set.seeds, shard_set.shards, stale, influence
            )
            for district in stale:
                shard_set.restitch(shard_set.shards[district])
        shard_set.stale.clear()
        shard_set.pending_dropped.clear()

    def _bucket_overlays(
        self, bucket: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The bucket-dependent plan overlays (priors + historical means)."""
        params = self._hlm.params
        hierarchy = self._hlm.hierarchy
        if params.use_trend and params.hierarchical:
            prior_rise = hierarchy.conditional_mean_row(bucket, Trend.RISE)[
                self._columns
            ]
            prior_fall = hierarchy.conditional_mean_row(bucket, Trend.FALL)[
                self._columns
            ]
        else:
            prior_rise = np.full(
                len(self.road_ids), hierarchy.global_mean(Trend.RISE)
            )
            prior_fall = np.full(
                len(self.road_ids), hierarchy.global_mean(Trend.FALL)
            )
        historical = self._store.bucket_mean_row(bucket)[self._columns]
        for array in (prior_rise, prior_fall, historical):
            array.setflags(write=False)
        return prior_rise, prior_fall, historical

    def _compile_districts(
        self,
        seeds: tuple[int, ...],
        shards: list[PlanShard],
        districts,
        influence_by_road: InfluenceIndex,
    ) -> None:
        """Compile (or recompile) the given districts' structures."""
        recorder = get_recorder()
        tasks = []
        for district in districts:
            shard = shards[district]
            # References, not copies: the pool path pickles them anyway.
            sub = {
                road: influence_by_road[road]
                for road in shard.members
                if road in influence_by_road
            }
            tasks.append((district, shard, sub))
        structures = None
        if self._num_workers != 1:
            if self._pool is None:
                self._pool = PlanCompilePool(
                    self._hlm, self._store, num_workers=self._num_workers
                )
            structures = self._pool.compile_shards(
                seeds, [(shard.members, sub) for _, shard, sub in tasks]
            )
        for position, (district, shard, sub) in enumerate(tasks):
            # Per-district compile span (district attr). On the pool
            # path the batch already ran in the workers, so the span's
            # own duration only covers unpacking; the worker-measured
            # compile time rides along as the ``compile_s`` attr and
            # is the authoritative per-district number there.
            with recorder.span(
                "speed.plan.compile",
                roads=len(shard.members),
                seeds=len(seeds),
                district=district,
            ) as span:
                if structures is not None:
                    structure, worker_s = structures[position]
                    span.set(compile_s=worker_s)
                else:
                    structure = compile_seed_structure(
                        self._hlm.regression,
                        self._hlm.params,
                        seeds,
                        shard.members,
                        sub,
                    )
            shard.structure = structure
            shard.active_seeds = frozenset(
                seed for seed_influence in sub.values() for seed in seed_influence
            )
            recorder.count("plan.shard_compiles", district=str(district))


@dataclass(frozen=True)
class PlanCacheStats:
    """Cumulative accounting of an :class:`IntervalPlanCache`.

    ``evictions`` counts LRU capacity evictions; ``flushes`` whole-cache
    invalidations (each counts every plan it dropped); ``shard_evictions``
    district shards marked stale inside plans that stayed cached. A
    healthy streaming deployment shows ``shard_evictions`` growing with
    graph churn and ``flushes`` stuck at 0.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    flushes: int = 0
    shard_evictions: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses


class IntervalPlanCache:
    """Small LRU of compiled plans keyed by (seed set, bucket, params).

    Lives next to the pipeline's
    :class:`~repro.history.fidelity.FidelityCacheService`; call
    :meth:`attach` to register this cache as an invalidation listener so
    fidelity invalidations reach the plans compiled from those rows.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise InferenceError(f"plan cache maxsize must be >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._plans: "OrderedDict[Hashable, IntervalPlan]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._flushes = 0
        self._shard_evictions = 0

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> PlanCacheStats:
        return PlanCacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._plans),
            flushes=self._flushes,
            shard_evictions=self._shard_evictions,
        )

    def get_or_build(
        self, key: Hashable, builder: Callable[[], IntervalPlan]
    ) -> IntervalPlan:
        """The cached plan for ``key``, compiling (and caching) on miss."""
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self._hits += 1
            get_recorder().count("plan.cache", hit="true")
            return plan
        self._misses += 1
        get_recorder().count("plan.cache", hit="false")
        plan = builder()
        self._plans[key] = plan
        if len(self._plans) > self._maxsize:
            self._plans.popitem(last=False)
            self._evictions += 1
            get_recorder().count("plan.cache_evictions")
        return plan

    def invalidate(self, graph: object | None = None) -> None:
        """Drop every cached plan.

        Accepts (and ignores) the graph argument so the method doubles
        as a :class:`~repro.history.fidelity.FidelityCacheService`
        invalidation listener — plans derive from fidelity rows, so any
        whole-graph invalidation must drop them all.
        """
        del graph
        if self._plans:
            self._flushes += 1
            get_recorder().count("plan.cache_flushes", len(self._plans))
        self._plans.clear()

    def invalidate_rows(self, graph: object | None, roads) -> None:
        """Mark stale the district shards that used invalidated rows.

        The row-level counterpart of :meth:`invalidate`, with the
        :meth:`~repro.history.fidelity.FidelityCacheService.
        add_row_invalidation_listener` signature. Plans stay cached;
        only the shards whose regressions touched a dropped seed's rows
        recompile, lazily at the next evaluation. ``roads`` of ``None``
        means a whole-graph invalidation — everything goes.
        """
        del graph
        if roads is None:
            self.invalidate()
            return
        road_set = set(roads)
        for plan in self._plans.values():
            self._shard_evictions += plan.mark_rows_stale(road_set)

    def attach(self, fidelity_service) -> "IntervalPlanCache":
        """Invalidate this cache whenever ``fidelity_service`` is.

        Registers both listener granularities: whole-graph
        invalidations flush everything, and row invalidations (the
        streaming path — see :meth:`~repro.history.fidelity.
        FidelityCacheService.apply_graph_delta`) mark only the shards
        whose seeds lost their rows.
        """
        fidelity_service.add_invalidation_listener(self.invalidate)
        fidelity_service.add_row_invalidation_listener(self.invalidate_rows)
        return self
