"""The benchmark's workloads: metro-publish and stream-days.

Every workload builds its inputs from the seed (``sized_metropolis``,
``TrafficSimulator.simulate``, ``WorkerPool.sample``), sets the system up
``Sizes.setups`` times and keeps the last set-up for the measured loop.
Input generation and output checks stay outside every timed region.

Rounds run untraced through ``SnapshotPublisher.publish_round``. In a
traced run the second half of the measured loop drives the same round
as the public calls ``publish_round`` makes, each inside a benchmark
span, so per-layer self times and the publisher's own share (``glue``)
come from one process.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import hostspeed, loadgen
from perfbench.spans import layer_totals
from perfbench.stats import median, tail
from repro.core.config import PipelineConfig
from repro.core.field import SpeedField
from repro.core.pipeline import SpeedEstimationSystem
from repro.crowd.platform import CrowdsourcingPlatform, SpeedQueryTask
from repro.crowd.workers import WorkerPool
from repro.history.correlation import mine_correlation_graph
from repro.history.online import RollingHistory
from repro.history.store import HistoricalSpeedStore
from repro.history.timebuckets import TimeGrid
from repro.roadnet.generators import sized_metropolis
from repro.serving import EstimateStore, SnapshotPublisher
from repro.serving.snapshot import (
    EstimateSnapshot,
    SnapshotRowCache,
    recover_latest,
    save_snapshot,
    snapshot_path,
)
from repro.speed.uncertainty import UncertaintyModel
from repro.traffic.simulator import TrafficSimulator

#: Layer spans inside one round, in the order publish_round calls them.
ROUND_LAYERS = (
    "crowd.collect",
    "speed.degradation",
    "speed.estimate",
    "speed.bands",
    "snapshot.build",
    "snapshot.persist",
    "store.publish",
)


@dataclass(frozen=True)
class Sizes:
    """Everything that sizes a run; ``BENCH`` is what the command runs."""

    metro_roads: int = 3_000  # sized_metropolis target: 3,210 roads
    stream_roads: int = 1_000  # 1,062 roads
    history_days: int = 5
    window_days: int = 4
    stream_days: int = 16  # days generated; the loop uses what time allows
    metro_budget_share: float = 0.01  # K = 1% of the roads
    stream_budget_share: float = 0.05  # K = 5%, as the streaming soak uses
    pool_size: int = 200
    setups: int = 4
    stride: int = 2  # stream-days publishes every 2nd interval: 48 a day
    min_days: int = 3  # odd: the round median falls inside one day, not between two
    quality_rounds: int = 96  # metro-publish rounds scored: each interval of the test day once
    reads_per_round: int = 10  # closed-loop reads after each measured round


BENCH = Sizes()


@dataclass
class Result:
    """One run's outcome: metrics, counts, failed checks, summary lines."""

    e2e: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def timing(self, name: str, scaled, measured, unit: str, tail_metric: bool = True) -> None:
        """Median as ``<name>_p50_<unit>`` and tail as ``<name>_tail_<unit>``.

        The metrics are the ``scaled`` times (at the reference host
        speed); the summary lines also give the ``measured`` ones. Without
        ``tail_metric`` the tail is a summary line only.
        """
        t = tail(scaled)
        self.e2e[f"{name}_p50_{unit}"] = (median(scaled), unit)
        if tail_metric:
            self.e2e[f"{name}_tail_{unit}"] = (t.value, unit)
        self.notes.append(
            f"{name}_tail_{unit} = {t.value:.6g} {unit} is p{t.percentile:.1f} of {t.count} "
            f"samples; as measured: p50 {median(measured):.6g} {unit}, "
            f"tail {tail(measured).value:.6g} {unit}"
        )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    network: object
    grid: TimeGrid
    days: list[SpeedField]  # history (or rolling window) days, then test days
    history_days: int
    pool: WorkerPool
    budget: int

    def platform(self) -> CrowdsourcingPlatform:
        return CrowdsourcingPlatform(self.pool)


def _split_days(field_: SpeedField, grid: TimeGrid) -> list[SpeedField]:
    per_day = grid.intervals_per_day
    first = field_.intervals.start
    return [
        SpeedField(
            field_.matrix[d * per_day:(d + 1) * per_day],
            field_.road_ids,
            first + d * per_day,
        )
        for d in range(len(field_.intervals) // per_day)
    ]


def make_inputs(roads: int, history_days: int, test_days: int, budget_share: float,
                seed: int, sizes: Sizes) -> Inputs:
    network = sized_metropolis(roads)
    grid = TimeGrid()
    simulator = TrafficSimulator(network, grid)
    history, _ = simulator.simulate(0, history_days, seed=seed)
    test, _ = simulator.simulate(history_days, test_days, seed=seed + 1_000_003)
    return Inputs(
        network=network,
        grid=grid,
        days=_split_days(history, grid) + _split_days(test, grid),
        history_days=history_days,
        pool=WorkerPool.sample(sizes.pool_size, seed=seed),
        budget=max(1, round(budget_share * network.num_segments)),
    )


# ----------------------------------------------------------------------
# Set-up: from generated inputs to ready to serve
# ----------------------------------------------------------------------
CONFIG = PipelineConfig(selection_method="partition")


@dataclass
class Serving:
    """A set-up system with its store, publisher and round bookkeeping."""

    system: SpeedEstimationSystem
    store: EstimateStore
    uncertainty: UncertaintyModel
    publisher: SnapshotPublisher
    snapdir: str
    platform: CrowdsourcingPlatform
    rolling: RollingHistory | None = None
    rounds: list[dict] = field(default_factory=list)
    traced_versions: int | None = None
    setup_evaluations: int = 0
    quality_rounds: int = 0
    plans_before_loop: tuple[int, int] = (0, 0)  # plan-cache (hits, misses)
    row_cache: SnapshotRowCache = field(default_factory=SnapshotRowCache)

    def mark_loop_start(self) -> None:
        plans = self.system.plan_cache.stats()
        self.plans_before_loop = (plans.hits, plans.misses)


def _serving(system, inputs, snapdir, tracer, rolling=None) -> Serving:
    with tracer.span("serving.construct"):
        store = EstimateStore(history=system.store, network=inputs.network)
        uncertainty = UncertaintyModel(system.estimator, system.store)
        publisher = SnapshotPublisher(system, store, uncertainty, snapshot_dir=snapdir)
    return Serving(
        system, store, uncertainty, publisher, snapdir, inputs.platform(), rolling,
        setup_evaluations=system.selection.evaluations,
    )


def setup_metro(inputs: Inputs, snapdir: str, tracer) -> Serving:
    history = inputs.days[: inputs.history_days]
    if not tracer.enabled:
        system = SpeedEstimationSystem.fit(inputs.network, inputs.grid, history, CONFIG)
    else:
        # fit() is exactly these three public calls.
        with tracer.span("history.store_build"):
            store = HistoricalSpeedStore.from_fields(inputs.grid, history)
        with tracer.span("history.mine"):
            graph = mine_correlation_graph(
                inputs.network,
                store,
                max_hops=CONFIG.correlation_max_hops,
                min_agreement=CONFIG.correlation_min_agreement,
                min_valid_fraction=CONFIG.correlation_min_valid_fraction,
            )
        with tracer.span("pipeline.construct"):
            system = SpeedEstimationSystem.from_parts(inputs.network, store, graph, CONFIG)
    with tracer.span("seeds.select"):
        system.select_seeds(inputs.budget)
    return _serving(system, inputs, snapdir, tracer)


def setup_stream(inputs: Inputs, snapdir: str, tracer) -> Serving:
    rolling = RollingHistory(
        inputs.network, inputs.grid, window_days=inputs.history_days, remine_every_days=1
    )
    for day in inputs.days[: inputs.history_days]:
        with tracer.span("history.ingest"):
            rolling.ingest_day(day)
    with tracer.span("pipeline.construct"):
        system = SpeedEstimationSystem.from_parts(
            inputs.network, rolling.store, rolling.graph, CONFIG
        )
    # The first re-selection is cold: a full CELF scan, i.e. the selection.
    with tracer.span("seeds.select"):
        system.reselect_seeds(inputs.budget)
    return _serving(system, inputs, snapdir, tracer, rolling)


def set_up(setup, inputs: Inputs, first: tuple[int, SpeedField], workdir: str,
           sizes: Sizes, tracer, result: Result, quality_rounds: int) -> Serving:
    """Set up ``sizes.setups`` times, each through its first round.

    ``setup_s`` runs from generated inputs to the first snapshot served,
    so it includes the cold plan compile of the first round: work moved
    between set-up and that round cannot hide. Both parts are scaled to
    the reference host speed (see ``hostspeed``). The first round alone is
    printed as ``first_round_s``. Keeps the last set-up for the loop,
    whose first ``quality_rounds`` rounds, this one included, are scored.
    """
    setups, measured, firsts = [], [], []
    serving = None
    for k in range(sizes.setups):
        if serving is not None:
            serving.system.close()
            serving = None
        snapdir = os.path.join(workdir, f"snapshots-{k}")
        # Collect first, so no set-up pays for the garbage of the last.
        gc.collect()
        with tracer.span("setup"), hostspeed.Sampled() as ready:
            serving = setup(inputs, snapdir, tracer)
        serving.quality_rounds = quality_rounds
        # publish() times the round alone, leaving out its output checks.
        firsts.append(publish(serving, *first, tracer, False))
        setups.append(ready.scaled + serving.rounds[-1]["scaled"])
        measured.append(ready.seconds + firsts[-1])
    result.e2e["setup_s"] = (median(setups), "s")
    result.notes.append(
        f"setup_s is the median of {len(setups)} set-ups, first round included; "
        f"as measured: {median(measured):.6g} s"
    )
    result.notes.append(f"first_round_s = {median(firsts):.6g} s (median of {len(firsts)})")
    return serving


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def publish(serving: Serving, interval: int, truth: SpeedField, tracer, traced: bool) -> float:
    """One round; returns its wall time.

    The record also keeps the time scaled to the reference host speed,
    from calibration loops timed just before and after the round. After
    the timed part, the served snapshot is verified (and, for the first
    ``quality_rounds`` rounds, scored against the truth), so no snapshot
    has to be kept.
    """
    crowd_seed = len(serving.rounds)
    before = hostspeed.loop_seconds(5)
    start = time.perf_counter()
    if traced:
        ok, answer_ratio = _traced_round(serving, interval, truth, crowd_seed, tracer)
    else:
        report = serving.publisher.publish_round(
            interval, truth, serving.platform, crowd_seed=crowd_seed
        )
        ok, answer_ratio = report.published, None
    seconds = time.perf_counter() - start
    after = hostspeed.loop_seconds(5)
    latest = serving.store.latest() if ok else None
    record = {
        "seconds": seconds,
        "scaled": hostspeed.scale(seconds, before, after),
        "published": ok,
        "traced": traced,
        "version": latest.version if ok else None,
        "checksum": latest.checksum if ok else None,
        "answer_ratio": answer_ratio,
    }
    if ok:
        with tracer.span("snapshot.verify"):
            record["verified"] = latest.verify()
        if len(serving.rounds) < serving.quality_rounds:
            record["quality"] = _score(latest, interval, truth)
    serving.rounds.append(record)
    return seconds


def _score(snapshot, interval: int, truth: SpeedField) -> tuple[float, int, int]:
    """(sum of absolute errors, roads inside their band, roads)."""
    row = truth.matrix[interval - truth.intervals.start]
    roads = list(snapshot.estimates)
    actual = row[[truth.road_column(r) for r in roads]]
    speed = np.array([snapshot.estimates[r].speed_kmh for r in roads])
    lower = np.array([snapshot.bands[r].lower_kmh for r in roads])
    upper = np.array([snapshot.bands[r].upper_kmh for r in roads])
    inside = int(((actual >= lower) & (actual <= upper)).sum())
    return float(np.abs(speed - actual).sum()), inside, len(roads)


def _traced_round(serving: Serving, interval, truth, crowd_seed, tracer):
    system = serving.system
    if serving.traced_versions is None:
        serving.traced_versions = serving.publisher.next_version
    version = serving.traced_versions
    serving.traced_versions += 1
    with tracer.span("round"):
        with tracer.span("crowd.collect"):
            seeds = system.seeds
            tasks = [SpeedQueryTask(road, interval, truth.speed(road, interval)) for road in seeds]
            crowd_round = serving.platform.collect(tasks, seed=crowd_seed)
        observed = crowd_round.speeds()
        with tracer.span("speed.degradation"):
            filled, substituted = system.degradation.fill_missing(interval, observed, seeds)
        with tracer.span("speed.estimate"):
            estimates = system.estimate(interval, filled)
        for road in substituted:
            estimates[road] = estimates[road].replace(degraded=True)
        with tracer.span("speed.bands"):
            bands = serving.uncertainty.bands_for(estimates, filled)
        with tracer.span("speed.degradation"):
            system.degradation.observe(interval, observed)
        with tracer.span("snapshot.build"):
            snapshot = EstimateSnapshot.build(
                version=version,
                interval=interval,
                estimates=estimates,
                bands=bands,
                substituted=substituted,
                degraded=crowd_round.report.is_degraded,
                row_cache=serving.row_cache,
            )
        with tracer.span("snapshot.persist"):
            save_snapshot(snapshot, serving.snapdir)
        with tracer.span("store.publish"):
            ok = serving.store.publish(snapshot)
    return ok, crowd_round.report.success_rate


# ----------------------------------------------------------------------
# Checks and quality, after the measured loop
# ----------------------------------------------------------------------
def check_outputs(serving: Serving, result: Result, quality: bool) -> None:
    """Every round published and verified, recovery finds the newest."""
    published = [r for r in serving.rounds if r["published"]]
    unpublished = len(serving.rounds) - len(published)
    result.attempted += len(serving.rounds)
    result.failed += unpublished
    result.check(unpublished == 0, f"{unpublished} rounds were not published")
    bad = [r["version"] for r in published if not r["verified"]]
    result.check(not bad, f"published snapshots {bad[:5]} do not verify")
    recovered = recover_latest(serving.snapdir).snapshot
    newest = published[-1] if published else None
    result.check(
        recovered is not None
        and newest is not None
        and recovered.version == newest["version"]
        and recovered.checksum == newest["checksum"],
        "recover_latest did not reload the newest snapshot",
    )
    if quality:
        scores = [r["quality"] for r in published if "quality" in r]
        errors, inside, count = (sum(col) for col in zip(*scores)) if scores else (0, 0, 0)
        result.check(count > 0, "no rounds to measure quality on")
        result.e2e["mae_kmh"] = (errors / max(count, 1), "km/h")
        result.e2e["band_coverage"] = (inside / max(count, 1), "ratio")


def check_reads(reads, result: Result) -> None:
    """Shed or unavailable reads fail; every read must be fresh or stale."""
    result.attempted += len(reads)
    result.failed += sum(r.failed for r in reads)
    unanswered = sum(not r.answered for r in reads)
    result.check(unanswered == 0, f"{unanswered} healthy reads were not fresh or stale")
    result.check(len(reads) > 0, "no reads were sent")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Per-layer numbers from the traced run
# ----------------------------------------------------------------------
def layer_metrics(serving: Serving, tracer, reads, days, result: Result) -> None:
    """Per-layer medians; a layer the workload never calls reports 0."""
    spans = tracer.with_self_time()
    m = result.layers

    def med(name: str, root: str) -> float:
        sample = [t.get(name, 0.0) for t in layer_totals(spans, root)]
        return median(sample) if sample else 0.0

    m["history.store_build_s"] = (med("history.store_build", "setup"), "s")
    m["history.mine_s"] = (med("history.mine", "setup"), "s")
    m["seeds.select_s"] = (med("seeds.select", "setup"), "s")
    m["seeds.evaluations"] = (serving.setup_evaluations, "count")
    m["history.ingest_s"] = (med("history.ingest", "day") if days else 0.0, "s")
    m["history.delta_edges"] = (median([d["delta_edges"] for d in days]) if days else 0, "count")
    m["fidelity.delta_apply_s"] = (med("fidelity.delta_apply", "day") if days else 0.0, "s")
    m["fidelity.rows_dropped"] = (median([d["rows_dropped"] for d in days]) if days else 0, "count")
    m["seeds.reselect_s"] = (med("seeds.reselect", "day") if days else 0.0, "s")
    m["seeds.reselect_evaluations"] = (
        median([d["evaluations"] for d in days]) if days else 0, "count"
    )
    fid = serving.system.fidelity_service.stats()
    m["fidelity.rows_computed"] = (fid.misses, "count")
    m["fidelity.hit_ratio"] = (fid.hits / fid.total if fid.total else 0.0, "ratio")

    traced = [r for r in serving.rounds if r["traced"]]
    # Round 0 is the cold first round; glue compares warm rounds.
    untraced = [r for r in serving.rounds[1:] if not r["traced"]]
    per_round = layer_totals(spans, "round")
    layer_sum = 0.0
    for name in ROUND_LAYERS:
        value = median([t.get(name, 0.0) for t in per_round]) if per_round else 0.0
        m[f"{name}_s"] = (value, "s")
        layer_sum += value
    verify = [s["self"] for s in spans if s["name"] == "snapshot.verify"]
    m["snapshot.verify_s"] = (median(verify) if verify else 0.0, "s")
    sizes_b = [
        os.path.getsize(snapshot_path(serving.snapdir, r["version"]))
        for r in traced if r["published"]
    ]
    m["snapshot.bytes"] = (median(sizes_b) if sizes_b else 0, "bytes")
    ratios = [r["answer_ratio"] for r in traced if r["answer_ratio"] is not None]
    m["crowd.answer_ratio"] = (sum(ratios) / len(ratios) if ratios else 0.0, "ratio")
    # Plan-cache counts of the measured loop, set-up and warm-up left out.
    plans = serving.system.plan_cache.stats()
    hits = plans.hits - serving.plans_before_loop[0]
    misses = plans.misses - serving.plans_before_loop[1]
    m["speed.plan_compiles"] = (misses, "count")
    m["speed.plan_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    # The two halves of the loop run at different host speeds, so they
    # are compared at the reference speed; the layer sum is scaled by
    # the traced rounds' own factor.
    untraced_p50 = median([r["scaled"] for r in untraced]) if untraced else 0.0
    traced_p50 = median([r["scaled"] for r in traced]) if traced else 0.0
    factor = median([r["scaled"] / r["seconds"] for r in traced]) if traced else 1.0
    m["publisher.glue_s"] = (untraced_p50 - layer_sum * factor, "s")
    m["trace.overhead_ratio"] = (traced_p50 / untraced_p50 if untraced_p50 else 0.0, "ratio")

    m["store.read_sweep_ms"] = (loadgen.service_p50_ms(reads), "ms")
    m["store.shed"] = (sum(r.shed for r in reads), "count")
    m["store.unanswered"] = (sum(not r.answered for r in reads), "count")
    m["loadgen.sent"] = (len(reads), "count")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _reader(serving: Serving, inputs: Inputs, seed: int) -> loadgen.ClosedLoopReader:
    return loadgen.ClosedLoopReader(serving.store, loadgen.ReadPlan(inputs.network, seed))


def day_order(day: SpeedField) -> list[int]:
    """Every interval of ``day``, ordered so any prefix spans the whole day.

    Scoring the first rounds of a chronological loop would judge only
    the night hours; a stride coprime with the day length visits every
    interval once and spreads each prefix over the day.
    """
    first, n = day.intervals.start, len(day.intervals)
    stride = next(s for s in range(n // 3, n) if math.gcd(s, n) == 1)
    return [first + (k * stride) % n for k in range(n)]


def warm_plans(system: SpeedEstimationSystem, intervals, truth: SpeedField) -> None:
    """Compile the plans of ``intervals`` for the current seeds, untimed.

    Plans are cached per seed set and time bucket, one bucket per
    interval of the day, so a system that has served a day holds them
    all; without this the loop would time a plan compile in every round
    of its first pass.
    """
    for interval in intervals:
        system.estimate(interval, {road: truth.speed(road, interval) for road in system.seeds})


def run_metro_publish(seed: int, seconds: float, tracer, workdir: str, sizes: Sizes) -> Result:
    """Closed loop of warm publish rounds over one test day, then a read window."""
    result = Result()
    inputs = make_inputs(sizes.metro_roads, sizes.history_days, 1, sizes.metro_budget_share, seed, sizes)
    test = inputs.days[inputs.history_days]
    intervals = day_order(test)
    serving = set_up(
        setup_metro, inputs, (intervals[0], test), workdir, sizes, tracer, result,
        quality_rounds=min(sizes.quality_rounds, len(intervals)),
    )
    warm_plans(serving.system, intervals, test)
    serving.mark_loop_start()
    reader = _reader(serving, inputs, seed)
    start = time.perf_counter()
    k = 1
    while (elapsed := time.perf_counter() - start) < seconds or k < serving.quality_rounds:
        traced = tracer.enabled and elapsed >= seconds / 2
        publish(serving, intervals[k % len(intervals)], test, tracer, traced)
        reader.run(sizes.reads_per_round)
        k += 1
    check_reads(reader.reads, result)
    # End-to-end numbers cover one pass over the test day, a fixed amount
    # of work: rounds get slower as the run goes on (~8% over 90 s), so a
    # median over however many rounds fit in the time would follow the
    # machine's speed.
    counted = serving.quality_rounds - 1
    rounds = serving.rounds[1:1 + counted]
    reads = reader.reads[: counted * sizes.reads_per_round]
    result.timing("round", [r["scaled"] for r in rounds], [r["seconds"] for r in rounds], "s")
    result.timing(
        "read", [r.scaled_ms for r in reads], [r.ms for r in reads], "ms", tail_metric=False
    )
    result.notes.append(f"round and read metrics cover the first {counted} rounds of the loop")
    _close(serving, reader.reads, tracer, result)
    return result


def run_stream_days(seed: int, seconds: float, tracer, workdir: str, sizes: Sizes) -> Result:
    """A warm rolling window, then freshly simulated days, one at a time."""
    result = Result()
    inputs = make_inputs(
        sizes.stream_roads, sizes.window_days, sizes.stream_days, sizes.stream_budget_share, seed, sizes
    )
    last = inputs.days[inputs.history_days - 1]
    day_rounds = len(range(0, inputs.grid.intervals_per_day, sizes.stride))
    serving = set_up(
        setup_stream, inputs, (last.intervals.start, last), workdir, sizes, tracer, result,
        quality_rounds=1 + sizes.min_days * day_rounds,
    )
    system, rolling = serving.system, serving.rolling
    serving.mark_loop_start()
    day_stats = []
    reader = _reader(serving, inputs, seed)
    start = time.perf_counter()
    days, first_day_round = [], len(serving.rounds)
    # End-to-end numbers cover the first min_days days, a fixed amount of
    # work: round cost grows from day to day, so a median over however
    # many days fit in the time would depend on the machine's speed.
    counted = None
    for day in inputs.days[inputs.history_days:]:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(days) >= sizes.min_days:
            break
        traced = tracer.enabled and elapsed >= seconds / 2
        day_start = time.perf_counter()
        with tracer.span("day"):
            with tracer.span("history.ingest"):
                rolling.ingest_day(day)
            delta = rolling.last_delta
            with tracer.span("fidelity.delta_apply"):
                dropped = system.apply_graph_delta(delta)
            with tracer.span("seeds.reselect"):
                system.reselect_seeds(inputs.budget)
            # A day is timed without the output checks after each round.
            day_s = time.perf_counter() - day_start
            for interval in list(day.intervals)[:: sizes.stride]:
                day_s += publish(serving, interval, day, tracer, traced)
                reader.run(sizes.reads_per_round)
        days.append(day_s)
        day_stats.append(
            {
                "delta_edges": delta.num_changes,
                "rows_dropped": len(dropped),
                "evaluations": system.selection.evaluations,
            }
        )
        if len(days) == sizes.min_days:
            counted = (len(serving.rounds), peak_rss_mb())
    else:
        result.check(False, "stream-days ran out of generated days")
    check_reads(reader.reads, result)
    rounds_end, rss = counted
    rounds, reads = serving.rounds[first_day_round:rounds_end], reader.reads
    result.timing("round", [r["scaled"] for r in rounds], [r["seconds"] for r in rounds], "s")
    # A read costs the same on every day, so reads of every day count.
    result.timing(
        "read", [r.scaled_ms for r in reads], [r.ms for r in reads], "ms", tail_metric=False
    )
    result.notes.append(f"round metrics cover the first {sizes.min_days} days, read metrics all {len(days)}")
    result.notes.append(f"day_p50_s = {median(days):.4f} s over {len(days)} days")
    try:
        rolling.verify_incremental()
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        result.check(False, f"incremental mining drifted: {exc}")
    _close(serving, reader.reads, tracer, result, day_stats, rss)
    return result


def _close(serving, reads, tracer, result: Result, day_stats=(), rss=None) -> None:
    result.e2e["peak_rss_mb"] = (rss if rss is not None else peak_rss_mb(), "MB")
    check_outputs(serving, result, quality=not tracer.enabled)
    if tracer.enabled:
        layer_metrics(serving, tracer, reads, day_stats, result)
    serving.system.close()


RUNNERS = {
    "metro-publish": run_metro_publish,
    "stream-days": run_stream_days,
}
