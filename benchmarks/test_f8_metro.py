"""F8 (metro) — Metropolitan-scale partitioned inference at 50k+ roads.

Grows the F8 scalability story from the 2k-road scaled city to a
metropolitan district city (:func:`~repro.datasets.synthetic.
metropolitan_dataset`): district-parallel seed selection over shared
CSR arrays, district-accumulated Step-1 votes, and compiled Step-2
serving, with the end-to-end round latency bounded at 900 s.

Marked ``slow``: the module builds two metropolitan datasets and runs
full selection at 50k+ roads (minutes, not seconds), so it is excluded
from default runs and opted into with ``-m slow``.
"""

import time

import pytest

from benchmarks.conftest import _bench_registry
from repro.core.config import PipelineConfig
from repro.core.pipeline import SpeedEstimationSystem
from repro.datasets.synthetic import metropolitan_dataset
from repro.evalkit.reporting import fmt, format_table
from repro.history.correlation import mine_correlation_graph
from repro.history.fidelity import FidelityCacheService
from repro.seeds.objective import SeedSelectionObjective
from repro.seeds.parallel import DistrictPool
from repro.seeds.partition import partition_graph, partition_greedy_select
from repro.speed.estimator import TwoStepEstimator

pytestmark = pytest.mark.slow

METRO_TARGET = 50_000
HALF_TARGET = 25_000
NUM_DISTRICTS = 64
ROUND_BUDGET_S = 900.0


def _gauge(name: str, value: float, **labels) -> None:
    _bench_registry.gauge(f"bench.f8_metro_{name}", **labels).set(value)


@pytest.fixture(scope="module")
def metro():
    return metropolitan_dataset(METRO_TARGET)


def _partition_seconds(objective, num_partitions, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        partition_graph(objective, num_partitions)
        best = min(best, time.perf_counter() - start)
    return best


def test_f8m_partition_graph_linear_scaling(metro, report):
    """The BFS partitioner scales linearly in roads + edges.

    Regression guard for the ``list.pop(0)`` bug that made the frontier
    pop O(queue) and the whole partition quadratic: doubling the city
    must scale the partition time like O(V + E) (~2x), nowhere near the
    ~4x a quadratic partitioner shows.
    """
    half = metropolitan_dataset(HALF_TARGET)
    full_objective = SeedSelectionObjective(metro.graph)
    half_objective = SeedSelectionObjective(half.graph)

    half_s = _partition_seconds(half_objective, NUM_DISTRICTS)
    full_s = _partition_seconds(full_objective, NUM_DISTRICTS)
    work_ratio = (metro.graph.num_roads + metro.graph.num_edges) / (
        half.graph.num_roads + half.graph.num_edges
    )
    ratio = full_s / half_s

    _gauge("partition_seconds", full_s, roads=metro.graph.num_roads)
    _gauge("partition_scaling_ratio", ratio)
    report(
        "f8m_partition_scaling",
        format_table(
            ["roads", "edges", "partition s"],
            [
                [half.graph.num_roads, half.graph.num_edges, fmt(half_s, 3)],
                [metro.graph.num_roads, metro.graph.num_edges, fmt(full_s, 3)],
            ],
            title=(
                "F8m: partition_graph scaling "
                f"(observed {ratio:.2f}x for {work_ratio:.2f}x work)"
            ),
        ),
    )
    # Linear means the time ratio tracks the work ratio; the quadratic
    # regression showed ~2x the work ratio. Allow generous timer noise.
    assert ratio < work_ratio * 1.6


def test_f8_metro_round_latency(metro, report):
    """One full metropolitan round fits the 900 s budget end to end."""
    num_roads = metro.network.num_segments
    budget = max(1, round(num_roads * 0.01))

    start = time.perf_counter()
    mine_correlation_graph(metro.network, metro.store)
    mine_s = time.perf_counter() - start

    config = PipelineConfig(
        selection_method="partition",
        num_partitions=NUM_DISTRICTS,
        num_partition_workers=2,
    )
    start = time.perf_counter()
    system = SpeedEstimationSystem.from_parts(
        metro.network, metro.store, metro.graph, config
    )
    fit_s = time.perf_counter() - start

    with system:
        start = time.perf_counter()
        seeds = system.select_seeds(budget)
        select_s = time.perf_counter() - start

        intervals = metro.test_day_intervals(stride=24)
        rounds = [
            (i, {r: metro.test.speed(r, i) for r in seeds}) for i in intervals
        ]
        start = time.perf_counter()
        system.estimate(*rounds[0])  # compiles the interval plan
        estimate_cold_s = time.perf_counter() - start
        start = time.perf_counter()
        for interval, seed_speeds in rounds[1:]:
            system.estimate(interval, seed_speeds)
        estimate_warm_s = (time.perf_counter() - start) / max(
            1, len(rounds) - 1
        )

    round_s = select_s + estimate_cold_s
    for name, value in (
        ("mine_seconds", mine_s),
        ("fit_seconds", fit_s),
        ("select_seconds", select_s),
        ("estimate_cold_seconds", estimate_cold_s),
        ("estimate_warm_seconds", estimate_warm_s),
        ("round_seconds", round_s),
    ):
        _gauge(name, value, roads=num_roads, budget=budget)
    report(
        "f8_metro",
        format_table(
            [
                "roads",
                "K",
                "mining s",
                "fit s",
                "selection s",
                "estimate s (cold)",
                "estimate s (warm)",
                "round s",
            ],
            [
                [
                    num_roads,
                    budget,
                    fmt(mine_s, 1),
                    fmt(fit_s, 1),
                    fmt(select_s, 1),
                    fmt(estimate_cold_s, 1),
                    fmt(estimate_warm_s, 2),
                    fmt(round_s, 1),
                ]
            ],
            title=(
                "F8 (metro): end-to-end round latency, district-parallel "
                f"selection ({NUM_DISTRICTS} districts, 2 workers)"
            ),
        ),
    )
    # The operational round (daily re-selection + first estimate) and
    # every offline stage fit comfortably inside the 900 s budget.
    assert round_s < ROUND_BUDGET_S
    assert mine_s + fit_s < ROUND_BUDGET_S
    assert estimate_warm_s < 60.0


def test_f8_metro_parallel_vs_serial_differential(metro):
    """District workers reproduce serial partition selection at 50k+.

    The tier-1 suite proves this on the 6x6 grid; this is the same
    differential at metropolitan scale, with a modest budget so the
    CELF loops stay bounded while every evaluated row still crosses the
    shared-memory path.
    """
    budget = 50
    objective = SeedSelectionObjective(metro.graph)
    serial = partition_greedy_select(
        objective, budget, num_partitions=NUM_DISTRICTS
    )
    with DistrictPool(
        objective, num_partitions=NUM_DISTRICTS, num_workers=2
    ) as pool:
        parallel = pool.select(budget)
    assert parallel.seeds == serial.seeds
    assert parallel.gains == serial.gains
    assert parallel.evaluations == serial.evaluations
    _gauge("differential_evaluations", parallel.evaluations, budget=budget)


# ---------------------------------------------------------------------------
# District-sharded Step-2 plan compilation (repro.speed.plan)
# ---------------------------------------------------------------------------
PLAN_BUDGET_PCT = 0.5
XL_TARGET = 110_000
XL_DISTRICTS = 128


def _copy_graph(graph):
    """A private, mutable clone so delta tests never pollute fixtures."""
    from repro.history.correlation import CorrelationGraph

    return CorrelationGraph(list(graph.road_ids), list(graph.edges()))


def _district_compile_seconds(trace_path):
    """Per-district ``speed.plan.compile`` compile times from a trace.

    Pool-compiled shards carry the worker-measured time as the
    ``compile_s`` span attr (the parent span only times unpacking);
    in-process compiles are the span duration itself.
    """
    import json

    durations = []
    for line in trace_path.read_text().splitlines():
        event = json.loads(line)
        if (
            event.get("type") == "span"
            and event.get("name") == "speed.plan.compile"
            and "district" in event.get("attrs", {})
        ):
            durations.append(
                float(event["attrs"].get("compile_s", event["dur_s"]))
            )
    return durations


def test_f8_metro_sharded_plan_compile(metro, report, tmp_path):
    """Sharded Step-2: bitwise-equal cold compile, district-scoped delta.

    Three timings feed the bench gate: the cold sharded compile (one
    structure per district across the compile pool), the post-delta
    recompile (stale districts only), and the warm serve latency. The
    sharded estimates are asserted bitwise equal to a one-district
    plan's (the ``mono`` timings), and the delta recompile is asserted
    to touch a small fraction of the districts.
    """
    from repro.history.incremental import GraphDelta
    from repro.history.correlation import CorrelationEdge
    from repro.obs import FlightRecorder, set_recorder

    num_roads = metro.network.num_segments
    budget = max(1, round(num_roads * PLAN_BUDGET_PCT / 100.0))
    graph = _copy_graph(metro.graph)
    config = dict(
        selection_method="partition",
        num_partitions=NUM_DISTRICTS,
    )

    selector = SpeedEstimationSystem.from_parts(
        metro.network, metro.store, graph, PipelineConfig(**config)
    )
    seeds = selector.select_seeds(budget)
    intervals = metro.test_day_intervals(stride=24)
    rounds = [
        (i, {r: metro.test.speed(r, i) for r in seeds}) for i in intervals[:4]
    ]
    mono = TwoStepEstimator(
        metro.network, metro.store, graph, fidelity_service=FidelityCacheService()
    )
    start = time.perf_counter()
    mono_first = mono.estimate_interval(*rounds[0])
    mono_cold_s = time.perf_counter() - start

    trace = tmp_path / "sharded_trace.jsonl"
    rec = FlightRecorder(path=trace)
    previous = set_recorder(rec)
    try:
        with SpeedEstimationSystem.from_parts(
            metro.network,
            metro.store,
            graph,
            PipelineConfig(**config, num_partition_workers=2),
        ) as sharded:
            # Serve the selector's seeds without selecting here: partition
            # selection would start the district pool, whose Step-1 votes
            # match the serial ones only to 1e-9, not bitwise.
            start = time.perf_counter()
            sharded_first = sharded.estimate(*rounds[0])
            sharded_cold_s = time.perf_counter() - start
            assert all(
                mono_first[r] == sharded_first[r] for r in mono_first
            ), "sharded cold round must be bitwise equal to one district"

            start = time.perf_counter()
            for interval, seed_speeds in rounds[1:]:
                sharded.estimate(interval, seed_speeds)
            serve_warm_s = (time.perf_counter() - start) / max(
                1, len(rounds) - 1
            )

            # A delta around one seed: reweight one incident edge, then
            # recompile. Only districts that seed's influence touches
            # may recompile.
            compiles_before = sum(
                series.value
                for _, series in rec.registry.series("plan.shard_compiles")
            )
            edge = graph.neighbours(seeds[0])[0]
            delta = GraphDelta(
                added=(),
                removed=(),
                reweighted=(
                    CorrelationEdge(edge.road_u, edge.road_v, 0.93),
                ),
            )
            graph.apply_delta(delta)
            sharded.apply_graph_delta(delta)
            start = time.perf_counter()
            sharded.estimate(*rounds[0])
            delta_recompile_s = time.perf_counter() - start
            recompiled = (
                sum(
                    series.value
                    for _, series in rec.registry.series("plan.shard_compiles")
                )
                - compiles_before
            )
    finally:
        set_recorder(previous)

    district_s = _district_compile_seconds(trace)
    assert len(district_s) >= NUM_DISTRICTS
    for name, value in (
        ("compile_mono_seconds", mono_cold_s),
        ("compile_sharded_seconds", sharded_cold_s),
        ("delta_recompile_seconds", delta_recompile_s),
        ("serve_warm_seconds", serve_warm_s),
    ):
        _gauge(f"plan_{name}", value, roads=num_roads, budget=budget)
    report(
        "f8_metro_sharded_plan",
        format_table(
            [
                "roads",
                "K",
                "districts",
                "cold mono s",
                "cold sharded s",
                "delta recompile s",
                "districts recompiled",
                "serve warm s",
            ],
            [
                [
                    num_roads,
                    budget,
                    NUM_DISTRICTS,
                    fmt(mono_cold_s, 1),
                    fmt(sharded_cold_s, 1),
                    fmt(delta_recompile_s, 2),
                    int(recompiled),
                    fmt(serve_warm_s, 2),
                ]
            ],
            title=(
                "F8 (metro): sharded Step-2 plan compile "
                f"({NUM_DISTRICTS} districts, 2 workers, bitwise-checked)"
            ),
        ),
    )
    assert sharded_cold_s < ROUND_BUDGET_S
    # Locality: a one-edge delta recompiles a fraction of the city.
    assert 0 < recompiled <= NUM_DISTRICTS // 2
    assert delta_recompile_s < sharded_cold_s


def test_f8_metro_xl_sharded_cold_round(report, tmp_path):
    """Cold Step-2 at 100k+ roads: sharded compile per district, <900 s.

    The acceptance bar for metropolitan cold rounds: a 110k-road city,
    128 districts, K = 0.5%, compile-and-serve inside the round budget,
    with the per-district compile profile reported from the
    ``speed.plan.compile`` spans.
    """
    from repro.datasets.synthetic import metropolitan_dataset
    from repro.obs import FlightRecorder, set_recorder

    xl = metropolitan_dataset(XL_TARGET)
    num_roads = xl.network.num_segments
    assert num_roads >= 100_000
    budget = max(1, round(num_roads * PLAN_BUDGET_PCT / 100.0))

    trace = tmp_path / "xl_trace.jsonl"
    rec = FlightRecorder(path=trace)
    previous = set_recorder(rec)
    try:
        with SpeedEstimationSystem.from_parts(
            xl.network,
            xl.store,
            xl.graph,
            PipelineConfig(
                selection_method="partition",
                num_partitions=XL_DISTRICTS,
                num_partition_workers=2,
            ),
        ) as system:
            start = time.perf_counter()
            seeds = system.select_seeds(budget)
            select_s = time.perf_counter() - start
            interval = xl.test_day_intervals()[0]
            speeds = {r: xl.test.speed(r, interval) for r in seeds}
            start = time.perf_counter()
            system.estimate(interval, speeds)
            cold_s = time.perf_counter() - start
            start = time.perf_counter()
            system.estimate(interval + 1, speeds)
            warm_s = time.perf_counter() - start
    finally:
        set_recorder(previous)

    district_s = sorted(_district_compile_seconds(trace))
    assert len(district_s) >= XL_DISTRICTS
    median_s = district_s[len(district_s) // 2]
    for name, value in (
        ("xl_cold_seconds", cold_s),
        ("xl_warm_seconds", warm_s),
        ("xl_select_seconds", select_s),
        ("xl_district_compile_median_seconds", median_s),
        ("xl_district_compile_max_seconds", district_s[-1]),
    ):
        _gauge(f"plan_{name}", value, roads=num_roads, budget=budget)
    report(
        "f8_metro_xl_sharded",
        format_table(
            [
                "roads",
                "K",
                "districts",
                "select s",
                "cold compile+serve s",
                "warm s",
                "district compile ms (min/med/max)",
            ],
            [
                [
                    num_roads,
                    budget,
                    XL_DISTRICTS,
                    fmt(select_s, 1),
                    fmt(cold_s, 1),
                    fmt(warm_s, 2),
                    f"{district_s[0] * 1e3:.2f}/{median_s * 1e3:.2f}"
                    f"/{district_s[-1] * 1e3:.2f}",
                ]
            ],
            title=(
                "F8 (metro XL): 100k+ road cold round, sharded Step-2 "
                f"({XL_DISTRICTS} districts, district-parallel selection)"
            ),
        ),
    )
    assert select_s + cold_s < ROUND_BUDGET_S
