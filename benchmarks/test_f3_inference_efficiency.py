"""F3 — Trend-inference efficiency: the "2 orders of magnitude" claim.

Per-interval inference time of the fast propagation method versus loopy
BP and Gibbs sampling as the network grows. The propagation method's
work is bounded by (#seeds × pruned reach) after its one-off per-seed
Dijkstra, while BP pays O(edges × iterations) and Gibbs O(nodes ×
degree × sweeps) on *every* interval. Shape to reproduce: the fast
method wins by a growing factor, reaching ≥2 orders of magnitude vs the
sampling-based accurate baseline.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import _bench_registry, budget_for
from repro.datasets.synthetic import scaled_dataset
from repro.evalkit.reporting import fmt, fmt_speedup, format_table
from repro.history.fidelity import FidelityCacheService
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import SeedSelectionObjective
from repro.trend.bp import LoopyBeliefPropagation
from repro.trend.gibbs import GibbsSamplingInference
from repro.trend.model import TrendModel
from repro.trend.propagation import TrendPropagationInference
from tests.oracles import ScalarPropagationInference

SIZES = (200, 500, 1000)


def per_interval_seconds(dataset, inference, seeds, intervals) -> float:
    """Mean wall-clock per interval, after one warm-up interval."""
    model = TrendModel(dataset.graph, dataset.store)

    def run(interval):
        truth = dataset.test.speeds_at(interval)
        seed_trends = {
            r: dataset.store.trend_of(r, interval, truth[r]) for r in seeds
        }
        inference.infer(model.instance(interval, seed_trends))

    run(intervals[0])  # warm-up: propagation builds its fidelity cache here
    start = time.perf_counter()
    for interval in intervals[1:]:
        run(interval)
    return (time.perf_counter() - start) / max(1, len(intervals) - 1)


@pytest.fixture(scope="module")
def f3_results():
    rows = []
    for size in SIZES:
        dataset = scaled_dataset(size, history_days=7)
        budget = max(1, round(dataset.network.num_segments * 0.05))
        seeds = list(
            lazy_greedy_select(SeedSelectionObjective(dataset.graph), budget).seeds
        )
        intervals = dataset.test_day_intervals(stride=16)  # 6 intervals
        timings = {
            "propagation": per_interval_seconds(
                dataset, TrendPropagationInference(), seeds, intervals
            ),
            "loopy-bp": per_interval_seconds(
                dataset, LoopyBeliefPropagation(max_iterations=60), seeds,
                intervals,
            ),
            "gibbs": per_interval_seconds(
                dataset,
                GibbsSamplingInference(num_samples=500, burn_in=150, seed=0),
                seeds,
                intervals,
            ),
        }
        rows.append((dataset.network.num_segments, budget, timings))
    return rows


def test_f3_inference_efficiency(f3_results, report, benchmark):
    table_rows = []
    for size, budget, timings in f3_results:
        table_rows.append(
            [
                size,
                budget,
                fmt(timings["propagation"] * 1000, 2),
                fmt(timings["loopy-bp"] * 1000, 2),
                fmt(timings["gibbs"] * 1000, 2),
                fmt_speedup(timings["loopy-bp"] / timings["propagation"]),
                fmt_speedup(timings["gibbs"] / timings["propagation"]),
            ]
        )
    table = format_table(
        [
            "roads",
            "K",
            "propagation ms",
            "loopy-bp ms",
            "gibbs ms",
            "vs bp",
            "vs gibbs",
        ],
        table_rows,
        title="F3: per-interval trend-inference time vs network size",
    )
    report("f3_inference_efficiency", table)

    # The headline: >= 2 orders of magnitude vs the sampling baseline
    # on the largest network, and a solid factor vs loopy BP.
    _, _, largest = f3_results[-1]
    assert largest["gibbs"] / largest["propagation"] >= 100.0
    assert largest["loopy-bp"] / largest["propagation"] >= 3.0

    # Benchmark kernel: warm propagation inference on the largest network.
    dataset = scaled_dataset(SIZES[-1], history_days=7)
    budget = max(1, round(dataset.network.num_segments * 0.05))
    seeds = list(
        lazy_greedy_select(SeedSelectionObjective(dataset.graph), budget).seeds
    )
    model = TrendModel(dataset.graph, dataset.store)
    inference = TrendPropagationInference()
    interval = dataset.test_day_intervals()[34]
    truth = dataset.test.speeds_at(interval)
    seed_trends = {
        r: dataset.store.trend_of(r, interval, truth[r]) for r in seeds
    }
    instance = model.instance(interval, seed_trends)
    inference.infer(instance)  # warm the cache
    benchmark(lambda: inference.infer(instance))


def test_f3_kernel_vs_scalar_differential(beijing, report):
    """The CSR kernel matches the scalar oracle and is >= 3x faster.

    Differential guarantee of the CSR kernel: on the 528-road
    synthetic-beijing network at K=5%, warm per-interval posteriors
    from the vectorized path agree with the scalar dict-walk oracle
    (``tests.oracles``) to 1e-9, while the warm hot path runs at least
    3x faster.
    """
    budget = budget_for(beijing, 5.0)
    seeds = list(
        lazy_greedy_select(SeedSelectionObjective(beijing.graph), budget).seeds
    )
    model = TrendModel(beijing.graph, beijing.store)
    kernel = TrendPropagationInference(fidelity_service=FidelityCacheService())
    scalar = ScalarPropagationInference()

    intervals = beijing.test_day_intervals(stride=8)  # 12 intervals
    instances = []
    for interval in intervals:
        truth = beijing.test.speeds_at(interval)
        seed_trends = {
            r: beijing.store.trend_of(r, interval, truth[r]) for r in seeds
        }
        instances.append(model.instance(interval, seed_trends))

    worst = 0.0
    for instance in instances:
        diff = np.abs(
            kernel.infer(instance).as_array() - scalar.infer(instance).as_array()
        ).max()
        worst = max(worst, float(diff))
    assert worst <= 1e-9

    def warm_seconds(inference) -> float:
        repeats = 20
        for instance in instances:  # everything cached past this point
            inference.infer(instance)
        start = time.perf_counter()
        for _ in range(repeats):
            for instance in instances:
                inference.infer(instance)
        return (time.perf_counter() - start) / (repeats * len(instances))

    scalar_s = warm_seconds(scalar)
    kernel_s = warm_seconds(kernel)
    speedup = scalar_s / kernel_s

    for path, seconds in (("kernel", kernel_s), ("scalar", scalar_s)):
        _bench_registry.gauge(
            "bench.kernel_vs_scalar_seconds", test="f3_inference", path=path
        ).set(seconds)
    _bench_registry.gauge(
        "bench.kernel_vs_scalar_speedup", test="f3_inference"
    ).set(speedup)

    report(
        "f3_kernel_vs_scalar",
        format_table(
            ["path", "warm us/interval", "max |Δposterior|", "speedup"],
            [
                ["scalar", fmt(scalar_s * 1e6, 1), "-", "1.0x"],
                ["kernel", fmt(kernel_s * 1e6, 1), f"{worst:.2e}",
                 fmt_speedup(speedup)],
            ],
            title=(
                "F3b: CSR kernel vs scalar oracle "
                f"(synthetic-beijing, K={budget})"
            ),
        ),
    )
    assert speedup >= 3.0
