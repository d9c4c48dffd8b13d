"""Tests of the benchmark's own arithmetic, plus a tiny run of each workload.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import hostspeed
from perfbench.spans import NullTracer, Tracer, layer_totals
from perfbench.stats import self_times, tail
from perfbench.workloads import BENCH, RUNNERS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = replace(
    BENCH,
    metro_roads=528,
    stream_roads=528,
    history_days=2,
    window_days=2,
    stream_days=3,
    setups=2,
    min_days=1,
    quality_rounds=2,
    reads_per_round=2,
)


# ----------------------------------------------------------------------
# Tail percentile: the highest one with at least 10 samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, percentile", [(20, 50.0), (100, 90.0), (1000, 99.0), (40, 75.0)])
def test_tail_leaves_exactly_ten_samples_beyond(n, percentile):
    values = list(range(n, 0, -1))  # unsorted on purpose
    t = tail(values)
    assert t.percentile == pytest.approx(percentile)
    assert t.count == n
    assert sum(v > t.value for v in values) == 10


@pytest.mark.parametrize("n", [1, 5, 10, 19])
def test_tail_below_twenty_samples_is_the_median(n):
    values = [float(v) for v in range(n)]
    t = tail(values)
    assert t.percentile == 50.0
    assert t.value == pytest.approx((n - 1) / 2)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail([])


# ----------------------------------------------------------------------
# Timings scaled to the reference host speed
# ----------------------------------------------------------------------
def test_scale_divides_by_the_mean_loop_time():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(0.5, ref, ref) == pytest.approx(0.5)
    # The loop took twice as long around the operation: a host half as fast.
    assert hostspeed.scale(0.5, 2 * ref, 2 * ref) == pytest.approx(0.25)
    assert hostspeed.scale(0.3, ref, 2 * ref) == pytest.approx(0.3 / 1.5)


def test_loop_seconds_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert hostspeed.loop_seconds(2) > 0
    assert gc.isenabled()


# ----------------------------------------------------------------------
# Self time of nested spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, None, 0.0, 10.0),  # root
        (1, 0, 1.0, 4.0),  # child a
        (2, 0, 5.0, 6.0),  # child b
        (3, 1, 2.0, 3.0),  # grandchild under a
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_totals_sum_to_the_root_duration():
    tracer = Tracer()
    for _ in range(2):
        with tracer.span("round"):
            with tracer.span("speed.estimate"):
                pass
            with tracer.span("store.publish"):
                with tracer.span("snapshot.verify"):
                    pass
    spans = tracer.with_self_time()
    totals = layer_totals(spans, "round")
    assert len(totals) == 2
    durations = [s["end"] - s["start"] for s in spans if s["name"] == "round"]
    for entry in totals:
        assert set(entry) == {"round", "speed.estimate", "store.publish", "snapshot.verify"}
    assert sorted(sum(t.values()) for t in totals) == pytest.approx(sorted(durations))


# ----------------------------------------------------------------------
# Tiny runs of every workload, untraced and traced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(RUNNERS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run(workload, traced, tmp_path):
    tracer = Tracer() if traced else NullTracer()
    result = RUNNERS[workload](7, 1.0, tracer, str(tmp_path), TINY)
    assert result.problems == []
    assert result.attempted > 0 and result.failed == 0
    metrics = result.layers if traced else result.e2e
    spec = SPEC["per_layer" if traced else "end_to_end"]
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"]
        if not traced:
            assert value > 0, m["name"]


def test_workloads_match_the_spec():
    assert sorted(RUNNERS) == sorted(w["name"] for w in SPEC["workloads"])


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metro-publish",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
