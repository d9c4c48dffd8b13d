"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload metro-publish --seed 1 --seconds 15 --trace 0

Builds the inputs from ``--seed``, sets the system up, measures for
``--seconds`` and checks the outputs. Summary lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). Exits 1 after
the result when an output check failed, and exits 1 printing no result
when the program's sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def _import_program():
    """Import the checkout's own ``repro`` from ``src/``, nothing else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    from perfbench.spans import NullTracer, Tracer
    from perfbench.workloads import BENCH, RUNNERS

    if args.workload not in RUNNERS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(RUNNERS)}")
    tracer = Tracer() if args.trace else NullTracer()
    BUILD.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"perfbench-{args.workload}-", dir=BUILD)
    try:
        result = RUNNERS[args.workload](args.seed, args.seconds, tracer, workdir, BENCH)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        tracer.write(BUILD / f"perfbench-trace-{args.workload}-{args.seed}.json")
    metrics = result.layers if args.trace else result.e2e
    for line in result.notes:
        print(line)
    print(f"error_rate = {result.failed / max(result.attempted, 1):.6g} (failed / attempted)")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not result.problems,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if result.problems else 0


if __name__ == "__main__":
    sys.exit(main())
