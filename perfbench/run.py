"""Benchmark entry point.

    python3 perfbench/run.py --workload paper-suite --seed 2022 --seconds 15 --trace 0

Runs one workload of the program checked out around this directory
(``src/repro``; pure Python, nothing to build), checks its outputs,
and prints the run's seed, its notes and metrics, then as the last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``).  See README.md.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-suite", "resweep-warm", "serve-small")
DEFAULT_SEED = 2022


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    print(
        f"perfbench: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        flush=True,
    )
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-small":
            from serveload import run_serve_small

            outcome, tracer = run_serve_small(
                args.seed, args.seconds, workdir, args.trace, ROOT
            )
        else:
            import batchload

            import_s = perf_counter() - PROCESS_START
            run = (
                batchload.run_paper_suite
                if args.workload == "paper-suite"
                else batchload.run_resweep_warm
            )
            outcome, tracer = run(args.seed, args.seconds, workdir, args.trace, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for note in outcome.notes:
        print(f"perfbench: {note}")
    for problem in outcome.problems:
        print(f"perfbench: FAILED CHECK: {problem}")
    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    if missing and not args.trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    # A per-layer metric of a layer this workload does not reach reads 0.
    metrics = {
        m["name"]: {"value": float(outcome.metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    for name, metric in metrics.items():
        print(f"perfbench: {name} = {metric['value']:.6g} {metric['unit']}")
    if tracer is not None:
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"metrics": metrics})
        totals = sorted(tracer.totals().items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in totals:
            print(
                f"perfbench: span {name}: {row['calls']} calls, "
                f"{row['total_s']:.3f} s total, {row['self_s']:.3f} s self"
            )
        print(f"perfbench: spans written to {path.relative_to(ROOT)}")
    print(
        f"perfbench: seed={args.seed} attempted={outcome.attempted} "
        f"failed={outcome.failed}"
    )
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
