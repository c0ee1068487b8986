"""Benchmark runner for fedweave.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-deploy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

It imports fedweave from ``src/`` of the checkout and nowhere else, runs
one workload (or all three), checks every operation's output, prints each
metric with its unit, writes the results (and, traced, the spans) to
``perfbench/results/``, and
prints one JSON object as the last line of its output: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (unit, better); the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "read_p50_ms": ("ms", "lower"),
    "read_p90_ms": ("ms", "lower"),
    "write_p50_ms": ("ms", "lower"),
    "write_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "state_kb": ("KB", "lower"),
}
# Printed for people, not part of the result object: each is either one of
# the metrics above under its workload's name, or zero on correct code.
ALIASES = {
    "deploy_s": "s",
    "fleet_status_s": "s",
    "audit_bundles_per_s": "1/s",
    "error_rate": "ratio",
}


def _import_program() -> None:
    """Import fedweave from this checkout's ``src/``, or stop."""
    src = ROOT / "src"
    if not (src / "fedweave" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fedweave sources under {src}")
    sys.path.insert(0, str(src))
    import fedweave.cli
    import fedweave.plan

    if Path(fedweave.__file__).resolve().parent != src / "fedweave":
        sys.exit(f"perfbench: imported fedweave from {fedweave.__file__}, not {src}")
    del fedweave


def timings(setup: list[float], read: list[float], write: list[float]) -> dict[str, float]:
    """Medians and p90s; zero where no operation of a class succeeded, which
    the failed operations of the run already report."""
    from tracing import percentile

    def pct(values: list[float], p: int) -> float:
        return percentile(values, p) if values else 0.0

    return {
        "setup_s": pct(setup, 50),
        "read_p50_ms": pct(read, 50) * 1e3,
        "read_p90_ms": pct(read, 90) * 1e3,
        "write_p50_ms": pct(write, 50) * 1e3,
        "write_p90_ms": pct(write, 90) * 1e3,
    }


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    import tracing
    import workloads

    workdir = HERE / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = workloads.Run(workdir, seed, seconds, traced)
    try:
        workloads.WORKLOADS[name](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = run.tally
    if traced:
        overhead = 100 * (run.traced_s / run.plain_s - 1) if run.plain_s else 0.0
        metrics = tracing.layer_metrics(tally.traces, overhead)
        write_spans(HERE / "results" / f"{name}-seed{seed}.spans.jsonl", tally.traces)
        units = {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        metrics = timings(**run.samples)
        metrics["peak_rss_mb"] = tally.rss_kb / 1024
        metrics["state_kb"] = run.state_bytes / 1024
        units = {k: unit for k, (unit, _) in END_TO_END.items()}
    extra = dict(run.extra, error_rate=tally.failed / max(tally.attempted, 1))
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "sizes": run.sizes,
        "samples": {klass: len(values) for klass, values in run.samples.items()},
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:20],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": {k: {"value": v, "unit": ALIASES[k]} for k, v in extra.items()},
        "wall": {k: {"value": v, "unit": END_TO_END[k][0]}
                 for k, v in timings(**run.wall_samples).items()},
    }


def write_spans(path: Path, traces: list[dict]) -> None:
    """One ``[operation, id, parent id, name, start, end]`` line per span."""
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as out:
        for operation, export in enumerate(traces):
            for span_id, parent, name, start, end, _ in export["spans"]:
                out.write(json.dumps([operation, span_id, parent, name, start, end]) + "\n")


def report(result: dict) -> None:
    """Print one workload's result for people."""
    print(f"# {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"sizes={json.dumps(result['sizes'])}  samples={json.dumps(result['samples'])}")
    for name, metric in {**result["metrics"], **result["extra"]}.items():
        print(f"{result['workload']:>13}  {name:<28} {metric['value']:>14.4f} {metric['unit']}")
    for name, metric in result["wall"].items():
        print(f"{result['workload']:>13}  {name + ' (wall)':<28} {metric['value']:>14.4f} "
              f"{metric['unit']}")
    print(f"{result['workload']:>13}  {result['attempted']} operations, "
          f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"{result['workload']:>13}  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet-deploy", "day2-ops", "plan-audit", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        out = HERE / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(result, indent=2) + "\n")
        report(result)
        results.append(result)

    if len(results) == 1:
        result = results[0]
        metrics = result["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
        if args.trace:
            step = {r["workload"]: r["metrics"]["engine.step_us_p50"]["value"] for r in results}
            if step["plan-audit"]:
                print(f"engine.step_us_p50 fleet-deploy / plan-audit = "
                      f"{step['fleet-deploy']:.1f} / {step['plan-audit']:.1f} = "
                      f"{step['fleet-deploy'] / step['plan-audit']:.2f}")
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
