"""The kurev benchmark: seeded projects through ``run_pipeline``, timed.

    python3 perfbench/run.py --workload history --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the program is loaded from ``src/``).
One run generates the workload's project from ``--seed`` (several times,
for ``setup_s``, checking the copies are identical), then starts
``worker.py`` in a child process for the timed pipeline runs and the
output checks. It prints a readable report and, as its last line, one
JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a traced, separate set of runs) with ``--trace 1``. The
metric names, units and workloads are those of ``BENCHMARK.json``.

``--workload all`` runs every workload untraced and traced and confirms
which layer dominates each. Everything is written under
``.perfbench_work/`` in the checkout and removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from generate import WORKLOADS, generate, git_env  # noqa: E402

SETUPS = 15
WORKER_TIMEOUT_S = 150

# The layer (as a traced span) expected to dominate each workload's
# pipeline time, and what it stands for.
DOMINANT = {
    "history": ("mining.build_ku_store.s", "detector + mining"),
    "review": ("pipeline.evaluate_project.s", "profiles + recommenders + evaluation"),
    "team": ("pipeline.run_clustering.s", "clustering"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def highest_percentile(values: list[float]) -> str:
    """The highest percentile that has at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return "(no percentile has 10 samples beyond it)"
    return f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.6g}"


def setup(spec, seed: int, work: Path):
    """Generate the project SETUPS times; returns (project dir, times, problems)."""
    times, prints = [], []
    for i in range(SETUPS):
        target = work / f"project{i}"
        start = perf_counter()
        manifest = generate(spec, seed, target)
        times.append(perf_counter() - start)
        prints.append(
            (
                manifest,
                (target / "base" / "prs.jsonl").read_bytes(),
                (target / "grown" / "prs.jsonl").read_bytes(),
            )
        )
        if i:
            shutil.rmtree(target)
    problems = [] if all(p == prints[0] for p in prints) else [
        f"seed {seed} generated {len(set(map(repr, prints)))} different projects"
    ]
    return work / "project0", times, problems


def run_workload(spec, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up one project and time it in a worker process; returns its result."""
    project, setup_times, problems = setup(spec, seed, work)
    result_path = work / "result.json"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--project", str(project), "--scratch", str(work / "runs"),
        "--result", str(result_path), "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    env = dict(git_env(), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not result["pipeline_s"] or not result["rerun_s"]:
        raise BenchError("no pipeline run completed:\n" + "\n".join(result["failures"]))
    result["setup_s"] = setup_times
    result["attempted"] += 1
    result["failed"] += bool(problems)
    result["failures"] = problems + result["failures"]
    return result


def end_to_end(result: dict) -> dict[str, float]:
    return {
        "pipeline_s": statistics.median(result["pipeline_s"]),
        "rerun_s": statistics.median(result["rerun_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(result["setup_s"]),
    }


def per_layer(result: dict) -> dict[str, float]:
    """Median over traced iterations of each per-layer metric."""
    keys = {key for layers in result["layers"] for key in layers}
    return {
        key: statistics.median(layers[key] for layers in result["layers"] if key in layers)
        for key in sorted(keys)
    }


def report(name: str, seed: int, result: dict, trace: bool, bench: dict) -> dict:
    """Print the readable report; return the metrics for the JSON line."""
    print(f"== workload {name} (seed {seed}, {'traced' if trace else 'untraced'})")
    for key in ("pipeline_s", "rerun_s", "setup_s"):
        values = result[key]
        print(
            f"  {key:<12} median {statistics.median(values):.4f} s  n={len(values)}"
            f"  {highest_percentile(values)}"
        )
    print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB (worker process, n=1)")
    print(f"  reference    {result['reference_s'] or float('nan'):.4f} s"
          " (cold run of the grown project)")
    print(f"  failed_ops   {result['failed']}/{result['attempted']}")
    for failure in result["failures"][:10]:
        print("    " + failure.replace("\n", "\n    "))
    for tip in ("base", "grown"):
        digests = result.get(f"digest_{tip}", {})
        print(f"  digest {tip:<6}" + "".join(f" {k}={v}" for k, v in digests.items()))
    for label, key in (("cold", "stages"), ("rerun", "rerun_stages")):
        if result[key]:
            medians = {
                stage.split(".")[2]: statistics.median(s.get(stage, 0.0) for s in result[key])
                for stage in result[key][0]
            }
            print(f"  stages ({label}): "
                  + "  ".join(f"{stage}={value:.3f}" for stage, value in medians.items()))

    if not trace:
        metrics = end_to_end(result)
        wanted = bench["end_to_end"]
    else:
        metrics = per_layer(result)
        untraced = result.get("untraced_s")
        if untraced:
            overhead = statistics.median(result["pipeline_s"]) - statistics.median(untraced)
            metrics["trace.overhead_s"] = overhead
            print(f"  tracing overhead {overhead:+.4f} s on pipeline_s (traced median minus"
                  f" the median of {len(untraced)} untraced cold runs)")
        if result.get("missing_hooks"):
            print("  hooks missing (metrics absent): " + " ".join(result["missing_hooks"]))
        if result.get("callback_errors"):
            print(f"  hook callback errors: {result['callback_errors']}")
        span, label = DOMINANT[name]
        total = sum(v for k, v in metrics.items() if k.startswith("pipeline.stage."))
        if span in metrics and total:
            share = metrics[span] / total
            verdict = "confirmed" if share > 0.5 else "NOT confirmed"
            result["dominance"] = f"{label}: {span} = {share:.0%} of pipeline time, {verdict}"
            print(f"  dominant layer {result['dominance']}")
        wanted = bench["per_layer"]
    out = {}
    print(f"  {len(wanted)} {'per-layer' if trace else 'end-to-end'} metrics:")
    for metric in wanted:
        key, unit = metric["name"], metric["unit"]
        if key not in metrics:
            print(f"    {key:<40} absent")
            continue
        out[key] = {"value": metrics[key], "unit": unit}
        print(f"    {key:<40} {metrics[key]:.6g} {unit}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kurev pipeline benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kurev" / "pipeline.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)

    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        summary = []
        for name in names:
            for trace in modes:
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                result = run_workload(WORKLOADS[name], args.seed, seconds, trace, work)
                metrics = report(name, args.seed, result, trace, bench)
                line = {
                    "correct": result["failed"] == 0,
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": metrics,
                }
                summary.append(
                    f"{name:<8} {'traced' if trace else 'untraced':<9}"
                    f" failed_ops {result['failed']}/{result['attempted']}  "
                    + (result.get("dominance", "") if trace else "  ".join(
                        f"{k}={v['value']:.4g} {v['unit']}" for k, v in metrics.items()
                    ))
                )
        if args.workload == "all":
            print("== summary\n" + "\n".join(summary))
        else:
            print(json.dumps(line))
        return 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
