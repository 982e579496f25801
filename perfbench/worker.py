"""Timed pipeline runs on one generated project, in a process of their own.

``run.py`` starts this script once per benchmark run, from the root of a
checkout, so ``ru_maxrss`` of this process is the peak memory of the
workload. It loads the program from ``src/``, then:

1. runs ``run_pipeline`` cold on the grown project: the reference outputs
   for the cold == incremental check (and the warm-up);
2. repeats, until ``--seconds`` have passed, one iteration of
   - a cold run on the base project (fresh ``out_dir``, empty
     ``cache_dir``): one ``pipeline_s`` sample;
   - a run on the grown project into the same ``out_dir`` and
     ``cache_dir``: one ``rerun_s`` sample;
   checking the outputs after each run, untimed, and the rerun's outputs
   against the reference, byte for byte.

With ``--trace 1`` every iteration starts with an untraced cold run (the
tracing overhead is the traced minus the untraced median), and the hooks
of ``tracing.HOOKS`` are installed for the other two runs. The per-layer
metrics of an iteration are those of its cold run, except the cache
counters and the ``rerun.*`` metrics, which are those of its rerun (the
cold run starts from an empty cache). The result is one JSON file
(``--result``).
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from generate import set_tip  # noqa: E402
from tracing import HOOKS, CountingHandler, Tracer, layer_metrics  # noqa: E402

# Per-layer metrics taken from the rerun instead of the cold run: the cache
# counters as they are, and the cache-path spans under a ``rerun.`` prefix.
RERUN_METRICS = ("mining.cache_hits", "mining.cache_misses", "mining.cache_hit_ratio")
RERUN_SPANS = (
    "mining.read_file_at.s",
    "mining.read_file_at.calls",
    "mining.build_ku_store.self_s",
)


class StageClock:
    """``echo`` for ``run_pipeline``: each stage's message ends the stage."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.last = 0.0

    def begin(self) -> None:
        self.last = perf_counter()

    def __call__(self, message: str) -> None:
        now = perf_counter()
        stage = f"pipeline.stage.{message.split(':', 1)[0]}.s"
        self.totals[stage] = self.totals.get(stage, 0.0) + now - self.last
        self.last = now


class Ops:
    """Attempted and failed operations: pipeline runs and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(problems)
        return not problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--project", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(Path("src").resolve()))
    from kurev.pipeline import ProjectConfig, run_pipeline

    project = args.project
    repo = project / "repo"
    manifest = json.loads((project / "manifest.json").read_text(encoding="utf-8"))
    warnings = CountingHandler()
    logging.getLogger("kurev").addHandler(warnings)
    ops = Ops()

    def run(label: str, tip: str, out: Path, echo=None) -> float | None:
        set_tip(repo, manifest[tip])
        config = ProjectConfig(
            repo=repo,
            prs=project / tip / "prs.jsonl",
            out_dir=out / "out",
            cache_dir=out / "cache",
            k_max=manifest["k_max"],
        )
        if echo is not None:
            echo.begin()
        start = perf_counter()
        try:
            run_pipeline(config, echo=echo or (lambda message: None))
        except Exception:
            ops.record([f"{label} run raised:\n{traceback.format_exc()}"])
            return None
        elapsed = perf_counter() - start
        ops.record([])
        return elapsed

    def check(out: Path) -> None:
        ops.record(checks.check_report(out))
        ops.record(checks.check_clusters(out))
        ops.record(checks.check_vectors(out, all_kus=manifest["all_kus"]))

    result: dict = {
        "pipeline_s": [], "rerun_s": [], "stages": [], "rerun_stages": [], "layers": []
    }
    reference = args.scratch / "reference"
    result["reference_s"] = run("reference", "grown", reference)
    if result["reference_s"] is not None:
        check(reference / "out")
        result["digest_grown"] = checks.digest(reference / "out")

    tracer = None
    if args.trace:
        result["untraced_s"] = []
        tracer = Tracer()

    started = perf_counter()
    while not result["pipeline_s"] or perf_counter() - started < args.seconds:
        work = args.scratch / "iteration"
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None:
            untraced = args.scratch / "untraced"
            shutil.rmtree(untraced, ignore_errors=True)
            elapsed = run("untraced", "base", untraced)
            if elapsed is not None:
                result["untraced_s"].append(elapsed)
            tracer.install(HOOKS)
        cold_clock, rerun_clock = StageClock(), StageClock()
        warnings.counts.clear()
        cold = run("cold", "base", work, cold_clock)
        cold_raw = tracer.summarize() if tracer is not None else {}
        cold_warnings = dict(warnings.counts)
        rerun = None
        if cold is not None:
            check(work / "out")
            result.setdefault("digest_base", checks.digest(work / "out"))
            result["pipeline_s"].append(cold)
            result["stages"].append(cold_clock.totals)
            rerun = run("rerun", "grown", work, rerun_clock)
        if rerun is not None:
            check(work / "out")
            if result["reference_s"] is not None:
                ops.record(checks.check_same_tree(reference / "out", work / "out"))
            result["rerun_s"].append(rerun)
            result["rerun_stages"].append(rerun_clock.totals)
        if tracer is not None:
            rerun_raw = tracer.summarize()
            tracer.uninstall()
            if rerun is not None:
                cold_layers = layer_metrics(cold_raw, tracer, cold_warnings)
                cold_layers.update(cold_clock.totals)
                rerun_layers = layer_metrics(rerun_raw, tracer, {})
                for key in RERUN_METRICS:
                    cold_layers.pop(key, None)
                    if key in rerun_layers:
                        cold_layers[key] = rerun_layers[key]
                for key in RERUN_SPANS:
                    if key in rerun_layers:
                        cold_layers["rerun." + key] = rerun_layers[key]
                result["layers"].append(cold_layers)
        if cold is None and perf_counter() - started >= args.seconds:
            break

    if tracer is not None:
        result["missing_hooks"] = tracer.missing
        result["callback_errors"] = dict(tracer.callback_errors)
    result["attempted"] = ops.attempted
    result["failed"] = ops.failed
    result["failures"] = ops.failures
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.result.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
