"""Size sweep, not gated: how the dominant costs grow with input size.

    python3 perfbench/sweep.py --seed 1

Runs ``review`` at 0.5x, 1x and 2x its PR count and ``team`` at 0.5x, 1x
and 2x its developers (and commits), one traced iteration each (a cold
run plus the incremental rerun), and prints ``pipeline.stage.evaluate.s``
and ``clustering.select_k.s`` with the growth factor per doubling of the
input: about 2 for linear cost, 4 for quadratic.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from generate import WORKLOADS  # noqa: E402
from run import ROOT, BenchError, per_layer, run_workload  # noqa: E402

FACTORS = (0.5, 1, 2)
SWEEPS = {
    "review": ("pipeline.stage.evaluate.s", "prs",
               lambda spec, f: replace(spec, prs=round(spec.prs * f))),
    "team": ("clustering.select_k.s", "devs",
             lambda spec, f: replace(spec, devs=round(spec.devs * f),
                                     commits=round(spec.commits * f))),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="input-size sweep (not gated)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(SWEEPS), action="append")
    args = parser.parse_args(argv)

    work = ROOT / ".perfbench_work" / f"sweep-{os.getpid()}"
    try:
        for name in args.workload or sorted(SWEEPS):
            metric, size_field, scale = SWEEPS[name]
            values = []
            for factor in FACTORS:
                spec = scale(WORKLOADS[name], factor)
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                result = run_workload(spec, args.seed, 0, True, work)
                value = per_layer(result)[metric]
                values.append(value)
                print(f"{name} {size_field}={getattr(spec, size_field)}"
                      f" {metric}={value:.4f} s failed_ops={result['failed']}", flush=True)
            steps = [b / a for a, b in zip(values, values[1:]) if a > 0]
            overall = math.prod(steps) ** (1 / len(steps)) if steps else float("nan")
            print(f"{name}: {metric} grows x{overall:.2f} per doubling of {size_field}"
                  f" (steps: {', '.join(f'x{s:.2f}' for s in steps)})")
        return 0
    except BenchError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
