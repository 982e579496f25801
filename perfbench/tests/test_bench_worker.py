"""The worker end to end on a tiny project: runs, checks and per-run layers."""

import json
import subprocess
import sys
from dataclasses import replace

from conftest import BENCH
from generate import WORKLOADS, generate, git_env


def test_traced_worker_splits_cold_and_rerun_layers(tmp_path):
    spec = replace(WORKLOADS["history"], devs=4, files=8, commits=40, prs=20)
    generate(spec, 2, tmp_path / "project")
    result_path = tmp_path / "result.json"
    subprocess.run(
        [
            sys.executable, str(BENCH / "worker.py"),
            "--project", str(tmp_path / "project"), "--scratch", str(tmp_path / "runs"),
            "--result", str(result_path), "--seconds", "0", "--trace", "1",
        ],
        cwd=BENCH.parent, env=git_env(), check=True, timeout=120,
    )
    result = json.loads(result_path.read_text())

    assert result["failed"] == 0, result["failures"]
    assert len(result["pipeline_s"]) == len(result["rerun_s"]) == 1
    assert len(result["untraced_s"]) == 1
    assert result["missing_hooks"] == []
    (layers,) = result["layers"]
    # The cold run starts from an empty cache and detects every record; the
    # cache counters come from the rerun, which detects only the growth.
    hits, misses = layers["mining.cache_hits"], layers["mining.cache_misses"]
    assert 0 < misses < layers["detector.detect_kus.calls"]
    assert hits > misses
    assert layers["mining.cache_hit_ratio"] == hits / (hits + misses)
    assert layers["rerun.mining.read_file_at.calls"] == hits + misses
    assert layers["pipeline.stage.mine.s"] > 0
