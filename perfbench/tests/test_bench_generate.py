"""The seeded generator: same seed, same bytes; growth extends the base."""

import subprocess
from dataclasses import replace

import pytest

from generate import WORKLOADS, generate, set_tip

SMALL = {
    "history": replace(WORKLOADS["history"], devs=4, files=6, commits=20, prs=12),
    "review": replace(WORKLOADS["review"], devs=5, files=8, commits=20, prs=15),
    "team": replace(WORKLOADS["team"], devs=12, commits=16, prs=10),
}


def snapshot(root):
    git = ["git", "-C", str(root / "repo")]
    log = subprocess.run(
        [*git, "log", "--format=%H %an %aI", "main"], capture_output=True, text=True,
        check=True,
    ).stdout
    return (
        log,
        (root / "base" / "prs.jsonl").read_bytes(),
        (root / "grown" / "prs.jsonl").read_bytes(),
        (root / "manifest.json").read_bytes(),
    )


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_identical_project(tmp_path, name):
    generate(SMALL[name], 3, tmp_path / "a")
    generate(SMALL[name], 3, tmp_path / "b")
    generate(SMALL[name], 4, tmp_path / "c")
    assert snapshot(tmp_path / "a") == snapshot(tmp_path / "b")
    assert snapshot(tmp_path / "a")[0] != snapshot(tmp_path / "c")[0]


def test_growth_step_extends_base(tmp_path):
    spec = SMALL["review"]
    manifest = generate(spec, 5, tmp_path)
    repo = tmp_path / "repo"

    def count():
        out = subprocess.run(
            ["git", "-C", str(repo), "rev-list", "--count", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return int(out.stdout)

    assert count() == spec.commits + spec.growth_commits
    set_tip(repo, manifest["base"])
    assert count() == spec.commits
    base = (tmp_path / "base" / "prs.jsonl").read_text().splitlines()
    grown = (tmp_path / "grown" / "prs.jsonl").read_text().splitlines()
    assert grown[: len(base)] == base
    assert len(grown) == spec.prs + spec.growth_prs
