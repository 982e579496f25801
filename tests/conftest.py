"""Shared fixtures: in-memory stores, scratch git repos, synthetic project."""

from __future__ import annotations

import subprocess
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from kurev.catalog import KU_COUNT
from kurev.mining import CommitRecord, KuStore
from kurev.prstore import PrDataset, PullRequest, ReviewComment
from kurev.util import parse_rfc3339


def dt(text: str) -> datetime:
    return parse_rfc3339(text)


def ku(**counts: int) -> list[int]:
    """KU vector from 1-based indices, e.g. ku(k1=2, k11=1)."""
    vector = [0] * KU_COUNT
    for key, value in counts.items():
        vector[int(key[1:]) - 1] = value
    return vector


def commit(sha: str, author: str, when: str, files: dict[str, list[int] | None]):
    """(CommitRecord, verdicts) pair for assembling stores by hand; each
    file's blob id is "<sha>:<path>", so no two records share a verdict."""
    blobs = {path: f"{sha}:{path}" for path in files}
    record = CommitRecord(
        hash=sha,
        author=author,
        authored_at=dt(when),
        changed_java_files=tuple(files),
        blob_ids=tuple(blobs.values()),
    )
    return record, {blobs[path]: vec for path, vec in files.items()}


def make_store(*commits_with_files) -> KuStore:
    records = []
    verdicts = {}
    for record, entries in commits_with_files:
        records.append(record)
        verdicts.update(entries)
    return KuStore(records, verdicts)


def make_pr(
    pr_id: int,
    opened: str,
    author: str,
    files,
    reviewers=(),
    comments=(),
    state: str = "closed",
    head_commit: str | None = None,
) -> PullRequest:
    return PullRequest(
        id=pr_id,
        opened_at=dt(opened),
        state=state,
        changed_files=tuple(files),
        reviewers=frozenset(reviewers),
        author=author,
        review_comments=tuple(
            ReviewComment(reviewer=r, path=p, commented_at=dt(at))
            for r, p, at in comments
        ),
        head_commit=head_commit,
    )


def make_dataset(*prs: PullRequest, project: str = "test") -> PrDataset:
    return PrDataset(project, tuple(sorted(prs, key=lambda p: (p.opened_at, p.id))))


class GitScratch:
    """Minimal scripted git repository for mining tests and the synthetic project."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        self._run("init", "-q", "-b", "main")
        self.clock = datetime(2022, 6, 1, 12, 0, tzinfo=timezone.utc)

    def _run(self, *args: str, env: dict | None = None) -> None:
        base = {
            "GIT_CONFIG_GLOBAL": "/dev/null",
            "GIT_CONFIG_SYSTEM": "/dev/null",
            "HOME": str(self.root),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        }
        if env:
            base.update(env)
        subprocess.run(
            ["git", "-C", str(self.root), *args],
            check=True,
            capture_output=True,
            env=base,
        )

    def write(self, path: str, content: str | bytes) -> None:
        target = self.root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            target.write_bytes(content)
        else:
            target.write_text(content, encoding="utf-8")

    def delete(self, path: str) -> None:
        (self.root / path).unlink()

    def commit(
        self,
        message: str,
        name: str = "Alice A",
        email: str = "alice@x.com",
        when: str | None = None,
    ) -> None:
        stamp = when or self.clock.strftime("%Y-%m-%dT%H:%M:%S+00:00")
        self._run("add", "-A")
        self._run(
            "commit", "-q", "--no-verify", "--allow-empty", "-m", message,
            env={
                "GIT_AUTHOR_NAME": name,
                "GIT_AUTHOR_EMAIL": email,
                "GIT_AUTHOR_DATE": stamp,
                "GIT_COMMITTER_NAME": "CI Bot",
                "GIT_COMMITTER_EMAIL": "ci@example.com",
                "GIT_COMMITTER_DATE": stamp,
            },
        )
        self.clock += timedelta(days=1)


@pytest.fixture()
def scratch_repo(tmp_path) -> GitScratch:
    return GitScratch(tmp_path / "repo")


@pytest.fixture(scope="session")
def synthetic_project(tmp_path_factory):
    """Materialized synthetic repo + PR export, mined once per session."""
    from kurev.mining import build_ku_store
    from kurev.prstore import chronological_split, filter_prs, load_prs
    from kurev.profiles import AsOf
    from tests.synthetic import build_synthetic_project

    base = tmp_path_factory.mktemp("synthetic")
    repo, prs_path = build_synthetic_project(base)
    store = build_ku_store(repo)
    filtered, _ = filter_prs(load_prs(prs_path))
    train, test = chronological_split(filtered)
    return {
        "base": base,
        "repo": repo,
        "prs_path": prs_path,
        "store": store,
        "dataset": filtered,
        "train": train,
        "test": test,
        "asof": AsOf(store, filtered.prs),
    }


@pytest.fixture(scope="session")
def crowded_project(tmp_path_factory):
    """A synthetic project of 16 developers, mined once per session: its
    base rankings run past K_MAX, up to 15 candidates, on the 4 test PRs."""
    from kurev.mining import build_ku_store
    from kurev.prstore import chronological_split, filter_prs, load_prs
    from kurev.profiles import AsOf
    from tests.synthetic import build_synthetic_project

    base = tmp_path_factory.mktemp("crowded")
    developers = [(f"Dev {i:02d}", f"dev{i:02d}@example.com") for i in range(16)]
    repo, prs_path = build_synthetic_project(
        base, n_devs=len(developers), n_commits=60, n_prs=20, developers=developers
    )
    store = build_ku_store(repo)
    store.save(base / "store")
    filtered, _ = filter_prs(load_prs(prs_path))
    _, test = chronological_split(filtered)
    return {
        "prs_path": prs_path,
        "store_dir": base / "store",
        "test": test,
        "asof": AsOf(store, filtered.prs),
    }
