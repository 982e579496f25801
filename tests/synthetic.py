"""Deterministic synthetic mini-project: a git repo plus a PR export.

Used by the test-suite oracles and by the end-to-end pipeline smoke run.
The repository is built through ``conftest.GitScratch``. Content,
authors, and timestamps are all derived from the seed, so the same seed
always produces the same commit graph and the same PR export bytes
(commit hashes included, since dates and committers are pinned).
``offset`` moves every commit, PR and comment date by the same amount,
and ``developers`` gives the (name, email) pairs that authors and
reviewers are drawn from, by index.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from datetime import datetime, timedelta, timezone
from pathlib import Path

from kurev.util import dump_json_line, format_rfc3339, normalize_identity
from tests.conftest import GitScratch

DEVELOPERS = (
    ("Alice Adams", "alice@example.com"),
    ("Bob Brown", "bob@example.com"),
    ("Carol Clark", "carol@example.com"),
    ("Dan Diaz", "dan@example.com"),
    ("Eve Evans", "eve@example.com"),
)

START = datetime(2023, 1, 2, 9, 0, tzinfo=timezone.utc)

_FILES = (
    "core/Engine.java",
    "core/Scheduler.java",
    "io/Loader.java",
    "io/Exporter.java",
    "web/Endpoint.java",
    "util/Text.java",
)

_EXTRAS = (
    "    void loop{i}() {{ for (int i = 0; i < {n}; i = i + 1) {{ tick(); }} }}",
    "    void guard{i}() {{ try {{ tick(); }} catch (Exception e) {{ }} }}",
    "    void pick{i}(int a, int b) {{ if (a == b) {{ tick(); }} }}",
    "    void arr{i}() {{ int[] xs = new int[{n}]; xs[0] = 1; }}",
    "    java.util.List<String> gen{i}() {{ return new java.util.ArrayList<String>(); }}",
    "    void text{i}(String s) {{ s.substring(1).split(\",\"); }}",
    "    void io{i}(java.nio.file.Path p) {{ java.nio.file.Files.exists(p); }}",
    "    synchronized void sync{i}() {{ tick(); }}",
)


def _java_source(path: str, extras: list[str]) -> str:
    cls = Path(path).stem
    body = "\n".join(extras)
    return (
        f"class {cls} {{\n"
        "    void tick() { }\n"
        f"{body}\n"
        "}\n"
    )


def identity(index: int, developers: Sequence[tuple[str, str]] = DEVELOPERS) -> str:
    name, email = developers[index]
    return normalize_identity(name, email)


def build_synthetic_repo(
    repo_dir: str | Path,
    n_devs: int = 5,
    n_commits: int = 30,
    seed: int = 7,
    between=None,
    offset: timedelta = timedelta(0),
    developers: Sequence[tuple[str, str]] = DEVELOPERS,
) -> list[dict]:
    """Create the repository; returns one manifest dict per commit.

    ``between(repo, manifest)``, if given, runs after each commit with the
    manifest so far; commits it makes itself are not in the manifest.
    """
    repo = GitScratch(Path(repo_dir))
    rng = random.Random(seed)
    start = START + offset
    contents: dict[str, list[str]] = {}
    manifest = []
    for i in range(n_commits):
        author_ix = rng.randrange(n_devs)
        name, email = developers[author_ix]
        when = start + timedelta(days=i, hours=author_ix)
        paths = rng.sample(_FILES, k=rng.choice((1, 1, 2)))
        for path in paths:
            extras = contents.setdefault(path, [])
            template = rng.choice(_EXTRAS)
            extras.append(template.format(i=i, n=rng.randrange(2, 9)))
            repo.write(path, _java_source(path, extras))
        if i == 0:
            repo.write("README.md", "synthetic project\n")
        repo.commit(
            f"change {i}",
            name=name,
            email=email,
            when=when.strftime("%Y-%m-%dT%H:%M:%S+00:00"),
        )
        manifest.append(
            {
                "index": i,
                "author": normalize_identity(name, email),
                "authored_at": format_rfc3339(when),
                "paths": list(paths),
            }
        )
        if between is not None:
            between(repo, manifest)
    return manifest


def build_synthetic_prs(
    n_devs: int = 5,
    n_prs: int = 12,
    seed: int = 7,
    first_open_day: int = 8,
    offset: timedelta = timedelta(0),
    developers: Sequence[tuple[str, str]] = DEVELOPERS,
) -> list[dict]:
    """PR export records (dicts ready for JSONL) over the synthetic files."""
    rng = random.Random(seed * 31 + 1)
    start = START + offset
    records = []
    for j in range(n_prs):
        opened = start + timedelta(days=first_open_day + 2 * j, hours=12)
        author_ix = rng.randrange(n_devs)
        reviewer_pool = [i for i in range(n_devs) if i != author_ix]
        reviewers = rng.sample(reviewer_pool, k=rng.choice((1, 1, 2)))
        changed = rng.sample(_FILES, k=rng.choice((1, 2, 3)))
        if rng.random() < 0.25:
            changed = changed + ["docs/notes.md"]
        comments = []
        for r in reviewers:
            for c in range(rng.choice((1, 2))):
                comments.append(
                    {
                        "reviewer": identity(r, developers),
                        "path": rng.choice(changed),
                        "commented_at": format_rfc3339(
                            opened + timedelta(hours=3 + 5 * c)
                        ),
                    }
                )
        records.append(
            {
                "id": j + 1,
                "opened_at": format_rfc3339(opened),
                "state": "closed",
                "changed_files": changed,
                "reviewers": sorted(identity(r, developers) for r in reviewers),
                "author": identity(author_ix, developers),
                "review_comments": comments,
                "head_commit": None,
            }
        )
    return records


def build_synthetic_project(
    base_dir: str | Path,
    n_devs: int = 5,
    n_commits: int = 30,
    n_prs: int = 12,
    seed: int = 7,
    offset: timedelta = timedelta(0),
    developers: Sequence[tuple[str, str]] = DEVELOPERS,
) -> tuple[Path, Path]:
    """Materialize repo + PR export under base_dir; returns their paths."""
    base = Path(base_dir)
    repo = base / "repo"
    build_synthetic_repo(repo, n_devs=n_devs, n_commits=n_commits, seed=seed,
                         offset=offset, developers=developers)
    prs_path = base / "prs.jsonl"
    records = build_synthetic_prs(n_devs=n_devs, n_prs=n_prs, seed=seed,
                                  offset=offset, developers=developers)
    prs_path.write_text(
        "".join(dump_json_line(r) + "\n" for r in records), encoding="utf-8"
    )
    return repo, prs_path
