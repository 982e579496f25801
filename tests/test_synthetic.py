"""Determinism of the synthetic project generator."""

from __future__ import annotations

from kurev.mining import mine_commits
from tests.synthetic import (
    DEVELOPERS,
    build_synthetic_prs,
    build_synthetic_repo,
    identity,
)
from kurev.util import dump_json_line


def test_pr_export_bytes_are_seed_deterministic():
    a = build_synthetic_prs(seed=7)
    b = build_synthetic_prs(seed=7)
    assert [dump_json_line(r) for r in a] == [dump_json_line(r) for r in b]
    different = build_synthetic_prs(seed=8)
    assert [dump_json_line(r) for r in a] != [dump_json_line(r) for r in different]


def test_pr_export_shape():
    records = build_synthetic_prs(n_prs=12)
    assert len(records) == 12
    assert len({r["id"] for r in records}) == 12
    for record in records:
        assert record["state"] == "closed"
        assert record["author"] not in record["reviewers"]
        assert record["reviewers"]


def test_repo_matches_manifest(tmp_path):
    manifest = build_synthetic_repo(tmp_path / "repo", n_commits=10, seed=7)
    commits = mine_commits(tmp_path / "repo")
    assert len(commits) == 10
    for entry, record in zip(manifest, commits):
        assert record.author == entry["author"]
        java_paths = [p for p in entry["paths"] if p.endswith(".java")]
        assert sorted(record.changed_java_files) == sorted(java_paths)


def test_identity_helper_is_normalized():
    assert identity(0) == f"{DEVELOPERS[0][0].lower()} <{DEVELOPERS[0][1]}>"
