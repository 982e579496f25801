"""Git mining oracles on small scripted repositories."""

from __future__ import annotations

import logging

import pytest

from kurev.detector import detect_kus
from kurev.errors import AbsentFileError, RepositoryError
from kurev.mining import (
    KuStore,
    build_ku_store,
    mine_commits,
    read_file_at,
    snapshot_file_kus,
)

JAVA_A = "class A { void run() { for (int i = 0; i < 3; i = i + 1) { } } }\n"
JAVA_C = "class C { void go() { try { } catch (Exception e) { } } }\n"


def three_commit_repo(scratch):
    scratch.write("a.java", JAVA_A)
    scratch.write("b.txt", "not java\n")
    scratch.commit("add a", name="Alice A", email="ALICE@x.com")
    scratch.write("c.java", JAVA_C)
    scratch.commit("add c", name="Bob B", email="bob@x.com")
    scratch.write("a.java", JAVA_A.replace("< 3", "< 5"))
    scratch.commit("touch a", name="Alice A", email="alice@x.com")
    return scratch


def test_mine_commits_oracle(scratch_repo):
    # [DERIVED] hand-traced: 3 commits oldest-first; b.txt never appears;
    # author identity is casefolded "name <email>".
    repo = three_commit_repo(scratch_repo)
    records = mine_commits(repo.root)
    assert len(records) == 3
    assert [r.changed_java_files for r in records] == [
        ("a.java",),
        ("c.java",),
        ("a.java",),
    ]
    assert records[0].author == "alice a <alice@x.com>"
    assert records[1].author == "bob b <bob@x.com>"
    assert records[0].authored_at < records[1].authored_at < records[2].authored_at


def test_empty_repository_yields_no_commits(scratch_repo):
    assert mine_commits(scratch_repo.root) == []


def test_not_a_repository_raises(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    with pytest.raises(RepositoryError):
        mine_commits(plain)


def test_merge_commit_uses_first_parent_diff(scratch_repo):
    repo = scratch_repo
    repo.write("base.java", "class Base { }\n")
    repo.commit("base")
    repo._run("checkout", "-q", "-b", "feature")
    repo.write("feat.java", "class Feat { }\n")
    repo.commit("feature work", name="Bob B", email="bob@x.com")
    repo._run("checkout", "-q", "main")
    repo.write("main.java", "class Main { }\n")
    repo.commit("mainline work")
    repo._run(
        "merge", "-q", "--no-ff", "--no-edit", "feature",
        env={
            "GIT_AUTHOR_NAME": "Alice A", "GIT_AUTHOR_EMAIL": "alice@x.com",
            "GIT_AUTHOR_DATE": "2022-06-10T12:00:00+00:00",
            "GIT_COMMITTER_NAME": "CI Bot", "GIT_COMMITTER_EMAIL": "ci@x.com",
            "GIT_COMMITTER_DATE": "2022-06-10T12:00:00+00:00",
        },
    )
    first_parent = mine_commits(repo.root)
    # first-parent chain: base, mainline, merge — the merge's diff against
    # its first parent brings in the feature file exactly once
    assert len(first_parent) == 3
    assert first_parent[-1].changed_java_files == ("feat.java",)
    everything = mine_commits(repo.root, all_commits=True)
    assert len(everything) == 4


def test_deleted_file_gets_null_vector(scratch_repo):
    repo = scratch_repo
    repo.write("a.java", JAVA_A)
    repo.commit("add")
    repo.delete("a.java")
    repo.commit("remove")
    store = build_ku_store(repo.root)
    assert len(store.commits) == 2
    deletion_key = (store.commits[1].hash, "a.java")
    assert store.vectors[deletion_key] is None
    creation_key = (store.commits[0].hash, "a.java")
    assert store.vectors[creation_key] is not None
    assert sum(store.vectors[creation_key]) > 0


def test_binary_java_file_gets_null_vector(scratch_repo):
    repo = scratch_repo
    repo.write("bad.java", b"\x00\x01\x02 class?")
    repo.commit("binary blob")
    store = build_ku_store(repo.root)
    assert store.vectors[(store.commits[0].hash, "bad.java")] is None


def test_over_deep_file_is_an_unparseable_skip(scratch_repo, caplog):
    repo = scratch_repo
    repo.write("deep.java", "class D { int x = " + "(" * 500 + "1" + ")" * 500 + "; }\n")
    repo.write("a.java", JAVA_A)
    repo.commit("deep and plain")
    with caplog.at_level(logging.WARNING, logger="kurev.mining"):
        store = build_ku_store(repo.root)
    sha = store.commits[0].hash
    assert store.vectors == {(sha, "a.java"): detect_kus(JAVA_A), (sha, "deep.java"): None}
    assert [r.getMessage() for r in caplog.records] == [f"unparseable deep.java at {sha[:12]}"]


def test_snapshot_and_read_file_at(scratch_repo):
    repo = three_commit_repo(scratch_repo)
    records = mine_commits(repo.root)
    content = read_file_at(repo.root, records[0].hash, "a.java")
    assert content.decode() == JAVA_A
    vector = snapshot_file_kus(repo.root, records[0].hash, "a.java")
    assert vector[3] >= 1  # K4 Loop fires for the for-statement
    with pytest.raises(AbsentFileError):
        read_file_at(repo.root, records[0].hash, "c.java")


def test_cache_cold_equals_warm(scratch_repo, tmp_path):
    repo = three_commit_repo(scratch_repo)
    cache = tmp_path / "cache.jsonl"
    cold = build_ku_store(repo.root, cache_path=cache)
    assert cache.exists()
    warm = build_ku_store(repo.root, cache_path=cache)
    assert cold.vectors == warm.vectors
    assert [c.to_dict() for c in cold.commits] == [c.to_dict() for c in warm.commits]


def test_corrupt_cache_is_rebuilt(scratch_repo, tmp_path):
    repo = three_commit_repo(scratch_repo)
    cache = tmp_path / "cache.jsonl"
    cache.write_text("{not json\n", encoding="utf-8")
    store = build_ku_store(repo.root, cache_path=cache)
    assert len(store.vectors) == 3


def test_store_save_load_round_trip(scratch_repo, tmp_path):
    repo = three_commit_repo(scratch_repo)
    store = build_ku_store(repo.root)
    out = tmp_path / "store"
    store.save(out)
    again = KuStore.load(out)
    assert again.vectors == store.vectors
    assert [c.to_dict() for c in again.commits] == [c.to_dict() for c in store.commits]
    # reruns are byte-identical
    first = (out / "file_kus.jsonl").read_bytes()
    store.save(out)
    assert (out / "file_kus.jsonl").read_bytes() == first


def test_store_validate_rejects_stray_records(scratch_repo):
    repo = three_commit_repo(scratch_repo)
    store = build_ku_store(repo.root)
    store.vectors[("deadbeef", "ghost.java")] = [0] * 28
    with pytest.raises(ValueError):
        store.validate()
