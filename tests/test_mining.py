"""Git mining oracles on small scripted repositories."""

from __future__ import annotations

import logging
import os
import subprocess
import threading

import pytest

from kurev import detector, mining
from kurev.detector import detect_kus, detection_key
from kurev.errors import AbsentFileError, KurevError, ParseError, RepositoryError
from kurev.mining import (
    KuStore,
    build_ku_store,
    mine_commits,
    read_file_at,
    read_verdicts,
    write_verdicts,
)
from kurev.util import read_jsonl, sha256_bytes, write_jsonl

JAVA_A = "class A { void run() { for (int i = 0; i < 3; i = i + 1) { } } }\n"
JAVA_C = "class C { void go() { try { } catch (Exception e) { } } }\n"
MERGE_ENV = {
    "GIT_AUTHOR_NAME": "Alice A", "GIT_AUTHOR_EMAIL": "alice@x.com",
    "GIT_AUTHOR_DATE": "2022-06-10T12:00:00+00:00",
    "GIT_COMMITTER_NAME": "CI Bot", "GIT_COMMITTER_EMAIL": "ci@x.com",
    "GIT_COMMITTER_DATE": "2022-06-10T12:00:00+00:00",
}


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


def test_mining_a_repository_starts_two_git_processes(scratch_repo, monkeypatch):
    repo = three_commit_repo(scratch_repo)
    started = []
    run = subprocess.run

    def recorded(args, **kwargs):
        started.append(args)
        return run(args, **kwargs)

    monkeypatch.setattr(subprocess, "run", recorded)
    assert len(mine_commits(repo.root)) == 3
    assert [args[3] for args in started] == ["rev-parse", "log"]


def test_not_a_repository_raises(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    with pytest.raises(RepositoryError):
        mine_commits(plain)


def test_a_shallow_clone_is_refused(scratch_repo, tmp_path):
    repo = three_commit_repo(scratch_repo)
    clone = tmp_path / "clone"
    subprocess.run(["git", "clone", "-q", "--depth", "1", repo.root.as_uri(), str(clone)],
                   check=True, capture_output=True)
    # the clone's one commit would claim every file as its own
    with pytest.raises(RepositoryError, match="git fetch --unshallow"):
        mine_commits(clone)


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
    repo._run("merge", "-q", "--no-ff", "--no-edit", "feature", env=MERGE_ENV)
    first_parent = mine_commits(repo.root)
    # first-parent chain: base, mainline, merge — the merge's diff against
    # its first parent brings in the feature file exactly once
    assert len(first_parent) == 3
    assert first_parent[-1].changed_java_files == ("feat.java",)
    everything = mine_commits(repo.root, all_commits=True)
    assert len(everything) == 4


def test_merges_are_counted_in_one_warning_per_mine(scratch_repo, caplog):
    repo = scratch_repo
    repo.write("base.java", "class Base { }\n")
    repo.commit("base", name="Carol C", email="carol@x.com")
    for branch in ("one", "two"):
        repo._run("checkout", "-q", "-b", branch, "main")
        repo.write(f"{branch}.java", "class X { }\n")
        repo.write(f"{branch}2.java", "class Y { }\n")
        repo.commit(f"{branch} work", name="Bob B", email="bob@x.com")
        repo._run("checkout", "-q", "main")
        repo._run("merge", "-q", "--no-ff", "--no-edit", branch, env=MERGE_ENV)
    for all_commits in (False, True):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="kurev.mining"):
            records = mine_commits(repo.root, all_commits=all_commits)
        # the crediting rule is unchanged: each merge claims its side's two files
        assert [r.changed_java_files for r in records if r.author.startswith("alice")] == [
            ("one.java", "one2.java"), ("two.java", "two2.java")]
        assert [r.getMessage() for r in caplog.records] == [
            "credited 2 merge commits with the 4 Java files of their first-parent diffs"
        ]


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


def test_deep_file_gets_a_vector_and_a_binary_one_is_an_unparseable_skip(
    scratch_repo, caplog
):
    repo = scratch_repo
    deep = "class D { int x = " + "(" * 500 + "1" + ")" * 500 + "; }\n"
    repo.write("deep.java", deep)
    repo.write("bad.java", b"\x00\x01\x02 class?")
    repo.write("a.java", JAVA_A)
    repo.commit("deep, binary and plain")
    with caplog.at_level(logging.WARNING, logger="kurev.mining"):
        store = build_ku_store(repo.root)
    sha = store.commits[0].hash
    assert store.vectors == {
        (sha, "a.java"): detect_kus(JAVA_A),
        (sha, "bad.java"): None,
        (sha, "deep.java"): detect_kus(deep),
    }
    assert [r.getMessage() for r in caplog.records] == [f"unparseable bad.java at {sha[:12]}"]


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
    assert again.commits == store.commits  # blob ids included
    assert read_jsonl(out / "index.json") == [
        {"catalog": store.key, "commits": 3, "file_records": 3, "format": 2}
    ]
    # reruns are byte-identical
    first = (out / "file_kus.jsonl").read_bytes()
    store.save(out)
    assert (out / "file_kus.jsonl").read_bytes() == first


def test_store_table_holds_exactly_the_blobs_its_records_name_and_git_produced(
    scratch_repo, tmp_path
):
    # [DERIVED] a deletion, a blob the repository lost and a cache line of
    # another history get no line; a blob named under two paths gets one
    repo = history_repo(scratch_repo)
    repo.write("gone.java", "class Gone { }\n")
    repo.commit("add gone")
    lost = rev_parse(repo, "HEAD:gone.java")
    (repo.root / ".git" / "objects" / lost[:2] / lost[2:]).unlink()
    key = detection_key(mining.load_catalog())
    cache = tmp_path / "cache.jsonl"
    write_verdicts(cache, {"f" * 40: [1] * 28}, key)
    store = build_ku_store(repo.root, cache_path=cache)
    store.save(tmp_path / "store")
    table = read_jsonl(tmp_path / "store" / "file_kus.jsonl")
    named = list(dict.fromkeys(b for c in store.commits for b in c.blob_ids))
    assert "0" * 40 in named and lost in named
    produced = [b for b in named if b not in ("0" * 40, lost)]
    assert len(produced) == 4  # both versions of a.java, C, feat
    assert [rec["blob"] for rec in table] == produced  # in order of first appearance
    assert all(rec.keys() == {"blob", "catalog", "vector"} for rec in table)
    assert {rec["catalog"] for rec in table} == {key}
    assert read_verdicts(cache, key)["f" * 40] == [1] * 28  # the cache keeps it
    assert KuStore.load(tmp_path / "store").vectors == store.vectors


def save_format_1(store, out):
    """``store`` as format 1 saved it: no blob ids, and a vector per record."""
    write_jsonl(out / "commits.jsonl", (
        {k: v for k, v in c.to_dict().items() if k != "blob_ids"} for c in store.commits
    ))
    write_jsonl(out / "file_kus.jsonl", (
        {"commit": h, "path": p, "vector": v} for (h, p), v in sorted(store.vectors.items())
    ))
    index = {"commits": len(store.commits), "file_records": len(store.vectors), "format": 1}
    write_jsonl(out / "index.json", [index])


def test_store_of_another_format_is_refused_by_name(scratch_repo, tmp_path):
    save_format_1(build_ku_store(three_commit_repo(scratch_repo).root), tmp_path)
    with pytest.raises(KurevError, match="format 1"):
        KuStore.load(tmp_path)


def rev_parse(repo, name):
    return subprocess.run(
        ["git", "-C", str(repo.root), "rev-parse", name],
        check=True, capture_output=True, text=True,
    ).stdout.strip()


def test_symlinks_named_java_are_skipped_with_one_warning(scratch_repo, caplog):
    # [DERIVED] a symlink's blob is its target's path: no Java source
    repo = scratch_repo
    repo.write("A.java", JAVA_A)
    os.symlink("A.java", repo.root / "Link.java")
    os.symlink("missing/Target.java", repo.root / "Dangling.java")
    repo.commit("add A and two links")
    repo.delete("Link.java")
    repo.commit("remove a link")
    with caplog.at_level(logging.WARNING, logger="kurev.mining"):
        store = build_ku_store(repo.root)
    assert [c.changed_java_files for c in store.commits] == [("A.java",), ()]
    assert [r.getMessage() for r in caplog.records] == [
        "skipped 3 symlink or submodule entries named *.java"
    ]


def test_gitlink_named_java_is_skipped_and_never_read(scratch_repo, tmp_path, monkeypatch):
    repo = scratch_repo
    repo.write("A.java", JAVA_A)
    repo.commit("add A")
    sha = rev_parse(repo, "HEAD")
    repo._run("update-index", "--add", "--cacheinfo", f"160000,{sha},Sub.java")
    repo._run("commit", "-q", "-m", "add a submodule", env=MERGE_ENV)
    cache = tmp_path / "cache.jsonl"
    requests = cat_file_requests(monkeypatch)
    for _ in range(2):
        store = build_ku_store(repo.root, cache_path=cache)
        assert [c.changed_java_files for c in store.commits] == [("A.java",), ()]
    assert requests == [[rev_parse(repo, "HEAD~1:A.java")]]  # the first mine only


# --- the batch read path against the per-file reference reader ---------------


def snapshot_file_kus(repo_path, commit, path):
    """KU vector of the full file content at one snapshot."""
    data = read_file_at(repo_path, commit, path)
    return detect_kus(data.decode("utf-8", "replace"))


def naive_vectors(repo, all_commits=False):
    """Store vectors the slow way: one ``git show`` and one detection per record."""
    out = {}
    for commit in mine_commits(repo, all_commits=all_commits):
        for path in commit.changed_java_files:
            try:
                out[(commit.hash, path)] = snapshot_file_kus(repo, commit.hash, path)
            except (AbsentFileError, ParseError):  # deleted, or unparseable
                out[(commit.hash, path)] = None
    return out


def count_calls(monkeypatch, name):
    """Wrap ``kurev.mining.<name>`` to record its calls; returns the record."""
    calls = []
    original = getattr(mining, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mining, name, spy)
    return calls


def finishes(fn, *args, timeout=60, **kwargs):
    """``fn(*args, **kwargs)``, failing the test if it has not returned in time."""
    box = {}

    def run():
        try:
            box["value"] = fn(*args, **kwargs)
        except BaseException as exc:  # handed to the test thread below
            box["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"{fn.__name__} still running after {timeout} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def history_repo(scratch):
    """A merge, a deletion, a re-added file and one blob under two paths."""
    scratch.write("a.java", JAVA_A)
    scratch.write("shared.java", JAVA_C)
    scratch.commit("base")
    scratch._run("checkout", "-q", "-b", "feature")
    scratch.write("feat.java", "class Feat { int[] xs = new int[3]; }\n")
    scratch.commit("feature work", name="Bob B", email="bob@x.com")
    scratch._run("checkout", "-q", "main")
    scratch.write("a.java", JAVA_A.replace("< 3", "< 5"))
    scratch.commit("touch a")
    scratch.delete("a.java")
    scratch.commit("remove a")
    scratch._run("merge", "-q", "--no-ff", "--no-edit", "feature", env=MERGE_ENV)
    scratch.write("a.java", JAVA_A)  # the blob of the first commit again
    scratch.write("copy.java", JAVA_C)  # the blob of shared.java
    scratch.commit("re-add a, copy shared")
    return scratch


def test_paths_git_would_quote_are_mined(scratch_repo):
    # [DERIVED] git quotes non-ASCII and tab characters in paths unless -z
    # is given; each file must be listed under its real name
    names = ["\u00e9.java", "a b.java", "a\tb.java"]
    for i, name in enumerate(names):
        scratch_repo.write(name, JAVA_A.replace("A", f"A{i}", 1))
    scratch_repo.commit("awkward names")
    store = build_ku_store(scratch_repo.root)
    (record,) = store.commits
    assert sorted(record.changed_java_files) == sorted(names)
    for name in names:
        assert store.vectors[(record.hash, name)] == detect_kus(JAVA_A)


def test_non_utf8_paths_are_skipped(scratch_repo, tmp_path, caplog):
    # [DERIVED] a Latin-1 name has no str that a PR file path could carry;
    # two of them in one commit must not collapse into one record
    for i, raw in enumerate([b"\xe9.java", b"\xe8.java"]):
        scratch_repo.write(os.fsdecode(raw), JAVA_A.replace("A", f"A{i}", 1))
    scratch_repo.write("ok.java", JAVA_C)
    scratch_repo.commit("latin-1 names")
    with caplog.at_level(logging.WARNING, logger="kurev.mining"):
        store = build_ku_store(scratch_repo.root)
    (record,) = store.commits
    assert record.changed_java_files == ("ok.java",)
    assert store.vectors == {(record.hash, "ok.java"): detect_kus(JAVA_C)}
    assert sum("non-UTF-8 path" in r.getMessage() for r in caplog.records) == 2
    store.save(tmp_path / "store")
    assert KuStore.load(tmp_path / "store").vectors == store.vectors


def test_store_equals_naive_reader_on_synthetic_project(synthetic_project):
    assert synthetic_project["store"].vectors == naive_vectors(synthetic_project["repo"])


@pytest.mark.parametrize("all_commits", [False, True])
def test_store_equals_naive_reader_across_merge_delete_readd(
    scratch_repo, monkeypatch, all_commits
):
    repo = history_repo(scratch_repo)
    detections = count_calls(monkeypatch, "detect_kus")
    store = build_ku_store(repo.root, all_commits=all_commits)
    monkeypatch.undo()
    assert store.vectors == naive_vectors(repo.root, all_commits)
    files = [c.changed_java_files for c in store.commits]
    if not all_commits:
        assert files == [
            ("a.java", "shared.java"), ("a.java",), ("a.java",), ("feat.java",),
            ("a.java", "copy.java"),
        ]
        deletion = (store.commits[2].hash, "a.java")
        assert store.vectors[deletion] is None
    # one detection per distinct content: both versions of a.java, C, feat
    assert len(detections) == 4


def cat_file_requests(monkeypatch):
    """Wrap ``kurev.mining._git`` to record the ids each cat-file call asks for."""
    requests = []
    git = mining._git

    def spy(repo_path, *args, stdin=None):
        if "cat-file" in args:
            requests.append(stdin.decode().split())
        return git(repo_path, *args, stdin=stdin)

    monkeypatch.setattr(mining, "_git", spy)
    return requests


def test_warm_rebuild_reads_no_blob(scratch_repo, tmp_path, monkeypatch):
    repo = history_repo(scratch_repo)
    cache = tmp_path / "cache.jsonl"
    reads = count_calls(monkeypatch, "_read_blobs")
    requests = cat_file_requests(monkeypatch)
    cold = build_ku_store(repo.root, cache_path=cache)
    # the deletion is not read; repeated blobs once
    assert sum(len(ids) for _, ids in reads) == 4
    reads.clear()
    requests.clear()
    warm = build_ku_store(repo.root, cache_path=cache)
    assert sum(len(ids) for _, ids in reads) == 0
    assert requests == []  # no cat-file process at all
    assert warm.vectors == cold.vectors


@pytest.mark.parametrize("batch", [1, 2])
def test_batched_reads_equal_naive_reader(scratch_repo, monkeypatch, batch):
    repo = history_repo(scratch_repo)
    monkeypatch.setattr(mining, "_BATCH", batch)
    requests = cat_file_requests(monkeypatch)
    store = build_ku_store(repo.root)
    monkeypatch.undo()
    assert store.vectors == naive_vectors(repo.root)
    assert [len(ids) for ids in requests] == [batch] * (4 // batch)


def test_content_hash_cache_entries_are_misses(scratch_repo, tmp_path, monkeypatch):
    # [DERIVED] a cache written before entries were keyed by blob id holds
    # sha256(content) keys; they must neither crash the run nor be served
    repo = history_repo(scratch_repo)
    catalog_hash = mining.load_catalog().digest
    contents = {JAVA_A, JAVA_A.replace("< 3", "< 5"), JAVA_C}
    cache = tmp_path / "cache.jsonl"
    write_jsonl(cache, (
        {"catalog": catalog_hash, "content": sha256_bytes(c.encode()), "vector": [9] * 28}
        for c in sorted(contents)
    ))
    detections = count_calls(monkeypatch, "detect_kus")
    store = build_ku_store(repo.root, cache_path=cache)
    monkeypatch.undo()
    assert store.vectors == naive_vectors(repo.root)
    assert len(detections) == 4
    assert all("blob" in rec for rec in read_jsonl(cache))


def test_unparseable_verdict_is_detected_once_then_cached(scratch_repo, tmp_path, monkeypatch):
    # A verdict depends on the blob's bytes alone, so a None is cached like
    # a vector: each blob is detected once in the first run, none in the second
    repo = scratch_repo
    repo.write("bad.java", b"\x00\x01 class?")
    repo.commit("binary blob")
    repo.write("copy.java", b"\x00\x01 class?")  # the same blob again
    repo.write("a.java", JAVA_A)
    repo.commit("copy it, add a")
    cache = tmp_path / "cache.jsonl"
    detections = count_calls(monkeypatch, "detect_kus")
    for run in range(2):
        detections.clear()
        store = build_ku_store(repo.root, cache_path=cache)
        binary = [args for args in detections if "\x00" in args[0]]
        assert len(binary) == 1 - run and len(detections) == 2 - 2 * run
        assert sum(v is None for v in store.vectors.values()) == 2
        cached = [rec["vector"] for rec in read_jsonl(cache)]
        assert sorted(cached, key=lambda v: v is None) == [detect_kus(JAVA_A), None]


def test_null_cache_record_is_a_hit_under_the_current_key_only(scratch_repo, tmp_path):
    repo = scratch_repo
    repo.write("a.java", JAVA_A)
    repo.commit("add a")
    blob = subprocess.run(
        ["git", "-C", str(repo.root), "rev-parse", "HEAD:a.java"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    cache = tmp_path / "cache.jsonl"
    catalog = mining.load_catalog()
    write_jsonl(cache, [{"blob": blob, "catalog": detection_key(catalog), "vector": None}])
    store = build_ku_store(repo.root, cache_path=cache)
    assert list(store.vectors.values()) == [None]  # served as cached
    # the same record under the catalog's digest alone, as written before
    # the key covered the detection code, is a miss
    write_jsonl(cache, [{"blob": blob, "catalog": catalog.digest, "vector": None}])
    store = build_ku_store(repo.root, cache_path=cache)
    assert list(store.vectors.values()) == [detect_kus(JAVA_A)]
    assert [rec["vector"] for rec in read_jsonl(cache)] == [detect_kus(JAVA_A)]


def test_cache_records_miss_under_another_detection_code_digest(
    scratch_repo, tmp_path, monkeypatch
):
    repo = history_repo(scratch_repo)
    cache = tmp_path / "cache.jsonl"
    cold = build_ku_store(repo.root, cache_path=cache)
    monkeypatch.setattr(detector, "_code_digest", lambda: "other detection code")
    other_key = detection_key(mining.load_catalog())
    detections = count_calls(monkeypatch, "detect_kus")
    rebuilt = build_ku_store(repo.root, cache_path=cache)
    monkeypatch.undo()
    assert len(detections) == 4  # every distinct blob again
    assert rebuilt.vectors == cold.vectors
    assert [rec["catalog"] for rec in read_jsonl(cache)] == [other_key] * 4


def test_missing_blob_gets_null_vector(scratch_repo):
    repo = scratch_repo
    repo.write("a.java", JAVA_A)
    repo.write("c.java", JAVA_C)
    repo.commit("add")
    blob = subprocess.run(
        ["git", "-C", str(repo.root), "rev-parse", "HEAD:a.java"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    (repo.root / ".git" / "objects" / blob[:2] / blob[2:]).unlink()
    store = finishes(build_ku_store, repo.root)
    sha = store.commits[0].hash
    assert store.vectors == {(sha, "a.java"): None, (sha, "c.java"): detect_kus(JAVA_C)}


def test_missing_blob_named_twice_is_requested_once(scratch_repo, monkeypatch):
    repo = scratch_repo
    repo.write("a.java", JAVA_A)
    repo.commit("add a")
    repo.write("copy.java", JAVA_A)  # the same blob under a second path
    repo.write("c.java", JAVA_C)
    repo.commit("copy a, add c")
    blob = subprocess.run(
        ["git", "-C", str(repo.root), "rev-parse", "HEAD:a.java"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    (repo.root / ".git" / "objects" / blob[:2] / blob[2:]).unlink()
    requests = cat_file_requests(monkeypatch)
    store = finishes(build_ku_store, repo.root)
    assert sum(ids.count(blob) for ids in requests) == 1
    first, second = (c.hash for c in store.commits)
    assert store.vectors == {
        (first, "a.java"): None,
        (second, "c.java"): detect_kus(JAVA_C),
        (second, "copy.java"): None,
    }


def failed_cat_file(git, repo_path, *args, stdin=None):
    """A cat-file call that git rejects, as if it had exited early."""
    return git(repo_path, *args, "--no-such-option", stdin=stdin)


def truncated_cat_file(git, repo_path, *args, stdin=None):
    """A cat-file answer cut off inside its last blob."""
    return git(repo_path, *args, stdin=stdin)[:-5]


def test_reader_exit_raises_repository_error(scratch_repo, monkeypatch):
    repo = three_commit_repo(scratch_repo)
    git = mining._git
    for answer in (failed_cat_file, truncated_cat_file):

        def broken(repo_path, *args, stdin=None, answer=answer):
            if "cat-file" in args:
                return answer(git, repo_path, *args, stdin=stdin)
            return git(repo_path, *args, stdin=stdin)

        monkeypatch.setattr(mining, "_git", broken)
        with pytest.raises(RepositoryError, match="cat-file"):
            finishes(build_ku_store, repo.root)


def test_failed_build_leaves_no_git_process(scratch_repo, monkeypatch):
    repo = three_commit_repo(scratch_repo)
    started = []

    class RecordedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    def failing_detection(source, catalog=None):
        raise RuntimeError("detector failed")

    monkeypatch.setattr(subprocess, "Popen", RecordedPopen)
    monkeypatch.setattr(mining, "detect_kus", failing_detection)
    with pytest.raises(RuntimeError, match="detector failed"):
        build_ku_store(repo.root)
    monkeypatch.undo()
    assert any("cat-file" in p.args for p in started)
    assert all(p.poll() is not None for p in started)
