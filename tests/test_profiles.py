"""Expertise matrices, PR vector resolution, and last-touch tracking."""

from __future__ import annotations

import logging
from collections import Counter

from kurev.catalog import KU_COUNT
from kurev.pipeline import evaluate_project
from kurev.profiles import (
    AsOf,
    ExpertiseMatrix,
    LastTouch,
    dev_exp_matrix,
    global_ku_profiles,
    load_last_touch,
    pr_ku_vector,
    resolve_pr_file_vector,
    rev_exp_matrix,
    save_matrix,
    save_last_touch,
)
from kurev.recommenders import History
from tests.conftest import commit, dt, ku, make_dataset, make_pr, make_store


def two_dev_store():
    # alice contributes 3 K1 occurrences, bob 1 K1 and 2 K11
    return make_store(
        commit("c1", "alice", "2023-01-01T00:00:00Z", {"a.java": ku(k1=2)}),
        commit("c2", "bob", "2023-01-02T00:00:00Z", {"b.java": ku(k1=1, k11=2)}),
        commit("c3", "alice", "2023-01-03T00:00:00Z", {"a.java": ku(k1=1)}),
    )


def test_dev_matrix_ratios_oracle():
    # [DERIVED] K1 column: alice 3/4, bob 1/4; K11 column: bob 1.0
    matrix, touch = dev_exp_matrix(two_dev_store(), dt("2023-02-01T00:00:00Z"))
    assert matrix.value("alice", 1) == 0.75
    assert matrix.value("bob", 1) == 0.25
    assert matrix.value("alice", 11) == 0.0
    assert matrix.value("bob", 11) == 1.0
    assert matrix.value("stranger", 1) == 0.0
    assert touch.get("alice", 1) == dt("2023-01-03T00:00:00Z")
    assert touch.get("bob", 11) == dt("2023-01-02T00:00:00Z")
    assert touch.get("alice", 11) is None


def test_active_columns_are_stochastic():
    matrix, _ = dev_exp_matrix(two_dev_store(), None)
    for k in range(KU_COUNT):
        total = sum(row[k] for row in matrix.values)
        assert total == 1.0 or total == 0.0


def test_cutoff_is_strict():
    matrix, _ = dev_exp_matrix(two_dev_store(), dt("2023-01-03T00:00:00Z"))
    # c3 falls exactly on the cutoff and must be excluded: alice 2/3
    assert abs(matrix.value("alice", 1) - 2 / 3) < 1e-12
    assert abs(matrix.value("bob", 1) - 1 / 3) < 1e-12


def test_cutoff_monotonicity_of_raw_sums():
    store = two_dev_store()
    early, _ = dev_exp_matrix(store, dt("2023-01-02T12:00:00Z"))
    late, _ = dev_exp_matrix(store, dt("2023-02-01T00:00:00Z"))
    assert set(early.developers) <= set(late.developers)


def test_resolve_prefers_head_commit():
    store = two_dev_store()
    pr = make_pr(1, "2023-01-05T00:00:00Z", "carol", ["a.java"],
                 reviewers=["bob"], head_commit="c1")
    assert resolve_pr_file_vector(store, pr, "a.java") == ku(k1=2)


def test_resolve_falls_back_to_latest_snapshot():
    store = two_dev_store()
    pr = make_pr(1, "2023-01-05T00:00:00Z", "carol", ["a.java"], reviewers=["bob"])
    assert resolve_pr_file_vector(store, pr, "a.java") == ku(k1=1)  # c3 wins
    early = make_pr(2, "2023-01-02T00:00:00Z", "carol", ["a.java"], reviewers=["bob"])
    assert resolve_pr_file_vector(store, early, "a.java") == ku(k1=2)  # only c1
    nothing = make_pr(3, "2023-01-01T00:00:00Z", "carol", ["a.java"], reviewers=["bob"])
    assert resolve_pr_file_vector(store, nothing, "a.java") is None


def test_resolve_tie_on_timestamp_prefers_later_log_position():
    store = make_store(
        commit("c1", "alice", "2023-01-01T00:00:00Z", {"a.java": ku(k1=1)}),
        commit("c2", "bob", "2023-01-01T00:00:00Z", {"a.java": ku(k1=9)}),
    )
    pr = make_pr(1, "2023-01-02T00:00:00Z", "carol", ["a.java"], reviewers=["alice"])
    assert resolve_pr_file_vector(store, pr, "a.java") == ku(k1=9)


def test_pr_ku_vector_aggregates_and_skips_unresolvable():
    store = two_dev_store()
    pr = make_pr(
        1, "2023-01-05T00:00:00Z", "carol",
        ["a.java", "b.java", "ghost.java", "notes.md"], reviewers=["bob"],
    )
    assert pr_ku_vector(store, pr) == ku(k1=2, k11=2)  # a: c3 (1) + b: c2 (1,2)


def test_rev_matrix_full_credit_per_reviewer():
    store = two_dev_store()
    prs = make_dataset(
        make_pr(1, "2023-01-04T00:00:00Z", "alice", ["b.java"],
                reviewers=["rita", "ron"]),
    )
    matrix, touch = rev_exp_matrix(prs, store, dt("2023-02-01T00:00:00Z"))
    # both reviewers get the full b.java occurrences; K11 column splits 1/2
    assert matrix.value("rita", 11) == 0.5
    assert matrix.value("ron", 11) == 0.5
    assert touch.get("rita", 1) == dt("2023-01-04T00:00:00Z")


def test_global_profiles_match_brute_force():
    store = two_dev_store()
    matrix = global_ku_profiles(store)
    raw = {"alice": [0.0] * KU_COUNT, "bob": [0.0] * KU_COUNT}
    for record in store.commits:
        for path in record.changed_java_files:
            vec = store.vector(record.hash, path)
            for k, count in enumerate(vec):
                raw[record.author][k] += count
    for k in range(KU_COUNT):
        total = sum(raw[d][k] for d in raw)
        for dev in raw:
            expected = raw[dev][k] / total if total else 0.0
            assert abs(matrix.value(dev, k + 1) - expected) < 1e-12


def test_matrix_and_last_touch_persistence(tmp_path):
    matrix, touch = dev_exp_matrix(two_dev_store(), None)
    out = tmp_path / "dev.tsv"
    save_matrix(matrix, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("developer\t")
    assert len(lines) == 1 + len(matrix.developers)
    touch_path = tmp_path / "touch.jsonl"
    save_last_touch(touch, touch_path)
    again = load_last_touch(touch_path)
    assert again.dates == touch.dates


# --- the as-of index against a naive scan per cutoff ---------------------------
#
# The functions below rebuild each answer from scratch by scanning the whole
# store, exactly as the profiles were computed before the index existed.


def naive_resolve(store, pr, path):
    if pr.head_commit is not None:
        vector = store.vector(pr.head_commit, path)
        if vector is not None:
            return vector
    best, best_at = None, None
    for c in store.commits:
        if c.authored_at >= pr.opened_at or path not in c.changed_java_files:
            continue
        vector = store.vector(c.hash, path)
        if vector is not None and (best_at is None or c.authored_at >= best_at):
            best, best_at = vector, c.authored_at
    return best


def naive_pr_vector(store, pr):
    total = [0] * KU_COUNT
    for path in pr.changed_java_files():
        vector = naive_resolve(store, pr, path)
        for k, count in enumerate(vector or ()):
            total[k] += count
    return total


def naive_normalize(raw, kind, cutoff):
    developers = tuple(sorted(raw))
    totals = [0.0] * KU_COUNT
    for dev in developers:
        for k in range(KU_COUNT):
            totals[k] += raw[dev][k]
    values = tuple(
        tuple(
            raw[dev][k] / totals[k] if totals[k] > 0 else 0.0 for k in range(KU_COUNT)
        )
        for dev in developers
    )
    return ExpertiseMatrix(kind, cutoff, developers, values)


def naive_dev(store, cutoff):
    raw, touch = {}, LastTouch()
    for c in store.commits:
        if cutoff is not None and c.authored_at >= cutoff:
            continue
        row = raw.setdefault(c.author, [0.0] * KU_COUNT)
        for path in c.changed_java_files:
            for k, count in enumerate(store.vector(c.hash, path) or ()):
                if count:
                    row[k] += count
                    touch.note(c.author, k + 1, c.authored_at)
    return naive_normalize(raw, "development", cutoff), touch


def naive_rev(prs, store, cutoff):
    raw, touch = {}, LastTouch()
    for pr in prs:
        if (cutoff is not None and pr.opened_at >= cutoff) or not pr.reviewers:
            continue
        vector = naive_pr_vector(store, pr)
        for reviewer in pr.reviewers:
            row = raw.setdefault(reviewer, [0.0] * KU_COUNT)
            for k, count in enumerate(vector):
                if count:
                    row[k] += count
                    touch.note(reviewer, k + 1, pr.opened_at)
    return naive_normalize(raw, "review", cutoff), touch


def assert_index_matches_naive(store, prs, cutoffs):
    asof = AsOf(store, prs)
    for pr in prs:
        assert asof.pr_vector(pr) == naive_pr_vector(store, pr), pr.id
    for cutoff in cutoffs:
        assert asof.development(cutoff).pair() == naive_dev(store, cutoff), cutoff
        assert asof.review(cutoff).pair() == naive_rev(prs, store, cutoff), cutoff


def test_index_equals_naive_scan_at_every_pr_of_synthetic_project(synthetic_project):
    prs = synthetic_project["dataset"].prs
    assert_index_matches_naive(
        synthetic_project["store"], prs, [None] + [pr.opened_at for pr in prs]
    )


def test_index_equals_naive_scan_when_store_order_is_not_chronological():
    store = make_store(
        commit("c1", "alice", "2023-01-05T00:00:00Z", {"a.java": ku(k1=4)}),
        commit("c2", "bob", "2023-01-02T00:00:00Z", {"a.java": ku(k2=1),
                                                      "b.java": None}),
        commit("c3", "carol", "2023-01-05T00:00:00Z", {"a.java": ku(k1=1, k3=2)}),
        commit("c4", "dan", "2023-01-01T00:00:00Z", {"b.java": ku()}),
        commit("c5", "alice", "2023-01-03T00:00:00Z", {"b.java": ku(k3=5)}),
    )
    prs = make_dataset(
        make_pr(1, "2023-01-02T00:00:00Z", "bob", ["a.java", "b.java"],
                reviewers=["rita"]),
        make_pr(2, "2023-01-04T00:00:00Z", "dan", ["a.java"],
                reviewers=["ron", "rita"]),
        make_pr(3, "2023-01-06T00:00:00Z", "carol", ["a.java", "b.java"],
                reviewers=["ron"]),
        make_pr(4, "2023-01-06T00:00:00Z", "carol", ["b.java"], head_commit="c2"),
    ).prs
    cutoffs = [None] + [dt(f"2023-01-0{d}T00:00:00Z") for d in range(1, 8)]
    assert_index_matches_naive(store, prs, cutoffs)
    # latest date wins over store order; on equal dates the later commit wins
    late = make_pr(5, "2023-01-07T00:00:00Z", "x", ["a.java"])
    assert AsOf(store).file_vector(late, "a.java") == ku(k1=1, k3=2)
    # dan committed only zero vectors but is still a development candidate
    assert "dan" in AsOf(store).development(None).rows


def test_unresolvable_file_is_logged_once_per_pr_and_path(synthetic_project, caplog):
    store, dataset = synthetic_project["store"], synthetic_project["dataset"]
    unresolved = {
        (pr.id, path)
        for pr in dataset.prs
        for path in pr.changed_java_files()
        if naive_resolve(store, pr, path) is None
    }
    assert unresolved, "the synthetic project should have unresolvable PR files"
    with caplog.at_level(logging.WARNING, logger="kurev.profiles"):
        evaluate_project(History(store=store, prs=dataset), synthetic_project["test"])
    logged = Counter(
        record.args
        for record in caplog.records
        if record.msg.startswith("PR %s: no content resolvable")
    )
    assert logged == Counter(unresolved)
