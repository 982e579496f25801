"""KUREC and baseline recommenders: hand-computed fixtures and oracles."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from datetime import timezone

import pytest

from kurev.errors import NoKuError
from kurev.evaluation import reasonableness
from kurev.mining import KuStore
from kurev.pipeline import evaluate_project
from kurev.profiles import AsOf
from kurev.prstore import PrDataset
from kurev.recommenders import (
    History,
    KurecRecommender,
    make_recommender,
    rank,
    recency_bonus,
    safe_recommend,
)
from tests.conftest import commit, dt, ku, make_dataset, make_pr, make_store


def history(store, *prs):
    return History(store=store, prs=make_dataset(*prs))


def test_recency_bonus_values():
    opened = dt("2023-02-01T00:00:00Z")
    assert recency_bonus(None, opened) == 0.0
    assert recency_bonus(dt("2023-01-22T00:00:00Z"), opened) == 0.1
    # same-day touch: zero whole days, guarded to a full bonus of 1.0
    assert recency_bonus(dt("2023-01-31T23:00:00Z"), opened) == 1.0
    assert recency_bonus(dt("2023-01-31T00:00:00Z"), opened) == 1.0
    with pytest.raises(ValueError):
        recency_bonus(opened, opened)


def test_rank_breaks_ties_by_identity():
    scores = {"zed": 1.0, "abe": 1.0, "mia": 2.0, "bo": 1.0}
    rec = rank(scores, pr_id=1, kind="cf")
    assert rec.developers() == ["mia", "abe", "bo", "zed"]
    # a cut inside the tie keeps the full ranking's prefix, not any tied name
    for k in range(1, len(scores) + 2):
        assert rank(scores, pr_id=1, kind="cf", k=k).ranked == rec.ranked[:k]
    with pytest.raises(ValueError):
        rank(scores, pr_id=1, kind="cf", k=0)


def test_kurec_hand_example():
    # [DERIVED] single present KU (K1). Dev matrix: alice 0.5, bob 0.5.
    # Recency: alice touched 2 days before (0.5), bob 1 day before (1.0).
    # No review history. alice = 1.0, bob = 1.5.
    store = make_store(
        commit("c1", "alice", "2023-01-01T00:00:00Z", {"f.java": ku(k1=2)}),
        commit("c2", "bob", "2023-01-02T00:00:00Z", {"g.java": ku(k1=2)}),
    )
    pr = make_pr(7, "2023-01-03T00:00:00Z", "carol", ["f.java"], reviewers=["bob"])
    model = KurecRecommender().fit(history(store, pr))
    scores = dict(model.recommend(pr).ranked)
    assert scores == {"alice": 1.0, "bob": 1.5}
    decomposed = model.decompose(pr)
    assert decomposed["alice"] == (1.0, 0.0)
    assert decomposed["bob"] == (1.5, 0.0)


def test_kurec_adds_review_side():
    store = make_store(
        commit("c1", "alice", "2023-01-01T00:00:00Z", {"f.java": ku(k1=2)}),
    )
    reviewed = make_pr(1, "2023-01-02T00:00:00Z", "carol", ["f.java"],
                       reviewers=["rita"])
    pr = make_pr(2, "2023-01-04T00:00:00Z", "carol", ["f.java"], reviewers=["rita"])
    model = KurecRecommender().fit(history(store, reviewed, pr))
    decomposed = model.decompose(pr)
    # rita: dev side 0; review side ratio 1.0 + recency 1/2 = 1.5
    assert decomposed["rita"] == (0.0, 1.5)
    # alice: dev ratio 1.0 + recency 1/3; no review side
    assert decomposed["alice"] == (1.0 + 1 / 3, 0.0)


def test_kurec_cutoff_is_strict_and_author_excluded():
    store = make_store(
        commit("c1", "alice", "2023-01-01T00:00:00Z", {"f.java": ku(k1=1)}),
        commit("c2", "bob", "2023-01-05T00:00:00Z", {"f.java": ku(k1=5)}),
    )
    pr = make_pr(1, "2023-01-05T00:00:00Z", "alice", ["f.java"], reviewers=["bob"],
                 head_commit="c1")
    model = KurecRecommender().fit(history(store, pr))
    rec = model.recommend(pr)
    # bob's commit is at the opening instant: excluded from expertise,
    # and alice (the author) never appears
    assert rec.developers() == []


def test_kurec_raises_on_ku_free_pr():
    store = make_store(
        commit("c1", "alice", "2023-01-01T00:00:00Z", {"f.java": ku(k1=1)}),
    )
    pr = make_pr(1, "2023-01-02T00:00:00Z", "carol", ["docs/readme.md"],
                 reviewers=["bob"])
    with pytest.raises(NoKuError):
        KurecRecommender().fit(history(store, pr)).recommend(pr)


def test_cf_counts_prior_commits():
    store = make_store(
        commit("c1", "alice", "2023-01-01T00:00:00Z", {"f.java": ku(k1=1)}),
        commit("c2", "alice", "2023-01-02T00:00:00Z", {"f.java": ku(k1=1)}),
        commit("c3", "bob", "2023-01-03T00:00:00Z", {"g.java": ku(k1=1)}),
        commit("c4", "bob", "2023-01-09T00:00:00Z", {"g.java": ku(k1=1)}),
    )
    pr = make_pr(1, "2023-01-05T00:00:00Z", "carol", ["f.java"], reviewers=["bob"])
    rec = make_recommender("cf").fit(history(store, pr)).recommend(pr)
    assert rec.ranked == (("alice", 2.0), ("bob", 1.0))


def test_rf_modes():
    store = make_store()
    earlier = [
        make_pr(1, "2023-01-01T00:00:00Z", "a", ["x.java"], reviewers=["rita"],
                comments=[("rita", "x.java", "2023-01-01T01:00:00Z"),
                          ("rita", "x.java", "2023-01-01T02:00:00Z"),
                          ("rita", "x.java", "2023-01-01T03:00:00Z")]),
        make_pr(2, "2023-01-02T00:00:00Z", "a", ["x.java"],
                reviewers=["ron", "rita"],
                comments=[("ron", "x.java", "2023-01-02T01:00:00Z")]),
        make_pr(3, "2023-01-03T00:00:00Z", "a", ["x.java"], reviewers=["ron"]),
    ]
    pr = make_pr(4, "2023-01-04T00:00:00Z", "carol", ["x.java"], reviewers=["ron"])
    hist = history(store, *earlier, pr)
    by_prs = make_recommender("rf").fit(hist).recommend(pr)
    assert dict(by_prs.ranked) == {"rita": 2.0, "ron": 2.0}
    by_comments = make_recommender("rf", mode="comments").fit(hist).recommend(pr)
    assert dict(by_comments.ranked) == {"rita": 3.0, "ron": 1.0}


def test_er_scores_are_epoch_seconds_of_last_touch():
    store = make_store(
        commit("c1", "alice", "2023-01-01T00:00:00Z", {"f.java": ku(k1=1)}),
        commit("c2", "bob", "2023-01-03T00:00:00Z", {"f.java": ku(k1=1)}),
        commit("c3", "alice", "2023-01-04T00:00:00Z", {"g.java": ku(k1=1)}),
    )
    pr = make_pr(1, "2023-01-05T00:00:00Z", "carol", ["f.java"], reviewers=["bob"])
    rec = make_recommender("er").fit(history(store, pr)).recommend(pr)
    scores = dict(rec.ranked)
    assert scores["alice"] == dt("2023-01-01T00:00:00Z").timestamp()
    assert scores["bob"] == dt("2023-01-03T00:00:00Z").timestamp()
    assert rec.developers() == ["bob", "alice"]


def test_chrev_single_reviewer_scores_three():
    # [DERIVED] sole commenter on the sole file: 1 + 1 + 1 = 3.0
    store = make_store()
    earlier = make_pr(1, "2023-01-01T00:00:00Z", "a", ["x.java"], reviewers=["rita"],
                      comments=[("rita", "x.java", "2023-01-01T02:00:00Z")])
    pr = make_pr(2, "2023-01-05T00:00:00Z", "carol", ["x.java"], reviewers=["rita"])
    rec = make_recommender("chrev").fit(history(store, earlier, pr)).recommend(pr)
    assert abs(dict(rec.ranked)["rita"] - 3.0) < 1e-12


def test_chrev_share_and_recency_example():
    # [DERIVED] rita and ron each wrote 2 of 4 comments over 2 of 4 workdays;
    # rita's latest workday is 5 days before ron's:
    # rita = 0.5 + 0.5 + 1/5 = 1.2, ron = 0.5 + 0.5 + 1 = 2.0
    store = make_store()
    earlier = make_pr(
        1, "2023-01-01T00:00:00Z", "a", ["x.java"], reviewers=["rita", "ron"],
        comments=[
            ("rita", "x.java", "2023-01-01T01:00:00Z"),
            ("rita", "x.java", "2023-01-02T01:00:00Z"),
            ("ron", "x.java", "2023-01-06T01:00:00Z"),
            ("ron", "x.java", "2023-01-07T01:00:00Z"),
        ],
    )
    pr = make_pr(2, "2023-01-10T00:00:00Z", "carol", ["x.java"], reviewers=["ron"])
    rec = make_recommender("chrev").fit(history(store, earlier, pr)).recommend(pr)
    scores = dict(rec.ranked)
    assert abs(scores["rita"] - 1.2) < 1e-12
    assert abs(scores["ron"] - 2.0) < 1e-12


def test_chrev_ignores_comments_written_after_the_pr_opened():
    # PR 1 is older than PR 2, but its only comment on x.java is dated after
    # PR 2 opened, so nothing about x.java was known when PR 2 opened
    store = make_store()
    earlier = make_pr(1, "2023-01-01T00:00:00Z", "a", ["x.java"], reviewers=["rita"],
                      comments=[("rita", "x.java", "2023-01-09T00:00:00Z")])
    pr = make_pr(2, "2023-01-05T00:00:00Z", "carol", ["x.java"], reviewers=["rita"])
    rec = make_recommender("chrev").fit(history(store, earlier, pr)).recommend(pr)
    assert rec.developers() == []


def test_rf_ignores_comments_written_after_the_pr_opened():
    # PR 1 is older than PR 2, but rita's only comment on it is dated after
    # PR 2 opened, so in comments mode nothing was known when PR 2 opened
    store = make_store()
    earlier = make_pr(1, "2023-01-01T00:00:00Z", "a", ["x.java"], reviewers=["rita"],
                      comments=[("rita", "x.java", "2023-01-09T00:00:00Z")])
    pr = make_pr(2, "2023-01-05T00:00:00Z", "carol", ["x.java"], reviewers=["rita"])
    hist = history(store, earlier, pr)
    rec = make_recommender("rf", mode="comments").fit(hist).recommend(pr)
    assert rec.developers() == []
    by_prs = make_recommender("rf").fit(hist).recommend(pr)
    assert dict(by_prs.ranked) == {"rita": 1.0}


def test_chrev_only_counts_comments_on_the_changed_path():
    store = make_store()
    earlier = make_pr(
        1, "2023-01-01T00:00:00Z", "a", ["x.java", "y.java"], reviewers=["rita"],
        comments=[("rita", "y.java", "2023-01-01T01:00:00Z")],
    )
    pr = make_pr(2, "2023-01-05T00:00:00Z", "carol", ["x.java"], reviewers=["rita"])
    rec = make_recommender("chrev").fit(history(store, earlier, pr)).recommend(pr)
    assert rec.developers() == []


# --- brute-force equivalence oracle on the synthetic project ----------------


def naive_cf(history_obj, pr):
    counts = {}
    for c in history_obj.store.commits:
        if c.authored_at < pr.opened_at:
            counts[c.author] = counts.get(c.author, 0) + 1
    counts.pop(pr.author, None)
    return counts


def naive_rf(history_obj, pr):
    counts = {}
    for p in history_obj.prs.prs:
        if p.opened_at < pr.opened_at and p.id != pr.id:
            for r in p.reviewers:
                counts[r] = counts.get(r, 0) + 1
    counts.pop(pr.author, None)
    return counts


def naive_rf_comments(history_obj, pr):
    counts = {}
    for p in history_obj.prs.prs:
        for c in p.review_comments:
            if c.commented_at < pr.opened_at:
                counts[c.reviewer] = counts.get(c.reviewer, 0) + 1
    counts.pop(pr.author, None)
    return counts


def naive_er(history_obj, pr):
    last = {}
    changed = set(pr.changed_files)
    for c in history_obj.store.commits:
        if c.authored_at >= pr.opened_at:
            continue
        if changed & set(c.changed_java_files):
            stamp = c.authored_at.replace(tzinfo=timezone.utc).timestamp()
            last[c.author] = max(last.get(c.author, stamp), stamp)
    last.pop(pr.author, None)
    return last


def naive_chrev(history_obj, pr):
    scores = {}
    for path in pr.changed_files:
        comments, days = {}, {}
        for p in history_obj.prs.prs:
            if p.opened_at >= pr.opened_at or p.id == pr.id:
                continue
            if path not in p.changed_files:
                continue
            for c in p.review_comments:
                if c.path == path and c.commented_at < pr.opened_at:
                    comments[c.reviewer] = comments.get(c.reviewer, 0) + 1
                    days.setdefault(c.reviewer, set()).add(c.commented_at.date())
        if not comments:
            continue
        total_c = sum(comments.values())
        total_w = sum(len(s) for s in days.values())
        latest = max(max(s) for s in days.values())
        for r in comments:
            gap = (latest - max(days[r])).days
            scores[r] = scores.get(r, 0.0) + (
                comments[r] / total_c
                + len(days[r]) / total_w
                + (1.0 / gap if gap > 0 else 1.0)
            )
    scores.pop(pr.author, None)
    return scores


def naive_kurec(history_obj, pr):
    from kurev.catalog import KU_COUNT
    from kurev.profiles import pr_ku_vector, resolve_pr_file_vector

    store, prs = history_obj.store, history_obj.prs
    vector = pr_ku_vector(store, pr)
    present = [k for k in range(KU_COUNT) if vector[k] > 0]
    if not present:
        return None
    dev_raw, dev_last, rev_raw, rev_last = {}, {}, {}, {}
    for c in store.commits:
        if c.authored_at >= pr.opened_at:
            continue
        for path in c.changed_java_files:
            v = store.vector(c.hash, path)
            if v is None:
                continue
            for k, n in enumerate(v):
                if n:
                    dev_raw.setdefault(c.author, [0.0] * KU_COUNT)[k] += n
                    key = (c.author, k)
                    if key not in dev_last or c.authored_at > dev_last[key]:
                        dev_last[key] = c.authored_at
    for p in prs.prs:
        if p.opened_at >= pr.opened_at or not p.reviewers:
            continue
        v = pr_ku_vector(store, p)
        for r in p.reviewers:
            for k, n in enumerate(v):
                if n:
                    rev_raw.setdefault(r, [0.0] * KU_COUNT)[k] += n
                    key = (r, k)
                    if key not in rev_last or p.opened_at > rev_last[key]:
                        rev_last[key] = p.opened_at

    def ratio(raw, dev, k):
        total = sum(raw[d][k] for d in raw)
        return raw.get(dev, [0.0] * KU_COUNT)[k] / total if total else 0.0

    def bonus(last):
        if last is None:
            return 0.0
        return 1.0 / max(1, (pr.opened_at - last).days)

    scores = {}
    for dev in set(dev_raw) | set(rev_raw):
        if dev == pr.author:
            continue
        total = 0.0
        for k in present:
            total += ratio(dev_raw, dev, k) + bonus(dev_last.get((dev, k)))
            total += ratio(rev_raw, dev, k) + bonus(rev_last.get((dev, k)))
        scores[dev] = total
    return scores


NAIVE = {
    "cf": naive_cf,
    "rf": naive_rf,
    "rf-comments": naive_rf_comments,
    "er": naive_er,
    "chrev": naive_chrev,
    "kurec": naive_kurec,
}
# oracle name -> (recommender kind, parameters), where they differ
PARAMS = {"rf-comments": ("rf", {"mode": "comments"})}


@pytest.mark.parametrize("kind", sorted(NAIVE))
def test_brute_force_equivalence_on_synthetic_project(synthetic_project, kind):
    hist = synthetic_project["history"]
    name, params = PARAMS.get(kind, (kind, {}))
    model = make_recommender(name, **params).fit(hist)
    for pr in synthetic_project["test"].prs:
        expected = NAIVE[kind](hist, pr)
        if expected is None:
            with pytest.raises(NoKuError):
                model.recommend(pr)
            continue
        actual = dict(model.recommend(pr).ranked)
        assert set(actual) == set(expected)
        for dev in expected:
            assert actual[dev] == pytest.approx(expected[dev], abs=1e-9)


def cut_at(hist, when):
    """The history as it stood just before ``when``: nothing dated later."""
    commits = [c for c in hist.store.commits if c.authored_at < when]
    prs = tuple(
        replace(p, review_comments=tuple(
            c for c in p.review_comments if c.commented_at < when))
        for p in hist.prs.prs
        if p.opened_at < when
    )
    return History(
        store=KuStore(commits, hist.store.verdicts), prs=PrDataset(hist.prs.project, prs)
    )


# Metamorphic as-of check. Reviewers are credited at a PR's opening date
# (the README's "PRs opened before" convention), so cutting commits and PRs
# at the opening date removes nothing a recommendation may use.
@pytest.mark.parametrize(
    "kind,params",
    [("kurec", {}), ("cf", {}), ("rf", {}), ("rf", {"mode": "comments"}),
     ("er", {}), ("chrev", {})],
    ids=["kurec", "cf", "rf", "rf-comments", "er", "chrev"],
)
def test_cutting_history_at_opening_date_keeps_ranking(synthetic_project, kind, params):
    hist = synthetic_project["history"]
    model = make_recommender(kind, **params).fit(hist)
    for pr in hist.prs.prs:
        cut = make_recommender(kind, **params).fit(cut_at(hist, pr.opened_at))
        assert safe_recommend(cut, pr) == safe_recommend(model, pr), pr.id


def test_evaluation_computes_each_pr_vector_once(synthetic_project, monkeypatch):
    resolved = Counter()
    file_vector = AsOf.file_vector

    def counting(self, pr, path):
        resolved[pr.id, path] += 1
        return file_vector(self, pr, path)

    monkeypatch.setattr(AsOf, "file_vector", counting)
    hist = History(store=synthetic_project["store"], prs=synthetic_project["dataset"])
    evaluate_project(hist, synthetic_project["test"])
    assert resolved, "evaluation should resolve PR files"
    assert set(resolved.values()) == {1}


def test_evaluation_judges_each_top1_pick_once(synthetic_project, monkeypatch):
    judged = Counter()

    def counting(pr, top1, commits, prior_prs):
        judged[pr.id, top1] += 1
        return reasonableness(pr, top1, commits, prior_prs)

    hist = History(store=synthetic_project["store"], prs=synthetic_project["dataset"])
    expected = evaluate_project(hist, synthetic_project["test"])
    monkeypatch.setattr("kurev.pipeline.reasonableness", counting)
    report = evaluate_project(hist, synthetic_project["test"])
    assert judged, "evaluation should judge top-1 picks"
    assert set(judged.values()) == {1}
    assert report == expected


def test_ranking_stable_under_positive_scaling():
    scores = {"a": 3.0, "b": 1.5, "c": 2.25}
    base = rank(scores, 1, "cf").developers()
    scaled = rank({d: s * 7.5 for d, s in scores.items()}, 1, "cf").developers()
    assert base == scaled
