"""Expertise values, PR vector resolution, and last-touch tracking."""

from __future__ import annotations

import logging
import random
from collections import Counter
from datetime import timedelta

import pytest

from kurev.catalog import KU_COUNT, KU_NAMES
from kurev.evaluation import SIX_MONTHS
from kurev.pipeline import evaluate_project
from kurev.prstore import PrDataset, chronological_split
from kurev.profiles import (
    AsOf,
    _Sweep,
    dev_exp_matrix,
    global_ku_profiles,
    pr_ku_vector,
    resolve_pr_file_vector,
    rev_exp_matrix,
    save_last_touch,
    save_matrix,
)
from kurev.recommenders import RF_MODES, History
from kurev.util import read_jsonl
from tests.conftest import commit, dt, ku, make_dataset, make_pr, make_store


def two_dev_store():
    # alice contributes 3 K1 occurrences, bob 1 K1 and 2 K11
    return make_store(
        commit("c1", "alice", "2023-01-01T00:00:00Z", {"a.java": ku(k1=2)}),
        commit("c2", "bob", "2023-01-02T00:00:00Z", {"b.java": ku(k1=1, k11=2)}),
        commit("c3", "alice", "2023-01-03T00:00:00Z", {"a.java": ku(k1=1)}),
    )


def ratios(expertise):
    """Normalized values per developer, read through ``Expertise.ratio``."""
    return {
        dev: tuple(expertise.ratio(dev, k) for k in range(KU_COUNT))
        for dev in expertise.rows
    }


def last_touches(expertise):
    """Last-touch dates keyed by (developer, 1-based KU)."""
    return {
        (dev, k + 1): when
        for dev, (_, touched) in expertise.rows.items()
        for k, when in enumerate(touched)
        if when is not None
    }


def test_dev_matrix_ratios_oracle():
    # [DERIVED] K1 column: alice 3/4, bob 1/4; K11 column: bob 1.0
    dev = dev_exp_matrix(two_dev_store(), dt("2023-02-01T00:00:00Z"))
    assert dev.ratio("alice", 0) == 0.75
    assert dev.ratio("bob", 0) == 0.25
    assert dev.ratio("alice", 10) == 0.0
    assert dev.ratio("bob", 10) == 1.0
    assert dev.ratio("stranger", 0) == 0.0
    touch = last_touches(dev)
    assert touch["alice", 1] == dt("2023-01-03T00:00:00Z")
    assert touch["bob", 11] == dt("2023-01-02T00:00:00Z")
    assert ("alice", 11) not in touch


def test_active_columns_are_stochastic():
    values = ratios(dev_exp_matrix(two_dev_store(), None))
    for k in range(KU_COUNT):
        total = sum(row[k] for row in values.values())
        assert total == 1.0 or total == 0.0


def test_cutoff_is_strict():
    dev = dev_exp_matrix(two_dev_store(), dt("2023-01-03T00:00:00Z"))
    # c3 falls exactly on the cutoff and must be excluded: alice 2/3
    assert abs(dev.ratio("alice", 0) - 2 / 3) < 1e-12
    assert abs(dev.ratio("bob", 0) - 1 / 3) < 1e-12


def test_cutoff_monotonicity_of_raw_sums():
    store = two_dev_store()
    early = dev_exp_matrix(store, dt("2023-01-02T12:00:00Z"))
    late = dev_exp_matrix(store, dt("2023-02-01T00:00:00Z"))
    assert early.rows.keys() <= late.rows.keys()


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


def test_unresolvable_files_of_many_prs_give_one_warning(caplog):
    store = two_dev_store()
    prs = [make_pr(i, "2023-01-05T00:00:00Z", "carol", ["a.java", f"ghost{i}.java"],
                   reviewers=["bob"]) for i in (1, 2, 3)]
    asof = AsOf(store, prs)
    with caplog.at_level(logging.WARNING, logger="kurev.profiles"):
        for pr in prs + prs:
            asof.pr_vector(pr)
        asof.warn_unresolved()
    assert [r.getMessage() for r in caplog.records] == [
        "PR files with no content resolvable, skipped: 3 (first: PR 1, ghost1.java)"
    ]


def test_rev_matrix_full_credit_per_reviewer():
    store = two_dev_store()
    prs = make_dataset(
        make_pr(1, "2023-01-04T00:00:00Z", "alice", ["b.java"],
                reviewers=["rita", "ron"]),
    )
    rev = rev_exp_matrix(prs, store, dt("2023-02-01T00:00:00Z"))
    # both reviewers get the full b.java occurrences; K11 column splits 1/2
    assert rev.ratio("rita", 10) == 0.5
    assert rev.ratio("ron", 10) == 0.5
    assert last_touches(rev)["rita", 1] == dt("2023-01-04T00:00:00Z")


def test_global_profiles_match_brute_force():
    store = two_dev_store()
    profiles = global_ku_profiles(store)
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
            assert abs(profiles.ratio(dev, k) - expected) < 1e-12


def test_matrix_and_last_touch_persistence(tmp_path):
    dev = dev_exp_matrix(two_dev_store(), None)
    out = tmp_path / "dev.tsv"
    save_matrix(dev, out)
    assert read_matrix(out) == rounded(ratios(dev))
    touch_path = tmp_path / "touch.jsonl"
    save_last_touch(dev, touch_path)
    assert read_last_touch(touch_path) == last_touches(dev)


def read_matrix(path):
    """``save_matrix`` output as {developer: ratios}, checking header and order."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    assert header == "developer\t" + "\t".join(KU_NAMES)
    rows = [line.split("\t") for line in lines]
    assert [row[0] for row in rows] == sorted(row[0] for row in rows)
    return {row[0]: tuple(float(cell) for cell in row[1:]) for row in rows}


def rounded(values):
    """Ratios as the 12 significant digits ``save_matrix`` writes."""
    return {dev: tuple(float(f"{v:.12g}") for v in row) for dev, row in values.items()}


def read_last_touch(path):
    """``save_last_touch`` output as {(developer, KU): date}, checking order."""
    records = read_jsonl(path)
    keys = [(rec["developer"], rec["ku"]) for rec in records]
    assert keys == sorted(keys)
    return {(rec["developer"], rec["ku"]): dt(rec["last"]) for rec in records}


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


def naive_normalize(raw):
    totals = [0.0] * KU_COUNT
    for row in raw.values():
        for k in range(KU_COUNT):
            totals[k] += row[k]
    return {
        dev: tuple(
            row[k] / totals[k] if totals[k] > 0 else 0.0 for k in range(KU_COUNT)
        )
        for dev, row in raw.items()
    }


def note(touch, developer, ku_index, when):
    key = (developer, ku_index)
    if key not in touch or when > touch[key]:
        touch[key] = when


def naive_dev(store, cutoff):
    """(ratios, last touches) of the development side, from a full scan."""
    raw, touch = {}, {}
    for c in store.commits:
        if cutoff is not None and c.authored_at >= cutoff:
            continue
        row = raw.setdefault(c.author, [0.0] * KU_COUNT)
        for path in c.changed_java_files:
            for k, count in enumerate(store.vector(c.hash, path) or ()):
                if count:
                    row[k] += count
                    note(touch, c.author, k + 1, c.authored_at)
    return naive_normalize(raw), touch


def naive_rev(prs, store, cutoff):
    """(ratios, last touches) of the review side, from a full scan."""
    raw, touch = {}, {}
    for pr in prs:
        if (cutoff is not None and pr.opened_at >= cutoff) or not pr.reviewers:
            continue
        vector = naive_pr_vector(store, pr)
        for reviewer in pr.reviewers:
            row = raw.setdefault(reviewer, [0.0] * KU_COUNT)
            for k, count in enumerate(vector):
                if count:
                    row[k] += count
                    note(touch, reviewer, k + 1, pr.opened_at)
    return naive_normalize(raw), touch


def view(expertise):
    return ratios(expertise), last_touches(expertise)


def in_three_orders(items):
    """The items as given, reversed, and shuffled with a fixed seed: an index
    must answer the same whatever order it is queried in."""
    shuffled = list(items)
    random.Random(17).shuffle(shuffled)
    return [list(items), list(items)[::-1], shuffled]


def assert_index_matches_naive(store, prs, cutoffs):
    asof = AsOf(store, prs)
    for pr in prs:
        assert asof.pr_vector(pr) == naive_pr_vector(store, pr), pr.id
    for order in in_three_orders(prs)[1:]:
        for pr in order:  # pr_vector is memoised; file_vector is not
            for path in pr.changed_java_files():
                assert asof.file_vector(pr, path) == naive_resolve(store, pr, path)
    for order in in_three_orders(cutoffs):
        for cutoff in order:
            dev, rev = asof.development(cutoff), asof.review(cutoff)
            assert (dev.kind, dev.cutoff) == ("development", cutoff)
            assert (rev.kind, rev.cutoff) == ("review", cutoff)
            assert view(dev) == naive_dev(store, cutoff), cutoff
            assert view(rev) == naive_rev(prs, store, cutoff), cutoff


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


def test_unresolvable_files_are_logged_in_one_warning(synthetic_project, caplog):
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
    logged = [record for record in caplog.records if "no content resolvable" in record.msg]
    assert len(logged) == 1
    count, *first = logged[0].args
    # each PR's vector is computed once, so each of its files counts once
    assert count == len(unresolved)
    assert tuple(first) in unresolved


# --- per-key queries against naive scans --------------------------------------


def random_history(rng, commits=12, prs=10):
    """A store and PR set of fewer than ``commits`` commits and ``prs`` PRs
    on a coarse date grid, so that event dates often coincide with each
    other and with the cutoffs."""
    start = dt("2023-01-01T00:00:00Z")
    devs = ["alice", "bob", "carol", "dan"]
    paths = ["a.java", "b.java", "c.java", "notes.md"]

    def when():
        return start + timedelta(days=rng.randrange(0, 400, 3), hours=rng.choice((0, 12)))

    history = []
    for i in range(rng.randrange(0, commits)):
        files = {
            path: None if rng.random() < 0.2 else ku(k1=rng.randrange(3))
            for path in rng.sample(paths[:3], rng.randrange(1, 4))
        }
        history.append(commit(f"c{i}", rng.choice(devs), when().isoformat(), files))
    opened_prs = []
    for i in range(rng.randrange(0, prs)):
        opened = when()
        changed = rng.sample(paths, rng.randrange(1, 4))
        comments = [
            (rng.choice(devs + ["rita", "ron"]),
             # on a changed path, on one the PR did not change, or on none
             rng.choice(changed + ["z.java", None]),
             (opened + timedelta(days=rng.choice((0, 0, 1, 3, 200)),
                                 hours=rng.choice((0, 12)))).isoformat())
            for _ in range(rng.randrange(0, 5))
        ]
        opened_prs.append(make_pr(
            i, opened.isoformat(), rng.choice(devs), changed,
            reviewers=rng.sample(devs + ["rita", "ron"], rng.randrange(0, 3)),
            comments=comments))
    return make_store(*history), make_dataset(*opened_prs).prs


def cutoffs_of(store, prs):
    """Every event date, each date 183 days on (an event then sits exactly at
    the window start), and a date before and after everything."""
    dates = {c.authored_at for c in store.commits} | {p.opened_at for p in prs}
    dates |= {c.commented_at for p in prs for c in p.review_comments}
    dates |= {d + SIX_MONTHS for d in dates}
    return sorted(dates | {dt("2022-01-01T00:00:00Z"), dt("2025-01-01T00:00:00Z")})


def naive_file_reviews(prs, path, when):
    comments, days = Counter(), {}
    for pr in prs:
        for c in pr.review_comments:
            if c.path == path and path in pr.changed_files and c.commented_at < when:
                comments[c.reviewer] += 1
                days.setdefault(c.reviewer, set()).add(c.commented_at.date())
    return sorted((r, n, len(days[r]), max(days[r])) for r, n in comments.items())


def naive_last_commits(store, paths, when):
    last = {}
    for c in store.commits:
        if c.authored_at < when and set(paths) & set(c.changed_java_files):
            last[c.author] = max(last.get(c.author, c.authored_at), c.authored_at)
    return last


def touched(commits, prs, paths):
    """Which of ``paths`` the commits (Java files) and PRs (any file) changed."""
    files = {f for c in commits for f in c.changed_java_files}
    files |= {f for p in prs for f in p.changed_files}
    return files & set(paths)


def test_per_key_queries_equal_naive_scans():
    rng = random.Random(2024)
    cases = 0
    for _ in range(60):
        store, prs = random_history(rng)
        asof = AsOf(store, prs)
        people = ["alice", "bob", "carol", "dan", "rita", "ron", "nobody"]
        for order in in_three_orders(cutoffs_of(store, prs)):
            for when in order:
                assert asof.commit_counts(when) == Counter(
                    c.author for c in store.commits if c.authored_at < when)
                assert asof.review_counts(when, "prs") == Counter(
                    r for p in prs if p.opened_at < when for r in p.reviewers)
                assert asof.review_counts(when, "comments") == Counter(
                    c.reviewer for p in prs for c in p.review_comments if c.commented_at < when)
                for paths in (["a.java"], ["a.java", "b.java", "a.java"], ["notes.md"], []):
                    assert asof.last_commits(paths, when) == naive_last_commits(store, paths, when)
                for path in ("a.java", "b.java", "c.java", "notes.md", "z.java"):
                    assert sorted(asof.file_reviews(path, when)) == naive_file_reviews(
                        prs, path, when)
                since = when - SIX_MONTHS
                for dev in people:
                    for paths in (["a.java", "notes.md"], ["b.java", "c.java", "b.java"], []):
                        commits, own = asof.recent_touches(dev, paths, since, when)
                        assert all(c.author == dev and since <= c.authored_at < when
                                   for c in commits)
                        assert all(p.author == dev and since <= p.opened_at < when
                                   for p in own)
                        assert len(commits) <= len(set(paths)) >= len(own)
                        # the same touched paths as the developer's whole window
                        window_commits = [c for c in store.commits
                                          if c.author == dev and since <= c.authored_at < when]
                        window_prs = [p for p in prs
                                      if p.author == dev and since <= p.opened_at < when]
                        assert touched(commits, own, paths) == touched(
                            window_commits, window_prs, paths)
                cases += 1
        assert_index_matches_naive(store, prs, [None, *cutoffs_of(store, prs)])
    assert cases >= 900


@pytest.mark.parametrize("rf_mode", RF_MODES)
@pytest.mark.parametrize("project", ["synthetic", "random"])
def test_evaluation_folds_each_event_a_bounded_number_of_times(
    synthetic_project, monkeypatch, project, rf_mode
):
    # A sweep restarts on a cutoff earlier than its last one. Evaluation
    # queries each sweep in date order, once: the base recommenders and the
    # one verdict pass walk the test PRs in date order. _path_commits is the
    # one sweep read twice, by ER and by the verdicts. _snapshots may
    # restart once, when a test PR without reviewers resolves its vector
    # after the review side, as in the random history. The synthetic
    # project has three test PRs; the random one has enough that a query
    # order which restarted per PR or per kind would fold too many events.
    if project == "synthetic":
        store, dataset = synthetic_project["store"], synthetic_project["dataset"]
    else:
        store, prs = random_history(random.Random(2), commits=120, prs=200)
        dataset = PrDataset("random", prs)
    folded = Counter()
    at = _Sweep.at

    def counting(sweep, when):
        start = sweep.folded
        state = at(sweep, when)
        # a restart leaves fewer events folded than before, counted from 0
        folded[sweep] += sweep.folded - start if sweep.folded >= start else sweep.folded
        return state

    monkeypatch.setattr(_Sweep, "at", counting)
    test = chronological_split(dataset)[1]
    assert len(test.prs) >= (3 if project == "synthetic" else 30)
    evaluate_project(History(store=store, prs=dataset), test, rf_mode=rf_mode)
    assert len(folded) == 8  # every sweep but the other RF mode's
    for sweep, n in folded.items():
        assert n <= 2 * len(sweep.events), sweep.fold.__name__
