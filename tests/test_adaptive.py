"""BRST policies and the adaptive replay protocol."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kurev.adaptive import (
    KIND_ORDER,
    VARIANTS,
    WINDOW_SIZE,
    AdaptiveRecommender,
    Brst,
    ReplayStep,
    best_performers,
)
from kurev.evaluation import average_precision
from kurev.mining import KuStore
from kurev.recommenders import History, Recommendation
from tests.conftest import make_dataset, make_pr


def test_brst_freq_counts_and_tie_order():
    brst = Brst("freq")
    assert brst.choose() is None
    for winner in ("cf", "rf", "cf", "er"):
        brst.update(winner)
    assert brst.choose() == "cf"
    brst.update("rf")  # cf and rf now tied at 2: fixed order prefers rf
    assert brst.choose() == "rf"


def test_brst_rec_tracks_latest_winner():
    brst = Brst("rec")
    assert brst.choose() is None
    brst.update("cf")
    brst.update("kurec")
    brst.update("er")
    assert brst.choose() == "er"


def test_brst_hybrid_window_caps_at_ten():
    brst = Brst("hybrid")
    for _ in range(8):
        brst.update("cf")
    for _ in range(6):
        brst.update("rf")
    assert len(brst.window) == WINDOW_SIZE
    # window now holds 4 cf + 6 rf
    assert brst.window.count("cf") == 4
    assert brst.choose() == "rf"


def test_brst_hybrid_worked_sequence():
    brst = Brst("hybrid")
    for winner in ("rf", "rf", "kurec"):
        brst.update(winner)
    assert brst.choose() == "rf"


def naive_policy(variant, winners):
    """The paper's three BRST policies, read literally."""
    if not winners:
        return None
    if variant == "rec":
        return winners[-1]
    pool = winners if variant == "freq" else winners[-WINDOW_SIZE:]
    most = max(pool.count(kind) for kind in KIND_ORDER)
    return next(kind for kind in KIND_ORDER if pool.count(kind) == most)


@settings(max_examples=200, deadline=None)
@given(winners=st.lists(st.sampled_from(KIND_ORDER), max_size=40))
def test_brst_matches_the_naive_policies(winners):
    for variant in VARIANTS:
        brst = Brst(variant)
        assert brst.choose() is None
        for i, winner in enumerate(winners, start=1):
            brst.update(winner)
            assert brst.choose() == naive_policy(variant, winners[:i]), (variant, i)


def one_pr_base(rankings):
    """One PR (id 1, true reviewer ``hit``) with a ranking per kind."""
    pr = make_pr(1, "2023-02-01T00:00:00Z", "author", ["x.java"], reviewers=["hit"])
    base = {
        kind: {1: Recommendation(pr_id=1, kind=kind,
                                 ranked=tuple((d, 1.0) for d in rankings[kind]))}
        for kind in KIND_ORDER
    }
    return [pr], base


def test_best_performers_prefers_better_combined_score():
    rankings = {kind: ["x", "y"] for kind in KIND_ORDER}
    rankings["cf"] = ["hit", "x"]
    rankings["er"] = ["x", "hit"]
    assert best_performers(*one_pr_base(rankings)) == ["cf"]


def test_best_performers_ties_break_by_kind_order():
    assert best_performers(*one_pr_base({kind: ["x"] for kind in KIND_ORDER})) == [
        "kurec"
    ]
    rankings = {kind: ["x"] for kind in KIND_ORDER}
    rankings["er"] = rankings["chrev"] = ["hit"]
    assert best_performers(*one_pr_base(rankings)) == ["chrev"]


# --- naive oracle: one cumulative tally per variant, as the paper reads -------


class NaiveTally:
    """Running combined-score accumulators for one base recommender."""

    def __init__(self):
        self.acc_sum = 0.0
        self.ap_sum = 0.0
        self.prs = 0

    def add(self, rec, truth):
        ranked = rec.top(5) if rec is not None else []
        ks = range(1, 6)
        self.acc_sum += sum(any(dev in truth for dev in ranked[:k]) for k in ks) / 5
        self.ap_sum += sum(average_precision(ranked, truth, k) for k in ks) / 5
        self.prs += 1

    def combined(self):
        return (self.acc_sum / self.prs + self.ap_sum / self.prs) / 2


def naive_replay(variant, seed, test_prs, base):
    """Each variant re-tallies every base recommender after every PR.

    Returns the steps and how many winners were picked from a score tie.
    """
    rng = random.Random(seed)
    brst = Brst(variant)
    tallies = {kind: NaiveTally() for kind in KIND_ORDER}
    steps = []
    ties = 0
    for pr in test_prs:
        chosen = brst.choose()
        if chosen is None:
            chosen = rng.choice(KIND_ORDER)
        recs = {kind: base[kind][pr.id] for kind in KIND_ORDER}
        delegate = chosen
        if delegate == "kurec" and not recs["kurec"].ranked:
            delegate = "rf"
        truth = set(pr.reviewers)
        for kind in KIND_ORDER:
            tallies[kind].add(recs[kind], truth)
        winner = max(
            KIND_ORDER,
            key=lambda kind: (tallies[kind].combined(), -KIND_ORDER.index(kind)),
        )
        scores = [tallies[kind].combined() for kind in KIND_ORDER]
        ties += scores.count(max(scores)) > 1
        brst.update(winner)
        steps.append(ReplayStep(
            pr_id=pr.id, delegate=delegate, chosen=chosen, winner=winner,
            recommendation=Recommendation(
                pr_id=pr.id, kind=f"ad_{variant}", ranked=recs[delegate].ranked),
        ))
    return steps, ties


def random_replay_case(rng):
    """Test PRs and base rankings drawn so that ties and empty rankings are common."""
    people = ["a", "b", "c", "d", "e", "f"]
    prs = [
        make_pr(i, f"2023-03-{i:02d}T00:00:00Z", "author", ["x.java"],
                reviewers=rng.sample(people, rng.randint(1, 2)))
        for i in range(1, rng.randint(1, 25) + 1)
    ]
    base = {kind: {} for kind in KIND_ORDER}
    for pr in prs:
        for i, kind in enumerate(KIND_ORDER):
            if kind == "kurec" and rng.random() < 0.3:
                devs = []  # no KUs: an empty KUREC ranking
            elif i and rng.random() < 0.4:  # share an earlier kind's ranking
                devs = base[KIND_ORDER[rng.randrange(i)]][pr.id].developers()
            else:
                devs = rng.sample(people, rng.randint(0, len(people)))
            base[kind][pr.id] = Recommendation(
                pr_id=pr.id, kind=kind,
                ranked=tuple((d, float(len(devs) - j)) for j, d in enumerate(devs)))
    return prs, base


def test_replay_equals_the_per_variant_tally_oracle():
    history = History(store=KuStore([], {}), prs=make_dataset())
    rng = random.Random(20231)
    singles = ties = fallbacks = 0
    for case in range(300):
        prs, base = random_replay_case(rng)
        winners = best_performers(prs, base)
        for variant in VARIANTS:
            model = AdaptiveRecommender(variant, seed=case).fit(history)
            expected, tied = naive_replay(variant, case, prs, base)
            assert model.replay(prs, base) == expected, (case, variant)
            assert model.replay(prs, base, winners) == expected, (case, variant)
            fallbacks += sum(s.chosen != s.delegate for s in expected)
        assert winners == [step.winner for step in expected]
        singles += len(prs) == 1
        ties += tied
    # the cases exercise single-PR sequences, score ties and the KUREC fallback
    assert singles and ties and fallbacks


def fabricated_setup(n_prs=6):
    """Tiny history plus canned base recommendations for replay tests."""
    prs = [
        make_pr(i, f"2023-02-{i:02d}T00:00:00Z", "author", ["x.java"],
                reviewers=[f"rev{i % 2}"])
        for i in range(1, n_prs + 1)
    ]
    history = History(store=KuStore([], {}), prs=make_dataset(*prs))
    base = {}
    for kind in KIND_ORDER:
        base[kind] = {}
        for pr in prs:
            if kind == "kurec":
                ranked = ()  # force the no-KU fallback path
            elif kind == "rf":
                ranked = ((f"rev{pr.id % 2}", 2.0), ("other", 1.0))
            else:
                ranked = (("other", 2.0), (f"rev{pr.id % 2}", 1.0))
            base[kind][pr.id] = Recommendation(pr_id=pr.id, kind=kind, ranked=ranked)
    return history, prs, base


def test_replay_is_deterministic_and_seeded():
    history, prs, base = fabricated_setup()
    a = AdaptiveRecommender("freq", seed=3).fit(history).replay(prs, base)
    b = AdaptiveRecommender("freq", seed=3).fit(history).replay(prs, base)
    assert a == b
    first_expected = random.Random(3).choice(KIND_ORDER)
    assert a[0].chosen == first_expected


def test_replay_no_ku_fallback_delegates_to_rf():
    history, prs, base = fabricated_setup()
    # seed chosen so the first pick is kurec
    seed = next(
        s for s in range(100) if random.Random(s).choice(KIND_ORDER) == "kurec"
    )
    steps = AdaptiveRecommender("rec", seed=seed).fit(history).replay(prs, base)
    assert steps[0].chosen == "kurec"
    assert steps[0].delegate == "rf"
    assert steps[0].recommendation.ranked == base["rf"][prs[0].id].ranked
    assert steps[0].recommendation.kind == "ad_rec"


def test_replay_winner_is_rf_and_policies_follow():
    history, prs, base = fabricated_setup()
    for variant in ("freq", "rec", "hybrid"):
        steps = AdaptiveRecommender(variant, seed=0).fit(history).replay(prs, base)
        # rf always ranks the true reviewer first, so it wins every PR
        assert all(step.winner == "rf" for step in steps)
        # after the first (random) PR every delegation follows the winner
        assert all(step.delegate == "rf" for step in steps[1:])


def test_replay_prefix_matches_full_run():
    history, prs, base = fabricated_setup()
    full = AdaptiveRecommender("hybrid", seed=5).fit(history).replay(prs, base)
    prefix = AdaptiveRecommender("hybrid", seed=5).fit(history).replay(prs[:3], base)
    assert full[:3] == prefix


def test_replay_on_synthetic_project_is_reproducible(synthetic_project):
    history = synthetic_project["history"]
    test_prs = list(synthetic_project["test"].prs)
    for variant in ("freq", "rec", "hybrid"):
        first = AdaptiveRecommender(variant, seed=11).fit(history).replay(test_prs)
        second = AdaptiveRecommender(variant, seed=11).fit(history).replay(test_prs)
        assert [(s.pr_id, s.delegate, s.winner) for s in first] == [
            (s.pr_id, s.delegate, s.winner) for s in second
        ]
        assert [s.recommendation.ranked for s in first] == [
            s.recommendation.ranked for s in second
        ]


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        AdaptiveRecommender("bogus")
    with pytest.raises(ValueError):
        Brst("bogus")
