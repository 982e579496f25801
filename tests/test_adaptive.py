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
from kurev.evaluation import average_precision, base_scores
from kurev.recommenders import Recommendation
from kurev.pipeline import run_base_recommenders
from tests.conftest import make_pr


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


def one_pr_scores(rankings):
    """The scores of one PR (id 1, true reviewer ``hit``) with a ranking per kind."""
    pr = make_pr(1, "2023-02-01T00:00:00Z", "author", ["x.java"], reviewers=["hit"])
    base = {
        kind: {1: Recommendation(pr_id=1, kind=kind,
                                 ranked=tuple((d, 1.0) for d in rankings[kind]))}
        for kind in KIND_ORDER
    }
    return base_scores(base, [pr])


def test_best_performers_prefers_better_combined_score():
    rankings = {kind: ["x", "y"] for kind in KIND_ORDER}
    rankings["cf"] = ["hit", "x"]
    rankings["er"] = ["x", "hit"]
    assert best_performers(one_pr_scores(rankings)) == ["cf"]


def test_best_performers_ties_break_by_kind_order():
    assert best_performers(one_pr_scores({kind: ["x"] for kind in KIND_ORDER})) == [
        "kurec"
    ]
    rankings = {kind: ["x"] for kind in KIND_ORDER}
    rankings["er"] = rankings["chrev"] = ["hit"]
    assert best_performers(one_pr_scores(rankings)) == ["chrev"]


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

    Returns the steps, the winners and how many winners were picked from a
    score tie.
    """
    rng = random.Random(seed)
    brst = Brst(variant)
    tallies = {kind: NaiveTally() for kind in KIND_ORDER}
    steps = []
    winners = []
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
        winners.append(winner)
        steps.append(ReplayStep(pr_id=pr.id, delegate=delegate, chosen=chosen))
    return steps, winners, ties


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
    rng = random.Random(20231)
    singles = ties = fallbacks = 0
    for case in range(300):
        prs, base = random_replay_case(rng)
        winners = best_performers(base_scores(base, prs))
        for variant in VARIANTS:
            model = AdaptiveRecommender(variant, seed=case)
            expected, expected_winners, tied = naive_replay(variant, case, prs, base)
            assert model.replay(prs, base, winners) == expected, (case, variant)
            fallbacks += sum(s.chosen != s.delegate for s in expected)
        assert winners == expected_winners
        singles += len(prs) == 1
        ties += tied
    # the cases exercise single-PR sequences, score ties and the KUREC fallback
    assert singles and ties and fallbacks


def fabricated_setup(n_prs=6):
    """Test PRs, canned base recommendations and their winners for replay tests."""
    prs = [
        make_pr(i, f"2023-02-{i:02d}T00:00:00Z", "author", ["x.java"],
                reviewers=[f"rev{i % 2}"])
        for i in range(1, n_prs + 1)
    ]
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
    return prs, base, best_performers(base_scores(base, prs))


def test_replay_is_deterministic_and_seeded():
    prs, base, winners = fabricated_setup()
    a = AdaptiveRecommender("freq", seed=3).replay(prs, base, winners)
    b = AdaptiveRecommender("freq", seed=3).replay(prs, base, winners)
    assert a == b
    first_expected = random.Random(3).choice(KIND_ORDER)
    assert a[0].chosen == first_expected


def test_replay_no_ku_fallback_delegates_to_rf():
    prs, base, winners = fabricated_setup()
    # seed chosen so the first pick is kurec
    seed = next(
        s for s in range(100) if random.Random(s).choice(KIND_ORDER) == "kurec"
    )
    steps = AdaptiveRecommender("rec", seed=seed).replay(prs, base, winners)
    assert steps[0].chosen == "kurec"
    assert steps[0].delegate == "rf"
    assert base[steps[0].delegate][steps[0].pr_id].ranked == base["rf"][prs[0].id].ranked


def test_replay_winner_is_rf_and_policies_follow():
    prs, base, winners = fabricated_setup()
    # rf always ranks the true reviewer first, so it wins every PR
    assert winners == ["rf"] * len(prs)
    for variant in ("freq", "rec", "hybrid"):
        steps = AdaptiveRecommender(variant, seed=0).replay(prs, base, winners)
        # after the first (random) PR every delegation follows the winner
        assert all(step.delegate == "rf" for step in steps[1:])


def test_replay_prefix_matches_full_run():
    prs, base, winners = fabricated_setup()
    full = AdaptiveRecommender("hybrid", seed=5).replay(prs, base, winners)
    prefix_winners = best_performers(base_scores(base, prs[:3]))
    assert prefix_winners == winners[:3]  # the winners are cumulative
    prefix = AdaptiveRecommender("hybrid", seed=5).replay(prs[:3], base, prefix_winners)
    assert full[:3] == prefix


def replay_from_scratch(asof, test_prs, variant, seed):
    """A variant's steps, the winners and each step's ranking, from base
    rankings run anew."""
    base = run_base_recommenders(asof, test_prs)
    winners = best_performers(base_scores(base, test_prs))
    steps = AdaptiveRecommender(variant, seed=seed).replay(test_prs, base, winners)
    return steps, winners, [base[s.delegate][s.pr_id].ranked for s in steps]


def test_replay_on_synthetic_project_is_reproducible(synthetic_project):
    asof = synthetic_project["asof"]
    test_prs = list(synthetic_project["test"].prs)
    for variant in ("freq", "rec", "hybrid"):
        first, winners_a, rankings_a = replay_from_scratch(asof, test_prs, variant, 11)
        second, winners_b, rankings_b = replay_from_scratch(asof, test_prs, variant, 11)
        assert [(s.pr_id, s.delegate) for s in first] == [
            (s.pr_id, s.delegate) for s in second
        ]
        assert winners_a == winners_b
        assert rankings_a == rankings_b


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        AdaptiveRecommender("bogus")
    with pytest.raises(ValueError):
        Brst("bogus")
