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
    _KindTally,
    best_performer,
)
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


def tally_for(ranked, truth):
    tally = _KindTally()
    tally.add(
        Recommendation(pr_id=1, kind="cf",
                       ranked=tuple((d, 1.0) for d in ranked)),
        truth,
    )
    return tally


def test_best_performer_prefers_better_combined_score():
    tallies = {kind: _KindTally() for kind in KIND_ORDER}
    tallies["cf"] = tally_for(["hit", "x"], {"hit"})
    tallies["er"] = tally_for(["x", "hit"], {"hit"})
    for kind in KIND_ORDER:
        if kind not in ("cf", "er"):
            tallies[kind] = tally_for(["x", "y"], {"hit"})
    assert best_performer(tallies) == "cf"


def test_best_performer_ties_break_by_kind_order():
    tallies = {kind: tally_for(["x"], {"hit"}) for kind in KIND_ORDER}
    assert best_performer(tallies) == "kurec"
    with pytest.raises(ValueError):
        best_performer({kind: _KindTally() for kind in KIND_ORDER})


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
