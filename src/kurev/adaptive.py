"""Adaptive combined recommenders driven by a Best Recommender System Table.

The three variants delegate each test PR to the base recommender that
won most often within a window of past winners: every winner for AD_FREQ,
the latest one for AD_REC, the last ten for AD_HYBRID. "Winner" for a
completed PR is the base recommender with the best combined score —
(mean accuracy@1..5 + mean AP@1..5) / 2 — over the cumulative prefix of
the test sequence. The very first PR delegates to a seeded random pick.
"""

from __future__ import annotations

import logging
import random
from collections import Counter, deque
from dataclasses import dataclass

from .errors import NoKuError
from .evaluation import K_MAX, PrScore
from .prstore import PullRequest
from .recommenders import KIND_ORDER, BaseRecommender, History, Recommendation

log = logging.getLogger(__name__)

WINDOW_SIZE = 10
# Past winners each variant's BRST weighs: all of them, the last one, the last ten.
WINDOWS = {"freq": None, "rec": 1, "hybrid": WINDOW_SIZE}
VARIANTS = tuple(WINDOWS)


class Brst:
    """Best Recommender System Table state for one variant.

    Every variant picks the most frequent winner in its window, ties
    broken by ``KIND_ORDER``; only the window length differs.
    """

    def __init__(self, variant: str) -> None:
        if variant not in WINDOWS:
            raise ValueError(f"unknown BRST variant {variant!r}")
        self.window: deque[str] = deque(maxlen=WINDOWS[variant])
        self.counts: Counter[str] = Counter()

    def update(self, winner: str) -> None:
        if len(self.window) == self.window.maxlen:
            self.counts[self.window[0]] -= 1
        self.window.append(winner)
        self.counts[winner] += 1

    def choose(self) -> str | None:
        """Delegate kind per the variant's window; None when empty."""
        if not self.window:
            return None
        return max(
            KIND_ORDER,
            key=lambda kind: (self.counts[kind], -KIND_ORDER.index(kind)),
        )


def best_performers(
    test_prs: list[PullRequest],
    base: dict[str, dict[int, Recommendation]],
    scores: dict[str, list[PrScore]] | None = None,
) -> list[str]:
    """The cumulative best performer after each test PR completed.

    A kind's combined score over the completed prefix is (mean
    accuracy@1..5 + mean AP@1..5) / 2; ties go to the earlier kind in
    ``KIND_ORDER``. The sequence does not depend on the BRST variant.
    ``scores`` holds each kind's :class:`PrScore` per test PR, in order;
    it is computed from ``base`` when absent.
    """
    if scores is None:
        scores = {
            kind: [PrScore.of(base[kind][pr.id], set(pr.reviewers)) for pr in test_prs]
            for kind in KIND_ORDER
        }
    acc = dict.fromkeys(KIND_ORDER, 0.0)
    ap = dict.fromkeys(KIND_ORDER, 0.0)
    winners: list[str] = []
    for n in range(1, len(test_prs) + 1):
        for kind in KIND_ORDER:
            score = scores[kind][n - 1]
            acc[kind] += sum(score.hits) / K_MAX
            ap[kind] += sum(score.aps) / K_MAX
        # max keeps the first maximal kind, so ties follow KIND_ORDER
        winners.append(
            max(KIND_ORDER, key=lambda kind: (acc[kind] / n + ap[kind] / n) / 2)
        )
    return winners


def safe_recommend(
    rec: BaseRecommender, pr: PullRequest, k: int | None = None
) -> Recommendation:
    """Base recommendation (its first ``k`` entries, all if None) with the
    no-KU case mapped to an empty ranking."""
    try:
        return rec.recommend(pr, k=k)
    except NoKuError:
        return Recommendation(pr_id=pr.id, kind=rec.kind, ranked=())


@dataclass(frozen=True)
class ReplayStep:
    pr_id: int
    delegate: str  # kind actually used for the recommendation
    chosen: str  # kind the policy picked (before any no-KU fallback)
    winner: str  # cumulative best performer after this PR completed
    recommendation: Recommendation


class AdaptiveRecommender:
    """Online combined recommender over a chronological test sequence."""

    def __init__(self, variant: str, seed: int = 0):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.seed = seed
        self.kind = f"ad_{variant}"
        self.history_: History | None = None

    def fit(self, history: History) -> "AdaptiveRecommender":
        self.history_ = history
        return self

    def replay(
        self,
        test_prs: list[PullRequest],
        base_recommendations: dict[str, dict[int, Recommendation]] | None = None,
        winners: list[str] | None = None,
    ) -> list[ReplayStep]:
        """Run the online protocol over the ordered test PRs.

        ``base_recommendations`` (kind → pr_id → Recommendation) shares
        base-recommender output across variants and carries the RF mode;
        without it every base recommender runs with its defaults.
        ``winners`` is ``best_performers(test_prs, base_recommendations)``,
        computed here when absent.
        """
        if self.history_ is None:
            raise RuntimeError("AdaptiveRecommender is not fitted")
        base = base_recommendations
        if base is None:
            from .pipeline import run_base_recommenders  # pipeline imports this module

            base = run_base_recommenders(self.history_, test_prs)
        if winners is None:
            winners = best_performers(test_prs, base)
        rng = random.Random(self.seed)
        brst = Brst(self.variant)
        steps: list[ReplayStep] = []
        for pr, winner in zip(test_prs, winners, strict=True):
            chosen = brst.choose() or rng.choice(KIND_ORDER)
            delegate = chosen
            if delegate == "kurec" and not base["kurec"][pr.id].ranked:
                log.info("PR %s has no KUs; AD_%s falls back to RF", pr.id, self.variant)
                delegate = "rf"
            ranked = base[delegate][pr.id].ranked
            recommendation = Recommendation(pr_id=pr.id, kind=self.kind, ranked=ranked)
            steps.append(ReplayStep(pr_id=pr.id, delegate=delegate, chosen=chosen,
                                    winner=winner, recommendation=recommendation))
            brst.update(winner)  # ground truth revealed
        return steps
