"""Adaptive combined recommenders driven by a Best Recommender System Table.

The three variants delegate each test PR to one base recommender:
AD_FREQ picks the most frequent past winner, AD_REC the latest winner,
AD_HYBRID the most common winner among the last ten PRs. "Winner" for a
completed PR is the base recommender with the best combined score —
(mean accuracy@1..5 + mean AP@1..5) / 2 — over the cumulative prefix of
the test sequence. The very first PR delegates to a seeded random pick.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

from .errors import NoKuError
from .evaluation import average_precision, is_correct_top_k
from .prstore import PullRequest
from .recommenders import KIND_ORDER, BaseRecommender, History, Recommendation

log = logging.getLogger(__name__)

VARIANTS = ("freq", "rec", "hybrid")
WINDOW_SIZE = 10


@dataclass
class Brst:
    """Best Recommender System Table state for one variant."""

    variant: str
    freq_counts: dict[str, int] = field(default_factory=dict)
    last_best: str | None = None
    window: list[str] = field(default_factory=list)

    def update(self, winner: str) -> None:
        self.freq_counts[winner] = self.freq_counts.get(winner, 0) + 1
        self.last_best = winner
        self.window.append(winner)
        if len(self.window) > WINDOW_SIZE:
            del self.window[0]

    def choose(self) -> str | None:
        """Delegate kind per the variant's policy; None when empty."""
        if self.variant == "freq":
            if not self.freq_counts:
                return None
            return max(
                KIND_ORDER,
                key=lambda kind: (
                    self.freq_counts.get(kind, 0),
                    -KIND_ORDER.index(kind),
                ),
            )
        if self.variant == "rec":
            return self.last_best
        if self.variant == "hybrid":
            if not self.window:
                return None
            return max(
                KIND_ORDER,
                key=lambda kind: (
                    self.window.count(kind),
                    -KIND_ORDER.index(kind),
                ),
            )
        raise ValueError(f"unknown BRST variant {self.variant!r}")


@dataclass
class _KindTally:
    """Running combined-score accumulators for one base recommender."""

    acc_sum: float = 0.0
    ap_sum: float = 0.0
    prs: int = 0

    def add(self, rec: Recommendation | None, truth: set[str]) -> None:
        accs = []
        aps = []
        for k in range(1, 6):
            accs.append(1.0 if is_correct_top_k(rec, truth, k) else 0.0)
            ranked = rec.developers() if rec is not None else []
            aps.append(average_precision(ranked, truth, k))
        self.acc_sum += sum(accs) / 5
        self.ap_sum += sum(aps) / 5
        self.prs += 1

    def combined(self) -> float:
        if not self.prs:
            return 0.0
        return (self.acc_sum / self.prs + self.ap_sum / self.prs) / 2


def best_performer(tallies: dict[str, _KindTally]) -> str:
    """Kind with maximal combined score; ties break by the fixed order."""
    if not any(t.prs for t in tallies.values()):
        raise ValueError("best_performer requires at least one completed PR")
    return max(
        KIND_ORDER,
        key=lambda kind: (tallies[kind].combined(), -KIND_ORDER.index(kind)),
    )


def safe_recommend(rec: BaseRecommender, pr: PullRequest) -> Recommendation:
    """Base recommendation with the no-KU case mapped to an empty ranking."""
    try:
        return rec.recommend(pr)
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
    ) -> list[ReplayStep]:
        """Run the online protocol over the ordered test PRs.

        ``base_recommendations`` (kind → pr_id → Recommendation) shares
        base-recommender output across variants and carries the RF mode;
        without it every base recommender runs with its defaults.
        """
        if self.history_ is None:
            raise RuntimeError("AdaptiveRecommender is not fitted")
        if base_recommendations is None:
            from .pipeline import run_base_recommenders  # pipeline imports this module

            base_recommendations = run_base_recommenders(self.history_, test_prs)
        rng = random.Random(self.seed)
        brst = Brst(self.variant)
        tallies = {kind: _KindTally() for kind in KIND_ORDER}
        steps: list[ReplayStep] = []
        for pr in test_prs:
            chosen = brst.choose()
            if chosen is None:
                chosen = rng.choice(KIND_ORDER)
            delegate = chosen
            recs = {kind: base_recommendations[kind][pr.id] for kind in KIND_ORDER}
            if delegate == "kurec" and not recs["kurec"].ranked:
                log.info("PR %s has no KUs; AD_%s falls back to RF", pr.id, self.variant)
                delegate = "rf"
            recommendation = Recommendation(
                pr_id=pr.id, kind=self.kind, ranked=recs[delegate].ranked
            )
            # ground truth revealed: update tallies with every base, then BRST
            for kind in KIND_ORDER:
                tallies[kind].add(recs[kind], set(pr.reviewers))
            winner = best_performer(tallies)
            brst.update(winner)
            steps.append(
                ReplayStep(
                    pr_id=pr.id,
                    delegate=delegate,
                    chosen=chosen,
                    winner=winner,
                    recommendation=recommendation,
                )
            )
        return steps
