"""Adaptive combined recommenders driven by a Best Recommender System Table.

The three variants delegate each test PR to the base recommender that
won most often within a window of past winners: every winner for AD_FREQ,
the latest one for AD_REC, the last ten for AD_HYBRID. "Winner" for a
completed PR is the base recommender with the best combined score —
(mean accuracy@1..5 + mean AP@1..5) / 2 — over the cumulative prefix of
the test sequence. The very first PR delegates to a seeded random pick.
The layer replays the base rankings it is given and runs no recommender.
"""

from __future__ import annotations

import logging
import random
from collections import Counter, deque
from dataclasses import dataclass

from .evaluation import K_MAX, PrScore
from .prstore import PullRequest
from .recommenders import KIND_ORDER, Recommendation

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


def best_performers(scores: dict[str, list[PrScore]]) -> list[str]:
    """The cumulative best performer after each test PR completed.

    ``scores`` holds each kind's :class:`PrScore` per test PR, in order
    (``evaluation.base_scores``). A kind's combined score over the
    completed prefix is (mean accuracy@1..5 + mean AP@1..5) / 2; ties go
    to the earlier kind in ``KIND_ORDER``. The sequence does not depend
    on the BRST variant.
    """
    acc = dict.fromkeys(KIND_ORDER, 0.0)
    ap = dict.fromkeys(KIND_ORDER, 0.0)
    winners: list[str] = []
    columns = zip(*(scores[kind] for kind in KIND_ORDER), strict=True)
    for n, column in enumerate(columns, start=1):
        for kind, score in zip(KIND_ORDER, column):
            acc[kind] += sum(score.hits) / K_MAX
            ap[kind] += sum(score.aps) / K_MAX
        # max keeps the first maximal kind, so ties follow KIND_ORDER
        winners.append(max(KIND_ORDER, key=lambda kind: (acc[kind] / n + ap[kind] / n) / 2))
    return winners


@dataclass(frozen=True)
class ReplayStep:
    """One test PR's delegation; its ranking is ``base[delegate][pr_id]``."""

    pr_id: int
    delegate: str  # kind actually used for the recommendation
    chosen: str  # kind the policy picked (before any no-KU fallback)


class AdaptiveRecommender:
    """Online combined recommender over a chronological test sequence."""

    def __init__(self, variant: str, seed: int = 0):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.seed = seed

    def replay(self, test_prs: list[PullRequest], base: dict[str, dict[int, Recommendation]],
               winners: list[str]) -> list[ReplayStep]:
        """Run the online protocol over the ordered test PRs.

        ``base`` (kind → pr_id → Recommendation) holds each base
        recommender's ranking of each test PR, shared across variants;
        ``winners`` is :func:`best_performers` of their scores, one per PR.
        """
        rng = random.Random(self.seed)
        brst = Brst(self.variant)
        steps: list[ReplayStep] = []
        for pr, winner in zip(test_prs, winners, strict=True):
            chosen = brst.choose() or rng.choice(KIND_ORDER)
            delegate = chosen
            if delegate == "kurec" and not base["kurec"][pr.id].ranked:
                log.info("PR %s has no KUs; AD_%s falls back to RF", pr.id, self.variant)
                delegate = "rf"
            steps.append(ReplayStep(pr_id=pr.id, delegate=delegate, chosen=chosen))
            brst.update(winner)  # ground truth revealed
        return steps
