"""Ranking metrics (top-k accuracy, AP@k/MAP@k) and reasonableness."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import timedelta
from functools import cache
from pathlib import Path
from typing import Iterable, Sequence

from .mining import CommitRecord
from .prstore import PullRequest
from .recommenders import Recommendation
from .util import write_text

SIX_MONTHS = timedelta(days=183)
# The cutoffs k = 1..K_MAX of every reported accuracy@k and MAP@k.
K_MAX = 5


def average_precision(ranked: Sequence[str], truth: set[str], k: int) -> float:
    """AP@k: [Σ (s(i)/i)·rel(i)] / Σ rel(i); zero relevant in top-k → 0.

    s(i) is the running count of correct developers up to position i.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    seen = 0
    total = 0.0
    for i, dev in enumerate(ranked[:k], start=1):
        if dev in truth:
            seen += 1
            total += seen / i
    return total / seen if seen else 0.0


@dataclass(frozen=True, slots=True)
class PrScore:
    """One recommendation's top-k hit and AP@k, for k = 1..K_MAX (index k-1).

    Both depend only on which of the first K_MAX ranks hold a true
    reviewer, so recommendations with the same hit pattern share one value.
    """

    hits: tuple[bool, ...]
    aps: tuple[float, ...]

    @staticmethod
    def of(rec: Recommendation, truth: set[str]) -> "PrScore":
        return _pattern_score(tuple(dev in truth for dev in rec.top(K_MAX)))


@cache
def _pattern_score(pattern: tuple[bool, ...]) -> PrScore:
    """The score of a ranking whose i-th entry is a true reviewer iff pattern[i]."""
    ranked = [str(i) for i in range(len(pattern))]
    truth = {dev for dev, hit in zip(ranked, pattern) if hit}
    ks = range(1, K_MAX + 1)
    return PrScore(
        hits=tuple(any(pattern[:k]) for k in ks),
        aps=tuple(average_precision(ranked, truth, k) for k in ks),
    )


def base_scores(
    base: dict[str, dict[int, Recommendation]], test_prs: Sequence[PullRequest]
) -> dict[str, list[PrScore]]:
    """Each kind's :class:`PrScore` per test PR, in order, of its ranking in ``base``."""
    truths = [set(pr.reviewers) for pr in test_prs]
    return {
        kind: [PrScore.of(recs[pr.id], truth) for pr, truth in zip(test_prs, truths)]
        for kind, recs in base.items()
    }


def mean_scores(scores: Sequence[PrScore]) -> tuple[list[float], list[float]]:
    """Top-k accuracy and MAP@k for k = 1..K_MAX over one recommender's test PRs.

    Equal to the per-k references ``top_k_accuracy`` and ``map_at_k`` in
    ``tests/test_evaluation.py`` over the same recommendations, summed in
    the same order.
    """
    if not scores:
        raise ValueError("no recommendations to score")
    n = len(scores)
    accuracy = [sum(s.hits[k] for s in scores) / n for k in range(K_MAX)]
    mean_ap = [sum(s.aps[k] for s in scores) / n for k in range(K_MAX)]
    return accuracy, mean_ap


def reasonableness(
    pr: PullRequest,
    top1: str,
    commits: Iterable[CommitRecord],
    prior_prs: Iterable[PullRequest],
) -> bool | None:
    """Whether a top-1 mismatch is still a reasonable pick.

    Defined only when top1 is not a true reviewer (returns None otherwise).
    F = files the recommended developer touched — via own commits or own
    submitted PRs — in the 183 days before the PR opened; reasonable iff
    at least half of the PR's changed files are in F.
    """
    if top1 in pr.reviewers:
        return None
    window_start = pr.opened_at - SIX_MONTHS
    touched: set[str] = set()
    for commit in commits:
        if commit.author == top1 and window_start <= commit.authored_at < pr.opened_at:
            touched.update(commit.changed_java_files)
    for prior in prior_prs:
        if prior.author == top1 and window_start <= prior.opened_at < pr.opened_at:
            touched.update(prior.changed_files)
    changed = set(pr.changed_files)
    if not changed:
        return False
    return len(changed & touched) >= 0.5 * len(changed)


@dataclass
class EvalReport:
    """Per-recommender metric table plus reasonableness percentages."""

    project: str
    pr_count: int
    accuracy: dict[tuple[str, int], float] = field(default_factory=dict)
    mean_ap: dict[tuple[str, int], float] = field(default_factory=dict)
    reasonable_pct: dict[str, float] = field(default_factory=dict)

    def recommenders(self) -> list[str]:
        return sorted({kind for kind, _ in self.accuracy})

    def to_table(self) -> str:
        ks = range(1, K_MAX + 1)
        lines = ["project\trecommender\tmetric\t" + "\t".join(f"k{k}" for k in ks)]
        for kind in self.recommenders():
            for metric, data in (("accuracy", self.accuracy), ("map", self.mean_ap)):
                cells = "\t".join(f"{data[(kind, k)]:.6f}" for k in ks)
                lines.append(f"{self.project}\t{kind}\t{metric}\t{cells}")
        lines.append("")
        lines.append("project\trecommender\treasonable_pct\tpr_count")
        for kind in sorted(self.reasonable_pct):
            lines.append(
                f"{self.project}\t{kind}\t{self.reasonable_pct[kind]:.6f}\t{self.pr_count}"
            )
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        write_text(Path(path), self.to_table())
