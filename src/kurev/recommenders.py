"""KUREC and the four baseline reviewer recommenders.

Every recommender is a small estimator: construct with parameters, `fit`
with the project history, then `recommend(pr)` test PRs. All of them use
strictly-prior data only (commits authored before, and PRs opened before,
the PR under recommendation) and never rank the PR's own author.
``recommend(pr, k)`` keeps the first ``k`` entries of the full ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import cached_property

from .catalog import KU_COUNT
from .errors import NoKuError
from .mining import KuStore
from .prstore import PrDataset, PullRequest
from .profiles import AsOf
# perfbench/tracing.py hooks these profile builders by this module's name
# (tests/test_bench_hooks.py guards it) until in-tree metrics replace the hooks.
from .profiles import dev_exp_matrix, pr_ku_vector, rev_exp_matrix  # noqa: F401

KIND_ORDER = ("kurec", "rf", "chrev", "er", "cf")
# What RF counts per prior PR: its reviewers, or its review comments.
RF_MODES = ("prs", "comments")


@dataclass(frozen=True)
class Recommendation:
    pr_id: int
    kind: str
    ranked: tuple[tuple[str, float], ...]

    def developers(self) -> list[str]:
        return [dev for dev, _ in self.ranked]

    def top(self, k: int) -> list[str]:
        return [dev for dev, _ in self.ranked[:k]]


@dataclass(frozen=True)
class History:
    """Everything a recommender may consult (filtered by PR date at use)."""

    store: KuStore
    prs: PrDataset

    @cached_property
    def asof(self) -> AsOf:
        """The as-of index every recommender queries, built on first use."""
        return AsOf(self.store, self.prs.prs)


def rank(
    scores: dict[str, float], pr_id: int, kind: str, k: int | None = None
) -> Recommendation:
    """Candidates by descending score, ties by name; the first ``k`` (all if None).

    The full sort and then a slice, so a cut ranking is the full ranking's
    prefix by construction, whatever ``k``.
    """
    if k is not None and k < 1:
        raise ValueError(f"k must be at least 1, not {k!r}")
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return Recommendation(pr_id=pr_id, kind=kind, ranked=tuple(ordered[:k]))


def recency_bonus(last: datetime | None, pr_open: datetime) -> float:
    """1 / max(1, whole days between last touch and the PR opening)."""
    if last is None:
        return 0.0
    if last >= pr_open:
        raise ValueError("last touch must precede the PR opening date")
    days = (pr_open - last).days
    return 1.0 / max(1, days)


class BaseRecommender:
    kind = "base"

    def __init__(self) -> None:
        self.history_: History | None = None

    def fit(self, history: History) -> "BaseRecommender":
        self.history_ = history
        return self

    def _history(self) -> History:
        if self.history_ is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted")
        return self.history_

    def recommend(self, pr: PullRequest, k: int | None = None) -> Recommendation:
        """The ranking of ``pr``'s candidates, its first ``k`` entries (all if None)."""
        raise NotImplementedError


class KurecRecommender(BaseRecommender):
    """ExpertiseScore = DevScore + RevScore over the PR's present KUs.

    Each side's score sums, over the present KUs (0-based) in order, the
    developer's ratio and then the recency bonus of their last touch.
    """

    kind = "kurec"

    def recommend(self, pr: PullRequest, k: int | None = None) -> Recommendation:
        scores = {dev: d + r for dev, (d, r) in self._scores(pr).items()}
        return rank(scores, pr.id, self.kind, k)

    def decompose(self, pr: PullRequest) -> dict[str, tuple[float, float]]:
        """Per-candidate (DevScore, RevScore) pairs, for auditability."""
        return self._scores(pr)

    def _scores(self, pr: PullRequest) -> dict[str, tuple[float, float]]:
        asof = self._history().asof
        # the sides first: the review side resolves every PR's vector in date
        # order, so this PR's vector is then a memo hit, not a sweep restart
        sides = (asof.development(pr.opened_at), asof.review(pr.opened_at))
        vector = asof.pr_vector(pr)
        present = [k for k in range(KU_COUNT) if vector[k] > 0]
        if not present:
            raise NoKuError(f"PR {pr.id} contains no detectable KUs")
        bonuses: dict[datetime, float] = {}  # one per distinct last touch
        scores: dict[str, tuple[float, float]] = {}
        candidates = (sides[0].rows.keys() | sides[1].rows.keys()) - {pr.author}
        for name in sorted(candidates):
            pair = []
            for side in sides:
                score = 0.0
                row = side.rows.get(name)
                if row is not None:
                    counts, touched = row
                    for k in present:
                        # an untouched KU would add 0.0 twice, so it is skipped
                        if counts[k]:
                            bonus = bonuses.get(touched[k])
                            if bonus is None:
                                bonus = bonuses[touched[k]] = recency_bonus(
                                    touched[k], pr.opened_at
                                )
                            # Expertise.ratio, inlined: this division is KUREC's
                            # hottest line, and the count is known to be positive
                            score += counts[k] / side.totals[k]
                            score += bonus
                pair.append(score)
            scores[name] = (pair[0], pair[1])
        return scores


class CfRecommender(BaseRecommender):
    """Commit frequency: prior commit count per developer."""

    kind = "cf"

    def recommend(self, pr: PullRequest, k: int | None = None) -> Recommendation:
        counts = self._history().asof.commit_counts(pr.opened_at)
        counts.pop(pr.author, None)
        return rank({dev: float(n) for dev, n in counts.items()}, pr.id, self.kind, k)


class RfRecommender(BaseRecommender):
    """Review frequency: prior reviewed-PR count per developer.

    ``mode="comments"`` counts review comments instead (the paper's
    wording is ambiguous; reviewed PRs is the default reading), only
    those written before the PR opened (:meth:`AsOf.review_counts`).
    """

    kind = "rf"

    def __init__(self, mode: str = "prs"):
        super().__init__()
        if mode not in RF_MODES:
            raise ValueError(f"unknown RF mode {mode!r}")
        self.mode = mode

    def recommend(self, pr: PullRequest, k: int | None = None) -> Recommendation:
        counts = self._history().asof.review_counts(pr.opened_at, self.mode)
        counts.pop(pr.author, None)
        return rank({dev: float(n) for dev, n in counts.items()}, pr.id, self.kind, k)


class ErRecommender(BaseRecommender):
    """Expertise recency: last modifier of the PR's files, newest first."""

    kind = "er"

    def recommend(self, pr: PullRequest, k: int | None = None) -> Recommendation:
        last = self._history().asof.last_commits(pr.changed_files, pr.opened_at)
        last.pop(pr.author, None)
        scores = {
            dev: when.replace(tzinfo=timezone.utc).timestamp() for dev, when in last.items()
        }
        return rank(scores, pr.id, self.kind, k)


class ChrevRecommender(BaseRecommender):
    """CHREV: per-file comment share, workday share, and recency.

    A file's history is the comments on it written before the PR opened,
    on earlier PRs that changed it (:meth:`AsOf.file_reviews`).
    """

    kind = "chrev"

    def recommend(self, pr: PullRequest, k: int | None = None) -> Recommendation:
        asof = self._history().asof
        scores: dict[str, float] = {}
        for path in pr.changed_files:
            for reviewer, x in self._file_stats(asof.file_reviews(path, pr.opened_at)):
                scores[reviewer] = scores.get(reviewer, 0.0) + x
        scores.pop(pr.author, None)
        return rank(scores, pr.id, self.kind, k)

    @staticmethod
    def _file_stats(reviews: list[tuple[str, int, int, date]]) -> list[tuple[str, float]]:
        """Comment share, workday share and recency per reviewer of one file.

        ``reviews`` holds (reviewer, comments, distinct workdays, latest
        workday) per reviewer with at least one comment on the file.
        """
        if not reviews:
            return []
        total_comments = sum(c for _, c, _, _ in reviews)
        total_workdays = sum(w for _, _, w, _ in reviews)
        latest_overall = max(latest for _, _, _, latest in reviews)
        out = []
        for reviewer, c, w, latest in reviews:
            gap = abs((latest_overall - latest).days)
            recency = 1.0 / gap if gap > 0 else 1.0
            out.append((reviewer, c / total_comments + w / total_workdays + recency))
        return out


BASE_RECOMMENDERS = {
    "kurec": KurecRecommender,
    "cf": CfRecommender,
    "rf": RfRecommender,
    "er": ErRecommender,
    "chrev": ChrevRecommender,
}


def make_recommender(kind: str, **params) -> BaseRecommender:
    try:
        cls = BASE_RECOMMENDERS[kind]
    except KeyError:
        raise ValueError(f"unknown recommender kind {kind!r}") from None
    return cls(**params)


def safe_recommend(
    rec: BaseRecommender, pr: PullRequest, k: int | None = None
) -> Recommendation:
    """Base recommendation (its first ``k`` entries, all if None) with the
    no-KU case mapped to an empty ranking."""
    try:
        return rec.recommend(pr, k=k)
    except NoKuError:
        return Recommendation(pr_id=pr.id, kind=rec.kind, ranked=())
