"""KUREC and the four baseline reviewer recommenders.

Every recommender is a small estimator: construct with parameters, `fit`
with the project history, then `recommend(pr)` test PRs. All of them use
strictly-prior data only (commits authored before, and PRs opened before,
the PR under recommendation) and never rank the PR's own author.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property

from .catalog import KU_COUNT
from .errors import NoKuError
from .mining import KuStore
from .prstore import PrDataset, PullRequest, ReviewComment
from .profiles import AsOf, Expertise
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


def rank(scores: dict[str, float], pr_id: int, kind: str) -> Recommendation:
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return Recommendation(pr_id=pr_id, kind=kind, ranked=tuple(ordered))


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

    def recommend(self, pr: PullRequest) -> Recommendation:
        raise NotImplementedError


def _side_score(
    side: Expertise, developer: str, present: list[int], pr_open: datetime
) -> float:
    """Sum over present KUs (0-based) of ratio plus recency bonus."""
    row = side.rows.get(developer)
    if row is None:
        return 0.0
    score = 0.0
    for k in present:
        score += side.ratio(developer, k)
        score += recency_bonus(row[1][k], pr_open)
    return score


class KurecRecommender(BaseRecommender):
    """ExpertiseScore = DevScore + RevScore over the PR's present KUs."""

    kind = "kurec"

    def recommend(self, pr: PullRequest) -> Recommendation:
        scores = {dev: d + r for dev, (d, r) in self._scores(pr).items()}
        return rank(scores, pr.id, self.kind)

    def decompose(self, pr: PullRequest) -> dict[str, tuple[float, float]]:
        """Per-candidate (DevScore, RevScore) pairs, for auditability."""
        return self._scores(pr)

    def _scores(self, pr: PullRequest) -> dict[str, tuple[float, float]]:
        asof = self._history().asof
        vector = asof.pr_vector(pr)
        present = [k for k in range(KU_COUNT) if vector[k] > 0]
        if not present:
            raise NoKuError(f"PR {pr.id} contains no detectable KUs")
        dev = asof.development(pr.opened_at)
        rev = asof.review(pr.opened_at)
        candidates = (dev.rows.keys() | rev.rows.keys()) - {pr.author}
        return {
            name: (
                _side_score(dev, name, present, pr.opened_at),
                _side_score(rev, name, present, pr.opened_at),
            )
            for name in sorted(candidates)
        }


class CfRecommender(BaseRecommender):
    """Commit frequency: prior commit count per developer."""

    kind = "cf"

    def recommend(self, pr: PullRequest) -> Recommendation:
        counts: dict[str, float] = {}
        for commit in self._history().asof.commits_before(pr.opened_at):
            counts[commit.author] = counts.get(commit.author, 0.0) + 1.0
        counts.pop(pr.author, None)
        return rank(counts, pr.id, self.kind)


class RfRecommender(BaseRecommender):
    """Review frequency: prior reviewed-PR count per developer.

    ``mode="comments"`` counts review comments instead (the paper's
    wording is ambiguous; reviewed PRs is the default reading), only
    those written before the PR opened (:meth:`AsOf.comments_before`).
    """

    kind = "rf"

    def __init__(self, mode: str = "prs"):
        super().__init__()
        if mode not in RF_MODES:
            raise ValueError(f"unknown RF mode {mode!r}")
        self.mode = mode

    def recommend(self, pr: PullRequest) -> Recommendation:
        asof = self._history().asof
        if self.mode == "prs":
            names = (r for prior in asof.prs_before(pr.opened_at) for r in prior.reviewers)
        else:
            names = (c.reviewer for c, _ in asof.comments_before(pr.opened_at))
        counts: dict[str, float] = {}
        for name in names:
            counts[name] = counts.get(name, 0.0) + 1.0
        counts.pop(pr.author, None)
        return rank(counts, pr.id, self.kind)


class ErRecommender(BaseRecommender):
    """Expertise recency: last modifier of the PR's files, newest first."""

    kind = "er"

    def recommend(self, pr: PullRequest) -> Recommendation:
        changed = set(pr.changed_files)
        last: dict[str, float] = {}
        for commit in self._history().asof.commits_before(pr.opened_at):
            if not changed.intersection(commit.changed_java_files):
                continue
            # commits come in date order, so the last write is the latest
            last[commit.author] = commit.authored_at.replace(tzinfo=timezone.utc).timestamp()
        last.pop(pr.author, None)
        return rank(last, pr.id, self.kind)


class ChrevRecommender(BaseRecommender):
    """CHREV: per-file comment share, workday share, and recency.

    A file's history is the comments on it written before the PR opened,
    on earlier PRs that changed it (:meth:`AsOf.comments_before`).
    """

    kind = "chrev"

    def recommend(self, pr: PullRequest) -> Recommendation:
        changed = set(pr.changed_files)
        by_path: dict[str, list[ReviewComment]] = {}
        for comment, prior in self._history().asof.comments_before(pr.opened_at):
            if comment.path in changed and comment.path in prior.changed_files:
                by_path.setdefault(comment.path, []).append(comment)
        scores: dict[str, float] = {}
        for path in pr.changed_files:
            for reviewer, x in self._file_stats(by_path.get(path, [])).items():
                scores[reviewer] = scores.get(reviewer, 0.0) + x
        scores.pop(pr.author, None)
        return rank(scores, pr.id, self.kind)

    @staticmethod
    def _file_stats(file_comments: list[ReviewComment]) -> dict[str, float]:
        """Comment share, workday share and recency per reviewer of one file."""
        comments: dict[str, int] = {}
        workdays: dict[str, set] = {}
        for comment in file_comments:
            r = comment.reviewer
            comments[r] = comments.get(r, 0) + 1
            workdays.setdefault(r, set()).add(comment.workday)
        if not comments:
            return {}
        total_comments = sum(comments.values())
        total_workdays = sum(len(days) for days in workdays.values())
        latest_overall = max(max(days) for days in workdays.values())
        out: dict[str, float] = {}
        for reviewer, c in comments.items():
            share_c = c / total_comments if total_comments else 0.0
            share_w = len(workdays[reviewer]) / total_workdays if total_workdays else 0.0
            gap = abs((latest_overall - max(workdays[reviewer])).days)
            recency = 1.0 / gap if gap > 0 else 1.0
            out[reviewer] = share_c + share_w + recency
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
