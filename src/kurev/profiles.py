"""Development and review expertise over the 28 KUs.

One :class:`Expertise` value per side and cutoff holds each developer's
raw occurrence sums and last-touch dates (commit date / reviewed-PR
opening date) per KU, plus the column totals. :meth:`Expertise.ratio`
normalizes a sum into the developer's share of all occurrences of that
KU observed strictly before the cutoff.

Every "strictly before" question is answered by one :class:`AsOf` index
per store and PR set: sorted commits, PRs and comments, per-file snapshots,
memoised PR vectors and per-developer running sums, each queried with
``bisect``.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .catalog import KU_COUNT, KU_NAMES
from .mining import CommitRecord, KuStore
from .prstore import PrDataset, PullRequest, ReviewComment
from .util import atomic_open, format_rfc3339, write_jsonl

log = logging.getLogger(__name__)


# Raw sums and last-touch dates (None = never) of one developer, per KU.
Row = tuple[tuple[int, ...], tuple[datetime | None, ...]]


@dataclass(frozen=True)
class Expertise:
    """One side's raw sums and last touches as of a cutoff.

    ``rows`` holds every developer with at least one event before the
    cutoff, even when all their counts are zero; ``totals`` are the column
    sums over all of them.
    """

    kind: str  # development | review
    cutoff: datetime | None
    rows: dict[str, Row]
    totals: tuple[int, ...]

    def ratio(self, developer: str, ku_index: int) -> float:
        """Share of a 0-based KU column's occurrences; unknown developers score 0."""
        row = self.rows.get(developer)
        total = self.totals[ku_index]
        if row is None or total <= 0:
            return 0.0
        return row[0][ku_index] / total


_NO_ROW: Row = ((0,) * KU_COUNT, (None,) * KU_COUNT)


class _Side:
    """Running sums of one side: one entry per event, per developer.

    Events must arrive in date order, so a developer's last entry before a
    cutoff holds their sums and latest touches as of that cutoff.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.dates: dict[str, list[datetime]] = {}
        self.rows: dict[str, list[Row]] = {}
        self.total_dates: list[datetime] = []
        self.totals: list[tuple[int, ...]] = []

    def add(
        self, developer: str, when: datetime, vectors: Iterable[list[int] | None]
    ) -> None:
        """One event; None vectors (unresolvable files) add nothing."""
        rows = self.rows.setdefault(developer, [])
        counts, touched = map(list, rows[-1] if rows else _NO_ROW)
        totals = list(self.totals[-1] if self.totals else _NO_ROW[0])
        for vector in vectors:
            for k, count in enumerate(vector or ()):
                if count:
                    counts[k] += count
                    totals[k] += count
                    touched[k] = when
        self.dates.setdefault(developer, []).append(when)
        rows.append((tuple(counts), tuple(touched)))
        self.total_dates.append(when)
        self.totals.append(tuple(totals))

    def before(self, cutoff: datetime | None) -> Expertise:
        rows = {}
        for dev, dates in self.dates.items():
            i = len(dates) if cutoff is None else bisect_left(dates, cutoff)
            if i:
                rows[dev] = self.rows[dev][i - 1]
        dates = self.total_dates
        n = len(dates) if cutoff is None else bisect_left(dates, cutoff)
        totals = self.totals[n - 1] if n else _NO_ROW[0]
        return Expertise(kind=self.kind, cutoff=cutoff, rows=rows, totals=totals)


class AsOf:
    """Everything known strictly before a date, over one store and PR set.

    Built once and queried per PR: commits sorted by (date, store order),
    PRs by (opening date, id), review comments by date, each file's
    snapshots by (date, store order), each PR's KU vector computed once,
    and per-developer running sums for both sides, each built on first use.
    """

    def __init__(self, store: KuStore, prs: Sequence[PullRequest] = ()):
        self.store = store
        self.commits = sorted(store.commits, key=lambda c: c.authored_at)
        self._commit_dates = [c.authored_at for c in self.commits]
        self.prs = sorted(prs, key=lambda p: (p.opened_at, p.id))
        self._pr_dates = [p.opened_at for p in self.prs]
        self._pr_vectors: dict[PullRequest, list[int]] = {}

    def commits_before(self, when: datetime) -> list[CommitRecord]:
        return self.commits[: bisect_left(self._commit_dates, when)]

    def prs_before(self, when: datetime) -> list[PullRequest]:
        return self.prs[: bisect_left(self._pr_dates, when)]

    @cached_property
    def _comments(self) -> tuple[list[datetime], list[tuple[ReviewComment, PullRequest]]]:
        pairs = sorted(((c, pr) for pr in self.prs for c in pr.review_comments),
                       key=lambda pair: pair[0].commented_at)
        return [c.commented_at for c, _ in pairs], pairs

    def comments_before(self, when: datetime) -> list[tuple[ReviewComment, PullRequest]]:
        """Review comments written strictly before ``when``, each with its PR.

        ``load_prs`` rejects a comment dated before its own PR opened, so
        each of these PRs is also one of :meth:`prs_before`.
        """
        dates, pairs = self._comments
        return pairs[: bisect_left(dates, when)]

    @cached_property
    def _snapshots(self) -> dict[str, tuple[list[datetime], list[list[int]]]]:
        """Per path: dates and vectors of its resolvable snapshots."""
        out: dict[str, tuple[list[datetime], list[list[int]]]] = {}
        for commit in self.commits:
            for path in commit.changed_java_files:
                vector = self.store.vector(commit.hash, path)
                if vector is not None:
                    dates, vectors = out.setdefault(path, ([], []))
                    dates.append(commit.authored_at)
                    vectors.append(vector)
        return out

    def file_vector(self, pr: PullRequest, path: str) -> list[int] | None:
        """KU vector backing one changed file of a PR.

        Prefers the snapshot at the PR's recorded head commit; otherwise the
        file's latest snapshot from a commit before the PR was opened (on
        equal dates, the later commit in store order).
        """
        if pr.head_commit is not None:
            vector = self.store.vector(pr.head_commit, path)
            if vector is not None:
                return vector
        dates, vectors = self._snapshots.get(path, ((), ()))
        i = bisect_left(dates, pr.opened_at)
        return vectors[i - 1] if i else None

    def pr_vector(self, pr: PullRequest) -> list[int]:
        """Aggregate KU vector over a PR's changed Java files (memoised)."""
        total = self._pr_vectors.get(pr)
        if total is None:
            total = [0] * KU_COUNT
            for path in pr.changed_java_files():
                vector = self.file_vector(pr, path)
                if vector is None:
                    log.warning(
                        "PR %s: no content resolvable for %s; skipped", pr.id, path
                    )
                    continue
                for k, count in enumerate(vector):
                    total[k] += count
            self._pr_vectors[pr] = total
        return total

    @cached_property
    def _development(self) -> _Side:
        side = _Side("development")
        for commit in self.commits:
            vectors = [self.store.vector(commit.hash, path)
                       for path in commit.changed_java_files]
            side.add(commit.author, commit.authored_at, vectors)
        return side

    @cached_property
    def _review(self) -> _Side:
        side = _Side("review")
        for pr in self.prs:
            if pr.reviewers:
                vector = self.pr_vector(pr)
                for reviewer in pr.reviewers:
                    side.add(reviewer, pr.opened_at, (vector,))
        return side

    def development(self, cutoff: datetime | None) -> Expertise:
        """Occurrences per author over commits strictly before the cutoff."""
        return self._development.before(cutoff)

    def review(self, cutoff: datetime | None) -> Expertise:
        """Occurrences per reviewer over PRs opened strictly before the cutoff.

        Every reviewer of a PR is credited the full occurrences of its files.
        """
        return self._review.before(cutoff)


def dev_exp_matrix(store: KuStore, cutoff: datetime | None) -> Expertise:
    """Occurrences per author over commits strictly before the cutoff."""
    return AsOf(store).development(cutoff)


def resolve_pr_file_vector(
    store: KuStore, pr: PullRequest, path: str
) -> list[int] | None:
    """KU vector backing one changed file of a PR (see :meth:`AsOf.file_vector`)."""
    return AsOf(store).file_vector(pr, path)


def pr_ku_vector(store: KuStore, pr: PullRequest) -> list[int]:
    """Aggregate KU vector over a PR's changed Java files."""
    return AsOf(store).pr_vector(pr)


def rev_exp_matrix(
    prs: PrDataset, store: KuStore, cutoff: datetime | None
) -> Expertise:
    """Occurrences per reviewer over PRs opened strictly before the cutoff.

    Every reviewer of a PR is credited the full occurrences of its files.
    """
    # Later PRs could not count; indexing them would only resolve (and warn
    # about) their files.
    prior = [p for p in prs.prs if cutoff is None or p.opened_at < cutoff]
    return AsOf(store, prior).review(cutoff)


def global_ku_profiles(store: KuStore) -> Expertise:
    """P_ku: the whole-store development expertise (cutoff = +infinity)."""
    return dev_exp_matrix(store, cutoff=None)


# --- persistence -----------------------------------------------------------


def save_matrix(expertise: Expertise, path: str | Path) -> None:
    """One row of normalized ratios per developer, sorted by name."""
    with atomic_open(Path(path)) as fh:
        fh.write("developer\t" + "\t".join(KU_NAMES) + "\n")
        for dev in sorted(expertise.rows):
            ratios = (f"{expertise.ratio(dev, k):.12g}" for k in range(KU_COUNT))
            fh.write(dev + "\t" + "\t".join(ratios) + "\n")


def save_last_touch(expertise: Expertise, path: str | Path) -> None:
    """One record per touched (developer, 1-based KU), sorted."""
    write_jsonl(
        Path(path),
        (
            {"developer": dev, "ku": k + 1, "last": format_rfc3339(when)}
            for dev, (_, touched) in sorted(expertise.rows.items())
            for k, when in enumerate(touched)
            if when is not None
        ),
    )
