"""Development and review expertise over the 28 KUs.

One :class:`Expertise` value per side and cutoff holds each developer's
raw occurrence sums and last-touch dates (commit date / reviewed-PR
opening date) per KU, plus the column totals. :meth:`Expertise.ratio`
normalizes a sum into the developer's share of all occurrences of that
KU observed strictly before the cutoff.

Every "strictly before" question is answered by one :class:`AsOf` index
per store and PR set: per-file snapshots, memoised PR vectors,
per-developer running sums and per-key date lists, each queried with
``bisect``.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, datetime
from functools import cached_property
from operator import attrgetter
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


def _dates_by(pairs: Iterable[tuple[str, datetime]]) -> dict[str, list[datetime]]:
    """Per key: its dates, sorted."""
    out: dict[str, list[datetime]] = {}
    for key, when in pairs:
        out.setdefault(key, []).append(when)
    for dates in out.values():
        dates.sort()
    return out


def _counts_before(index: dict[str, list[datetime]], when: datetime) -> dict[str, int]:
    """Per key: its dates strictly before ``when``; keys with none are absent."""
    counts = {}
    for key, dates in index.items():
        n = bisect_left(dates, when)
        if n:
            counts[key] = n
    return counts


def _by_path(records: Iterable[tuple], date) -> dict[str, dict[str, tuple]]:
    """Group (record, owner, paths) triples per path and then per owner,
    each group sorted by ``date`` (stably, so ties keep their order)."""
    out: dict[str, dict[str, list]] = {}
    for record, owner, paths in records:
        for path in paths:
            out.setdefault(path, {}).setdefault(owner, []).append(record)
    for by_owner in out.values():
        for owner, group in by_owner.items():
            by_owner[owner] = tuple(sorted(group, key=date))
    return out


def _distinct_workdays(comments: Sequence[ReviewComment]) -> tuple[int, ...]:
    """Distinct workdays among the first i+1 of date-sorted comments, per i.

    Comment dates are UTC (``load_prs``), so workdays never decrease along
    the comments and a new one differs from its predecessor's.
    """
    counts, days = [], 0
    for i, comment in enumerate(comments):
        days += not i or comment.workday != comments[i - 1].workday
        counts.append(days)
    return tuple(counts)


_AUTHORED = attrgetter("authored_at")
_OPENED = attrgetter("opened_at")
_COMMENTED = attrgetter("commented_at")


class AsOf:
    """Everything known strictly before a date, over one store and PR set.

    Built once and queried per PR: commits sorted by (date, store order),
    PRs by (opening date, id), each file's snapshots by (date, store
    order), each PR's KU vector computed once, per-developer running sums
    for both sides, and per-key date lists (commits per author and per
    (path, author), own PRs per (path, author), reviewed PRs and review
    comments per reviewer, review comments per (path, reviewer)). Each
    index is built on first use, and every query bisects it at the cutoff
    instead of copying a prefix.

    Review comments count only when written strictly before the cutoff.
    ``load_prs`` rejects a comment dated before its own PR opened, so each
    counted comment's PR also opened before the cutoff.
    """

    def __init__(self, store: KuStore, prs: Sequence[PullRequest] = ()):
        self.store = store
        self.commits = sorted(store.commits, key=lambda c: c.authored_at)
        self.prs = sorted(prs, key=lambda p: (p.opened_at, p.id))
        self._pr_vectors: dict[PullRequest, list[int]] = {}

    # --- per-key date lists ---------------------------------------------------

    @cached_property
    def _authored(self) -> dict[str, list[datetime]]:
        """Per author: dates of their commits."""
        return _dates_by((c.author, c.authored_at) for c in self.commits)

    @cached_property
    def _path_commits(self) -> dict[str, dict[str, tuple[CommitRecord, ...]]]:
        """Per changed Java path, per author: their commits that changed it."""
        return _by_path(((c, c.author, c.changed_java_files) for c in self.commits),
                        _AUTHORED)

    @cached_property
    def _path_prs(self) -> dict[str, dict[str, tuple[PullRequest, ...]]]:
        """Per changed path, per author: their own PRs that changed it."""
        return _by_path(((p, p.author, p.changed_files) for p in self.prs), _OPENED)

    @cached_property
    def _reviewed(self) -> dict[str, list[datetime]]:
        """Per reviewer: opening dates of the PRs they reviewed."""
        return _dates_by((r, p.opened_at) for p in self.prs for r in p.reviewers)

    @cached_property
    def _commented(self) -> dict[str, list[datetime]]:
        """Per reviewer: dates of their review comments."""
        return _dates_by(
            (c.reviewer, c.commented_at) for p in self.prs for c in p.review_comments
        )

    @cached_property
    def _path_comments(
        self,
    ) -> dict[str, dict[str, tuple[tuple[ReviewComment, ...], tuple[int, ...]]]]:
        """Per path, per reviewer: their comments on it sorted by date, and
        the number of distinct workdays among the first i+1 of them.

        Only comments on a path their own PR changed count.
        """
        grouped = _by_path(
            ((c, c.reviewer, (c.path,))
             for pr in self.prs for c in pr.review_comments if c.path in pr.changed_files),
            _COMMENTED,
        )
        return {
            path: {r: (comments, _distinct_workdays(comments))
                   for r, comments in by_reviewer.items()}
            for path, by_reviewer in grouped.items()
        }

    # --- queries ---------------------------------------------------------------

    def commit_counts(self, when: datetime) -> dict[str, int]:
        """Per author: commits authored strictly before ``when`` (none: absent)."""
        return _counts_before(self._authored, when)

    def review_counts(self, when: datetime, mode: str = "prs") -> dict[str, int]:
        """Per reviewer: reviewed PRs opened (``mode="prs"``) or review
        comments written (``mode="comments"``) strictly before ``when``."""
        return _counts_before(self._reviewed if mode == "prs" else self._commented, when)

    def last_commits(self, paths: Iterable[str], when: datetime) -> dict[str, datetime]:
        """Per author: the date of their latest commit strictly before
        ``when`` that changed any of ``paths``."""
        last: dict[str, datetime] = {}
        for path in set(paths):
            for author, commits in self._path_commits.get(path, {}).items():
                n = bisect_left(commits, when, key=_AUTHORED)
                if n and (author not in last or commits[n - 1].authored_at > last[author]):
                    last[author] = commits[n - 1].authored_at
        return last

    def file_reviews(self, path: str, when: datetime) -> list[tuple[str, int, int, date]]:
        """(reviewer, comments, distinct workdays, latest workday) per
        reviewer of ``path``, over comments on it written strictly before
        ``when`` on PRs that changed it."""
        out = []
        for reviewer, (comments, distinct) in self._path_comments.get(path, {}).items():
            n = bisect_left(comments, when, key=_COMMENTED)
            if n:
                out.append((reviewer, n, distinct[n - 1], comments[n - 1].workday))
        return out

    def recent_touches(
        self, developer: str, paths: Iterable[str], since: datetime, until: datetime
    ) -> tuple[list[CommitRecord], list[PullRequest]]:
        """Per path, the developer's latest own commit and latest own PR dated
        before ``until`` that changed it, each kept if dated at or after
        ``since``.

        These are enough to tell which of ``paths`` the developer touched in
        [since, until), at a cost that does not grow with their activity there.
        """
        paths = dict.fromkeys(paths)
        found: tuple[list, list] = ([], [])
        indexes = ((self._path_commits, _AUTHORED), (self._path_prs, _OPENED))
        for (index, dated), out in zip(indexes, found):
            for path in paths:
                records = index.get(path, {}).get(developer, ())
                n = bisect_left(records, until, key=dated)
                if n and dated(records[n - 1]) >= since:
                    out.append(records[n - 1])
        return found

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
