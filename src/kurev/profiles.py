"""Development and review expertise over the 28 KUs.

One :class:`Expertise` value per side and cutoff holds each developer's
raw occurrence sums and last-touch dates (commit date / reviewed-PR
opening date) per KU, plus the column totals. :meth:`Expertise.ratio`
normalizes a sum into the developer's share of all occurrences of that
KU observed strictly before the cutoff.

Every "strictly before" question is answered by one :class:`AsOf` index
per store and PR set: a timeline per key (an author, a reviewer, a path,
a (path, developer) pair) of date-sorted entries, and one query,
:func:`_before`, that bisects timelines at a cutoff for their last entry
before it. Where the question is a count, each entry is the count so far.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, datetime
from functools import cached_property
from pathlib import Path
from typing import Hashable, Iterable, Iterator, Sequence

from .catalog import KU_COUNT, KU_NAMES
from .mining import CommitRecord, KuStore
from .prstore import PrDataset, PullRequest
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

# A timeline is one tuple: the tuple of its dates, ascending, then the entry
# of each date in the same order, so entry timeline[n] is dated dates[n - 1].
# Two objects per key keep the many one- or two-entry (path, developer)
# timelines small.
Timeline = tuple


def _timelines(events: Iterable[tuple[Hashable, datetime, object]]) -> dict:
    """One timeline per key from (key, date, entry) events that arrive in
    date order; a (path, developer) key is filed under out[path][developer]."""
    out: dict = {}
    for key, when, entry in events:
        node = out
        if isinstance(key, tuple):
            path, key = key
            node = out.setdefault(path, {})
        timeline = node.get(key)
        if timeline is None:
            node[key] = [[when], entry]
        else:
            timeline[0].append(when)
            timeline.append(entry)
    # Each timeline was built as a list, [[date, ...], entry, ...]; freeze it.
    nodes = [out]
    for node in nodes:
        for key, value in node.items():
            if isinstance(value, dict):
                nodes.append(value)
            else:
                value[0] = tuple(value[0])
                node[key] = tuple(value)
    return out


def _before(timelines: dict[Hashable, Timeline], when: datetime | None) -> dict:
    """Per key with entries dated strictly before ``when`` (None: with any
    entry), the last of them."""
    last = {}
    for key, timeline in timelines.items():
        dates = timeline[0]
        n = len(dates) if when is None else bisect_left(dates, when)
        if n:
            last[key] = timeline[n]
    return last


def _tallied(
    events: Iterable[tuple[Hashable, datetime]]
) -> Iterator[tuple[Hashable, datetime, int]]:
    """Each (key, date) event with how many events of its key there are so
    far, so that a timeline's last entry before a date is a count."""
    tally: dict[Hashable, int] = {}
    for key, when in events:
        tally[key] = n = tally.get(key, 0) + 1
        yield key, when, n


def _running(
    events: Iterable[tuple[datetime, Iterable[str], Sequence[list[int] | None]]]
) -> Iterator[tuple[str | None, datetime, object]]:
    """Running sums of one side, from (date, developers, vectors) events in
    date order: after each event, the row of each developer it credits and,
    under the key None, the column totals.

    Every developer of an event is credited every vector of it; None
    vectors (unresolvable files) add nothing.
    """
    rows: dict[str, Row] = {}
    totals = _NO_ROW[0]
    for when, developers, vectors in events:
        column = list(totals)
        for developer in developers:
            counts, touched = map(list, rows.get(developer, _NO_ROW))
            for vector in vectors:
                for k, count in enumerate(vector or ()):
                    if count:
                        counts[k] += count
                        column[k] += count
                        touched[k] = when
            rows[developer] = row = (tuple(counts), tuple(touched))
            yield developer, when, row
        totals = tuple(column)
        yield None, when, totals


def _expertise(kind: str, side: dict, cutoff: datetime | None) -> Expertise:
    """One side's rows and totals as of a cutoff (see :func:`_running`)."""
    rows = _before(side, cutoff)
    totals = rows.pop(None, _NO_ROW[0])
    return Expertise(kind=kind, cutoff=cutoff, rows=rows, totals=totals)


class AsOf:
    """Everything known strictly before a date, over one store and PR set.

    Built once and queried per PR. Commits are sorted by (date, store
    order) and PRs by (opening date, id), so every stream of events but
    the review comments arrives in date order; those are stably sorted
    first. Each PR's KU vector is computed once. The timelines, each built
    on first use: commits per author and per (path, author), own PRs per
    (path, author), reviewed PRs and review comments per reviewer, review
    comments per (path, reviewer) with a running count of distinct
    workdays, resolvable snapshots per path, and both sides' running rows
    per developer and column totals. Every query bisects them at the
    cutoff instead of copying a prefix.

    Review comments count only when written strictly before the cutoff.
    ``load_prs`` rejects a comment dated before its own PR opened, so each
    counted comment's PR also opened before the cutoff.
    """

    def __init__(self, store: KuStore, prs: Sequence[PullRequest] = ()):
        self.store = store
        self.commits = sorted(store.commits, key=lambda c: c.authored_at)
        self.prs = sorted(prs, key=lambda p: (p.opened_at, p.id))
        self._pr_vectors: dict[int, list[int]] = {}

    # --- timelines -------------------------------------------------------------

    @cached_property
    def _authored(self) -> dict[str, Timeline]:
        """Per author: their commits, each entry a count so far."""
        return _timelines(_tallied((c.author, c.authored_at) for c in self.commits))

    @cached_property
    def _path_commits(self) -> dict[str, dict[str, Timeline]]:
        """Per changed Java path, per author: their commits that changed it."""
        return _timelines(((path, c.author), c.authored_at, c)
                          for c in self.commits for path in c.changed_java_files)

    @cached_property
    def _path_prs(self) -> dict[str, dict[str, Timeline]]:
        """Per changed path, per author: their own PRs that changed it."""
        return _timelines(((path, p.author), p.opened_at, p)
                          for p in self.prs for path in p.changed_files)

    @cached_property
    def _reviewed(self) -> dict[str, Timeline]:
        """Per reviewer: the PRs they reviewed, by opening date, each entry a
        count so far."""
        return _timelines(_tallied((r, p.opened_at) for p in self.prs for r in p.reviewers))

    @cached_property
    def _commented(self) -> dict[str, Timeline]:
        """Per reviewer: their review comments, each entry a count so far."""
        comments = sorted((c for p in self.prs for c in p.review_comments),
                          key=lambda c: c.commented_at)
        return _timelines(_tallied((c.reviewer, c.commented_at) for c in comments))

    @cached_property
    def _path_comments(self) -> dict[str, dict[str, Timeline]]:
        """Per path, per reviewer: their comments on it, each entry (count,
        distinct workdays, date) of the comments up to it.

        Only comments on a path their own PR changed count. Comment dates
        are UTC (``load_prs``), so workdays never decrease along a timeline
        and a new one differs from its predecessor's.
        """
        comments = sorted((c for p in self.prs for c in p.review_comments
                           if c.path in p.changed_files), key=lambda c: c.commented_at)
        last: dict[tuple[str, str], tuple[int, int, datetime]] = {}

        def events():
            for c in comments:
                key = (c.path, c.reviewer)
                n, days, latest = last.get(key, (0, 0, None))
                days += latest is None or c.workday != latest.date()
                last[key] = entry = (n + 1, days, c.commented_at)
                yield key, c.commented_at, entry

        return _timelines(events())

    @cached_property
    def _snapshots(self) -> dict[str, Timeline]:
        """Per path: the vectors of its resolvable snapshots."""
        return _timelines(
            (path, c.authored_at, vector)
            for c in self.commits for path in c.changed_java_files
            if (vector := self.store.vector(c.hash, path)) is not None
        )

    @cached_property
    def _development(self) -> dict[str | None, Timeline]:
        """Running sums per author over commits (see :func:`_running`)."""
        return _timelines(_running(
            (c.authored_at, (c.author,),
             [self.store.vector(c.hash, path) for path in c.changed_java_files])
            for c in self.commits
        ))

    @cached_property
    def _review(self) -> dict[str | None, Timeline]:
        """Running sums per reviewer over reviewed PRs (see :func:`_running`)."""
        return _timelines(_running(
            (pr.opened_at, pr.reviewers, (self.pr_vector(pr),))
            for pr in self.prs if pr.reviewers
        ))

    # --- queries ---------------------------------------------------------------

    def commit_counts(self, when: datetime) -> dict[str, int]:
        """Per author: commits authored strictly before ``when`` (none: absent)."""
        return _before(self._authored, when)

    def review_counts(self, when: datetime, mode: str = "prs") -> dict[str, int]:
        """Per reviewer: reviewed PRs opened (``mode="prs"``) or review
        comments written (``mode="comments"``) strictly before ``when``."""
        return _before(self._reviewed if mode == "prs" else self._commented, when)

    def last_commits(self, paths: Iterable[str], when: datetime) -> dict[str, datetime]:
        """Per author: the date of their latest commit strictly before
        ``when`` that changed any of ``paths``."""
        last: dict[str, datetime] = {}
        for path in set(paths):
            for author, commit in _before(self._path_commits.get(path, {}), when).items():
                if author not in last or commit.authored_at > last[author]:
                    last[author] = commit.authored_at
        return last

    def file_reviews(self, path: str, when: datetime) -> list[tuple[str, int, int, date]]:
        """(reviewer, comments, distinct workdays, latest workday) per
        reviewer of ``path``, over comments on it written strictly before
        ``when`` on PRs that changed it."""
        return [
            (reviewer, n, days, latest.date())
            for reviewer, (n, days, latest)
            in _before(self._path_comments.get(path, {}), when).items()
        ]

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

        def latest(index: dict[str, dict[str, Timeline]]) -> Iterable:
            own = {p: index[p][developer] for p in paths if developer in index.get(p, ())}
            return _before(own, until).values()

        return ([c for c in latest(self._path_commits) if c.authored_at >= since],
                [p for p in latest(self._path_prs) if p.opened_at >= since])

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
        timeline = self._snapshots.get(path)
        return _before({path: timeline}, pr.opened_at).get(path) if timeline else None

    def pr_vector(self, pr: PullRequest) -> list[int]:
        """Aggregate KU vector over a PR's changed Java files, memoised by id."""
        total = self._pr_vectors.get(pr.id)
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
            self._pr_vectors[pr.id] = total
        return total

    def development(self, cutoff: datetime | None) -> Expertise:
        """Occurrences per author over commits strictly before the cutoff."""
        return _expertise("development", self._development, cutoff)

    def review(self, cutoff: datetime | None) -> Expertise:
        """Occurrences per reviewer over PRs opened strictly before the cutoff.

        Every reviewer of a PR is credited the full occurrences of its files.
        """
        return _expertise("review", self._review, cutoff)


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
