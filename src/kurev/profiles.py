"""Development and review expertise over the 28 KUs.

One :class:`Expertise` value per side and cutoff holds each developer's
raw occurrence sums and last-touch dates (commit date / reviewed-PR
opening date) per KU, plus the column totals. :meth:`Expertise.ratio`
normalizes a sum into the developer's share of all occurrences of that
KU observed strictly before the cutoff.

Every "strictly before" question is answered by one :class:`AsOf` index
per store and PR set: per question, a :class:`_Sweep` folds date-ordered
events into a state (counts, the latest value per path and developer, or
running rows) up to a cutoff. Its cost depends on query order: it resumes
where the last query stopped, but starts over on an earlier cutoff.
``tests/test_profiles.py`` checks that evaluation stays linear.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date, datetime
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

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


class _Sweep:
    """A state folded from date-ordered ``(date, ...)`` events up to a cutoff.

    :meth:`at` resumes where the last query stopped, so queries in date
    order fold each event once; a cutoff earlier than an event already
    folded starts over from an empty state.
    """

    def __init__(self, events: list[tuple], fold: Callable[[dict, tuple], None]):
        self.events = events
        self.fold = fold
        self.state: dict = {}
        self.folded = 0  # events[:folded] are in state

    def at(self, when: datetime | None) -> dict:
        """The state after the events dated strictly before ``when`` (None:
        all). It is live: read it before the next query, and never change it."""
        events, n = self.events, self.folded
        if n and when is not None and events[n - 1][0] >= when:
            self.state, n = {}, 0
        state, fold = self.state, self.fold
        while n < len(events) and (when is None or events[n][0] < when):
            fold(state, events[n])
            n += 1
        self.folded = n
        return state


# The folds: each applies one event to a sweep's state.


def _count(state: dict, event: tuple) -> None:
    """(date, key): events per key."""
    state[event[1]] = state.get(event[1], 0) + 1


def _latest(state: dict, event: tuple) -> None:
    """(date, path, developer, value): the latest value per path and developer."""
    _, path, developer, value = event
    state.setdefault(path, {})[developer] = value


def _latest_snapshot(state: dict, event: tuple) -> None:
    """(date, path, vector): the latest vector per path."""
    state[event[1]] = event[2]


def _tally_comment(state: dict, event: tuple) -> None:
    """(date, path, reviewer, workday): per path and reviewer, (comments,
    distinct workdays, latest workday). Comment dates are UTC
    (``load_prs``), so a new workday differs from the latest."""
    _, path, reviewer, workday = event
    reviews = state.setdefault(path, {})
    n, days, latest = reviews.get(reviewer, (0, 0, None))
    reviews[reviewer] = (n + 1, days + (workday != latest), workday)


def _credit(state: dict, event: tuple) -> None:
    """(date, developers, vectors): per developer, the running row of one
    side, crediting every developer every vector of the event (None
    vectors, unresolvable files, add nothing); column totals under None."""
    when, developers, vectors = event
    column = list(state.get(None, _NO_ROW[0]))
    for developer in developers:
        counts, touched = map(list, state.get(developer, _NO_ROW))
        for vector in vectors:
            for k, count in enumerate(vector or ()):
                if count:
                    counts[k] += count
                    column[k] += count
                    touched[k] = when
        state[developer] = (tuple(counts), tuple(touched))
    state[None] = tuple(column)


def _expertise(kind: str, side: _Sweep, cutoff: datetime | None) -> Expertise:
    """One side's rows and totals as of a cutoff (see :func:`_credit`)."""
    rows = dict(side.at(cutoff))
    totals = rows.pop(None, _NO_ROW[0])
    return Expertise(kind=kind, cutoff=cutoff, rows=rows, totals=totals)


class AsOf:
    """Everything known strictly before a date, over one store and PR set.

    Built once and queried per PR, through one sweep per question, each
    built on first use. Commits are sorted by (date, store order) and PRs
    by (opening date, id), so every stream of events but the review
    comments arrives in date order; those are sorted first. Each
    PR's KU vector is computed once. A query copies its sweep's state only
    where the caller changes the result.

    Review comments count only when written strictly before the cutoff.
    ``load_prs`` rejects a comment dated before its own PR opened, so each
    counted comment's PR also opened before the cutoff.
    """

    def __init__(self, store: KuStore, prs: Sequence[PullRequest] = ()):
        self.store = store
        self.commits = sorted(store.commits, key=lambda c: c.authored_at)
        self.prs = sorted(prs, key=lambda p: (p.opened_at, p.id))
        self._pr_vectors: dict[int, list[int]] = {}
        # (PR id, path) of each changed file no vector backed, in query order
        self.unresolved: list[tuple[int, str]] = []

    # --- sweeps ----------------------------------------------------------------

    @cached_property
    def _authored(self) -> _Sweep:
        """Per author: their commits."""
        return _Sweep([(c.authored_at, c.author) for c in self.commits], _count)

    @cached_property
    def _path_commits(self) -> _Sweep:
        """Per changed Java path, per author: their latest commit that changed it."""
        return _Sweep([(c.authored_at, path, c.author, c)
                       for c in self.commits for path in c.changed_java_files], _latest)

    @cached_property
    def _path_prs(self) -> _Sweep:
        """Per changed path, per author: their latest own PR that changed it."""
        return _Sweep([(p.opened_at, path, p.author, p)
                       for p in self.prs for path in p.changed_files], _latest)

    @cached_property
    def _reviewed(self) -> _Sweep:
        """Per reviewer: the PRs they reviewed, by opening date."""
        return _Sweep([(p.opened_at, r) for p in self.prs for r in p.reviewers], _count)

    @cached_property
    def _commented(self) -> _Sweep:
        """Per reviewer: their review comments."""
        return _Sweep(sorted(((c.commented_at, c.reviewer)
                              for p in self.prs for c in p.review_comments)),
                      _count)

    @cached_property
    def _path_comments(self) -> _Sweep:
        """Per path, per reviewer: their comments on it, only those on a path
        their own PR changed (see :func:`_tally_comment`)."""
        return _Sweep(sorted(((c.commented_at, c.path, c.reviewer, c.workday)
                              for p in self.prs for c in p.review_comments
                              if c.path in p.changed_files)),
                      _tally_comment)

    @cached_property
    def _snapshots(self) -> _Sweep:
        """Per path: the vector of its latest resolvable snapshot."""
        return _Sweep([(c.authored_at, path, vector)
                       for c in self.commits for path in c.changed_java_files
                       if (vector := self.store.vector(c.hash, path)) is not None],
                      _latest_snapshot)

    @cached_property
    def _development(self) -> _Sweep:
        """Running rows per author over commits (see :func:`_credit`)."""
        return _Sweep([(c.authored_at, (c.author,),
                        [self.store.vector(c.hash, path) for path in c.changed_java_files])
                       for c in self.commits], _credit)

    @cached_property
    def _review(self) -> _Sweep:
        """Running rows per reviewer over reviewed PRs (see :func:`_credit`)."""
        return _Sweep([(pr.opened_at, pr.reviewers, (self.pr_vector(pr),))
                       for pr in self.prs if pr.reviewers], _credit)

    # --- queries ---------------------------------------------------------------

    def commit_counts(self, when: datetime) -> dict[str, int]:
        """Per author: commits authored strictly before ``when`` (none: absent)."""
        return dict(self._authored.at(when))

    def review_counts(self, when: datetime, mode: str = "prs") -> dict[str, int]:
        """Per reviewer: reviewed PRs opened (``mode="prs"``) or review
        comments written (``mode="comments"``) strictly before ``when``."""
        return dict((self._reviewed if mode == "prs" else self._commented).at(when))

    def last_commits(self, paths: Iterable[str], when: datetime) -> dict[str, datetime]:
        """Per author: the date of their latest commit strictly before
        ``when`` that changed any of ``paths``."""
        latest = self._path_commits.at(when)
        last: dict[str, datetime] = {}
        for path in set(paths):
            for author, commit in latest.get(path, {}).items():
                if author not in last or commit.authored_at > last[author]:
                    last[author] = commit.authored_at
        return last

    def file_reviews(self, path: str, when: datetime) -> list[tuple[str, int, int, date]]:
        """(reviewer, comments, distinct workdays, latest workday) per
        reviewer of ``path``, over comments on it written strictly before
        ``when`` on PRs that changed it."""
        reviews = self._path_comments.at(when).get(path, {})
        return [(reviewer, *tally) for reviewer, tally in reviews.items()]

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

        def latest(sweep: _Sweep) -> list:
            state = sweep.at(until)
            return [state[p][developer] for p in paths if developer in state.get(p, ())]

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
        return self._snapshots.at(pr.opened_at).get(path)

    def pr_vector(self, pr: PullRequest) -> list[int]:
        """Aggregate KU vector over a PR's changed Java files, memoised by id.

        A file that no vector backs adds nothing and is recorded in
        ``unresolved``, for :meth:`warn_unresolved`.
        """
        total = self._pr_vectors.get(pr.id)
        if total is None:
            total = [0] * KU_COUNT
            for path in pr.changed_java_files():
                vector = self.file_vector(pr, path)
                if vector is None:
                    self.unresolved.append((pr.id, path))
                    continue
                for k, count in enumerate(vector):
                    total[k] += count
            self._pr_vectors[pr.id] = total
        return total

    def warn_unresolved(self) -> None:
        """Log the PR files skipped so far as one warning: their count and
        the first (PR, path)."""
        if self.unresolved:
            log.warning("PR files with no content resolvable, skipped: %d (first: PR %s, %s)",
                        len(self.unresolved), *self.unresolved[0])

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
    asof = AsOf(store)
    vector = asof.pr_vector(pr)
    asof.warn_unresolved()
    return vector


def rev_exp_matrix(
    prs: PrDataset, store: KuStore, cutoff: datetime | None
) -> Expertise:
    """Occurrences per reviewer over PRs opened strictly before the cutoff.

    Every reviewer of a PR is credited the full occurrences of its files.
    """
    # Later PRs could not count; indexing them would only resolve (and warn
    # about) their files.
    prior = [p for p in prs.prs if cutoff is None or p.opened_at < cutoff]
    asof = AsOf(store, prior)
    review = asof.review(cutoff)
    asof.warn_unresolved()
    return review


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
