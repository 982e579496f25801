"""Pull-request dataset: ingest, validate, filter, chronological split."""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime
from functools import cached_property
from pathlib import Path

from .errors import SchemaError, SplitError
from .util import (
    atomic_open, dump_json_line, format_rfc3339, parse_rfc3339, read_jsonl, whole_number,
)


@dataclass(frozen=True)
class ReviewComment:
    reviewer: str
    path: str | None
    commented_at: datetime

    @property
    def workday(self) -> date:
        """The UTC calendar day the comment was written on."""
        return self.commented_at.date()

    def to_dict(self) -> dict:
        return {
            "reviewer": self.reviewer,
            "path": self.path,
            "commented_at": format_rfc3339(self.commented_at),
        }


@dataclass(frozen=True)
class PullRequest:
    id: int
    opened_at: datetime
    state: str  # open | closed
    changed_files: tuple[str, ...]
    reviewers: frozenset[str]
    author: str
    review_comments: tuple[ReviewComment, ...] = ()
    head_commit: str | None = None

    def changed_java_files(self) -> tuple[str, ...]:
        return tuple(f for f in self.changed_files if f.endswith(".java"))

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "opened_at": format_rfc3339(self.opened_at),
            "state": self.state,
            "changed_files": list(self.changed_files),
            "reviewers": sorted(self.reviewers),
            "author": self.author,
            "review_comments": [c.to_dict() for c in self.review_comments],
            "head_commit": self.head_commit,
        }

    @cached_property
    def json_line(self) -> str:
        """This PR's line in a saved export, built once per PR object."""
        return dump_json_line(self.to_dict())


@dataclass(frozen=True)
class PrDataset:
    project: str
    prs: tuple[PullRequest, ...]  # sorted by (opened_at, id)


_REQUIRED = ("id", "opened_at", "state", "changed_files", "reviewers", "author")


def _parse_pr(raw: dict, position: int) -> PullRequest:
    if not isinstance(raw, dict):
        raise SchemaError(f"record {position}: not an object", record=position)
    for field_name in _REQUIRED:
        if field_name not in raw:
            raise SchemaError(
                f"record {position}: missing field {field_name!r}",
                record=position,
                field=field_name,
            )

    def bad(field_name: str, why: str) -> SchemaError:
        return SchemaError(
            f"record {position}: field {field_name!r} {why}",
            record=position,
            field=field_name,
        )

    try:
        pr_id = whole_number(raw["id"], "id")
    except (TypeError, ValueError, OverflowError):
        raise bad("id", "is not an integer") from None
    try:
        opened_at = parse_rfc3339(str(raw["opened_at"]))
    except ValueError:
        raise bad("opened_at", "is not an RFC-3339 timestamp") from None
    state = str(raw["state"])
    if state not in ("open", "closed"):
        raise bad("state", "must be 'open' or 'closed'")
    for name in ("changed_files", "reviewers"):
        if not isinstance(raw[name], list) or not all(isinstance(v, str) for v in raw[name]):
            raise bad(name, "must be a list of strings")
    if not isinstance(raw["author"], str):
        raise bad("author", "must be a string")
    head_commit = raw.get("head_commit")
    if head_commit is not None and not isinstance(head_commit, str):
        raise bad("head_commit", "must be a string or null")

    raw_comments = raw.get("review_comments")
    if raw_comments is not None and not isinstance(raw_comments, list):
        raise bad("review_comments", "must be a list")
    comments = []
    for i, c in enumerate(raw_comments or []):
        if (not isinstance(c, dict) or "commented_at" not in c
                or not isinstance(c.get("reviewer"), str)
                or not isinstance(c.get("path"), (str, type(None)))):
            raise bad("review_comments", f"entry {i} malformed")
        try:
            at = parse_rfc3339(str(c["commented_at"]))
        except ValueError:
            raise bad("review_comments", f"entry {i} has a bad timestamp") from None
        if at < opened_at:
            raise bad("review_comments", f"entry {i} precedes opened_at")
        comments.append(ReviewComment(c["reviewer"], c.get("path"), at))

    return PullRequest(
        id=pr_id,
        opened_at=opened_at,
        state=state,
        changed_files=tuple(raw["changed_files"]),
        reviewers=frozenset(raw["reviewers"]),
        author=raw["author"],
        review_comments=tuple(comments),
        head_commit=head_commit,
    )


def load_prs(path: str | Path, project: str | None = None) -> PrDataset:
    """Load and validate a JSONL PR export; result is chronologically sorted."""
    p = Path(path)
    if project is None:
        project = p.stem
    try:
        raw_records = read_jsonl(p)
    except ValueError as exc:
        raise SchemaError(f"{p}: not valid JSONL ({exc})") from exc
    prs = [_parse_pr(raw, i) for i, raw in enumerate(raw_records, start=1)]
    seen: set[int] = set()
    for i, pr in enumerate(prs, start=1):
        if pr.id in seen:
            raise SchemaError(f"record {i}: duplicate id {pr.id}", record=i, field="id")
        seen.add(pr.id)
    prs.sort(key=lambda pr: (pr.opened_at, pr.id))
    return PrDataset(project=project, prs=tuple(prs))


def save_prs(ds: PrDataset, path: str | Path) -> None:
    """One JSON line per PR, atomically; PRs shared by several saved
    datasets are serialised once."""
    with atomic_open(Path(path)) as fh:
        for pr in ds.prs:
            fh.write(pr.json_line)
            fh.write("\n")


def filter_prs(ds: PrDataset, min_prs: int = 100) -> tuple[PrDataset, bool]:
    """Keep closed PRs with ≥1 reviewer and ≥1 changed Java file.

    The boolean is the project-eligibility flag (kept count ≥ min_prs).
    """
    kept = tuple(
        pr
        for pr in ds.prs
        if pr.state == "closed" and pr.reviewers and pr.changed_java_files()
    )
    return PrDataset(ds.project, kept), len(kept) >= min_prs


def chronological_split(
    ds: PrDataset, train_fraction: float = 0.8
) -> tuple[PrDataset, PrDataset]:
    """First ⌊fraction·n⌋ PRs train, the rest test; needs 0 ≤ fraction ≤ 1, n ≥ 5."""
    if not 0 <= train_fraction <= 1:
        raise SplitError(f"train fraction must be in [0, 1], not {train_fraction!r}")
    n = len(ds.prs)
    if n < 5:
        raise SplitError(f"dataset has {n} PRs; need at least 5 to split")
    cut = math.floor(train_fraction * n)
    train = PrDataset(ds.project, ds.prs[:cut])
    test = PrDataset(ds.project, ds.prs[cut:])
    return train, test
