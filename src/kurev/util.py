"""Small shared helpers: timestamps, identities, hashing, atomic writes."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC-3339 timestamp into an aware UTC datetime."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_rfc3339(dt: datetime) -> str:
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def normalize_identity(name: str, email: str) -> str:
    """Canonical developer identity: trimmed, case-folded name <email>."""
    return f"{name.strip().casefold()} <{email.strip().casefold()}>"


def whole_number(raw: Any, name: str) -> int:
    """``raw``, the value of ``name``, as an int: integer strings are
    accepted, but booleans and numbers with a fraction raise ValueError
    rather than being truncated. ``int``'s own errors pass through."""
    value = int(raw)
    if isinstance(raw, bool) or (isinstance(raw, float) and value != raw):
        raise ValueError(f"{name} {raw!r} is not an integer")
    return value


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_text(text: str) -> str:
    return sha256_bytes(text.encode("utf-8"))


def dump_json_line(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def atomic_open(path: Path) -> Iterator[TextIO]:
    """Open ``path`` for writing text, atomically.

    Creates the parent directory. The text goes to a sibling temp file
    that replaces ``path`` only once the block completes, so a crash
    leaves the old file as it was; an exception also removes the temp file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path: Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def write_jsonl(path: Path, records: Iterable[Any]) -> None:
    """Write one JSON object per line, atomically, streaming the records."""
    with atomic_open(path) as fh:
        for rec in records:
            fh.write(dump_json_line(rec))
            fh.write("\n")


def iter_jsonl(path: Path) -> Iterator[Any]:
    """The value of each non-blank line, one line read at a time."""
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def read_jsonl(path: Path) -> list[Any]:
    return list(iter_jsonl(path))
