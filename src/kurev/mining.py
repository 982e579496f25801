"""Git history mining: commits, changed Java files, per-snapshot KU vectors.

Talks to the repository through the ``git`` executable; history is the
default branch (HEAD) followed first-parent by default, so merge commits
contribute only their own diff and never double-count merged work.
"""

from __future__ import annotations

import logging
import subprocess
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .catalog import CapabilityCatalog, load_catalog, serialize_catalog
from .detector import detect_kus
from .errors import AbsentFileError, ParseError, RepositoryError
from .util import (
    dump_json_line,
    format_rfc3339,
    normalize_identity,
    parse_rfc3339,
    read_jsonl,
    sha256_bytes,
    sha256_text,
    write_jsonl,
    write_text,
)

log = logging.getLogger(__name__)

_REC_SEP = "\x01"
_FIELD_SEP = "\x02"


@dataclass(frozen=True)
class CommitRecord:
    hash: str
    author: str  # normalized "name <email>"
    authored_at: datetime  # UTC
    changed_java_files: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "hash": self.hash,
            "author": self.author,
            "authored_at": format_rfc3339(self.authored_at),
            "changed_java_files": list(self.changed_java_files),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CommitRecord":
        return cls(
            hash=d["hash"],
            author=d["author"],
            authored_at=parse_rfc3339(d["authored_at"]),
            changed_java_files=tuple(d["changed_java_files"]),
        )


def _git(repo_path: str | Path, *args: str) -> bytes:
    proc = subprocess.run(
        ["git", "-C", str(repo_path), *args],
        capture_output=True,
    )
    if proc.returncode != 0:
        raise RepositoryError(
            f"git {' '.join(args[:2])} failed in {repo_path}: "
            + proc.stderr.decode("utf-8", "replace").strip()
        )
    return proc.stdout


def _is_repo(repo_path: str | Path) -> bool:
    try:
        _git(repo_path, "rev-parse", "--git-dir")
        return True
    except (RepositoryError, OSError):
        return False


def mine_commits(repo_path: str | Path, all_commits: bool = False) -> list[CommitRecord]:
    """One record per commit on HEAD's history, oldest first.

    Changed files come from each commit's diff against its first parent
    (root commits list all their files). ``all_commits`` walks the full
    DAG instead of the first-parent chain.
    """
    if not _is_repo(repo_path):
        raise RepositoryError(f"not a git repository: {repo_path}")
    try:
        _git(repo_path, "rev-parse", "HEAD")
    except RepositoryError:
        return []  # empty repository

    fmt = _REC_SEP + _FIELD_SEP.join(["%H", "%an", "%ae", "%aI"])
    args = [
        "log", "HEAD", "--reverse", f"--format={fmt}",
        "--name-status", "--diff-merges=first-parent", "--no-renames",
    ]
    if not all_commits:
        args.insert(2, "--first-parent")
    out = _git(repo_path, *args).decode("utf-8", "replace")

    records: list[CommitRecord] = []
    skipped = 0
    for chunk in out.split(_REC_SEP):
        if not chunk.strip():
            continue
        lines = chunk.splitlines()
        head = lines[0].split(_FIELD_SEP)
        if len(head) != 4:
            skipped += 1
            log.warning("skipping unreadable commit header: %r", lines[0][:80])
            continue
        sha, name, email, when = head
        files = []
        for line in lines[1:]:
            if not line.strip():
                continue
            parts = line.split("\t")
            status = parts[0]
            path = parts[-1]
            if path.endswith(".java") and status[:1] in "AMDTRC":
                files.append(path)
        records.append(
            CommitRecord(
                hash=sha,
                author=normalize_identity(name, email),
                authored_at=parse_rfc3339(when),
                changed_java_files=tuple(files),
            )
        )
    if skipped:
        log.warning("skipped %d unreadable commits", skipped)
    return records


def read_file_at(repo_path: str | Path, commit: str, path: str) -> bytes:
    """Raw bytes of ``path`` in the tree at ``commit``."""
    try:
        return _git(repo_path, "show", f"{commit}:{path}")
    except RepositoryError as exc:
        raise AbsentFileError(f"{path} absent at {commit[:12]}") from exc


def snapshot_file_kus(
    repo_path: str | Path,
    commit: str,
    path: str,
    catalog: CapabilityCatalog | None = None,
) -> list[int]:
    """KU vector of the full file content at one snapshot."""
    data = read_file_at(repo_path, commit, path)
    return detect_kus(data.decode("utf-8", "replace"), catalog)


class KuStore:
    """Mined commits plus per-(commit, file) KU vectors.

    ``vectors[(hash, path)]`` is a 28-int list, or None when the snapshot
    was unparseable or absent (deleted file).
    """

    def __init__(
        self,
        commits: list[CommitRecord],
        vectors: dict[tuple[str, str], list[int] | None],
    ):
        self.commits = list(commits)
        self.vectors = dict(vectors)

    def vector(self, commit: str, path: str) -> list[int] | None:
        return self.vectors.get((commit, path))

    def developers(self) -> list[str]:
        return sorted({c.author for c in self.commits})

    def validate(self) -> None:
        allowed = {
            (c.hash, p) for c in self.commits for p in c.changed_java_files
        }
        stray = set(self.vectors) - allowed
        if stray:
            raise ValueError(f"store has {len(stray)} records outside commit diffs")

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        write_jsonl(out / "commits.jsonl", (c.to_dict() for c in self.commits))
        write_jsonl(
            out / "file_kus.jsonl",
            (
                {"commit": h, "path": p, "vector": v}
                for (h, p), v in sorted(self.vectors.items())
            ),
        )
        index = {
            "commits": len(self.commits),
            "file_records": len(self.vectors),
            "format": 1,
        }
        write_text(out / "index.json", dump_json_line(index) + "\n")

    @classmethod
    def load(cls, in_dir: str | Path) -> "KuStore":
        src = Path(in_dir)
        commits = [CommitRecord.from_dict(d) for d in read_jsonl(src / "commits.jsonl")]
        vectors = {
            (d["commit"], d["path"]): d["vector"]
            for d in read_jsonl(src / "file_kus.jsonl")
        }
        return cls(commits, vectors)


class _VectorCache:
    """Content-addressed KU-vector cache keyed by (catalog hash, blob hash)."""

    def __init__(self, path: Path | None, catalog_hash: str):
        self.path = path
        self.catalog_hash = catalog_hash
        self.entries: dict[str, list[int] | None] = {}
        self.dirty = False
        if path is not None and path.exists():
            try:
                for rec in read_jsonl(path):
                    if rec["catalog"] == catalog_hash:
                        self.entries[rec["content"]] = rec["vector"]
            except (ValueError, KeyError, TypeError):
                log.warning("corrupt KU cache at %s; rebuilding", path)
                self.entries = {}

    def get(self, content_hash: str):
        return self.entries.get(content_hash, _MISS)

    def put(self, content_hash: str, vector: list[int] | None) -> None:
        self.entries[content_hash] = vector
        self.dirty = True

    def flush(self) -> None:
        if self.path is None or not self.dirty:
            return
        write_jsonl(
            self.path,
            (
                {"catalog": self.catalog_hash, "content": h, "vector": v}
                for h, v in sorted(self.entries.items())
            ),
        )


_MISS = object()


def build_ku_store(
    repo_path: str | Path,
    catalog: CapabilityCatalog | None = None,
    cache_path: str | Path | None = None,
    all_commits: bool = False,
) -> KuStore:
    """Mine the repository and compute a KU vector per changed Java file."""
    if catalog is None:
        catalog = load_catalog()
    commits = mine_commits(repo_path, all_commits=all_commits)
    cache = _VectorCache(
        Path(cache_path) if cache_path is not None else None,
        sha256_text(serialize_catalog(catalog)),
    )

    vectors: dict[tuple[str, str], list[int] | None] = {}
    for commit in commits:
        for path in commit.changed_java_files:
            try:
                data = read_file_at(repo_path, commit.hash, path)
            except AbsentFileError:
                vectors[(commit.hash, path)] = None  # deletion: no KU credit
                continue
            key = sha256_bytes(data)
            hit = cache.get(key)
            if hit is not _MISS:
                vectors[(commit.hash, path)] = hit
                continue
            try:
                vector = detect_kus(data.decode("utf-8", "replace"), catalog)
            except ParseError:
                log.warning("unparseable %s at %s", path, commit.hash[:12])
                vector = None
            cache.put(key, vector)
            vectors[(commit.hash, path)] = vector
    cache.flush()
    store = KuStore(commits, vectors)
    store.validate()
    return store
