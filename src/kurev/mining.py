"""Git history mining: commits, changed Java files, per-snapshot KU vectors.

Talks to the repository through the ``git`` executable; history is the
default branch (HEAD) followed first-parent by default, so merge commits
contribute only their own diff and never double-count merged work.
"""

from __future__ import annotations

import logging
import subprocess
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterator

from .catalog import CapabilityCatalog, load_catalog
from .detector import detect_kus, detection_key
from .errors import AbsentFileError, ParseError, RepositoryError
from .util import (
    dump_json_line,
    format_rfc3339,
    normalize_identity,
    parse_rfc3339,
    read_jsonl,
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
    # post-image blob id of each changed file, all zeros for a deletion;
    # set by mine_commits, not saved, and not part of a record's identity
    blob_ids: tuple[str, ...] = field(default=(), compare=False, repr=False)

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


def mine_commits(repo_path: str | Path, all_commits: bool = False) -> list[CommitRecord]:
    """One record per commit on HEAD's history, oldest first.

    Changed files come from each commit's diff against its first parent
    (root commits list all their files), with the blob id of each file's
    new content. ``all_commits`` walks the full DAG instead of the
    first-parent chain.
    """
    fmt = _REC_SEP + _FIELD_SEP.join(["%H", "%an", "%ae", "%aI"])
    # -z: paths unquoted and NUL-terminated. Each commit is its header,
    # NUL, then per changed file (first-parent diff, renames off):
    # ":<old mode> <new mode> <old blob> <new blob> <status>" NUL <path> NUL
    args = [
        "log", "HEAD", "--reverse", f"--format={fmt}", "-z",
        "--raw", "--no-abbrev", "--diff-merges=first-parent", "--no-renames",
    ]
    if not all_commits:
        args.insert(2, "--first-parent")
    try:
        out = _git(repo_path, *args)
    except (RepositoryError, OSError):  # probe for the cause only on failure
        try:
            _git(repo_path, "rev-parse", "--git-dir")
        except (RepositoryError, OSError):
            raise RepositoryError(f"not a git repository: {repo_path}") from None
        try:
            _git(repo_path, "rev-parse", "HEAD")
        except RepositoryError:
            return []  # empty repository
        raise

    records: list[CommitRecord] = []
    skipped = 0
    for chunk in out.split(_REC_SEP.encode()):
        if not chunk.strip():
            continue
        raw_header, _, diff = chunk.partition(b"\0")
        header = raw_header.decode("utf-8", "replace")
        head = header.split(_FIELD_SEP)
        if len(head) != 4:
            skipped += 1
            log.warning("skipping unreadable commit header: %r", header[:80])
            continue
        sha, name, email, when = head
        files, blobs = [], []
        entries = iter(diff.lstrip(b"\n").split(b"\0"))
        for entry in entries:
            if not entry.startswith(b":"):
                continue  # the empty string after the last NUL
            raw_path = next(entries)
            if not raw_path.endswith(b".java"):
                continue
            try:
                path = raw_path.decode("utf-8")
            except UnicodeDecodeError:  # no PR path can name it
                log.warning("skipping non-UTF-8 path %r at %s", raw_path, sha[:12])
                continue
            files.append(path)
            blobs.append(entry.split(b" ")[3].decode("ascii"))
        records.append(
            CommitRecord(
                hash=sha,
                author=normalize_identity(name, email),
                authored_at=parse_rfc3339(when),
                changed_java_files=tuple(files),
                blob_ids=tuple(blobs),
            )
        )
    if skipped:
        log.warning("skipped %d unreadable commits", skipped)
    return records


def read_file_at(repo_path: str | Path, commit: str, path: str) -> bytes:
    """Raw bytes of ``path`` in the tree at ``commit``, one ``git show`` each.

    :func:`build_ku_store` reads blobs through one ``git cat-file --batch``
    process instead; this is the per-file reference reader.
    """
    try:
        return _git(repo_path, "show", f"{commit}:{path}")
    except RepositoryError as exc:
        raise AbsentFileError(f"{path} absent at {commit[:12]}") from exc


class KuStore:
    """Mined commits plus per-(commit, file) KU vectors.

    ``vectors[(hash, path)]`` is a 28-int list, or None when the snapshot
    was unparseable or absent (deleted file).
    """

    FILES = COMMITS, FILE_KUS, INDEX = ("commits.jsonl", "file_kus.jsonl", "index.json")

    def __init__(
        self,
        commits: list[CommitRecord],
        vectors: dict[tuple[str, str], list[int] | None],
    ):
        self.commits = list(commits)
        self.vectors = dict(vectors)

    def vector(self, commit: str, path: str) -> list[int] | None:
        return self.vectors.get((commit, path))

    def validate(self) -> None:
        allowed = {
            (c.hash, p) for c in self.commits for p in c.changed_java_files
        }
        stray = set(self.vectors) - allowed
        if stray:
            raise ValueError(f"store has {len(stray)} records outside commit diffs")

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        write_jsonl(out / self.COMMITS, (c.to_dict() for c in self.commits))
        write_jsonl(
            out / self.FILE_KUS,
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
        write_text(out / self.INDEX, dump_json_line(index) + "\n")

    @classmethod
    def load(cls, in_dir: str | Path) -> "KuStore":
        src = Path(in_dir)
        commits = [CommitRecord.from_dict(d) for d in read_jsonl(src / cls.COMMITS)]
        vectors = {
            (d["commit"], d["path"]): d["vector"]
            for d in read_jsonl(src / cls.FILE_KUS)
        }
        return cls(commits, vectors)


class _VectorCache:
    """Content-addressed KU-vector cache keyed by (detection key, blob id).

    A git blob id is a hash of the file's content, so a hit needs no read.
    Each record holds a blob id, the detection key (field ``catalog``) and
    the verdict, an unparseable file's None included.
    """

    def __init__(self, path: Path | None, key: str):
        self.path = path
        self.key = key
        self.entries: dict[str, list[int] | None] = {}
        self.dirty = False
        if path is not None and path.exists():
            try:
                for rec in read_jsonl(path):
                    if rec["catalog"] == key:
                        self.entries[rec["blob"]] = rec["vector"]
            except (ValueError, KeyError, TypeError):
                log.warning("corrupt KU cache at %s; rebuilding", path)
                self.entries = {}

    def get(self, blob: str):
        return self.entries.get(blob, _MISS)

    def put(self, blob: str, vector: list[int] | None) -> None:
        self.entries[blob] = vector
        self.dirty = True

    def flush(self) -> None:
        if self.path is None or not self.dirty:
            return
        write_jsonl(
            self.path,
            (
                {"blob": b, "catalog": self.key, "vector": v}
                for b, v in sorted(self.entries.items())
            ),
        )


_MISS = object()


@contextmanager
def _cat_file(repo_path: str | Path) -> Iterator[subprocess.Popen]:
    """One ``git cat-file --batch`` process to pass to :func:`_read_blob`.

    Leaving the block closes its pipes and waits for it; an exception
    kills it first, so no git process outlives a failed run.
    """
    with subprocess.Popen(
        ["git", "-C", str(repo_path), "cat-file", "--batch"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    ) as proc:
        try:
            yield proc
        except BaseException:
            proc.kill()
            with suppress(OSError):  # a request left in the buffer of a dead pipe
                proc.stdin.close()
            raise


def _read_blob(proc: subprocess.Popen, blob: str) -> bytes | None:
    """Content of ``blob``, or None when git has no blob by that id.

    Sends one request and reads its whole answer before returning, so
    neither pipe can fill up and one blob at a time is held in memory.
    """
    try:
        proc.stdin.write(blob.encode("ascii") + b"\n")
        proc.stdin.flush()
    except OSError as exc:  # git has exited
        raise RepositoryError(f"git cat-file --batch exited before {blob}") from exc
    header = proc.stdout.readline().split()
    if header[1:] == [b"missing"]:
        return None
    if len(header) != 3:
        raise RepositoryError(f"git cat-file --batch gave no answer for {blob}")
    size = int(header[2])
    data = proc.stdout.read(size + 1)  # the content, then a newline
    if len(data) != size + 1:
        raise RepositoryError(f"git cat-file --batch exited while sending {blob}")
    return data[:-1] if header[1] == b"blob" else None


def build_ku_store(
    repo_path: str | Path,
    catalog: CapabilityCatalog | None = None,
    cache_path: str | Path | None = None,
    all_commits: bool = False,
) -> KuStore:
    """Mine the repository and compute a KU vector per changed Java file.

    Records whose blob is in the cache are not read; the others are read
    through one ``git cat-file --batch`` process. A deleted file, or a
    blob git cannot produce, gets a None vector.
    """
    if catalog is None:
        catalog = load_catalog()
    commits = mine_commits(repo_path, all_commits=all_commits)
    cache = _VectorCache(
        Path(cache_path) if cache_path is not None else None, detection_key(catalog)
    )

    vectors: dict[tuple[str, str], list[int] | None] = {}
    with _cat_file(repo_path) as reader:
        for commit in commits:
            for path, blob in zip(commit.changed_java_files, commit.blob_ids):
                vector = cache.get(blob)
                if vector is _MISS:
                    deleted = not blob.strip("0")  # the all-zero id
                    data = None if deleted else _read_blob(reader, blob)
                    if data is None:  # no KU credit, and nothing to cache
                        vectors[(commit.hash, path)] = None
                        continue
                    try:
                        vector = detect_kus(data.decode("utf-8", "replace"), catalog)
                    except ParseError:
                        log.warning("unparseable %s at %s", path, commit.hash[:12])
                        vector = None
                    cache.put(blob, vector)
                vectors[(commit.hash, path)] = vector
    cache.flush()
    store = KuStore(commits, vectors)
    store.validate()
    return store
