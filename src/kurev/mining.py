"""Git history mining: commits, changed Java files, a KU vector per blob.

Talks to the repository through the ``git`` executable; history is the
default branch (HEAD) followed first-parent by default, and a merge
commit contributes its diff against its first parent.
"""

from __future__ import annotations

import logging
import subprocess
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from types import MappingProxyType
from typing import Iterator

from .catalog import CapabilityCatalog, load_catalog
from .detector import detect_kus, detection_key
from .errors import AbsentFileError, KurevError, ParseError, RepositoryError
from .util import (
    dump_json_line,
    format_rfc3339,
    iter_jsonl,
    normalize_identity,
    parse_rfc3339,
    read_jsonl,
    write_jsonl,
    write_text,
)

log = logging.getLogger(__name__)

_REC_SEP = "\x01"
_FIELD_SEP = "\x02"
# new modes of a changed entry that hold no Java source: a symlink, a gitlink
_LINK_MODES = (b"120000", b"160000")


@dataclass(frozen=True)
class CommitRecord:
    hash: str
    author: str  # normalized "name <email>"
    authored_at: datetime  # UTC
    changed_java_files: tuple[str, ...]
    # post-image blob id of each changed file, all zeros for a deletion
    blob_ids: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "hash": self.hash,
            "author": self.author,
            "authored_at": format_rfc3339(self.authored_at),
            "changed_java_files": list(self.changed_java_files),
            "blob_ids": list(self.blob_ids),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CommitRecord":
        return cls(
            hash=d["hash"],
            author=d["author"],
            authored_at=parse_rfc3339(d["authored_at"]),
            changed_java_files=tuple(d["changed_java_files"]),
            blob_ids=tuple(d["blob_ids"]),
        )


def _git(repo_path: str | Path, *args: str, stdin: bytes | None = None) -> bytes:
    """Standard output of one git command, fed ``stdin`` if given."""
    proc = subprocess.run(
        ["git", "-C", str(repo_path), *args],
        input=stdin,
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
    new content; one warning counts the merge commits and the files their
    authors are credited with that way. A symlink or a gitlink named
    ``*.java`` holds no Java source and is skipped. ``all_commits`` walks
    the full DAG instead of the first-parent chain. A shallow clone is refused: its history stops
    at the cut, so the first commit kept would claim every file.
    """
    try:
        shallow = _git(repo_path, "rev-parse", "--is-shallow-repository")
    except (RepositoryError, OSError):
        raise RepositoryError(f"not a git repository: {repo_path}") from None
    if shallow.strip() == b"true":
        raise RepositoryError(
            f"shallow repository: {repo_path} lacks the history before its cut; "
            "run `git fetch --unshallow` in it first")
    fmt = _REC_SEP + _FIELD_SEP.join(["%H", "%an", "%ae", "%aI", "%P"])
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
    except RepositoryError:  # probe for the cause only on failure
        try:
            _git(repo_path, "rev-parse", "HEAD")
        except RepositoryError:
            return []  # empty repository
        raise

    records: list[CommitRecord] = []
    skipped = links = merges = merged_files = 0
    for chunk in out.split(_REC_SEP.encode()):
        if not chunk.strip():
            continue
        raw_header, _, diff = chunk.partition(b"\0")
        header = raw_header.decode("utf-8", "replace")
        head = header.split(_FIELD_SEP)
        if len(head) != 5:
            skipped += 1
            log.warning("skipping unreadable commit header: %r", header[:80])
            continue
        sha, name, email, when, parents = head
        files, blobs = [], []
        entries = iter(diff.lstrip(b"\n").split(b"\0"))
        for entry in entries:
            if not entry.startswith(b":"):
                continue  # the empty string after the last NUL
            raw_path = next(entries)
            if not raw_path.endswith(b".java"):
                continue
            old_mode, new_mode, _, blob = entry[1:].split(b" ")[:4]
            if (new_mode if new_mode.strip(b"0") else old_mode) in _LINK_MODES:
                links += 1
                continue
            try:
                path = raw_path.decode("utf-8")
            except UnicodeDecodeError:  # no PR path can name it
                log.warning("skipping non-UTF-8 path %r at %s", raw_path, sha[:12])
                continue
            files.append(path)
            blobs.append(blob.decode("ascii"))
        if " " in parents:  # a merge: its author is credited with its first-parent diff
            merges += 1
            merged_files += len(files)
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
    if links:
        log.warning("skipped %d symlink or submodule entries named *.java", links)
    if merges:
        log.warning("credited %d merge commits with the %d Java files of their "
                    "first-parent diffs", merges, merged_files)
    return records


def read_file_at(repo_path: str | Path, commit: str, path: str) -> bytes:
    """Raw bytes of ``path`` in the tree at ``commit``, one ``git show`` each.

    :func:`build_ku_store` reads blobs in batches through :func:`_read_blobs`
    instead; this is the per-file reference reader.
    """
    try:
        return _git(repo_path, "show", f"{commit}:{path}")
    except RepositoryError as exc:
        raise AbsentFileError(f"{path} absent at {commit[:12]}") from exc


def read_verdicts(path: Path, key: str) -> dict[str, list[int] | None]:
    """The verdicts of a verdict table under detection key ``key``, by blob id.

    A line holds a blob id (a hash of the content), the detection key (field
    ``catalog``) and the verdict: the KU vector, or None if unparseable.
    """
    return {rec["blob"]: rec["vector"] for rec in iter_jsonl(path) if rec["catalog"] == key}


def write_verdicts(path: Path, verdicts: dict[str, list[int] | None], key: str) -> None:
    """Write ``verdicts`` under detection key ``key`` as a verdict table, in
    their order: lines read and written again stay first."""
    write_jsonl(path, ({"blob": b, "catalog": key, "vector": v} for b, v in verdicts.items()))


class KuStore:
    """Mined commits plus the verdict of each distinct blob they name.

    ``verdicts[blob]``, in order of first appearance, is a 28-int list, or
    None for an unparseable blob, made under detection key ``key``; a
    deleted file's all-zero id, or a blob git could not produce, has none.
    ``vectors`` is the read-only view by (commit hash, path), None if none.
    """

    FILES = COMMITS, FILE_KUS, INDEX = ("commits.jsonl", "file_kus.jsonl", "index.json")
    FORMAT = 2

    def __init__(self, commits: list[CommitRecord], verdicts: dict[str, list[int] | None],
                 key: str = ""):
        self.commits, self.key = list(commits), key
        # a verdict no record names is never read, so the store keeps none
        self.verdicts = {b: verdicts[b] for c in self.commits for b in c.blob_ids
                         if b in verdicts}
        self.vectors = MappingProxyType({(c.hash, p): verdicts.get(b) for c in self.commits
                                         for p, b in zip(c.changed_java_files, c.blob_ids)})

    def vector(self, commit: str, path: str) -> list[int] | None:
        return self.vectors.get((commit, path))

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        write_jsonl(out / self.COMMITS, (c.to_dict() for c in self.commits))
        write_verdicts(out / self.FILE_KUS, self.verdicts, self.key)
        index = {"catalog": self.key, "commits": len(self.commits),
                 "file_records": len(self.vectors), "format": self.FORMAT}
        write_text(out / self.INDEX, dump_json_line(index) + "\n")

    @classmethod
    def load(cls, in_dir: str | Path) -> "KuStore":
        """The store saved in ``in_dir``; a malformed file is a KurevError naming it."""
        src = Path(in_dir)
        path = src / cls.INDEX
        try:
            (index,) = read_jsonl(path)
            if index.get("format") != cls.FORMAT:
                raise KurevError(f"store {src} is in format {index.get('format')}; kurev"
                                 f" reads format {cls.FORMAT}, so mine the repository again")
            key = index["catalog"]
            path = src / cls.COMMITS
            commits = [CommitRecord.from_dict(d) for d in iter_jsonl(path)]
            path = src / cls.FILE_KUS
            verdicts = read_verdicts(path, key)
        except (KeyError, TypeError, AttributeError) as exc:
            raise KurevError(
                f"store file {path} is malformed ({type(exc).__name__}: {exc})") from exc
        return cls(commits, verdicts, key)


# Blob ids per ``git cat-file --batch`` call; one call's answer is held whole.
# Cold mines in a fresh process on 2 cores, alternating sizes, the same store
# each run: ``history`` (280 blobs, 0.47 MB) 0.239-0.244 s at 16, 0.224-0.228
# at 64, 0.221-0.224 at 256, 0.219-0.222 at 1024, max RSS 23.0-23.7 MB at each;
# the paper shape (47,850 blobs) 11.43-11.45 s at 64, 10.73-10.77 at 256,
# 10.61-10.63 at 1024, max RSS 93.9-97.1 MB (one request per blob: 11.31-11.34
# s, 93.6-95.2 MB). Past 256 a call's start-up no longer shows.
_BATCH = 256


def _read_blobs(repo_path: str | Path, ids: list[str]) -> Iterator[tuple[str, memoryview | None]]:
    """``(id, content)`` for each of ``ids`` in order, from one ``git cat-file
    --batch`` per ``_BATCH`` ids; None for an id git has no blob by. A content
    is a view into its batch's answer, so no blob is copied before decoding.
    """
    for first in range(0, len(ids), _BATCH):
        batch = ids[first : first + _BATCH]
        out = _git(repo_path, "cat-file", "--batch", stdin="".join(f"{b}\n" for b in batch).encode())
        view = memoryview(out)
        pos = 0
        for blob in batch:
            # "<id> <type> <size>" LF <content> LF, or "<id> missing" LF
            eol = out.find(b"\n", pos)
            header = out[pos:eol].split() if eol >= 0 else []
            if header[1:] == [b"missing"]:
                pos = eol + 1
                yield blob, None
                continue
            end = eol + 1 + int(header[2]) if len(header) == 3 else len(out)
            if end >= len(out):
                raise RepositoryError(f"git cat-file --batch gave a truncated answer for {blob}")
            pos = end + 1
            yield blob, view[eol + 1 : end] if header[1] == b"blob" else None


def build_ku_store(
    repo_path: str | Path,
    catalog: CapabilityCatalog | None = None,
    cache_path: str | Path | None = None,
    all_commits: bool = False,
) -> KuStore:
    """Mine the repository and give each distinct blob it names a verdict.

    Each distinct blob the cache lacks is read once, in batches through
    :func:`_read_blobs`, and detected once. A deleted file, or a blob git
    cannot produce, gets no verdict, so its records read None.
    """
    if catalog is None:
        catalog = load_catalog()
    commits = mine_commits(repo_path, all_commits=all_commits)
    cache_file = Path(cache_path) if cache_path is not None else None
    key = detection_key(catalog)
    verdicts = {}
    if cache_file is not None and cache_file.exists():
        try:
            verdicts = read_verdicts(cache_file, key)
        except (ValueError, KeyError, TypeError):
            log.warning("corrupt KU cache at %s; rebuilding", cache_file)
    cached = len(verdicts)

    # each missed blob's first (path, commit), for the warning; the
    # all-zero id is a deleted file's
    missed: dict[str, tuple[str, str]] = {}
    for commit in commits:
        for path, blob in zip(commit.changed_java_files, commit.blob_ids):
            if blob not in verdicts and blob not in missed and blob.strip("0"):
                missed[blob] = (path, commit.hash)
    for blob, data in _read_blobs(repo_path, list(missed)):
        if data is None:
            continue
        try:
            verdicts[blob] = detect_kus(str(data, "utf-8", "replace"), catalog)
        except ParseError:
            path, sha = missed[blob]
            log.warning("unparseable %s at %s", path, sha[:12])
            verdicts[blob] = None

    if cache_file is not None and len(verdicts) > cached:
        write_verdicts(cache_file, verdicts, key)
    return KuStore(commits, verdicts, key)
