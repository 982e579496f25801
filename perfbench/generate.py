"""Seeded Java projects for the benchmark: a git repository plus PR exports.

The repository is written with ``git fast-import`` from a fully pinned
stream (identities, dates, messages and file bytes all derive from the
spec and the seed), so one seed always yields the same commit hashes and
the same PR export bytes. Each project is generated together with its
growth step: ``base`` is the tip a cold pipeline run mines, ``grown`` the
tip after about 10% more commits, and ``base/prs.jsonl`` /
``grown/prs.jsonl`` are the matching exports.

Sizes are fixed by the spec; the seed only decides orderings and
assignments (who commits what, which files a PR touches). That keeps the
cost of a workload nearly the same from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

START = 1672650000  # 2023-01-02T09:00:00Z
COMMIT_STEP = 6 * 3600
FIRST_PR_OFFSET = 5 * 24 * 3600
GROUPS = 7  # specialty groups of 4 corpus classes each (team workload)
GROWTH = 0.10  # the growth step adds this share of commits and PRs


@dataclass(frozen=True)
class Spec:
    """Size and shape of one generated project.

    ``content`` picks how file bodies grow:
    - ``corpus``: fixed files that accumulate renamed ``corpus/`` classes,
      so they reach hundreds of lines and every KU fires;
    - ``small``: fixed files holding a bounded window of one-line members;
    - ``specialty``: every commit adds a new file holding one corpus class
      from its author's specialty group, so developer profiles cluster.
    """

    devs: int
    files: int
    commits: int
    prs: int
    content: str
    reviewers_only: int = 0
    k_max: int = 100

    @property
    def growth_commits(self) -> int:
        return max(1, round(self.commits * GROWTH))

    @property
    def growth_prs(self) -> int:
        return max(1, round(self.prs * GROWTH))


# Why each workload exists is recorded in BENCHMARK.json; the sizes keep one
# cold pipeline run at a few seconds on a 2-core machine.
WORKLOADS = {
    "history": Spec(devs=12, files=40, commits=170, prs=60, content="corpus"),
    "review": Spec(
        devs=30, files=60, commits=100, prs=450, content="small", reviewers_only=6
    ),
    "team": Spec(devs=150, files=0, commits=150, prs=30, content="specialty", k_max=50),
}


def identity(dev: int) -> tuple[str, str]:
    return f"dev{dev:03d}", f"dev{dev:03d}@example.org"


def login(dev: int) -> str:
    """The PR-export identity: git's normalised ``name <email>``."""
    name, email = identity(dev)
    return f"{name} <{email}>"


def reviewer_login(i: int) -> str:
    return f"rev{i:02d} <rev{i:02d}@example.org>"


def rfc3339(ts: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


# --- file bodies ------------------------------------------------------------

_DECL = re.compile(r"\b(?:class|interface|enum|record)\s+([A-Za-z_]\w*)")


def load_corpus() -> list[tuple[list[str], str]]:
    """The 28 corpus classes as (import lines, body) pairs, K01..K28."""
    out = []
    for path in sorted(CORPUS_DIR.glob("K*.java")):
        imports, body = [], []
        for line in path.read_text(encoding="utf-8").splitlines():
            (imports if line.startswith("import ") else body).append(line)
        out.append((imports, "\n".join(body).strip("\n")))
    if len(out) != 28:
        raise FileNotFoundError(f"expected 28 corpus classes in {CORPUS_DIR}")
    return out


def renamed(body: str, tag: str) -> str:
    """Prefix every type the chunk declares, keeping names' suffixes intact."""
    for name in sorted(set(_DECL.findall(body)), key=len, reverse=True):
        body = re.sub(rf"\b{name}\b", f"{tag}{name}", body)
    return body


_MEMBERS = (
    "    int sum{i}(int[] xs) {{ int s = 0; for (int x : xs) {{ s += x; }} return s; }}",
    "    void guard{i}() {{ try {{ tick(); }} catch (RuntimeException e) {{ throw e; }} }}",
    "    java.util.List<String> names{i}() {{ return new java.util.ArrayList<String>(); }}",
    "    String text{i}(String s) {{ return s.trim().toUpperCase(); }}",
    "    synchronized void sync{i}() {{ tick(); }}",
    "    long count{i}(java.util.List<String> xs) {{ return xs.stream().filter(s -> !s.isEmpty()).count(); }}",
    "    boolean pick{i}(int a, int b) {{ if (a > b) {{ return true; }} return false; }}",
    "    static final int LIMIT{i} = {n};",
    "    void pause{i}() throws InterruptedException {{ Thread.sleep({n}); }}",
    "    int[] fill{i}() {{ int[] xs = new int[{n}]; xs[0] = 1; return xs; }}",
)
_WINDOW = 6


class _Deck:
    """Draws items so that every item is drawn once per shuffled round."""

    def __init__(self, items, rng: random.Random):
        self.items = list(items)
        self.rng = rng
        self.pile: list = []

    def draw(self, exclude=()):
        if not self.pile:
            self.pile = self.items[:]
            self.rng.shuffle(self.pile)
        for i in range(len(self.pile) - 1, -1, -1):
            if self.pile[i] not in exclude:
                return self.pile.pop(i)
        return self.rng.choice([x for x in self.items if x not in exclude])


@dataclass
class _Commit:
    author: int
    when: int
    changes: list[tuple[str, str]]  # (path, full new content)


def _plan_commits(spec: Spec, rng: random.Random) -> list[_Commit]:
    total = spec.commits + spec.growth_commits
    corpus = load_corpus()
    commits: list[_Commit] = []
    authors = _Deck(range(spec.devs), rng)

    if spec.content in ("corpus", "small"):
        paths = [f"src/mod{j % 8}/Unit{j:03d}.java" for j in range(spec.files)]
        files = _Deck(range(spec.files), rng)
        order = {j: rng.sample(range(28), 28) for j in range(spec.files)}
        state: dict[int, list] = {j: [] for j in range(spec.files)}
        for i in range(total):
            touched: list[int] = []
            for _ in range(1 + i % 2):
                touched.append(files.draw(exclude=touched))
            changes = []
            for j in touched:
                parts = state[j]
                if spec.content == "corpus":
                    ku = order[j][len(parts) % 28]
                    imports, body = corpus[ku]
                    parts.append((imports, renamed(body, f"C{i}")))
                    head = sorted({imp for imps, _ in parts for imp in imps})
                    text = "\n".join(head) + "\n\n" + "\n\n".join(b for _, b in parts)
                else:
                    template = _MEMBERS[rng.randrange(len(_MEMBERS))]
                    parts.append(template.format(i=i, n=2 + i % 7))
                    del parts[:-_WINDOW]
                    cls = Path(paths[j]).stem
                    text = (
                        f"class {cls} {{\n    void tick() {{ }}\n"
                        + "\n".join(parts)
                        + "\n}"
                    )
                changes.append((paths[j], text + "\n"))
            commits.append(_Commit(authors.draw(), 0, changes))
    elif spec.content == "specialty":
        groups = rng.sample(range(28), 28)
        devs = rng.sample(range(spec.devs), spec.devs)
        group_of = {dev: g % GROUPS for g, dev in enumerate(devs)}
        made: dict[int, int] = {}
        for i in range(total):
            dev = authors.draw()
            m = made.get(dev, 0)
            made[dev] = m + 1
            members = groups[group_of[dev] * 4 : group_of[dev] * 4 + 4]
            ku = members[(dev + m) % 4]
            if rng.random() < 0.2:
                ku = rng.randrange(28)  # work outside the specialty
            imports, body = corpus[ku]
            extras = [
                rng.choice(_MEMBERS).format(i=x, n=2 + x) for x in range(rng.randrange(5))
            ]
            helper = "class Helper {\n    void tick() { }\n" + "\n".join(extras) + "\n}"
            tag = f"D{dev}P{m}"
            text = "\n\n".join(
                ["\n".join(imports), renamed(body, tag), renamed(helper, tag)]
            )
            path = f"team/dev{dev:03d}/Part{m}.java"
            commits.append(_Commit(dev, 0, [(path, text + "\n")]))
    else:
        raise ValueError(f"unknown content kind {spec.content!r}")

    for i, commit in enumerate(commits):
        commit.when = START + i * COMMIT_STEP + rng.randrange(3 * 3600)
    return commits


def _pr_time(spec: Spec, j: int) -> int:
    """Base PRs open within the base history, growth PRs within the growth."""
    if j < spec.prs:
        span = spec.commits * COMMIT_STEP - FIRST_PR_OFFSET
        return START + FIRST_PR_OFFSET + int(span * (j + 0.5) / spec.prs)
    span = spec.growth_commits * COMMIT_STEP
    return START + spec.commits * COMMIT_STEP + int(
        span * (j - spec.prs + 0.5) / spec.growth_prs
    )


def _plan_prs(spec: Spec, commits: list[_Commit], shas: list[str], seed: int) -> list[dict]:
    rng = random.Random(seed * 7919 + 17)
    pool = [login(d) for d in range(spec.devs)]
    pool += [reviewer_login(i) for i in range(spec.reviewers_only)]
    authors = _Deck(range(spec.devs), rng)
    records = []
    for j in range(spec.prs + spec.growth_prs):
        opened = _pr_time(spec, j)
        prior = [i for i, c in enumerate(commits) if c.when < opened]
        existing = sorted({p for i in prior for p, _ in commits[i].changes})
        if not existing:
            existing = sorted({p for c in commits for p, _ in c.changes})
        changed = rng.sample(existing, min(len(existing), 1 + j % 3))
        if j % 10 == 5:
            changed.append(f"src/feature/Feature{j:04d}.java")  # added by the PR
        java = list(changed)
        if j % 7 == 3:
            changed.append("docs/notes.md")
        author = login(authors.draw())
        reviewers = rng.sample([p for p in pool if p != author], 1 + j % 2)
        comments = []
        for r, reviewer in enumerate(sorted(reviewers)):
            for c in range(1 + (j + r) % 2):
                comments.append(
                    {
                        "reviewer": reviewer,
                        "path": rng.choice(java),
                        "commented_at": rfc3339(opened + (3 + 5 * c) * 3600),
                    }
                )
        head = None
        if j % 3 == 0:
            touching = [i for i in prior if any(p in java for p, _ in commits[i].changes)]
            if touching:
                head = shas[touching[-1]]
        records.append(
            {
                "id": j + 1,
                "opened_at": rfc3339(opened),
                "state": "open" if j % 25 == 24 else "closed",
                "changed_files": changed,
                "reviewers": sorted(reviewers),
                "author": author,
                "review_comments": comments,
                "head_commit": head,
            }
        )
    return records


# --- materialisation ----------------------------------------------------------


def git_env() -> dict:
    """The environment without user or system git configuration."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    env.update(GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    return env


def _git(repo: Path, *args: str, stdin: bytes | None = None) -> bytes:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        input=stdin,
        capture_output=True,
        env=git_env(),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"git {args[0]} failed: {proc.stderr.decode('utf-8', 'replace').strip()}"
        )
    return proc.stdout


def _fast_import_stream(commits: list[_Commit]) -> bytes:
    out = bytearray()
    for i, commit in enumerate(commits):
        name, email = identity(commit.author)
        who = f"{name} <{email}> {commit.when} +0000"
        msg = f"change {i}\n".encode()
        out += f"commit refs/heads/main\nauthor {who}\ncommitter {who}\n".encode()
        out += b"data %d\n" % len(msg) + msg
        for path, text in commit.changes:
            data = text.encode("utf-8")
            out += f"M 100644 inline {path}\n".encode()
            out += b"data %d\n" % len(data) + data + b"\n"
        out += b"\n"
    return bytes(out)


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = (json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
    path.write_text("".join(lines), encoding="utf-8")


def generate(spec: Spec, seed: int, out_dir: str | Path) -> dict:
    """Materialise the project under ``out_dir``; returns its manifest.

    Layout: ``repo/`` (``main`` at the grown tip), ``base/prs.jsonl``,
    ``grown/prs.jsonl`` and ``manifest.json``.
    """
    out = Path(out_dir)
    repo = out / "repo"
    repo.mkdir(parents=True)
    rng = random.Random(seed)
    commits = _plan_commits(spec, rng)
    _git(repo, "init", "-q", "--initial-branch=main")
    stream = _fast_import_stream(commits) + b"done\n"
    _git(repo, "fast-import", "--quiet", "--done", stdin=stream)
    shas = _git(repo, "rev-list", "--reverse", "main").decode().split()
    if len(shas) != len(commits):
        raise RuntimeError(f"fast-import wrote {len(shas)} of {len(commits)} commits")
    prs = _plan_prs(spec, commits, shas, seed)
    _write_jsonl(out / "base" / "prs.jsonl", prs[: spec.prs])
    _write_jsonl(out / "grown" / "prs.jsonl", prs)
    manifest = {
        "base": shas[spec.commits - 1],
        "grown": shas[-1],
        "k_max": spec.k_max,
        "all_kus": spec.content == "corpus",  # every corpus class is used
    }
    (out / "manifest.json").write_text(json.dumps(manifest) + "\n", encoding="utf-8")
    return manifest


def set_tip(repo: Path, sha: str) -> None:
    """Point ``main`` (and so HEAD) at ``sha``."""
    _git(repo, "update-ref", "refs/heads/main", sha)

