"""Output checks on a pipeline ``out_dir``, read from the files alone.

Each check returns a list of failure messages; an empty list passes.
They deliberately parse the written files instead of importing the
program, so they judge what a user of the outputs would see.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

RECOMMENDERS = 8  # five base recommenders plus three adaptive combiners
KU_COUNT = 28


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def check_report(out: Path) -> list[str]:
    """``report.tsv``: 8 recommenders x {accuracy, map} rows of 5 values in
    [0, 1], accuracy non-decreasing in k, and 8 ``reasonable_pct`` rows in
    [0, 100]."""
    try:
        rows = _rows(out / "report.tsv")
        blank = [i for i, row in enumerate(rows) if row == [""]]
        if len(blank) != 1:
            return ["report.tsv: expected one blank line between its two tables"]
        metrics, reasonable = rows[1 : blank[0]], rows[blank[0] + 2 :]
        problems = []
        seen = set()
        for row in metrics:
            if len(row) != 8:
                problems.append(f"report.tsv: metric row has {len(row)} cells")
                continue
            kind, metric = row[1], row[2]
            values = [float(v) for v in row[3:]]
            seen.add((kind, metric))
            if not all(0.0 <= v <= 1.0 for v in values):
                problems.append(f"report.tsv: {kind} {metric} outside [0, 1]: {values}")
            if metric == "accuracy" and values != sorted(values):
                problems.append(f"report.tsv: {kind} accuracy decreases in k: {values}")
        kinds = {kind for kind, _ in seen}
        want = {(k, m) for k in kinds for m in ("accuracy", "map")}
        if len(metrics) != 2 * RECOMMENDERS or len(kinds) != RECOMMENDERS or seen != want:
            problems.append(
                f"report.tsv: {len(metrics)} metric rows over {len(kinds)} recommenders,"
                f" expected {RECOMMENDERS} x {{accuracy, map}}"
            )
        pct_kinds = set()
        for row in reasonable:
            pct = float(row[2])
            pct_kinds.add(row[1])
            if not 0.0 <= pct <= 100.0:
                problems.append(f"report.tsv: {row[1]} reasonable_pct {pct} outside [0, 100]")
            if int(row[3]) < 1:
                problems.append(f"report.tsv: {row[1]} pr_count {row[3]} < 1")
        if len(reasonable) != RECOMMENDERS or pct_kinds != kinds:
            problems.append(f"report.tsv: {len(reasonable)} reasonable_pct rows")
        return problems
    except (OSError, ValueError, IndexError) as exc:
        return [f"report.tsv unreadable: {type(exc).__name__}: {exc}"]


def store_developers(out: Path) -> set[str]:
    lines = (out / "store" / "commits.jsonl").read_text(encoding="utf-8").splitlines()
    return {json.loads(line)["author"] for line in lines if line.strip()}


def check_clusters(out: Path) -> list[str]:
    """``cluster/``: one label row per store developer, labels in [0, k),
    and ``summary.json`` sizes that match the labels and sum to n."""
    try:
        developers = store_developers(out)
        rows = _rows(out / "cluster" / "labels.tsv")[1:]
        summary = json.loads((out / "cluster" / "summary.json").read_text(encoding="utf-8"))
        labels = {dev: int(label) for dev, label in rows}
        problems = []
        if len(rows) != len(labels) or set(labels) != developers:
            problems.append(
                f"labels.tsv: {len(rows)} rows for {len(developers)} store developers"
            )
        k, sizes = summary["k"], summary["sizes"]
        if len(sizes) != k or sum(sizes) != len(rows):
            problems.append(f"summary.json: sizes {sizes} do not sum to n={len(rows)} over k={k}")
        counted = [0] * k
        for label in labels.values():
            if not 0 <= label < k:
                problems.append(f"labels.tsv: label {label} outside [0, {k})")
                break
            counted[label] += 1
        else:
            if counted != sizes:
                problems.append("summary.json: sizes disagree with labels.tsv")
        return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"cluster outputs unreadable: {type(exc).__name__}: {exc}"]


def check_vectors(out: Path, all_kus: bool = False) -> list[str]:
    """Every stored vector is 28 non-negative ints or null; with ``all_kus``
    every KU fires somewhere in the store."""
    try:
        totals = [0] * KU_COUNT
        bad = 0
        path = out / "store" / "file_kus.jsonl"
        for line in path.read_text(encoding="utf-8").splitlines():
            vector = json.loads(line)["vector"]
            if vector is None:
                continue
            if (
                not isinstance(vector, list)
                or len(vector) != KU_COUNT
                or not all(type(v) is int and v >= 0 for v in vector)
            ):
                bad += 1
                continue
            totals = [t + v for t, v in zip(totals, vector)]
        problems = [f"file_kus.jsonl: {bad} malformed vectors"] if bad else []
        if all_kus and not all(totals):
            silent = [f"K{i + 1:02d}" for i, t in enumerate(totals) if not t]
            problems.append(f"file_kus.jsonl: KUs never detected: {' '.join(silent)}")
        return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"file_kus.jsonl unreadable: {type(exc).__name__}: {exc}"]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def check_same_tree(expected: Path, actual: Path) -> list[str]:
    """Byte-identical output trees (the incremental run versus a cold one)."""
    want, got = tree_bytes(expected), tree_bytes(actual)
    differ = sorted(
        name for name in set(want) | set(got) if want.get(name) != got.get(name)
    )
    if differ:
        return [f"incremental output differs from a cold run in: {' '.join(differ[:5])}"]
    return []


def digest(out: Path) -> dict[str, str]:
    """Short hashes of ``report.tsv`` and ``cluster/summary.json``."""
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
        for name in ("report.tsv", "cluster/summary.json")
        if (out / name).exists()
    }
