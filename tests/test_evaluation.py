"""Metric oracles: top-k accuracy, AP@k/MAP@k, reasonableness, report."""

from __future__ import annotations

import random
from typing import Mapping, Sequence

import pytest

from kurev.evaluation import (
    EvalReport,
    PrScore,
    average_precision,
    mean_scores,
    reasonableness,
)
from kurev.recommenders import Recommendation
from tests.conftest import commit, make_pr, make_store


# Per-k reference metrics: evaluation.mean_scores must equal them.


def is_correct_top_k(rec: Recommendation | None, truth: set[str], k: int) -> bool:
    if rec is None:
        return False
    return any(dev in truth for dev in rec.top(k))


def top_k_accuracy(
    recs: Sequence[Recommendation | None],
    truth: Mapping[int, set[str]],
    k: int,
) -> float:
    """Fraction of PRs whose true reviewer set meets the top-k list."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not recs:
        raise ValueError("no recommendations to score")
    hits = sum(
        1
        for rec in recs
        if rec is not None and is_correct_top_k(rec, truth.get(rec.pr_id, set()), k)
    )
    return hits / len(recs)


def map_at_k(
    recs: Sequence[Recommendation | None],
    truth: Mapping[int, set[str]],
    k: int,
) -> float:
    """Mean of AP@k across test PRs (empty recommendations score 0)."""
    if not recs:
        raise ValueError("no recommendations to score")
    total = 0.0
    for rec in recs:
        if rec is not None:
            total += average_precision(
                rec.developers(), truth.get(rec.pr_id, set()), k
            )
    return total / len(recs)


def rec(pr_id, *devs, kind="cf"):
    return Recommendation(
        pr_id=pr_id, kind=kind,
        ranked=tuple((d, float(len(devs) - i)) for i, d in enumerate(devs)),
    )


def test_ap_worked_example():
    # [DERIVED] correct developers at ranks 1, 3, 5:
    # (1/1 + 2/3 + 3/5) / 3
    ranked = ["r1", "x", "r2", "y", "r3"]
    truth = {"r1", "r2", "r3"}
    expected = (1 + 2 / 3 + 3 / 5) / 3
    assert abs(average_precision(ranked, truth, 5) - expected) < 1e-12


def test_ap_edge_cases():
    assert average_precision(["a", "b"], {"z"}, 5) == 0.0
    assert average_precision([], {"z"}, 5) == 0.0
    assert average_precision(["z"], {"z"}, 1) == 1.0
    # truncation: relevant item below k is invisible
    assert average_precision(["a", "z"], {"z"}, 1) == 0.0
    with pytest.raises(ValueError):
        average_precision(["a"], {"a"}, 0)


def brute_force_ap(ranked, truth, k):
    hits = [1 if d in truth else 0 for d in ranked[:k]]
    if sum(hits) == 0:
        return 0.0
    total = 0.0
    for i in range(len(hits)):
        if hits[i]:
            total += sum(hits[: i + 1]) / (i + 1)
    return total / sum(hits)


def test_ap_randomized_recount():
    rng = random.Random(1234)
    devs = [f"d{i}" for i in range(6)]
    for _ in range(200):
        ranked = rng.sample(devs, rng.randrange(0, 7))
        truth = set(rng.sample(devs, rng.randrange(0, 7)))
        k = rng.randrange(1, 6)
        assert average_precision(ranked, truth, k) == pytest.approx(
            brute_force_ap(ranked, truth, k), abs=1e-12
        )


def test_top_k_accuracy_and_monotonicity():
    recs = [rec(1, "a", "b"), rec(2, "x", "y"), None]
    truth = {1: {"b"}, 2: {"q"}, 3: {"a"}}
    assert top_k_accuracy(recs, truth, 1) == 0.0
    assert top_k_accuracy(recs, truth, 2) == pytest.approx(1 / 3)
    previous = 0.0
    for k in range(1, 6):
        acc = top_k_accuracy(recs, truth, k)
        assert acc >= previous
        previous = acc
    with pytest.raises(ValueError):
        top_k_accuracy([], truth, 1)
    with pytest.raises(ValueError):
        top_k_accuracy(recs, truth, 0)


def test_is_correct_top_k():
    assert is_correct_top_k(rec(1, "a", "b"), {"b"}, 2)
    assert not is_correct_top_k(rec(1, "a", "b"), {"b"}, 1)
    assert not is_correct_top_k(None, {"b"}, 5)


def test_map_is_the_mean_of_aps():
    recs = [rec(1, "a", "b"), rec(2, "x")]
    truth = {1: {"b"}, 2: {"x"}}
    expected = (average_precision(["a", "b"], {"b"}, 2) + 1.0) / 2
    assert map_at_k(recs, truth, 2) == pytest.approx(expected)


def test_one_score_pass_equals_the_per_k_metrics():
    # each recommendation is scored once; the means must be the very floats
    # top_k_accuracy and map_at_k sum, in the same order
    rng = random.Random(99)
    devs = [f"d{i}" for i in range(7)]
    for _ in range(300):
        recs = [rec(i, *rng.sample(devs, rng.randrange(0, 8)))
                for i in range(rng.randrange(1, 9))]
        truth = {r.pr_id: set(rng.sample(devs, rng.randrange(0, 4))) for r in recs}
        scores = [PrScore.of(r, truth[r.pr_id]) for r in recs]
        assert mean_scores(scores) == (
            [top_k_accuracy(recs, truth, k) for k in range(1, 6)],
            [map_at_k(recs, truth, k) for k in range(1, 6)],
        )
    with pytest.raises(ValueError):
        mean_scores([])


def test_reasonableness_cases():
    pr = make_pr(
        9, "2023-06-01T00:00:00Z", "author",
        ["a.java", "b.java", "c.java", "d.java"], reviewers=["real"],
    )
    in_window, _ = commit(
        "c1", "cand", "2023-05-01T00:00:00Z",
        {"a.java": [0] * 28, "b.java": [0] * 28},
    )
    out_of_window, _ = commit(
        "c0", "cand", "2022-11-28T00:00:00Z", {"c.java": [0] * 28}
    )  # 185 days before: outside the 183-day window
    # 2 of 4 changed files touched → reasonable
    assert reasonableness(pr, "cand", [in_window], []) is True
    # 1 of 4 → not reasonable
    one, _ = commit("c2", "cand", "2023-05-02T00:00:00Z", {"a.java": [0] * 28})
    assert reasonableness(pr, "cand", [one], []) is False
    assert reasonableness(pr, "cand", [one, out_of_window], []) is False
    # top1 actually correct → undefined
    assert reasonableness(pr, "real", [in_window], []) is None
    # authored PRs contribute their changed files too
    prior = make_pr(1, "2023-05-20T00:00:00Z", "cand", ["c.java"], reviewers=["x"])
    assert reasonableness(pr, "cand", [], [prior]) is False
    assert reasonableness(pr, "cand", [one], [prior]) is True  # {a, c}: 2 of 4
    # a PR with no files at all can never be reasonable
    empty = make_pr(10, "2023-06-01T00:00:00Z", "author", [], reviewers=["real"])
    assert reasonableness(empty, "cand", [in_window], []) is False


def test_eval_report_table_layout(tmp_path):
    report = EvalReport(project="demo", pr_count=3)
    for kind in ("cf", "kurec"):
        for k in range(1, 6):
            report.accuracy[(kind, k)] = 0.5
            report.mean_ap[(kind, k)] = 0.25
        report.reasonable_pct[kind] = 50.0
    text = report.to_table()
    lines = text.splitlines()
    assert lines[0] == "project\trecommender\tmetric\tk1\tk2\tk3\tk4\tk5"
    assert sum(1 for line in lines if "\taccuracy\t" in line) == 2
    assert "demo\tcf\t50.000000\t3" in lines
    out = tmp_path / "report.tsv"
    report.save(out)
    assert out.read_text(encoding="utf-8") == text
