"""Acceptance gate: one test (and one pass/fail line) per release criterion.

Run with ``pytest -v tests/test_acceptance.py``; each test's PASSED/FAILED
line is the criterion verdict.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import numpy as np
import pytest

from kurev.catalog import KU_COUNT, load_catalog
from kurev.clustering import KMeans, PcaReducer, gini, select_k
from kurev.detector import detect_kus
from kurev.errors import NoKuError
from kurev.evaluation import average_precision
from kurev.prstore import chronological_split
from kurev.recommenders import KIND_ORDER, KurecRecommender, base_recommenders
from tests.conftest import commit, dt, ku, make_dataset, make_pr, make_store
from tests.test_adaptive import replay_from_scratch
from tests.test_clustering import blobs
from tests.test_detector import SPOT_CHECKS, nonzero
from tests.test_evaluation import brute_force_ap
from tests.test_recommenders import NAIVE, as_of

CORPUS = Path(__file__).parent / "fixtures" / "ku_corpus"


def done(n: int, summary: str) -> None:
    print(f"PASS: criterion {n} — {summary}")


def test_criterion_1_detection_corpus_and_spot_checks():
    """Every KU fixture fires its own KU; ten hand-counted files match; <5s."""
    start = time.perf_counter()
    catalog = load_catalog()
    for index in range(1, KU_COUNT + 1):
        source = (CORPUS / f"K{index:02d}.java").read_text(encoding="utf-8")
        vector = detect_kus(source, catalog)
        assert vector[index - 1] >= 1, f"K{index} fixture does not fire K{index}"
    from kurev.detector import detect_capabilities

    for name, expected in SPOT_CHECKS.items():
        source = (CORPUS / f"{name}.java").read_text(encoding="utf-8")
        assert nonzero(detect_capabilities(source, catalog)) == expected, name
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    done(1, f"28 fixtures + {len(SPOT_CHECKS)} spot checks in {elapsed:.2f}s")


def test_criterion_2_average_precision_oracle():
    """AP matches the worked example and 200 randomized recounts to 1e-12."""
    expected = (1 + 2 / 3 + 3 / 5) / 3
    assert abs(average_precision(["a", "x", "b", "y", "c"], {"a", "b", "c"}, 5)
               - expected) < 1e-12
    rng = random.Random(20240817)
    devs = [f"d{i}" for i in range(6)]
    for _ in range(200):
        ranked = rng.sample(devs, rng.randrange(0, 7))
        truth = set(rng.sample(devs, rng.randrange(0, 7)))
        k = rng.randrange(1, 6)
        assert abs(average_precision(ranked, truth, k)
                   - brute_force_ap(ranked, truth, k)) < 1e-12
    done(2, "worked example + 200 randomized recounts within 1e-12")


def test_criterion_3_base_recommender_equivalence(synthetic_project):
    """All five base recommenders match naive reimplementations; <10s."""
    start = time.perf_counter()
    asof = synthetic_project["asof"]
    checked = 0
    for kind, model in base_recommenders(asof).items():
        for pr in synthetic_project["test"].prs:
            expected = NAIVE[kind](asof, pr)
            if expected is None:
                with pytest.raises(NoKuError):
                    model.recommend(pr)
                continue
            actual = dict(model.recommend(pr).ranked)
            assert set(actual) == set(expected), (kind, pr.id)
            for dev in expected:
                assert abs(actual[dev] - expected[dev]) < 1e-9, (kind, pr.id, dev)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    done(3, f"5 recommenders × {checked // 5} PRs equivalent in {elapsed:.2f}s")


def test_criterion_4_kurec_decomposition_fixtures():
    """KUREC dev/rev decomposition matches hand numbers on five fixtures."""
    # (a) base example: ratios 0.5/0.5, recency 0.5 vs 1.0
    store = make_store(
        commit("c1", "alice", "2023-01-01T00:00:00Z", {"f.java": ku(k1=2)}),
        commit("c2", "bob", "2023-01-02T00:00:00Z", {"g.java": ku(k1=2)}),
    )
    pr = make_pr(1, "2023-01-03T00:00:00Z", "carol", ["f.java"], reviewers=["bob"])
    model = KurecRecommender(as_of(store, pr))
    assert model.decompose(pr) == {"alice": (1.0, 0.0), "bob": (1.5, 0.0)}

    # (b) zero-day guard: same-day touch earns the full 1.0 bonus
    guard_store = make_store(
        commit("c1", "alice", "2023-01-03T01:00:00Z", {"f.java": ku(k1=1)}),
    )
    guard_pr = make_pr(1, "2023-01-03T09:00:00Z", "carol", ["f.java"],
                       reviewers=["alice"])
    decomposed = KurecRecommender(as_of(guard_store, guard_pr)).decompose(guard_pr)
    assert decomposed["alice"] == (2.0, 0.0)  # ratio 1.0 + guarded bonus 1.0

    # (c) strict cutoff: a commit at the opening instant contributes nothing
    cut_store = make_store(
        commit("c1", "alice", "2023-01-01T00:00:00Z", {"f.java": ku(k1=1)}),
        commit("c2", "bob", "2023-01-05T00:00:00Z", {"f.java": ku(k1=9)}),
    )
    cut_pr = make_pr(1, "2023-01-05T00:00:00Z", "carol", ["f.java"],
                     reviewers=["alice"], head_commit="c1")
    decomposed = KurecRecommender(as_of(cut_store, cut_pr)).decompose(cut_pr)
    assert set(decomposed) == {"alice"}
    assert decomposed["alice"] == (1.0 + 0.25, 0.0)  # ratio 1.0 + 1/4 days

    # (d) review side adds normalized share plus its own recency bonus
    reviewed = make_pr(2, "2023-01-02T00:00:00Z", "carol", ["f.java"],
                       reviewers=["rita"])
    side_pr = make_pr(3, "2023-01-04T00:00:00Z", "carol", ["f.java"],
                      reviewers=["rita"])
    decomposed = KurecRecommender(as_of(store, reviewed, side_pr)).decompose(side_pr)
    assert decomposed["rita"][1] == 1.5  # ratio 1.0 + bonus 1/2

    # (e) a KU-free PR refuses to score anyone
    no_ku = make_pr(4, "2023-01-04T00:00:00Z", "carol", ["notes.md"],
                    reviewers=["rita"])
    with pytest.raises(NoKuError):
        KurecRecommender(as_of(store, no_ku)).decompose(no_ku)
    done(4, "five decomposition fixtures incl. zero-day guard and strict cutoff")


def test_criterion_5_chrev_hand_values():
    """CHREV xFactor equals 3.0 (sole reviewer) and 1.2 (split shares)."""
    store = make_store()
    sole = make_pr(1, "2023-01-01T00:00:00Z", "a", ["x.java"], reviewers=["rita"],
                   comments=[("rita", "x.java", "2023-01-01T02:00:00Z")])
    target = make_pr(2, "2023-01-05T00:00:00Z", "carol", ["x.java"],
                     reviewers=["rita"])
    rec = base_recommenders(as_of(store, sole, target))["chrev"].recommend(target)
    assert abs(dict(rec.ranked)["rita"] - 3.0) < 1e-12

    shared = make_pr(
        1, "2023-01-01T00:00:00Z", "a", ["x.java"], reviewers=["rita", "ron"],
        comments=[
            ("rita", "x.java", "2023-01-01T01:00:00Z"),
            ("rita", "x.java", "2023-01-02T01:00:00Z"),
            ("ron", "x.java", "2023-01-06T01:00:00Z"),
            ("ron", "x.java", "2023-01-07T01:00:00Z"),
        ],
    )
    target = make_pr(2, "2023-01-10T00:00:00Z", "carol", ["x.java"],
                     reviewers=["ron"])
    rec = base_recommenders(as_of(store, shared, target))["chrev"].recommend(target)
    scores = dict(rec.ranked)
    assert abs(scores["rita"] - 1.2) < 1e-12
    assert abs(scores["ron"] - 2.0) < 1e-12
    done(5, "xFactor 3.0 and 1.2 reproduced within 1e-12")


def test_criterion_6_adaptive_replay_protocol(synthetic_project):
    """Replay is seed-deterministic, windows cap at 10, prefixes agree."""
    asof = synthetic_project["asof"]
    test_prs = list(synthetic_project["test"].prs)
    for variant in ("freq", "rec", "hybrid"):
        # the steps, the winners and each step's ranking
        first = replay_from_scratch(asof, test_prs, variant, 11)
        second = replay_from_scratch(asof, test_prs, variant, 11)
        assert first == second, variant
        prefix = replay_from_scratch(asof, test_prs[:2], variant, 11)
        assert tuple(part[:2] for part in first) == prefix, variant

    from kurev.adaptive import WINDOW_SIZE, Brst

    brst = Brst("hybrid")
    for i in range(25):
        brst.update(KIND_ORDER[i % len(KIND_ORDER)])
        assert len(brst.window) <= WINDOW_SIZE
    done(6, "deterministic replay, matching prefixes, window ≤ 10")


def test_criterion_7_split_hygiene():
    """1000 random datasets: exact floor sizes and zero train/test leakage."""
    rng = random.Random(77)
    for trial in range(1000):
        n = rng.randrange(5, 80)
        prs = [
            make_pr(
                i,
                f"20{rng.randrange(10, 30):02d}-{rng.randrange(1, 13):02d}-"
                f"{rng.randrange(1, 29):02d}T{rng.randrange(24):02d}:00:00Z",
                "a", ["x.java"], reviewers=["r"],
            )
            for i in range(1, n + 1)
        ]
        ds = make_dataset(*prs)
        train, test = chronological_split(ds)
        assert len(train.prs) == int(0.8 * n // 1) == (8 * n) // 10
        assert len(train.prs) + len(test.prs) == n
        assert set(p.id for p in train.prs).isdisjoint(p.id for p in test.prs)
        assert max(p.opened_at for p in train.prs) <= min(
            p.opened_at for p in test.prs
        )
    done(7, "1000 random splits: exact sizes, zero leakage")


def test_criterion_8_clustering_guarantees():
    """Gini, PCA orthonormality/reconstruction, blob recovery, descent; <30s."""
    start = time.perf_counter()
    assert gini([4, 4, 4, 4]) == 0.0

    rng = np.random.default_rng(12)
    data = rng.standard_normal((50, 12))
    reducer = PcaReducer(1.0).fit(data)
    gram = reducer.components_ @ reducer.components_.T
    assert np.allclose(gram, np.eye(len(reducer.components_)), atol=1e-9)
    assert np.allclose(
        reducer.inverse_transform(reducer.transform(data)), data, atol=1e-9
    )

    three = blobs([(0, 0), (10, 0), (0, 10)], per=8, spread=0.1, seed=13)
    result = select_k(three, k_max=3, seed=0)
    assert result.qualified and result.k == 3
    assert result.median_silhouette >= 0.90

    model = KMeans(3, seed=4).fit(blobs([(0, 0), (5, 0), (0, 5)], per=12,
                                        spread=0.9, seed=6))
    descent = model.inertia_history_
    assert all(b <= a + 1e-9 for a, b in zip(descent, descent[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    done(8, f"clustering invariants verified in {elapsed:.2f}s")


def test_criterion_9_pipeline_end_to_end(synthetic_project, tmp_path):
    """`kurev pipeline` completes, reports all 8 recommenders, reruns
    byte-identically, in under 60s."""
    from kurev.cli import main
    from kurev.pipeline import ALL_KINDS

    start = time.perf_counter()
    config = tmp_path / "config.yaml"
    config.write_text(
        f"repo: {synthetic_project['repo']}\n"
        f"prs: {synthetic_project['prs_path']}\n"
        f"out_dir: {tmp_path / 'out'}\n"
        "seed: 11\n",
        encoding="utf-8",
    )
    assert main(["pipeline", str(config)]) == 0
    report = (tmp_path / "out" / "report.tsv").read_text(encoding="utf-8")
    for kind in ALL_KINDS:
        for metric in ("accuracy", "map"):
            assert f"\t{kind}\t{metric}\t" in report, (kind, metric)
    blocks = report.split("\n\n")
    assert len(blocks) == 2 and "reasonable_pct" in blocks[1]
    for kind in ALL_KINDS:
        assert f"\t{kind}\t" in blocks[1], kind
    header = blocks[0].splitlines()[0]
    assert header.endswith("k1\tk2\tk3\tk4\tk5")

    out = tmp_path / "out"
    snapshot = {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert main(["pipeline", str(config)]) == 0
    again = {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert again == snapshot
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    done(9, f"pipeline + byte-identical rerun in {elapsed:.2f}s")
