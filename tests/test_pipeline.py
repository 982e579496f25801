"""Pipeline orchestration: stage caching, report shape, byte identity."""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from kurev import detector, pipeline, recommenders, util
from kurev.adaptive import VARIANTS
from kurev.catalog import load_catalog
from kurev.errors import KurevError
from kurev.evaluation import K_MAX, reasonableness
from kurev.mining import KuStore
from kurev.pipeline import (
    ALL_KINDS,
    ProjectConfig,
    evaluate_project,
    run_base_recommenders,
    run_pipeline,
)
from kurev.recommenders import RF_MODES
from tests.test_adaptive import naive_replay
from tests.test_evaluation import map_at_k, top_k_accuracy
from tests.test_mining import save_format_1


def config_for(synthetic_project, tmp_path, seed=11) -> ProjectConfig:
    return ProjectConfig(
        repo=synthetic_project["repo"],
        prs=synthetic_project["prs_path"],
        out_dir=tmp_path / "out",
        seed=seed,
    )


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_evaluate_project_covers_all_recommenders(synthetic_project):
    report = evaluate_project(synthetic_project["asof"], synthetic_project["test"], seed=11)
    kinds = report.recommenders()
    assert sorted(kinds) == sorted(ALL_KINDS)
    assert len(kinds) == 8
    for kind in kinds:
        for k in range(1, 6):
            assert 0.0 <= report.accuracy[(kind, k)] <= 1.0
            assert 0.0 <= report.mean_ap[(kind, k)] <= 1.0
        assert 0.0 <= report.reasonable_pct[kind] <= 100.0
        # both metrics are monotone in k for a fixed ranking
        for k in range(1, 5):
            assert report.accuracy[(kind, k + 1)] >= report.accuracy[(kind, k)]


def naive_report(asof, test_prs, seed):
    """Accuracy, MAP and reasonableness rescored per k from every ranking,
    with each top-1 pick judged against the whole history before the PR."""
    truth = {pr.id: set(pr.reviewers) for pr in test_prs}
    base = run_base_recommenders(asof, test_prs)
    recs = {kind: [base[kind][pr.id] for pr in test_prs] for kind in base}
    for variant in VARIANTS:
        steps = naive_replay(variant, seed, test_prs, base)[0]
        recs[f"ad_{variant}"] = [base[step.delegate][step.pr_id] for step in steps]
    accuracy, mean_ap, reasonable = {}, {}, {}
    for kind, kind_recs in recs.items():
        for k in range(1, 6):
            accuracy[(kind, k)] = top_k_accuracy(kind_recs, truth, k)
            mean_ap[(kind, k)] = map_at_k(kind_recs, truth, k)
        verdicts = [
            reasonableness(
                pr, rec.top(1)[0],
                [c for c in asof.store.commits if c.authored_at < pr.opened_at],
                [p for p in asof.prs if p.opened_at < pr.opened_at],
            )
            for pr, rec in zip(test_prs, kind_recs)
            if rec.ranked
        ]
        judged = [v for v in verdicts if v is not None]
        reasonable[kind] = 100.0 * sum(judged) / len(judged) if judged else 0.0
    return accuracy, mean_ap, reasonable


@pytest.mark.parametrize("seed", [0, 11])
def test_report_equals_the_per_k_rescoring(synthetic_project, seed):
    asof, test = synthetic_project["asof"], synthetic_project["test"]
    report = evaluate_project(asof, test, seed=seed)
    assert (report.accuracy, report.mean_ap, report.reasonable_pct) == naive_report(
        asof, list(test.prs), seed
    )


def test_evaluation_keeps_each_base_ranking_to_its_first_k_max(crowded_project,
                                                               monkeypatch):
    # the report reads ranks 1..K_MAX only, so evaluation cuts each base
    # ranking there; the cut is the full ranking's prefix, and the report
    # still equals the per-k rescoring of the full rankings
    asof, test = crowded_project["asof"], crowded_project["test"]
    expected = naive_report(asof, list(test.prs), seed=0)
    full_rank = recommenders.rank
    ranked = []

    def spy(scores, pr_id, kind, k=None):
        rec = full_rank(scores, pr_id, kind, k)
        ranked.append((rec.ranked, full_rank(scores, pr_id, kind).ranked))
        return rec

    monkeypatch.setattr(recommenders, "rank", spy)
    report = evaluate_project(asof, test, seed=0)
    assert len(ranked) == 5 * len(test.prs)
    assert any(len(full) > K_MAX for _, full in ranked)
    assert all(cut == full[:K_MAX] for cut, full in ranked)
    assert (report.accuracy, report.mean_ap, report.reasonable_pct) == expected


def test_run_pipeline_outputs_and_caching(synthetic_project, tmp_path, capsys):
    config = config_for(synthetic_project, tmp_path)
    report_path = run_pipeline(config)
    assert report_path.exists()
    out = config.out_dir
    for expected in (
        "store/commits.jsonl",
        "store/file_kus.jsonl",
        "prs/train.jsonl",
        "prs/test.jsonl",
        "profiles/p_ku.tsv",
        "report.tsv",
        "cluster/labels.tsv",
        "cluster/summary.json",
        "cluster/diff_values.tsv",
    ):
        assert (out / expected).exists(), expected
    text = report_path.read_text(encoding="utf-8")
    for kind in ALL_KINDS:
        assert f"\t{kind}\taccuracy\t" in text

    first = tree_bytes(out)
    capsys.readouterr()
    run_pipeline(config)
    assert tree_bytes(out) == first
    echoed = capsys.readouterr().out
    assert echoed.count("cached") == 5


# The stage that writes each top-level entry of out/.
STAGE_OF = {"store": "mine", "prs": "prs", "profiles": "profiles",
            "report.tsv": "evaluate", "cluster": "cluster"}
# What each stage reads when it misses: the store back from out/store/ (a mine
# that runs hands its store on), the PR export, or both. A cached one reads none.
READS = {"mine": {}, "prs": {"prs": 1}, "profiles": {"store": 1},
         "evaluate": {"store": 1, "prs": 1}, "cluster": {"store": 1}}


def test_each_deleted_output_comes_back_from_its_own_stage(
    synthetic_project, tmp_path, monkeypatch
):
    config = config_for(synthetic_project, tmp_path)
    run_pipeline(config, echo=lambda message: None)
    out = config.out_dir
    full = tree_bytes(out)
    reads: Counter = Counter()
    load_store, load_prs = KuStore.load.__func__, pipeline.load_prs
    monkeypatch.setattr(KuStore, "load", classmethod(
        lambda cls, in_dir: reads.update(["store"]) or load_store(cls, in_dir)))
    monkeypatch.setattr(pipeline, "load_prs",
                        lambda *args, **kwargs: reads.update(["prs"]) or load_prs(*args, **kwargs))
    run_pipeline(config, echo=lambda message: None)
    assert reads == {}  # every stage is cached
    outputs = [name for name in full if not name.endswith(".stamp")]
    assert len(outputs) == 13
    for name in outputs:
        (out / name).unlink()
        echoed = []
        reads.clear()
        run_pipeline(config, echo=echoed.append)
        assert tree_bytes(out) == full, name
        missed = [line.split(":")[0] for line in echoed if not line.endswith(": cached")]
        stage = STAGE_OF[name.split("/")[0]]
        assert missed == [stage], name
        assert reads == READS[stage], name
    # stages that miss together read the store and the export once
    for name in ("prs/meta.json", "profiles/p_ku.tsv", "report.tsv", "cluster/summary.json"):
        (out / name).unlink()
    reads.clear()
    run_pipeline(config, echo=lambda message: None)
    assert tree_bytes(out) == full
    assert reads == {"store": 1, "prs": 1}


def test_a_run_builds_p_ku_at_most_once(synthetic_project, tmp_path, monkeypatch):
    built = []
    build = pipeline.global_ku_profiles
    monkeypatch.setattr(pipeline, "global_ku_profiles",
                        lambda store: built.append(store) or build(store))
    config = config_for(synthetic_project, tmp_path)
    run_pipeline(config, echo=lambda message: None)
    assert len(built) == 1  # the profiles and cluster stages share one build
    run_pipeline(config, echo=lambda message: None)
    assert len(built) == 1  # every stage is cached
    for name in ("profiles/p_ku.tsv", "cluster/labels.tsv"):
        (config.out_dir / name).unlink()
        run_pipeline(config, echo=lambda message: None)
    assert len(built) == 3  # one build for each stage that ran alone


def test_the_cluster_stage_runs_after_the_store_and_history_are_released(
    synthetic_project, tmp_path, monkeypatch
):
    # the cluster stage reads only P_ku: the store and the evaluation's
    # history (its as-of index) must not sit under its allocations
    build, evaluate, cluster = (
        pipeline.build_ku_store, pipeline.evaluate_project, pipeline.run_clustering)
    refs, alive = {}, []

    def built(*args, **kwargs):
        store = build(*args, **kwargs)
        refs["store"] = weakref.ref(store)
        return store

    def evaluated(asof, *args, **kwargs):
        refs["history"] = weakref.ref(asof)
        return evaluate(asof, *args, **kwargs)

    def clustered(*args, **kwargs):
        gc.collect()
        alive.extend(name for name, ref in sorted(refs.items()) if ref() is not None)
        return cluster(*args, **kwargs)

    monkeypatch.setattr(pipeline, "build_ku_store", built)
    monkeypatch.setattr(pipeline, "evaluate_project", evaluated)
    monkeypatch.setattr(pipeline, "run_clustering", clustered)
    messages = []
    run_pipeline(config_for(synthetic_project, tmp_path), echo=messages.append)
    assert not any(message.endswith(": cached") for message in messages)
    assert sorted(refs) == ["history", "store"]
    assert alive == []


def test_rerun_into_fresh_directory_is_byte_identical(synthetic_project, tmp_path):
    a = run_pipeline(config_for(synthetic_project, tmp_path / "a"))
    b = run_pipeline(config_for(synthetic_project, tmp_path / "b"))
    tree_a = tree_bytes(a.parent)
    tree_b = tree_bytes(b.parent)
    assert tree_a.keys() == tree_b.keys()
    for name in tree_a:
        if name.endswith(".stamp"):
            continue
        assert tree_a[name] == tree_b[name], name


# sha256 of report.tsv per RF mode and of profiles/p_ku.tsv, recorded from an
# earlier as-of index that every rewrite must reproduce; both seeds give the
# same bytes here. cluster/ is left out: its bits depend on the numpy/LAPACK
# build.
REPORT_SHA256 = {
    "prs": "29bca148de98cfcf4ffafc7eb4daa0ceb9b7f773a682a00379ae6c8fdd04edac",
    "comments": "7e5bc6692a77069a7fdb5f18012496c209f48c402afbfd8dd1b5120cc798e332",
}
P_KU_SHA256 = "ce449d5fdf942322ac05b923d0f3d4ae38766eef6cd6ac3d2791134887a8097f"


def test_report_and_profiles_keep_their_recorded_bytes(synthetic_project, tmp_path):
    for seed in (0, 11):
        for rf_mode in RF_MODES:
            config = replace(config_for(synthetic_project, tmp_path, seed), rf_mode=rf_mode)
            run_pipeline(config, echo=lambda message: None)
            out = config.out_dir
            assert sha256(out / "report.tsv") == REPORT_SHA256[rf_mode], (seed, rf_mode)
            assert sha256(out / "profiles" / "p_ku.tsv") == P_KU_SHA256, (seed, rf_mode)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_stage_reruns_when_inputs_change(synthetic_project, tmp_path, capsys):
    config = config_for(synthetic_project, tmp_path)
    run_pipeline(config)
    capsys.readouterr()
    reseeded = ProjectConfig(
        repo=config.repo, prs=config.prs, out_dir=config.out_dir, seed=99
    )
    run_pipeline(reseeded)
    echoed = capsys.readouterr().out
    assert "mine: cached" in echoed
    assert "evaluate: report" in echoed  # seed change invalidates evaluation
    assert "cluster: outputs written" in echoed


def test_mine_stage_reruns_under_another_detection_code_digest(
    synthetic_project, tmp_path, monkeypatch
):
    config = config_for(synthetic_project, tmp_path)
    run_pipeline(config, echo=lambda message: None)
    monkeypatch.setattr(detector, "_code_digest", lambda: "other detection code")
    echoed = []
    run_pipeline(config, echo=echoed.append)
    ran = [line.split(":")[0] for line in echoed if not line.endswith(": cached")]
    assert ran == ["mine", "profiles", "evaluate", "cluster"]


def test_an_out_dir_mined_in_format_1_is_mined_again(synthetic_project, tmp_path):
    # the mine stamp format 1 wrote had no format in its signature
    config = config_for(synthetic_project, tmp_path)
    run_pipeline(config, echo=lambda message: None)
    out = config.out_dir
    full = tree_bytes(out)
    save_format_1(KuStore.load(out / "store"), out / "store")
    head = subprocess.run(["git", "-C", str(config.repo), "rev-parse", "HEAD"],
                          check=True, capture_output=True, text=True).stdout.strip()
    key = detector.detection_key(load_catalog())
    util.write_text(out / "mine.stamp", util.sha256_text(f"mine:{head}:{key}:False") + "\n")
    echoed = []
    run_pipeline(config, echo=echoed.append)
    assert [line.split(":")[0] for line in echoed if not line.endswith(": cached")] == ["mine"]
    assert tree_bytes(out) == full


def test_stage_that_crashes_midway_is_not_cached_under_its_old_signature(
    synthetic_project, tmp_path, monkeypatch
):
    # a prs stage run at a new train fraction writes two of its files and
    # crashes; a rerun at the old fraction must not take the old stamp as done
    clean = config_for(synthetic_project, tmp_path / "clean")
    run_pipeline(clean, echo=lambda message: None)
    config = config_for(synthetic_project, tmp_path / "crashed")
    run_pipeline(config, echo=lambda message: None)

    real_save_prs = pipeline.save_prs
    writes = []

    def crash_after_second_write(ds, path):
        real_save_prs(ds, path)
        writes.append(path)
        if len(writes) == 2:
            raise RuntimeError("crash mid-stage")

    monkeypatch.setattr(pipeline, "save_prs", crash_after_second_write)
    with pytest.raises(RuntimeError, match="crash mid-stage"):
        run_pipeline(replace(config, train_fraction=0.7), echo=lambda message: None)
    monkeypatch.undo()

    run_pipeline(config, echo=lambda message: None)
    assert tree_bytes(config.out_dir) == tree_bytes(clean.out_dir)


def crash_at_write(monkeypatch, crash_at=None):
    """Count ``util.atomic_open`` calls, raising at call ``crash_at``.

    Patches the name in every ``kurev`` module that looks it up, since
    some import it directly; returns the list of paths opened so far.
    """
    real = util.atomic_open
    opened = []

    def counted(path):
        opened.append(path)
        if len(opened) == crash_at:
            raise RuntimeError(f"crash before writing {path.name}")
        return real(path)

    for name, module in list(sys.modules.items()):
        if name.startswith("kurev") and getattr(module, "atomic_open", None) is real:
            monkeypatch.setattr(module, "atomic_open", counted)
    return opened


def test_a_crash_at_any_write_leaves_the_rerun_byte_identical(
    synthetic_project, tmp_path, monkeypatch
):
    def config_in(root):
        return replace(config_for(synthetic_project, root), cache_dir=root / "cache")

    quiet = lambda message: None  # noqa: E731
    clean = config_in(tmp_path / "clean")
    with monkeypatch.context() as patch:
        cold_writes = crash_at_write(patch)
        run_pipeline(clean, echo=quiet)
    expected = tree_bytes(clean.out_dir)
    # every file of out/ goes through atomic_open, as does the KU cache
    assert {p.relative_to(clean.out_dir).as_posix() for p in cold_writes
            if clean.out_dir in p.parents} == set(expected)
    assert len(cold_writes) == len(expected) + 1

    def crash_then_rerun(root, crash_at, crashed_config):
        with monkeypatch.context() as patch:
            crash_at_write(patch, crash_at)
            with pytest.raises(RuntimeError, match="crash before writing"):
                run_pipeline(crashed_config, echo=quiet)
        run_pipeline(config_in(root), echo=quiet)
        assert tree_bytes(root / "out") == expected, (root.name, crash_at)

    # a cold run crashes at the N-th write; the same config runs again
    for n in range(1, len(cold_writes) + 1):
        root = tmp_path / f"cold{n}"
        crash_then_rerun(root, n, config_in(root))

    # a finished run is rerun at another train fraction, crashes at its N-th
    # write, and the first config runs again
    def finished(root):
        shutil.copytree(clean.out_dir, root / "out")
        shutil.copytree(clean.cache_dir, root / "cache")
        return replace(config_in(root), train_fraction=0.7)

    with monkeypatch.context() as patch:
        changed_writes = crash_at_write(patch)
        run_pipeline(finished(tmp_path / "count"), echo=quiet)
    assert changed_writes  # the prs and evaluate stages run again
    for n in range(1, len(changed_writes) + 1):
        root = tmp_path / f"changed{n}"
        crash_then_rerun(root, n, finished(root))


def test_config_file_with_only_paths_takes_the_dataclass_defaults(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("repo: r\nprs: p.jsonl\n", encoding="utf-8")
    config = ProjectConfig.from_file(cfg)
    assert config == ProjectConfig(
        repo=(tmp_path / "r").resolve(),
        prs=(tmp_path / "p.jsonl").resolve(),
        out_dir=tmp_path / "out",
    )


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("repo: r\nprs: p.jsonl\nkmax: 10\n", encoding="utf-8")
    with pytest.raises(KurevError, match="kmax"):
        ProjectConfig.from_file(cfg)


@pytest.mark.parametrize("key", ["catalog", "cache_dir", "seed", "rf_mode", "all_commits"])
def test_config_key_without_value_is_a_data_error(tmp_path, key):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(f"repo: r\nprs: p.jsonl\n{key}:\n", encoding="utf-8")
    with pytest.raises(KurevError, match=f"'{key}' has no value"):
        ProjectConfig.from_file(cfg)


@pytest.mark.parametrize(
    "line",
    ["seed: abc", "k_max: [1]", "repo: [r]",
     'all_commits: "false"', "k_max: true", "seed: 1.7"],
)
def test_config_value_of_the_wrong_type_is_a_data_error(tmp_path, line):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(f"repo: r\nprs: p.jsonl\n{line}\n", encoding="utf-8")
    with pytest.raises(KurevError, match=f"bad value for '{line.split(':')[0]}'"):
        ProjectConfig.from_file(cfg)


def test_config_values_keep_their_yaml_types(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(
        "repo: r\nprs: p.jsonl\nall_commits: false\nk_max: 7\ntrain_fraction: 1\n",
        encoding="utf-8",
    )
    config = ProjectConfig.from_file(cfg)
    assert config.all_commits is False
    assert config.k_max == 7
    assert config.train_fraction == 1.0 and isinstance(config.train_fraction, float)


def test_config_from_file_and_validation(tmp_path, synthetic_project):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(
        f"repo: {synthetic_project['repo']}\n"
        f"prs: {synthetic_project['prs_path']}\n"
        "seed: 5\n",
        encoding="utf-8",
    )
    config = ProjectConfig.from_file(cfg)
    assert config.seed == 5
    assert config.out_dir == tmp_path / "out"
    config.validate()

    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: 1\n", encoding="utf-8")
    with pytest.raises(KurevError):
        ProjectConfig.from_file(bad)
    missing = ProjectConfig(
        repo=tmp_path / "nope", prs=synthetic_project["prs_path"],
        out_dir=tmp_path / "out",
    )
    with pytest.raises(KurevError):
        missing.validate()


@pytest.mark.parametrize("module", ["kurev.pipeline", "kurev.cli"])
def test_the_java_front_end_loads_before_numpy(module):
    # numpy is imported at the top of clustering.py alone. Were it loaded
    # before the Java front end's modules, that import order by itself would
    # raise a run's peak RSS by about 1 MB, with no change to any output.
    probe = (
        f"import sys, {module}; names = list(sys.modules); "
        "print(names.index('kurev.javaparse.parser'), names.index('numpy'))"
    )
    src = str(Path(__file__).parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    parser_at, numpy_at = map(int, done.stdout.split())
    assert parser_at < numpy_at


def test_the_layers_below_the_pipeline_do_not_load_it():
    # the recommenders, profiles, evaluation and adaptive replay are what
    # the pipeline and the CLI drive; an import of either from below would
    # be a module cycle
    probe = (
        "import sys, kurev.recommenders, kurev.profiles, kurev.evaluation, kurev.adaptive; "
        "print(sorted({'kurev.pipeline', 'kurev.cli'} & set(sys.modules)))"
    )
    src = str(Path(__file__).parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.stdout.strip() == "[]"
