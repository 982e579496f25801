"""CLI surface: subcommands, output shape, and exit codes."""

from __future__ import annotations

import json
import random

import pytest

from kurev import cli
from kurev.cli import main
from kurev.detector import detect_kus
from kurev.mining import KuStore, build_ku_store
from kurev.pipeline import ALL_KINDS, run_base_recommenders
from kurev.prstore import filter_prs, load_prs
from kurev.recommenders import KIND_ORDER, base_recommenders, safe_recommend
from kurev.util import parse_rfc3339
from tests.test_adaptive import replay_from_scratch
from tests.test_detector import NESTED_2000
from tests.test_mining import save_format_1
from tests.test_profiles import naive_dev, naive_rev, read_last_touch, read_matrix, rounded

FIXTURES = "tests/fixtures/ku_corpus"


@pytest.fixture(scope="module")
def mined(tmp_path_factory):
    """Synthetic project with a mined store and a pipeline config on disk."""
    from tests.synthetic import build_synthetic_project

    base = tmp_path_factory.mktemp("cli")
    repo, prs_path = build_synthetic_project(base)
    store = base / "store"
    assert main(["mine", str(repo), "--out", str(store)]) == 0
    config = base / "config.yaml"
    config.write_text(
        f"repo: {repo}\nprs: {prs_path}\nout_dir: {base / 'out'}\nseed: 11\n",
        encoding="utf-8",
    )
    return {"base": base, "repo": repo, "prs": prs_path, "store": store,
            "config": config}


def test_detect_prints_ku_vector(capsys):
    assert main(["detect", f"{FIXTURES}/K11.java", "--capabilities"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert len(record["ku_vector"]) == 28
    assert record["ku_vector"][10] > 0  # K11 Exception Handling
    assert any(key.startswith("[K11,") for key in record["capabilities"])


def test_detect_on_files_nested_2000_levels_deep(tmp_path, capsys):
    # click's own frames sit under the detector; the vector is unchanged
    for name, src in NESTED_2000.items():
        path = tmp_path / "Deep.java"
        path.write_text(src, encoding="utf-8")
        assert main(["detect", str(path)]) == 0, name
        record = json.loads(capsys.readouterr().out)
        assert record["ku_vector"] == detect_kus(src), name


def test_detect_gives_the_vector_mining_gives_a_latin_1_file(scratch_repo, capsys):
    source = b"class A { void f() { for (;;) { } } } // caf\xe9\n"  # not UTF-8
    scratch_repo.write("A.java", source)
    scratch_repo.commit("latin-1 comment")
    (mined_vector,) = build_ku_store(scratch_repo.root).vectors.values()
    assert mined_vector[3] == 1  # K4 Loop
    assert main(["detect", str(scratch_repo.root / "A.java")]) == 0
    assert json.loads(capsys.readouterr().out)["ku_vector"] == mined_vector


def test_prs_validate_filter_split(mined, tmp_path, capsys):
    assert main(["prs", "validate", str(mined["prs"])]) == 0
    assert "12 PRs valid" in capsys.readouterr().out
    kept = tmp_path / "kept.jsonl"
    assert main(["prs", "filter", str(mined["prs"]), "--out", str(kept)]) == 0
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    assert main(
        ["prs", "split", str(kept), "--out-train", str(train),
         "--out-test", str(test)]
    ) == 0
    assert len(train.read_text().splitlines()) == 9
    assert len(test.read_text().splitlines()) == 3


def test_profiles_command(mined, tmp_path, capsys):
    store = KuStore.load(mined["store"])
    prs = filter_prs(load_prs(mined["prs"]))[0].prs
    # one cutoff inside the synthetic history, one after all of it
    for cutoff in ("2023-01-20T00:00:00Z", "2030-01-01T00:00:00Z"):
        out = tmp_path / cutoff
        assert main(
            ["profiles", "--store", str(mined["store"]), "--prs", str(mined["prs"]),
             "--cutoff", cutoff, "--out", str(out)]
        ) == 0
        when = parse_rfc3339(cutoff)
        dev_ratios, dev_touch = naive_dev(store, when)
        rev_ratios, rev_touch = naive_rev(prs, store, when)
        assert dev_touch and rev_touch
        assert read_matrix(out / "dev.tsv") == rounded(dev_ratios)
        assert read_matrix(out / "rev.tsv") == rounded(rev_ratios)
        assert read_last_touch(out / "dev_last_touch.jsonl") == dev_touch
        assert read_last_touch(out / "rev_last_touch.jsonl") == rev_touch
        assert read_matrix(out / "p_ku.tsv") == rounded(naive_dev(store, None)[0])


@pytest.mark.parametrize("state", ["open", "closed"])
def test_profiles_credits_only_reviewers_of_filtered_prs(mined, tmp_path, state):
    # An extra PR reviewed by zed: the review side, like KUREC, counts only
    # the PRs that filter_prs keeps, so zed appears only if it is closed.
    zed = "zed zimmer <zed@example.com>"
    extra = {
        "id": 999, "opened_at": "2023-01-16T22:00:00Z", "state": state,
        "author": "carol clark <carol@example.com>",
        "changed_files": ["core/Scheduler.java"], "reviewers": [zed],
        "review_comments": [], "head_commit": None,
    }
    prs_path = tmp_path / "prs.jsonl"
    prs_path.write_text(
        mined["prs"].read_text(encoding="utf-8") + json.dumps(extra) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["profiles", "--store", str(mined["store"]), "--prs", str(prs_path),
                 "--cutoff", "2030-01-01T00:00:00Z", "--out", str(out)]) == 0
    credited = {dev for dev, _ in read_last_touch(out / "rev_last_touch.jsonl")}
    assert (zed in read_matrix(out / "rev.tsv")) == (state == "closed")
    assert (zed in credited) == (state == "closed")


def test_recommend_base_and_adaptive(mined, capsys):
    code = main(
        ["recommend", "--store", str(mined["store"]), "--prs", str(mined["prs"]),
         "--pr", "11", "--which", "kurec", "--top", "3"]
    )
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and l[0].isdigit()]
    assert 1 <= len(lines) <= 3
    assert lines[0].startswith("1\t")
    code = main(
        ["recommend", "--store", str(mined["store"]), "--prs", str(mined["prs"]),
         "--pr", "11", "--which", "ad_hybrid", "--seed", "11"]
    )
    assert code == 0


def test_recommend_on_a_format_1_store_is_a_data_error_naming_the_format(
    mined, tmp_path, capsys
):
    save_format_1(KuStore.load(mined["store"]), tmp_path)
    code = main(["recommend", "--store", str(tmp_path), "--prs", str(mined["prs"]),
                 "--pr", "11"])
    assert code == 2
    assert "format 1" in capsys.readouterr().err


def drop_hash(lines):
    first = json.loads(lines[0])
    del first["hash"]
    return [json.dumps(first), *lines[1:]]


def undated(lines):
    first = json.loads(lines[0])
    first["authored_at"] = "yesterday"
    return [json.dumps(first), *lines[1:]]


@pytest.mark.parametrize(
    "name,edit",
    [
        ("index.json", lambda lines: [json.dumps({"format": 2})]),
        ("index.json", lambda lines: ["[]"]),
        ("index.json", lambda lines: []),
        ("commits.jsonl", drop_hash),
        ("commits.jsonl", undated),
        ("file_kus.jsonl", lambda lines: [*lines, "{blob: 1}"]),
    ],
    ids=["index-without-catalog", "index-not-an-object", "index-empty",
         "commit-without-hash", "commit-date-not-a-date", "verdict-line-not-json"],
)
def test_cluster_on_a_malformed_store_is_a_data_error_naming_the_file(
    mined, tmp_path, capsys, name, edit
):
    store = tmp_path / "store"
    store.mkdir()
    for path in mined["store"].iterdir():
        lines = path.read_text(encoding="utf-8").splitlines()
        (store / path.name).write_text(
            "".join(line + "\n" for line in (edit(lines) if path.name == name else lines)),
            encoding="utf-8")
    out = tmp_path / "out"
    assert main(["cluster", "--store", str(store), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(store / name) in err
    assert not out.exists()


@pytest.mark.parametrize("top", ["0", "-1"])
def test_recommend_rejects_top_below_one(mined, capsys, top):
    # a slice by 0 or -1 would print nothing or drop the last candidate
    code = main(
        ["recommend", "--store", str(mined["store"]), "--prs", str(mined["prs"]),
         "--pr", "11", "--which", "kurec", "--top", top]
    )
    assert code == 1  # usage
    captured = capsys.readouterr()
    assert "--top" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("top", [1, 5, 12])
def test_recommend_prints_the_first_top_rows_of_the_full_ranking(crowded_project,
                                                                 capsys, top):
    # the last test PR replays the whole test split; its rankings run to 15,
    # and at --top 1 its ad_rec delegate still depends on ranks 2..K_MAX
    asof, test_prs = crowded_project["asof"], list(crowded_project["test"].prs)
    pr = test_prs[-1]
    rankings = {
        f"ad_{step_kind}": replay_from_scratch(asof, test_prs, step_kind, 0)[2][-1]
        for step_kind in ("freq", "rec", "hybrid")
    }
    for which in ALL_KINDS:
        if which in KIND_ORDER:
            full = safe_recommend(base_recommenders(asof)[which], pr).ranked
        else:
            full = rankings[which]
        assert main(["recommend", "--store", str(crowded_project["store_dir"]),
                     "--prs", str(crowded_project["prs_path"]), "--pr", str(pr.id),
                     "--which", which, "--top", str(top)]) == 0
        rows = [f"{i}\t{dev}\t{score:.6f}" for i, (dev, score) in enumerate(full, 1)]
        assert capsys.readouterr().out.splitlines() == rows[:top], which


def test_adaptive_recommend_honours_rf_mode(mined, capsys):
    # PR 10 opens the synthetic test split; RF counts 3 reviewed PRs for
    # both bob and carol but 5 and 4 review comments, so the two modes
    # rank differently. With a seed whose first pick is RF, an adaptive
    # recommender must return the RF ranking of the requested mode.
    seed = next(s for s in range(100) if random.Random(s).choice(KIND_ORDER) == "rf")

    def ranking(*args):
        assert main(["recommend", "--store", str(mined["store"]), "--prs",
                     str(mined["prs"]), "--pr", "10", *args]) == 0
        return capsys.readouterr().out

    by_prs = ranking("--which", "rf", "--rf-mode", "prs")
    by_comments = ranking("--which", "rf", "--rf-mode", "comments")
    assert by_prs != by_comments
    for variant in ("ad_freq", "ad_rec", "ad_hybrid"):
        args = ("--which", variant, "--seed", str(seed))
        assert ranking(*args, "--rf-mode", "comments") == by_comments
        assert ranking(*args, "--rf-mode", "prs") == by_prs


def test_adaptive_recommend_replays_only_up_to_the_target(mined, tmp_path, capsys,
                                                          monkeypatch):
    # PR 12 opens at the same instant as PR 11, the target; being later in
    # (opened_at, id) order it is neither replayed nor base-recommended
    records = [json.loads(line) for line in mined["prs"].read_text().splitlines()]
    by_id = {record["id"]: record for record in records}
    by_id[12]["opened_at"] = by_id[11]["opened_at"]
    same_instant = tmp_path / "prs.jsonl"
    same_instant.write_text("".join(json.dumps(r) + "\n" for r in records))
    replayed = []

    def spy(asof, prefix, rf_mode="prs", k=None):
        replayed.append([pr.id for pr in prefix])
        return run_base_recommenders(asof, prefix, rf_mode=rf_mode, k=k)

    def ranking(prs_path, variant):
        assert main(["recommend", "--store", str(mined["store"]), "--prs", str(prs_path),
                     "--pr", "11", "--which", variant, "--seed", "3"]) == 0
        return capsys.readouterr().out

    for variant in ("ad_freq", "ad_rec", "ad_hybrid"):
        expected = ranking(mined["prs"], variant)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "run_base_recommenders", spy)
            assert ranking(same_instant, variant) == expected
        assert replayed.pop() == [10, 11]


def test_evaluate_and_cluster_commands(mined, tmp_path, capsys):
    report = tmp_path / "report.tsv"
    assert main(
        ["evaluate", "--store", str(mined["store"]), "--prs", str(mined["prs"]),
         "--out", str(report), "--seed", "11"]
    ) == 0
    assert "kurec" in report.read_text(encoding="utf-8")
    out = tmp_path / "cluster"
    assert main(["cluster", "--store", str(mined["store"]), "--out", str(out)]) == 0
    assert (out / "labels.tsv").exists()


def test_pipeline_command(mined, capsys):
    assert main(["pipeline", str(mined["config"])]) == 0
    assert (mined["base"] / "out" / "report.tsv").exists()


def test_exit_codes(mined, capsys):
    assert main(["detect", "/does/not/exist.java"]) == 1  # usage
    assert main(["no-such-command"]) == 1
    assert main(
        ["recommend", "--store", str(mined["store"]), "--prs", str(mined["prs"]),
         "--pr", "424242", "--which", "cf"]
    ) == 2  # data error
    assert main(["--help"]) == 0


def test_pipeline_config_key_without_value_exits_2(mined, tmp_path, capsys):
    config = tmp_path / "empty.yaml"
    config.write_text(
        f"repo: {mined['repo']}\nprs: {mined['prs']}\ncatalog:\n", encoding="utf-8"
    )
    assert main(["pipeline", str(config)]) == 2
    assert "'catalog' has no value" in capsys.readouterr().err


def test_pipeline_rejects_unknown_config_keys(mined, tmp_path, capsys):
    config = tmp_path / "typo.yaml"
    config.write_text(
        f"repo: {mined['repo']}\nprs: {mined['prs']}\nkmax: 10\n", encoding="utf-8"
    )
    assert main(["pipeline", str(config)]) == 2
    assert "kmax" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["rf_mode: bogus", 'all_commits: "false"', "train_fraction: 1.0",
     "train_fraction: -0.5", "k_max: 1", "k_max: [unclosed"],
)
def test_pipeline_bad_config_value_exits_2_before_any_stage(mined, tmp_path, capsys, line):
    config = tmp_path / "bad.yaml"
    out = tmp_path / "out"
    config.write_text(
        f"repo: {mined['repo']}\nprs: {mined['prs']}\nout_dir: {out}\n{line}\n",
        encoding="utf-8",
    )
    assert main(["pipeline", str(config)]) == 2
    assert line.split(":")[0] in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.stamp"))


@pytest.mark.parametrize(
    "args,option",
    [
        (["cluster", "--k-max", "1"], "--k-max"),
        (["evaluate", "--prs", "PRS", "--train-fraction", "1.0"], "--train-fraction"),
        (["recommend", "--prs", "PRS", "--pr", "11", "--which", "ad_freq",
          "--train-fraction", "1.0"], "--train-fraction"),
    ],
    ids=["cluster", "evaluate", "recommend"],
)
def test_command_checks_its_own_range_option(mined, tmp_path, capsys, args, option):
    # the rule ProjectConfig.validate applies to the config key, named by
    # the option, before the command reads anything
    out = tmp_path / "out"
    args = [str(mined["prs"]) if arg == "PRS" else arg for arg in args]
    if args[0] != "recommend":
        args += ["--out", str(out)]
    assert main([*args, "--store", str(mined["store"])]) == 2
    assert f"error: {option} must be" in capsys.readouterr().err
    assert not out.exists()
