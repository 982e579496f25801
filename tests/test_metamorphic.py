"""Metamorphic relations: a change to the input that must leave outputs as
they were, checked on the synthetic project."""

from __future__ import annotations

import random
from dataclasses import replace
from datetime import timedelta

import pytest

from kurev.mining import build_ku_store
from kurev.pipeline import ProjectConfig, run_pipeline
from kurev.profiles import AsOf
from kurev.prstore import filter_prs, load_prs
from kurev.recommenders import RF_MODES, base_recommenders, safe_recommend
from kurev.util import parse_rfc3339
from tests.synthetic import DEVELOPERS, build_synthetic_project, build_synthetic_repo
from tests.test_pipeline import config_for, tree_bytes


def test_reordered_export_lines_change_only_the_prs_stamp(synthetic_project, tmp_path):
    # A PR export is a set of records: the order of its lines is no input.
    lines = synthetic_project["prs_path"].read_text(encoding="utf-8").splitlines()
    shuffled = list(lines)
    random.Random(1).shuffle(shuffled)
    assert shuffled != lines
    permuted = tmp_path / "permuted" / synthetic_project["prs_path"].name
    permuted.parent.mkdir()
    permuted.write_text("\n".join(shuffled) + "\n", encoding="utf-8")
    quiet = lambda message: None  # noqa: E731
    config = config_for(synthetic_project, tmp_path / "a")
    run_pipeline(config, echo=quiet)
    before = tree_bytes(config.out_dir)
    other = replace(config_for(synthetic_project, tmp_path / "b"), prs=permuted)
    run_pipeline(other, echo=quiet)
    after = tree_bytes(other.out_dir)
    assert before.keys() == after.keys()
    assert [name for name in before if before[name] != after[name]] == ["prs.stamp"]
    # in place, only the prs stage runs again, and it rewrites the same files
    echoed = []
    run_pipeline(replace(config, prs=permuted), echo=echoed.append)
    assert [line.split(":")[0] for line in echoed if not line.endswith(": cached")] == ["prs"]
    assert tree_bytes(config.out_dir) == after


# The recommenders whose rankings read only commits that change Java files;
# CF counts every commit, so it is left out.
JAVA_ONLY = [("kurec", "prs"), *(("rf", m) for m in RF_MODES), ("chrev", "prs"), ("er", "prs")]


def rankings(asof, kind, rf_mode="prs"):
    model = base_recommenders(asof, rf_mode)[kind]
    return [safe_recommend(model, pr).ranked for pr in asof.prs]


def test_commits_of_only_non_java_files_by_known_authors_change_no_verdict_or_ranking(
    synthetic_project, tmp_path
):
    rng = random.Random(5)

    def docs_commit(repo, manifest):
        # within the hour, an author with an earlier commit edits a note
        if rng.random() < 0.5:
            return
        name, email = rng.choice(manifest)["author"][:-1].split(" <")
        when = parse_rfc3339(manifest[-1]["authored_at"]) + timedelta(hours=1)
        repo.write(f"docs/note{rng.randrange(3)}.md", f"note {len(manifest)}\n")
        repo.commit("notes", name=name, email=email,
                    when=when.strftime("%Y-%m-%dT%H:%M:%S+00:00"))

    build_synthetic_repo(tmp_path / "repo", between=docs_commit)
    base = synthetic_project["store"]
    noisy = build_ku_store(tmp_path / "repo")
    assert len(noisy.commits) > len(base.commits)
    for name, store in (("base", base), ("noisy", noisy)):
        store.save(tmp_path / name)
    table = "file_kus.jsonl"
    assert (tmp_path / "noisy" / table).read_bytes() == (tmp_path / "base" / table).read_bytes()
    prs = synthetic_project["dataset"]
    before, after = synthetic_project["asof"], AsOf(noisy, prs.prs)
    for kind, rf_mode in JAVA_ONLY:
        assert rankings(after, kind, rf_mode) == rankings(before, kind, rf_mode), kind
    # the extra commits fall among the PRs: CF, which counts them, moves
    assert rankings(after, "cf") != rankings(before, "cf")


# --- dates and names are labels: moving or renaming them all moves no result ---------


def pipeline_outputs(base, **project):
    """The pipeline's ``out/`` files for the synthetic project built with
    ``project``'s arguments under ``base``."""
    repo, prs_path = build_synthetic_project(base, **project)
    config = ProjectConfig(repo=repo, prs=prs_path, out_dir=base / "out", seed=11)
    run_pipeline(config, echo=lambda message: None)
    return tree_bytes(config.out_dir)


@pytest.fixture(scope="module")
def base_outputs(tmp_path_factory):
    return pipeline_outputs(tmp_path_factory.mktemp("base"))


def results(out):
    """The report, the KU profiles and the clustering, by file name."""
    return {name: data for name, data in out.items()
            if name in ("report.tsv", "profiles/p_ku.tsv") or name.startswith("cluster/")}


def test_shifting_every_date_by_whole_weeks_changes_no_result(base_outputs, tmp_path):
    shifted = pipeline_outputs(tmp_path, offset=timedelta(weeks=-9))
    # the shift reaches the inputs: every commit has another date and hash
    assert shifted["store/commits.jsonl"] != base_outputs["store/commits.jsonl"]
    assert results(shifted) == results(base_outputs)


def test_shifting_dates_by_part_of_a_day_moves_chrevs_workdays(synthetic_project, tmp_path):
    # CHREV counts a reviewer's distinct UTC calendar days, so the relation
    # above holds only for shifts of whole days. A reviewer's two comments
    # on a PR fall 00:00 and 05:00 UTC; two hours earlier they straddle
    # midnight.
    repo, prs_path = build_synthetic_project(tmp_path, offset=timedelta(hours=-2))
    shifted = AsOf(build_ku_store(repo), filter_prs(load_prs(prs_path))[0].prs)
    base = synthetic_project["asof"]
    assert rankings(shifted, "chrev") != rankings(base, "chrev")


def test_renaming_developers_in_order_renames_only_their_rows(base_outputs, tmp_path):
    renamed = tuple((f"x {name}", email) for name, email in DEVELOPERS)
    before = results(base_outputs)
    after = results(pipeline_outputs(tmp_path, developers=renamed))
    rows = ("profiles/p_ku.tsv", "cluster/labels.tsv")
    for name in rows:
        assert after[name] != before[name]
        lines = before[name].decode("utf-8").splitlines(keepends=True)
        # rows start with the identity, the header with "developer"
        expected = lines[:1] + [f"x {line}" for line in lines[1:]]
        assert after[name].decode("utf-8") == "".join(expected), name
    assert {n: d for n, d in after.items() if n not in rows} == {
        n: d for n, d in before.items() if n not in rows}
