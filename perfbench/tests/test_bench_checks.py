"""Output checks pass on a real pipeline run and fail on corrupted outputs."""

import json
import shutil
from dataclasses import replace

import pytest

import checks
from generate import WORKLOADS, generate, set_tip


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A cold run of a tiny grown project, plus a base run grown in place."""
    from kurev.pipeline import ProjectConfig, run_pipeline

    root = tmp_path_factory.mktemp("bench")
    spec = replace(WORKLOADS["history"], devs=4, files=8, commits=60, prs=20)
    manifest = generate(spec, 2, root / "project")
    repo = root / "project" / "repo"

    def run(tip, out):
        set_tip(repo, manifest[tip])
        run_pipeline(
            ProjectConfig(
                repo=repo, prs=root / "project" / tip / "prs.jsonl",
                out_dir=out / "out", cache_dir=out / "cache", k_max=spec.k_max,
            ),
            echo=lambda message: None,
        )
        return out / "out"

    cold = run("grown", root / "cold")
    run("base", root / "incremental")
    incremental = run("grown", root / "incremental")
    return cold, incremental


def corrupt(tmp_path, out, name, edit):
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    path = copy / name
    path.write_text(edit(path.read_text()))
    return copy


def test_checks_pass_on_pipeline_outputs(outputs):
    cold, incremental = outputs
    assert checks.check_report(cold) == []
    assert checks.check_clusters(cold) == []
    assert checks.check_vectors(cold) == []
    assert checks.check_same_tree(cold, incremental) == []
    assert set(checks.digest(cold)) == {"report.tsv", "cluster/summary.json"}


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("\taccuracy\t", "\taccuracy\t1.5\t", 1),  # cell count
        lambda text: text.replace("0.", "1.", 1),  # value above 1
        lambda text: "\n".join(text.splitlines()[:5] + text.splitlines()[6:]),  # row lost
        lambda text: text.replace("\n\n", "\n"),  # tables merged
        lambda text: text[: len(text) // 2],  # truncated
    ],
)
def test_corrupted_report_fails(outputs, tmp_path, edit):
    bad = corrupt(tmp_path, outputs[0], "report.tsv", edit)
    assert checks.check_report(bad)


def test_decreasing_accuracy_fails(outputs, tmp_path):
    def swap(text):
        lines = text.splitlines()
        for i, line in enumerate(lines):
            cells = line.split("\t")
            if len(cells) == 8 and cells[2] == "accuracy":
                cells[3], cells[7] = "0.900000", "0.100000"
                lines[i] = "\t".join(cells)
                break
        return "\n".join(lines) + "\n"

    bad = corrupt(tmp_path, outputs[0], "report.tsv", swap)
    assert any("decreases" in p for p in checks.check_report(bad))


def test_lost_label_row_fails(outputs, tmp_path):
    bad = corrupt(tmp_path, outputs[0], "cluster/labels.tsv",
                  lambda text: "\n".join(text.splitlines()[:-1]) + "\n")
    assert checks.check_clusters(bad)


def test_malformed_vector_and_silent_ku_fail(outputs, tmp_path):
    def shorten(text):
        lines = text.splitlines()
        rec = json.loads(lines[0])
        rec["vector"] = [0] * 27
        return "\n".join([json.dumps(rec)] + lines[1:]) + "\n"

    bad = corrupt(tmp_path, outputs[0], "store/file_kus.jsonl", shorten)
    assert checks.check_vectors(bad)

    def silence_k28(text):
        out = []
        for line in text.splitlines():
            rec = json.loads(line)
            if rec["vector"] is not None:
                rec["vector"][27] = 0
            out.append(json.dumps(rec))
        return "\n".join(out) + "\n"

    quiet = corrupt(tmp_path / "q", outputs[0], "store/file_kus.jsonl", silence_k28)
    assert checks.check_vectors(quiet) == []
    assert checks.check_vectors(quiet, all_kus=True)


def test_changed_byte_breaks_tree_identity(outputs, tmp_path):
    cold, _ = outputs
    changed = corrupt(tmp_path, cold, "cluster/summary.json", lambda text: text + " ")
    assert checks.check_same_tree(cold, changed)
