"""PR dataset ingestion, filtering, and chronological-split hygiene."""

from __future__ import annotations

import json
import random

import pytest

from kurev.errors import SchemaError, SplitError
from kurev.prstore import (
    PrDataset,
    chronological_split,
    filter_prs,
    load_prs,
    save_prs,
)
from tests.conftest import make_dataset, make_pr


def valid_record(**overrides) -> dict:
    record = {
        "id": 1,
        "opened_at": "2023-03-01T10:00:00Z",
        "state": "closed",
        "changed_files": ["src/App.java"],
        "reviewers": ["rev <r@x.com>"],
        "author": "dev <d@x.com>",
        "review_comments": [
            {
                "reviewer": "rev <r@x.com>",
                "path": "src/App.java",
                "commented_at": "2023-03-01T12:00:00Z",
            }
        ],
        "head_commit": None,
    }
    record.update(overrides)
    return record


def write_export(tmp_path, records):
    path = tmp_path / "prs.jsonl"
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    return path


def test_load_sorts_chronologically(tmp_path):
    records = [
        valid_record(id=2, opened_at="2023-03-05T00:00:00Z"),
        valid_record(id=1, opened_at="2023-03-01T10:00:00Z"),
        valid_record(id=3, opened_at="2023-03-01T10:00:00Z"),
    ]
    for r in records:
        r["review_comments"] = []
    ds = load_prs(write_export(tmp_path, records))
    assert [pr.id for pr in ds.prs] == [1, 3, 2]
    assert ds.project == "prs"


@pytest.mark.parametrize("missing", ["id", "opened_at", "state", "changed_files",
                                     "reviewers", "author"])
def test_missing_field_names_record_and_field(tmp_path, missing):
    record = valid_record()
    del record[missing]
    with pytest.raises(SchemaError) as err:
        load_prs(write_export(tmp_path, [valid_record(id=9), record]))
    assert err.value.record == 2
    assert err.value.field == missing


def test_invalid_values_rejected(tmp_path):
    with pytest.raises(SchemaError):
        load_prs(write_export(tmp_path, [valid_record(state="merged")]))
    with pytest.raises(SchemaError):
        load_prs(write_export(tmp_path, [valid_record(opened_at="yesterday")]))
    with pytest.raises(SchemaError):
        load_prs(write_export(tmp_path, [valid_record(id="abc")]))
    for head in (["c1"], 7):
        with pytest.raises(SchemaError) as err:
            load_prs(write_export(tmp_path, [valid_record(id=9),
                                             valid_record(head_commit=head)]))
        assert (err.value.record, err.value.field) == (2, "head_commit")
    early = valid_record()
    early["review_comments"][0]["commented_at"] = "2023-02-28T00:00:00Z"
    with pytest.raises(SchemaError) as err:
        load_prs(write_export(tmp_path, [early]))
    assert err.value.field == "review_comments"
    # identities are strings, never str(None); ids are integers or their text
    bad_values = [
        ("id", 1.7), ("id", True), ("id", float("inf")), ("author", None), ("author", 7),
        ("reviewers", [None]), ("changed_files", [None, 3]),
        ("review_comments", 5), ("review_comments", "ab"), ("review_comments", {"x": 1}),
    ]
    for field_name, value in bad_values:
        with pytest.raises(SchemaError) as err:
            load_prs(write_export(tmp_path, [valid_record(id=9),
                                             valid_record(**{field_name: value})]))
        assert (err.value.record, err.value.field) == (2, field_name), value
    for key, value in (("reviewer", None), ("path", ["a.java"])):
        record = valid_record()
        record["review_comments"][0][key] = value
        with pytest.raises(SchemaError) as err:
            load_prs(write_export(tmp_path, [record]))
        assert err.value.field == "review_comments", key
    assert [pr.id for pr in load_prs(write_export(tmp_path, [valid_record(id="5")])).prs] == [5]


def test_duplicate_id_rejected(tmp_path):
    with pytest.raises(SchemaError) as err:
        load_prs(write_export(tmp_path, [valid_record(), valid_record()]))
    assert "duplicate" in str(err.value)


def test_not_jsonl_rejected(tmp_path):
    path = tmp_path / "prs.jsonl"
    path.write_text("not json at all\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_prs(path)


def test_filter_drops_open_unreviewed_and_nonjava():
    keep = make_pr(1, "2023-01-01T00:00:00Z", "a", ["x.java"], reviewers=["r"])
    open_pr = make_pr(2, "2023-01-02T00:00:00Z", "a", ["x.java"],
                      reviewers=["r"], state="open")
    unreviewed = make_pr(3, "2023-01-03T00:00:00Z", "a", ["x.java"])
    no_java = make_pr(4, "2023-01-04T00:00:00Z", "a", ["readme.md"], reviewers=["r"])
    kept, eligible = filter_prs(make_dataset(keep, open_pr, unreviewed, no_java))
    assert [pr.id for pr in kept.prs] == [1]
    assert eligible is False


def test_eligibility_threshold_is_100():
    def many(n):
        return make_dataset(
            *(
                make_pr(i, f"2023-01-01T{i % 24:02d}:{i % 60:02d}:00Z", "a",
                        ["x.java"], reviewers=["r"])
                for i in range(1, n + 1)
            )
        )

    assert filter_prs(many(100))[1] is True
    assert filter_prs(many(99))[1] is False


def test_split_floor_sizes():
    def dataset(n):
        return make_dataset(
            *(
                make_pr(i, f"2023-01-{(i % 28) + 1:02d}T{i % 24:02d}:00:00Z",
                        "a", ["x.java"], reviewers=["r"])
                for i in range(1, n + 1)
            )
        )

    train, test = chronological_split(dataset(10))
    assert (len(train.prs), len(test.prs)) == (8, 2)
    train, test = chronological_split(dataset(101))
    assert (len(train.prs), len(test.prs)) == (80, 21)
    with pytest.raises(SplitError):
        chronological_split(dataset(4))


@pytest.mark.parametrize("fraction", [-0.5, 1.5, float("nan")])
def test_split_rejects_a_fraction_outside_the_unit_interval(fraction):
    ds = make_dataset(
        *(make_pr(i, f"2023-01-{i:02d}T00:00:00Z", "a", ["x.java"], reviewers=["r"])
          for i in range(1, 11))
    )
    with pytest.raises(SplitError, match="fraction"):
        chronological_split(ds, fraction)
    assert [len(part.prs) for part in chronological_split(ds, 0.0)] == [0, 10]
    assert [len(part.prs) for part in chronological_split(ds, 1.0)] == [10, 0]


def test_split_is_a_chronological_partition():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randrange(5, 60)
        ds = make_dataset(
            *(
                make_pr(i, f"2023-{rng.randrange(1, 13):02d}-"
                           f"{rng.randrange(1, 29):02d}T00:00:00Z",
                        "a", ["x.java"], reviewers=["r"])
                for i in range(1, n + 1)
            )
        )
        train, test = chronological_split(ds)
        assert train.prs + test.prs == ds.prs
        assert max(p.opened_at for p in train.prs) <= min(
            p.opened_at for p in test.prs
        )
        again = chronological_split(ds)
        assert again[0].prs == train.prs and again[1].prs == test.prs


def test_save_load_round_trip_is_deterministic(tmp_path):
    ds = make_dataset(
        make_pr(1, "2023-01-01T00:00:00Z", "a", ["x.java"], reviewers=["r"],
                comments=[("r", "x.java", "2023-01-01T05:00:00Z")]),
        make_pr(2, "2023-01-02T00:00:00Z", "b", ["y.java"], reviewers=["r", "s"]),
    )
    path = tmp_path / "out.jsonl"
    save_prs(ds, path)
    first = path.read_bytes()
    loaded = load_prs(path, project=ds.project)
    assert loaded.prs == ds.prs
    save_prs(loaded, path)
    assert path.read_bytes() == first
