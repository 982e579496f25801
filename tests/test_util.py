"""Shared helpers: atomic writes."""

from __future__ import annotations

import pytest

from kurev.catalog import KU_COUNT
from kurev.profiles import Expertise, save_matrix
from kurev.util import read_jsonl, write_jsonl, write_text


def test_write_jsonl_round_trip_and_replace(tmp_path):
    path = tmp_path / "sub" / "data.jsonl"
    write_jsonl(path, [{"b": 1, "a": 2}, [3]])
    assert path.read_text(encoding="utf-8") == '{"a":2,"b":1}\n[3]\n'
    write_jsonl(path, [{"x": 1}])
    assert read_jsonl(path) == [{"x": 1}]
    assert [p.name for p in path.parent.iterdir()] == ["data.jsonl"]


def test_failed_write_leaves_old_file_untouched(tmp_path):
    path = tmp_path / "cache.jsonl"
    write_jsonl(path, [{"n": n} for n in range(5)])
    before = path.read_bytes()

    def records():
        yield {"n": 0}
        yield {"n": 1}
        raise RuntimeError("crash halfway")

    with pytest.raises(RuntimeError, match="crash halfway"):
        write_jsonl(path, records())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]


def test_write_text_creates_directory_and_replaces(tmp_path):
    path = tmp_path / "a" / "b" / "report.tsv"
    write_text(path, "one\n")
    write_text(path, "two\n")
    assert path.read_text(encoding="utf-8") == "two\n"
    assert [p.name for p in path.parent.iterdir()] == ["report.tsv"]


def test_failed_matrix_write_leaves_old_file_untouched(tmp_path):
    path = tmp_path / "p_ku.tsv"
    row = ((1,) * KU_COUNT, (None,) * KU_COUNT)
    totals = (2,) * KU_COUNT
    save_matrix(Expertise("development", None, {"a": row, "b": row}, totals), path)
    before = path.read_bytes()
    # the lone surrogate cannot be encoded, so the write fails on the second row
    bad = Expertise("development", None, {"a": row, "bad\ud800": row}, totals)
    with pytest.raises(UnicodeEncodeError):
        save_matrix(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["p_ku.tsv"]
