"""Shared helpers: atomic JSONL writes."""

from __future__ import annotations

import pytest

from kurev.util import read_jsonl, write_jsonl


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
