"""The front-end diff script: silent on equal trees, specific on others."""

import shutil
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent / "frontend_diff.py"
SRC = Path(__file__).parents[1] / "src"


def run(parent, change, *extra):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change), *extra],
        capture_output=True, text=True, check=False,
    )


def test_one_tree_against_itself_differs_nowhere():
    done = run(SRC, SRC, "--mutations", "20", "--seed", "3")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 of 76 inputs differ (20 mutations, seed 3)\n"


def test_a_changed_rule_shows_in_the_files_it_counts(tmp_path):
    change = tmp_path / "src"
    shutil.copytree(SRC, change, ignore=shutil.ignore_patterns("__pycache__"))
    yaml_path = change / "kurev" / "data" / "ku_catalog.yaml"
    text = yaml_path.read_text(encoding="utf-8")
    lambda_pattern = "      - {node_kind: expression, keyword: lambda}\n"
    assert text.count(lambda_pattern) == 1
    yaml_path.write_text(text.replace(lambda_pattern, ""), encoding="utf-8")
    done = run(SRC, change)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert "tests/fixtures/ku_corpus/K09.java" in lines
    assert any(line.startswith("  capabilities: [K10,C1] ") for line in lines)
    assert lines[-1].endswith("of 56 inputs differ (0 mutations, seed 20)")


def test_a_changed_token_rule_shows_as_a_token_diff(tmp_path):
    change = tmp_path / "src"
    shutil.copytree(SRC, change, ignore=shutil.ignore_patterns("__pycache__"))
    lexer_path = change / "kurev" / "javaparse" / "lexer.py"
    text = lexer_path.read_text(encoding="utf-8")
    assert text.count(" assert ") == 1
    # without it in the keyword list, `assert` lexes as an identifier
    lexer_path.write_text(text.replace(" assert ", " "), encoding="utf-8")
    done = run(SRC, change)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert "tests/fixtures/ku_corpus/K11.java" in lines
    token_diff = ": keyword 'assert' -> identifier 'assert'"
    assert any(line.startswith("  token ") and line.endswith(token_diff) for line in lines)
