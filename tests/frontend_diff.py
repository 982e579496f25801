"""Compare the Java front end of two source trees on the same inputs.

    python3 tests/frontend_diff.py PARENT_SRC CHANGE_SRC [--mutations N] [--seed S]

Each ``src/`` tree runs in its own subprocess: ``tokenize`` gives the
token stream, ``detector.iter_events`` the events and syntax errors, and
``detect_capabilities`` counts evidence. The inputs are the files of
``tests/fixtures/ku_corpus`` and ``perfbench/corpus`` plus N one-token
mutations of them (a token deleted, duplicated or swapped with the next
one), drawn with seed S. Every input
whose tokens (kind, text), nonzero capability counts or events (category,
keywords, name, qualified, with one ``error`` event per syntax error;
compared as a multiset) differ is printed with what differs.
The last line counts the differing inputs; the exit status is 1 when
there are any, as with diff(1).

Only the standard library is used, so the script runs against any tree
that has ``detector.iter_events``.
"""

from __future__ import annotations

import argparse
import difflib
import json
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPORA = ("tests/fixtures/ku_corpus", "perfbench/corpus")

# Java tokens, loosely: layout (whitespace and comments) is kept as it is
# and never mutated; literals and words are one token each.
_TOKEN = re.compile(
    r"""
      \s+ | //[^\n]* | /\*.*?(?:\*/|\Z)
    | "{3}.*?(?:"{3}|\Z) | "(?:[^"\\\n]|\\.)*"? | '(?:[^'\\\n]|\\.)*'?
    | [\w$]+ (?:\.\d[\w]*)?
    | >>>= | <<= | >>= | >>> | \.\.\. | -> | :: | && | \|\| | \+\+ | --
    | [-+*/%&|^!=<>]= | << | >>
    | .
    """,
    re.VERBOSE | re.DOTALL,
)


def corpus_inputs() -> list[tuple[str, str]]:
    return [
        (str(path.relative_to(ROOT)), path.read_text(encoding="utf-8"))
        for corpus in CORPORA
        for path in sorted((ROOT / corpus).glob("*.java"))
    ]


def mutations(corpus: list[tuple[str, str]], n: int, seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    out = []
    for i in range(n):
        label, source = rng.choice(corpus)
        tokens = _TOKEN.findall(source)
        movable = [k for k, t in enumerate(tokens)
                   if not (t.isspace() or t.startswith(("//", "/*")))]
        at = rng.randrange(len(movable))
        j = movable[at]
        op = rng.choice(("delete", "duplicate", "swap"))
        text = tokens[j]
        if op == "delete":
            tokens[j] = ""
        elif op == "duplicate":
            tokens[j] = f"{text} {text}"
        elif at + 1 < len(movable):
            k = movable[at + 1]
            tokens[j], tokens[k] = tokens[k], tokens[j]
        out.append((f"mutation {i}: {op} {text!r} (token {j}) of {label}", "".join(tokens)))
    return out


def inputs(n_mutations: int, seed: int) -> list[tuple[str, str]]:
    corpus = corpus_inputs()
    return corpus + mutations(corpus, n_mutations, seed)


def _front_end(source: str) -> dict:
    """What the front end makes of ``source``: tokens, capability counts
    and events, or the error each raised."""
    from kurev import detector
    from kurev.javaparse.lexer import tokenize

    result = {}
    try:
        result["tokens"] = [[kind, text] for kind, text in tokenize(source)]
    except Exception as exc:  # noqa: BLE001 - an error is an outcome to compare
        result["tokens"] = f"{type(exc).__name__}: {exc}"
    try:
        result["caps"] = {cap.label: n for cap, n in sorted(
            detector.detect_capabilities(source).items()) if n}
    except Exception as exc:  # noqa: BLE001 - an error is an outcome to compare
        result["caps"] = f"{type(exc).__name__}: {exc}"
    try:
        result["events"] = sorted(map(list, detector.iter_events(source)), key=json.dumps)
    except Exception as exc:  # noqa: BLE001
        result["events"] = f"{type(exc).__name__}: {exc}"
    return result


def run_worker(src: str, n_mutations: int, seed: int) -> None:
    """One JSON line per input, in ``inputs`` order, from the tree ``src``."""
    sys.path.insert(0, src)
    import kurev

    loaded = Path(kurev.__file__).resolve()
    if not loaded.is_relative_to(Path(src).resolve()):
        sys.exit(f"kurev loaded from {loaded}, not from {src}")
    for label, source in inputs(n_mutations, seed):
        print(json.dumps([label, _front_end(source)], sort_keys=True))


def _event_text(event: str) -> str:
    category, keywords, name, qualified = json.loads(event)
    return f"{category} {{{', '.join(keywords)}}} {name} {qualified}"


def _token_text(tokens: list) -> str:
    return " ".join(f"{kind} {text!r}" for kind, text in tokens) or "nothing"


def describe(parent: dict, change: dict) -> list[str]:
    lines = []
    a, b = parent["tokens"], change["tokens"]
    if a != b:
        if isinstance(a, str) or isinstance(b, str):
            lines.append(f"  tokens: {a if isinstance(a, str) else len(a)} -> "
                         f"{b if isinstance(b, str) else len(b)}")
        else:
            matcher = difflib.SequenceMatcher(
                None, list(map(tuple, a)), list(map(tuple, b)), autojunk=False)
            for tag, i1, i2, j1, j2 in matcher.get_opcodes():
                if tag != "equal":
                    lines.append(f"  token {i1}: {_token_text(a[i1:i2])} -> "
                                 f"{_token_text(b[j1:j2])}")
    a, b = parent["caps"], change["caps"]
    if a != b:
        if isinstance(a, str) or isinstance(b, str):
            lines.append(f"  capabilities: {a} -> {b}")
        else:
            lines.append("  capabilities: " + "; ".join(
                f"{cap} {a.get(cap, 0)} -> {b.get(cap, 0)}"
                for cap in sorted(set(a) | set(b)) if a.get(cap) != b.get(cap)))
    a, b = parent["events"], change["events"]
    if a != b:
        if isinstance(a, str) or isinstance(b, str):
            lines.append(f"  events: {a if isinstance(a, str) else len(a)} -> "
                         f"{b if isinstance(b, str) else len(b)}")
        else:
            ca, cb = Counter(map(json.dumps, a)), Counter(map(json.dumps, b))
            for sign, diff in (("-", ca - cb), ("+", cb - ca)):
                for event, n in sorted(diff.items()):
                    lines.append(f"  {sign} {_event_text(event)}" + (f" x{n}" if n > 1 else ""))
    return lines


def compare(parent_src: str, change_src: str, n_mutations: int, seed: int) -> int:
    """Print the inputs on which the two trees differ; returns how many."""
    def start(src: str) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, __file__, "--worker", src,
             "--mutations", str(n_mutations), "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, encoding="utf-8")

    workers = [start(parent_src), start(change_src)]
    total = differ = 0
    # Both workers write the inputs in one order, so reading them in
    # lockstep keeps one line of each in memory.
    for line_a, line_b in zip(workers[0].stdout, workers[1].stdout):
        total += 1
        if line_a == line_b:
            continue
        (label, a), (label_b, b) = json.loads(line_a), json.loads(line_b)
        assert label == label_b, (label, label_b)
        differ += 1
        print(label)
        print("\n".join(describe(a, b)))
    for worker in workers:
        if worker.wait() != 0:
            sys.exit(f"a worker failed with status {worker.returncode}")
    print(f"{differ} of {total} inputs differ "
          f"({n_mutations} mutations, seed {seed})")
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("srcs", nargs="*", metavar="SRC",
                        help="the parent's and the change's src/ directories")
    parser.add_argument("--mutations", type=int, default=0,
                        help="one-token mutations to add to the corpus files")
    parser.add_argument("--seed", type=int, default=20)
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        run_worker(args.worker, args.mutations, args.seed)
        return 0
    if len(args.srcs) != 2:
        parser.error("give two src/ directories: PARENT_SRC CHANGE_SRC")
    return 1 if compare(*args.srcs, args.mutations, args.seed) else 0


if __name__ == "__main__":
    sys.exit(main())
