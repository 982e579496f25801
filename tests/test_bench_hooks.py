"""The benchmark's per-layer hooks still find the functions they wrap.

``perfbench/tracing.py`` patches functions of the program by module and
name. A refactor that moves or renames one of them silently turns its
metrics into absent ones, so every hook must resolve at every commit.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_benchmark_hook_resolves():
    tracing = load_tracing()
    targets = {f"{h.module}.{h.target}" for h in tracing.HOOKS}
    assert {
        "kurev.javaparse.parser.tokenize",
        "kurev.detector.parse_java",
        "kurev.mining.detect_kus",
    } <= targets
    tracer = tracing.Tracer()
    tracer.install(tracing.HOOKS)
    tracer.uninstall()
    assert tracer.missing == []
