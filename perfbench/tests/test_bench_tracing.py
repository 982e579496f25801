"""Hooks: spans and self time, restore on uninstall, missing targets."""

import logging
import sys
import types

import pytest

from tracing import HOOKS, CountingHandler, Hook, Tracer, layer_metrics


@pytest.fixture
def fake_module():
    mod = types.ModuleType("fake_layers")

    def leaf(x):
        return [x] * 3

    def outer(x):
        return len(mod.leaf(x)) + len(mod.leaf(x))

    class Model:
        def run(self, x):
            return mod.outer(x)

    mod.leaf, mod.outer, mod.Model = leaf, outer, Model
    sys.modules["fake_layers"] = mod
    yield mod
    del sys.modules["fake_layers"]


def test_spans_nest_and_uninstall_restores(fake_module):
    original = fake_module.outer
    tracer = Tracer()
    tracer.install(
        [
            Hook("fake_layers", "outer", "fake.outer"),
            Hook("fake_layers", "leaf", "fake.leaf", after=lambda t, r: None),
            Hook("fake_layers", "Model.run", "fake.run"),
        ]
    )
    assert fake_module.Model().run(1) == 6
    metrics = tracer.summarize()
    tracer.uninstall()

    assert fake_module.outer is original
    assert metrics["fake.leaf.calls"] == 2
    assert metrics["fake.outer.calls"] == 1
    assert metrics["fake.run.calls"] == 1
    # self time excludes the children's time
    assert metrics["fake.outer.self_s"] == pytest.approx(
        metrics["fake.outer.s"] - metrics["fake.leaf.s"]
    )
    assert tracer.spans == []


def test_missing_target_is_reported_and_not_fatal(fake_module):
    tracer = Tracer()
    tracer.install(
        [
            Hook("fake_layers", "gone", "fake.gone"),
            Hook("no_such_module_anywhere", "f", "fake.nomod"),
            Hook("fake_layers", "Model.gone", "fake.gone_method"),
            Hook("fake_layers", "leaf", "fake.leaf"),
        ]
    )
    assert tracer.missing == [
        "fake_layers.gone",
        "no_such_module_anywhere.f",
        "fake_layers.Model.gone",
    ]
    assert fake_module.outer(2) == 6
    metrics = tracer.summarize()
    tracer.uninstall()
    assert metrics["fake.leaf.calls"] == 2
    assert not any(key.startswith("fake.gone") for key in metrics)


def test_real_hooks_with_one_target_gone_mark_metrics_absent():
    """As if a later change removed the function mining calls to detect KUs."""
    gone = Hook("kurev.mining", "detect_kus_removed", "detector.detect_kus")
    hooks = [gone if h.span == "detector.detect_kus" else h for h in HOOKS]
    tracer = Tracer()
    tracer.install(hooks)
    try:
        assert tracer.missing == ["kurev.mining.detect_kus_removed"]
        metrics = layer_metrics(tracer.summarize(), tracer, CountingHandler().counts)
    finally:
        tracer.uninstall()
    for key in ("detector.kloc_per_s", "mining.cache_misses", "mining.cache_hits",
                "mining.cache_hit_ratio", "detector.match.self_s"):
        assert key not in metrics
    assert metrics["mining.read_file_at.calls"] == 0
    assert metrics["clustering.select_k.s"] == 0.0


def test_every_real_hook_resolves_at_this_commit():
    tracer = Tracer()
    tracer.install(HOOKS)
    tracer.uninstall()
    assert tracer.missing == []


def test_counting_handler_counts_warnings_per_logger():
    handler = CountingHandler()
    log = logging.getLogger("kurev.bench_probe")
    log.addHandler(handler)
    try:
        log.warning("one")
        log.warning("two")
        log.info("not counted")
    finally:
        log.removeHandler(handler)
    assert handler.counts["kurev.bench_probe"] == 2
