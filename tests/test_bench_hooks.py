"""The benchmark's per-layer hooks still find the functions they wrap.

``perfbench/tracing.py`` patches functions of the program by module and
name. A refactor that moves or renames one of them silently turns its
metrics into absent ones, so every hook must resolve at every commit.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from kurev import detector, mining, pipeline, recommenders
from kurev.javaparse import parser
from kurev.profiles import AsOf
from kurev.recommenders import KIND_ORDER

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


def test_hooked_names_see_one_call_per_missed_blob(scratch_repo, monkeypatch, tmp_path):
    # The hooks replace module attributes; a caller that bound one of these
    # names elsewhere (a default argument, a local alias) would bypass the
    # wrapper and the javaparse.* and detector.* metrics would read zero.
    calls: Counter = Counter()

    def count_calls(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count_calls(parser, "tokenize")
    count_calls(detector, "parse_java")
    count_calls(mining, "detect_kus")

    repo = scratch_repo
    repo.write("a.java", "class A { void f() { for (;;) {} } }\n")
    repo.write("b.java", "class B { int[] xs = new int[2]; }\n")
    repo.commit("add a and b")
    repo.write("a.java", "class A { void f() { while (true) {} } }\n")
    repo.delete("b.java")
    repo.commit("change a, delete b")
    repo.write("b.java", "class B { int[] xs = new int[2]; }\n")
    repo.commit("restore b")  # the same blob as before: a cache hit

    cache = tmp_path / "cache.jsonl"
    store = mining.build_ku_store(repo.root, cache_path=cache)
    blobs = {b for c in store.commits for b in c.blob_ids if b.strip("0")}
    assert len(blobs) == 3 and len(store.vectors) == 5
    assert calls == {"tokenize": 3, "parse_java": 3, "detect_kus": 3}

    calls.clear()
    mining.build_ku_store(repo.root, cache_path=cache)  # every blob now hits
    assert calls == Counter()


RECOMMENDER_CLASSES = {
    "kurec": "KurecRecommender", "cf": "CfRecommender", "rf": "RfRecommender",
    "er": "ErRecommender", "chrev": "ChrevRecommender",
}


def test_hooked_names_see_every_evaluation_call(synthetic_project, monkeypatch):
    # An evaluation that scored through an inlined fast path instead of these
    # names would bypass the wrappers, and the recommenders.* and
    # evaluation.reasonableness.* metrics would read zero.
    targets = {f"{h.module}.{h.target}" for h in load_tracing().HOOKS}
    hooked = [(recommenders, f"{cls}.recommend") for cls in RECOMMENDER_CLASSES.values()]
    hooked += [(pipeline, "safe_recommend"), (pipeline, "reasonableness")]
    assert {f"{owner.__name__}.{name}" for owner, name in hooked} <= targets

    test_prs = synthetic_project["test"].prs
    fresh = AsOf(synthetic_project["store"], synthetic_project["dataset"].prs)
    base = pipeline.run_base_recommenders(fresh, list(test_prs))
    picks = {(pr_id, rec.ranked[0][0])
             for recs in base.values() for pr_id, rec in recs.items() if rec.ranked}

    calls: Counter = Counter()
    judged: Counter = Counter()
    for kind, cls in RECOMMENDER_CLASSES.items():
        original = getattr(recommenders, cls).recommend

        def counted(self, pr, k=None, kind=kind, original=original):
            calls[kind] += 1
            return original(self, pr, k=k)

        monkeypatch.setattr(getattr(recommenders, cls), "recommend", counted)
    safe_recommend, reasonableness = pipeline.safe_recommend, pipeline.reasonableness

    def counted_safe(rec, pr, k=None):
        calls["safe_recommend"] += 1
        return safe_recommend(rec, pr, k=k)

    def counted_judge(pr, top1, commits, prior_prs):
        judged[pr.id, top1] += 1
        return reasonableness(pr, top1, commits, prior_prs)

    monkeypatch.setattr(pipeline, "safe_recommend", counted_safe)
    monkeypatch.setattr(pipeline, "reasonableness", counted_judge)
    asof = AsOf(synthetic_project["store"], synthetic_project["dataset"].prs)
    pipeline.evaluate_project(asof, synthetic_project["test"])
    n = len(test_prs)
    assert calls == {**dict.fromkeys(KIND_ORDER, n), "safe_recommend": 5 * n}
    assert judged == Counter(dict.fromkeys(picks, 1))
