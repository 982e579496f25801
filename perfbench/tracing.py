"""Per-layer spans and counters, recorded from outside the program.

A :class:`Hook` names one function or method where its caller looks it up
(``kurev.mining`` + ``detect_kus`` wraps the ``detect_kus`` that mining
calls, not the one in ``kurev.detector``). :meth:`Tracer.install` swaps in
a wrapper that records a span (name, start, end, parent) or only counts
calls; :meth:`Tracer.uninstall` puts the originals back. A hook whose
target no longer exists is listed in ``Tracer.missing`` and the metrics it
feeds are reported absent; nothing else changes.

Spans stay in memory until :meth:`Tracer.summarize` folds them into
metrics. Time spent in hook callbacks (counting tokens, walking a parse
tree) is subtracted from every enclosing span, so it shows only in the
traced run's total, i.e. in the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Hook:
    module: str
    target: str  # "function" or "Class.method"
    span: str  # metric prefix, e.g. "detector.detect_kus"
    timed: bool = True  # False: count calls only, for per-element helpers
    before: Callable | None = None  # (tracer, args, kwargs)
    after: Callable | None = None  # (tracer, result)
    failed: Callable | None = None  # (tracer, exception)


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at top level
    start: float = 0.0
    end: float = 0.0
    excluded: float = 0.0  # callback time inside this span

    @property
    def duration(self) -> float:
        return self.end - self.start - self.excluded


def _resolve(hook: Hook):
    """(owner, attribute, raw value) for a hook's target, or None if gone."""
    try:
        owner = importlib.import_module(hook.module)
        *path, attr = hook.target.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, vars(owner)[attr]
    except (ImportError, AttributeError, KeyError, TypeError):
        return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.missing: list[str] = []
        self.callback_errors: Counter = Counter()
        self._stack: list[int] = []
        self._excluded = 0.0
        self._installed: list[tuple[object, str, object]] = []
        self._hooked: set[str] = set()

    # --- installation -----------------------------------------------------

    def install(self, hooks) -> None:
        self.missing = []
        for hook in hooks:
            found = _resolve(hook)
            if found is None:
                self.missing.append(f"{hook.module}.{hook.target}")
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(hook, raw.__func__))
            elif callable(raw):
                wrapped = self._wrap(hook, raw)
            else:
                self.missing.append(f"{hook.module}.{hook.target}")
                continue
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))
            self._hooked.add(hook.span)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def hooked(self, span: str) -> bool:
        """Whether at least one hook feeding ``span`` was installed."""
        return span in self._hooked

    # --- recording ----------------------------------------------------------

    def _callback(self, fn: Callable, name: str, *args) -> None:
        t0 = perf_counter()
        try:
            fn(self, *args)
        except Exception:  # a changed return type must not break the run
            self.callback_errors[name] += 1
        finally:
            self._excluded += perf_counter() - t0

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        tracer = self
        name = hook.span

        if not hook.timed:

            @functools.wraps(original)
            def counted(*args, **kwargs):
                tracer.counts[name + ".calls"] += 1
                result = original(*args, **kwargs)
                if hook.after is not None:
                    tracer._callback(hook.after, name, result)
                return result

            return counted

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if hook.before is not None:
                tracer._callback(hook.before, name, args, kwargs)
            span = tracer._open_span(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer._close_span(span)
                if hook.failed is not None:
                    tracer._callback(hook.failed, name, exc)
                raise
            tracer._close_span(span)
            if hook.after is not None:
                tracer._callback(hook.after, name, result)
            return result

        return traced

    def _open_span(self, name: str) -> Span:
        span = Span(
            name=name,
            parent=self._stack[-1] if self._stack else -1,
            excluded=self._excluded,
        )
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close_span(self, span: Span) -> None:
        span.end = perf_counter()
        span.excluded = self._excluded - span.excluded
        self._stack.pop()

    # --- results --------------------------------------------------------------

    def summarize(self) -> dict[str, float]:
        """Fold the recorded spans into metrics, then forget them.

        Per span name: ``.s`` (summed duration),
        ``.calls``, ``.self_s`` (duration minus child spans) and
        ``.p50_ms``/``.p90_ms`` per call; plus every counter and gauge.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        durations: dict[str, list[float]] = defaultdict(list)
        out: dict[str, float] = {}
        for name in self._hooked:  # installed but never called: zero
            for suffix in (".s", ".self_s", ".p50_ms", ".p90_ms"):
                out[name + suffix] = 0.0
            out[name + ".calls"] = 0
        for i, span in enumerate(self.spans):
            durations[span.name].append(span.duration)
            out[span.name + ".s"] += span.duration
            out[span.name + ".self_s"] += span.duration - child[i]
        for name, values in durations.items():
            values.sort()
            out[name + ".calls"] = len(values)
            out[name + ".p50_ms"] = 1000 * percentile(values, 50)
            out[name + ".p90_ms"] = 1000 * percentile(values, 90)
        out.update(self.counts)
        out.update(self.gauges)
        self.spans.clear()
        self.counts.clear()
        self.gauges.clear()
        return dict(out)


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class CountingHandler(logging.Handler):
    """Counts warning records per logger, so warning volume is a metric."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.name] += 1


# --- the hooks of this repository's layers -------------------------------------


def _count(key: str, fn: Callable) -> Callable:
    def callback(tracer: Tracer, value) -> None:
        tracer.counts[key] += fn(value)

    return callback


def _gauge(key: str, fn: Callable) -> Callable:
    def callback(tracer: Tracer, value) -> None:
        tracer.gauges[key] = fn(value)

    return callback


def _source_lines(tracer: Tracer, args, kwargs) -> None:
    source = args[0] if args else kwargs["source"]
    tracer.counts["detector.lines"] += source.count("\n") + 1


def _parse_failure(tracer: Tracer, exc: Exception) -> None:
    if type(exc).__name__ == "ParseError":
        tracer.counts["mining.unparseable"] += 1


HOOKS: tuple[Hook, ...] = (
    # javaparse
    Hook("kurev.javaparse.parser", "tokenize", "javaparse.tokenize",
         after=_count("javaparse.tokens", len)),
    Hook("kurev.detector", "parse_java", "javaparse.parse",
         after=_count("javaparse.error_nodes",
                      lambda tree: sum(n.kind == "error" for n in tree.walk()))),
    # detector
    Hook("kurev.mining", "detect_kus", "detector.detect_kus",
         before=_source_lines, failed=_parse_failure),
    # catalog, wherever it is loaded from
    *(
        Hook(module, "load_catalog", "catalog.load_catalog")
        for module in ("kurev.pipeline", "kurev.mining", "kurev.detector")
    ),
    # mining
    Hook("kurev.mining", "mine_commits", "mining.mine_commits"),
    Hook("kurev.mining", "read_file_at", "mining.read_file_at"),
    Hook("kurev.pipeline", "build_ku_store", "mining.build_ku_store",
         after=_count("mining.records", lambda store: len(store.vectors))),
    Hook("kurev.mining", "KuStore.save", "mining.KuStore.save"),
    Hook("kurev.mining", "KuStore.load", "mining.KuStore.load"),
    # prstore
    Hook("kurev.pipeline", "load_prs", "prstore.load_prs"),
    Hook("kurev.pipeline", "filter_prs", "prstore.filter_prs"),
    # profiles: looked up by the recommenders and by the profile functions
    *(
        Hook(module, "dev_exp_matrix", "profiles.dev_exp_matrix")
        for module in ("kurev.recommenders", "kurev.profiles")
    ),
    Hook("kurev.recommenders", "rev_exp_matrix", "profiles.rev_exp_matrix"),
    *(
        Hook(module, "pr_ku_vector", "profiles.pr_ku_vector")
        for module in ("kurev.recommenders", "kurev.profiles")
    ),
    Hook("kurev.profiles", "resolve_pr_file_vector",
         "profiles.resolve_pr_file_vector", timed=False),
    Hook("kurev.pipeline", "global_ku_profiles", "profiles.global_ku_profiles"),
    # recommenders
    *(
        Hook("kurev.recommenders", f"{cls}Recommender.recommend", f"recommenders.{kind}")
        for kind, cls in (("kurec", "Kurec"), ("cf", "Cf"), ("rf", "Rf"),
                          ("er", "Er"), ("chrev", "Chrev"))
    ),
    Hook("kurev.pipeline", "safe_recommend", "recommenders.safe_recommend", timed=False,
         after=_count("recommenders.empty", lambda rec: not rec.ranked)),
    # adaptive and evaluation
    Hook("kurev.adaptive", "AdaptiveRecommender.replay", "adaptive.replay"),
    Hook("kurev.pipeline", "reasonableness", "evaluation.reasonableness"),
    # the evaluate and cluster stages
    Hook("kurev.pipeline", "evaluate_project", "pipeline.evaluate_project"),
    Hook("kurev.pipeline", "run_clustering", "pipeline.run_clustering"),
    # clustering
    Hook("kurev.pipeline", "pca_reduce", "clustering.pca_reduce",
         after=_gauge("clustering.dims", lambda reduced: reduced.shape[1])),
    Hook("kurev.pipeline", "select_k", "clustering.select_k",
         after=_gauge("clustering.k_chosen", lambda result: result.k)),
    Hook("kurev.clustering", "KMeans.fit", "clustering.KMeans.fit"),
    Hook("kurev.clustering", "median_silhouette", "clustering.median_silhouette"),
    Hook("kurev.pipeline", "diff_values", "clustering.diff_values"),
)


def layer_metrics(raw: dict[str, float], tracer: Tracer, warnings: Counter) -> dict:
    """Per-layer metrics of one traced iteration, named as in BENCHMARK.json.

    A metric whose hooks are all missing is left out (reported absent).
    """
    out = dict(raw)

    def derive(key: str, needs: tuple[str, ...], fn: Callable) -> None:
        out.pop(key, None)
        if all(tracer.hooked(span) for span in needs):
            out[key] = fn()

    detect_s = raw.get("detector.detect_kus.s", 0.0)
    misses = raw.get("detector.detect_kus.calls", 0)
    records = raw.get("mining.records", 0)
    derive("detector.match.self_s", ("detector.detect_kus", "javaparse.parse"),
           lambda: raw.get("detector.detect_kus.self_s", 0.0))
    derive("detector.kloc_per_s", ("detector.detect_kus",),
           lambda: raw.get("detector.lines", 0) / 1000 / detect_s if detect_s else 0.0)
    derive("mining.cache_misses", ("detector.detect_kus",), lambda: misses)
    derive("mining.cache_hits", ("detector.detect_kus", "mining.build_ku_store"),
           lambda: records - misses)
    derive("mining.cache_hit_ratio", ("detector.detect_kus", "mining.build_ku_store"),
           lambda: (records - misses) / records if records else 0.0)
    derive("mining.unparseable", ("detector.detect_kus",),
           lambda: raw.get("mining.unparseable", 0))
    for key, span in (
        ("javaparse.tokens", "javaparse.tokenize"),
        ("javaparse.error_nodes", "javaparse.parse"),
        ("recommenders.empty", "recommenders.safe_recommend"),
        ("clustering.k_chosen", "clustering.select_k"),
        ("clustering.dims", "clustering.pca_reduce"),
    ):
        derive(key, (span,), lambda key=key: raw.get(key, 0))
    for logger in ("mining", "profiles"):
        out[f"{logger}.warnings"] = warnings.get(f"kurev.{logger}", 0)
    return out
