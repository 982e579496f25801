"""End-to-end pipeline: mine → prs → profiles → evaluate → cluster.

Stages are pure functions of (inputs, config, seed). A stage is skipped
while its stamp file holds a content hash of its inputs and every file it
writes exists, so reruns are cheap and byte-identical.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path

import yaml

from .adaptive import VARIANTS, AdaptiveRecommender, best_performers
from .catalog import KU_COUNT, load_catalog
from .clustering import DegenerateDataError, diff_values, gini, pca_reduce, select_k
from .detector import detection_key
from .errors import KurevError
from .evaluation import (
    K_MAX,
    SIX_MONTHS,
    EvalReport,
    base_scores,
    mean_scores,
    reasonableness,
)
from .mining import KuStore, _git, build_ku_store
from .prstore import (
    PrDataset,
    chronological_split,
    filter_prs,
    load_prs,
    save_prs,
)
from .profiles import AsOf, Expertise, global_ku_profiles, save_matrix
from .recommenders import KIND_ORDER, RF_MODES, Recommendation, base_recommenders
# perfbench/tracing.py hooks safe_recommend by this module's name (test_bench_hooks.py)
from .recommenders import safe_recommend
from .util import dump_json_line, sha256_bytes, sha256_text, write_text

log = logging.getLogger(__name__)

ALL_KINDS = KIND_ORDER + tuple(f"ad_{v}" for v in VARIANTS)
# config keys holding paths, relative to the config file's directory
_PATH_FIELDS = ("repo", "prs", "out_dir", "catalog", "cache_dir")
# YAML types each other field accepts, by the type of its default; a YAML
# bool is accepted by bool fields only
_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def check_train_fraction(value: float, name: str = "train_fraction") -> None:
    """A train fraction must leave at least one PR to test (NaN fails too)."""
    if not 0 <= value < 1:
        raise KurevError(f"{name} must be in [0, 1), not {value!r}")


def check_k_max(value: int, name: str = "k_max") -> None:
    """K selection tries every K in 2..k_max, so it needs at least one."""
    if value < 2:
        raise KurevError(f"{name} must be at least 2, not {value!r}")


@dataclass(frozen=True)
class ProjectConfig:
    repo: Path
    prs: Path
    out_dir: Path
    catalog: Path | None = None
    cache_dir: Path | None = None
    seed: int = 0
    rf_mode: str = "prs"
    all_commits: bool = False
    train_fraction: float = 0.8
    k_max: int = 100

    @classmethod
    def from_file(cls, path: str | Path) -> "ProjectConfig":
        try:
            doc = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
        except yaml.YAMLError as exc:
            raise KurevError(f"config {path} is not valid YAML: {exc}") from exc
        if not isinstance(doc, dict) or "repo" not in doc or "prs" not in doc:
            raise KurevError(f"config {path} must define 'repo' and 'prs'")
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = sorted(str(key) for key in doc if key not in defaults)
        if unknown:
            raise KurevError(f"config {path} has unknown keys: {', '.join(unknown)}")
        base = Path(path).parent
        values = {"out_dir": base / "out"}
        for key, raw in doc.items():
            if raw is None:
                raise KurevError(f"config {path}: '{key}' has no value")
            bad = KurevError(f"config {path}: bad value for '{key}': {raw!r}")
            if key in _PATH_FIELDS:
                try:
                    values[key] = (base / raw).resolve()
                except (TypeError, ValueError) as exc:
                    raise bad from exc
                continue
            kind = type(defaults[key])
            if isinstance(raw, bool) != (kind is bool) or not isinstance(raw, _ACCEPTS[kind]):
                raise bad
            values[key] = kind(raw)
        return cls(**values)

    def validate(self) -> None:
        if self.rf_mode not in RF_MODES:
            modes = ", ".join(RF_MODES)
            raise KurevError(f"rf_mode must be one of {modes}, not {self.rf_mode!r}")
        check_train_fraction(self.train_fraction)
        check_k_max(self.k_max)
        if not self.repo.exists():
            raise KurevError(f"repository path missing: {self.repo}")
        if not self.prs.exists():
            raise KurevError(f"PR export missing: {self.prs}")
        if self.catalog is not None and not self.catalog.exists():
            raise KurevError(f"catalog file missing: {self.catalog}")


# --- evaluation driver -------------------------------------------------------


def run_base_recommenders(
    asof: AsOf, test_prs: list, rf_mode: str = "prs", k: int | None = None
) -> dict[str, dict[int, Recommendation]]:
    """Each base kind's ranking of each test PR, its first ``k`` entries (all if None)."""
    return {
        kind: {pr.id: safe_recommend(model, pr, k=k) for pr in test_prs}
        for kind, model in base_recommenders(asof, rf_mode).items()
    }


def evaluate_project(
    asof: AsOf,
    test: PrDataset,
    seed: int = 0,
    rf_mode: str = "prs",
) -> EvalReport:
    """Score the five base and three adaptive recommenders on the test set.

    Each base recommendation is scored (``base_scores``), and one
    date-ordered pass over the test PRs judges each distinct top-1 pick
    once, so the sweeps behind the verdicts are walked once. The winner
    sequence reads the scores; each adaptive step takes its delegate's
    score and verdict. Scores read ranks 1..K_MAX and verdicts rank 1, so
    each base ranking keeps only its first K_MAX entries.
    """
    test_prs = list(test.prs)
    base = run_base_recommenders(asof, test_prs, rf_mode=rf_mode, k=K_MAX)
    scores = base_scores(base, test_prs)
    # per kind and test PR: the top-1 pick's verdict, None when there is none
    verdicts: dict[str, list[bool | None]] = {kind: [] for kind in KIND_ORDER}
    for pr in test_prs:
        judged: dict[str, bool | None] = {}  # kinds often share a top-1 developer
        for kind in KIND_ORDER:
            top = base[kind][pr.id].top(1)
            if top and top[0] not in judged:
                # the developer's latest touch of each changed file, if in
                # the window, decides the verdict as their whole window would
                commits, own_prs = asof.recent_touches(
                    top[0], pr.changed_files, pr.opened_at - SIX_MONTHS, pr.opened_at
                )
                judged[top[0]] = reasonableness(pr, top[0], commits, own_prs)
            verdicts[kind].append(judged[top[0]] if top else None)
    winners = best_performers(scores)  # shared by the three variants
    for variant in VARIANTS:
        steps = AdaptiveRecommender(variant, seed=seed).replay(test_prs, base, winners)
        kind = f"ad_{variant}"
        # a step's ranking is its delegate's, so it scores and is judged the same
        scores[kind] = [scores[s.delegate][i] for i, s in enumerate(steps)]
        verdicts[kind] = [verdicts[s.delegate][i] for i, s in enumerate(steps)]
    asof.warn_unresolved()

    report = EvalReport(project=test.project, pr_count=len(test_prs))
    for kind in ALL_KINDS:
        accuracy, mean_ap = mean_scores(scores[kind])
        for k in range(1, K_MAX + 1):
            report.accuracy[(kind, k)] = accuracy[k - 1]
            report.mean_ap[(kind, k)] = mean_ap[k - 1]
        applicable = [v for v in verdicts[kind] if v is not None]
        report.reasonable_pct[kind] = (
            100.0 * sum(applicable) / len(applicable) if applicable else 0.0
        )
    return report


# --- clustering outputs ------------------------------------------------------

CLUSTER_FILES = ("labels.tsv", "silhouette_curve.tsv", "summary.json", "diff_values.tsv")


def run_clustering(profiles: Expertise, out_dir: Path, k_max: int, seed: int) -> None:
    """Cluster the developers of P_ku (``global_ku_profiles``) into ``out_dir``."""
    developers = sorted(profiles.rows)
    if len(developers) < 2:
        raise DegenerateDataError("need at least 2 developers to cluster")
    # numpy is loaded by now (through .clustering); importing it at the top
    # instead would load it before the Java front end's modules, and that
    # import order alone raises a run's peak RSS by about 1 MB
    import numpy as np

    p_ku = np.array(
        [[profiles.ratio(dev, k) for k in range(KU_COUNT)] for dev in developers]
    )
    result = select_k(pca_reduce(p_ku, 0.95), k_max=k_max, seed=seed)
    sizes = np.bincount(result.labels, minlength=result.k).tolist()
    summary = {
        "k": result.k,
        "median_silhouette": round(result.median_silhouette, 6),
        "qualified": result.qualified,
        "gini": round(gini(sizes), 6),
        "sizes": sizes,
    }
    labels_path, curve_path, summary_path, diffs_path = (out_dir / n for n in CLUSTER_FILES)
    labels = [f"{dev}\t{int(c)}" for dev, c in zip(developers, result.labels)]
    _write_lines(labels_path, ["developer\tcluster", *labels])
    curve = [f"{k}\t{sil:.6f}" for k, sil in result.curve]
    _write_lines(curve_path, ["k\tmedian_silhouette", *curve])
    write_text(summary_path, dump_json_line(summary) + "\n")
    diffs = [
        f"{r.cluster}\tK{r.ku}\t{r.diff_value:.6f}\t{str(r.flagged).lower()}"
        for r in diff_values(p_ku, result.labels)
    ]
    _write_lines(diffs_path, ["cluster\tku\tdiff_value\tflagged", *diffs])


def _write_lines(path: Path, lines: list[str]) -> None:
    write_text(path, "".join(line + "\n" for line in lines))


# --- stage runner -------------------------------------------------------------


class _Stage:
    """A stage is done when its stamp holds its signature and every file it
    writes exists; each stage's outcome is echoed as ``<name>: <message>``."""

    def __init__(self, out_dir: Path, name: str, signature: str, outputs: list[Path], echo):
        self.name = name
        self.stamp = out_dir / f"{name}.stamp"
        self.signature = signature
        self.outputs = outputs
        self.echo = echo

    def cached(self) -> bool:
        """Whether the stage is done; echoes ``<name>: cached`` if so."""
        hit = (
            self.stamp.exists()
            and self.stamp.read_text(encoding="utf-8").strip() == self.signature
            and all(p.exists() for p in self.outputs)
        )
        if hit:
            self.echo(f"{self.name}: cached")
        else:
            # the stage is about to overwrite its outputs: a crash before
            # done() must not leave an older stamp vouching for a mix of files
            self.stamp.unlink(missing_ok=True)
        return hit

    def done(self, message: str) -> None:
        """Stamp the stage once its outputs are written, and echo ``message``."""
        write_text(self.stamp, self.signature + "\n")
        self.echo(f"{self.name}: {message}")


_Split = tuple[int, PrDataset, PrDataset, PrDataset]


def _save_split(split: _Split, part_paths: list[Path], meta_path: Path) -> str:
    """Write the PR split's parts and counts; returns the prs stage's message."""
    eligible, filtered, train, test = split
    for path, part in zip(part_paths, (filtered, train, test)):
        save_prs(part, path)
    meta = {"eligible": eligible, "kept": len(filtered.prs),
            "train": len(train.prs), "test": len(test.prs)}
    write_text(meta_path, dump_json_line(meta) + "\n")
    return f"kept {len(filtered.prs)} (eligible={eligible})"


def _evaluate(store: KuStore, split: _Split, config: ProjectConfig, report_path: Path) -> str:
    """Write the report; returns the evaluate stage's message. The as-of index ends here."""
    _, filtered, _, test = split
    asof = AsOf(store, filtered.prs)
    evaluate_project(asof, test, seed=config.seed, rf_mode=config.rf_mode).save(report_path)
    return f"report for {len(test.prs)} test PRs"


def run_pipeline(config: ProjectConfig, echo=print) -> Path:
    """Run all stages; returns the evaluation report path.

    The store and the PR export are read only by a stage that misses, so a
    rerun with every stage cached reads neither. The cluster stage reads
    only P_ku, so the PR split, and the store once P_ku is built, are
    released before it: its allocations do not land on top of them.
    """
    config.validate()
    out = config.out_dir
    catalog = load_catalog(config.catalog)

    head = _git(config.repo, "rev-parse", "HEAD").decode().strip()
    store_dir = out / "store"
    # the store's format too, so an out/ of another format is mined again, not misread
    mine_sig = sha256_text(
        f"mine:{head}:{detection_key(catalog)}:{config.all_commits}:{KuStore.FORMAT}")
    mine = _Stage(out, "mine", mine_sig, [store_dir / n for n in KuStore.FILES], echo)
    mined = None
    if not mine.cached():
        cache_path = config.cache_dir / "ku_cache.jsonl" if config.cache_dir else None
        mined = build_ku_store(
            config.repo, catalog, cache_path=cache_path, all_commits=config.all_commits
        )
        mined.save(store_dir)
        mine.done(f"{len(mined.commits)} commits, {len(mined.vectors)} file records")

    @cache
    def store() -> KuStore:
        """The store, read back only by a profiles, evaluate or cluster stage that misses."""
        return mined if mined is not None else KuStore.load(store_dir)

    prs_dir = out / "prs"
    prs_sig = sha256_text(
        "prs:"
        + sha256_text(config.prs.read_text(encoding="utf-8"))
        + f":{config.train_fraction}"
    )

    @cache
    def split() -> _Split:
        """(eligible, filtered, train, test), read by the prs or evaluate stage."""
        filtered, eligible = filter_prs(load_prs(config.prs, project=config.prs.stem))
        return (eligible, filtered, *chronological_split(filtered, config.train_fraction))

    part_paths = [prs_dir / f"{name}.jsonl" for name in ("filtered", "train", "test")]
    meta_path = prs_dir / "meta.json"
    prs = _Stage(out, "prs", prs_sig, [*part_paths, meta_path], echo)
    if not prs.cached():
        prs.done(_save_split(split(), part_paths, meta_path))

    p_ku_path = out / "profiles" / "p_ku.tsv"
    prof_sig = sha256_text(f"profiles:{mine_sig}")
    profiles = _Stage(out, "profiles", prof_sig, [p_ku_path], echo)
    # P_ku, built once by whichever of the profiles and cluster stages runs first
    p_ku = None
    if not profiles.cached():
        p_ku = global_ku_profiles(store())
        save_matrix(p_ku, p_ku_path)
        profiles.done("P_ku written")

    report_path = out / "report.tsv"
    # keyed on the PR files it reads, not on the export's bytes: an export
    # with its lines reordered gives the same files and leaves it cached
    prs_files = ":".join(sha256_bytes(path.read_bytes()) for path in part_paths)
    eval_sig = sha256_text(
        f"evaluate:{mine_sig}:{prs_files}:{config.seed}:{config.rf_mode}"
    )
    evaluate = _Stage(out, "evaluate", eval_sig, [report_path], echo)
    if not evaluate.cached():
        evaluate.done(_evaluate(store(), split(), config, report_path))
    split.cache_clear()
    if p_ku is not None:
        mined = None
        store.cache_clear()

    cluster_dir = out / "cluster"
    cluster_sig = sha256_text(f"cluster:{mine_sig}:{config.seed}:{config.k_max}")
    cluster = _Stage(out, "cluster", cluster_sig,
                     [cluster_dir / n for n in CLUSTER_FILES], echo)
    if not cluster.cached():
        if p_ku is None:
            p_ku = global_ku_profiles(store())
        run_clustering(p_ku, cluster_dir, k_max=config.k_max, seed=config.seed)
        cluster.done("outputs written")

    return report_path
