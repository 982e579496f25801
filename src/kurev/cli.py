"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/input error, 3 internal error.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from .adaptive import AdaptiveRecommender, best_performers
from .catalog import load_catalog
from .detector import detect_capabilities, ku_vector_from_hits
from .errors import KurevError
from .evaluation import K_MAX, base_scores
from .mining import KuStore, build_ku_store
from .pipeline import (
    ALL_KINDS,
    ProjectConfig,
    check_k_max,
    check_train_fraction,
    evaluate_project,
    run_base_recommenders,
    run_clustering,
    run_pipeline,
)
from .prstore import PrDataset, chronological_split, filter_prs, load_prs, save_prs
from .profiles import (
    AsOf,
    dev_exp_matrix,
    global_ku_profiles,
    rev_exp_matrix,
    save_last_touch,
    save_matrix,
)
from .recommenders import KIND_ORDER, RF_MODES, base_recommenders, safe_recommend
from .util import parse_rfc3339

log = logging.getLogger(__name__)

# options shared by the commands that read a mined store and a PR export
store_option = click.option(
    "--store", "store_dir", required=True,
    type=click.Path(exists=True, file_okay=False, path_type=Path))
prs_option = click.option(
    "--prs", "prs_path", required=True,
    type=click.Path(exists=True, dir_okay=False, path_type=Path))
rf_mode_option = click.option(
    "--rf-mode", default="prs", type=click.Choice(RF_MODES), show_default=True)


def _checked(rule):
    """Option callback applying a config key's range rule, named by the option."""

    def callback(ctx, param, value):
        rule(value, param.opts[0])
        return value

    return callback


def _load(store_dir: Path, prs_path: Path) -> tuple[KuStore, PrDataset]:
    """A mined store and the PRs that ``filter_prs`` keeps."""
    return KuStore.load(store_dir), filter_prs(load_prs(prs_path))[0]


@click.group()
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
def cli(verbose: bool) -> None:
    """Knowledge-unit mining and reviewer recommendation toolkit."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


@cli.command()
@click.argument("source", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--catalog", type=click.Path(exists=True, path_type=Path), default=None)
@click.option("--capabilities", is_flag=True, help="Also print per-capability counts.")
def detect(source: Path, catalog: Path | None, capabilities: bool) -> None:
    """Print the 28-entry KU vector for one Java source file."""
    cat = load_catalog(catalog)
    # decoded as mining decodes a blob, so both give one file the same vector
    hits = detect_capabilities(source.read_bytes().decode("utf-8", "replace"), cat)
    record: dict = {
        "file": str(source),
        "ku_vector": ku_vector_from_hits(hits),
    }
    if capabilities:
        record["capabilities"] = {
            cap.label: count for cap, count in sorted(hits.items()) if count
        }
    click.echo(json.dumps(record, sort_keys=True))


@cli.command()
@click.argument("repo", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--catalog", type=click.Path(exists=True, path_type=Path), default=None)
@click.option("--cache", type=click.Path(path_type=Path), default=None)
@click.option("--all-commits", is_flag=True, help="Include non-first-parent history.")
def mine(
    repo: Path, out: Path, catalog: Path | None, cache: Path | None, all_commits: bool
) -> None:
    """Mine a git repository into a KU store directory."""
    store = build_ku_store(
        repo, load_catalog(catalog), cache_path=cache, all_commits=all_commits
    )
    store.save(out)
    click.echo(
        f"mined {len(store.commits)} commits, {len(store.vectors)} file records → {out}"
    )


@cli.group()
def prs() -> None:
    """PR dataset utilities: validate, filter, split."""


@prs.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
def validate(path: Path) -> None:
    """Parse a PR export and report counts; schema errors exit non-zero."""
    ds = load_prs(path)
    kept, eligible = filter_prs(ds)
    click.echo(
        f"{ds.project}: {len(ds.prs)} PRs valid, "
        f"{len(kept.prs)} pass filters, eligible={eligible}"
    )


@prs.command(name="filter")
@click.argument("path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--min-prs", default=100, show_default=True)
def filter_cmd(path: Path, out: Path, min_prs: int) -> None:
    """Write the filtered PR dataset."""
    kept, eligible = filter_prs(load_prs(path), min_prs=min_prs)
    save_prs(kept, out)
    click.echo(f"kept {len(kept.prs)} PRs (eligible={eligible}) → {out}")


@prs.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out-train", required=True, type=click.Path(path_type=Path))
@click.option("--out-test", required=True, type=click.Path(path_type=Path))
@click.option("--train-fraction", default=0.8, show_default=True)
def split(path: Path, out_train: Path, out_test: Path, train_fraction: float) -> None:
    """Chronological train/test split of a PR dataset."""
    train, test = chronological_split(load_prs(path), train_fraction)
    save_prs(train, out_train)
    save_prs(test, out_test)
    click.echo(f"train {len(train.prs)} → {out_train}; test {len(test.prs)} → {out_test}")


@cli.command()
@store_option
@prs_option
@click.option("--cutoff", required=True, help="RFC-3339 UTC timestamp.")
@click.option("--out", required=True, type=click.Path(path_type=Path))
def profiles(store_dir: Path, prs_path: Path, cutoff: str, out: Path) -> None:
    """Write development/review expertise matrices and global KU profiles.

    The review side counts the PRs that ``filter_prs`` keeps, as KUREC does.
    """
    store, dataset = _load(store_dir, prs_path)
    when = parse_rfc3339(cutoff)
    dev = dev_exp_matrix(store, when)
    rev = rev_exp_matrix(dataset, store, when)
    save_matrix(dev, out / "dev.tsv")
    save_matrix(rev, out / "rev.tsv")
    save_last_touch(dev, out / "dev_last_touch.jsonl")
    save_last_touch(rev, out / "rev_last_touch.jsonl")
    save_matrix(global_ku_profiles(store), out / "p_ku.tsv")
    click.echo(f"profiles written → {out}")


@cli.command()
@store_option
@prs_option
@click.option("--pr", "pr_id", required=True, type=int)
@click.option("--which", default="kurec", show_default=True,
              type=click.Choice(ALL_KINDS))
@click.option("--top", default=5, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True)
@click.option("--train-fraction", default=0.8, show_default=True,
              callback=_checked(check_train_fraction),
              help="Split used to replay adaptive recommenders.")
@rf_mode_option
def recommend(
    store_dir: Path, prs_path: Path, pr_id: int, which: str, top: int, seed: int,
    train_fraction: float, rf_mode: str,
) -> None:
    """Rank reviewer candidates for one PR."""
    store, dataset = _load(store_dir, prs_path)
    by_id = {pr.id: pr for pr in dataset.prs}
    if pr_id not in by_id:
        raise KurevError(f"PR {pr_id} not in the filtered dataset")

    asof = AsOf(store, dataset.prs)
    if which in KIND_ORDER:
        rec = safe_recommend(base_recommenders(asof, rf_mode)[which], by_id[pr_id], k=top)
    else:
        _, test = chronological_split(dataset, train_fraction)
        test_ids = [pr.id for pr in test.prs]
        if pr_id not in test_ids:
            raise KurevError(f"PR {pr_id} is not in the test partition")
        # the replay is online, so the target's step needs only the PRs up to it
        prefix = list(test.prs[: test_ids.index(pr_id) + 1])
        variant = which.removeprefix("ad_")
        # the winners read ranks 1..K_MAX of every base ranking, so a smaller
        # --top still keeps K_MAX of them
        base = run_base_recommenders(asof, prefix, rf_mode=rf_mode, k=max(top, K_MAX))
        winners = best_performers(base_scores(base, prefix))
        step = AdaptiveRecommender(variant, seed=seed).replay(prefix, base, winners)[-1]
        rec = base[step.delegate][pr_id]
    asof.warn_unresolved()

    if not rec.ranked:
        click.echo(f"PR {pr_id}: no candidates ({which})")
        return
    for rank, (dev, score) in enumerate(rec.ranked[:top], start=1):
        click.echo(f"{rank}\t{dev}\t{score:.6f}")


@cli.command()
@store_option
@prs_option
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--seed", default=0, show_default=True)
@click.option("--train-fraction", default=0.8, show_default=True,
              callback=_checked(check_train_fraction))
@rf_mode_option
def evaluate(
    store_dir: Path, prs_path: Path, out: Path, seed: int, train_fraction: float, rf_mode: str
) -> None:
    """Evaluate all eight recommenders on the chronological test split."""
    store, dataset = _load(store_dir, prs_path)
    _, test = chronological_split(dataset, train_fraction)
    report = evaluate_project(AsOf(store, dataset.prs), test, seed=seed, rf_mode=rf_mode)
    report.save(out)
    click.echo(f"report for {len(test.prs)} test PRs → {out}")


@cli.command()
@store_option
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--k-max", default=100, show_default=True, callback=_checked(check_k_max))
@click.option("--seed", default=0, show_default=True)
def cluster(store_dir: Path, out: Path, k_max: int, seed: int) -> None:
    """Cluster global developer KU profiles."""
    profiles = global_ku_profiles(KuStore.load(store_dir))
    run_clustering(profiles, out, k_max=k_max, seed=seed)
    click.echo(f"clustering outputs → {out}")


@cli.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False, path_type=Path))
def pipeline(config: Path) -> None:
    """Run the full pipeline from a YAML config file."""
    report = run_pipeline(ProjectConfig.from_file(config), echo=click.echo)
    click.echo(f"report → {report}")


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:  # --help and friends
        return int(exc.exit_code)
    except click.ClickException as exc:  # usage errors included
        exc.show(file=sys.stderr)
        return 1
    except (KurevError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
