"""Command-line entry point.

Subcommands: ingest, synth, train, evaluate, compare. Exit codes are a
stable scripting contract: 0 success, 1 usage/config error, 2 data error,
3 runtime error. No command mutates its inputs; all outputs land under the
declared output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from shufflerl import __version__
from shufflerl.archive import load_archive, save_archive
from shufflerl.checkpoint import load_checkpoint, save_checkpoint, source_hash
from shufflerl.data import (
    MarketDataset,
    SyntheticMarket,
    align_forward_fill,
    generate_synthetic_market,
    load_fundamentals,
    load_prices,
    parse_number,
    read_csv,
    render_csv,
)
from shufflerl.env import EnvConfig
from shufflerl.errors import ConfigError, DataError, ShuffleRlError
from shufflerl.metrics import compare_runs, metrics_report, write_aligned_curves_csv
from shufflerl.nn import ArchSpec
from shufflerl.ppo import UPDATE_STATS, AgentSpec, PpoConfig, TrainResult, evaluate, make_env_config, train
from shufflerl.runconfig import (
    RunConfig,
    SplitSpec,
    load_run_config,
    materialize_dataset,
    read_section,
    resolve_split,
)

CURVE_HEADER = ["agent", "seed", "timestep", "episode", "reward"]
# The out dir's own record of a command, written once every run has finished.
RECORD_FILES = ("curves.csv", "curves_aligned.csv", "table.csv", "pairwise.csv", "manifest.json")


class _UsageError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_stats_jsonl(path: Path, stats: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in stats:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def _checkpoint_metadata(
    config: RunConfig, agent: AgentSpec, seed: int, fingerprint: str
) -> dict:
    """Everything that determines a run's artifacts besides the source hash
    and the architecture, which the checkpoint manifest records itself."""
    resolved = config.resolved_dict()
    return {
        "agent_kind": agent.kind,
        "dataset_fingerprint": fingerprint,
        "env": resolved["env"],
        "ppo": resolved["ppo"],
        "split": resolved["split"],
        "train_seed": seed,
    }


def _train_one(
    config: RunConfig,
    dataset: MarketDataset,
    agent: AgentSpec,
    seed: int,
    run_dir: Path,
    metadata: dict,
) -> TrainResult:
    """Train, write the artifacts into a staging sibling of ``run_dir`` and
    move it onto ``run_dir`` only when all of them are written, so a run
    killed part-way never leaves files there that a later ``compare`` could
    reuse. A staging or retired sibling left by a killed run is removed."""
    result = train(dataset, config.env, agent, replace(config.ppo, seed=seed))
    staging = run_dir.with_name(f".{run_dir.name}.staging")
    retired = run_dir.with_name(f".{run_dir.name}.retired")
    for stale in (staging, retired):
        shutil.rmtree(stale, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        curve = render_csv(CURVE_HEADER, ((agent.kind, seed, *point) for point in result.curve))
        (staging / "curve.csv").write_bytes(curve)
        _write_stats_jsonl(staging / "stats.jsonl", result.update_stats)
        save_checkpoint(staging / "checkpoint", result.net, metadata)
        if run_dir.exists():
            os.replace(run_dir, retired)  # a directory can only be renamed onto an empty one
        os.replace(staging, run_dir)
    finally:
        for stale in (staging, retired):
            shutil.rmtree(stale, ignore_errors=True)
    return result


def _read_curve(path: Path) -> list[tuple[str, int, int, int, float]]:
    """A run's ``curve.csv`` rows, typed as ``_train_one`` wrote them."""
    return [
        (agent, *(parse_number(cell, name, str(path), line, int) for cell, name in zip(ints, CURVE_HEADER[1:4])),
         parse_number(reward, "reward", str(path), line))
        for line, (agent, *ints, reward) in read_csv(path, CURVE_HEADER)
    ]


def _read_stats(path: Path, updates: int) -> list[dict]:
    """A run's ``stats.jsonl`` as ``_train_one`` wrote it: ``updates`` lines,
    each a JSON object of the keys ``ppo.update`` returns, each a finite
    float. Every failure is a ``DataError`` naming the file and, for a line,
    its number."""
    source = str(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot open file: {exc.strerror}", source=source) from None
    except UnicodeDecodeError:
        raise DataError("not a UTF-8 file", source=source) from None
    stats = []
    for line, text in enumerate(lines, start=1):
        try:
            row = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"not JSON: {exc.msg}", source=source, line=line) from None
        if not isinstance(row, dict) or sorted(row) != sorted(UPDATE_STATS):
            raise DataError(f"expected an object with the keys {', '.join(UPDATE_STATS)}", source=source, line=line)
        bad = [key for key in UPDATE_STATS if type(row[key]) is not float or not math.isfinite(row[key])]
        if bad:
            raise DataError(f"non-finite or non-float value {row[bad[0]]!r} of {bad[0]!r}", source=source, line=line)
        stats.append(row)
    if len(stats) != updates:
        raise DataError(f"{len(stats)} lines, expected {updates}", source=source)
    return stats


def _run_is_cached(run_dir: Path, metadata: dict, arch: ArchSpec, updates: int) -> bool:
    """A run is reused only if ``load_checkpoint`` accepts its checkpoint,
    its curve reads back through ``_read_curve`` with at least one point,
    its ``stats.jsonl`` through ``_read_stats`` with one line per update,
    and the checkpoint records the architecture, metadata and source hash
    this run would write. The hash covers ``__init__.py``, so a version bump
    also retrains."""
    try:
        net, manifest = load_checkpoint(run_dir / "checkpoint")
        curve = _read_curve(run_dir / "curve.csv")
        _read_stats(run_dir / "stats.jsonl", updates)
    except ShuffleRlError:
        return False
    return (
        len(curve) > 0
        and net.arch == arch
        and manifest.get("source_hash") == source_hash()
        and manifest["metadata"] == json.loads(json.dumps(metadata))  # as stored
    )


def _write_manifest(
    out_dir: Path, config: RunConfig, fingerprint: str, runs: list[dict], ticker_count: int
) -> None:
    manifest = {
        "code_version": __version__,
        "config": config.resolved_dict(),
        "dataset_fingerprint": fingerprint,
        "seeds": list(config.seeds),
        "runs": runs,
        "permutations": {},
    }
    for agent in config.agents:
        perm = make_env_config(config.env, agent, ticker_count).permutation
        if perm is not None:
            manifest["permutations"][agent.kind] = [int(k) for k in perm.perm]
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _prepare_training(args, require_comparison: bool) -> tuple[RunConfig, MarketDataset, str, Path]:
    config = load_run_config(args.config)
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    out = args.out or config.out
    if out is None:
        raise ConfigError("no output directory: pass --out or set 'out' in the config")
    dataset, fingerprint = materialize_dataset(config.dataset)
    train_split, _ = resolve_split(dataset, config.split)
    config.env.check_history(train_split)
    if require_comparison:
        if len(config.agents) < 2:
            raise ConfigError(f"comparison needs at least 2 agents, got {len(config.agents)}")
        trained = config.ppo.total_timesteps // config.ppo.rollout_length * config.ppo.rollout_length
        episode = train_split.n_days - config.env.window_length
        if trained < episode:
            raise ConfigError(
                f"{trained} trained steps cannot finish one {episode}-step episode of the training "
                f"split, so no run would have a curve to compare: raise ppo.total_timesteps"
            )
    out_dir = Path(out)  # made only once every check has passed
    out_dir.mkdir(parents=True, exist_ok=True)
    return config, train_split, fingerprint, out_dir


def _execute_runs(
    config: RunConfig, dataset: MarketDataset, fingerprint: str, out_dir: Path, reuse_cached: bool
) -> list[dict]:
    runs = []
    jobs = []
    updates = config.ppo.total_timesteps // config.ppo.rollout_length
    for agent in config.agents:
        for seed in config.seeds:
            run_dir = out_dir / "runs" / f"{agent.kind}-seed{seed}"
            metadata = _checkpoint_metadata(config, agent, seed, fingerprint)
            cached = reuse_cached and _run_is_cached(run_dir, metadata, agent.resolve_arch(), updates)
            runs.append(
                {
                    "agent": agent.kind,
                    "seed": seed,
                    "dir": str(run_dir.relative_to(out_dir)),
                    "curve": str((run_dir / "curve.csv").relative_to(out_dir)),
                    "stats": str((run_dir / "stats.jsonl").relative_to(out_dir)),
                    "checkpoint": str((run_dir / "checkpoint").relative_to(out_dir)),
                    "reused": cached,
                }
            )
            if not cached:
                jobs.append((agent, seed, run_dir, metadata))
    # Until the last run has finished, no record names runs a failure may not have trained.
    for name in RECORD_FILES:
        (out_dir / name).unlink(missing_ok=True)
    for job in jobs:
        _train_one(config, dataset, *job)
    return runs


def cmd_ingest(args) -> int:
    prices = load_prices(args.prices)
    fundamentals = load_fundamentals(args.fundamentals)
    dataset = align_forward_fill(prices, fundamentals)
    metadata = save_archive(dataset, args.out)
    print(f"ingested {len(metadata['tickers'])} tickers x {metadata['n_days']} days")
    print(f"range {metadata['first_day']} .. {metadata['last_day']}")
    print(f"fingerprint {metadata['fingerprint']}")
    print(f"archive written to {args.out}")
    return 0


def cmd_synth(args) -> int:
    try:
        dataset = generate_synthetic_market(
            seed=args.seed,
            tickers=args.tickers,
            days=args.days,
            drift=args.drift,
            volatility=args.volatility,
        )
    except DataError as exc:  # bad flag values, not bad data
        raise _UsageError(str(exc)) from None
    default_window = EnvConfig().window_length
    if args.days < default_window + 1:
        print(
            f"warning: {args.days} days cannot support the default window of "
            f"{default_window} (training needs window + 1 days)",
            file=sys.stderr,
        )
    metadata = save_archive(dataset, args.out)
    print(f"synthesized {len(metadata['tickers'])} tickers x {metadata['n_days']} days")
    print(f"fingerprint {metadata['fingerprint']}")
    print(f"archive written to {args.out}")
    return 0


def cmd_train(args) -> int:
    config, train_split, fingerprint, out_dir = _prepare_training(args, require_comparison=False)
    runs = _execute_runs(config, train_split, fingerprint, out_dir, reuse_cached=False)
    _write_manifest(out_dir, config, fingerprint, runs, train_split.ticker_count)
    for run in runs:
        print(f"trained {run['agent']} seed {run['seed']} -> {out_dir / run['dir']}")
    return 0


def cmd_evaluate(args) -> int:
    net, manifest = load_checkpoint(args.checkpoint)
    metadata = manifest["metadata"]
    # The recorded agent, env, ppo and split are read as a run config's would be.
    agent = read_section("checkpoint agent", AgentSpec, {"kind": metadata.get("agent_kind")}, arch=net.arch)
    base_env = read_section("checkpoint env", EnvConfig, metadata.get("env"), permutation=None)
    ppo = read_section("checkpoint ppo", PpoConfig, metadata.get("ppo"))
    split = metadata.get("split")
    if split is not None:
        split = read_section("checkpoint split", SplitSpec, split)
    elif args.split == "test":
        raise ConfigError(
            "checkpoint records no train/test split; evaluate with --split train "
            "or retrain with a 'split' section"
        )

    dataset, archive_meta = load_archive(args.dataset)
    recorded = metadata.get("dataset_fingerprint")
    if recorded and recorded != archive_meta["fingerprint"]:
        print(
            f"note: dataset fingerprint {archive_meta['fingerprint']} differs from "
            f"the training fingerprint {recorded}",
            file=sys.stderr,
        )
    train_part, test_part = resolve_split(dataset, split)
    part = train_part if args.split == "train" else test_part
    env_config = make_env_config(base_env, agent, part.ticker_count)

    report, env = evaluate(net, part, env_config, ppo.gamma)
    metrics = metrics_report(report.value_series, total_costs=report.total_costs)
    out_dir = Path(args.out) if args.out else Path(args.checkpoint).parent / f"eval-{args.split}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").write_text(metrics.to_json() + "\n")
    env.write_trace_csv(out_dir / "trace.csv")
    payload = report.to_dict()
    payload["split"] = args.split
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"report written to {out_dir}")
    return 0


def cmd_compare(args) -> int:
    config, train_split, fingerprint, out_dir = _prepare_training(args, require_comparison=True)
    runs = _execute_runs(config, train_split, fingerprint, out_dir, reuse_cached=True)

    curves = {f"{run['agent']}/seed{run['seed']}": _read_curve(out_dir / run["curve"]) for run in runs}
    labeled = {label: [(timestep, reward) for _, _, timestep, _, reward in rows] for label, rows in curves.items()}
    (out_dir / "curves.csv").write_bytes(render_csv(CURVE_HEADER, (row for rows in curves.values() for row in rows)))

    table = compare_runs(labeled)
    write_aligned_curves_csv(labeled, out_dir / "curves_aligned.csv")
    (out_dir / "table.csv").write_bytes(render_csv(
        ["label", "final_reward", "mean_reward", "peak_reward", "n_points"],
        ((row.label, row.final_reward, row.mean_reward, row.peak_reward, row.n_points) for row in table.rows),
    ))
    (out_dir / "pairwise.csv").write_bytes(
        render_csv(["pair", "final_reward_difference"], table.pairwise_final_diff.items())
    )
    _write_manifest(out_dir, config, fingerprint, runs, train_split.ticker_count)
    reused = sum(1 for run in runs if run["reused"])
    if reused:
        print(f"reused {reused} cached run(s)")
    print(table.format())
    print(f"comparison written to {out_dir}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="shufflerl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"shufflerl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="align price and fundamentals CSVs into a dataset archive")
    p_ingest.add_argument("--prices", required=True, help="CSV with header date,ticker,close")
    p_ingest.add_argument("--fundamentals", required=True, help="CSV with date,ticker + 15 ratio columns")
    p_ingest.add_argument("--out", required=True, help="output archive directory")
    p_ingest.set_defaults(func=cmd_ingest)

    p_synth = sub.add_parser("synth", help="generate a synthetic market archive")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--tickers", type=int, required=True)
    p_synth.add_argument("--days", type=int, required=True)
    p_synth.add_argument("--drift", type=float, default=SyntheticMarket.drift, help="per-day drift rate")
    p_synth.add_argument("--volatility", type=float, default=SyntheticMarket.volatility, help="per-day volatility")
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train agent(s) per a JSON run config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", help="output directory (overrides config)")
    p_train.add_argument("--seed", type=int, help="train this single seed instead of the config list")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset archive")
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p_eval.add_argument("--dataset", required=True, help="dataset archive directory")
    p_eval.add_argument("--split", choices=["train", "test"], default="test")
    p_eval.add_argument("--out", help="report directory")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="train and compare the configured agents with shared seeds")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", help="output directory (overrides config)")
    p_cmp.add_argument("--seed", type=int, help="compare on this single seed")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ShuffleRlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
