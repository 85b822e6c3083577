"""Command-line front end: generate, train, evaluate, sweep.

Every command resolves its config (JSON file plus flag overrides), runs,
and writes a manifest.json recording the command, a platform-stable hash
of the resolved config, the seed, input and output paths, the package
version, and the wall-clock duration. Exit codes: 0 success, 2 for
usage/config/data problems, 3 for numerical failure. The output directory
is created only once the inputs have passed their checks (for generate,
train and sweep, once the work has run), so a failed run leaves it as it was.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, fields, replace
from os import replace as atomic_replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .adaptive import AprilConfig, train_april, write_labels
from .errors import ConfigError, DomainError, TrainingDiverged, is_finite_number, is_int64
from .evaluate import (
    REFERENCE_SUBSTEPS,
    export_timeseries,
    mass_inconsistency,
    regime_masked_predictions,
    write_comparison,
)
from .networks import load_checkpoint, predictor_forward_series, save_checkpoint
from .physics import simulate_targets
from .series import LakeSeries, _write_rows, load_series, write_series
from .synthetic import GenConfig, generate, load_truth, write_truth
from .training import (
    TrainConfig,
    _split_windows,
    pooled_rmse,
    train_pril,
    validation_rmse,
    write_history,
)

__all__ = [
    "GENERATE_SCHEMA",
    "TRAIN_SCHEMA",
    "SWEEP_SCHEMA",
    "SWEEP_COLUMNS",
    "cmd_generate",
    "cmd_train",
    "cmd_evaluate",
    "cmd_sweep",
    "main",
]

GENERATE_SCHEMA = "lakedo-generate-v1"
TRAIN_SCHEMA = "lakedo-train-v1"
SWEEP_SCHEMA = "lakedo-sweep-v1"

SWEEP_COLUMNS = ("lambda_epi", "lambda_hyp", "rmse_epi", "rmse_hyp", "rmse_total")

MODES = ("baseline", "pril", "april")


def _read_config(path: str | Path, schema: str) -> dict:
    """The JSON object at path, with its "schema" key checked and removed."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    found = data.pop("schema", None)
    if found != schema:
        raise ConfigError(f"{path}: schema must be {schema!r}, got {found!r}")
    return data


def _build(cls, data: dict, context: str):
    """Construct a config dataclass; errors name the file (and section) they come from."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")
    try:
        return cls(**data)
    except ConfigError as exc:          # a field or cross-field check in the dataclass
        raise ConfigError(f"{context}: {exc}") from exc


def load_generate_config(path: str | Path | None) -> GenConfig:
    if path is None:
        return GenConfig()
    data = _read_config(path, GENERATE_SCHEMA)
    return _build(GenConfig, data, str(path))


def load_train_config(path: str | Path | None) -> tuple[TrainConfig, AprilConfig]:
    if path is None:
        return TrainConfig(), AprilConfig()
    data = _read_config(path, TRAIN_SCHEMA)
    april_data = data.pop("april", {})
    if not isinstance(april_data, dict):
        raise ConfigError(f"{path}: 'april' must be a JSON object")
    return (_build(TrainConfig, data, str(path)),
            _build(AprilConfig, april_data, f"{path}: april"))


def load_sweep_config(path: str | Path) -> tuple[list[float], list[float], TrainConfig]:
    data = _read_config(path, SWEEP_SCHEMA)
    keys, grids = ("lambda_epi", "lambda_hyp"), {}
    for key in keys:
        values = data.pop(key, None)
        if not (isinstance(values, list) and values
                and all(is_finite_number(v) and v >= 0 for v in values)):
            raise ConfigError(f"{path}: {key} must be a nonempty list of finite weights >= 0")
        grids[key] = [float(v) for v in values]
    train_data = data.pop("train", {})
    if not isinstance(train_data, dict):
        raise ConfigError(f"{path}: 'train' must be a JSON object")
    if data:
        raise ConfigError(f"{path}: unknown keys {sorted(data)}")
    for key in keys:
        if key in train_data:
            # Every grid point sets it, so a value here would only change the hash.
            raise ConfigError(f"{path}: train: {key} is set by the sweep grid, not here")
    base = _build(TrainConfig, train_data, f"{path}: train")
    return grids["lambda_epi"], grids["lambda_hyp"], base


def _write_manifest(args: argparse.Namespace, resolved_config, seed: int,
                    inputs: Sequence[str | Path], outputs: Sequence[str | Path],
                    **extra) -> None:
    """Write --out/manifest.json; the --config file, if any, joins the inputs.

    The duration runs from args.started, which main() stamps; extra keys
    (train's counters, sweep's failures) join the payload unhashed.
    """
    # Platform-stable hash of the resolved config(s): canonical JSON, sha256.
    canonical = json.dumps(resolved_config, sort_keys=True, separators=(",", ":"))
    payload = {
        "command": args.command,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": seed,
        "inputs": sorted(map(str, [*inputs, args.config] if args.config else inputs)),
        "outputs": sorted(str(p) for p in outputs),
        "version": f"lakedo-{__version__}",
        "duration_seconds": round(time.monotonic() - args.started, 3),
        **extra,
    }
    path = Path(args.out) / "manifest.json"
    tmp = path.with_name("manifest.json.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    atomic_replace(tmp, path)


def _prepare_out(out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_lakes(data_dir: str | Path) -> tuple[list[Path], list[LakeSeries]]:
    data = Path(data_dir)
    if not data.is_dir():
        raise DomainError(f"data directory not found: {data}")
    files = sorted(p for p in data.glob("*.csv") if not p.stem.endswith("_truth"))
    if not files:
        raise DomainError(f"no lake CSV files in {data}")
    lakes = [load_series(p) for p in files]
    first: dict[str, Path] = {}
    for path, lake in zip(files, lakes):
        other = first.setdefault(lake.lake_id, path)
        if other != path:
            raise DomainError(f"{other} and {path} both hold lake id {lake.lake_id!r} "
                              "(the file stem without 'lake_')")
        if lake.n_features != lakes[0].n_features:
            raise DomainError(f"{path} has {lake.n_features} feature columns, "
                              f"but {files[0]} has {lakes[0].n_features}")
    return files, lakes


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = load_generate_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    lakes = generate(cfg)
    out = _prepare_out(args.out)
    outputs = []
    for lake in lakes:
        series_path = out / f"lake_{lake.series.lake_id}.csv"
        truth_path = out / f"lake_{lake.series.lake_id}_truth.csv"
        write_series(lake.series, series_path)
        write_truth(truth_path, lake)
        outputs += [series_path, truth_path]
    _write_manifest(args, asdict(cfg), cfg.seed, [], outputs)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config, april = load_train_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.k is not None:
        if args.mode != "april":
            raise ConfigError("--k sets the drastic-day substep count and "
                              "only applies to mode=april")
        april = replace(april, k_drastic=args.k)
    if args.mode == "baseline":
        config = replace(config, lambda_epi=0.0, lambda_hyp=0.0, lambda_total=0.0)

    files, lakes = _load_lakes(args.data)
    if args.mode == "april":
        result = train_april(lakes, config, april)
        history, discriminator, labels = result.history, result.discriminator, result.labels
        # The returned parameters come from the last stage that ran.
        last = result.stage3 or result.stage1
        epoch_offset = len(result.stage1.history.rows) if result.stage3_ran else 0
    else:
        last = train_pril(lakes, config)
        history, discriminator, labels, epoch_offset = last.history, None, {}, 0
    out = _prepare_out(args.out)
    save_checkpoint(out / "checkpoint.csv", predictor=last.params, discriminator=discriminator)
    outputs = []
    for lake_id, day_labels in sorted(labels.items()):
        label_path = out / f"labels_{lake_id}.csv"
        write_labels(label_path, day_labels)
        outputs.append(label_path)
    history_path = out / "history.csv"
    write_history(history_path, history)
    outputs += [out / "checkpoint.csv", history_path]

    resolved = {"mode": args.mode, "train": asdict(config), "april": asdict(april)}
    counters = {"epochs": len(history.rows), "best_epoch": epoch_offset + last.best_epoch,
                "tape_nodes": last.tape_nodes, "backward_visits": last.backward_visits}
    if args.mode == "april":
        # What APRIL decided, over the rows of every labels_<id>.csv.
        every = [label for per_lake in labels.values() for label in per_lake]
        drastic = sum(not label.mild for label in every)
        counters["labels"] = dict(Counter(label.provenance for label in every))
        counters["classes"] = {"MILD": len(every) - drastic, "DRASTIC": drastic}
        counters["k_hist"] = {str(k): n for k, n in Counter(label.k for label in every).items()}
    _write_manifest(args, resolved, config.seed, files, outputs, counters=counters)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    predictor, _ = load_checkpoint(args.checkpoint)
    if predictor is None:
        raise DomainError(f"{args.checkpoint}: no predictor section in checkpoint")
    files, lakes = _load_lakes(args.data)
    truths, truth_files = [], []
    for path, lake in zip(files, lakes):
        if lake.n_features != predictor.n_features:
            raise DomainError(
                f"{path}: {lake.n_features} feature columns, but the "
                f"checkpoint expects {predictor.n_features}")
        if lake.n_days < 2:
            raise DomainError(f"{path}: evaluation needs at least two days, got {lake.n_days}")
        truth = None
        truth_path = path.with_name(f"{path.stem}_truth.csv")
        if truth_path.exists():
            truth_dates, truth, _ = load_truth(truth_path)
            if not np.array_equal(truth_dates, lake.dates):
                raise DomainError(f"{truth_path}: {len(truth_dates)} rows, but its dates "
                                  f"must equal the {lake.n_days} days of {path.name}")
            truth_files.append(truth_path)
        truths.append(truth)
    config = None if args.config is None else load_train_config(args.config)[0]
    if config is not None:
        # The trainer's split and pooling; a lake too short to validate adds nothing.
        val_windows = [w for lake in lakes for w in _split_windows(lake, config)[1]]
        if not val_windows:
            raise DomainError("no validation windows under this config")
    # Observations and targets exist only on regime-defined cells, so every
    # metric reads the same numbers from the masked predictions as from the raw.
    preds_by_lake = [regime_masked_predictions(preds, lake) for lake, preds in zip(
        lakes, predictor_forward_series(predictor, [lake.features for lake in lakes]))]
    # Every simulation and metric runs before --out exists, so a failure (a
    # --k too large for memory, say) leaves nothing behind.
    simulated = [simulate_targets(lake, preds, k_per_day=np.full(lake.n_days, args.k, np.int64))
                 for lake, preds in zip(lakes, preds_by_lake)]
    inconsistency = [mass_inconsistency(preds, lake, targets=targets)
                     for lake, preds, targets in zip(lakes, preds_by_lake, simulated)]
    if config is not None:
        rmse_tasks = np.array(validation_rmse(predictor, val_windows)[:3])
    else:
        # A whole lake is a valid window: pool every observed day.
        rmse_tasks = np.array(pooled_rmse(lakes, preds_by_lake)[:3])
    # nanmean's arithmetic, without its warning for a task no lake defines
    # (0 / 0 is NaN under the errstate main() sets).
    stacked = np.stack(inconsistency)
    pooled_inc = np.nansum(stacked, axis=0) / np.sum(~np.isnan(stacked), axis=0)

    out = _prepare_out(args.out)
    outputs = []
    for lake, preds, targets, truth in zip(lakes, preds_by_lake, simulated, truths):
        ts_path = out / f"timeseries_{lake.lake_id}.csv"
        export_timeseries(ts_path, lake, preds, targets, truth=truth)
        outputs.append(ts_path)
    comparison = out / "comparison.csv"
    write_comparison(comparison, Path(args.checkpoint).stem, rmse_tasks, pooled_inc)
    outputs.append(comparison)

    resolved = {"k_reference": args.k, "train": asdict(config) if config else None}
    seed = config.seed if config else 0
    _write_manifest(args, resolved, seed, [args.checkpoint, *files, *truth_files], outputs)
    return 0


def _sweep_point(args) -> tuple[float, float, tuple[float, float, float] | str]:
    lakes, config = args
    try:
        # Worker processes do not inherit the errstate set in main().
        with np.errstate(over="ignore", invalid="ignore"):
            result = train_pril(lakes, config)
    except TrainingDiverged as exc:
        return config.lambda_epi, config.lambda_hyp, f"{type(exc).__name__}: {exc}"
    # train_pril numbers its epochs 1..n, so the best epoch's row is at best_epoch - 1.
    best = result.history.rows[result.best_epoch - 1]
    return config.lambda_epi, config.lambda_hyp, (best.val_rmse_epi, best.val_rmse_hyp,
                                                  best.val_rmse_total)


def cmd_sweep(args: argparse.Namespace) -> int:
    grid_epi, grid_hyp, base = load_sweep_config(args.config)
    if args.seed is not None:
        base = replace(base, seed=args.seed)
    files, lakes = _load_lakes(args.data)

    jobs = [(lakes, replace(base, lambda_epi=le, lambda_hyp=lh))
            for le in grid_epi for lh in grid_hyp]
    if args.threads == 1:
        results = [_sweep_point(j) for j in jobs]
    else:
        # Imported here: only a parallel sweep needs it, and its import adds
        # 13-20 ms to the start-up of every other command.
        from concurrent.futures import ProcessPoolExecutor

        # Under fork every worker starts at the first submit, so cap them at the grid.
        with ProcessPoolExecutor(max_workers=min(args.threads, len(jobs))) as pool:
            results = list(pool.map(_sweep_point, jobs))

    sweep_path = _prepare_out(args.out) / "sweep.csv"
    failures = [{"lambda_epi": le, "lambda_hyp": lh, "error": outcome}
                for le, lh, outcome in results if isinstance(outcome, str)]
    # A diverged point keeps its row, with empty RMSE cells.
    rows = [(le, lh, *((np.nan,) * 3 if isinstance(outcome, str) else outcome))
            for le, lh, outcome in results]
    _write_rows(sweep_path, SWEEP_COLUMNS, [], list(zip(*rows)))
    for failure in failures:
        print(f"sweep point {failure['lambda_epi']},{failure['lambda_hyp']} "
              f"failed: {failure['error']}", file=sys.stderr)

    resolved = {"lambda_epi": grid_epi, "lambda_hyp": grid_hyp, "train": asdict(base)}
    _write_manifest(args, resolved, base.seed, files, [sweep_path], failures=failures)
    if len(failures) == len(results):
        raise TrainingDiverged(f"all {len(results)} sweep points diverged")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lakedo",
        description="Two-layer lake dissolved-oxygen models: synthetic data, "
                    "mass-guided training, evaluation, weight sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic lake dataset")
    g.add_argument("--config", help="generate config JSON (defaults otherwise)")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int, help="override the config seed")
    g.set_defaults(run=cmd_generate)

    t = sub.add_parser("train", help="train a model on a dataset")
    t.add_argument("--mode", required=True, choices=MODES)
    t.add_argument("--data", required=True, help="dataset directory")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--config", help="train config JSON (defaults otherwise)")
    t.add_argument("--seed", type=int, help="override the config seed")
    t.add_argument("--k", type=int,
                   help="drastic-day substep count (mode=april only)")
    t.set_defaults(run=cmd_train)

    e = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    e.add_argument("checkpoint", help="checkpoint CSV from train")
    e.add_argument("--data", required=True, help="dataset directory")
    e.add_argument("--out", required=True, help="output directory")
    e.add_argument("--config", help="train config JSON: report RMSE on its "
                                    "validation split instead of all days")
    e.add_argument("--k", type=int, default=REFERENCE_SUBSTEPS,
                   help=f"reference substep count (default {REFERENCE_SUBSTEPS})")
    e.set_defaults(run=cmd_evaluate)

    s = sub.add_parser("sweep", help="train across a conservation-weight grid")
    s.add_argument("--config", required=True, help="sweep grid config JSON")
    s.add_argument("--data", required=True, help="dataset directory")
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--seed", type=int, help="override the config seed")
    s.add_argument("--threads", type=int, default=1,
                   help="parallel sweep points (each point stays single-threaded)")
    s.set_defaults(run=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    args.started = time.monotonic()
    try:
        # The same int64 range the config fields are held to.
        for flag, low in (("seed", 0), ("k", 1), ("threads", 1)):
            value = getattr(args, flag, None)
            if value is not None and not is_int64(value):
                raise ConfigError(f"--{flag} must be an integer in the int64 range")
            if value is not None and value < low:
                raise ConfigError(f"--{flag} must be >= {low}")
        # Non-finite numbers are caught by the program's own checks (exit 3 for a
        # non-finite loss, DomainError from the physics kernel), so numpy's
        # floating-point warnings would only repeat them as stderr noise.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.run(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # Covers the package error taxonomy (all ValueError subclasses)
        # plus unreadable paths.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # A config asking for more than memory holds, e.g. a huge n_years.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
