"""Adam training over year-long windows with validation early stopping.

Each lake is cut into consecutive fixed-length windows; the first
train_years windows feed the gradient, the rest are held out, and the
pooled held-out RMSE decides when to stop. The whole loop is a pure
function of the lake data and the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .errors import DomainError, TrainingDiverged, bounded, check_config_fields
from .losses import stack_windows, taped_window_loss, window_cache
from .networks import (
    MAX_HIDDEN,
    MIN_HIDDEN,
    PredictorParams,
    init_predictor,
    predictor_forward_series,
)
from .series import LakeSeries, format_value, stacked_observations

__all__ = [
    "TrainConfig",
    "AdamState",
    "adam_init",
    "adam_update",
    "HistoryRow",
    "TrainHistory",
    "write_history",
    "TrainResult",
    "year_windows",
    "pooled_rmse",
    "validation_rmse",
    "train_pril",
]

#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lambda_epi: float = bounded(0.0, ge=0)
    lambda_hyp: float = bounded(0.0, ge=0)
    lambda_total: float = bounded(0.0, ge=0)
    tau_mc: float = bounded(0.05, ge=0)
    learning_rate: float = bounded(0.005, ge=0.001, le=0.05)
    batch_size: int = bounded(8, ge=8, le=32)
    max_epochs: int = bounded(150, ge=1)
    patience: int = bounded(15, ge=1)
    hidden_size: int = bounded(20, ge=MIN_HIDDEN, le=MAX_HIDDEN)
    seed: int = bounded(0, ge=0)
    window_days: int = bounded(365, ge=2)
    train_years: int = bounded(2, ge=1)

    def __post_init__(self) -> None:
        check_config_fields(self)

    @property
    def lambdas(self) -> tuple[float, float, float]:
        return (self.lambda_epi, self.lambda_hyp, self.lambda_total)


@dataclass(frozen=True)
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(m={k: np.zeros_like(v) for k, v in params.items()},
                     v={k: np.zeros_like(v) for k, v in params.items()},
                     step=0)


def adam_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                state: AdamState, lr: float) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam step; returns fresh arrays, mutates nothing."""
    step = state.step + 1
    new_params, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        m = ADAM_BETA1 * state.m[k] + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[k] + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** step)
        v_hat = v / (1 - ADAM_BETA2 ** step)
        new_params[k] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[k] = m
        new_v[k] = v
    return new_params, AdamState(m=new_m, v=new_v, step=step)


class HistoryRow(NamedTuple):
    epoch: int
    loss_ml: float
    loss_mc_epi: float
    loss_mc_hyp: float
    loss_mc_total: float
    val_rmse_epi: float
    val_rmse_hyp: float
    val_rmse_total: float


HISTORY_COLUMNS = HistoryRow._fields


@dataclass
class TrainHistory:
    rows: list[HistoryRow] = field(default_factory=list)

    def extend_renumbered(self, other: "TrainHistory") -> None:
        offset = self.rows[-1].epoch if self.rows else 0
        for row in other.rows:
            self.rows.append(row._replace(epoch=row.epoch + offset))


def write_history(path: str | Path, history: TrainHistory) -> None:
    lines = [",".join(HISTORY_COLUMNS)]
    for row in history.rows:
        lines.append(",".join([str(row.epoch)] + [format_value(x) for x in row[1:]]))
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class TrainResult:
    params: PredictorParams
    history: TrainHistory
    best_epoch: int
    best_val_rmse: float
    tape_nodes: int          # size of the last batch's gradient tape
    backward_visits: int     # nodes its backward pass processed


def year_windows(series: LakeSeries, window_days: int = 365) -> list[tuple[int, LakeSeries]]:
    """Consecutive full-length windows as (start_day, window); remainder dropped."""
    n = series.n_days // window_days
    return [(i * window_days, series.subseries(i * window_days, (i + 1) * window_days))
            for i in range(n)]


def _split_windows(lake: LakeSeries, config: TrainConfig
                   ) -> tuple[list[tuple[int, LakeSeries]], list[LakeSeries]]:
    """The train/validation split: (start_day, window) pairs that train, windows that validate.

    The first train_years windows train and every later one validates; a
    lake with no more than train_years windows has no validation window.
    """
    windows = year_windows(lake, config.window_days)
    return windows[: config.train_years], [w for _, w in windows[config.train_years :]]


def _prepare_windows(lakes: Sequence[LakeSeries], config: TrainConfig,
                     k_policies: dict[str, np.ndarray] | None):
    """Per-lake window split into cached train windows and raw validation windows."""
    if not lakes:
        raise DomainError("need at least one lake")
    train_caches: list = []
    val_windows: list[LakeSeries] = []
    for lake in lakes:
        train, val = _split_windows(lake, config)
        if not val:
            raise DomainError(
                f"lake {lake.lake_id}: need more than {config.train_years} "
                f"windows of {config.window_days} days, got {len(train)}")
        k_full = None
        if k_policies is not None:
            k_full = np.asarray(k_policies[lake.lake_id])
            if k_full.shape != (lake.n_days,):
                raise DomainError(f"lake {lake.lake_id}: k policy must cover every day")
        for start, window in train:
            k_slice = None if k_full is None else k_full[start : start + config.window_days]
            train_caches.append(window_cache(window, k_per_day=k_slice))
        val_windows.extend(val)
    if not any(np.isfinite(stacked_observations(w)).any() for w in val_windows):
        raise DomainError("validation windows contain no observations")
    return train_caches, val_windows


def _squared_residuals(observed: Sequence[np.ndarray], preds: Sequence[np.ndarray]):
    """(task, squared residuals) over each series' observed (finite) cells, series by series."""
    for obs, pred in zip(observed, preds):
        for task in range(obs.shape[1]):
            mask = np.isfinite(obs[:, task])
            if mask.any():
                d = pred[mask, task] - obs[mask, task]
                yield task, d * d


def _root_mean(squares: list[np.ndarray]) -> float:
    return float(np.sqrt(np.mean(np.concatenate(squares)))) if squares else float("nan")


def pooled_rmse(windows: Sequence[LakeSeries], preds: Sequence[np.ndarray]
                ) -> tuple[float, float, float, float]:
    """Per-task and pooled RMSE of per-window (days, 3) predictions (NaN if none observed)."""
    cells = list(_squared_residuals([stacked_observations(w) for w in windows], preds))
    by_task = [[sq for t, sq in cells if t == task] for task in range(3)]
    epi, hyp, total = (_root_mean(squares) for squares in by_task)
    return epi, hyp, total, _root_mean([sq for squares in by_task for sq in squares])


def validation_rmse(params: PredictorParams, val_windows: Sequence[LakeSeries]
                     ) -> tuple[float, float, float, float]:
    """Per-task and pooled RMSE over every held-out observation (NaN if none).

    All windows, of any lengths, run as one batched forward.
    """
    preds = predictor_forward_series(params, [w.features for w in val_windows])
    return pooled_rmse(val_windows, preds)


def train_pril(lakes: Sequence[LakeSeries], config: TrainConfig,
               k_policies: dict[str, np.ndarray] | None = None,
               initial_params: PredictorParams | None = None) -> TrainResult:
    """Train the generator against supervised plus mass-consistency losses.

    k_policies: optional per-lake substep counts (one int per day) for the
    consistency targets; default is single daily steps. initial_params seeds
    fine-tuning instead of a fresh init. Deterministic given config.seed.

    Each epoch ends with one validation forward, after its last Adam step and
    the parameter-finiteness check; the epoch's history row and the
    early-stop decision come from it.
    """
    train_caches, val_windows = _prepare_windows(lakes, config, k_policies)
    m = lakes[0].n_features
    init_ss, shuffle_ss = np.random.SeedSequence(config.seed).spawn(2)
    if initial_params is None:
        initial_params = init_predictor(m, config.hidden_size, init_ss)
    elif initial_params.n_features != m:
        raise DomainError("initial params expect a different feature width")
    params = dict(initial_params.to_blocks())
    opt = adam_init(params)
    rng = np.random.default_rng(shuffle_ss)

    history = TrainHistory()
    best_rmse = float("inf")
    best_epoch = 0
    best_params = dict(params)
    n_train = len(train_caches)
    tape_nodes = backward_visits = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n_train)
        part_sums = dict.fromkeys(("ml", "mc_epi", "mc_hyp", "mc_total"), 0.0)
        for lo in range(0, n_train, config.batch_size):
            chunk = order[lo : lo + config.batch_size]
            batch = stack_windows([train_caches[i] for i in chunk])
            tape = ad.Tape()
            pvars = {k: tape.param(v) for k, v in params.items()}
            parts = taped_window_loss(tape, pvars, batch, config.lambdas, config.tau_mc)
            loss = parts["loss"]
            if not np.isfinite(loss.value):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            grads = tape.backward(loss)
            tape_nodes, backward_visits = len(tape.values), tape.backward_visits
            params, opt = adam_update(params, {k: grads[pvars[k].idx] for k in params},
                                      opt, config.learning_rate)
            for k in part_sums:
                if parts[k] is not None:
                    part_sums[k] += float(parts[k].value) * len(chunk)
            # Every name that reaches this batch's tape goes before the next
            # forward, so only one batch's BPTT cache is ever alive.
            del tape, pvars, parts, loss, grads
        if any(not np.isfinite(p).all() for p in params.values()):
            raise TrainingDiverged(f"non-finite parameters at epoch {epoch}")
        v_epi, v_hyp, v_total, pooled = validation_rmse(PredictorParams.from_blocks(params),
                                                        val_windows)
        history.rows.append(HistoryRow(
            epoch=epoch,
            loss_ml=part_sums["ml"] / n_train,
            loss_mc_epi=part_sums["mc_epi"] / n_train,
            loss_mc_hyp=part_sums["mc_hyp"] / n_train,
            loss_mc_total=part_sums["mc_total"] / n_train,
            val_rmse_epi=v_epi, val_rmse_hyp=v_hyp, val_rmse_total=v_total))
        if pooled < best_rmse:
            best_rmse, best_epoch, best_params = pooled, epoch, dict(params)
        elif epoch - best_epoch >= config.patience:
            break
    return TrainResult(params=PredictorParams.from_blocks(best_params), history=history,
                       best_epoch=best_epoch, best_val_rmse=best_rmse,
                       tape_nodes=tape_nodes, backward_visits=backward_visits)
