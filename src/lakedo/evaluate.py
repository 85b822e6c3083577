"""Evaluation metrics and exports: mass inconsistency, comparison table, time series.

Mass inconsistency measures how far predictions drift from the balance
scheme re-seeded from those same predictions: the mean over days 2..T of
|prediction - one-day-ahead simulation target|, per task, with the
stratified simulation run at a configurable reference substep count
(k = 192 by default; k = 1 gives the daily-scheme variant).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import DomainError
from .physics import simulate_targets
from .series import TASK_NAMES, LakeSeries, _write_rows, format_value, stacked_observations

__all__ = [
    "REFERENCE_SUBSTEPS",
    "TIMESERIES_COLUMNS",
    "mass_inconsistency",
    "regime_masked_predictions",
    "write_comparison",
    "export_timeseries",
]

REFERENCE_SUBSTEPS = 192

TIMESERIES_COLUMNS = (
    "date",
    "pred_epi", "pred_hyp", "pred_total",
    "sim_epi", "sim_hyp", "sim_total",
    "obs_epi", "obs_hyp", "obs_total",
    "true_epi", "true_hyp", "true_total",
)


def _check_pred_shape(preds, n_days: int) -> np.ndarray:
    preds = np.asarray(preds, dtype=np.float64)
    if preds.shape != (n_days, 3):
        raise DomainError(f"predictions must have shape ({n_days}, 3)")
    return preds


def mass_inconsistency(preds: np.ndarray, series: LakeSeries,
                       k_reference: int = REFERENCE_SUBSTEPS,
                       days: np.ndarray | None = None,
                       targets: np.ndarray | None = None) -> np.ndarray:
    """Per-task mean |prediction - balance target| over defined days.

    Each day's target is the one-day-ahead simulation seeded from the
    previous day's predictions, so the metric is zero exactly when the
    predictions already follow the scheme. `days` optionally restricts the
    mean to a boolean day subset (scenario-flagged days, say); a task with
    no defined day in the subset comes back NaN. `targets` takes that
    simulation when the caller already ran it at k_reference; the
    simulation reads only regime-defined prediction cells, so masked or raw
    predictions give the same targets.
    """
    t = series.n_days
    if t < 2:
        raise DomainError("mass inconsistency needs at least two days")
    preds = _check_pred_shape(preds, t)
    if targets is None:
        k_per_day = np.full(t, int(k_reference), dtype=np.int64)
        targets = simulate_targets(series, preds, k_per_day=k_per_day)
    else:
        targets = _check_pred_shape(targets, t)
    include = np.isfinite(targets)
    if days is not None:
        days = np.asarray(days, dtype=bool)
        if days.shape != (t,):
            raise DomainError("day subset must be a boolean mask over all days")
        include &= days[:, None]
    out = np.full(3, np.nan)
    for task in range(3):
        m = include[:, task]
        if m.any():
            out[task] = float(np.mean(np.abs(preds[m, task] - targets[m, task])))
    return out


def regime_masked_predictions(preds: np.ndarray, series: LakeSeries) -> np.ndarray:
    """Copy of raw (T, 3) predictions with regime-undefined cells set to NaN."""
    preds = _check_pred_shape(preds, series.n_days).copy()
    preds[~series.stratified, 0] = np.nan
    preds[~series.stratified, 1] = np.nan
    preds[series.stratified, 2] = np.nan
    return preds


def write_comparison(path: str | Path, model: str, rmse: np.ndarray,
                     inconsistency: np.ndarray) -> None:
    """Write the one-model comparison table: per-task RMSE, its std, inconsistency.

    The table holds one seed, so each RMSE std is 0, or NaN (an empty cell)
    where the RMSE is NaN.
    """
    header = ["model"]
    row = [model]
    for task, r, c in zip(TASK_NAMES, rmse, inconsistency):
        header += [f"{task}_rmse_mean", f"{task}_rmse_std", f"{task}_inconsistency"]
        row += [format_value(r), format_value(np.std([r])), format_value(c)]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, row])


def export_timeseries(path: str | Path, series: LakeSeries, preds: np.ndarray,
                      simulated: np.ndarray, truth: np.ndarray | None = None) -> None:
    """Plot-ready per-day CSV of predictions, simulation, observations, truth.

    `simulated` is the reference simulation seeded from the predictions
    (simulate_targets at the reference k), the one mass_inconsistency takes
    as `targets`. Absent values (undefined regime cells, missing
    observations, no truth) render as empty fields.
    """
    t = series.n_days
    preds = _check_pred_shape(preds, t)
    simulated = _check_pred_shape(simulated, t)
    if truth is None:
        truth = np.full((t, 3), np.nan)
    else:
        truth = _check_pred_shape(truth, t)
    blocks = np.hstack([preds, simulated, stacked_observations(series), truth])
    _write_rows(path, TIMESERIES_COLUMNS, [series.dates.tolist()], blocks.T)
