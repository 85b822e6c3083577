"""Training losses: pooled supervised error plus hinged mass-consistency terms.

The consistency penalty for one task is the mean of ReLU(|pred - target| - tau)
over the days where both the prediction and the mass-balance target are
defined (the first day never is). Each day's target is affine in the previous
day's predictions with coefficients that depend only on the lake data, so a
window's physics can be captured once as per-day (A, c) pairs and replayed
cheaply inside the gradient tape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import DomainError
from .networks import predictor_forward_tape
from .physics import simulate_targets
from .series import TASK_NAMES, LakeSeries, stacked_observations

__all__ = [
    "LossParts",
    "supervised_loss",
    "mass_conservation_loss",
    "combined_loss",
    "affine_day_coefficients",
    "window_cache",
    "stack_windows",
    "WindowBatch",
    "build_window_batch",
    "taped_window_loss",
]


@dataclass(frozen=True)
class LossParts:
    ml: float
    mc_epi: float
    mc_hyp: float
    mc_total: float
    total: float


def _check_weights(lambdas, tau: float) -> tuple[float, float, float]:
    lams = tuple(float(x) for x in lambdas)
    if len(lams) != 3:
        raise DomainError("lambdas must be (epi, hyp, total)")
    for lam in lams:
        if not np.isfinite(lam) or lam < 0:
            raise DomainError("lambda weights must be finite and >= 0")
    if not np.isfinite(tau) or tau < 0:
        raise DomainError("tau must be finite and >= 0")
    return lams


def supervised_loss(pred: np.ndarray, obs: np.ndarray) -> float:
    """Mean squared error pooled over every finite observation cell."""
    pred = np.asarray(pred, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    if pred.shape != obs.shape:
        raise DomainError("pred and obs must have the same shape")
    mask = np.isfinite(obs)
    if not mask.any():
        warnings.warn("supervised loss over zero observations", RuntimeWarning,
                      stacklevel=2)
        return 0.0
    d = pred[mask] - obs[mask]
    return float(np.mean(d * d))


def mass_conservation_loss(pred: np.ndarray, target: np.ndarray, tau: float) -> float:
    """Mean ReLU(|pred - target| - tau) over cells defined in both arrays."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DomainError("pred and target must have the same shape")
    if not np.isfinite(tau) or tau < 0:
        raise DomainError("tau must be finite and >= 0")
    mask = np.isfinite(pred) & np.isfinite(target)
    if not mask.any():
        return 0.0
    hinge = np.maximum(np.abs(pred[mask] - target[mask]) - tau, 0.0)
    return float(np.mean(hinge))


def combined_loss(preds: np.ndarray, series: LakeSeries, lambdas, tau: float) -> LossParts:
    """Value-level total loss for one series given raw (T, 3) predictions.

    Consistency terms with a zero weight are skipped outright, so an
    all-zero weighting is structurally the supervised loss alone.
    """
    lams = _check_weights(lambdas, tau)
    preds = np.asarray(preds, dtype=np.float64)
    ml = supervised_loss(preds, stacked_observations(series))
    mc = [0.0, 0.0, 0.0]
    if any(lams):
        targets = simulate_targets(series, preds)
        for task in range(3):
            if lams[task] > 0:
                mc[task] = mass_conservation_loss(preds[:, task], targets[:, task], tau)
    total = ml + lams[0] * mc[0] + lams[1] * mc[1] + lams[2] * mc[2]
    return LossParts(ml=ml, mc_epi=mc[0], mc_hyp=mc[1], mc_total=mc[2], total=total)


def affine_day_coefficients(series: LakeSeries, k_per_day=None
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-day target coefficients: target_t = A[t] @ pred_{t-1} + c[t].

    The mass-balance step is affine in the previous day's concentrations
    (its branches depend only on volumes and regimes), so the coefficients
    come from simulating the basis predictions. Returns (A (T,3,3),
    c (T,3), defined (T,3)); undefined entries are zeroed in A and c.
    """
    t_count = series.n_days
    zeros = np.zeros((t_count, 3))
    base = simulate_targets(series, zeros, k_per_day=k_per_day)
    a = np.empty((t_count, 3, 3))
    for j in range(3):
        basis = np.zeros((t_count, 3))
        basis[:, j] = 1.0
        a[:, :, j] = simulate_targets(series, basis, k_per_day=k_per_day) - base
    defined = np.isfinite(base)
    return np.nan_to_num(a), np.nan_to_num(base), defined


@dataclass(frozen=True)
class WindowBatch:
    """Equal-length training windows stacked for one taped forward pass.

    Day-major layouts match the taped forward output (days, windows, ...).
    obs is NaN-filled with zeros; obs_mask marks the real cells.
    """

    features: np.ndarray          # (windows, days, n_features)
    obs: np.ndarray               # (days, windows, 3), zeros where unobserved
    obs_mask: np.ndarray          # (days, windows, 3) bool
    a: np.ndarray                 # (days, windows, 3, 3)
    c: np.ndarray                 # (days, windows, 3)
    defined: np.ndarray           # (days, windows, 3) bool

    @property
    def n_days(self) -> int:
        return self.features.shape[1]


def window_cache(series: LakeSeries, k_per_day=None) -> WindowBatch:
    """One window as a one-window batch, physics coefficients precomputed once."""
    obs_raw = stacked_observations(series)
    obs_mask = np.isfinite(obs_raw)
    a, c, defined = (x[:, None] for x in affine_day_coefficients(series, k_per_day))
    return WindowBatch(features=series.features[None],
                       obs=np.where(obs_mask, obs_raw, 0.0)[:, None],
                       obs_mask=obs_mask[:, None], a=a, c=c, defined=defined)


def stack_windows(caches: Sequence[WindowBatch]) -> WindowBatch:
    """Concatenate same-length cached windows into one batch (day-major layouts)."""
    if not caches:
        raise DomainError("need at least one window")
    shape = caches[0].features.shape[1:]
    for w in caches:
        if w.features.shape[1:] != shape:
            raise DomainError("all windows must share length and feature width")
    features = np.concatenate([w.features for w in caches])
    obs = np.concatenate([w.obs for w in caches], axis=1)
    obs_mask = np.concatenate([w.obs_mask for w in caches], axis=1)
    a = np.concatenate([w.a for w in caches], axis=1)
    c = np.concatenate([w.c for w in caches], axis=1)
    defined = np.concatenate([w.defined for w in caches], axis=1)
    return WindowBatch(features=features, obs=obs, obs_mask=obs_mask,
                       a=a, c=c, defined=defined)


def build_window_batch(windows: Sequence[LakeSeries], k_per_day=None) -> WindowBatch:
    """Stack same-length windows; k_per_day is one array per window (or None)."""
    if not windows:
        raise DomainError("need at least one window")
    if k_per_day is None:
        k_per_day = [None] * len(windows)
    if len(k_per_day) != len(windows):
        raise DomainError("k_per_day must have one entry per window")
    return stack_windows([window_cache(w, k_per_day=k) for w, k in zip(windows, k_per_day)])


def taped_window_loss(tape: ad.Tape, pvars: dict[str, ad.Var], batch: WindowBatch,
                      lambdas, tau: float) -> dict:
    """Differentiable batch loss.

    Returns {"loss", "ml", "mc_epi", "mc_hyp", "mc_total"}.
    Zero-weighted consistency terms emit no tape nodes at all (their parts
    stay None), which keeps an all-zero weighting bit-identical to a purely
    supervised program.
    """
    lams = _check_weights(lambdas, tau)
    parts: dict = {"ml": None, "mc_epi": None, "mc_hyp": None, "mc_total": None}
    # out is (days, windows, 3).
    out = predictor_forward_tape(pvars, batch.features)
    obs = tape.constant(batch.obs)
    ml = ad.masked_mean(ad.sqdiff(out, obs), batch.obs_mask)
    loss = ml
    parts["ml"] = ml
    if any(lams):
        t_count = batch.n_days
        prev = out[0 : t_count - 1]
        cur = out[1:t_count]
        for task in range(3):
            if lams[task] == 0:
                continue
            target = None
            for j in range(3):
                coef = tape.constant(batch.a[1:, :, task, j])
                term = ad.mul(prev[:, :, j], coef)
                target = term if target is None else ad.add(target, term)
            target = ad.add(target, tape.constant(batch.c[1:, :, task]))
            resid = ad.absval(ad.sub(cur[:, :, task], target))
            hinge = ad.relu(ad.add_const(resid, -tau))
            mc = ad.masked_mean(hinge, batch.defined[1:, :, task])
            parts[f"mc_{TASK_NAMES[task]}"] = mc
            loss = ad.add(loss, ad.scale(mc, lams[task]))
    parts["loss"] = loss
    return parts
