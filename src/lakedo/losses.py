"""Training losses: pooled supervised error plus hinged mass-consistency terms.

The consistency penalty for one task is the mean of ReLU(|pred - target| - tau)
over the days where both the prediction and the mass-balance target are
defined (the first day never is). Each day's target is affine in the previous
day's predictions with coefficients that depend only on the lake data, so a
window's physics can be captured once as per-day (A, c) pairs and replayed
cheaply inside the gradient tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import DomainError
from .networks import predictor_forward_tape
from .physics import simulate_targets
from .series import TASK_NAMES, LakeSeries, stacked_observations

__all__ = [
    "affine_day_coefficients",
    "window_cache",
    "stack_windows",
    "WindowBatch",
    "taped_window_loss",
]


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
