"""Forward-Euler oxygen mass-balance steps for a two-layer lake.

Concentrations are g m^-3, volumes m^3, exogenous fluxes g m^-3 day^-1
relative to the start-of-day volume. Every step is a pure function on
broadcastable arrays (scalar inputs come back as np.float64), and is affine
in the previous day's concentrations, which keeps the gradient of any loss
routed through these steps exact. Simulated values may go negative; that is deliberate (the
daily scheme's instability is the signal the adaptive trainer feeds on),
so nothing here clamps unless explicitly asked to by the synthetic
generator's clamp flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, bounded, check_config_fields
from .series import VOLUME_CHANGE_REL_TOL, LakeSeries

__all__ = [
    "EntrainmentFluxes",
    "SubstepConfig",
    "entrainment_fluxes_daily",
    "simulate_stratified_step",
    "closed_form_hyp_shrink",
    "closed_form_epi_shrink",
    "entrainment_fluxes_substep",
    "multi_step_euler",
    "mass_balance_residual",
    "simulate_targets",
]


@dataclass(frozen=True)
class EntrainmentFluxes:
    """Signed thermocline transport, g m^-3 day^-1 relative to receiving volumes."""

    f_epi: float | np.ndarray
    f_hyp: float | np.ndarray


@dataclass(frozen=True)
class SubstepConfig:
    """Sub-daily Euler resolution: k substeps spanning one day."""

    k: int = bounded(1, ge=1)

    def __post_init__(self) -> None:
        check_config_fields(self)


def _require_finite(**named) -> None:
    # A Python float (np.float64 included) is checked without numpy's per-call cost.
    for name, value in named.items():
        if not (math.isfinite(value) if isinstance(value, float)
                else np.all(np.isfinite(value))):
            raise DomainError(f"{name} must be finite")


def _require_positive(**named) -> None:
    for name, value in named.items():
        if isinstance(value, float):
            ok = math.isfinite(value) and value > 0
        else:
            value = np.asarray(value)
            ok = np.all(np.isfinite(value) & (value > 0))
        if not ok:
            raise DomainError(f"{name} must be positive and finite")


def _check_volume_consistency(v_epi_prev, v_epi_cur, v_hyp_prev, v_hyp_cur) -> None:
    volumes = (v_epi_prev, v_epi_cur, v_hyp_prev, v_hyp_cur)
    if all(isinstance(v, float) for v in volumes):
        d_epi = v_epi_cur - v_epi_prev
        d_hyp = v_hyp_cur - v_hyp_prev
        inconsistent = abs(d_epi + d_hyp) > VOLUME_CHANGE_REL_TOL * (v_epi_cur + v_hyp_cur)
    else:
        d_epi = np.asarray(v_epi_cur, dtype=np.float64) - v_epi_prev
        d_hyp = np.asarray(v_hyp_cur, dtype=np.float64) - v_hyp_prev
        scale = np.asarray(v_epi_cur, dtype=np.float64) + v_hyp_cur
        inconsistent = np.any(np.abs(d_epi + d_hyp) > VOLUME_CHANGE_REL_TOL * scale)
    if inconsistent:
        raise DomainError("layer volume changes must cancel: the epilimnion gains exactly "
                          "what the hypolimnion loses")


def entrainment_fluxes_daily(v_epi_prev, v_epi_cur, v_hyp_prev, v_hyp_cur,
                             y_epi_prev, y_hyp_prev) -> EntrainmentFluxes:
    """Daily thermocline transport between the layers.

    The moving water carries the concentration of the layer it leaves: the
    hypolimnion's when the epilimnion grows (thermocline deepens), the
    epilimnion's when it shrinks. The mass moved is the epilimnion's signed
    volume change times that source concentration; the epilimnion gains it
    and the hypolimnion loses it, each divided by its current-day volume, so
    the transported mass cancels to rounding, f_epi * v_epi_cur + f_hyp *
    v_hyp_cur = 0, even where the layers' volume changes cancel only within
    the consistency tolerance.
    """
    _require_positive(v_epi_prev=v_epi_prev, v_epi_cur=v_epi_cur,
                      v_hyp_prev=v_hyp_prev, v_hyp_cur=v_hyp_cur)
    _require_finite(y_epi_prev=y_epi_prev, y_hyp_prev=y_hyp_prev)
    _check_volume_consistency(v_epi_prev, v_epi_cur, v_hyp_prev, v_hyp_cur)
    v_epi_prev = np.asarray(v_epi_prev, dtype=np.float64)
    moved = (v_epi_cur - v_epi_prev) * np.where(v_epi_cur >= v_epi_prev, y_hyp_prev, y_epi_prev)
    return EntrainmentFluxes(f_epi=moved / v_epi_cur, f_hyp=-moved / v_hyp_cur)


def simulate_stratified_step(y_epi_prev, y_hyp_prev, f_exo_epi, f_exo_hyp,
                             v_epi_prev, v_epi_cur, v_hyp_prev, v_hyp_cur):
    """One daily two-layer step: exogenous mass, volume rescaling, entrainment.

    Per layer: y_new = (y_prev + f_exo) * (v_prev / v_cur) + f_ent,
    evaluated in mass form so that a single Algorithm substep (k = 1 in
    multi_step_euler) reproduces it bit for bit.
    """
    _require_finite(y_epi_prev=y_epi_prev, y_hyp_prev=y_hyp_prev,
                    f_exo_epi=f_exo_epi, f_exo_hyp=f_exo_hyp)
    ent = entrainment_fluxes_daily(v_epi_prev, v_epi_cur, v_hyp_prev, v_hyp_cur,
                                   y_epi_prev, y_hyp_prev)
    y_e = (np.asarray(y_epi_prev, np.float64) * v_epi_prev + np.asarray(f_exo_epi, np.float64) * v_epi_prev) / v_epi_cur + ent.f_epi
    y_h = (np.asarray(y_hyp_prev, np.float64) * v_hyp_prev + np.asarray(f_exo_hyp, np.float64) * v_hyp_prev) / v_hyp_cur + ent.f_hyp
    return y_e, y_h


def closed_form_hyp_shrink(y_hyp_prev, f_exo_hyp, v_hyp_prev, v_hyp_cur):
    """Hypolimnion update when the epilimnion grows: y + f_exo * (v_prev / v_cur).

    Entrainment out of a shrinking layer cancels its own rescaling, leaving
    only the exogenous term amplified by the volume ratio. A strong negative
    flux into a sharply shrinking hypolimnion drives this far below zero in
    a single daily step; that overshoot is the daily scheme's failure mode.
    """
    _require_positive(v_hyp_prev=v_hyp_prev, v_hyp_cur=v_hyp_cur)
    _require_finite(y_hyp_prev=y_hyp_prev, f_exo_hyp=f_exo_hyp)
    if np.any(np.asarray(v_hyp_cur) > np.asarray(v_hyp_prev)):
        raise DomainError("closed_form_hyp_shrink requires a shrinking (or constant) hypolimnion")
    return np.asarray(y_hyp_prev, np.float64) + np.asarray(f_exo_hyp, np.float64) * (np.asarray(v_hyp_prev, np.float64) / v_hyp_cur)


def closed_form_epi_shrink(y_epi_prev, f_exo_epi, v_epi_prev, v_epi_cur):
    """Epilimnion update when it shrinks: y + f_exo * (v_prev / v_cur)."""
    _require_positive(v_epi_prev=v_epi_prev, v_epi_cur=v_epi_cur)
    _require_finite(y_epi_prev=y_epi_prev, f_exo_epi=f_exo_epi)
    if np.any(np.asarray(v_epi_cur) > np.asarray(v_epi_prev)):
        raise DomainError("closed_form_epi_shrink requires a shrinking (or constant) epilimnion")
    return np.asarray(y_epi_prev, np.float64) + np.asarray(f_exo_epi, np.float64) * (np.asarray(v_epi_prev, np.float64) / v_epi_cur)


@lru_cache(maxsize=64)
def _interpolation_weights(k: int) -> tuple[tuple[float, float], ...]:
    """The (1 - t, t) pairs that weigh the day's start and end volumes at the
    end of each substep (t = 1/k, ..., 1), as floats."""
    return tuple((1.0 - t, t) for t in (np.arange(1, k + 1, dtype=np.float64) / k).tolist())


def entrainment_fluxes_substep(dv_epi, y_src, v_epi_next, v_hyp_next) -> EntrainmentFluxes:
    """Per-substep thermocline transport for an epilimnion volume increment dv_epi."""
    _require_positive(v_epi_next=v_epi_next, v_hyp_next=v_hyp_next)
    _require_finite(dv_epi=dv_epi, y_src=y_src)
    moved = np.asarray(dv_epi, dtype=np.float64) * y_src
    return EntrainmentFluxes(f_epi=moved / v_epi_next, f_hyp=-moved / v_hyp_next)


def multi_step_euler(y_epi_prev, y_hyp_prev, f_exo_epi, f_exo_hyp,
                     v_epi_prev, v_epi_cur, v_hyp_prev, v_hyp_cur,
                     cfg: SubstepConfig = SubstepConfig(), clamp: bool = False):
    """One day advanced in cfg.k sub-daily Euler steps.

    Volumes are interpolated linearly across the day; each substep moves the
    exogenous mass f_exo * dt_sub * v_prev (rates are relative to the
    start-of-day volume), rescales by the interpolated volumes, then applies
    entrainment sourced from the running substep concentration. Inputs are
    checked once on entry and the day's result once on exit (an overflow
    raises).

    The clamp flag exists for the synthetic generator's ground-truth
    integration only. It floors both layers at zero after every substep (as
    np.maximum does: -0.0 becomes 0.0, a NaN survives to the exit check) and
    returns a third value, `floored`: True where some substep ended at or
    below zero, or at NaN, in either layer. Where it is False no floor
    changed a bit, so the clamp=False call from the same start state ends in
    the same bits.

    Both loops interpolate each substep's volumes from the same cached
    (1 - t, t) weights. A single day (every input 0-d) runs the loop on
    Python floats, which do the same IEEE-754 arithmetic without numpy's
    per-call cost and call no function per substep. The day comes back as
    np.float64 values (and a bool `floored`).
    """
    _require_finite(y_epi_prev=y_epi_prev, y_hyp_prev=y_hyp_prev,
                    f_exo_epi=f_exo_epi, f_exo_hyp=f_exo_hyp)
    _require_positive(v_epi_prev=v_epi_prev, v_epi_cur=v_epi_cur,
                      v_hyp_prev=v_hyp_prev, v_hyp_cur=v_hyp_cur)
    _check_volume_consistency(v_epi_prev, v_epi_cur, v_hyp_prev, v_hyp_cur)
    inputs = (y_epi_prev, y_hyp_prev, f_exo_epi, f_exo_hyp, v_epi_prev, v_epi_cur, v_hyp_prev, v_hyp_cur)
    k = cfg.k
    dt_sub = 1.0 / k
    on_floats = all(isinstance(v, (float, int)) or getattr(v, "ndim", 1) == 0 for v in inputs)
    y_e, y_h, f_e, f_h, ve_p, ve_c, vh_p, vh_c = (
        map(float, inputs) if on_floats else (np.asarray(v, dtype=np.float64) for v in inputs))
    exo_e = f_e * dt_sub * ve_p
    exo_h = f_h * dt_sub * vh_p
    dv_epi = (ve_c - ve_p) / k
    grow = ve_c >= ve_p
    if on_floats:
        e, h, ve_0, vh_0, floored = y_e, y_h, ve_p, vh_p, False
        try:
            for a, b in _interpolation_weights(k):
                ve_1 = ve_p * a + ve_c * b
                vh_1 = vh_p * a + vh_c * b
                moved = dv_epi * (h if grow else e)
                e = (e * ve_0 + exo_e) / ve_1 + moved / ve_1
                h = (h * vh_0 + exo_h) / vh_1 - moved / vh_1
                if clamp and not (e > 0.0 and h > 0.0):
                    floored = True
                    e = e if e > 0.0 or e != e else 0.0
                    h = h if h > 0.0 or h != h else 0.0
                ve_0, vh_0 = ve_1, vh_1
        except ZeroDivisionError:
            # Two subnormal volumes weighed (0.5, 0.5) interpolate to 0. The
            # array loop ends such a day in NaN and raises at its exit check.
            raise DomainError("interpolated layer volumes must be positive") from None
        _require_finite(y_epi_new=e, y_hyp_new=h)
        day = (np.float64(e), np.float64(h))
        return (*day, floored) if clamp else day
    ve_0, vh_0, floored = ve_p, vh_p, False
    for a, b in _interpolation_weights(k):
        ve_1 = ve_p * a + ve_c * b
        vh_1 = vh_p * a + vh_c * b
        moved = dv_epi * np.where(grow, y_h, y_e)
        y_e = (y_e * ve_0 + exo_e) / ve_1 + moved / ve_1
        y_h = (y_h * vh_0 + exo_h) / vh_1 - moved / vh_1
        if clamp:
            floored = floored | ~((y_e > 0.0) & (y_h > 0.0))
            y_e = np.maximum(y_e, 0.0)
            y_h = np.maximum(y_h, 0.0)
        ve_0, vh_0 = ve_1, vh_1
    _require_finite(y_epi_new=y_e, y_hyp_new=y_h)
    return (y_e, y_h, floored) if clamp else (y_e, y_h)


def mass_balance_residual(y_epi_prev, y_hyp_prev, y_epi_new, y_hyp_new,
                          v_epi_prev, v_epi_cur, v_hyp_prev, v_hyp_cur,
                          f_exo_epi, f_exo_hyp):
    """Signed mass defect of a candidate step, in grams.

    Total mass after the step, minus total mass before, minus the net
    exogenous mass added over the day. Zero (to rounding) for any state produced
    by simulate_stratified_step or multi_step_euler without clamping.
    """
    after = np.asarray(y_epi_new, np.float64) * v_epi_cur + np.asarray(y_hyp_new, np.float64) * v_hyp_cur
    before = np.asarray(y_epi_prev, np.float64) * v_epi_prev + np.asarray(y_hyp_prev, np.float64) * v_hyp_prev
    exo = (np.asarray(f_exo_epi, np.float64) * v_epi_prev + np.asarray(f_exo_hyp, np.float64) * v_hyp_prev)
    return after - before - exo


def simulate_targets(series: LakeSeries, preds, k_per_day=None) -> np.ndarray:
    """Per-day mass-balance targets, each seeded from the previous day's predictions.

    preds: (T, 3) array of epi/hyp/total, NaN where undefined. k_per_day:
    per-day substep counts for stratified steps (default 1 everywhere; mixed
    days ignore it). Returns (T, 3) in the same layout, NaN wherever a task
    is undefined (always on day 1). Days are independent given the
    predictions, so stratified steps are vectorized per distinct substep count.
    """
    t_count = series.n_days
    if k_per_day is None:
        k_per_day = np.ones(t_count, dtype=np.int64)
    k_per_day = np.asarray(k_per_day)
    if k_per_day.shape != (t_count,):
        raise DomainError("k_per_day must have one entry per day")
    if np.any(k_per_day < 1):
        raise DomainError("substep counts must be >= 1")
    if not isinstance(preds, np.ndarray) or preds.shape != (t_count, 3):
        raise DomainError(f"prediction array must have shape ({t_count}, 3)")
    preds = preds.astype(np.float64, copy=False)
    pred_epi, pred_hyp, pred_total = preds[:, 0], preds[:, 1], preds[:, 2]
    v_epi, v_hyp = series.v_epi, series.v_hyp
    sim_epi = np.full(t_count, np.nan)
    sim_hyp = np.full(t_count, np.nan)
    sim_total = np.full(t_count, np.nan)

    prev_strat = series.stratified[:-1]
    cur_strat = series.stratified[1:]
    day = np.arange(1, t_count)

    # Mixed pair: plain exogenous step on the total.
    sel = day[~prev_strat & ~cur_strat]
    sim_total[sel] = pred_total[sel - 1] + series.f_exo_total[sel - 1]

    # Spring onset: both layers inherit the previous day's total prediction.
    sel = day[~prev_strat & cur_strat]
    sim_epi[sel] = pred_total[sel - 1]
    sim_hyp[sel] = pred_total[sel - 1]

    # Fall turnover: volume-weighted mixture of the previous day's layers.
    sel = day[prev_strat & ~cur_strat]
    sim_total[sel] = (pred_epi[sel - 1] * v_epi[sel - 1]
                      + pred_hyp[sel - 1] * v_hyp[sel - 1]) / series.v_total[sel - 1]

    # Stratified pair: the two-layer scheme, grouped by substep count.
    strat_days = day[prev_strat & cur_strat]
    ks = np.asarray(k_per_day, dtype=np.int64)[strat_days]
    # Not np.unique: it imports numpy.ma on first use (about 12 ms a process).
    for kval in sorted(set(ks.tolist())):
        sel = strat_days[ks == kval]
        y_e, y_h = multi_step_euler(
            pred_epi[sel - 1], pred_hyp[sel - 1],
            series.f_exo_epi[sel - 1], series.f_exo_hyp[sel - 1],
            v_epi[sel - 1], v_epi[sel], v_hyp[sel - 1], v_hyp[sel],
            cfg=SubstepConfig(k=int(kval)),
        )
        sim_epi[sel] = y_e
        sim_hyp[sel] = y_h
    return np.stack([sim_epi, sim_hyp, sim_total], axis=1)

