"""Synthetic two-layer lake corpus with finely substepped ground truth.

Each lake gets a fixed total volume, a summer stratified span with a
drifting, noisy, occasionally shocked thermocline, gentle seasonal
exogenous fluxes, and a dissolved-oxygen truth trajectory integrated at
truth_substeps sub-daily Euler steps, clamped at zero. A day is recorded as
clamped when the zero floor acted on it: a mixed day whose total fell below
zero, or a stratified day whose clamped step reports `floored`. Its mass
budget intentionally does not close.
Observations are sparse daily visits with additive noise. Two stress
scenarios can be injected on stratified days: A collapses the hypolimnion
volume with an oxygen-demand kick the day before, B collapses the
epilimnion with a production kick. Both make the single-step daily scheme
overshoot while the finely substepped truth stays tame.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, SchemaError, bounded, check_config_fields
from .physics import SubstepConfig, multi_step_euler
from .series import (LakeSeries, _parse_rows, _read_csv, _write_rows,
                     relative_epi_volume_change, validate_series)

__all__ = [
    "GenConfig",
    "GeneratedLake",
    "generate",
    "generate_lake",
    "write_truth",
    "load_truth",
]

TRUTH_COLUMNS = ("date", "true_epi", "true_hyp", "true_total", "scenario_tag")

FEATURE_COUNT = 10


@dataclass(frozen=True)
class GenConfig:
    n_lakes: int = bounded(4, ge=1)
    n_years: int = bounded(3, ge=1)
    seed: int = bounded(0, ge=0)
    v_total: float = bounded(2_000_000.0, gt=0)
    year_days: int = 365
    strat_start: int = 135
    strat_end: int = 315
    epi_frac_start: float = bounded(0.30, gt=0, lt=1)
    epi_frac_end: float = bounded(0.55, gt=0, lt=1)
    epi_frac_ar: float = bounded(0.85, ge=0, lt=1)
    epi_frac_noise: float = bounded(0.01, ge=0)
    shock_probability: float = bounded(0.02, ge=0, lt=1)
    shock_scale: float = 0.25
    initial_do: float = bounded(10.0, ge=0)
    epi_flux_peak: float = 0.08
    hyp_demand_base: float = 0.07
    hyp_demand_ramp: float = 0.09
    flux_noise: float = bounded(0.01, ge=0)
    mixed_flux_amplitude: float = 0.05
    # Above 0: a dataset without observations cannot train anything.
    obs_sparsity: float = bounded(0.15, gt=0, le=1)
    obs_noise_sd: float = bounded(0.3, ge=0)
    scenario_a_count: int = bounded(1, ge=0)
    scenario_b_count: int = bounded(1, ge=0)
    scenario_shrink_ratio: float = bounded(10.0, ge=10)
    scenario_flux: float = 2.0
    truth_substeps: int = bounded(192, ge=1)

    def __post_init__(self) -> None:
        check_config_fields(self)
        if not 1 <= self.strat_start < self.strat_end:
            raise ConfigError("strat_start must lie in [1, strat_end)")
        if self.strat_end > self.year_days:
            raise ConfigError("strat_end must be <= year_days")
        if 8 * self.n_years * self.year_days > np.iinfo(np.intp).max:
            # Past this, numpy cannot even size the int64 calendar.
            raise ConfigError(f"n_years * year_days = {self.n_years * self.year_days} "
                              "days, more than a numpy array can hold")


@dataclass(frozen=True)
class GeneratedLake:
    """A generated series plus everything the series deliberately hides."""

    series: LakeSeries
    truth: np.ndarray          # (days, 3) epi/hyp/total, NaN where undefined
    scenario_tags: np.ndarray  # (days,) '', 'A', or 'B'
    clamped: np.ndarray        # (days,) True where the zero floor acted: a mixed
                               # total fell below zero, or a stratified step
                               # reports `floored`
    obs_days: np.ndarray       # (days,) sampling visits


@dataclass
class _Draft:
    """Mutable raw arrays a lake is assembled from."""

    dates: np.ndarray
    stratified: np.ndarray
    v_total: np.ndarray
    v_epi: np.ndarray          # NaN on mixed days
    f_epi: np.ndarray          # NaN on mixed days
    f_hyp: np.ndarray          # NaN on mixed days
    f_mixed: np.ndarray        # total-water flux used on mixed days
    scenario_tags: np.ndarray

    @property
    def v_hyp(self) -> np.ndarray:
        return np.where(self.stratified, self.v_total - self.v_epi, np.nan)


def _regime_calendar(cfg: GenConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dates, day of year, the stratified mask, and progress through the stratified span."""
    t = cfg.n_years * cfg.year_days
    dates = np.arange(1, t + 1, dtype=np.int64)
    doy = (dates - 1) % cfg.year_days
    stratified = (doy >= cfg.strat_start) & (doy < cfg.strat_end)
    span = cfg.strat_end - cfg.strat_start
    progress = np.clip((doy - cfg.strat_start) / max(span - 1, 1), 0.0, 1.0)
    return dates, doy, stratified, progress


def _volumes(cfg: GenConfig, rng: np.random.Generator,
             stratified: np.ndarray, progress: np.ndarray) -> np.ndarray:
    """Per-day epilimnion volume: seasonal ramp + AR(1) wiggle + rare shocks."""
    ramp = cfg.epi_frac_start + (cfg.epi_frac_end - cfg.epi_frac_start) * progress
    frac = [np.nan] * progress.size
    state = 0.0
    for i, (strat, r) in enumerate(zip(stratified.tolist(), ramp.tolist())):
        if not strat:
            state = 0.0
            continue
        state = cfg.epi_frac_ar * state + rng.normal(0.0, cfg.epi_frac_noise)
        if rng.random() < cfg.shock_probability:
            state += np.sign(rng.random() - 0.5) * cfg.shock_scale * r
        frac[i] = min(max(r + state, 0.08), 0.92)    # np.clip on floats
    return np.array(frac) * cfg.v_total


def _fluxes(cfg: GenConfig, rng: np.random.Generator, stratified: np.ndarray,
            doy: np.ndarray, progress: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t = doy.size
    season = np.sin(np.pi * progress)            # peaks mid-span
    f_epi = np.where(stratified,
                     cfg.epi_flux_peak * season + rng.normal(0, cfg.flux_noise, t),
                     np.nan)
    f_hyp = np.where(stratified,
                     -(cfg.hyp_demand_base + cfg.hyp_demand_ramp * progress)
                     + rng.normal(0, cfg.flux_noise, t),
                     np.nan)
    f_mixed = (cfg.mixed_flux_amplitude * np.sin(2 * np.pi * doy / cfg.year_days)
               + rng.normal(0, cfg.flux_noise, t))
    return f_epi, f_hyp, f_mixed


def _integrate_truth(cfg: GenConfig, draft: _Draft) -> tuple[np.ndarray, np.ndarray]:
    """Ground truth by forward integration, stratified days finely substepped."""
    t = draft.dates.size
    strat = draft.stratified.tolist()
    # Python floats: numpy scalars' arithmetic without their per-operation cost.
    ve, vh, vt, f_epi, f_hyp, f_mixed = (a.tolist() for a in (
        draft.v_epi, draft.v_hyp, draft.v_total, draft.f_epi, draft.f_hyp, draft.f_mixed))
    epi, hyp, tot = [np.nan] * t, [np.nan] * t, [np.nan] * t
    tot[0] = float(cfg.initial_do)
    clamped = np.zeros(t, dtype=bool)
    sub = SubstepConfig(k=cfg.truth_substeps)
    for i in range(1, t):
        if not strat[i - 1] and not strat[i]:
            total = tot[i - 1] + f_mixed[i - 1]
            clamped[i] = total < 0.0
            tot[i] = max(total, 0.0)
        elif not strat[i - 1]:
            epi[i] = hyp[i] = tot[i] = tot[i - 1]
        elif strat[i]:
            e, h, clamped[i] = multi_step_euler(epi[i - 1], hyp[i - 1], f_epi[i - 1],
                                                f_hyp[i - 1], ve[i - 1], ve[i], vh[i - 1],
                                                vh[i], cfg=sub, clamp=True)
            # float(): the stepper returns numpy scalars.
            e, h = float(e), float(h)
            epi[i], hyp[i] = e, h
            tot[i] = (e * ve[i] + h * vh[i]) / vt[i]
        else:
            tot[i] = (epi[i - 1] * ve[i - 1] + hyp[i - 1] * vh[i - 1]) / vt[i - 1]
    truth = np.column_stack([epi, hyp, tot])
    bad = np.flatnonzero(~np.isfinite(truth[:, 2]))
    if bad.size:
        raise DomainError(f"truth total is not finite on day {draft.dates[bad[0]]}")
    return truth, clamped


def _features(cfg: GenConfig, draft: _Draft, doy: np.ndarray, weather: np.ndarray,
              f_total: np.ndarray) -> np.ndarray:
    strat = draft.stratified
    raw = np.column_stack([
        np.sin(2 * np.pi * doy / cfg.year_days),
        np.cos(2 * np.pi * doy / cfg.year_days),
        strat.astype(np.float64),
        np.where(strat, draft.v_epi / draft.v_total, 0.0),
        relative_epi_volume_change(draft),
        np.where(strat, draft.f_epi, 0.0),
        np.where(strat, draft.f_hyp, 0.0),
        f_total,
        weather,
        doy / cfg.year_days,
    ])
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    centered = raw - mean
    return np.where(std > 1e-12, centered / np.where(std > 1e-12, std, 1.0), 0.0)


def _combined_total_flux(draft: _Draft) -> np.ndarray:
    """Whole-lake flux column: the mixed flux, or the volume-weighted layer mix."""
    # Layer columns are NaN on mixed days, where the outer where takes f_mixed.
    return np.where(draft.stratified,
                    (draft.f_epi * draft.v_epi + draft.f_hyp * draft.v_hyp) / draft.v_total,
                    draft.f_mixed)


def _observations(obs_days: np.ndarray, noise: np.ndarray, stratified: np.ndarray,
                  truth: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noisy observations, clipped at 0: layers on stratified visit days, total on mixed ones."""
    layers, total = obs_days & stratified, obs_days & ~stratified
    return (np.where(layers, np.maximum(truth[:, 0] + noise[:, 0], 0.0), np.nan),
            np.where(layers, np.maximum(truth[:, 1] + noise[:, 1], 0.0), np.nan),
            np.where(total, np.maximum(truth[:, 2] + noise[:, 0], 0.0), np.nan))


def _apply_scenario(cfg: GenConfig, draft: _Draft, day: int, kind: str) -> None:
    """Apply scenario kind "A" or "B" at a stratified day with a stratified predecessor."""
    t = draft.dates.size
    span_end = day
    while span_end < t and draft.stratified[span_end]:
        span_end += 1
    v_epi = draft.v_epi
    if kind == "A":
        # Hypolimnion collapses; demand kick the day before. The tail keeps
        # its old relative shape so later dynamics survive the rescale.
        old_tail = (draft.v_total[day:span_end] - v_epi[day:span_end]).copy()
        new_at_day = (draft.v_total[day - 1] - v_epi[day - 1]) / cfg.scenario_shrink_ratio
        draft.v_epi[day:span_end] = draft.v_total[day:span_end] - \
            new_at_day * (old_tail / old_tail[0])
        draft.f_hyp[day - 1] = -cfg.scenario_flux
    else:
        # Epilimnion collapses; production kick the day before.
        old_tail = v_epi[day:span_end].copy()
        new_at_day = v_epi[day - 1] / cfg.scenario_shrink_ratio
        draft.v_epi[day:span_end] = new_at_day * (old_tail / old_tail[0])
        draft.f_epi[day - 1] = cfg.scenario_flux
    draft.scenario_tags[day] = kind


def _pick_scenario_days(rng: np.random.Generator, stratified: np.ndarray,
                        count: int, taken: list[int]) -> list[int]:
    eligible = np.flatnonzero(stratified & np.roll(stratified, 1))
    eligible = eligible[eligible >= 1]
    rng.shuffle(eligible)
    picked: list[int] = []
    for day in eligible:
        if len(picked) == count:
            break
        if all(abs(int(day) - d) >= 3 for d in taken + picked):
            picked.append(int(day))
    if len(picked) < count:
        raise DomainError("not enough stratified days for the requested scenarios")
    return picked


def generate_lake(cfg: GenConfig, index: int) -> GeneratedLake:
    """One lake, deterministic in (cfg.seed, index)."""
    streams = np.random.SeedSequence([cfg.seed, index]).spawn(6)
    vol_rng, flux_rng, weather_rng, visit_rng, noise_rng, scen_rng = \
        (np.random.default_rng(s) for s in streams)

    dates, doy, stratified, progress = _regime_calendar(cfg)
    t = dates.size
    v_epi = _volumes(cfg, vol_rng, stratified, progress)
    f_epi, f_hyp, f_mixed = _fluxes(cfg, flux_rng, stratified, doy, progress)
    draft = _Draft(dates=dates, stratified=stratified,
                   v_total=np.full(t, cfg.v_total), v_epi=v_epi,
                   f_epi=f_epi, f_hyp=f_hyp, f_mixed=f_mixed,
                   scenario_tags=np.full(t, "", dtype="<U1"))

    plan: list[tuple[int, str]] = []
    for kind, count in (("A", cfg.scenario_a_count), ("B", cfg.scenario_b_count)):
        days = _pick_scenario_days(scen_rng, stratified, count, [d for d, _ in plan])
        plan += [(day, kind) for day in days]
    # Ascending order: each tail rewrite reads the already-shifted draft, so
    # an earlier scenario's day-over-day jump survives a later one in the
    # same stratified span.
    for day, kind in sorted(plan):
        _apply_scenario(cfg, draft, day, kind)

    weather_noise = weather_rng.normal(0.0, 1.0, t)
    weather = np.empty(t)
    state = 0.0
    for i in range(t):
        state = 0.9 * state + weather_noise[i]
        weather[i] = state
    obs_days = visit_rng.random(t) < cfg.obs_sparsity
    noise = noise_rng.normal(0.0, cfg.obs_noise_sd, (t, 2))
    truth, clamped = _integrate_truth(cfg, draft)
    f_total = _combined_total_flux(draft)
    obs_epi, obs_hyp, obs_total = _observations(obs_days, noise, stratified, truth)
    series = LakeSeries(
        # Bare two-digit id: series files are written as lake_{id}.csv, and the
        # loader drops that prefix, so this survives a write/load round trip.
        lake_id=f"{index:02d}",
        dates=dates,
        stratified=stratified,
        v_total=draft.v_total,
        v_epi=draft.v_epi,
        v_hyp=draft.v_hyp,
        f_exo_total=f_total,
        f_exo_epi=draft.f_epi,
        f_exo_hyp=draft.f_hyp,
        obs_total=obs_total,
        obs_epi=obs_epi,
        obs_hyp=obs_hyp,
        features=_features(cfg, draft, doy, weather, f_total),
    )
    report = validate_series(series)
    if not report.ok:
        raise DomainError(f"generated series failed validation: {report.entries[:3]}")
    return GeneratedLake(series=series, truth=truth, scenario_tags=draft.scenario_tags,
                         clamped=clamped, obs_days=obs_days)


def generate(cfg: GenConfig) -> list[GeneratedLake]:
    return [generate_lake(cfg, i) for i in range(cfg.n_lakes)]


def write_truth(path: str | Path, lake: GeneratedLake) -> None:
    _write_rows(path, TRUTH_COLUMNS, [lake.series.dates.tolist()], lake.truth.T,
                [lake.scenario_tags.tolist()])


def load_truth(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a truth file back as (dates, truth (n,3), tags); cells follow the lake file's rules."""
    rows = _read_csv(path)
    if not rows or tuple(rows[0]) != TRUTH_COLUMNS:
        raise SchemaError(f"{path}: malformed truth header")
    dates, tags, truth = _parse_rows(path, rows[0], rows[1:], 4, ("", "A", "B"))
    return dates, np.column_stack(truth), np.asarray(tags, dtype="<U1")
