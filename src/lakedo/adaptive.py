"""Adaptive substep selection: label unstable days, learn to spot them, retrain.

Stage 1 trains the generator as usual with single daily mass-balance steps.
Stage 2 labels stratified days: a day whose prediction error exceeds gamma
(a multiple of the pooled residual RMSE) is numerically drastic, and a day
whose epilimnion volume moves by more than the volume threshold is drastic
no matter what anything else says. The labeled days then train a small
discriminator. Stage 3 lets the discriminator classify the unlabeled days,
assigns substep counts (1 for mild, k_drastic for drastic), and fine-tunes
the generator from the stage-1 weights against the refined targets. If no
day anywhere is drastic the fine-tune is skipped outright, so the result
is bit-identical to stage 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .autodiff import sigmoid_values
from .errors import DomainError, bounded, check_config_fields
from .networks import (
    DiscriminatorParams,
    PredictorParams,
    discriminator_activations,
    discriminator_forward,
    init_discriminator,
    predictor_forward_series,
)
from .series import LakeSeries, _write_rows, relative_epi_volume_change, stacked_observations
from .training import (
    TrainConfig,
    TrainHistory,
    TrainResult,
    _root_mean,
    _squared_residuals,
    adam_init,
    adam_update,
    train_pril,
)

__all__ = [
    "AprilConfig",
    "DayLabel",
    "AprilResult",
    "discriminator_inputs",
    "residual_gamma",
    "label_drastic_days",
    "train_discriminator",
    "classify_days",
    "k_policy_from_labels",
    "write_labels",
    "train_april",
]

LABEL_COLUMNS = ("date", "class", "provenance", "k")

VOLUME_RULE = "VOLUME_RULE"
ERROR_RULE = "ERROR_RULE"
DISCRIMINATOR = "DISCRIMINATOR"
FALLBACK = "FALLBACK"


@dataclass(frozen=True)
class AprilConfig:
    gamma_factor: float = bounded(1.5, gt=0)
    volume_change_threshold: float = bounded(0.20, gt=0)
    k_drastic: int = bounded(12, ge=1)
    mild_probability_threshold: float = bounded(0.5, gt=0, lt=1)
    disc_hidden: tuple[int, ...] = bounded((32, 32), ge=1)
    disc_learning_rate: float = bounded(0.01, gt=0)
    disc_epochs: int = bounded(200, ge=1)
    finetune_epochs: int = bounded(50, ge=1)

    def __post_init__(self) -> None:
        check_config_fields(self)


class DayLabel(NamedTuple):
    day: int            # positional index within the series
    date: int
    mild: bool
    provenance: str
    k: int


class _RuleLabel(NamedTuple):
    mild: bool
    provenance: str


@dataclass(frozen=True)
class AprilResult:
    params: PredictorParams
    history: TrainHistory
    labels: dict[str, list[DayLabel]]
    k_policies: dict[str, np.ndarray]
    discriminator: DiscriminatorParams | None
    stage1: TrainResult
    stage3: TrainResult | None   # None when every day came out mild
    gamma: float

    @property
    def stage3_ran(self) -> bool:
        return self.stage3 is not None


def discriminator_inputs(series: LakeSeries) -> np.ndarray:
    """Per-day classifier inputs: features plus the raw relative volume change."""
    return np.column_stack([series.features, relative_epi_volume_change(series)])


def residual_gamma(lakes: Sequence[LakeSeries],
                   preds_by_lake: dict[str, np.ndarray],
                   factor: float) -> float:
    """gamma = factor times the RMSE pooled over every observed layer residual."""
    layers = [np.where(lake.stratified[:, None], stacked_observations(lake)[:, :2], np.nan)
              for lake in lakes]
    squares = [sq for _, sq in _squared_residuals(
        layers, [preds_by_lake[lake.lake_id] for lake in lakes])]
    if not squares:
        raise DomainError("no observed layer residuals to calibrate gamma")
    return float(factor * _root_mean(squares))


def label_drastic_days(series: LakeSeries, preds: np.ndarray, gamma: float,
                       volume_threshold: float) -> dict[int, _RuleLabel]:
    """Rule labels for the stratified days the rules can actually judge.

    A day with any observed layer residual above gamma is drastic; a day
    whose epilimnion volume moved by more than volume_threshold is drastic
    regardless of residuals (that provenance wins). Unobserved days without
    a volume trigger stay unlabeled.
    """
    if gamma < 0 or volume_threshold <= 0:
        raise DomainError("gamma must be >= 0 and volume_threshold > 0")
    layers = stacked_observations(series)[:, :2]
    worst = np.fmax.reduce(np.abs(preds[:, :2] - layers), axis=1)
    volume = np.abs(relative_epi_volume_change(series)) > volume_threshold
    judged = series.stratified & (volume | np.isfinite(layers).any(axis=1))
    return {int(t): _RuleLabel(mild=False, provenance=VOLUME_RULE) if volume[t]
            else _RuleLabel(mild=bool(worst[t] <= gamma), provenance=ERROR_RULE)
            for t in np.flatnonzero(judged)}


def train_discriminator(inputs: np.ndarray, is_mild: np.ndarray, april: AprilConfig,
                        seed) -> DiscriminatorParams:
    """Weighted-BCE training of the mild/drastic classifier (full batch Adam).

    The minority class is upweighted by the class-count ratio so a handful
    of drastic days still shapes the boundary.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    is_mild = np.asarray(is_mild, dtype=bool)
    if inputs.ndim != 2 or is_mild.shape != (inputs.shape[0],):
        raise DomainError("inputs must be (n, f) with one label per row")
    n_mild = int(is_mild.sum())
    n_drastic = is_mild.size - n_mild
    if n_mild == 0 or n_drastic == 0:
        raise DomainError("labeled days are single-class; classify by rules alone")
    ratio = max(n_mild, n_drastic) / min(n_mild, n_drastic)
    w_mild, w_drastic = (1.0, ratio) if n_mild >= n_drastic else (ratio, 1.0)
    denom = w_mild * n_mild + w_drastic * n_drastic

    params = dict(init_discriminator(inputs.shape[1], hidden=april.disc_hidden,
                                     seed=seed).to_blocks())
    opt = adam_init(params)
    n_layers = len(params) // 2
    # d loss / d logit is -w_mild / denom * sigmoid(-z) on mild rows and
    # w_drastic / denom * sigmoid(z) on drastic rows; the layers are then
    # backpropagated by hand with the tape's arithmetic.
    mild_col = is_mild[:, None]
    scale = -1.0 / denom
    coef = np.where(mild_col, scale * w_mild, -(scale * w_drastic))
    sign = np.where(mild_col, -1.0, 1.0)
    for _ in range(april.disc_epochs):
        acts = discriminator_activations(
            [(params[f"layer{li}_w"], params[f"layer{li}_b"]) for li in range(n_layers)], inputs)
        g = coef * sigmoid_values(sign * acts[-1])
        grads = {}
        for li in range(n_layers - 1, -1, -1):
            h = acts[li]
            grads[f"layer{li}_w"] = h.T @ g
            grads[f"layer{li}_b"] = g.sum(axis=0)
            if li:
                g = (g @ params[f"layer{li}_w"].T) * (1.0 - h * h)
        params, opt = adam_update(params, grads, opt, april.disc_learning_rate)
    return DiscriminatorParams.from_blocks(params)


def classify_days(series: LakeSeries, rules: dict[int, _RuleLabel],
                  discriminator: DiscriminatorParams | None, april: AprilConfig,
                  fallback_mild: bool = True) -> list[DayLabel]:
    """Final per-day labels for every stratified day.

    Precedence: volume rule, then error rule, then the discriminator
    (drastic when its mild probability drops below the threshold), then the
    fallback class for days nothing can judge.
    """
    days = np.flatnonzero(series.stratified).tolist()
    undecided = [t for t in days if t not in rules]
    p_mild = {}
    if discriminator is not None and undecided:
        probs = discriminator_forward(discriminator, discriminator_inputs(series)[undecided])
        p_mild = dict(zip(undecided, probs.tolist()))
    labels = []
    for t in days:
        rule = rules.get(t)
        if rule is not None:
            mild, provenance = rule.mild, rule.provenance
        elif discriminator is not None:
            mild = p_mild[t] >= april.mild_probability_threshold
            provenance = DISCRIMINATOR
        else:
            mild, provenance = fallback_mild, FALLBACK
        labels.append(DayLabel(day=t, date=int(series.dates[t]), mild=mild,
                               provenance=provenance,
                               k=1 if mild else april.k_drastic))
    return labels


def k_policy_from_labels(series: LakeSeries, labels: Sequence[DayLabel]) -> np.ndarray:
    """Per-day substep counts: labeled stratified days keep their k, the rest 1."""
    k = np.ones(series.n_days, dtype=np.int64)
    for label in labels:
        k[label.day] = label.k
    return k


def write_labels(path: str | Path, labels: Sequence[DayLabel]) -> None:
    _write_rows(path, LABEL_COLUMNS,
                [[label.date for label in labels],
                 ["MILD" if label.mild else "DRASTIC" for label in labels],
                 [label.provenance for label in labels],
                 [label.k for label in labels]], [])


def train_april(lakes: Sequence[LakeSeries], config: TrainConfig,
                april: AprilConfig | None = None) -> AprilResult:
    """Full adaptive pipeline: train, label, learn the labels, retrain.

    Deterministic given config.seed. When every stratified day comes out
    mild the stage-3 fine-tune is skipped and the returned parameters are
    exactly the stage-1 parameters.
    """
    april = april or AprilConfig()
    stage1 = train_pril(lakes, config)
    preds = predictor_forward_series(stage1.params, [lake.features for lake in lakes])
    preds_by_lake = {lake.lake_id: p for lake, p in zip(lakes, preds)}
    gamma = residual_gamma(lakes, preds_by_lake, april.gamma_factor)
    rules = {lake.lake_id: label_drastic_days(lake, preds_by_lake[lake.lake_id],
                                              gamma, april.volume_change_threshold)
             for lake in lakes}

    rows, is_mild = [], []
    for lake in lakes:
        inputs = discriminator_inputs(lake)
        for t, rule in sorted(rules[lake.lake_id].items()):
            rows.append(inputs[t])
            is_mild.append(rule.mild)
    is_mild = np.asarray(is_mild, dtype=bool)

    discriminator = None
    fallback_mild = True
    if rows and 0 < int(is_mild.sum()) < is_mild.size:
        discriminator = train_discriminator(
            np.vstack(rows), is_mild, april,
            seed=np.random.SeedSequence([config.seed, 3]))
    elif rows:
        # Single-class labels: no boundary to learn; propagate the one class.
        fallback_mild = bool(is_mild[0])

    labels = {lake.lake_id: classify_days(lake, rules[lake.lake_id], discriminator,
                                          april, fallback_mild=fallback_mild)
              for lake in lakes}
    k_policies = {lake.lake_id: k_policy_from_labels(lake, labels[lake.lake_id])
                  for lake in lakes}

    stage3, history = None, stage1.history
    if any(not label.mild for per_lake in labels.values() for label in per_lake):
        stage3 = train_pril(lakes, replace(config, max_epochs=april.finetune_epochs),
                            k_policies=k_policies, initial_params=stage1.params)
        history = TrainHistory(rows=list(stage1.history.rows))
        history.extend_renumbered(stage3.history)
    return AprilResult(params=(stage3 or stage1).params, history=history, labels=labels,
                       k_policies=k_policies, discriminator=discriminator,
                       stage1=stage1, stage3=stage3, gamma=gamma)
