"""Labeling rules, discriminator training, and the adaptive pipeline paths."""

import csv
import math

import numpy as np
import pytest

from lakedo.adaptive import (
    DISCRIMINATOR,
    ERROR_RULE,
    FALLBACK,
    VOLUME_RULE,
    AprilConfig,
    DayLabel,
    classify_days,
    discriminator_inputs,
    k_policy_from_labels,
    label_drastic_days,
    residual_gamma,
    train_april,
    train_discriminator,
    write_labels,
)
from lakedo import autodiff as ad
from lakedo.adaptive import _RuleLabel
from lakedo.errors import ConfigError, DomainError
from lakedo.networks import discriminator_logits_tape, init_discriminator
from lakedo.series import relative_epi_volume_change
from lakedo.training import TrainConfig, adam_init, adam_update, train_pril

from conftest import make_series


def quick_config(**kw):
    defaults = dict(learning_rate=0.05, batch_size=8, max_epochs=3, patience=3,
                    hidden_size=20, seed=1, window_days=20, train_years=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


def striped_obs_lake(jump_days=(), lake_id="a0", obs_epi=6.0, obs_hyp=4.0, windows=4):
    """Windows of M + 18 S + M with constant layer observations.

    jump_days: stratified day indices whose epilimnion volume leaps 30%
    relative to the day before (everything else ramps gently).
    """
    pattern = "M" + "S" * 18 + "M"
    regimes = pattern * windows
    t = len(regimes)
    strat = np.array([c == "S" for c in regimes])
    v_epi = np.where(strat, 100.0 + 0.5 * np.arange(t), np.nan)
    for d in jump_days:
        assert strat[d] and strat[d - 1]
        v_epi[d:] = np.where(strat[d:], v_epi[d:] + 0.3 * v_epi[d - 1], v_epi[d:])
    obs = {d: (obs_epi, obs_hyp, None) for d in range(t) if strat[d]}
    rng = np.random.default_rng(7)
    return make_series(regimes, lake_id=lake_id, v_epi=v_epi, obs=obs,
                       features=rng.normal(size=(t, 2)))


class TestVolumeChange:
    def test_relative_change_definition(self):
        series = make_series("MSSSM")   # ramp: 102, 104, 106 on days 1..3
        rel = relative_epi_volume_change(series)
        assert rel[0] == 0.0 and rel[4] == 0.0
        assert rel[1] == 0.0                       # onset day has no previous layer
        assert rel[2] == (104.0 - 102.0) / 102.0
        assert rel[3] == (106.0 - 104.0) / 104.0

    def test_discriminator_inputs_append_raw_change(self):
        series = make_series("MSSSM")
        x = discriminator_inputs(series)
        assert x.shape == (5, 3)
        np.testing.assert_array_equal(x[:, :2], series.features)
        np.testing.assert_array_equal(x[:, 2], relative_epi_volume_change(series))


class TestResidualGamma:
    def test_pooled_rmse_oracle(self):
        series = make_series("MSSSM",
                             obs={1: (5.0, None, None), 2: (5.0, None, None),
                                  3: (5.0, None, None)})
        preds = np.zeros((5, 3))
        preds[1, 0], preds[2, 0], preds[3, 0] = 6.0, 4.0, 7.0   # residuals 1, -1, 2
        gamma = residual_gamma([series], {series.lake_id: preds}, factor=1.5)
        assert gamma == pytest.approx(1.5 * np.sqrt(2.0), rel=1e-12)

    def test_two_lakes_both_layers_match_lake_by_lake_pooling(self):
        lakes = [striped_obs_lake(lake_id="a0", windows=2),
                 striped_obs_lake(lake_id="b1", obs_epi=5.0, obs_hyp=3.0, windows=3)]
        rng = np.random.default_rng(11)
        preds_by_lake = {lake.lake_id: rng.normal(5.0, 2.0, size=(lake.n_days, 3))
                         for lake in lakes}
        # Oracle: squared residuals gathered lake by lake, epilimnion before
        # hypolimnion, over observed stratified days, then one mean.
        sq = []
        for lake in lakes:
            preds = preds_by_lake[lake.lake_id]
            for task, obs in ((0, lake.obs_epi), (1, lake.obs_hyp)):
                mask = np.isfinite(obs) & lake.stratified
                d = preds[mask, task] - obs[mask]
                sq.append(d * d)
        expected = float(1.5 * np.sqrt(np.mean(np.concatenate(sq))))
        assert residual_gamma(lakes, preds_by_lake, 1.5) == expected

    def test_no_observations_raises(self):
        series = make_series("MSSSM")
        with pytest.raises(DomainError, match="calibrate gamma"):
            residual_gamma([series], {series.lake_id: np.zeros((5, 3))}, 1.5)


class TestLabelRules:
    def test_error_rule_thresholding(self):
        series = make_series("MSSSM",
                             obs={1: (5.0, None, None), 2: (5.0, None, None)})
        preds = np.zeros((5, 3))
        preds[1, 0] = 5.5    # residual 0.5 <= gamma
        preds[2, 0] = 7.0    # residual 2.0 > gamma
        rules = label_drastic_days(series, preds, gamma=1.0, volume_threshold=0.2)
        assert rules[1] == _RuleLabel(mild=True, provenance=ERROR_RULE)
        assert rules[2] == _RuleLabel(mild=False, provenance=ERROR_RULE)
        assert 3 not in rules                      # unobserved, no volume trigger

    def test_either_layer_can_flag(self):
        series = make_series("MSSSM", obs={1: (5.0, 5.0, None)})
        preds = np.zeros((5, 3))
        preds[1, 0] = 5.1                          # epi fine
        preds[1, 1] = 9.0                          # hyp residual 4.0 shoots over
        rules = label_drastic_days(series, preds, gamma=1.0, volume_threshold=0.2)
        assert rules[1].mild is False

    def test_volume_rule_is_unconditional_and_wins(self):
        v_epi = [np.nan, 100.0, 131.0, 132.0, np.nan]   # 31% jump on day 2
        series = make_series("MSSSM", v_epi=v_epi, obs={2: (5.0, None, None)})
        preds = np.zeros((5, 3))
        preds[2, 0] = 5.0                          # perfect prediction
        rules = label_drastic_days(series, preds, gamma=1.0, volume_threshold=0.2)
        assert rules[2] == _RuleLabel(mild=False, provenance=VOLUME_RULE)

    def test_volume_threshold_is_strict(self):
        v_epi = [np.nan, 100.0, 120.0, 121.0, np.nan]   # exactly 20%
        series = make_series("MSSSM", v_epi=v_epi)
        rules = label_drastic_days(series, np.zeros((5, 3)), gamma=1.0,
                                   volume_threshold=0.2)
        assert 2 not in rules


class TestDiscriminator:
    def test_learns_separable_labels_despite_imbalance(self):
        rng = np.random.default_rng(0)
        x_mild = rng.uniform(0.5, 2.0, size=(20, 1))
        x_drastic = rng.uniform(-2.0, -0.5, size=(4, 1))
        inputs = np.vstack([x_mild, x_drastic])
        is_mild = np.array([True] * 20 + [False] * 4)
        april = AprilConfig(disc_epochs=300, disc_hidden=(8,))
        disc = train_discriminator(inputs, is_mild, april, seed=1)
        from lakedo.networks import discriminator_forward
        p = discriminator_forward(disc, inputs)
        assert np.all((p >= 0.5) == is_mild)

    def test_deterministic(self):
        inputs = np.array([[1.0], [2.0], [-1.0], [-2.0]])
        is_mild = np.array([True, True, False, False])
        april = AprilConfig(disc_epochs=50, disc_hidden=(8,))
        d1 = train_discriminator(inputs, is_mild, april, seed=3)
        d2 = train_discriminator(inputs, is_mild, april, seed=3)
        for k, v in d1.to_blocks().items():
            np.testing.assert_array_equal(d2.to_blocks()[k], v)

    @pytest.mark.parametrize("hidden", [(8,), (8, 5)])
    def test_hand_gradients_match_the_tape(self, hidden):
        # The weighted BCE as a tape program is the oracle: Adam fed the
        # tape's gradients must land on the same bytes in every epoch.
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(60, 3))
        is_mild = rng.random(60) < 0.75
        n_mild = int(is_mild.sum())
        n_drastic = is_mild.size - n_mild
        assert n_mild > n_drastic                   # drastic days are upweighted
        ratio = n_mild / n_drastic
        denom = n_mild + ratio * n_drastic
        params = dict(init_discriminator(3, hidden=hidden, seed=7).to_blocks())
        opt = adam_init(params)
        mild_mask = is_mild[:, None]
        for epochs in range(1, 6):
            tape = ad.Tape()
            pvars = {k: tape.param(v) for k, v in params.items()}
            z = discriminator_logits_tape(tape, pvars, inputs)
            pos = ad.masked_sum(ad.logsigmoid(z), mild_mask)
            neg = ad.masked_sum(ad.logsigmoid(ad.neg(z)), ~mild_mask)
            loss = ad.scale(ad.add(ad.scale(pos, 1.0), ad.scale(neg, ratio)), -1.0 / denom)
            grads = tape.backward(loss)
            params, opt = adam_update(params, {k: grads[pvars[k].idx] for k in params},
                                      opt, 0.01)
            disc = train_discriminator(inputs, is_mild,
                                       AprilConfig(disc_hidden=hidden, disc_epochs=epochs),
                                       seed=7)
            for name, value in disc.to_blocks().items():
                assert value.tobytes() == params[name].tobytes(), (epochs, name)

    def test_single_class_raises(self):
        with pytest.raises(DomainError, match="single-class"):
            train_discriminator(np.ones((3, 1)), np.array([True, True, True]),
                                AprilConfig(), seed=0)


class TestClassifyDays:
    def test_precedence_and_fallback(self):
        series = make_series("MSSSM")
        rules = {1: _RuleLabel(mild=False, provenance=VOLUME_RULE),
                 2: _RuleLabel(mild=True, provenance=ERROR_RULE)}
        labels = classify_days(series, rules, discriminator=None,
                               april=AprilConfig(), fallback_mild=False)
        by_day = {l.day: l for l in labels}
        assert set(by_day) == {1, 2, 3}
        assert by_day[1].provenance == VOLUME_RULE and by_day[1].k == 12
        assert by_day[2].provenance == ERROR_RULE and by_day[2].k == 1
        assert by_day[3].provenance == FALLBACK and not by_day[3].mild

    def test_discriminator_fills_unlabeled_days(self):
        series = make_series("MSSSM")
        # Classifier keyed on the appended volume-change column: gentle ramp
        # means small positive changes, trained mild there.
        train_x = np.array([[0.0, 0.0, 0.02], [0.0, 0.0, 0.019],
                            [0.0, 0.0, 0.5], [0.0, 0.0, 0.45]])
        disc = train_discriminator(train_x, np.array([True, True, False, False]),
                                   AprilConfig(disc_epochs=300, disc_hidden=(8,)),
                                   seed=2)
        labels = classify_days(series, {}, disc, AprilConfig())
        assert all(l.provenance == DISCRIMINATOR for l in labels)
        assert all(l.mild for l in labels)

    def test_one_batched_call_matches_per_day_decisions(self, monkeypatch):
        import lakedo.adaptive as adaptive
        from lakedo.networks import discriminator_forward
        series = make_series("MSSSSSSM", v_epi=[np.nan, 100.0, 104.0, 150.0, 151.0,
                                                120.0, 121.0, np.nan])
        train_x = np.array([[0.0, 0.0, 0.02], [0.0, 0.0, 0.01],
                            [0.0, 0.0, 0.5], [0.0, 0.0, -0.2]])
        disc = train_discriminator(train_x, np.array([True, True, False, False]),
                                   AprilConfig(disc_epochs=300, disc_hidden=(8,)),
                                   seed=2)
        rules = {2: _RuleLabel(mild=False, provenance=ERROR_RULE)}
        calls = []
        monkeypatch.setattr(adaptive, "discriminator_forward",
                            lambda params, x: calls.append(x.shape) or discriminator_forward(params, x))
        april = AprilConfig()
        labels = classify_days(series, rules, disc, april)
        assert calls == [(5, 3)]
        inputs = discriminator_inputs(series)
        assert [l.day for l in labels] == [1, 2, 3, 4, 5, 6]
        for label in labels:
            if label.day in rules:
                assert label.provenance == ERROR_RULE
                continue
            p_mild = discriminator_forward(disc, inputs[label.day])
            assert label.provenance == DISCRIMINATOR
            assert label.mild == (p_mild >= april.mild_probability_threshold)
        assert {l.mild for l in labels if l.provenance == DISCRIMINATOR} == {True, False}

    def test_k_policy_assembly(self):
        series = make_series("MSSSM")
        labels = [DayLabel(day=1, date=2, mild=True, provenance=ERROR_RULE, k=1),
                  DayLabel(day=2, date=3, mild=False, provenance=VOLUME_RULE, k=12),
                  DayLabel(day=3, date=4, mild=False, provenance=DISCRIMINATOR, k=12)]
        k = k_policy_from_labels(series, labels)
        np.testing.assert_array_equal(k, [1, 1, 12, 12, 1])


class TestLabelCsv:
    def test_round_trip_and_header(self, tmp_path):
        labels = [DayLabel(day=1, date=152, mild=True, provenance=ERROR_RULE, k=1),
                  DayLabel(day=2, date=153, mild=False, provenance=VOLUME_RULE, k=12)]
        path = tmp_path / "labels.csv"
        write_labels(path, labels)
        lines = path.read_text().splitlines()
        assert lines[0] == "date,class,provenance,k"
        assert lines[1] == "152,MILD,ERROR_RULE,1"
        assert lines[2] == "153,DRASTIC,VOLUME_RULE,12"
        assert len(lines) == 3


    @pytest.mark.parametrize("labels", [
        [],
        [DayLabel(day=0, date=-3, mild=True, provenance=VOLUME_RULE, k=1),
         DayLabel(day=1, date=0, mild=False, provenance=ERROR_RULE, k=12),
         DayLabel(day=2, date=2**62, mild=True, provenance=DISCRIMINATOR, k=1),
         DayLabel(day=3, date=7, mild=False, provenance=FALLBACK, k=192)],
    ], ids=["empty", "every-provenance"])
    def test_matches_per_row_writer(self, tmp_path, labels):
        # Oracle: the csv module, one row per label.
        write_labels(tmp_path / "got.csv", labels)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "class", "provenance", "k"])
            for label in labels:
                writer.writerow([label.date, "MILD" if label.mild else "DRASTIC",
                                 label.provenance, label.k])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestAprilPipeline:
    def test_all_mild_skips_stage_three_bitwise(self):
        lake = striped_obs_lake()
        cfg = quick_config(max_epochs=2)
        april = AprilConfig(finetune_epochs=2, disc_epochs=20)
        result = train_april([lake], cfg, april)
        assert result.stage3_ran is False
        assert result.discriminator is None
        assert all(l.mild for l in result.labels[lake.lake_id])
        assert np.all(result.k_policies[lake.lake_id] == 1)
        pril = train_pril([lake], cfg)
        for k, v in pril.params.to_blocks().items():
            np.testing.assert_array_equal(result.params.to_blocks()[k], v)
        # NaN-tolerant row comparison (unobserved tasks record NaN RMSE).
        np.testing.assert_array_equal(np.asarray(result.history.rows, dtype=float),
                                      np.asarray(pril.history.rows, dtype=float))

    def test_volume_jump_triggers_stage_three(self):
        lake = striped_obs_lake(jump_days=(10, 30, 50, 70), lake_id="a1")
        cfg = quick_config(max_epochs=3, lambda_epi=1.0, lambda_hyp=1.0, tau_mc=0.01)
        april = AprilConfig(finetune_epochs=2, disc_epochs=40)
        result = train_april([lake], cfg, april)
        assert result.stage3_ran is True
        assert result.gamma > 0
        by_day = {l.day: l for l in result.labels[lake.lake_id]}
        for d in (10, 30, 50, 70):
            assert by_day[d].provenance == VOLUME_RULE
            assert by_day[d].k == 12
        assert result.k_policies[lake.lake_id][10] == 12
        assert len(result.history.rows) == len(result.stage1.history.rows) + 2
        epochs = [r.epoch for r in result.history.rows]
        assert epochs == list(range(1, len(epochs) + 1))
        assert not np.array_equal(result.params.w_head, result.stage1.params.w_head)

    def test_labels_cover_exactly_stratified_days(self):
        lake = striped_obs_lake(jump_days=(10,), lake_id="a2")
        result = train_april([lake], quick_config(max_epochs=2),
                             AprilConfig(finetune_epochs=2, disc_epochs=20))
        labels = result.labels[lake.lake_id]
        assert len(labels) == int(lake.stratified.sum())
        assert [l.day for l in labels] == sorted(np.flatnonzero(lake.stratified))

    def test_deterministic_end_to_end(self):
        lake = striped_obs_lake(jump_days=(10, 30), lake_id="a3")
        cfg = quick_config(max_epochs=2, lambda_epi=1.0)
        april = AprilConfig(finetune_epochs=2, disc_epochs=30)
        r1 = train_april([lake], cfg, april)
        r2 = train_april([lake], cfg, april)
        for k, v in r1.params.to_blocks().items():
            np.testing.assert_array_equal(r2.params.to_blocks()[k], v)
        assert r1.labels == r2.labels

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["disc_learning_rate", "gamma_factor",
                                      "mild_probability_threshold"])
    def test_non_finite_float_rejected_naming_the_field(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got"):
            AprilConfig(**{name: value})

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="gamma_factor"):
            AprilConfig(gamma_factor=0.0)
        with pytest.raises(ConfigError, match="k_drastic"):
            AprilConfig(k_drastic=0)
        with pytest.raises(ConfigError, match="threshold"):
            AprilConfig(mild_probability_threshold=1.5)
