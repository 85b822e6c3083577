"""Optimizer oracle, window splitting, and the training loop contract."""

import math
import weakref

import numpy as np
import pytest

from lakedo import autodiff as ad
from lakedo.errors import ConfigError, DomainError, TrainingDiverged
from lakedo.losses import stack_windows, taped_window_loss
from lakedo.networks import PredictorParams, init_predictor
from lakedo.training import (
    HISTORY_COLUMNS,
    TrainConfig,
    TrainHistory,
    HistoryRow,
    adam_init,
    adam_update,
    _prepare_windows,
    train_pril,
    validation_rmse,
    write_history,
    year_windows,
)

from conftest import make_series


def mixed_lake(days=64, obs_value=5.0, seed=0, lake_id="m0"):
    rng = np.random.default_rng(seed)
    obs = {d: (None, None, obs_value) for d in range(days)}
    return make_series("M" * days, lake_id=lake_id, obs=obs,
                       features=rng.normal(size=(days, 2)))


def striped_lake(windows=4, seed=0, lake_id="s0"):
    # Each 20-day window is mixed, stratified for 18 days, mixed again.
    pattern = "M" + "S" * 18 + "M"
    regimes = pattern * windows
    rng = np.random.default_rng(seed)
    obs = {}
    for d, ch in enumerate(regimes):
        if rng.random() < 0.5:
            if ch == "S":
                obs[d] = (rng.uniform(4, 9), rng.uniform(2, 7), None)
            else:
                obs[d] = (None, None, rng.uniform(4, 9))
    return make_series(regimes, lake_id=lake_id, obs=obs,
                       features=rng.normal(size=(len(regimes), 2)))


def quick_config(**kw):
    defaults = dict(learning_rate=0.05, batch_size=8, max_epochs=8, patience=3,
                    hidden_size=20, seed=1, window_days=20, train_years=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestAdam:
    def test_first_step_is_lr_sized(self):
        params = {"w": np.zeros(2)}
        grads = {"w": np.ones(2)}
        state = adam_init(params)
        new, state = adam_update(params, grads, state, lr=0.1)
        np.testing.assert_allclose(new["w"], -0.1, rtol=1e-7)
        assert state.step == 1

    def test_constant_gradient_keeps_moving(self):
        params = {"w": np.array([0.0])}
        state = adam_init(params)
        trail = []
        for _ in range(5):
            params, state = adam_update(params, {"w": np.array([1.0])}, state, lr=0.1)
            trail.append(params["w"][0])
        assert all(a > b for a, b in zip(trail, trail[1:]))

    def test_update_is_functional(self):
        params = {"w": np.ones(3)}
        state = adam_init(params)
        before = params["w"].copy()
        adam_update(params, {"w": np.ones(3)}, state, lr=0.01)
        np.testing.assert_array_equal(params["w"], before)
        assert state.step == 0


class TestConfigValidation:
    def test_ranges_enforced(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            quick_config(learning_rate=0.5)
        with pytest.raises(ConfigError, match="learning_rate"):
            quick_config(learning_rate=0.0001)
        with pytest.raises(ConfigError, match="batch_size"):
            quick_config(batch_size=4)
        with pytest.raises(ConfigError, match="hidden_size"):
            quick_config(hidden_size=10)
        with pytest.raises(ConfigError, match="lambda"):
            quick_config(lambda_epi=-1.0)
        with pytest.raises(ConfigError, match="tau"):
            quick_config(tau_mc=float("nan"))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["lambda_hyp", "tau_mc", "learning_rate"])
    def test_non_finite_float_rejected_naming_the_field(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got"):
            TrainConfig(**{name: value})

    def test_lambdas_property(self):
        cfg = quick_config(lambda_epi=1.0, lambda_hyp=2.0, lambda_total=3.0)
        assert cfg.lambdas == (1.0, 2.0, 3.0)


class TestYearWindows:
    def test_full_windows_only(self):
        series = make_series("M" * 10)
        wins = year_windows(series, window_days=3)
        assert [start for start, _ in wins] == [0, 3, 6]
        assert all(w.n_days == 3 for _, w in wins)
        assert wins[1][1].dates[0] == series.dates[3]

    def test_windows_are_read_only_views_of_their_lake(self):
        series = make_series("M" * 10, features=np.ones((10, 2)))
        for _, window in year_windows(series, window_days=3):
            for name in ("dates", "stratified", "v_total", "obs_total", "features"):
                part, whole = getattr(window, name), getattr(series, name)
                assert np.shares_memory(part, whole) and not part.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                window.features[0, 0] = 2.0

    def test_prepare_requires_validation_window(self):
        cfg = quick_config()
        with pytest.raises(DomainError, match="need more than"):
            train_pril([mixed_lake(days=40)], cfg)   # only 2 windows of 20

    def test_prepare_requires_validation_observations(self):
        days = 64
        obs = {d: (None, None, 5.0) for d in range(40)}   # none in the last window
        lake = make_series("M" * days, obs=obs,
                           features=np.random.default_rng(0).normal(size=(days, 2)))
        with pytest.raises(DomainError, match="no observations"):
            train_pril([lake], quick_config())


class TestTrainPril:
    def test_learns_constant_target(self):
        lake = mixed_lake()
        result = train_pril([lake], quick_config(max_epochs=25, patience=25))
        rows = result.history.rows
        assert rows[-1].loss_ml < rows[0].loss_ml
        assert result.best_val_rmse < 5.0
        assert result.best_epoch >= 1

    def test_deterministic_given_seed(self):
        lake = striped_lake()
        cfg = quick_config(max_epochs=4, lambda_epi=2.0, lambda_hyp=2.0, tau_mc=0.01)
        r1 = train_pril([lake], cfg)
        r2 = train_pril([lake], cfg)
        for k, v in r1.params.to_blocks().items():
            np.testing.assert_array_equal(r2.params.to_blocks()[k], v)
        assert r1.history.rows == r2.history.rows

    def test_seed_changes_trajectory(self):
        lake = mixed_lake()
        r1 = train_pril([lake], quick_config(max_epochs=3, seed=1))
        r2 = train_pril([lake], quick_config(max_epochs=3, seed=2))
        assert not np.array_equal(r1.params.w_head, r2.params.w_head)

    def test_consistency_terms_recorded(self):
        lake = striped_lake()
        cfg = quick_config(max_epochs=3, lambda_epi=5.0, lambda_hyp=5.0, tau_mc=0.0)
        result = train_pril([lake], cfg)
        first = result.history.rows[0]
        assert first.loss_mc_epi > 0.0
        assert first.loss_mc_hyp > 0.0
        assert first.loss_mc_total == 0.0      # zero weight leaves the column zero
        assert np.isfinite(first.loss_ml)

    def test_supervised_only_ignores_k_policies(self):
        lake = mixed_lake()
        cfg = quick_config(max_epochs=3)
        r1 = train_pril([lake], cfg)
        r2 = train_pril([lake], cfg,
                        k_policies={lake.lake_id: np.full(lake.n_days, 12)})
        for k, v in r1.params.to_blocks().items():
            np.testing.assert_array_equal(r2.params.to_blocks()[k], v)

    def test_k_policy_changes_consistency_training(self):
        lake = striped_lake()
        cfg = quick_config(max_epochs=3, lambda_epi=5.0, lambda_hyp=5.0, tau_mc=0.0)
        r1 = train_pril([lake], cfg)
        r2 = train_pril([lake], cfg,
                        k_policies={lake.lake_id: np.full(lake.n_days, 12)})
        assert not np.array_equal(r1.params.w_head, r2.params.w_head)

    def test_k_policy_length_checked(self):
        lake = striped_lake()
        cfg = quick_config(max_epochs=2, lambda_epi=1.0)
        with pytest.raises(DomainError, match="every day"):
            train_pril([lake], cfg, k_policies={lake.lake_id: np.ones(3)})

    def test_initial_params_resume(self):
        lake = mixed_lake()
        cfg = quick_config(max_epochs=3)
        stage1 = train_pril([lake], cfg)
        stage2 = train_pril([lake], quick_config(max_epochs=2),
                            initial_params=stage1.params)
        assert not np.array_equal(stage1.params.w_head, stage2.params.w_head)
        with pytest.raises(DomainError, match="feature width"):
            train_pril([lake], cfg, initial_params=init_predictor(7, 20, seed=0))

    def test_divergence_raises(self):
        lake = mixed_lake()
        bad = init_predictor(2, 20, seed=0)
        blocks = {k: v.copy() for k, v in bad.to_blocks().items()}
        blocks["w_head"] = blocks["w_head"] + 1e200
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged):
            train_pril([lake], quick_config(max_epochs=2),
                       initial_params=PredictorParams.from_blocks(blocks))

    def test_early_stopping_bounds_epochs(self):
        lake = mixed_lake()
        result = train_pril([lake], quick_config(max_epochs=8, patience=3))
        rows = result.history.rows
        assert len(rows) <= 8
        assert result.best_epoch <= len(rows)


def standalone_validation_train(lakes, config):
    """train_pril's contract with a separate validation forward after every epoch.

    Returns (history rows, best params blocks, best epoch, tape nodes and
    backward visits of the last batch).
    """
    train_caches, val_windows = _prepare_windows(lakes, config, None)
    init_ss, shuffle_ss = np.random.SeedSequence(config.seed).spawn(2)
    params = dict(init_predictor(lakes[0].n_features, config.hidden_size,
                                 init_ss).to_blocks())
    opt = adam_init(params)
    rng = np.random.default_rng(shuffle_ss)
    rows, best_rmse, best_epoch, best_params = [], float("inf"), 0, dict(params)
    n_train = len(train_caches)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n_train)
        sums = {"ml": 0.0, "mc_epi": 0.0, "mc_hyp": 0.0, "mc_total": 0.0}
        for lo in range(0, n_train, config.batch_size):
            chunk = order[lo:lo + config.batch_size]
            tape = ad.Tape()
            pvars = {k: tape.param(v) for k, v in params.items()}
            parts = taped_window_loss(tape, pvars,
                                      stack_windows([train_caches[i] for i in chunk]),
                                      config.lambdas, config.tau_mc)
            grads = tape.backward(parts["loss"])
            params, opt = adam_update(params, {k: grads[pvars[k].idx] for k in params},
                                      opt, config.learning_rate)
            for k in sums:
                var = parts[k]
                sums[k] += (float(var.value) if var is not None else 0.0) * len(chunk)
        v_epi, v_hyp, v_total, pooled = validation_rmse(PredictorParams.from_blocks(params),
                                                        val_windows)
        rows.append(HistoryRow(epoch, *(sums[k] / n_train for k in sums),
                               v_epi, v_hyp, v_total))
        if pooled < best_rmse:
            best_rmse, best_epoch, best_params = pooled, epoch, dict(params)
        elif epoch - best_epoch >= config.patience:
            break
    return rows, best_params, best_epoch, (len(tape.values), tape.backward_visits)


class TestStandaloneValidation:
    """train_pril equals the reference loop that validates after every epoch."""

    def assert_matches_standalone(self, lakes, config):
        result = train_pril(lakes, config)
        rows, best_params, best_epoch, counters = standalone_validation_train(lakes, config)
        # Byte comparison: NaN cells (unobserved tasks) must match as well.
        assert np.array(result.history.rows).tobytes() == np.array(rows).tobytes()
        for name, value in result.params.to_blocks().items():
            assert value.tobytes() == best_params[name].tobytes()
        assert result.best_epoch == best_epoch
        assert (result.tape_nodes, result.backward_visits) == counters
        return result

    def test_early_stopping_run_is_byte_identical(self):
        lakes = [striped_lake(seed=s, lake_id=f"s{s}") for s in range(2)]
        cfg = quick_config(max_epochs=30, patience=2, learning_rate=0.05,
                           lambda_epi=2.0, lambda_hyp=2.0)
        result = self.assert_matches_standalone(lakes, cfg)
        assert len(result.history.rows) < cfg.max_epochs     # it did stop early

    def test_several_batches_per_epoch_are_byte_identical(self):
        lakes = [striped_lake(windows=3, seed=s, lake_id=f"s{s}") for s in range(5)]
        cfg = quick_config(max_epochs=4, patience=4, lambda_epi=1.0, lambda_hyp=1.0,
                           tau_mc=0.01)
        assert 2 * len(lakes) > cfg.batch_size            # more windows than one batch
        result = self.assert_matches_standalone(lakes, cfg)
        assert len(result.history.rows) == cfg.max_epochs

    def test_one_epoch_run_validates_standalone(self):
        self.assert_matches_standalone([mixed_lake()], quick_config(max_epochs=1))

    def test_one_tape_alive_when_each_forward_starts(self, monkeypatch):
        # Refcounting frees a tape the moment its last name goes, so the
        # count is exact: only the batch's own, fresh tape may be alive.
        live = weakref.WeakSet()
        starts = []
        init, sequence = ad.Tape.__init__, ad.lstm_sequence

        def tracked_init(tape):
            init(tape)
            live.add(tape)

        def counted_sequence(w_cell, b_cell, features):
            starts.append(len(live))
            return sequence(w_cell, b_cell, features)

        monkeypatch.setattr(ad.Tape, "__init__", tracked_init)
        monkeypatch.setattr(ad, "lstm_sequence", counted_sequence)
        lakes = [striped_lake(windows=3, seed=s, lake_id=f"s{s}") for s in range(5)]
        cfg = quick_config(max_epochs=4, patience=4, lambda_epi=1.0, lambda_hyp=1.0)
        assert len(train_pril(lakes, cfg).history.rows) == cfg.max_epochs
        assert len(starts) == 2 * cfg.max_epochs                  # two batches per epoch
        assert starts == [1] * len(starts)


class TestHistoryCsv:
    def test_exact_header_and_nan_rendering(self, tmp_path):
        history = TrainHistory(rows=[
            HistoryRow(1, 0.5, 0.1, 0.2, 0.0, float("nan"), float("nan"), 1.25)])
        path = tmp_path / "history.csv"
        write_history(path, history)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(HISTORY_COLUMNS)
        cells = lines[1].split(",")
        assert cells[0] == "1"
        assert cells[5] == "" and cells[6] == ""
        assert float(cells[7]) == 1.25

    def test_training_history_round_trips_through_csv(self, tmp_path):
        lake = mixed_lake()
        result = train_pril([lake], quick_config(max_epochs=3))
        path = tmp_path / "history.csv"
        write_history(path, result.history)
        lines = path.read_text().splitlines()
        assert len(lines) == len(result.history.rows) + 1
        got = float(lines[1].split(",")[1])
        assert got == result.history.rows[0].loss_ml

    def test_renumbered_extension(self):
        h1 = TrainHistory(rows=[HistoryRow(1, 1, 0, 0, 0, 1, 1, 1),
                                HistoryRow(2, 1, 0, 0, 0, 1, 1, 1)])
        h2 = TrainHistory(rows=[HistoryRow(1, 2, 0, 0, 0, 2, 2, 2)])
        h1.extend_renumbered(h2)
        assert [r.epoch for r in h1.rows] == [1, 2, 3]
