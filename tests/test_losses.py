"""Loss oracles: pooled MSE, hinged consistency, affine target replay."""

import gc
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from lakedo import autodiff as ad
from lakedo.errors import DomainError
from lakedo.losses import (affine_day_coefficients, stack_windows, stacked_observations,
                           taped_window_loss, window_cache)
from lakedo.networks import init_predictor, predictor_forward, predictor_forward_tape
from lakedo.physics import simulate_targets
from lakedo.synthetic import GenConfig, generate_lake
from lakedo.training import year_windows

from conftest import make_series
from oracles import (
    build_window_batch,
    combined_loss,
    gradient_check,
    lstm_grads_reference,
    mass_conservation_loss,
    supervised_loss,
)

TAU_GRID = (0.0, 0.01, 0.05, 0.1, 0.5)


def series_with_obs(regimes="MSSSSSM", seed=0):
    rng = np.random.default_rng(seed)
    obs = {}
    for day, ch in enumerate(regimes):
        if rng.random() < 0.6:
            if ch == "S":
                obs[day] = (rng.uniform(4, 10), rng.uniform(2, 8), None)
            else:
                obs[day] = (None, None, rng.uniform(4, 10))
    return make_series(regimes, obs=obs,
                       features=rng.normal(size=(len(regimes), 2)))


class TestSupervisedLoss:
    def test_pooled_over_observed_cells(self):
        pred = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        obs = np.array([[1.5, np.nan, np.nan], [np.nan, np.nan, 5.0]])
        assert supervised_loss(pred, obs) == 0.625

    def test_no_observations_warns_and_returns_zero(self):
        with pytest.warns(RuntimeWarning, match="zero observations"):
            assert supervised_loss(np.ones((3, 3)), np.full((3, 3), np.nan)) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError, match="shape"):
            supervised_loss(np.ones((2, 3)), np.ones((3, 3)))


class TestMassConservationLoss:
    def test_hinge_mean_worked_example(self):
        tau = 0.05
        target = np.zeros(3)
        pred = np.array([tau, -(tau + 0.1), tau + 0.5])
        assert mass_conservation_loss(pred, target, tau) == pytest.approx(0.2, rel=1e-12)

    def test_undefined_cells_excluded(self):
        tau = 0.05
        target = np.array([0.0, 0.0, 0.0, np.nan])
        pred = np.array([tau, -(tau + 0.1), tau + 0.5, 99.0])
        assert mass_conservation_loss(pred, target, tau) == pytest.approx(0.2, rel=1e-12)

    def test_all_undefined_gives_zero(self):
        assert mass_conservation_loss(np.full(4, np.nan), np.zeros(4), 0.1) == 0.0

    def test_nonincreasing_in_tau(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=50)
        target = pred + rng.normal(scale=0.2, size=50)
        losses = [mass_conservation_loss(pred, target, tau) for tau in TAU_GRID]
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_within_tolerance_is_free(self):
        pred = np.array([1.0, 2.0])
        target = np.array([1.04, 1.96])
        assert mass_conservation_loss(pred, target, 0.05) == 0.0
        assert mass_conservation_loss(pred, target, 0.01) > 0.0


class TestAffineCoefficients:
    def test_replay_matches_direct_simulation(self):
        series = series_with_obs()
        rng = np.random.default_rng(1)
        preds = rng.uniform(-2, 12, size=(series.n_days, 3))
        a, c, defined = affine_day_coefficients(series)
        direct = simulate_targets(series, preds)
        replay = np.einsum("tij,tj->ti", a, np.vstack([np.zeros(3), preds[:-1]])) + c
        assert np.array_equal(defined, np.isfinite(direct))
        np.testing.assert_allclose(replay[defined], direct[defined],
                                   rtol=1e-9, atol=1e-12)

    def test_defined_pattern_follows_regimes(self):
        a, c, defined = affine_day_coefficients(make_series("MSSSSSM"))
        assert not defined[0].any()                      # first day has no target
        assert list(defined[1]) == [True, True, False]   # onset seeds both layers
        assert list(defined[3]) == [True, True, False]
        assert list(defined[6]) == [False, False, True]  # turnover seeds the total

    def test_mixed_chain_defines_total_only(self):
        _, _, defined = affine_day_coefficients(make_series("MMM"))
        assert list(defined[1]) == [False, False, True]
        assert list(defined[2]) == [False, False, True]

    def test_substep_count_changes_stratified_coefficients(self):
        series = make_series("MSSSM")
        a1, c1, _ = affine_day_coefficients(series)
        a12, c12, _ = affine_day_coefficients(series, k_per_day=np.full(5, 12))
        # Stratified pair day reacts to k (the linear part telescopes across
        # substeps, so the offset is where refinement shows); onset does not.
        assert not np.allclose(c1[3], c12[3])
        np.testing.assert_array_equal(a1[1], a12[1])
        np.testing.assert_array_equal(c1[1], c12[1])

    def test_undefined_coefficients_are_zeroed(self):
        a, c, defined = affine_day_coefficients(make_series("MSSSM"))
        assert np.all(a[~defined] == 0.0)
        assert np.all(c[~defined] == 0.0)


class TestCombinedLoss:
    def test_zero_weights_reduce_to_supervised(self):
        series = series_with_obs()
        preds = np.random.default_rng(2).normal(size=(series.n_days, 3))
        parts = combined_loss(preds, series, (0.0, 0.0, 0.0), 0.05)
        assert parts.total == parts.ml
        assert parts.mc_epi == parts.mc_hyp == parts.mc_total == 0.0
        assert parts.ml == supervised_loss(preds, stacked_observations(series))

    def test_weighted_sum_composition(self):
        series = series_with_obs(seed=5)
        preds = np.random.default_rng(4).normal(size=(series.n_days, 3))
        parts = combined_loss(preds, series, (3.0, 2.0, 1.0), 0.05)
        targets = simulate_targets(series, preds)
        for task, got in ((0, parts.mc_epi), (1, parts.mc_hyp), (2, parts.mc_total)):
            assert got == mass_conservation_loss(preds[:, task], targets[:, task], 0.05)
        assert parts.total == pytest.approx(
            parts.ml + 3 * parts.mc_epi + 2 * parts.mc_hyp + parts.mc_total, rel=1e-15)

    def test_weight_validation(self):
        series = series_with_obs()
        preds = np.zeros((series.n_days, 3))
        with pytest.raises(DomainError, match="lambda"):
            combined_loss(preds, series, (-1.0, 0.0, 0.0), 0.05)
        with pytest.raises(DomainError, match="tau"):
            combined_loss(preds, series, (1.0, 1.0, 1.0), -0.1)


class TestWindowBatch:
    def test_shapes_and_masks(self):
        w1, w2 = series_with_obs(seed=6), series_with_obs(seed=7)
        batch = build_window_batch([w1, w2])
        t = w1.n_days
        assert batch.features.shape == (2, t, 2)
        assert batch.obs.shape == (t, 2, 3)
        assert batch.a.shape == (t, 2, 3, 3)
        assert np.all(np.isfinite(batch.obs))
        assert batch.obs_mask[:, 0, :].sum() == \
            sum(np.isfinite(o).sum() for o in (w1.obs_epi, w1.obs_hyp, w1.obs_total))

    def test_mismatched_windows_rejected(self):
        with pytest.raises(DomainError, match="share length"):
            build_window_batch([make_series("MSSM"), make_series("MSSSM")])
        with pytest.raises(DomainError, match="at least one"):
            build_window_batch([])


class TestTapedWindowLoss:
    def test_matches_value_level_single_window(self):
        series = series_with_obs(seed=8)
        params = init_predictor(series.n_features, 20, seed=9)
        batch = build_window_batch([series])
        tape = ad.Tape()
        pvars = {k: tape.param(v) for k, v in params.to_blocks().items()}
        parts = taped_window_loss(tape, pvars, batch, (3.0, 2.0, 1.0), 0.05)

        preds = predictor_forward(params, series.features)
        expected = combined_loss(preds, series, (3.0, 2.0, 1.0), 0.05)
        assert parts["ml"].value == pytest.approx(expected.ml, rel=1e-9)
        assert parts["mc_epi"].value == pytest.approx(expected.mc_epi, rel=1e-7, abs=1e-12)
        assert parts["mc_hyp"].value == pytest.approx(expected.mc_hyp, rel=1e-7, abs=1e-12)
        assert parts["mc_total"].value == pytest.approx(expected.mc_total, rel=1e-7, abs=1e-12)
        assert parts["loss"].value == pytest.approx(expected.total, rel=1e-7)

    def test_multi_window_pools_across_batch(self):
        wins = [series_with_obs(seed=10), series_with_obs(seed=11)]
        params = init_predictor(2, 20, seed=12)
        batch = build_window_batch(wins)
        tape = ad.Tape()
        pvars = {k: tape.param(v) for k, v in params.to_blocks().items()}
        parts = taped_window_loss(tape, pvars, batch, (0.0, 0.0, 0.0), 0.0)
        errs = []
        for w in wins:
            preds = predictor_forward(params, w.features)
            obs = stacked_observations(w)
            mask = np.isfinite(obs)
            errs.append((preds[mask] - obs[mask]) ** 2)
        assert parts["ml"].value == pytest.approx(np.mean(np.concatenate(errs)), rel=1e-12)

    def test_zero_weights_build_identical_tape_to_pure_ml(self):
        series = series_with_obs(seed=13)
        params = init_predictor(2, 20, seed=14)
        batch = build_window_batch([series])

        tape1 = ad.Tape()
        p1 = {k: tape1.param(v) for k, v in params.to_blocks().items()}
        loss1 = taped_window_loss(tape1, p1, batch, (0.0, 0.0, 0.0), 0.05)["loss"]

        tape2 = ad.Tape()
        p2 = {k: tape2.param(v) for k, v in params.to_blocks().items()}
        out = predictor_forward_tape(p2, batch.features)
        loss2 = ad.masked_mean(ad.sqdiff(out, tape2.constant(batch.obs)), batch.obs_mask)

        assert len(tape1.values) == len(tape2.values)
        assert loss1.value == loss2.value
        g1 = tape1.backward(loss1)
        g2 = tape2.backward(loss2)
        for k in params.to_blocks():
            np.testing.assert_array_equal(g1[p1[k].idx], g2[p2[k].idx])

    def test_full_loss_gradient_check(self):
        series = series_with_obs(seed=15)
        batch = build_window_batch([series])
        init = init_predictor(2, 20, seed=16)

        def program(tape, p):
            return taped_window_loss(tape, p, batch, (3.0, 2.0, 1.0), 0.05)["loss"]

        assert gradient_check(program, init.to_blocks()) < 1e-4

    def test_tape_freed_by_refcount_alone(self):
        # No gradient function may hold a Var: a Var -> tape -> gradient
        # function cycle would keep a trained batch's tape (and its BPTT
        # cache) alive after its names go, until the cyclic collector runs.
        series = generate_lake(GenConfig(n_lakes=1, n_years=1, truth_substeps=2), 0).series
        batch = build_window_batch([series])
        params = init_predictor(series.n_features, 20, seed=17)
        gc.disable()
        try:
            tape = ad.Tape()
            pvars = {k: tape.param(v) for k, v in params.to_blocks().items()}
            parts = taped_window_loss(tape, pvars, batch, (3.0, 2.0, 1.0), 0.05)
            grads = tape.backward(parts["loss"])
            alive = weakref.ref(tape)
            del tape, pvars, parts, grads
            assert alive() is None
        finally:
            gc.enable()

    def test_backward_returns_leaf_gradients_within_two_state_arrays(self):
        # One 8 x 365 batch at H = 30. BPTT forms its gate derivatives inside
        # the LSTM cache and the tape drops each interior gradient once it is
        # passed on, so backward needs less than two (T, B, H) arrays above
        # what the forward left alive: one is the LSTM's upstream gradient.
        lake = generate_lake(GenConfig(n_lakes=1, n_years=8, truth_substeps=2), 0).series
        batch = stack_windows([window_cache(w) for _, w in year_windows(lake)])
        assert batch.features.shape[:2] == (8, 365)
        params = init_predictor(lake.n_features, 30, seed=18).to_blocks()

        def taped(bptt=None):
            tape = ad.Tape()
            pvars = {k: tape.param(v) for k, v in params.items()}
            loss = taped_window_loss(tape, pvars, batch, (10.0, 10.0, 10.0), 0.05)["loss"]
            if bptt is not None:       # the LSTM node's gradient function is a partial
                i = next(i for i, fn in enumerate(tape.grad_fns) if isinstance(fn, partial))
                tape.grad_fns[i] = partial(bptt, *tape.grad_fns[i].args)
            return tape, pvars, loss

        ref_tape, ref_vars, ref_loss = taped(lstm_grads_reference)
        ref = ref_tape.backward(ref_loss)
        tape, pvars, loss = taped()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            grads = tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - live < 2 * 365 * 8 * 30 * 8
        assert all(g is None for g, parents in zip(grads, tape.parents) if parents)
        for k, v in pvars.items():
            assert np.array_equal(grads[v.idx], ref[ref_vars[k].idx])
