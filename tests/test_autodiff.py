"""Reverse-mode tape: values, gradients, and finite-difference agreement."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from lakedo import autodiff as ad
from lakedo.errors import DomainError

import oracles


def scalar_value_and_grad(op, w):
    """(value, gradient) of op applied to one scalar parameter named w."""
    value, grad = oracles.evaluate_with_gradient(lambda tape, p: op(p["w"]), {"w": w})
    return value, grad["w"]


class TestScalarBasics:
    def test_square_value_and_gradient(self):
        value, grad = scalar_value_and_grad(lambda w: ad.mul(w, w), 3.0)
        assert value == 9.0
        assert grad == 6.0

    def test_relu_subgradient_zero_at_kink(self):
        _, grad = scalar_value_and_grad(ad.relu, 0.0)
        assert grad == 0.0
        _, grad = scalar_value_and_grad(ad.relu, 2.0)
        assert grad == 1.0
        _, grad = scalar_value_and_grad(ad.relu, -2.0)
        assert grad == 0.0

    def test_abs_subgradient_zero_at_kink(self):
        _, grad = scalar_value_and_grad(ad.absval, 0.0)
        assert grad == 0.0

    def test_logsigmoid_matches_log_of_sigmoid(self):
        value, grad = scalar_value_and_grad(oracles.logsigmoid, 1.3)
        assert value == pytest.approx(np.log(1.0 / (1.0 + np.exp(-1.3))), rel=1e-12)
        assert grad == pytest.approx(1.0 - 1.0 / (1.0 + np.exp(-1.3)), rel=1e-12)

    def test_logsigmoid_stable_in_tails(self):
        value, _ = scalar_value_and_grad(oracles.logsigmoid, -800.0)
        assert value == -800.0


    def test_sigmoid_values_matches_both_branch_formulas(self):
        x = np.concatenate([np.random.default_rng(9).normal(size=200) * 30,
                            [0.0, -0.0, 745.0, -745.0, np.inf, -np.inf]])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                                np.exp(x) / (1.0 + np.exp(x)))
        assert np.array_equal(ad.sigmoid_values(x), expected)


class TestStructuredGradients:
    def test_dict_params_mirror_structure(self):
        params = {"w": np.array([[1.0, 2.0]]), "b": np.array([0.5])}

        def program(tape, p):
            x = tape.constant(np.array([[3.0], [1.0]]))
            out = ad.add(ad.matmul(p["w"], x), p["b"])
            return oracles.masked_sum(out, np.ones((1, 1), dtype=bool))

        value, grad = oracles.evaluate_with_gradient(program, params)
        assert value == 1.0 * 3 + 2.0 * 1 + 0.5
        assert np.array_equal(grad["w"], [[3.0, 1.0]])
        assert np.array_equal(grad["b"], [1.0])

    def test_unused_param_gets_zero_gradient(self):
        params = {"used": np.array([2.0]), "idle": np.array([7.0, 8.0])}

        def program(tape, p):
            return oracles.masked_sum(ad.mul(p["used"], p["used"]), np.array([True]))

        _, grad = oracles.evaluate_with_gradient(program, params)
        assert np.array_equal(grad["idle"], [0.0, 0.0])

    def test_broadcast_bias_unbroadcasts(self):
        params = {"b": np.array([1.0, -1.0])}

        def program(tape, p):
            x = tape.constant(np.zeros((3, 2)))
            return oracles.masked_sum(ad.add(x, p["b"]), np.ones((3, 2), dtype=bool))

        _, grad = oracles.evaluate_with_gradient(program, params)
        assert np.array_equal(grad["b"], [3.0, 3.0])

    def test_masked_mean_empty_mask_is_zero(self):
        def program(tape, p):
            return ad.masked_mean(p["x"], np.zeros(3, dtype=bool))

        value, grad = oracles.evaluate_with_gradient(program, {"x": np.array([1.0, 2.0, 3.0])})
        assert value == 0.0
        assert np.array_equal(grad["x"], np.zeros(3))

    def test_slicing_scatter(self):
        def program(tape, p):
            return oracles.masked_sum(p["x"][1:3], np.ones(2, dtype=bool))

        _, grad = oracles.evaluate_with_gradient(program, {"x": np.array([1.0, 2.0, 3.0, 4.0])})
        assert np.array_equal(grad["x"], [0.0, 1.0, 1.0, 0.0])


class TestFiniteDifferenceAgreement:
    def test_dense_composition(self):
        rng = np.random.default_rng(0)
        params = {"w1": rng.normal(size=(4, 5)), "b1": rng.normal(size=5),
                  "w2": rng.normal(size=(5, 1)), "x": rng.normal(size=(3, 4))}

        def program(tape, p):
            h = oracles.tanh(ad.add(ad.matmul(p["x"], p["w1"]), p["b1"]))
            out = oracles.sigmoid(ad.matmul(h, p["w2"]))
            return ad.masked_mean(out, np.ones((3, 1), dtype=bool))

        assert oracles.gradient_check(program, params) < 1e-6

    def test_recurrent_rollout_shared_parameter(self):
        # Three steps reusing one weight matrix; accumulation across time
        # must match central differences.
        rng = np.random.default_rng(1)
        params = {"w": rng.normal(size=(3, 3)) * 0.5, "h0": rng.normal(size=(1, 3))}
        xs = rng.normal(size=(3, 1, 3))

        def program(tape, p):
            h = p["h0"]
            for t in range(3):
                x = tape.constant(xs[t])
                h = oracles.tanh(ad.add(ad.matmul(h, p["w"]), x))
            return ad.masked_mean(ad.mul(h, h), np.ones((1, 3), dtype=bool))

        assert oracles.gradient_check(program, params) < 1e-4

    def test_kinked_ops_away_from_kinks(self):
        rng = np.random.default_rng(2)
        params = {"a": rng.normal(size=6) + 3.0, "b": rng.normal(size=6) - 3.0}

        def program(tape, p):
            d = ad.absval(ad.sub(p["a"], p["b"]))
            r = ad.relu(ad.add_const(d, -0.1))
            return ad.masked_mean(r, np.ones(6, dtype=bool))

        assert oracles.gradient_check(program, params) < 1e-6

    def test_three_dim_matmul_and_stack(self):
        rng = np.random.default_rng(3)
        params = {"w": rng.normal(size=(4, 2)), "h1": rng.normal(size=(5, 4)),
                  "h2": rng.normal(size=(5, 4))}

        def program(tape, p):
            h3 = oracles.stack([p["h1"], p["h2"]])
            y = ad.matmul(h3, p["w"])
            return ad.masked_mean(ad.sqdiff(y, tape.constant(np.ones((2, 5, 2)))),
                                  np.ones((2, 5, 2), dtype=bool))

        assert oracles.gradient_check(program, params) < 1e-6

    def test_concat_gates(self):
        rng = np.random.default_rng(4)
        params = {"h": rng.normal(size=(2, 3)), "x": rng.normal(size=(2, 2))}

        def program(tape, p):
            z = oracles.concat([p["h"], p["x"]], axis=1)
            return ad.masked_mean(ad.mul(z, z), np.ones((2, 5), dtype=bool))

        assert oracles.gradient_check(program, params) < 1e-6


class TestTapeDiscipline:
    def test_backward_visits_each_needed_node_once(self):
        tape = ad.Tape()
        w = tape.param(np.array([1.0, 2.0]))
        a = oracles.tanh(w)
        b = ad.mul(a, a)             # diamond: a feeds b twice
        out = oracles.masked_sum(b, np.ones(2, dtype=bool))
        tape.backward(out)
        # param, tanh, mul, masked_sum each processed exactly once.
        assert tape.backward_visits == 4

    def test_every_op_leaves_the_tape_to_refcounting(self):
        # A gradient function that held a Var would close a Var -> tape ->
        # gradient function cycle, which only the cyclic collector frees.
        gc.disable()
        try:
            tape = ad.Tape()
            w = tape.param(np.full((2, 3), 0.5))
            x = oracles.concat([oracles.tanh(w), oracles.sigmoid(w), ad.relu(w), ad.absval(w),
                           oracles.logsigmoid(w), oracles.neg(w), ad.scale(w, 2.0),
                           ad.add_const(w, 1.0)], axis=1)
            y = ad.sqdiff(ad.mul(ad.add(x, x), ad.sub(x, x)), x)
            z = oracles.stack([ad.matmul(y, tape.constant(np.ones((24, 4)))), y[:, :4]])
            hs = ad.lstm_sequence(tape.param(np.full((5, 4), 0.1)),
                                  tape.param(np.zeros(4)), np.ones((2, 3, 4)))
            loss = ad.add(oracles.masked_sum(z, np.ones(z.shape, dtype=bool)),
                          ad.add(ad.masked_mean(hs, np.ones(hs.shape, dtype=bool)),
                                 ad.masked_mean(hs, np.zeros(hs.shape, dtype=bool))))
            grads = tape.backward(loss)
            alive = weakref.ref(tape)
            del tape, w, x, y, z, hs, loss, grads
            assert alive() is None
        finally:
            gc.enable()

    def test_scalar_output_required(self):
        tape = ad.Tape()
        w = tape.param(np.ones(3))
        with pytest.raises(DomainError):
            tape.backward(ad.mul(w, w))

    def test_cross_tape_operands_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        a = t1.param(np.ones(2))
        b = t2.param(np.ones(2))
        with pytest.raises(DomainError):
            ad.add(a, b)

    def test_gradient_check_flags_wrong_gradient(self):
        # A deliberately wrong "gradient" route: value uses w**2 while the
        # recorded op pretends to be w**3 by scaling; mismatch must be caught.
        def program(tape, p):
            return ad.scale(ad.mul(p["w"], p["w"]), 1.0)

        def broken(tape, p):
            return ad.scale(ad.mul(ad.mul(p["w"], p["w"]), p["w"]), 1.0)

        good = oracles.gradient_check(program, {"w": 1.7})
        assert good < 1e-8
        v1, g1 = oracles.evaluate_with_gradient(program, {"w": 1.7})
        v3, g3 = oracles.evaluate_with_gradient(broken, {"w": 1.7})
        assert abs(g1["w"] - g3["w"]) > 1e-3


def lstm_oracle(tape, w_cell, b_cell, features):
    """The LSTM built per day from generic tape ops: hidden states (T, B, H)."""
    b, t_count, _ = features.shape
    hidden = w_cell.value.shape[1] // 4
    h = tape.constant(np.zeros((b, hidden)))
    c = tape.constant(np.zeros((b, hidden)))
    hs = []
    for t in range(t_count):
        z = oracles.concat([h, tape.constant(features[:, t, :])], axis=1)
        gates = ad.add(ad.matmul(z, w_cell), b_cell)
        i = oracles.sigmoid(gates[:, 0:hidden])
        f = oracles.sigmoid(gates[:, hidden:2 * hidden])
        o = oracles.sigmoid(gates[:, 2 * hidden:3 * hidden])
        u = oracles.tanh(gates[:, 3 * hidden:4 * hidden])
        c = ad.add(ad.mul(f, c), ad.mul(i, u))
        h = ad.mul(o, oracles.tanh(c))
        hs.append(h)
    return oracles.stack(hs)


def lstm_case(batch, days=40, hidden=6, m=3, seed=0):
    rng = np.random.default_rng(seed)
    params = {"w_cell": rng.normal(size=(hidden + m, 4 * hidden)) * 0.6,
              "b_cell": rng.normal(size=4 * hidden) * 0.3}
    features = rng.normal(size=(batch, days, m))
    weights = rng.normal(size=(days, batch, hidden))
    return params, features, weights


class TestLstmSequence:
    @pytest.mark.parametrize("batch", [1, 8])
    def test_matches_per_day_oracle(self, batch):
        params, features, weights = lstm_case(batch)

        def run(build):
            states = []

            def program(tape, p):
                hs = build(tape, p["w_cell"], p["b_cell"], features)
                states.append(hs.value)
                return oracles.masked_sum(ad.mul(hs, tape.constant(weights)),
                                     np.ones(weights.shape, dtype=bool))

            loss, grad = oracles.evaluate_with_gradient(program, params)
            return states[0], loss, grad

        fused_hs, fused_loss, fused_grad = run(
            lambda tape, w, b, x: ad.lstm_sequence(w, b, x))
        oracle_hs, oracle_loss, oracle_grad = run(lstm_oracle)
        assert fused_hs.shape == (40, batch, 6)
        np.testing.assert_allclose(fused_hs, oracle_hs, rtol=0, atol=1e-12)
        assert fused_loss == pytest.approx(oracle_loss, rel=1e-12)
        for name in params:
            scale = np.max(np.abs(oracle_grad[name]))
            assert np.max(np.abs(fused_grad[name] - oracle_grad[name])) <= 1e-10 * scale

    def test_gradient_check(self):
        params, features, weights = lstm_case(2, days=6, hidden=3, seed=1)

        def program(tape, p):
            hs = ad.lstm_sequence(p["w_cell"], p["b_cell"], features)
            return ad.masked_mean(ad.sqdiff(hs, tape.constant(weights)),
                                  np.ones(weights.shape, dtype=bool))

        assert oracles.gradient_check(program, params) < 1e-4

    def test_is_one_node_and_constant_weights_get_no_gradient(self):
        params, features, _ = lstm_case(2, days=30)
        tape = ad.Tape()
        w = tape.constant(params["w_cell"])
        b = tape.param(params["b_cell"])
        hs = ad.lstm_sequence(w, b, features)
        assert len(tape.values) == 3
        grads = tape.backward(oracles.masked_sum(hs, np.ones(hs.shape, dtype=bool)))
        assert grads[w.idx] is None
        assert grads[b.idx].shape == params["b_cell"].shape
