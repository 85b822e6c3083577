"""Generator/discriminator forward passes and checkpoint round-trips."""

import csv
import io

import numpy as np
import pytest

from lakedo import autodiff as ad
from lakedo.errors import DomainError, SchemaError
from lakedo.evaluate import regime_masked_predictions
from lakedo.networks import (
    DiscriminatorParams,
    PredictorParams,
    discriminator_forward,
    discriminator_logits,
    discriminator_logits_tape,
    init_discriminator,
    init_predictor,
    load_checkpoint,
    predictor_forward,
    predictor_forward_series,
    predictor_forward_tape,
    save_checkpoint,
)

from conftest import make_series


def zero_predictor(n_features=4, hidden=20):
    return PredictorParams(
        w_cell=np.zeros((n_features + hidden, 4 * hidden)),
        b_cell=np.zeros(4 * hidden),
        w_head=np.zeros((hidden, 3)),
        b_head=np.zeros(3),
    )


class TestPredictor:
    def test_zero_params_give_zero_outputs(self):
        params = zero_predictor()
        rng = np.random.default_rng(7)
        out = predictor_forward(params, rng.normal(size=(30, 4)))
        assert out.shape == (30, 3)
        assert np.all(out == 0.0)

    def test_output_shape_and_finiteness(self):
        params = init_predictor(n_features=6, hidden_size=24, seed=3)
        out = predictor_forward(params, np.random.default_rng(0).normal(size=(50, 6)))
        assert out.shape == (50, 3)
        assert np.all(np.isfinite(out))

    def test_recurrence_is_order_sensitive(self):
        # A recurrent cell must remember history: permuting earlier days
        # changes later outputs.
        params = init_predictor(n_features=3, hidden_size=20, seed=11)
        feats = np.random.default_rng(1).normal(size=(10, 3))
        base = predictor_forward(params, feats)
        shuffled = feats.copy()
        shuffled[[0, 1]] = shuffled[[1, 0]]
        out = predictor_forward(params, shuffled)
        assert not np.allclose(base[-1], out[-1])

    def test_init_is_seeded_and_bounded(self):
        a = init_predictor(5, 20, seed=42)
        b = init_predictor(5, 20, seed=42)
        c = init_predictor(5, 20, seed=43)
        assert np.array_equal(a.w_cell, b.w_cell)
        assert not np.array_equal(a.w_cell, c.w_cell)
        bound = 1.0 / np.sqrt(20)
        for block in a.to_blocks().values():
            assert np.all(np.abs(block) <= bound)

    def test_hidden_size_range_enforced(self):
        with pytest.raises(DomainError, match="hidden"):
            zero_predictor(hidden=19)
        with pytest.raises(DomainError, match="hidden"):
            zero_predictor(hidden=201)
        zero_predictor(hidden=20)
        zero_predictor(hidden=200)

    def test_feature_width_checked(self):
        params = init_predictor(4, 20, seed=0)
        with pytest.raises(DomainError, match="features"):
            predictor_forward(params, np.zeros((5, 3)))

    def test_masked_predictions_follow_regime(self):
        series = make_series("MSSM", obs={})
        params = init_predictor(series.n_features, 20, seed=5)
        raw = predictor_forward(params, series.features)
        states = regime_masked_predictions(raw, series)
        assert len(states) == 4
        assert not np.isnan(states[0, 2]) and np.isnan(states[0, 0])
        assert not np.isnan(states[1, 0]) and not np.isnan(states[1, 1])
        assert np.isnan(states[1, 2])
        assert states[2, 0] == raw[2, 0]
        assert states[3, 2] == raw[3, 2]

    def test_taped_forward_matches_numpy(self):
        params = init_predictor(n_features=4, hidden_size=20, seed=9)
        feats = np.random.default_rng(2).normal(size=(3, 12, 4))
        tape = ad.Tape()
        pvars = {k: tape.param(v) for k, v in params.to_blocks().items()}
        out, _ = predictor_forward_tape(pvars, feats)
        assert out.shape == (12, 3, 3)
        for b in range(3):
            expected = predictor_forward(params, feats[b])
            np.testing.assert_allclose(out.value[:, b, :], expected, rtol=1e-12, atol=1e-12)

    def test_batched_forward_matches_per_window(self):
        params = init_predictor(n_features=5, hidden_size=20, seed=4)
        feats = np.random.default_rng(6).normal(size=(4, 60, 5))
        out = predictor_forward(params, feats)
        assert out.shape == (4, 60, 3)
        for b in range(4):
            np.testing.assert_allclose(out[b], predictor_forward(params, feats[b]),
                                       rtol=0, atol=1e-12)

    def test_year_long_batch_is_a_handful_of_tape_nodes(self):
        # One fused LSTM node, not a block of nodes per day.
        params = init_predictor(n_features=4, hidden_size=20, seed=2)
        feats = np.random.default_rng(8).normal(size=(8, 365, 4))
        tape = ad.Tape()
        pvars = {k: tape.param(v) for k, v in params.to_blocks().items()}
        out, _ = predictor_forward_tape(pvars, feats)
        tape.backward(ad.masked_sum(out, np.ones(out.shape, dtype=bool)))
        assert len(tape.values) < 50

    def test_series_forward_equals_equal_length_batches(self):
        params = init_predictor(n_features=3, hidden_size=20, seed=5)
        rng = np.random.default_rng(11)
        series = [rng.normal(size=(n, 3)) for n in (50, 30, 41, 50)]
        outs = predictor_forward_series(params, series)
        assert [o.shape for o in outs] == [(50, 3), (30, 3), (41, 3), (50, 3)]
        for i, out in enumerate(outs):
            # Same rows, every series cut (or zero-padded) to this one's length:
            # days past a series' end cannot reach its earlier days.
            n = series[i].shape[0]
            batch = np.zeros((len(series), n, 3))
            for row, f in zip(batch, series):
                row[:min(n, len(f))] = f[:n]
            assert out.tobytes() == predictor_forward(params, batch)[i].tobytes()
            np.testing.assert_allclose(out, predictor_forward(params, series[i]),
                                       rtol=0, atol=1e-12)
        equal = [f[:30] for f in series]
        assert np.array(predictor_forward_series(params, equal)).tobytes() == \
            predictor_forward(params, np.stack(equal)).tobytes()
        with pytest.raises(DomainError):
            predictor_forward_series(params, [])

    def test_ride_along_outputs_equal_separate_forwards(self):
        params = init_predictor(n_features=4, hidden_size=20, seed=3)
        rng = np.random.default_rng(12)
        # 6 + 3 rows: a BLAS that blocks rows by 4 splits the ride-along rows
        # across blocks unless they get their own matrix products.
        feats, ride = rng.normal(size=(6, 40, 4)), rng.normal(size=(3, 40, 4))

        def taped(ride_along):
            tape = ad.Tape()
            pvars = {k: tape.param(v) for k, v in params.to_blocks().items()}
            out, ride_out = predictor_forward_tape(pvars, feats, ride_along)
            grads = tape.backward(ad.masked_sum(out, np.ones(out.shape, dtype=bool)))
            return (out, ride_out), [grads[v.idx] for v in pvars.values()], len(tape.values)

        (out, ride_out), grads, nodes = taped(ride)
        (alone, _), alone_grads, alone_nodes = taped(None)
        assert out.value.tobytes() == alone.value.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(grads, alone_grads))
        assert nodes == alone_nodes
        assert ride_out.tobytes() == predictor_forward(params, ride).tobytes()

    def test_taped_forward_gradient_checks(self):
        feats = np.random.default_rng(3).normal(size=(2, 5, 3))
        init = init_predictor(3, 20, seed=1)

        def program(tape, p):
            out, _ = predictor_forward_tape(p, feats)
            return ad.masked_sum(out, np.ones(out.shape, dtype=bool))

        err = ad.gradient_check(program, init.to_blocks())
        assert err < 1e-4


class TestDiscriminator:
    def test_zero_params_give_half_probability(self):
        params = DiscriminatorParams(layers=((np.zeros((5, 8)), np.zeros(8)),
                                             (np.zeros((8, 1)), np.zeros(1))))
        p = discriminator_forward(params, np.zeros(5))
        assert p == 0.5

    def test_probability_range_and_batch_shape(self):
        params = init_discriminator(6, hidden=(32, 32), seed=4)
        x = np.random.default_rng(5).normal(size=(40, 6)) * 50
        p = discriminator_forward(params, x)
        assert p.shape == (40,)
        assert np.all((p > 0) & (p < 1))

    def test_logits_respond_to_input(self):
        params = init_discriminator(3, seed=8)
        a = discriminator_logits(params, np.array([1.0, 0.0, 0.0]))
        b = discriminator_logits(params, np.array([0.0, 1.0, 0.0]))
        assert a[0] != b[0]

    def test_input_width_checked(self):
        params = init_discriminator(4, seed=0)
        with pytest.raises(DomainError, match="inputs"):
            discriminator_logits(params, np.zeros((2, 3)))

    def test_layer_chain_validated(self):
        with pytest.raises(DomainError, match="chain"):
            DiscriminatorParams(layers=((np.zeros((4, 8)), np.zeros(8)),
                                        (np.zeros((9, 1)), np.zeros(1))))
        with pytest.raises(DomainError, match="single logit"):
            DiscriminatorParams(layers=((np.zeros((4, 2)), np.zeros(2)),))

    def test_taped_logits_match_numpy_and_gradient_check(self):
        params = init_discriminator(4, hidden=(8,), seed=2)
        x = np.random.default_rng(6).normal(size=(7, 4))

        tape = ad.Tape()
        pvars = {k: tape.param(v) for k, v in params.to_blocks().items()}
        out = discriminator_logits_tape(tape, pvars, x)
        np.testing.assert_allclose(out.value[:, 0], discriminator_logits(params, x),
                                   rtol=1e-12, atol=1e-12)

        def program(tape, p):
            logits = discriminator_logits_tape(tape, p, x)
            return ad.masked_mean(ad.logsigmoid(logits), np.ones((7, 1), dtype=bool))

        assert ad.gradient_check(program, params.to_blocks()) < 1e-6


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        pred = init_predictor(5, 21, seed=13)
        disc = init_discriminator(7, seed=14)
        path = tmp_path / "model.ckpt.csv"
        save_checkpoint(path, predictor=pred, discriminator=disc)
        pred2, disc2 = load_checkpoint(path)
        for k, v in pred.to_blocks().items():
            assert np.array_equal(pred2.to_blocks()[k], v)
        for k, v in disc.to_blocks().items():
            assert np.array_equal(disc2.to_blocks()[k], v)

    def test_round_trip_survives_awkward_values(self, tmp_path):
        base = init_predictor(2, 20, seed=0)
        blocks = {k: v.copy() for k, v in base.to_blocks().items()}
        blocks["w_head"][0, 0] = 1e-300
        blocks["w_head"][1, 1] = -1.7976931348623157e308
        blocks["b_head"][2] = 0.1 + 0.2
        pred = PredictorParams.from_blocks(blocks)
        path = tmp_path / "model.ckpt.csv"
        save_checkpoint(path, predictor=pred)
        pred2, disc2 = load_checkpoint(path)
        assert disc2 is None
        assert np.array_equal(pred2.w_head, pred.w_head)
        assert np.array_equal(pred2.b_head, pred.b_head)

    def test_save_is_byte_deterministic(self, tmp_path):
        pred = init_predictor(3, 20, seed=5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_checkpoint(p1, predictor=pred)
        save_checkpoint(p2, predictor=pred)
        assert p1.read_bytes() == p2.read_bytes()

    def test_predictor_only_and_discriminator_only(self, tmp_path):
        pred = init_predictor(3, 20, seed=1)
        path = tmp_path / "p.csv"
        save_checkpoint(path, predictor=pred)
        got_pred, got_disc = load_checkpoint(path)
        assert got_pred is not None and got_disc is None

        disc = init_discriminator(4, seed=1)
        path2 = tmp_path / "d.csv"
        save_checkpoint(path2, discriminator=disc)
        got_pred, got_disc = load_checkpoint(path2)
        assert got_pred is None and got_disc is not None

    def test_malformed_files_raise_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,checkpoint\n")
        with pytest.raises(SchemaError, match="not a checkpoint"):
            load_checkpoint(path)

        path.write_text("lakedo-checkpoint,99\nsection,block,shape,index,value\n")
        with pytest.raises(SchemaError, match="version"):
            load_checkpoint(path)

        path.write_text("lakedo-checkpoint,1\nsection,block,shape,index,value\n"
                        "predictor,w_cell,2x2,0,1.0\n")
        with pytest.raises(SchemaError, match="missing or duplicate"):
            load_checkpoint(path)

    @pytest.mark.parametrize("rows, message", [
        (["predictor,b_head,3,0,1.0", "predictor,b_head,3,1"], "row 4: expected 5 cells"),
        (["predictor,b_head,3,0,1.0", "encoder,b_head,3,1,1.0"],
         "row 4: unknown section 'encoder'"),
        (["predictor,b_head,3,0,1.0", "predictor,b_head,3,1,one"], "row 4: malformed cell"),
        (["predictor,b_head,3,0,1.0", "predictor,b_head,3,x,1.0"], "row 4: malformed cell"),
        (["predictor,b_head,3,0,1.0", "predictor,b_head,3y,1,1.0"], "row 4: malformed cell"),
        (["predictor,b_head,3,0,1.0", "predictor,b_head,1x3,1,1.0"],
         "row 4: inconsistent shape for b_head"),
        # Duplicates are caught even when every index is present.
        ([f"predictor,b_head,3,{i},1.0" for i in (0, 1, 2, 2)],
         "block b_head has missing or duplicate indices"),
        # A huge declared shape is rejected by its row count, never materialised.
        (["predictor,b_head,100000x100000,0,1.0"],
         "block b_head has missing or duplicate indices"),
    ])
    def test_malformed_rows_name_their_row(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["lakedo-checkpoint,1", "section,block,shape,index,value",
                                   *rows]) + "\n")
        with pytest.raises(SchemaError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: {message}"

    def test_one_shape_spelled_two_ways_loads(self, tmp_path):
        # Shapes are compared once parsed, so "3" and "03" are the same shape.
        pred = init_predictor(3, 20, seed=5)
        path = tmp_path / "a.csv"
        save_checkpoint(path, predictor=pred)
        text = path.read_bytes()
        assert b"\r\npredictor,b_head,3,1," in text
        path.write_bytes(text.replace(b"\r\npredictor,b_head,3,1,",
                                      b"\r\npredictor,b_head,03,1,"))
        loaded, _ = load_checkpoint(path)
        for name, block in pred.to_blocks().items():
            np.testing.assert_array_equal(loaded.to_blocks()[name], block)

    def test_save_writes_csv_module_bytes(self, tmp_path):
        # The format is the csv module's: CRLF rows, repr values.
        pred, disc = init_predictor(3, 20, seed=5), init_discriminator(4, seed=6)
        path = tmp_path / "a.csv"
        save_checkpoint(path, predictor=pred, discriminator=disc)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["lakedo-checkpoint", "1"])
        writer.writerow(["section", "block", "shape", "index", "value"])
        for section, params in (("predictor", pred), ("discriminator", disc)):
            for name, arr in params.to_blocks().items():
                shape = "x".join(str(d) for d in arr.shape)
                for idx, value in enumerate(arr.ravel()):
                    writer.writerow([section, name, shape, str(idx), repr(float(value))])
        assert path.read_bytes() == expected.getvalue().encode()

    def test_empty_save_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="nothing"):
            save_checkpoint(tmp_path / "x.csv")
