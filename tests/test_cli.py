"""Command-line behavior: files written, exit codes, reproducibility."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lakedo
from conftest import make_series
from lakedo.adaptive import AprilConfig
from lakedo.cli import (SWEEP_COLUMNS, _sweep_point, load_generate_config, load_sweep_config,
                        load_train_config, main)
from lakedo.errors import ConfigError
from lakedo.networks import init_discriminator, init_predictor, load_checkpoint, save_checkpoint
from lakedo.series import format_value, load_series, write_series
from lakedo.synthetic import TRUTH_COLUMNS, GenConfig, generate_lake, write_truth
from lakedo.training import TrainConfig, validation_rmse, year_windows

GEN_CONFIG = {
    "schema": "lakedo-generate-v1",
    "n_lakes": 2,
    "n_years": 2,
    "obs_sparsity": 0.4,
    "truth_substeps": 24,
    "seed": 0,
}

TRAIN_CONFIG = {
    "schema": "lakedo-train-v1",
    "lambda_epi": 1.0,
    "lambda_hyp": 1.0,
    "learning_rate": 0.02,
    "max_epochs": 2,
    "patience": 2,
    "hidden_size": 20,
    "seed": 1,
    "window_days": 365,
    "train_years": 1,
}


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    cfg = write_json(root / "gen.json", GEN_CONFIG)
    out = root / "data"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def train_cfg(tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg")
    return write_json(root / "train.json", TRAIN_CONFIG)


@pytest.fixture(scope="module")
def long_lake_dir(tmp_path_factory):
    """One 12-year lake and its truth, each file larger than 128 KiB."""
    out = tmp_path_factory.mktemp("long")
    lake = generate_lake(GenConfig(n_lakes=1, n_years=12, truth_substeps=1), 0)
    write_series(lake.series, out / "lake_00.csv")
    write_truth(out / "lake_00_truth.csv", lake)
    return out


@pytest.fixture(scope="module")
def pril_run(data_dir, train_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "pril"
    assert main(["train", "--mode", "pril", "--data", str(data_dir),
                 "--out", str(out), "--config", str(train_cfg)]) == 0
    return out


@pytest.fixture(scope="module")
def april_run(data_dir, train_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "april"
    assert main(["train", "--mode", "april", "--data", str(data_dir),
                 "--out", str(out), "--config", str(train_cfg), "--k", "6"]) == 0
    return out


class TestGenerate:
    def test_writes_lakes_truth_and_manifest(self, data_dir):
        names = sorted(p.name for p in data_dir.iterdir())
        assert names == ["lake_00.csv", "lake_00_truth.csv",
                         "lake_01.csv", "lake_01_truth.csv", "manifest.json"]
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["seed"] == 0
        assert len(manifest["config_sha256"]) == 64
        assert manifest["version"].startswith("lakedo-")
        assert len(manifest["outputs"]) == 4

    def test_same_seed_is_byte_identical(self, data_dir, tmp_path):
        cfg = write_json(tmp_path / "gen.json", GEN_CONFIG)
        again = tmp_path / "data"
        assert main(["generate", "--config", str(cfg), "--out", str(again)]) == 0
        for name in ("lake_00.csv", "lake_00_truth.csv", "lake_01.csv"):
            assert (again / name).read_bytes() == (data_dir / name).read_bytes()
        m0 = json.loads((data_dir / "manifest.json").read_text())
        m1 = json.loads((again / "manifest.json").read_text())
        assert m0["config_sha256"] == m1["config_sha256"]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_json(tmp_path / "gen.json", GEN_CONFIG)
        out = tmp_path / "data"
        assert main(["generate", "--config", str(cfg), "--out", str(out),
                     "--seed", "9"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_zero_sparsity_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gen.json",
                         dict(GEN_CONFIG, obs_sparsity=0.0))
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == 2
        assert "obs_sparsity" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gen.json", dict(GEN_CONFIG, bogus=1))
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("n_lakes", "4"), ("n_lakes", True), ("n_lakes", 2.0), ("truth_substeps", None),
        ("v_total", "2e6"), ("v_total", False), ("obs_sparsity", [0.4]),
        ("obs_noise_sd", float("nan")), ("initial_do", float("inf")),
        pytest.param("v_total", 10**400, id="v_total-beyond-float-range"),
        pytest.param("n_years", 10**400, id="n_years-beyond-int64-range"),
        pytest.param("seed", -1, id="negative-seed"),
    ])
    def test_mistyped_field_rejected(self, tmp_path, capsys, key, value):
        cfg = write_json(tmp_path / "gen.json", dict(GEN_CONFIG, **{key: value}))
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert key in err and err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    def test_int_accepted_for_float_field(self, tmp_path):
        cfg = write_json(tmp_path / "gen.json", dict(GEN_CONFIG, v_total=2_000_000))
        assert load_generate_config(cfg).v_total == 2_000_000

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        assert main(["generate", "--out", str(tmp_path / "d"), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    def test_out_of_memory_exit_2(self, tmp_path, capsys):
        # The int64 calendar of 10**15 years needs over 2 EiB, more than any
        # address space holds, so the allocation fails without touching memory.
        cfg = write_json(tmp_path / "gen.json", dict(GEN_CONFIG, n_years=10**15))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["n_years", "year_days"])
    def test_unsizable_day_count_names_both_fields(self, tmp_path, capsys, key):
        # 2**62 days: numpy cannot even size their int64 calendar (2**65
        # bytes), so the config is rejected before any array is made.
        cfg = write_json(tmp_path / "gen.json", dict(GEN_CONFIG, **{key: 2**62}))
        tracemalloc.start()
        try:
            code = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "d")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n_years" in err and "year_days" in err
        assert peak < 2**20
        assert not (tmp_path / "d").exists()

    def test_failed_generate_leaves_no_out(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gen.json", dict(GEN_CONFIG, n_lakes=1, n_years=1,
                                                     scenario_a_count=500))
        out = tmp_path / "data"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "not enough stratified days" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_schema_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gen.json",
                         dict(GEN_CONFIG, schema="lakedo-train-v1"))
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == 2
        assert "schema" in capsys.readouterr().err


class TestTrain:
    def test_writes_checkpoint_history_manifest(self, pril_run):
        names = sorted(p.name for p in pril_run.iterdir())
        assert names == ["checkpoint.csv", "history.csv", "manifest.json"]
        with open(pril_run / "history.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "epoch"
        assert [r[0] for r in rows[1:]] == ["1", "2"]
        predictor, discriminator = load_checkpoint(pril_run / "checkpoint.csv")
        assert predictor is not None and discriminator is None

    def test_manifest_counters(self, pril_run):
        counters = json.loads((pril_run / "manifest.json").read_text())["counters"]
        assert set(counters) == {"epochs", "best_epoch", "tape_nodes", "backward_visits"}
        assert counters["epochs"] == 2
        assert 1 <= counters["best_epoch"] <= 2
        assert 0 < counters["backward_visits"] <= counters["tape_nodes"] < 100

    def test_baseline_equals_pril_with_zero_weights(self, data_dir, tmp_path):
        cfg = write_json(tmp_path / "t.json",
                         dict(TRAIN_CONFIG, lambda_epi=0.0, lambda_hyp=0.0))
        outs = {}
        for mode in ("baseline", "pril"):
            out = tmp_path / mode
            assert main(["train", "--mode", mode, "--data", str(data_dir),
                         "--out", str(out), "--config", str(cfg)]) == 0
            outs[mode] = out
        for name in ("checkpoint.csv", "history.csv"):
            assert (outs["baseline"] / name).read_bytes() == \
                (outs["pril"] / name).read_bytes()

    def test_april_emits_labels_and_discriminator(self, april_run):
        out = april_run
        assert (out / "labels_00.csv").exists()
        assert (out / "labels_01.csv").exists()
        with open(out / "labels_00.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["date", "class", "provenance", "k"]
        ks = {row[3] for row in rows[1:]}
        assert ks <= {"1", "6"}
        counters = json.loads((out / "manifest.json").read_text())["counters"]
        with open(out / "history.csv", newline="") as fh:
            n_rows = len(list(csv.reader(fh))) - 1
        assert counters["epochs"] == n_rows
        assert 1 <= counters["best_epoch"] <= n_rows
        assert counters["tape_nodes"] > 0 and counters["backward_visits"] > 0

    def test_april_manifest_counts_labels(self, april_run):
        counters = json.loads((april_run / "manifest.json").read_text())["counters"]
        assert set(counters) == {"epochs", "best_epoch", "tape_nodes", "backward_visits",
                                 "labels", "classes", "k_hist"}
        rows = []
        for path in sorted(april_run.glob("labels_*.csv")):
            with open(path, newline="") as fh:
                rows += list(csv.DictReader(fh))
        assert len(rows) > 0
        assert set(counters["labels"]) <= {"VOLUME_RULE", "ERROR_RULE", "DISCRIMINATOR",
                                           "FALLBACK"}
        assert set(counters["classes"]) == {"MILD", "DRASTIC"}
        assert set(counters["k_hist"]) <= {"1", "6"}
        for key, column in (("labels", "provenance"), ("classes", "class"), ("k_hist", "k")):
            assert sum(counters[key].values()) == len(rows)
            for value, n in counters[key].items():
                assert n == sum(row[column] == value for row in rows), (key, value)

    @pytest.mark.parametrize("payload, key", [
        ({"hidden_size": 30.5}, "hidden_size"),
        ({"max_epochs": "2"}, "max_epochs"),
        ({"learning_rate": True}, "learning_rate"),
        ({"april": {"k_drastic": 12.0}}, "k_drastic"),
        ({"april": {"gamma_factor": "1.5"}}, "gamma_factor"),
        ({"april": {"disc_hidden": ["a"]}}, "disc_hidden"),
        ({"april": {"disc_hidden": 32}}, "disc_hidden"),
        ({"april": {"disc_hidden": [0]}}, "disc_hidden"),
        ({"april": {"disc_learning_rate": float("nan")}}, "disc_learning_rate"),
        ({"april": {"disc_hidden": [10**20]}}, "disc_hidden"),
        ({"seed": -1}, "seed"),
    ])
    def test_mistyped_train_field_rejected(self, tmp_path, capsys, payload, key):
        cfg = write_json(tmp_path / "train.json", dict(TRAIN_CONFIG, **payload))
        assert main(["train", "--mode", "april", "--data", str(tmp_path / "none"),
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert key in err and err.count("\n") == 1

    def test_missing_data_dir_exit_2(self, train_cfg, tmp_path, capsys):
        assert main(["train", "--mode", "pril", "--data",
                     str(tmp_path / "nope"), "--out", str(tmp_path / "o"),
                     "--config", str(train_cfg)]) == 2
        assert "data directory" in capsys.readouterr().err

    def test_k_flag_outside_april_exit_2(self, data_dir, train_cfg, tmp_path,
                                         capsys):
        assert main(["train", "--mode", "pril", "--data", str(data_dir),
                     "--out", str(tmp_path / "o"), "--config", str(train_cfg),
                     "--k", "6"]) == 2
        assert "april" in capsys.readouterr().err

    def test_divergence_exit_3(self, tmp_path, capsys):
        # An absurdly large observation overflows the squared error.
        series = make_series("M" * 30, obs={t: (None, None, 1e200)
                                            for t in range(0, 30, 2)})
        data = tmp_path / "data"
        data.mkdir()
        write_series(series, data / "lake_t0.csv")
        cfg = write_json(tmp_path / "t.json",
                         dict(TRAIN_CONFIG, window_days=10, lambda_epi=0.0,
                              lambda_hyp=0.0))
        # Warnings raise here, so a numpy floating-point warning escaping
        # the CLI would fail the run instead of being captured silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--mode", "pril", "--data", str(data),
                         "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "epoch" in err
        assert not (tmp_path / "o").exists()

    def test_no_validation_window_leaves_no_out(self, data_dir, tmp_path, capsys):
        cfg = write_json(tmp_path / "t.json", dict(TRAIN_CONFIG, train_years=2))
        out = tmp_path / "o"
        assert main(["train", "--mode", "pril", "--data", str(data_dir),
                     "--out", str(out), "--config", str(cfg)]) == 2
        assert "need more than 2 windows of 365 days, got 2" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_date_exit_2(self, data_dir, train_cfg, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        lines = (data_dir / "lake_00.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[0] = "99999999999999999999"
        lines[3] = ",".join(cells)
        (data / "lake_00.csv").write_text("\n".join(lines) + "\n")
        assert main(["train", "--mode", "pril", "--data", str(data),
                     "--out", str(tmp_path / "o"), "--config", str(train_cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "row 4" in err and "99999999999999999999" in err

    def test_numpy_ma_is_not_imported_by_training(self, data_dir, train_cfg, tmp_path):
        # np.unique imports numpy.ma on first use, about 12 ms of every start-up.
        code = ("import sys; from lakedo.cli import main; "
                f"main(['train', '--mode', 'pril', '--data', {str(data_dir)!r}, "
                f"'--out', {str(tmp_path / 'o')!r}, '--config', {str(train_cfg)!r}]); "
                "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(lakedo.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", "x", "--out", "y"])
        assert exc.value.code == 2


class TestEvaluate:
    def test_checkpoint_reproduces_validation_rmse(self, data_dir, train_cfg,
                                                   pril_run, tmp_path):
        out = tmp_path / "eval"
        assert main(["evaluate", str(pril_run / "checkpoint.csv"),
                     "--data", str(data_dir), "--out", str(out),
                     "--config", str(train_cfg)]) == 0
        with open(out / "comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        got = np.array([float(rows[1][1]), float(rows[1][4]), float(rows[1][7])])

        predictor, _ = load_checkpoint(pril_run / "checkpoint.csv")
        from lakedo.series import load_series
        lakes = [load_series(p) for p in sorted(data_dir.glob("lake_*.csv"))
                 if not p.stem.endswith("_truth")]
        val = []
        for lake in lakes:
            val += [w for _, w in year_windows(lake, 365)[1:]]
        expected = validation_rmse(predictor, val)[:3]
        np.testing.assert_allclose(got, expected, rtol=1e-9)

        # The same numbers appear in some history row (the best epoch's).
        with open(pril_run / "history.csv", newline="") as fh:
            history = list(csv.reader(fh))[1:]
        matches = [row for row in history
                   if np.allclose([float(row[5]), float(row[6]), float(row[7])],
                                  got, rtol=1e-9)]
        assert matches

    def test_config_split_skips_a_lake_without_validation_window(
            self, data_dir, train_cfg, pril_run, tmp_path, capsys):
        # lake_01 keeps 500 days: one training window, no validation window.
        data = tmp_path / "data"
        data.mkdir()
        (data / "lake_00.csv").write_text((data_dir / "lake_00.csv").read_text())
        lines = (data_dir / "lake_01.csv").read_text().splitlines()
        (data / "lake_01.csv").write_text("\n".join(lines[:501]) + "\n")
        checkpoint = str(pril_run / "checkpoint.csv")
        out = tmp_path / "eval"
        assert main(["evaluate", checkpoint, "--data", str(data), "--out", str(out),
                     "--config", str(train_cfg)]) == 0
        with open(out / "comparison.csv", newline="") as fh:
            row = list(csv.reader(fh))[1]
        from lakedo.series import load_series
        predictor, _ = load_checkpoint(checkpoint)
        val = [w for _, w in year_windows(load_series(data / "lake_00.csv"), 365)[1:]]
        assert [float(row[1 + 3 * task]) for task in range(3)] == \
            list(validation_rmse(predictor, val)[:3])

        (data / "lake_00.csv").unlink()
        assert main(["evaluate", checkpoint, "--data", str(data),
                     "--out", str(tmp_path / "o"), "--config", str(train_cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "error: no validation windows under this config\n"
        assert not (tmp_path / "o").exists()    # checked before any output is written

    def test_volume_change_violation_exit_2_before_any_output(self, data_dir, pril_run,
                                                              tmp_path, capsys):
        # One stratified day grows by 1 % with its volume identity kept: the
        # layer changes from the day before no longer cancel.
        data = tmp_path / "data"
        data.mkdir()
        lines = (data_dir / "lake_00.csv").read_text().splitlines()
        day = next(i for i in range(2, len(lines))
                   if lines[i].split(",")[1] == lines[i - 1].split(",")[1] == "S")
        cells = lines[day].split(",")
        cells[2:5] = [repr(float(c) * 1.01) for c in cells[2:5]]
        lines[day] = ",".join(cells)
        (data / "lake_00.csv").write_text("\n".join(lines) + "\n")
        assert main(["evaluate", str(pril_run / "checkpoint.csv"), "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data / 'lake_00.csv'}: day {cells[0]}: "
                              "layer volume changes must cancel")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_bad_config_exit_2_before_any_output(self, data_dir, train_cfg, pril_run,
                                                 tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", dict(TRAIN_CONFIG, bogus=1))
        out = tmp_path / "o"
        assert main(["evaluate", str(pril_run / "checkpoint.csv"), "--data", str(data_dir),
                     "--out", str(out), "--config", str(cfg), "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown keys ['bogus']" in err
        assert not out.exists()

    def test_config_hash_does_not_depend_on_checkpoint_location(self, data_dir, pril_run,
                                                                tmp_path):
        manifests = []
        for where in ("a", "b"):
            checkpoint = tmp_path / where / "ckpt.csv"
            checkpoint.parent.mkdir()
            shutil.copyfile(pril_run / "checkpoint.csv", checkpoint)
            out = tmp_path / where / "eval"
            assert main(["evaluate", str(checkpoint), "--data", str(data_dir),
                         "--out", str(out), "--k", "2"]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
            assert str(checkpoint) in manifests[-1]["inputs"]
        assert manifests[0]["config_sha256"] == manifests[1]["config_sha256"]
        assert (tmp_path / "a" / "eval" / "comparison.csv").read_bytes() == \
            (tmp_path / "b" / "eval" / "comparison.csv").read_bytes()

    def test_manifest_lists_every_truth_file_read(self, data_dir, pril_run, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        for name in ("lake_00.csv", "lake_01.csv"):
            shutil.copyfile(data_dir / name, bare / name)
        for data, truths in ((data_dir, ["lake_00_truth.csv", "lake_01_truth.csv"]),
                             (bare, [])):
            out = tmp_path / f"eval_{data.name}"
            assert main(["evaluate", str(pril_run / "checkpoint.csv"), "--data", str(data),
                         "--out", str(out), "--k", "2"]) == 0
            inputs = json.loads((out / "manifest.json").read_text())["inputs"]
            assert [p for p in inputs if p.endswith("_truth.csv")] == \
                [str(data / name) for name in truths]
            assert str(data / "lake_01.csv") in inputs

    def test_one_predictor_forward_serves_every_lake(self, data_dir, pril_run, tmp_path,
                                                     monkeypatch):
        from lakedo import networks
        calls = []
        forward = networks.predictor_forward

        def counting(params, features):
            calls.append(np.shape(features))
            return forward(params, features)

        monkeypatch.setattr(networks, "predictor_forward", counting)
        out = tmp_path / "eval"
        assert main(["evaluate", str(pril_run / "checkpoint.csv"),
                     "--data", str(data_dir), "--out", str(out), "--k", "2"]) == 0
        # Both lakes in one batch, and the RMSE reuses it (no second forward).
        assert len(calls) == 1 and calls[0][0] == 2
        with open(out / "comparison.csv", newline="") as fh:
            row = list(csv.reader(fh))[1]
        predictor, _ = load_checkpoint(pril_run / "checkpoint.csv")
        from lakedo.series import load_series
        lakes = [load_series(p) for p in sorted(data_dir.glob("lake_*.csv"))
                 if not p.stem.endswith("_truth")]
        monkeypatch.setattr(networks, "predictor_forward", forward)
        expected = validation_rmse(predictor, lakes)[:3]
        assert [float(row[1 + 3 * task]) for task in range(3)] == list(expected)

    def test_per_lake_timeseries_with_truth(self, data_dir, pril_run, tmp_path):
        out = tmp_path / "eval"
        assert main(["evaluate", str(pril_run / "checkpoint.csv"),
                     "--data", str(data_dir), "--out", str(out),
                     "--k", "12"]) == 0
        files = sorted(p.name for p in out.glob("timeseries_*.csv"))
        assert files == ["timeseries_00.csv", "timeseries_01.csv"]
        with open(out / "timeseries_00.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) == 13
        assert any(row[12] != "" for row in rows[1:])

    @pytest.mark.parametrize("obs, expected_nan", [
        ({0: (None, None, 4.0), 2: (5.0, None, None)}, [False, True, False]),
        ({}, [True, True, True]),
    ])
    def test_unobserved_task_gives_empty_rmse_cell(self, tmp_path, obs, expected_nan):
        data = tmp_path / "data"
        data.mkdir()
        series = make_series("MSSM", obs=obs)
        write_series(series, data / "lake_t0.csv")
        checkpoint = tmp_path / "ckpt.csv"
        save_checkpoint(checkpoint, predictor=init_predictor(series.n_features, 20, seed=0))
        out = tmp_path / "eval"
        assert main(["evaluate", str(checkpoint), "--data", str(data),
                     "--out", str(out)]) == 0
        with open(out / "comparison.csv", newline="") as fh:
            row = list(csv.reader(fh))[1]
        assert [row[1 + 3 * task] == "" for task in range(3)] == expected_nan

    def test_all_mixed_lake_pools_empty_layer_inconsistency_without_a_warning(self, tmp_path,
                                                                              capsys):
        # No lake defines a layer task, so its pooled inconsistency is 0 / 0.
        data = tmp_path / "data"
        data.mkdir()
        series = make_series("MMMM", obs={0: (None, None, 4.0)})
        write_series(series, data / "lake_t0.csv")
        checkpoint = tmp_path / "ckpt.csv"
        save_checkpoint(checkpoint, predictor=init_predictor(series.n_features, 20, seed=0))
        out = tmp_path / "eval"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["evaluate", str(checkpoint), "--data", str(data),
                         "--out", str(out)]) == 0
        assert not caught and capsys.readouterr().err == ""
        with open(out / "comparison.csv", newline="") as fh:
            row = list(csv.reader(fh))[1]
        assert [row[3 + 3 * task] == "" for task in range(3)] == [True, True, False]

    @pytest.mark.parametrize("column, value", [("obs_epi", "inf"), ("feat_0", "1e400")])
    def test_infinite_lake_cell_exit_2_naming_file_and_day(self, data_dir, pril_run, tmp_path,
                                                           capsys, column, value):
        data = tmp_path / "data"
        data.mkdir()
        lines = (data_dir / "lake_00.csv").read_text().splitlines()
        c = lines[0].split(",").index(column)
        row = next(i for i in range(1, len(lines)) if lines[i].split(",")[1] == "S")
        cells = lines[row].split(",")
        cells[c] = value
        lines[row] = ",".join(cells)
        (data / "lake_00.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["evaluate", str(pril_run / "checkpoint.csv"), "--data", str(data),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {data / 'lake_00.csv'}: day {cells[0]}: "
                                           f"column {column} is not a finite number: "
                                           f"{value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("column, value", [
        (0, "99999999999999999999"), (0, "abc"), (2, "x"), (1, "inf"), (3, "1e400"),
        (4, "AB"),
    ])
    def test_corrupt_truth_file_exit_2(self, data_dir, pril_run, tmp_path, capsys,
                                       column, value):
        # The truth file follows the lake file's cell rules: a bad date or tag
        # names its row, a bad value cell (infinite ones included) its day and
        # column.
        data = tmp_path / "data"
        data.mkdir()
        for name in ("lake_00.csv", "lake_00_truth.csv"):
            (data / name).write_text((data_dir / name).read_text())
        truth = data / "lake_00_truth.csv"
        lines = truth.read_text().splitlines()
        cells = lines[3].split(",")
        cells[column] = value
        lines[3] = ",".join(cells)
        truth.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["evaluate", str(pril_run / "checkpoint.csv"), "--data", str(data),
                     "--out", str(out), "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        where = ("row 4" if column in (0, 4)
                 else f"day {cells[0]}: column {TRUTH_COLUMNS[column]}")
        assert "lake_00_truth.csv" in err and where in err and repr(value) in err
        assert not out.exists()

    @pytest.mark.parametrize("cut", ["truncate", "shift"])
    def test_truth_dates_must_match_lake_exit_2(self, data_dir, pril_run, tmp_path,
                                                capsys, cut):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("lake_00.csv", "lake_00_truth.csv", "lake_01.csv"):
            (data / name).write_text((data_dir / name).read_text())
        n_days = len((data / "lake_01.csv").read_text().splitlines()) - 1
        lines = (data_dir / "lake_01_truth.csv").read_text().splitlines()
        if cut == "truncate":
            lines, n_rows = lines[:100], 99
        else:                                   # every date one day late
            lines = lines[:1] + [f"{int(date) + 1},{rest}"
                                 for date, rest in (line.split(",", 1) for line in lines[1:])]
            n_rows = n_days
        (data / "lake_01_truth.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["evaluate", str(pril_run / "checkpoint.csv"), "--data", str(data),
                     "--out", str(out), "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "lake_01_truth.csv" in err
        assert f"{n_rows} rows" in err and f"{n_days} days" in err
        assert not out.exists()                 # checked before lake 00's output is written

    def test_corrupt_checkpoint_exit_2(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,checkpoint\n")
        assert main(["evaluate", str(bad), "--data", str(data_dir),
                     "--out", str(tmp_path / "o")]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_non_finite_predictor_value_exit_2_naming_the_file(self, data_dir, pril_run,
                                                                tmp_path, capsys):
        lines = (pril_run / "checkpoint.csv").read_bytes().split(b"\r\n")
        row = next(i for i, line in enumerate(lines) if line.startswith(b"predictor,w_head,"))
        lines[row] = lines[row].rsplit(b",", 1)[0] + b",nan"
        checkpoint = tmp_path / "nan.csv"
        checkpoint.write_bytes(b"\r\n".join(lines))
        out = tmp_path / "o"
        assert main(["evaluate", str(checkpoint), "--data", str(data_dir),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {checkpoint}: ") and "w_head must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, target", [
        ("evaluate", "lake_00.csv"), ("train", "lake_00.csv"),
        ("evaluate", "lake_00_truth.csv"), ("evaluate", "checkpoint.csv"),
    ])
    def test_stray_quote_exit_2(self, long_lake_dir, train_cfg, tmp_path, capsys,
                                command, target):
        # The csv module reads from a stray quote to the end of the file as one
        # field, and every target holds more than its 128 KiB field limit.
        data = tmp_path / "data"
        shutil.copytree(long_lake_dir, data)
        checkpoint = tmp_path / "checkpoint.csv"
        # A hidden-20 checkpoint as train --mode april writes it.
        save_checkpoint(checkpoint, predictor=init_predictor(10, 20, seed=0),
                        discriminator=init_discriminator(11, seed=0))
        path = checkpoint if target == checkpoint.name else data / target
        lines = path.read_bytes().split(b"\r\n")
        lines[2] = b'"' + lines[2]
        path.write_bytes(b"\r\n".join(lines))
        args = (["evaluate", str(checkpoint), "--k", "2"] if command == "evaluate"
                else ["train", "--mode", "pril", "--config", str(train_cfg)])
        assert main(args + ["--data", str(data), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert target in err and "row 3" in err and "line" in err

    def test_feature_mismatch_exit_2(self, pril_run, tmp_path, capsys):
        data = tmp_path / "narrow"
        data.mkdir()
        write_series(make_series("MSSM", obs={0: (None, None, 4.0)}),
                     data / "lake_zz.csv")
        assert main(["evaluate", str(pril_run / "checkpoint.csv"),
                     "--data", str(data), "--out", str(tmp_path / "o")]) == 2
        assert "feature columns" in capsys.readouterr().err


@pytest.mark.parametrize("flag, command", [
    ("seed", ["generate", "--config", "{gen}"]),
    ("k", ["train", "--mode", "april", "--data", "{data}", "--config", "{train}"]),
    ("k", ["evaluate", "{checkpoint}", "--data", "{data}"]),
    ("threads", ["sweep", "--config", "{sweep}", "--data", "{data}"]),
], ids=["generate-seed", "train-k", "evaluate-k", "sweep-threads"])
@pytest.mark.parametrize("value", [2**63, -2**63 - 1], ids=["above", "below"])
def test_integer_flag_beyond_int64_exit_2(flag, command, value, data_dir, train_cfg, pril_run,
                                          sweep_cfg, tmp_path, capsys, monkeypatch):
    # Checked before dispatch, as the config fields are. No pool may start
    # for a huge --threads, so the pool class is taken away.
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    paths = {"gen": write_json(tmp_path / "gen.json", GEN_CONFIG), "data": data_dir,
             "train": train_cfg, "checkpoint": pril_run / "checkpoint.csv", "sweep": sweep_cfg}
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in command] + ["--out", str(out), f"--{flag}", str(value)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --{flag} must be an integer in the int64 range\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["train", "--mode", "april", "--data", "{data}", "--config", "{train}"],
    ["evaluate", "{checkpoint}", "--data", "{data}"],
], ids=["train", "evaluate"])
def test_zero_substeps_flag_exit_2_before_any_output(command, data_dir, train_cfg, pril_run,
                                                     tmp_path, capsys):
    paths = {"data": data_dir, "train": train_cfg, "checkpoint": pril_run / "checkpoint.csv"}
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in command] + ["--out", str(out), "--k", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --k must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("k, message", [
    (2**62, "error: array is too big"),
    (10**14, "error: out of memory"),
], ids=["unsizable", "unallocatable"])
def test_evaluate_k_beyond_memory_exit_2_before_any_output(k, message, data_dir, pril_run,
                                                           tmp_path, capsys):
    # The reference simulation's k substep weights (np.arange(1, k + 1)):
    # 2**62 values numpy cannot size; 10**14 values (800 TB) exceed the 128 TB
    # user address space, so the allocation fails under any overcommit policy.
    out = tmp_path / "out"
    argv = ["evaluate", str(pril_run / "checkpoint.csv"), "--data", str(data_dir),
            "--out", str(out), "--k", str(k)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("case, message", [
    ("config not JSON", "not valid JSON"),
    ("config a JSON array", "config must be a JSON object"),
    ("no lake CSV", "no lake CSV files in"),
    ("discriminator-only checkpoint", "no predictor section in checkpoint"),
    ("empty lake CSV", "empty file"),
    ("unknown sweep key", "unknown keys ['bogus']"),
    ("header-only lake CSV", "lake_00.csv: evaluation needs at least two days, got 0"),
    ("one-day lake CSV", "lake_00.csv: evaluation needs at least two days, got 1"),
])
def test_input_error_exit_2_with_one_line_and_no_out(case, message, data_dir, train_cfg,
                                                     pril_run, tmp_path, capsys):
    (tmp_path / "not.json").write_text("{")
    (tmp_path / "array.json").write_text(json.dumps([TRAIN_CONFIG]))
    (tmp_path / "no_lakes").mkdir()
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "lake_00.csv").write_text("")
    lines = (data_dir / "lake_00.csv").read_text().splitlines(keepends=True)
    for days in (0, 1):
        (tmp_path / f"days_{days}").mkdir()
        (tmp_path / f"days_{days}" / "lake_00.csv").write_text("".join(lines[:1 + days]))
    save_checkpoint(tmp_path / "disc.csv", discriminator=init_discriminator(4, hidden=(2,)))
    write_json(tmp_path / "sweep.json", {"schema": "lakedo-sweep-v1", "lambda_epi": [0.0],
                                         "lambda_hyp": [0.0], "bogus": 1})
    data, pril = ["--data", str(data_dir)], ["train", "--mode", "pril"]
    argv = {
        "config not JSON": ["generate", "--config", str(tmp_path / "not.json")],
        "config a JSON array": [*pril, "--config", str(tmp_path / "array.json"), *data],
        "no lake CSV": [*pril, "--data", str(tmp_path / "no_lakes")],
        "discriminator-only checkpoint": ["evaluate", str(tmp_path / "disc.csv"), *data],
        "empty lake CSV": [*pril, "--data", str(tmp_path / "empty")],
        "unknown sweep key": ["sweep", "--config", str(tmp_path / "sweep.json"), *data],
        "header-only lake CSV": ["evaluate", str(pril_run / "checkpoint.csv"),
                                 "--data", str(tmp_path / "days_0")],
        "one-day lake CSV": ["evaluate", str(pril_run / "checkpoint.csv"),
                             "--data", str(tmp_path / "days_1")],
    }[case]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["train", "--mode", "april", "--config", "{train}"],
    ["evaluate", "{checkpoint}"],
    ["sweep", "--config", "{sweep}"],
], ids=["train", "evaluate", "sweep"])
def test_duplicate_lake_id_exit_2_naming_both_files(command, data_dir, train_cfg, pril_run,
                                                    sweep_cfg, tmp_path, capsys):
    # Both file stems give lake id 00 once a leading 'lake_' is dropped.
    data = shutil.copytree(data_dir, tmp_path / "data")
    shutil.copy(data / "lake_00.csv", data / "00.csv")
    paths = {"train": train_cfg, "checkpoint": pril_run / "checkpoint.csv", "sweep": sweep_cfg}
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in command] + ["--data", str(data), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {data / '00.csv'} and {data / 'lake_00.csv'} both hold "
                   "lake id '00' (the file stem without 'lake_')\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["train", "--mode", "pril", "--config", "{train}"],
    ["sweep", "--config", "{sweep}"],
], ids=["train", "sweep"])
def test_feature_count_mismatch_exit_2_naming_both_files(command, data_dir, train_cfg,
                                                         sweep_cfg, tmp_path, capsys):
    # lake_01 loses its last feature column, feat_9.
    data = shutil.copytree(data_dir, tmp_path / "data")
    narrow = data / "lake_01.csv"
    narrow.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                              for line in narrow.read_text().splitlines()))
    paths = {"train": train_cfg, "sweep": sweep_cfg}
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in command] + ["--data", str(data), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: {narrow} has 9 feature columns, "
                                       f"but {data / 'lake_00.csv'} has 10\n")
    assert not out.exists()


SWEEP_POINT = {"schema": "lakedo-sweep-v1", "lambda_epi": [0.0], "lambda_hyp": [0.0]}


@pytest.mark.parametrize("command, config, message", [
    (["train", "--mode", "pril"], dict(TRAIN_CONFIG, learning_rate=5),
     "{cfg}: learning_rate must lie in [0.001, 0.05]"),
    (["train", "--mode", "april"], dict(TRAIN_CONFIG, april={"k_drastic": 0}),
     "{cfg}: april: k_drastic must be >= 1"),
    (["sweep"], dict(SWEEP_POINT, train={"batch_size": 64}),
     "{cfg}: train: batch_size must lie in [8, 32]"),
    (["sweep"], dict(SWEEP_POINT, lambda_epi=[-1.0]),
     "{cfg}: lambda_epi must be a nonempty list of finite weights >= 0"),
    (["generate"], dict(GEN_CONFIG, strat_start=0),
     "{cfg}: strat_start must lie in [1, strat_end)"),
    (["generate"], dict(GEN_CONFIG, strat_end=366),
     "{cfg}: strat_end must be <= year_days"),
    (["generate"], dict(GEN_CONFIG, strat_start=200, strat_end=200),
     "{cfg}: strat_start must lie in [1, strat_end)"),
    (["train", "--mode", "pril", "--seed", "-1"], TRAIN_CONFIG, "--seed must be >= 0"),
], ids=["train", "train-april", "sweep-train", "sweep-grid", "generate", "generate-strat-end",
        "generate-strat-order", "seed-flag"])
def test_config_range_error_exit_2_naming_its_source(command, config, message, data_dir,
                                                     tmp_path, capsys):
    cfg = write_json(tmp_path / "config.json", config)
    out = tmp_path / "out"
    data = [] if command[0] == "generate" else ["--data", str(data_dir)]
    assert main(command + ["--config", str(cfg), *data, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def sweep_cfg(tmp_path_factory):
    payload = {
        "schema": "lakedo-sweep-v1",
        "lambda_epi": [0.0, 1.0],
        "lambda_hyp": [0.0],
        "train": {k: v for k, v in TRAIN_CONFIG.items()
                  if k not in ("schema", "lambda_epi", "lambda_hyp")},
    }
    return write_json(tmp_path_factory.mktemp("sweep") / "grid.json", payload)


class TestSweep:

    def test_grid_rows_in_order(self, data_dir, sweep_cfg, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(sweep_cfg),
                     "--data", str(data_dir), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(("lambda_epi", "lambda_hyp", "rmse_epi",
                                "rmse_hyp", "rmse_total"))
        assert [(r[0], r[1]) for r in rows[1:]] == [("0", "0"), ("1", "0")]
        assert all(cell != "" for row in rows[1:] for cell in row)

    def test_zero_row_matches_baseline_run(self, data_dir, sweep_cfg, train_cfg,
                                           tmp_path):
        sweep_out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(sweep_cfg),
                     "--data", str(data_dir), "--out", str(sweep_out)]) == 0
        base_out = tmp_path / "base"
        assert main(["train", "--mode", "baseline", "--data", str(data_dir),
                     "--out", str(base_out), "--config", str(train_cfg)]) == 0
        eval_out = tmp_path / "eval"
        assert main(["evaluate", str(base_out / "checkpoint.csv"),
                     "--data", str(data_dir), "--out", str(eval_out),
                     "--config", str(train_cfg)]) == 0
        with open(sweep_out / "sweep.csv", newline="") as fh:
            zero_row = list(csv.reader(fh))[1]
        with open(eval_out / "comparison.csv", newline="") as fh:
            cmp_row = list(csv.reader(fh))[1]
        assert zero_row[2:5] == [cmp_row[1], cmp_row[4], cmp_row[7]]

    def test_threads_do_not_change_output(self, data_dir, sweep_cfg, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["sweep", "--config", str(sweep_cfg), "--data",
                     str(data_dir), "--out", str(serial)]) == 0
        assert main(["sweep", "--config", str(sweep_cfg), "--data",
                     str(data_dir), "--out", str(parallel),
                     "--threads", "2"]) == 0
        assert (serial / "sweep.csv").read_bytes() == \
            (parallel / "sweep.csv").read_bytes()

    def test_workers_capped_at_grid_size(self, data_dir, sweep_cfg, tmp_path, monkeypatch):
        # A stand-in pool: records its size and maps serially, so no process starts.
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main(["sweep", "--config", str(sweep_cfg), "--data", str(data_dir),
                     "--out", str(serial)]) == 0
        assert main(["sweep", "--config", str(sweep_cfg), "--data", str(data_dir),
                     "--out", str(pooled), "--threads", "64"]) == 0
        assert sizes == [2]
        assert (serial / "sweep.csv").read_bytes() == (pooled / "sweep.csv").read_bytes()

    def test_process_pool_is_not_imported_with_the_cli(self):
        # Only a parallel sweep needs it; every other command would pay its
        # import at start-up.
        code = "import sys, lakedo.cli; print('concurrent.futures' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(lakedo.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_too_short_corpus_exit_2(self, data_dir, tmp_path, capsys):
        # A bad-input error in a grid point fails the command, as it fails train.
        cfg = write_json(tmp_path / "grid.json", {
            "schema": "lakedo-sweep-v1", "lambda_epi": [0.0, 1.0], "lambda_hyp": [0.0],
            "train": dict(max_epochs=2, window_days=365, train_years=2)})
        assert main(["sweep", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "windows" in err
        assert not (tmp_path / "o").exists()

    def test_every_point_diverged_exit_3(self, tmp_path, capsys):
        # test_divergence_exit_3's series: every grid point overflows.
        series = make_series("M" * 30, obs={t: (None, None, 1e200)
                                            for t in range(0, 30, 2)})
        data = tmp_path / "data"
        data.mkdir()
        write_series(series, data / "lake_t0.csv")
        cfg = write_json(tmp_path / "grid.json", {
            "schema": "lakedo-sweep-v1", "lambda_epi": [0.0, 1.0], "lambda_hyp": [0.0],
            "train": dict(max_epochs=2, window_days=10)})
        assert main(["sweep", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3
        assert all("failed: TrainingDiverged" in line for line in lines[:2])
        assert lines[2].startswith("error:")
        # The table and manifest still record every failed point.
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["manifest.json",
                                                                       "sweep.csv"]

    def test_config_hash_ignores_the_outcome_and_manifest_lists_failures(self, tmp_path):
        # One grid over a healthy corpus and over test_every_point_diverged_exit_3's.
        regimes = ("MMM" + "S" * 4 + "MMM") * 3
        corpora = {
            "healthy": make_series(regimes, lake_id="h1", f_exo=(0.5, -0.4, 0.1),
                                   obs={t: (6.0, 4.0, None) if regimes[t] == "S"
                                        else (None, None, 7.0) for t in range(0, 30, 2)}),
            "diverged": make_series("M" * 30, obs={t: (None, None, 1e200)
                                                   for t in range(0, 30, 2)}),
        }
        cfg = write_json(tmp_path / "grid.json", {
            "schema": "lakedo-sweep-v1", "lambda_epi": [0.0, 1.0], "lambda_hyp": [0.0],
            "train": dict(max_epochs=2, window_days=10)})
        manifests = {}
        for name, series in corpora.items():
            data = tmp_path / name / "data"
            data.mkdir(parents=True)
            write_series(series, data / "lake_t0.csv")
            out = tmp_path / name / "o"
            assert main(["sweep", "--config", str(cfg), "--data", str(data),
                         "--out", str(out)]) == (3 if name == "diverged" else 0)
            manifests[name] = json.loads((out / "manifest.json").read_text())
        assert manifests["healthy"]["config_sha256"] == manifests["diverged"]["config_sha256"]
        assert manifests["healthy"]["failures"] == []
        failures = manifests["diverged"]["failures"]
        assert [(f["lambda_epi"], f["lambda_hyp"]) for f in failures] == [(0.0, 0.0), (1.0, 0.0)]
        assert all(f["error"].startswith("TrainingDiverged: ") for f in failures)

    @pytest.mark.parametrize("case", ["weights", "diverged"])
    def test_sweep_csv_matches_per_row_writer(self, tmp_path, case):
        # Big layer fluxes: a 1e308 weight overflows the consistency term.
        regimes = ("MMM" + "S" * 4 + "MMM") * 3
        healthy = make_series(regimes, lake_id="h1", f_exo=(50.0, -40.0, 0.1),
                              obs={t: (6.0 + 0.1 * t, 4.0, None) if regimes[t] == "S"
                                   else (None, None, 7.0) for t in range(0, 30, 2)})
        data = tmp_path / "data"
        data.mkdir()
        write_series(healthy, data / "lake_h1.csv")
        if case == "weights":
            grid, code = {"lambda_epi": [-0.0, 1e308], "lambda_hyp": [0.0, 1.0]}, 0
        else:
            # test_every_point_diverged_exit_3's series overflows every point.
            write_series(make_series("M" * 30, obs={t: (None, None, 1e200)
                                                    for t in range(0, 30, 2)}),
                         data / "lake_t0.csv")
            grid, code = {"lambda_epi": [0.0, 1.0], "lambda_hyp": [0.0]}, 3
        cfg = write_json(tmp_path / "grid.json", dict(
            grid, schema="lakedo-sweep-v1", train=dict(max_epochs=2, window_days=10)))
        assert main(["sweep", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "o")]) == code
        # Oracle: the csv module, one row per grid point, empty cells where
        # the point diverged.
        grid_epi, grid_hyp, base = load_sweep_config(cfg)
        lakes = [load_series(p) for p in sorted(data.glob("*.csv"))]
        with np.errstate(over="ignore", invalid="ignore"):
            points = [_sweep_point((lakes, dataclasses.replace(base, lambda_epi=le,
                                                               lambda_hyp=lh)))
                      for le in grid_epi for lh in grid_hyp]
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_COLUMNS)
            for le, lh, outcome in points:
                rmse = ["", "", ""] if isinstance(outcome, str) else map(format_value, outcome)
                writer.writerow([format_value(le), format_value(lh), *rmse])
        diverged = [isinstance(outcome, str) for _, _, outcome in points]
        assert diverged == ([False, False, True, True] if case == "weights" else [True, True])
        assert (tmp_path / "o" / "sweep.csv").read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("key", ["lambda_epi", "lambda_hyp"])
    def test_grid_weight_inside_train_exit_2_naming_file_and_key(self, data_dir, tmp_path,
                                                                 capsys, key):
        # Every grid point sets both weights, so one in "train" would be ignored
        # yet still change the manifest's config hash.
        cfg = write_json(tmp_path / "grid.json", dict(SWEEP_POINT, train={key: 1.0}))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}: train: {key} is set by the sweep grid, not here\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", [[], [None], ["1.0"], [True], [{"a": 1}], 1.0])
    def test_malformed_grid_exit_2(self, data_dir, tmp_path, capsys, grid):
        cfg = write_json(tmp_path / "grid.json", {"schema": "lakedo-sweep-v1",
                                                  "lambda_epi": grid, "lambda_hyp": [0.0]})
        assert main(["sweep", "--config", str(cfg), "--data", str(data_dir),
                     "--out", str(tmp_path / "o")]) == 2
        assert "lambda_epi" in capsys.readouterr().err


def test_readme_json_examples_load(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    loaders = {"lakedo-generate-v1": load_generate_config,
               "lakedo-train-v1": load_train_config,
               "lakedo-sweep-v1": load_sweep_config}
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        path = tmp_path / f"example_{i}.json"
        path.write_text(block)
        loaders[json.loads(block)["schema"]](path)


def test_data_modules_load_without_the_training_stack():
    # The package root re-exports nothing, so importing what the benchmark's
    # checks import loads no trainer, adaptive, evaluation or loss code.
    code = ("import sys, lakedo.series, lakedo.networks, lakedo.synthetic; "
            "print(sorted(m for m in ('lakedo.training', 'lakedo.adaptive', "
            "'lakedo.evaluate', 'lakedo.losses') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(lakedo.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_evaluate_loads_without_the_training_stack():
    # Scoring a checkpoint's predictions needs no tape, network, loss or trainer.
    code = "import sys, lakedo.evaluate; print(sorted(m for m in sys.modules if 'lakedo.' in m))"
    env = dict(os.environ, PYTHONPATH=str(Path(lakedo.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == str(["lakedo.errors", "lakedo.evaluate", "lakedo.physics",
                               "lakedo.series"])


def _has_avx2() -> bool:
    try:
        return " avx2 " in Path("/proc/cpuinfo").read_text()
    except OSError:
        return False


@pytest.mark.parametrize("coretype", [None, "Haswell"])
def test_outputs_do_not_depend_on_the_blas_thread_count(coretype, tmp_path):
    # generate, both trainings and evaluate in one child per OpenBLAS thread
    # count; every output but the manifests (which hold timings) must match.
    # One full batch of 8 windows at hidden size 30, as the benchmark trains,
    # puts a whole-batch LSTM weight-gradient product above OpenBLAS's
    # threading threshold. Haswell is OpenBLAS's AVX2 kernel set, whose
    # threaded gemm rounds some cells differently from its one-thread gemm.
    # On it only the LSTM path is compared: the discriminator's full-batch
    # products over the labelled days still move with the thread count there.
    if coretype and not _has_avx2():
        pytest.skip("OpenBLAS's Haswell kernels need an AVX2 CPU")
    gen = write_json(tmp_path / "gen.json", dict(GEN_CONFIG, n_lakes=4, n_years=3))
    train = write_json(tmp_path / "train.json",
                       dict(TRAIN_CONFIG, max_epochs=3, hidden_size=30, train_years=2))
    commands = [["generate", "--config", str(gen), "--out", "data"],
                ["train", "--mode", "pril", "--data", "data", "--out", "pril",
                 "--config", str(train)],
                ["evaluate", "pril/checkpoint.csv", "--data", "data", "--out", "eval"]]
    expected = ["data/lake_03_truth.csv", "pril/checkpoint.csv", "pril/history.csv",
                "eval/comparison.csv", "eval/timeseries_00.csv", "eval/timeseries_03.csv"]
    if coretype is None:
        commands.append(["train", "--mode", "april", "--data", "data", "--out", "april",
                         "--config", str(train), "--k", "6"])
        expected += ["april/checkpoint.csv", "april/history.csv", "april/labels_00.csv",
                     "april/labels_03.csv"]
    code = ("import json, sys; from lakedo.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n")
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(lakedo.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                       cwd=out, check=True)
        outputs[threads] = {p.relative_to(out).as_posix(): p.read_bytes()
                            for p in sorted(out.rglob("*.csv"))}
    assert set(expected) <= set(outputs["1"])
    assert sorted(outputs["2"]) == sorted(outputs["1"])
    assert [n for n in sorted(outputs["1"]) if outputs["1"][n] != outputs["2"][n]] == []


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.sampled_from([-1, 2**63 - 1, 2**63, -2**63 - 1, 10**15, 10**400])
                 | st.floats() | st.text(max_size=4))
_JSON_VALUES = (_JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3)
                | st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2))
#: (loader, schema, minimal valid payload, key paths into it that take a value).
_LOADER_CASES = (
    (load_generate_config, "lakedo-generate-v1", {},
     [(f.name,) for f in dataclasses.fields(GenConfig)]),
    (load_train_config, "lakedo-train-v1", {},
     [(f.name,) for f in dataclasses.fields(TrainConfig)] + [("april",)]
     + [("april", f.name) for f in dataclasses.fields(AprilConfig)]),
    (load_sweep_config, "lakedo-sweep-v1", {"lambda_epi": [0.0], "lambda_hyp": [0.0]},
     [("lambda_epi",), ("lambda_hyp",), ("train",)]
     + [("train", f.name) for f in dataclasses.fields(TrainConfig)]),
)


def _assert_valid_config(cfg):
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "float":
            assert type(value) is float and math.isfinite(value), f.name
        else:
            ints = value if f.type == "tuple[int, ...]" else (value,)
            assert all(type(v) is int and -2**63 <= v < 2**63 for v in ints), f.name
    assert getattr(cfg, "seed", 0) >= 0


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_loaders_return_a_valid_config_or_raise_config_error(tmp_path_factory, data):
    loader, schema, base, paths = data.draw(st.sampled_from(_LOADER_CASES))
    payload = dict(base, schema=schema)
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2)):
        target = payload
        for key in path[:-1]:
            if not isinstance(target.get(key), dict):
                target[key] = {}
            target = target[key]
        target[path[-1]] = data.draw(_JSON_VALUES)
    config_path = tmp_path_factory.getbasetemp() / "loader_property.json"
    config_path.write_text(json.dumps(payload))
    try:
        loaded = loader(config_path)
    except ConfigError:
        return
    if loader is load_sweep_config:
        grid_epi, grid_hyp, loaded = loaded
        assert all(type(v) is float and math.isfinite(v) for v in grid_epi + grid_hyp)
    for cfg in loaded if isinstance(loaded, tuple) else (loaded,):
        _assert_valid_config(cfg)


_NUMPY_VALUES = st.sampled_from([np.int64(3), np.int32(-1), np.uint64(2**64 - 1), np.uint8(40),
                                  np.float64(0.5), np.float32("nan"), np.bool_(True)])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_dataclasses_built_from_drawn_values_are_valid_or_raise_config_error(data):
    # The values the loader property writes into a file, plus numpy scalars,
    # given to the constructors directly: code holds the rules a file is held to.
    cls = data.draw(st.sampled_from([GenConfig, TrainConfig, AprilConfig]))
    drawn = data.draw(st.lists(st.sampled_from([f.name for f in dataclasses.fields(cls)]),
                               min_size=1, max_size=2))
    kwargs = {name: data.draw(_JSON_VALUES | _NUMPY_VALUES) for name in drawn}
    try:
        cfg = cls(**kwargs)
    except ConfigError:
        return
    _assert_valid_config(cfg)
    assert all(type(getattr(cfg, f.name)) is tuple for f in dataclasses.fields(cfg)
               if f.type == "tuple[int, ...]")


#: What the fuzz test puts into a cell; EXTRA appends a cell, DROP removes one.
_EXTRA, _DROP = object(), object()
_CELL_TOKENS = ("", "nan", "1e400", "-1", '"', "0x3", _EXTRA, _DROP)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A small lake with its truth, a checkpoint for it and a one-epoch train config.

    The checkpoint carries a discriminator, as train --mode april writes it,
    which takes it past the csv module's 128 KiB field limit.
    """
    root = tmp_path_factory.mktemp("fuzz_inputs")
    gen = write_json(root / "gen.json", dict(
        GEN_CONFIG, n_lakes=1, year_days=60, strat_start=15, strat_end=45,
        truth_substeps=2, obs_sparsity=0.5))
    assert main(["generate", "--config", str(gen), "--out", str(root / "data")]) == 0
    (root / "data" / "manifest.json").unlink()
    cfg = write_json(root / "train.json", dict(TRAIN_CONFIG, max_epochs=1, window_days=30))
    assert main(["train", "--mode", "pril", "--data", str(root / "data"),
                 "--out", str(root / "run"), "--config", str(cfg)]) == 0
    predictor, _ = load_checkpoint(root / "run" / "checkpoint.csv")
    save_checkpoint(root / "checkpoint.csv", predictor=predictor,
                    discriminator=init_discriminator(11, seed=0))
    return root / "data", root / "checkpoint.csv", cfg


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_input_files_exit_0_2_or_3_with_one_line(fuzz_inputs, tmp_path_factory, data):
    source_dir, source_checkpoint, cfg = fuzz_inputs
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(source_dir, root / "data")
    checkpoint = root / "checkpoint.csv"
    shutil.copy(source_checkpoint, checkpoint)
    target = data.draw(st.sampled_from(
        [root / "data" / "lake_00.csv", root / "data" / "lake_00_truth.csv", checkpoint]))
    lines = [line.split(",") for line in target.read_bytes().decode().split("\r\n")[:-1]]
    for _ in range(data.draw(st.integers(1, 3))):
        cells = lines[data.draw(st.integers(0, len(lines) - 1))]
        col = data.draw(st.integers(0, max(len(cells) - 1, 0)))
        token = data.draw(st.sampled_from(_CELL_TOKENS))
        if token is _EXTRA:
            cells.append("0")
        else:
            cells[col:col + 1] = [] if token is _DROP else [token]
    target.write_text("".join(",".join(cells) + "\r\n" for cells in lines), newline="")
    # Only evaluate reads truth files and checkpoints.
    train = target.name == "lake_00.csv" and data.draw(st.booleans())
    args = (["train", "--mode", "pril", "--config", str(cfg)] if train
            else ["evaluate", str(checkpoint), "--k", "2"])
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(args + ["--data", str(root / "data"), "--out", str(root / "out")])
    assert code in (0, 2, 3)
    if code:
        # A warning would reach the terminal as lines of its own.
        assert stderr.getvalue().count("\n") == 1 and not caught, stderr.getvalue()
        assert stderr.getvalue().startswith("error:")
        assert not (root / "out").exists()
    shutil.rmtree(root)
