"""Config field rules: the types and bounds every config dataclass holds, in code and from JSON."""

import dataclasses
import json
import math

import numpy as np
import pytest

from lakedo.adaptive import AprilConfig
from lakedo.cli import load_generate_config, load_train_config
from lakedo.errors import ConfigError
from lakedo.physics import SubstepConfig
from lakedo.synthetic import GenConfig
from lakedo.training import TrainConfig

CONFIG_CLASSES = (GenConfig, TrainConfig, AprilConfig, SubstepConfig)


def below(x: float) -> float:
    return float(np.nextafter(x, -math.inf))


def above(x: float) -> float:
    return float(np.nextafter(x, math.inf))


#: (config class, field, a value just outside its bound, the message).
OUTSIDE_BOUNDS = [
    (GenConfig, "n_lakes", 0, "n_lakes must be >= 1"),
    (GenConfig, "n_years", 0, "n_years must be >= 1"),
    (GenConfig, "seed", -1, "seed must be >= 0"),
    (GenConfig, "v_total", 0.0, "v_total must be > 0"),
    (GenConfig, "epi_frac_start", 0.0, "epi_frac_start must lie in (0, 1)"),
    (GenConfig, "epi_frac_start", 1.0, "epi_frac_start must lie in (0, 1)"),
    (GenConfig, "epi_frac_end", 0.0, "epi_frac_end must lie in (0, 1)"),
    (GenConfig, "epi_frac_end", 1.0, "epi_frac_end must lie in (0, 1)"),
    (GenConfig, "epi_frac_ar", below(0.0), "epi_frac_ar must lie in [0, 1)"),
    (GenConfig, "epi_frac_ar", 1.0, "epi_frac_ar must lie in [0, 1)"),
    (GenConfig, "epi_frac_noise", below(0.0), "epi_frac_noise must be >= 0"),
    (GenConfig, "shock_probability", below(0.0), "shock_probability must lie in [0, 1)"),
    (GenConfig, "shock_probability", 1.0, "shock_probability must lie in [0, 1)"),
    (GenConfig, "initial_do", below(0.0), "initial_do must be >= 0"),
    (GenConfig, "flux_noise", below(0.0), "flux_noise must be >= 0"),
    (GenConfig, "obs_sparsity", 0.0, "obs_sparsity must lie in (0, 1]"),
    (GenConfig, "obs_sparsity", above(1.0), "obs_sparsity must lie in (0, 1]"),
    (GenConfig, "obs_noise_sd", below(0.0), "obs_noise_sd must be >= 0"),
    (GenConfig, "scenario_a_count", -1, "scenario_a_count must be >= 0"),
    (GenConfig, "scenario_b_count", -1, "scenario_b_count must be >= 0"),
    (GenConfig, "scenario_shrink_ratio", below(10.0), "scenario_shrink_ratio must be >= 10"),
    (GenConfig, "truth_substeps", 0, "truth_substeps must be >= 1"),
    (TrainConfig, "lambda_epi", below(0.0), "lambda_epi must be >= 0"),
    (TrainConfig, "lambda_hyp", below(0.0), "lambda_hyp must be >= 0"),
    (TrainConfig, "lambda_total", below(0.0), "lambda_total must be >= 0"),
    (TrainConfig, "tau_mc", below(0.0), "tau_mc must be >= 0"),
    (TrainConfig, "learning_rate", below(0.001), "learning_rate must lie in [0.001, 0.05]"),
    (TrainConfig, "learning_rate", above(0.05), "learning_rate must lie in [0.001, 0.05]"),
    (TrainConfig, "batch_size", 7, "batch_size must lie in [8, 32]"),
    (TrainConfig, "batch_size", 33, "batch_size must lie in [8, 32]"),
    (TrainConfig, "max_epochs", 0, "max_epochs must be >= 1"),
    (TrainConfig, "patience", 0, "patience must be >= 1"),
    (TrainConfig, "hidden_size", 19, "hidden_size must lie in [20, 200]"),
    (TrainConfig, "hidden_size", 201, "hidden_size must lie in [20, 200]"),
    (TrainConfig, "seed", -1, "seed must be >= 0"),
    (TrainConfig, "window_days", 1, "window_days must be >= 2"),
    (TrainConfig, "train_years", 0, "train_years must be >= 1"),
    (AprilConfig, "gamma_factor", 0.0, "gamma_factor must be > 0"),
    (AprilConfig, "volume_change_threshold", 0.0, "volume_change_threshold must be > 0"),
    (AprilConfig, "k_drastic", 0, "k_drastic must be >= 1"),
    (AprilConfig, "mild_probability_threshold", 0.0,
     "mild_probability_threshold must lie in (0, 1)"),
    (AprilConfig, "mild_probability_threshold", 1.0,
     "mild_probability_threshold must lie in (0, 1)"),
    (AprilConfig, "disc_hidden", (32, 0), "disc_hidden entries must be >= 1"),
    (AprilConfig, "disc_learning_rate", 0.0, "disc_learning_rate must be > 0"),
    (AprilConfig, "disc_epochs", 0, "disc_epochs must be >= 1"),
    (AprilConfig, "finetune_epochs", 0, "finetune_epochs must be >= 1"),
    (SubstepConfig, "k", 0, "k must be >= 1"),
]


@pytest.mark.parametrize("cls, name, value, message", OUTSIDE_BOUNDS,
                         ids=[f"{c.__name__}-{n}-{v!r}" for c, n, v, _ in OUTSIDE_BOUNDS])
def test_value_just_outside_a_bound_raises_naming_the_field(cls, name, value, message):
    with pytest.raises(ConfigError) as exc:
        cls(**{name: value})
    assert str(exc.value) == message


def test_every_bounded_field_has_an_outside_case():
    bounded = {(cls, f.name) for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)
               if f.metadata.get("bounds")}
    assert bounded == {(cls, name) for cls, name, _, _ in OUTSIDE_BOUNDS}


@pytest.mark.parametrize("cls, kwargs", [
    (GenConfig, {"obs_sparsity": 1.0, "truth_substeps": 1, "scenario_shrink_ratio": 10,
                 "epi_frac_ar": 0.0, "seed": 0}),
    (TrainConfig, {"learning_rate": 0.001, "batch_size": 32, "hidden_size": 200,
                   "window_days": 2, "tau_mc": 0}),
    (AprilConfig, {"k_drastic": 1, "disc_hidden": (1,), "disc_epochs": 1}),
    (SubstepConfig, {"k": 1}),
], ids=["gen", "train", "april", "substep"])
def test_a_value_on_a_closed_bound_is_accepted(cls, kwargs):
    cfg = cls(**kwargs)
    assert all(getattr(cfg, name) == value for name, value in kwargs.items())


#: (config class, field, a value of the wrong type, the start of the message).
WRONG_TYPES = [
    (AprilConfig, "k_drastic", 12.5, "k_drastic must be an integer in the int64 range, got 12.5"),
    (TrainConfig, "hidden_size", 30.5, "hidden_size must be an integer in the int64 range"),
    (TrainConfig, "batch_size", 8.0, "batch_size must be an integer in the int64 range"),
    (GenConfig, "n_lakes", True, "n_lakes must be an integer in the int64 range, got True"),
    (GenConfig, "seed", 2**63, "seed must be an integer in the int64 range"),
    (GenConfig, "seed", np.uint64(2**63), "seed must be an integer in the int64 range"),
    (GenConfig, "v_total", "2e6", "v_total must be a finite number, got '2e6'"),
    (GenConfig, "v_total", 10**400, "v_total must be finite, got 1000"),
    (GenConfig, "obs_noise_sd", np.float32("nan"), "obs_noise_sd must be finite, got"),
    (TrainConfig, "learning_rate", np.bool_(True), "learning_rate must be a finite number"),
    (AprilConfig, "disc_hidden", 32, "disc_hidden must be a list of integers in the int64 range"),
    (AprilConfig, "disc_hidden", [8, 8.0], "disc_hidden must be a list of integers"),
    (SubstepConfig, "k", 1.5, "k must be an integer in the int64 range, got 1.5"),
]


@pytest.mark.parametrize("cls, name, value, message", WRONG_TYPES,
                         ids=[f"{c.__name__}-{n}-{v!r:.12}" for c, n, v, _ in WRONG_TYPES])
def test_library_holds_each_field_to_its_type(cls, name, value, message):
    with pytest.raises(ConfigError) as exc:
        cls(**{name: value})
    assert str(exc.value).startswith(message)


def test_numpy_values_are_stored_as_python_values():
    gen = GenConfig(n_lakes=np.int64(2), seed=np.uint8(3), v_total=np.float32(5e5))
    april = AprilConfig(disc_hidden=[np.int64(8), np.int32(4)], k_drastic=np.int32(6))
    assert (type(gen.n_lakes), type(gen.seed), type(gen.v_total)) == (int, int, float)
    assert (gen.n_lakes, gen.seed, gen.v_total) == (2, 3, 5e5)
    assert type(april.disc_hidden) is tuple and april.disc_hidden == (8, 4)
    assert type(april.disc_hidden[0]) is int and type(april.k_drastic) is int
    assert TrainConfig(lambda_epi=np.int16(3)).lambda_epi == 3.0


def test_first_failing_field_in_field_order_is_named():
    with pytest.raises(ConfigError, match="^n_lakes must"):
        GenConfig(truth_substeps=0, n_lakes=0)
    with pytest.raises(ConfigError, match="^learning_rate must"):
        TrainConfig(seed=-1, learning_rate=True)


def test_config_built_in_code_equals_the_one_its_json_gives(tmp_path):
    path = tmp_path / "train.json"
    path.write_text(json.dumps({"schema": "lakedo-train-v1", "lambda_epi": 10,
                                "april": {"disc_hidden": [8]}}))
    train, april = load_train_config(path)
    gen_path = tmp_path / "gen.json"
    gen_path.write_text(json.dumps({"schema": "lakedo-generate-v1", "v_total": 10**6}))
    for built, loaded in ((TrainConfig(lambda_epi=10), train),
                          (AprilConfig(disc_hidden=[8]), april),
                          (GenConfig(v_total=10**6), load_generate_config(gen_path))):
        assert built == loaded and repr(built) == repr(loaded)
        # The manifest hashes this canonical form.
        assert json.dumps(dataclasses.asdict(built)) == json.dumps(dataclasses.asdict(loaded))


def test_replace_checks_the_new_value():
    with pytest.raises(ConfigError, match="^k_drastic must be >= 1$"):
        dataclasses.replace(AprilConfig(), k_drastic=0)
    assert type(dataclasses.replace(TrainConfig(), lambda_hyp=2).lambda_hyp) is float
