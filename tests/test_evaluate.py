"""Metric oracles: RMSE, mass inconsistency, comparison table, time-series export."""

import csv

import numpy as np
import pytest

from conftest import make_series
from lakedo.errors import DomainError
from lakedo.evaluate import (
    TIMESERIES_COLUMNS,
    export_timeseries,
    mass_inconsistency,
    regime_masked_predictions,
    write_comparison,
)
from lakedo.losses import stacked_observations
from lakedo.physics import simulate_targets
from lakedo.series import format_value
from lakedo.synthetic import GenConfig, generate_lake
from lakedo.training import pooled_rmse

#: A year of truth at k = 12 with no hypolimnetic demand: no floor acts, so
#: the truth is the balance scheme's own trajectory, cell for cell.
UNFLOORED_TRUTH = GenConfig(n_lakes=1, n_years=1, truth_substeps=12,
                            hyp_demand_base=0.0, hyp_demand_ramp=0.0)


def epi_rmse(preds, obs) -> float:
    """pooled_rmse's epilimnion entry for one all-stratified series."""
    series = make_series("S" * len(obs),
                         obs={day: (o, None, None) for day, o in enumerate(obs)})
    full = np.zeros((len(obs), 3))
    full[:, 0] = preds
    return pooled_rmse([series], [full])[0]


class TestRmse:
    def test_two_day_oracle(self):
        value = epi_rmse([8.0, 6.0], [7.0, 8.0])
        assert value == pytest.approx(np.sqrt(2.5), rel=1e-15)

    def test_perfect_predictions(self):
        assert epi_rmse([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_single_day_mask_is_absolute_residual(self):
        assert epi_rmse([8.0, 6.0], [None, 8.0]) == 2.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=40)
        o = np.where(rng.random(40) < 0.5, rng.normal(size=40) + 10.0, np.nan)
        perm = rng.permutation(40)
        obs = [None if np.isnan(x) else float(x) for x in o]
        assert epi_rmse(p, obs) == pytest.approx(
            epi_rmse(p[perm], [obs[i] for i in perm]), rel=1e-12)

    def test_task_rmse_handles_unobserved_tasks(self):
        series = make_series("MSSM", obs={0: (None, None, 4.0),
                                          2: (5.0, None, None)})
        preds = np.full((4, 3), 6.0)
        epi, hyp, total, pooled = pooled_rmse([series], [preds])
        assert epi == 1.0
        assert np.isnan(hyp)
        assert total == 2.0
        assert pooled == np.sqrt(2.5)


@pytest.fixture(scope="module")
def unfloored_lake():
    lake = generate_lake(UNFLOORED_TRUTH, 0)
    assert not lake.clamped.any()
    return lake


class TestMassInconsistency:
    def test_unfloored_truth_scores_zero(self, unfloored_lake):
        metric = mass_inconsistency(unfloored_lake.truth, unfloored_lake.series, k_reference=12)
        assert metric.tolist() == [0.0, 0.0, 0.0]

    def test_constant_predictions_on_mixed_series(self):
        # Targets are prev + flux, so the gap each day is exactly |flux|.
        series = make_series("MMM")
        preds = np.full((3, 3), 5.0)
        metric = mass_inconsistency(preds, series)
        assert np.isnan(metric[0]) and np.isnan(metric[1])
        assert metric[2] == pytest.approx(abs(series.f_exo_total[0]), rel=1e-12)

    def test_moving_toward_unfloored_truth_shrinks_metric_linearly(self, unfloored_lake):
        series, truth = unfloored_lake.series, unfloored_lake.truth
        rng = np.random.default_rng(11)
        preds = np.where(np.isfinite(truth), truth + rng.normal(size=truth.shape), 0.0)
        values = []
        for alpha in (0.0, 0.5, 1.0):
            mixed = np.where(np.isfinite(truth),
                             (1 - alpha) * preds + alpha * truth, preds)
            m = mass_inconsistency(mixed, series, k_reference=12)
            values.append(np.nansum(m))
        assert values[0] > values[1] > values[2]
        assert values[1] == pytest.approx(0.5 * values[0], rel=1e-9)
        assert values[2] == 0.0

    def test_day_subset_restricts_the_mean(self):
        series = make_series("MSSSSM")
        rng = np.random.default_rng(3)
        preds = rng.normal(8.0, 1.0, (6, 3))
        k = np.full(6, 192, dtype=np.int64)
        targets = simulate_targets(series, preds, k_per_day=k)
        days = np.zeros(6, dtype=bool)
        days[2] = True
        metric = mass_inconsistency(preds, series, days=days)
        assert metric[0] == pytest.approx(abs(preds[2, 0] - targets[2, 0]), rel=1e-12)
        assert np.isnan(metric[2])

    def test_daily_reference_variant(self):
        series = make_series("MSSM")
        rng = np.random.default_rng(4)
        preds = rng.normal(8.0, 1.0, (4, 3))
        k1 = np.ones(4, dtype=np.int64)
        targets = simulate_targets(series, preds, k_per_day=k1)
        metric = mass_inconsistency(preds, series, k_reference=1)
        expected = np.nanmean(np.abs(preds[:, 0] - targets[:, 0]))
        assert metric[0] == pytest.approx(expected, rel=1e-12)

    def test_needs_two_days(self):
        series = make_series("M")
        with pytest.raises(DomainError, match="two days"):
            mass_inconsistency(np.zeros((1, 3)), series)

    def test_regime_masking_helper(self):
        series = make_series("MSSM")
        preds = np.ones((4, 3))
        masked = regime_masked_predictions(preds, series)
        assert np.isnan(masked[0, 0]) and masked[0, 2] == 1.0
        assert masked[1, 0] == 1.0 and np.isnan(masked[1, 2])


class TestComparison:
    def test_bytes(self, tmp_path):
        # One seed: a finite RMSE has std 0, a NaN one leaves mean and std
        # empty; a comma in the model name is quoted.
        path = tmp_path / "cmp.csv"
        write_comparison(path, "a,b", np.array([1.5, np.nan, 0.25]),
                         np.array([0.5, 2.0, np.nan]))
        assert path.read_bytes() == (
            b"model,epi_rmse_mean,epi_rmse_std,epi_inconsistency,"
            b"hyp_rmse_mean,hyp_rmse_std,hyp_inconsistency,"
            b"total_rmse_mean,total_rmse_std,total_inconsistency\r\n"
            b'"a,b",1.5,0,0.5,,,2,0.25,0,\r\n')


class TestExport:
    def test_shape_and_roundtrip(self, tmp_path):
        series = make_series("MSSSM", obs={0: (None, None, 4.0),
                                           2: (5.0, 6.0, None)})
        rng = np.random.default_rng(9)
        preds = rng.normal(8.0, 1.0, (5, 3))
        path = tmp_path / "ts.csv"
        masked = regime_masked_predictions(preds, series)
        targets = simulate_targets(series, masked, k_per_day=np.full(5, 2, dtype=np.int64))
        export_timeseries(path, series, masked, targets)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 6
        assert tuple(rows[0]) == TIMESERIES_COLUMNS
        # Mixed day 1: layer prediction cells are empty, not zero.
        assert rows[1][1] == "" and rows[1][2] == ""
        assert float(rows[1][3]) == preds[0, 2]
        # Observations and absent truth render empty where undefined.
        assert float(rows[1][9]) == 4.0
        assert rows[2][9] == "" and rows[1][10] == ""
        # Simulation column matches the reference targets bit for bit.
        assert float(rows[2][4]) == targets[1, 0]

    def test_masked_simulation_serves_mass_inconsistency(self, tmp_path):
        # The simulation reads only regime-defined cells, so the one run on
        # masked predictions is the one mass_inconsistency runs on raw ones.
        series = make_series("MMSSSSMM", obs={1: (None, None, 4.0)})
        preds = np.random.default_rng(5).normal(8.0, 1.0, (8, 3))
        k = np.full(8, 12, dtype=np.int64)
        simulated = simulate_targets(series, regime_masked_predictions(preds, series), k_per_day=k)
        np.testing.assert_array_equal(simulated, simulate_targets(series, preds, k_per_day=k))
        shared = mass_inconsistency(preds, series, targets=simulated)
        np.testing.assert_array_equal(shared, mass_inconsistency(preds, series, k_reference=12))
        with pytest.raises(DomainError, match="shape"):
            mass_inconsistency(preds, series, targets=simulated[1:])
        with pytest.raises(DomainError, match="shape"):
            export_timeseries(tmp_path / "x.csv", series, preds, simulated[1:])

    def test_truth_column_written(self, tmp_path):
        series = make_series("MM")
        preds = np.zeros((2, 3))
        truth = np.array([[np.nan, np.nan, 7.0], [np.nan, np.nan, 7.5]])
        path = tmp_path / "ts.csv"
        export_timeseries(path, series, preds, np.zeros((2, 3)), truth=truth)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][12]) == 7.0
        assert rows[1][10] == ""

    def test_matches_per_row_writer(self, tmp_path):
        # Reference: the csv module, one row and one format_value call per cell.
        series = make_series("MSSSM", obs={0: (None, None, 4.0), 2: (5.0, 6.0, None)})
        preds = np.random.default_rng(3).normal(8.0, 1.0, (5, 3))
        preds[1, 0] = -0.0
        truth = np.array([[np.nan, np.nan, 7.0], [1.0, 2.0, np.inf], [5e-324, -np.inf, 3.0],
                          [0.1 + 0.2, 1.0 / 3.0, 1e308], [np.nan, np.nan, -7.0]])
        simulated = simulate_targets(series, preds, k_per_day=np.full(5, 3, dtype=np.int64))
        export_timeseries(tmp_path / "got.csv", series, preds, simulated, truth=truth)
        cells = np.hstack([preds, simulated, stacked_observations(series), truth])
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TIMESERIES_COLUMNS)
            for t in range(series.n_days):
                writer.writerow([str(int(series.dates[t]))] + [format_value(x) for x in cells[t]])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_length_mismatch_rejected(self, tmp_path):
        series = make_series("MM")
        with pytest.raises(DomainError, match="shape"):
            export_timeseries(tmp_path / "x.csv", series, np.zeros((3, 3)), np.zeros((2, 3)))
