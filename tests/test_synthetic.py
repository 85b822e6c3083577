"""Generator tests: determinism, physical budgets, scenarios, round-trips.

The mass-budget checks are independent of the integrator's code path: they
recompute day-over-day mass from the published series alone.
"""

import csv
import math

import numpy as np
import pytest
from dataclasses import replace

import lakedo.synthetic
from lakedo.errors import ConfigError, DomainError, SchemaError
from lakedo.physics import (
    SubstepConfig,
    multi_step_euler,
    simulate_stratified_step,
    simulate_targets,
)
from lakedo.series import format_value, relative_epi_volume_change, validate_series
from lakedo.synthetic import (
    FEATURE_COUNT,
    TRUTH_COLUMNS,
    GenConfig,
    _Draft,
    _integrate_truth,
    generate,
    generate_lake,
    load_truth,
    write_truth,
)

ONE_YEAR = GenConfig(n_lakes=1, n_years=1)
INTEGRATOR_CONFIGS = pytest.mark.parametrize(
    "cfg", [ONE_YEAR, replace(ONE_YEAR, seed=4, truth_substeps=2, initial_do=3)],
    ids=["default", "k2-int-start"])


@pytest.fixture(scope="module")
def lake():
    return generate_lake(ONE_YEAR, 0)


@pytest.fixture(scope="module")
def lake_refined():
    return generate_lake(replace(ONE_YEAR, truth_substeps=384), 0)


@pytest.fixture(scope="module")
def dense_lake():
    cfg = replace(ONE_YEAR, obs_sparsity=1.0, obs_noise_sd=0.0)
    return generate_lake(cfg, 0)


def per_day_truth(cfg, draft):
    """Reference integrator: numpy per day, each stratified step a one-element array call."""
    t = draft.dates.size
    truth = np.full((t, 3), np.nan)
    clamped = np.zeros(t, dtype=bool)
    strat, v_epi, v_hyp, v_tot = draft.stratified, draft.v_epi, draft.v_hyp, draft.v_total
    truth[0, 2] = cfg.initial_do
    sub = SubstepConfig(k=cfg.truth_substeps)
    for i in range(1, t):
        if not strat[i - 1] and not strat[i]:
            total = truth[i - 1, 2] + draft.f_mixed[i - 1]
            clamped[i] = total < 0.0
            truth[i, 2] = max(total, 0.0)
        elif not strat[i - 1]:
            truth[i] = truth[i - 1, 2]
        elif strat[i]:
            args = [np.array([a]) for a in (truth[i - 1, 0], truth[i - 1, 1],
                                            draft.f_epi[i - 1], draft.f_hyp[i - 1],
                                            v_epi[i - 1], v_epi[i], v_hyp[i - 1], v_hyp[i])]
            (e,), (h,), _ = multi_step_euler(*args, cfg=sub, clamp=True)
            (free_e,), (free_h,) = multi_step_euler(*args, cfg=sub, clamp=False)
            truth[i, :2] = e, h
            truth[i, 2] = (e * v_epi[i] + h * v_hyp[i]) / v_tot[i]
            clamped[i] = free_e != e or free_h != h
        else:
            truth[i, 2] = (truth[i - 1, 0] * v_epi[i - 1]
                           + truth[i - 1, 1] * v_hyp[i - 1]) / v_tot[i - 1]
    return truth, clamped


def scenario_day(lake, tag):
    days = np.flatnonzero(lake.scenario_tags == tag)
    assert days.size == 1
    return int(days[0])


class TestGenerate:
    def test_deterministic_regeneration(self, lake):
        again = generate_lake(ONE_YEAR, 0)
        s, r = lake.series, again.series
        for name in ("dates", "stratified", "v_total", "v_epi", "v_hyp",
                     "f_exo_total", "f_exo_epi", "f_exo_hyp",
                     "obs_total", "obs_epi", "obs_hyp", "features"):
            np.testing.assert_array_equal(getattr(s, name), getattr(r, name))
        np.testing.assert_array_equal(lake.truth, again.truth)
        np.testing.assert_array_equal(lake.scenario_tags, again.scenario_tags)
        np.testing.assert_array_equal(lake.clamped, again.clamped)
        np.testing.assert_array_equal(lake.obs_days, again.obs_days)

    def test_lakes_differ_by_index(self):
        cfg = replace(ONE_YEAR, n_lakes=2)
        lakes = generate(cfg)
        assert len(lakes) == 2
        assert lakes[0].series.lake_id == "00"
        assert lakes[1].series.lake_id == "01"
        a = lakes[0].series.v_epi[lakes[0].series.stratified]
        b = lakes[1].series.v_epi[lakes[1].series.stratified]
        assert not np.array_equal(a, b)

    def test_series_is_valid(self, lake):
        assert validate_series(lake.series).ok

    def test_regime_calendar(self, lake):
        doy = (lake.series.dates - 1) % ONE_YEAR.year_days
        expected = (doy >= ONE_YEAR.strat_start) & (doy < ONE_YEAR.strat_end)
        np.testing.assert_array_equal(lake.series.stratified, expected)

    def test_feature_standardization(self, lake):
        f = lake.series.features
        assert f.shape == (lake.series.n_days, FEATURE_COUNT)
        assert np.isfinite(f).all()
        assert np.abs(f.mean(axis=0)).max() < 1e-9
        stds = f.std(axis=0)
        assert np.all((np.abs(stds - 1.0) < 1e-9) | (stds == 0.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["obs_noise_sd", "v_total", "scenario_flux"])
    def test_non_finite_float_rejected_naming_the_field(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got"):
            GenConfig(**{name: value})

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GenConfig(n_lakes=0)
        with pytest.raises(ConfigError):
            GenConfig(strat_start=0)
        with pytest.raises(ConfigError):
            GenConfig(strat_start=200, strat_end=100)
        with pytest.raises(ConfigError):
            GenConfig(scenario_shrink_ratio=5.0)
        with pytest.raises(ConfigError):
            GenConfig(obs_sparsity=1.5)
        with pytest.raises(ConfigError):
            GenConfig(truth_substeps=0)

    def test_insufficient_scenario_days_raises(self):
        cfg = GenConfig(n_lakes=1, n_years=1, year_days=30,
                        strat_start=10, strat_end=14, scenario_a_count=3,
                        scenario_b_count=0)
        with pytest.raises(DomainError, match="not enough stratified days"):
            generate_lake(cfg, 0)


class TestTruth:
    def test_defined_pattern(self, lake):
        strat = lake.series.stratified
        np.testing.assert_array_equal(np.isfinite(lake.truth[:, 0]), strat)
        np.testing.assert_array_equal(np.isfinite(lake.truth[:, 1]), strat)
        assert np.isfinite(lake.truth[:, 2]).all()
        assert np.nanmin(lake.truth) >= 0.0

    def test_late_season_anoxia_clamps(self, lake):
        assert lake.clamped.any()
        assert lake.series.stratified[lake.clamped].all()
        assert np.nanmin(lake.truth[:, 1]) == 0.0

    def test_clamped_flag_matches_per_day_unclamped_step(self, lake):
        # Reference: one unclamped scalar step per stratified day from the
        # stored (clamped) start state; the day is clamped where it differs.
        s, truth = lake.series, lake.truth
        cfg = SubstepConfig(k=ONE_YEAR.truth_substeps)
        pair = np.flatnonzero(s.stratified[1:] & s.stratified[:-1]) + 1
        expected = []
        for t in pair:
            e, h = multi_step_euler(truth[t - 1, 0], truth[t - 1, 1],
                                    s.f_exo_epi[t - 1], s.f_exo_hyp[t - 1],
                                    s.v_epi[t - 1], s.v_epi[t], s.v_hyp[t - 1], s.v_hyp[t],
                                    cfg=cfg, clamp=False)
            expected.append(e != truth[t, 0] or h != truth[t, 1])
        np.testing.assert_array_equal(lake.clamped[pair], expected)
        assert 0 < sum(expected) < len(expected)

    @INTEGRATOR_CONFIGS
    def test_float_day_loop_matches_per_day_array_reference(self, cfg):
        lake = generate_lake(cfg, 0)
        s = lake.series
        # On stratified days the stored total flux is the layer mix, which
        # the truth integrator does not read.
        draft = _Draft(dates=s.dates, stratified=s.stratified, v_total=s.v_total,
                       v_epi=s.v_epi, f_epi=s.f_exo_epi, f_hyp=s.f_exo_hyp,
                       f_mixed=np.where(s.stratified, 0.0, s.f_exo_total),
                       scenario_tags=lake.scenario_tags)
        truth, clamped = _integrate_truth(cfg, draft)
        want_truth, want_clamped = per_day_truth(cfg, draft)
        assert truth.tobytes() == want_truth.tobytes() == lake.truth.tobytes()
        assert clamped.dtype == bool
        np.testing.assert_array_equal(clamped, want_clamped)
        assert clamped.any()

    @INTEGRATOR_CONFIGS
    def test_simulate_targets_at_truth_substeps_reproduces_unclamped_truth(self, cfg):
        # The truth integrator and simulate_targets each spell the four regime
        # rules; seeded from the truth, the one-day-ahead targets must give the
        # truth back to the bit on every day no floor touched.
        lake = generate_lake(cfg, 0)
        s = lake.series
        sim = simulate_targets(s, lake.truth,
                               k_per_day=np.full(s.n_days, cfg.truth_substeps))
        checked = np.isfinite(sim) & ~lake.clamped[:, None]
        assert sim[checked].tobytes() == lake.truth[checked].tobytes()
        prev, cur = s.stratified[:-1], s.stratified[1:]
        for pair in (~prev & ~cur, ~prev & cur, prev & ~cur, prev & cur):
            assert checked[1:][pair].any()

    @INTEGRATOR_CONFIGS
    def test_one_clamped_call_per_stratified_day_through_the_module_binding(self, cfg,
                                                                           monkeypatch):
        # bench/tracer.py counts the stepper's calls through this binding, and
        # its traced gen-truth gate fails a lake with fewer calls at
        # truth_substeps than stratified truth days.
        calls = []

        def counting(*args, **kwargs):
            result = multi_step_euler(*args, **kwargs)
            calls.append((kwargs["cfg"].k, kwargs.get("clamp", False), args[4], result[-1]))
            return result

        monkeypatch.setattr(lakedo.synthetic, "multi_step_euler", counting)
        lake = generate_lake(cfg, 0)
        s = lake.series
        days = np.flatnonzero(s.stratified[1:] & s.stratified[:-1]) + 1
        # Exactly one clamped step per stratified day at truth_substeps, in day
        # order from that day's start volume, and no unclamped step at all.
        assert [(k, clamp) for k, clamp, _, _ in calls] == \
            [(cfg.truth_substeps, True)] * days.size
        assert [v for _, _, v, _ in calls] == s.v_epi[days - 1].tolist()
        # A stratified day is clamped exactly where its step reported `floored`.
        assert lake.clamped[days].tolist() == [bool(floored) for *_, floored in calls]
        assert 0 < lake.clamped[days].sum() <= lake.clamped.sum() < days.size

    def test_fall_turnover_divides_by_the_previous_days_total_volume(self):
        # Onset gives both layers the mixed total 4.0; the turnover mixes
        # them over day t-1's 300 m^3, not over the mixed day's 600 m^3.
        draft = _Draft(dates=np.arange(1, 4), stratified=np.array([False, True, False]),
                       v_total=np.array([300.0, 300.0, 600.0]),
                       v_epi=np.array([np.nan, 100.0, np.nan]),
                       f_epi=np.full(3, np.nan), f_hyp=np.full(3, np.nan),
                       f_mixed=np.zeros(3), scenario_tags=np.full(3, "", dtype="<U1"))
        truth, _ = _integrate_truth(replace(ONE_YEAR, initial_do=4.0), draft)
        assert truth[1].tolist() == [4.0, 4.0, 4.0]
        assert truth[2, 2] == 4.0

    def test_overflowing_last_day_raises(self, lake):
        # No day follows the last one to trip over its non-finite total.
        s = lake.series
        assert not s.stratified[-4:].any()
        f_mixed = np.where(s.stratified, 0.0, s.f_exo_total)
        f_mixed[-3:-1] = 1.7e308
        draft = _Draft(dates=s.dates, stratified=s.stratified, v_total=s.v_total,
                       v_epi=s.v_epi, f_epi=s.f_exo_epi, f_hyp=s.f_exo_hyp,
                       f_mixed=f_mixed, scenario_tags=lake.scenario_tags)
        with pytest.raises(DomainError, match=f"not finite on day {s.dates[-1]}$"), \
                np.errstate(over="ignore"):
            _integrate_truth(ONE_YEAR, draft)

    def test_stratified_mass_budget(self, lake):
        # Day-over-day: new mass = old mass + exogenous input, except where
        # the integrator clamped a layer at zero (mass injected on purpose).
        s, truth = lake.series, lake.truth
        pair = s.stratified.copy()
        pair[1:] &= s.stratified[:-1]
        pair[0] = False
        checked = 0
        for t in np.flatnonzero(pair & ~lake.clamped):
            m_new = truth[t, 0] * s.v_epi[t] + truth[t, 1] * s.v_hyp[t]
            m_old = truth[t - 1, 0] * s.v_epi[t - 1] + truth[t - 1, 1] * s.v_hyp[t - 1]
            exo = s.f_exo_epi[t - 1] * s.v_epi[t - 1] + s.f_exo_hyp[t - 1] * s.v_hyp[t - 1]
            assert abs(m_new - (m_old + exo)) <= 1e-7 * max(abs(m_new), abs(m_old))
            checked += 1
        assert checked > 100

    def test_mixed_day_budget(self, lake):
        s, truth = lake.series, lake.truth
        mm = ~s.stratified.copy()
        mm[1:] &= ~s.stratified[:-1]
        mm[0] = False
        for t in np.flatnonzero(mm & ~lake.clamped):
            assert truth[t, 2] == pytest.approx(truth[t - 1, 2] + s.f_exo_total[t - 1],
                                                abs=1e-12)

    def test_onset_inherits_previous_total(self, lake):
        s, truth = lake.series, lake.truth
        onset = s.stratified.copy()
        onset[1:] &= ~s.stratified[:-1]
        onset[0] = False
        days = np.flatnonzero(onset)
        assert days.size == 1
        t = days[0]
        assert truth[t, 0] == truth[t - 1, 2]
        assert truth[t, 1] == truth[t - 1, 2]

    def test_turnover_mixes_previous_layers(self, lake):
        s, truth = lake.series, lake.truth
        turn = ~s.stratified
        turn[1:] &= s.stratified[:-1]
        days = np.flatnonzero(turn)
        days = days[days > 0]
        assert days.size == 1
        t = days[0]
        mix = (truth[t - 1, 0] * s.v_epi[t - 1]
               + truth[t - 1, 1] * s.v_hyp[t - 1]) / s.v_total[t - 1]
        assert truth[t, 2] == mix

    def test_refinement_leaves_truth_nearly_unchanged(self, lake, lake_refined):
        np.testing.assert_array_equal(lake.scenario_tags, lake_refined.scenario_tags)
        # Clamp engagement may flip on a day right at the anoxia onset.
        agree = (lake.clamped == lake_refined.clamped).mean()
        assert agree >= 0.99
        plain = (lake.series.stratified & (lake.scenario_tags == "")
                 & ~lake.clamped & ~lake_refined.clamped)
        diff = np.abs(lake.truth - lake_refined.truth)
        assert np.nanmax(diff[plain]) < 0.05


class TestObservations:
    def test_layer_pairing_follows_regime(self, lake):
        s = lake.series
        visits = lake.obs_days
        on_strat = visits & s.stratified
        np.testing.assert_array_equal(np.isfinite(s.obs_epi), on_strat)
        np.testing.assert_array_equal(np.isfinite(s.obs_hyp), on_strat)
        np.testing.assert_array_equal(np.isfinite(s.obs_total), visits & ~s.stratified)

    def test_noiseless_dense_observations_equal_truth(self, dense_lake):
        s, truth = dense_lake.series, dense_lake.truth
        strat = s.stratified
        np.testing.assert_array_equal(s.obs_epi[strat], truth[strat, 0])
        np.testing.assert_array_equal(s.obs_hyp[strat], truth[strat, 1])
        np.testing.assert_array_equal(s.obs_total[~strat], truth[~strat, 2])


class TestScenarios:
    def test_volume_ratios_and_flux_kicks(self, lake):
        s = lake.series
        da = scenario_day(lake, "A")
        assert s.v_hyp[da - 1] / s.v_hyp[da] == pytest.approx(
            ONE_YEAR.scenario_shrink_ratio, rel=1e-9)
        assert s.f_exo_hyp[da - 1] == -ONE_YEAR.scenario_flux
        db = scenario_day(lake, "B")
        assert s.v_epi[db - 1] / s.v_epi[db] == pytest.approx(
            ONE_YEAR.scenario_shrink_ratio, rel=1e-9)
        assert s.f_exo_epi[db - 1] == ONE_YEAR.scenario_flux

    def test_tagged_days_trip_the_volume_rule(self, lake):
        rel = relative_epi_volume_change(lake.series)
        for t in np.flatnonzero(lake.scenario_tags != ""):
            assert abs(rel[t]) > 0.20

    def test_hyp_collapse_daily_step_goes_negative(self, lake):
        s = lake.series
        d = scenario_day(lake, "A")
        _, h_daily = simulate_stratified_step(
            lake.truth[d - 1, 0], lake.truth[d - 1, 1],
            s.f_exo_epi[d - 1], s.f_exo_hyp[d - 1],
            s.v_epi[d - 1], s.v_epi[d], s.v_hyp[d - 1], s.v_hyp[d])
        assert h_daily < 0.0
        assert lake.truth[d, 1] >= 0.0
        assert h_daily < lake.truth[d, 1]

    def test_epi_collapse_daily_step_overshoots(self, lake):
        s = lake.series
        d = scenario_day(lake, "B")
        e_daily, _ = simulate_stratified_step(
            lake.truth[d - 1, 0], lake.truth[d - 1, 1],
            s.f_exo_epi[d - 1], s.f_exo_hyp[d - 1],
            s.v_epi[d - 1], s.v_epi[d], s.v_hyp[d - 1], s.v_hyp[d])
        assert e_daily > lake.truth[d, 0] + 1.0


class TestTruthFile:
    def test_roundtrip(self, lake, tmp_path):
        path = tmp_path / "truth.csv"
        write_truth(path, lake)
        dates, truth, tags = load_truth(path)
        np.testing.assert_array_equal(dates, lake.series.dates)
        np.testing.assert_array_equal(truth, lake.truth)
        np.testing.assert_array_equal(tags, lake.scenario_tags)

    def test_matches_per_row_writer(self, lake, tmp_path):
        # Reference: the csv module, one row and one format_value call per cell.
        write_truth(tmp_path / "got.csv", lake)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRUTH_COLUMNS)
            for t in range(lake.series.n_days):
                writer.writerow([str(int(lake.series.dates[t]))]
                                + [format_value(lake.truth[t, task]) for task in range(3)]
                                + [lake.scenario_tags[t]])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,epi\n1,2\n")
        with pytest.raises(SchemaError, match="header"):
            load_truth(path)

    @pytest.mark.parametrize("rows, error, message", [
        (["1,2,3"], SchemaError, "row 2 has 3 cells, expected 5"),
        (["1,2,3,4,A", "2,2,3,4,C"], DomainError,
         "row 3: scenario_tag must be '', 'A' or 'B', got 'C'"),
    ])
    def test_malformed_row_names_its_row(self, tmp_path, rows, error, message):
        # The lake file's parser, so its row-length message.
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([",".join(TRUTH_COLUMNS), *rows]) + "\n")
        with pytest.raises(error) as err:
            load_truth(path)
        assert str(err.value) == f"{path}: {message}"

    def test_header_only_file_has_three_columns(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(TRUTH_COLUMNS) + "\n")
        dates, truth, tags = load_truth(path)
        assert dates.shape == (0,) and truth.shape == (0, 3) and tags.shape == (0,)
