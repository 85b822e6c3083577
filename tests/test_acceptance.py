"""Acceptance gates: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the [PASS]/[FAIL]
lines on success as well as failure. The heavy tests (paired training
comparison, weight sweep) budget their own runtime and assert it.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import make_series
import oracles
from oracles import (
    build_window_batch,
    combined_loss,
    discriminator_logits_tape,
    mass_conservation_loss,
    supervised_loss,
)
from lakedo import autodiff as ad
from lakedo.adaptive import (
    ERROR_RULE,
    VOLUME_RULE,
    AprilConfig,
    classify_days,
    discriminator_inputs,
    k_policy_from_labels,
    label_drastic_days,
    residual_gamma,
    train_april,
)
from lakedo.cli import main
from lakedo.evaluate import mass_inconsistency
from lakedo.losses import stacked_observations, taped_window_loss
from lakedo.networks import (
    DiscriminatorParams,
    init_discriminator,
    init_predictor,
    predictor_forward,
)
from lakedo.physics import (
    SubstepConfig,
    closed_form_epi_shrink,
    closed_form_hyp_shrink,
    entrainment_fluxes_daily,
    entrainment_fluxes_substep,
    mass_balance_residual,
    multi_step_euler,
    simulate_stratified_step,
    simulate_targets,
)
from lakedo.synthetic import GenConfig, generate
from lakedo.training import TrainConfig, train_pril

TAU_GRID = (0.0, 0.01, 0.05, 0.1, 0.5)
LAMBDA_GRID = (0.0, 1.0, 10.0, 100.0, 1000.0)

# Shared hyperparameters for the paired five-seed comparison. The weight 10
# keeps the consistency term audible against the supervised term without
# drowning it; width and epoch budget fit the full run well under its cap.
PAIRED_LAMBDA = 10.0
PAIRED_KW = dict(learning_rate=0.02, hidden_size=30, max_epochs=80, patience=12)


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {tag}: {detail}", flush=True)
    assert ok, f"{tag}: {detail}"


def _random_states(rng: np.random.Generator, n: int):
    """Randomized stratified day states with conserved total volume."""
    v_total = rng.uniform(200.0, 1000.0, n)
    ve_p = rng.uniform(0.15, 0.85, n) * v_total
    ve_c = rng.uniform(0.15, 0.85, n) * v_total
    return (rng.uniform(0.0, 15.0, n), rng.uniform(0.0, 15.0, n),
            rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n),
            ve_p, ve_c, v_total - ve_p, v_total - ve_c)


@pytest.fixture(scope="session")
def default_corpus():
    """The stock synthetic set (4 lakes x 3 years) plus its generation time."""
    t0 = time.perf_counter()
    lakes = generate(GenConfig())
    return lakes, time.perf_counter() - t0


@pytest.fixture(scope="session")
def quiet_corpus():
    """Low-drift corpus for the weight sweep: near-repeatable years, dense
    observations, and the usual late-season oxygen floor. Here the held-out
    year is genuinely predictable, so overweighting the consistency term has
    to show up as worse validation error instead of hiding under
    year-to-year variability."""
    cfg = GenConfig(n_lakes=2, n_years=3, epi_frac_noise=0.002,
                    shock_probability=0.0, flux_noise=0.002, obs_sparsity=0.5,
                    obs_noise_sd=0.2, scenario_a_count=0, scenario_b_count=0)
    return [lk.series for lk in generate(cfg)]


def test_c01_conservation_suite():
    t0 = time.perf_counter()
    n = 10_000
    y_e, y_h, f_e, f_h, ve_p, ve_c, vh_p, vh_c = _random_states(
        np.random.default_rng(101), n)

    ent = entrainment_fluxes_daily(ve_p, ve_c, vh_p, vh_c, y_e, y_h)
    moved = np.abs(ent.f_epi * ve_c) + np.abs(ent.f_hyp * vh_c)
    cancel = np.max(np.abs(ent.f_epi * ve_c + ent.f_hyp * vh_c)
                    / np.maximum(moved, 1.0))

    sub = entrainment_fluxes_substep((ve_c - ve_p) / 4.0,
                                     np.where(ve_c >= ve_p, y_h, y_e), ve_c, vh_c)
    moved = np.abs(sub.f_epi * ve_c) + np.abs(sub.f_hyp * vh_c)
    cancel = max(cancel, np.max(np.abs(sub.f_epi * ve_c + sub.f_hyp * vh_c)
                                / np.maximum(moved, 1.0)))

    steps = [simulate_stratified_step(y_e, y_h, f_e, f_h, ve_p, ve_c, vh_p, vh_c)]
    steps += [multi_step_euler(y_e, y_h, f_e, f_h, ve_p, ve_c, vh_p, vh_c,
                               cfg=SubstepConfig(k=k)) for k in (1, 2, 12)]
    worst = 0.0
    for e_new, h_new in steps:
        resid = mass_balance_residual(y_e, y_h, e_new, h_new,
                                      ve_p, ve_c, vh_p, vh_c, f_e, f_h)
        scale = np.abs(y_e * ve_p + y_h * vh_p) + np.abs(f_e * ve_p + f_h * vh_p)
        worst = max(worst, float(np.max(np.abs(resid) / np.maximum(scale, 1.0))))

    elapsed = time.perf_counter() - t0
    ok = cancel <= 1e-9 and worst <= 1e-9 and elapsed < 10.0
    _verdict("C01 conservation suite", ok,
             f"{n} random stratified steps, daily + substepped k in (1, 2, 12): "
             f"transport cancellation {cancel:.1e}, worst relative mass defect "
             f"{worst:.1e}, {elapsed:.2f} s")


def test_c02_reduction_and_closed_forms():
    y_e, y_h, f_e, f_h, ve_p, ve_c, vh_p, vh_c = _random_states(
        np.random.default_rng(202), 500)
    e1, h1 = multi_step_euler(y_e, y_h, f_e, f_h, ve_p, ve_c, vh_p, vh_c,
                              cfg=SubstepConfig(k=1))
    ed, hd = simulate_stratified_step(y_e, y_h, f_e, f_h, ve_p, ve_c, vh_p, vh_c)

    def rel(a, b):
        return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)))

    reduction = max(rel(e1, ed), rel(h1, hd))

    grow = ve_c >= ve_p
    closed = max(
        rel(closed_form_hyp_shrink(y_h[grow], f_h[grow], vh_p[grow], vh_c[grow]),
            hd[grow]),
        rel(closed_form_epi_shrink(y_e[~grow], f_e[~grow], ve_p[~grow], ve_c[~grow]),
            ed[~grow]))

    traced = multi_step_euler(9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 150.0,
                              cfg=SubstepConfig(k=2))
    trace = max(abs(traced[0] - 8.095238095238095),
                abs(traced[1] - 5.504761904761905))

    ok = reduction <= 1e-12 and closed <= 1e-12 and trace <= 1e-12
    _verdict("C02 reduction and closed forms", ok,
             f"k=1 vs daily step {reduction:.1e}, shrink closed forms {closed:.1e}, "
             f"worked k=2 trace off by {trace:.1e}")


def test_c03_substep_convergence():
    states = _random_states(np.random.default_rng(303), 100)
    ref = multi_step_euler(*states, cfg=SubstepConfig(k=192))
    errs = []
    for k in (12, 24, 48, 96):
        e, h = multi_step_euler(*states, cfg=SubstepConfig(k=k))
        errs.append(np.maximum(np.abs(e - ref[0]), np.abs(h - ref[1])))
    errs = np.stack(errs)
    monotone = np.all(np.diff(errs, axis=0) < 0, axis=0)
    share = float(np.mean(monotone))
    _verdict("C03 substep convergence", share >= 0.95,
             f"sup-norm error vs k=192 drops strictly over k in (12, 24, 48, 96) "
             f"on {share:.0%} of 100 random stratified days")


def test_c04_collapse_day_ordering(default_corpus):
    lakes, _ = default_corpus
    checked, ordered = 0, 0
    for lake in lakes:
        s = lake.series
        for day in np.flatnonzero(lake.scenario_tags == "A"):
            args = (lake.truth[day - 1, 0], lake.truth[day - 1, 1],
                    s.f_exo_epi[day - 1], s.f_exo_hyp[day - 1],
                    s.v_epi[day - 1], s.v_epi[day], s.v_hyp[day - 1], s.v_hyp[day])
            e1, h1 = multi_step_euler(*args, cfg=SubstepConfig(k=1))
            e12, h12 = multi_step_euler(*args, cfg=SubstepConfig(k=12))
            checked += 1
            ordered += e1 > e12 and h1 < h12
    canon = multi_step_euler(9.0, 6.0, 0.2, -2.0, 100.0, 280.0, 200.0, 20.0,
                             cfg=SubstepConfig(k=1))
    ok = checked >= 4 and ordered == checked and canon[1] == -14.0
    _verdict("C04 collapse-day ordering", ok,
             f"single step overshoots k=12 both ways on {ordered}/{checked} "
             f"injected hypolimnion collapses; canonical single-step "
             f"hypolimnion {canon[1]:g}")


def test_c05_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    series = make_series("MSSSSSSSSM",
                         obs={1: (9.0, None, None), 3: (8.5, 5.5, None),
                              6: (None, 5.0, None), 9: (None, None, 7.0)},
                         features=rng.normal(size=(10, 4)))
    init = init_predictor(4, 20, seed=506).to_blocks()

    batch_single = build_window_batch([series])
    k_mixed = np.ones(10, dtype=np.int64)
    k_mixed[4] = 12
    batch_mixed = build_window_batch([series], k_per_day=[k_mixed])

    def supervised_plus_consistency(tape, p):
        return taped_window_loss(tape, p, batch_single, (3.0, 2.0, 1.0), 0.05)["loss"]

    def adaptive_substep_loss(tape, p):
        return taped_window_loss(tape, p, batch_mixed, (3.0, 2.0, 1.0), 0.05)["loss"]

    err_single = oracles.gradient_check(supervised_plus_consistency, init)
    err_mixed = oracles.gradient_check(adaptive_substep_loss, init)

    inputs = discriminator_inputs(series)
    mild = (np.arange(10) % 2 == 0)[:, None]
    disc = init_discriminator(inputs.shape[1], hidden=(8,), seed=507).to_blocks()

    def classifier_loss(tape, p):
        z = discriminator_logits_tape(tape, p, inputs)
        pos = oracles.masked_sum(oracles.logsigmoid(z), mild)
        neg = oracles.masked_sum(oracles.logsigmoid(oracles.neg(z)), ~mild)
        return ad.scale(ad.add(pos, neg), -0.1)

    err_disc = oracles.gradient_check(classifier_loss, disc)
    elapsed = time.perf_counter() - t0
    worst = max(err_single, err_mixed, err_disc)
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict("C05 gradient correctness", ok,
             f"10-day entraining window: combined loss {err_single:.1e}, mixed "
             f"substep counts {err_mixed:.1e}, classifier objective "
             f"{err_disc:.1e}, {elapsed:.1f} s")


def test_c06_loss_identities():
    rng = np.random.default_rng(606)
    series = make_series("MMSSSSMM",
                         obs={0: (None, None, 9.8), 2: (9.0, 6.0, None),
                              5: (8.0, 4.0, None)})
    preds = rng.uniform(2.0, 12.0, size=(8, 3))

    parts = combined_loss(preds, series, (0.0, 0.0, 0.0), 0.05)
    sup = supervised_loss(preds, stacked_observations(series))
    identity = (parts.total == sup and parts.ml == sup
                and parts.mc_epi == parts.mc_hyp == parts.mc_total == 0.0)

    targets = simulate_targets(series, preds)
    monotone = True
    for task in range(3):
        vals = [mass_conservation_loss(preds[:, task], targets[:, task], tau)
                for tau in TAU_GRID]
        monotone &= all(a >= b for a, b in zip(vals, vals[1:]))

    bare = make_series("MMSSSSMM")
    with pytest.warns(RuntimeWarning):
        unobs = combined_loss(preds, bare, (1.0, 1.0, 1.0), 0.05)
    unobserved = (unobs.ml == 0.0 and unobs.mc_epi > 0.0 and unobs.mc_hyp > 0.0
                  and unobs.mc_total > 0.0)

    ok = identity and monotone and unobserved
    _verdict("C06 loss identities", ok,
             f"zero-weight combined == supervised ({identity}), hinge "
             f"non-increasing over tau grid {TAU_GRID} ({monotone}), consistency "
             f"terms positive without observations ({unobserved})")


def test_c07_labeling_rules():
    cal = make_series("MSSSSSM", obs={1: (5.0, None, None), 2: (6.0, None, None),
                                      3: (7.0, None, None), 4: (8.0, None, None)})
    cal_preds = np.zeros((7, 3))
    cal_preds[1:5, 0] = (6.0, 7.0, 8.0, 9.0)
    gamma = residual_gamma([cal], {cal.lake_id: cal_preds}, 1.5)

    lab = make_series("MSSSM", obs={1: (6.0, None, None), 2: (None, 5.0, None)})
    lab_preds = np.zeros((5, 3))
    lab_preds[1, 0] = 8.0
    lab_preds[2, 1] = 6.0
    rules = label_drastic_days(lab, lab_preds, gamma, 0.20)
    error_rule = (not rules[1].mild and rules[1].provenance == ERROR_RULE
                  and rules[2].mild and rules[2].provenance == ERROR_RULE)

    # A 40% epilimnion jump with a perfectly predicted observation: the
    # volume rule must outrank both the error rule and a classifier that
    # calls everything mild.
    vol = make_series("MSSM", v_epi=[np.nan, 100.0, 140.0, np.nan],
                      obs={2: (8.0, None, None)})
    vol_preds = np.zeros((4, 3))
    vol_preds[2, 0] = 8.0
    vrules = label_drastic_days(vol, vol_preds, gamma, 0.20)
    all_mild = DiscriminatorParams(layers=((np.zeros((3, 4)), np.zeros(4)),
                                           (np.zeros((4, 1)), np.zeros(1))))
    final = {lbl.day: lbl for lbl in classify_days(vol, vrules, all_mild,
                                                   AprilConfig())}
    policy = k_policy_from_labels(vol, list(final.values()))
    volume_rule = (not final[2].mild and final[2].provenance == VOLUME_RULE
                   and final[2].k == 12 and final[1].mild and policy[2] == 12
                   and policy[1] == 1)

    ok = gamma == 1.5 and error_rule and volume_rule
    _verdict("C07 labeling rules", ok,
             f"gamma from unit pooled RMSE = {gamma:g}, residual 2.0 drastic / "
             f"1.0 mild ({error_rule}), 40% volume jump drastic past a "
             f"mild-everything classifier ({volume_rule})")


def _mean_inconsistency(params, lakes, masks=None) -> float:
    vals = []
    for i, lake in enumerate(lakes):
        preds = predictor_forward(params, lake.series.features)
        days = None if masks is None else masks[i]
        vals.append(mass_inconsistency(preds, lake.series, days=days))
    return float(np.nanmean(vals))


def test_c08_paired_training_comparison(default_corpus):
    lakes, gen_seconds = default_corpus
    t0 = time.perf_counter()
    series = [lk.series for lk in lakes]
    scen = [lk.scenario_tags != "" for lk in lakes]
    wins_consistency, wins_adaptive = 0, 0
    for seed in range(5):
        baseline = train_pril(series, TrainConfig(seed=seed, **PAIRED_KW))
        april = train_april(
            series,
            TrainConfig(seed=seed, lambda_epi=PAIRED_LAMBDA,
                        lambda_hyp=PAIRED_LAMBDA, lambda_total=PAIRED_LAMBDA,
                        **PAIRED_KW),
            AprilConfig(finetune_epochs=60))
        base_all = _mean_inconsistency(baseline.params, lakes)
        pril_all = _mean_inconsistency(april.stage1.params, lakes)
        pril_scen = _mean_inconsistency(april.stage1.params, lakes, scen)
        april_scen = _mean_inconsistency(april.params, lakes, scen)
        wins_consistency += pril_all < base_all
        wins_adaptive += april_scen < pril_scen
    elapsed = gen_seconds + (time.perf_counter() - t0)
    ok = wins_consistency >= 4 and wins_adaptive >= 4 and elapsed < 900.0
    _verdict("C08 paired training comparison", ok,
             f"consistency-trained beats baseline inconsistency in "
             f"{wins_consistency}/5 seeds; adaptive substeps beat it on "
             f"collapse days in {wins_adaptive}/5; {elapsed:.0f} s incl. "
             f"generation (cap 900)")


def test_c09_weight_sweep_shape(quiet_corpus):
    t0 = time.perf_counter()
    holds = 0
    margins = []
    for seed in range(5):
        scores = []
        for lam in LAMBDA_GRID:
            cfg = TrainConfig(seed=seed, lambda_epi=lam, lambda_hyp=lam,
                              lambda_total=lam, learning_rate=0.03,
                              hidden_size=30, max_epochs=300, patience=40,
                              window_days=73, train_years=10)
            scores.append(train_pril(quiet_corpus, cfg).best_val_rmse)
        holds += scores[-1] >= min(scores[:-1])
        margins.append(scores[-1] - min(scores[:-1]))
    elapsed = time.perf_counter() - t0
    ok = holds >= 4
    _verdict("C09 weight sweep shape", ok,
             f"validation RMSE at weight 1000 >= best of {LAMBDA_GRID} in "
             f"{holds}/5 seeds (margins "
             + ", ".join(f"{m:+.3f}" for m in margins) + f"), {elapsed:.0f} s")


def _numeric_payloads(out_dir: Path) -> dict[str, bytes]:
    """Every output file's bytes, minus the manifest (it records wall time)."""
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())
            if p.name != "manifest.json"}


def test_c10_command_determinism(tmp_path):
    t0 = time.perf_counter()
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({
        "schema": "lakedo-generate-v1", "n_lakes": 1, "n_years": 2,
        "obs_sparsity": 0.4, "truth_substeps": 24, "seed": 3}))
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "schema": "lakedo-train-v1", "lambda_epi": 1.0, "lambda_hyp": 1.0,
        "learning_rate": 0.02, "max_epochs": 2, "patience": 2,
        "hidden_size": 20, "seed": 1, "window_days": 365, "train_years": 1,
        "april": {"finetune_epochs": 2, "disc_epochs": 20}}))
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "schema": "lakedo-sweep-v1", "lambda_epi": [0.0, 1.0],
        "lambda_hyp": [0.0],
        "train": {"learning_rate": 0.02, "max_epochs": 2, "patience": 2,
                  "hidden_size": 20, "seed": 1, "window_days": 365,
                  "train_years": 1}}))

    data = tmp_path / "data"
    runs = []
    for rep in ("a", "b"):
        gen = tmp_path / f"gen_{rep}"
        assert main(["generate", "--config", str(gen_cfg), "--out", str(gen)]) == 0
        pril = tmp_path / f"pril_{rep}"
        april = tmp_path / f"april_{rep}"
        ev = tmp_path / f"eval_{rep}"
        sweep = tmp_path / f"sweep_{rep}"
        if rep == "a":
            data = gen
        assert main(["train", "--mode", "pril", "--config", str(train_cfg),
                     "--data", str(data), "--out", str(pril)]) == 0
        assert main(["train", "--mode", "april", "--config", str(train_cfg),
                     "--data", str(data), "--out", str(april), "--k", "6"]) == 0
        assert main(["evaluate", str(pril / "checkpoint.csv"), "--data",
                     str(data), "--out", str(ev)]) == 0
        assert main(["sweep", "--config", str(sweep_cfg), "--data", str(data),
                     "--out", str(sweep)]) == 0
        runs.append({name: _numeric_payloads(d)
                     for name, d in (("generate", gen), ("train", pril),
                                     ("april", april), ("evaluate", ev),
                                     ("sweep", sweep))})

    mismatched = [name for name in runs[0]
                  if runs[0][name] != runs[1][name]]
    n_files = sum(len(v) for v in runs[0].values())
    elapsed = time.perf_counter() - t0
    _verdict("C10 command determinism", not mismatched,
             f"generate/train/april/evaluate/sweep repeated with fixed seeds: "
             f"{n_files} numeric output files byte-identical"
             + (f" EXCEPT {mismatched}" if mismatched else "")
             + f", {elapsed:.0f} s")
