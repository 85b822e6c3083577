"""Mass-balance step functions: worked values, identities, convergence."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lakedo.errors import DomainError
from lakedo.physics import (
    SubstepConfig,
    _interpolation_weights,
    closed_form_epi_shrink,
    closed_form_hyp_shrink,
    entrainment_fluxes_daily,
    entrainment_fluxes_substep,
    mass_balance_residual,
    multi_step_euler,
    simulate_stratified_step,
    simulate_targets,
)

from conftest import make_series


def volume_pair():
    """Consistent (v_epi_prev, v_epi_cur, v_hyp_prev, v_hyp_cur) draws."""
    return st.tuples(
        st.floats(10.0, 2e4),        # total volume
        st.floats(0.05, 0.95),       # epilimnion fraction, previous day
        st.floats(0.05, 0.95),       # epilimnion fraction, current day
    ).map(lambda v: (v[0] * v[1], v[0] * v[2], v[0] - v[0] * v[1], v[0] - v[0] * v[2]))


concentrations = st.floats(-5.0, 25.0)
fluxes = st.floats(-3.0, 3.0)
#: Subnormal volumes whose midpoint interpolates to exactly 0.0 at even k.
UNDERFLOW_VOLUMES = (5e-324,) * 4
#: One day's draws: volumes (underflowing ones included), signed-zero and
#: just-below-zero starts, signed-zero fluxes, and substep counts.
SINGLE_DAY = (
    st.one_of(volume_pair(), st.floats(10.0, 2e4).map(lambda v: (v, v, 2 * v, 2 * v)),
              st.just(UNDERFLOW_VOLUMES)),
    *[st.one_of(st.sampled_from([-0.0, 0.0, -1e-12]), concentrations)] * 2,
    *[st.one_of(st.sampled_from([-0.0, 0.0]), fluxes)] * 2,
    st.sampled_from([1, 2, 3, 12, 192]),
)


class TestEntrainmentDaily:
    def test_growing_epilimnion_sources_hypolimnion(self):
        # Deepening thermocline moves 50 m^3 of hypolimnion water at 6 g/m^3.
        ent = entrainment_fluxes_daily(100.0, 150.0, 200.0, 150.0, 9.0, 6.0)
        assert ent.f_epi == 2.0
        assert ent.f_hyp == -2.0

    def test_shrinking_epilimnion_sources_epilimnion(self):
        # Source switches to the epilimnion at 9 g/m^3; each layer divides
        # by its own current-day volume, so the fluxes are not mirror images.
        ent = entrainment_fluxes_daily(150.0, 100.0, 100.0, 150.0, 9.0, 6.0)
        assert ent.f_epi == (100.0 - 150.0) * 9.0 / 100.0 == -4.5
        assert ent.f_hyp == (150.0 - 100.0) * 9.0 / 150.0 == 3.0
        assert ent.f_epi * 100.0 + ent.f_hyp * 150.0 == 0.0

    def test_no_change_no_flux(self):
        ent = entrainment_fluxes_daily(120.0, 120.0, 180.0, 180.0, 9.0, 6.0)
        assert ent.f_epi == 0.0 and ent.f_hyp == 0.0

    def test_rejects_inconsistent_volume_changes(self):
        with pytest.raises(DomainError):
            entrainment_fluxes_daily(100.0, 150.0, 200.0, 120.0, 9.0, 6.0)

    def test_rejects_nonpositive_volume(self):
        with pytest.raises(DomainError):
            entrainment_fluxes_daily(100.0, 150.0, 200.0, 0.0, 9.0, 6.0)
        with pytest.raises(DomainError):
            entrainment_fluxes_daily(-100.0, -150.0, 200.0, 250.0, 9.0, 6.0)

    @settings(max_examples=200, deadline=None)
    @given(volume_pair(), concentrations, concentrations)
    def test_transported_mass_cancels(self, vols, y_epi, y_hyp):
        ve_p, ve_c, vh_p, vh_c = vols
        ent = entrainment_fluxes_daily(ve_p, ve_c, vh_p, vh_c, y_epi, y_hyp)
        moved = abs(ent.f_epi) * ve_c + abs(ent.f_hyp) * vh_c
        assert abs(ent.f_epi * ve_c + ent.f_hyp * vh_c) <= 1e-9 * moved + 1e-12


class TestStratifiedStep:
    def test_worked_example(self):
        y_e, y_h = simulate_stratified_step(9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 150.0)
        # Oracle, in mass form: epi (900 + 20)/150 + 2, hyp (1200 - 80)/150 - 2.
        assert y_e == (9.0 * 100.0 + 0.2 * 1.0 * 100.0) / 150.0 + 2.0
        assert y_h == (6.0 * 200.0 + -0.4 * 1.0 * 200.0) / 150.0 - 2.0
        assert y_e == pytest.approx(8.133333333333333, rel=1e-12)
        assert y_h == pytest.approx(5.466666666666667, rel=1e-12)

    def test_worked_example_conserves_mass(self):
        y_e, y_h = simulate_stratified_step(9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 150.0)
        res = mass_balance_residual(9.0, 6.0, y_e, y_h, 100.0, 150.0, 200.0, 150.0, 0.2, -0.4)
        assert abs(res) <= 1e-9 * (9.0 * 100.0 + 6.0 * 200.0)

    @settings(max_examples=200, deadline=None)
    @given(volume_pair(), concentrations, concentrations, fluxes, fluxes)
    def test_mass_budget_closes(self, vols, y_e, y_h, f_e, f_h):
        ve_p, ve_c, vh_p, vh_c = vols
        out_e, out_h = simulate_stratified_step(y_e, y_h, f_e, f_h, ve_p, ve_c, vh_p, vh_c)
        res = mass_balance_residual(y_e, y_h, out_e, out_h, ve_p, ve_c, vh_p, vh_c, f_e, f_h)
        scale = abs(y_e) * ve_p + abs(y_h) * vh_p + (abs(f_e) * ve_p + abs(f_h) * vh_p) + 1.0
        assert abs(res) <= 1e-9 * scale

    @settings(max_examples=200, deadline=None)
    @given(volume_pair(), concentrations, concentrations, concentrations,
           concentrations, fluxes, fluxes, st.floats(-2.0, 2.0))
    def test_affine_in_previous_concentrations(self, vols, y_e1, y_h1, y_e2, y_h2, f_e, f_h, a):
        # step(a*y1 + y2) - step(0) must equal a*(step(y1) - step(0)) + (step(y2) - step(0)).
        ve_p, ve_c, vh_p, vh_c = vols
        step = lambda ye, yh: np.array(simulate_stratified_step(ye, yh, f_e, f_h, ve_p, ve_c, vh_p, vh_c))
        base = step(0.0, 0.0)
        lhs = step(a * y_e1 + y_e2, a * y_h1 + y_h2) - base
        rhs = a * (step(y_e1, y_h1) - base) + (step(y_e2, y_h2) - base)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


class TestClosedForms:
    def test_hyp_matches_general_step_on_worked_example(self):
        _, y_h = simulate_stratified_step(9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 150.0)
        assert closed_form_hyp_shrink(6.0, -0.4, 200.0, 150.0) == pytest.approx(y_h, rel=1e-12)
        assert closed_form_hyp_shrink(6.0, -0.4, 200.0, 150.0) == pytest.approx(5.466666666666667, rel=1e-12)

    def test_hyp_overshoot_is_unbounded(self):
        # Tenfold collapse with a strongly negative flux: one daily step
        # lands far below zero even though concentrations started positive.
        assert closed_form_hyp_shrink(6.0, -2.0, 200.0, 20.0) == -14.0

    def test_epi_shrink_both_signs(self):
        assert closed_form_epi_shrink(9.0, 0.6, 150.0, 50.0) == pytest.approx(10.8, rel=1e-12)
        assert closed_form_epi_shrink(9.0, -0.6, 150.0, 50.0) == pytest.approx(7.2, rel=1e-12)

    def test_rejects_growing_layer(self):
        with pytest.raises(DomainError):
            closed_form_hyp_shrink(6.0, -0.4, 150.0, 200.0)
        with pytest.raises(DomainError):
            closed_form_epi_shrink(9.0, 0.6, 50.0, 150.0)

    @settings(max_examples=200, deadline=None)
    @given(volume_pair(), concentrations, concentrations, fluxes, fluxes)
    def test_closed_forms_match_general_step(self, vols, y_e, y_h, f_e, f_h):
        ve_p, ve_c, vh_p, vh_c = vols
        out_e, out_h = simulate_stratified_step(y_e, y_h, f_e, f_h, ve_p, ve_c, vh_p, vh_c)
        if ve_c >= ve_p:
            got = closed_form_hyp_shrink(y_h, f_h, vh_p, vh_c)
            assert got == pytest.approx(out_h, rel=1e-12, abs=1e-12)
        else:
            got = closed_form_epi_shrink(y_e, f_e, ve_p, ve_c)
            assert got == pytest.approx(out_e, rel=1e-12, abs=1e-12)


def substep_volumes(v0, v1, k):
    """The start volume, then each substep's end volume as both Euler loops weigh it."""
    return np.array([v0] + [v0 * a + v1 * b for a, b in _interpolation_weights(k)])


class TestInterpolation:
    def test_worked_example(self):
        assert np.array_equal(substep_volumes(100.0, 150.0, 4),
                              [100.0, 112.5, 125.0, 137.5, 150.0])

    def test_k1_is_endpoints(self):
        assert _interpolation_weights(1) == ((0.0, 1.0),)
        assert np.array_equal(substep_volumes(100.0, 150.0, 1), [100.0, 150.0])

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1.0, 1e6), st.floats(1.0, 1e6), st.integers(1, 64))
    def test_endpoints_exact_and_monotone(self, v0, v1, k):
        v = substep_volumes(v0, v1, k)
        assert v.shape == (k + 1,)
        assert v[0] == v0 and v[-1] == v1
        # Monotone between the endpoints, up to rounding of the convex combination.
        slack = 1e-15 * max(v0, v1)
        dv = np.diff(v)
        assert np.all(dv >= -slack) if v1 >= v0 else np.all(dv <= slack)

    @pytest.mark.parametrize("k", [1, 4, 192])
    def test_array_input_matches_scalar_columns(self, k):
        # numpy's weighing (the array loop) equals Python floats' (the float
        # loop) to the bit, column by column.
        rng = np.random.default_rng(k)
        v0 = rng.uniform(1.0, 1e6, 9)
        v1 = rng.uniform(1.0, 1e6, 9)
        v = substep_volumes(v0, v1, k)
        assert v.shape == (k + 1, 9)
        for j in range(9):
            assert np.array_equal(v[:, j], substep_volumes(float(v0[j]), float(v1[j]), k))


class TestSubstepEntrainment:
    def test_worked_example(self):
        ent = entrainment_fluxes_substep(25.0, 6.0, 125.0, 175.0)
        assert ent.f_epi == 1.2
        assert ent.f_hyp == pytest.approx(-6.0 / 7.0, rel=1e-15)
        assert abs(ent.f_epi * 125.0 + ent.f_hyp * 175.0) <= 1e-9 * 150.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-100.0, 100.0), concentrations, st.floats(10.0, 1e4), st.floats(10.0, 1e4))
    def test_transported_mass_cancels(self, dv, y_src, ve, vh):
        ent = entrainment_fluxes_substep(dv, y_src, ve, vh)
        moved = abs(ent.f_epi) * ve + abs(ent.f_hyp) * vh
        assert abs(ent.f_epi * ve + ent.f_hyp * vh) <= 1e-9 * moved + 1e-12


class TestMultiStepEuler:
    def test_k1_reduces_to_daily_step_bitwise(self):
        daily = simulate_stratified_step(9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 150.0)
        multi = multi_step_euler(9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 150.0,
                                 cfg=SubstepConfig(k=1))
        assert multi == daily

    def test_k2_hand_trace(self):
        # Independent two-substep trace of the worked example.
        y_e, y_h = 9.0, 6.0
        ve = [100.0, 125.0, 150.0]
        vh = [200.0, 175.0, 150.0]
        for i in range(2):
            f_ent_e = 25.0 * y_h / ve[i + 1]
            f_ent_h = -25.0 * y_h / vh[i + 1]
            m_e = y_e * ve[i] + 0.2 * 0.5 * 100.0
            m_h = y_h * vh[i] + -0.4 * 0.5 * 200.0
            y_e = m_e / ve[i + 1] + f_ent_e
            y_h = m_h / vh[i + 1] + f_ent_h
        got = multi_step_euler(9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 150.0,
                               cfg=SubstepConfig(k=2))
        assert got[0] == pytest.approx(y_e, rel=1e-12)
        assert got[1] == pytest.approx(y_h, rel=1e-12)
        assert got[0] == pytest.approx(8.095238095238095, rel=1e-12)
        assert got[1] == pytest.approx(5.504761904761905, rel=1e-12)
        # Total mass: 2100 g before, plus 20 g into the epilimnion and
        # -80 g into the hypolimnion of exogenous mass.
        assert got[0] * 150.0 + got[1] * 150.0 == pytest.approx(2040.0, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(volume_pair(), concentrations, concentrations, fluxes, fluxes)
    def test_k1_reduction_randomized(self, vols, y_e, y_h, f_e, f_h):
        ve_p, ve_c, vh_p, vh_c = vols
        daily = simulate_stratified_step(y_e, y_h, f_e, f_h, ve_p, ve_c, vh_p, vh_c)
        multi = multi_step_euler(y_e, y_h, f_e, f_h, ve_p, ve_c, vh_p, vh_c,
                                 cfg=SubstepConfig(k=1))
        assert multi[0] == pytest.approx(daily[0], rel=1e-12, abs=1e-12)
        assert multi[1] == pytest.approx(daily[1], rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(volume_pair(), concentrations, concentrations, fluxes, fluxes,
           st.sampled_from([1, 2, 12]))
    def test_mass_budget_closes_at_any_k(self, vols, y_e, y_h, f_e, f_h, k):
        ve_p, ve_c, vh_p, vh_c = vols
        out_e, out_h = multi_step_euler(y_e, y_h, f_e, f_h, ve_p, ve_c, vh_p, vh_c,
                                        cfg=SubstepConfig(k=k))
        res = mass_balance_residual(y_e, y_h, out_e, out_h, ve_p, ve_c, vh_p, vh_c, f_e, f_h)
        scale = abs(y_e) * ve_p + abs(y_h) * vh_p + (abs(f_e) * ve_p + abs(f_h) * vh_p) + 1.0
        assert abs(res) <= 1e-9 * scale

    def test_refinement_converges_to_reference(self):
        args = (9.0, 6.0, 0.2, -2.0, 100.0, 280.0, 200.0, 20.0)
        ref = np.array(multi_step_euler(*args, cfg=SubstepConfig(k=192)))
        errs = [np.max(np.abs(np.array(multi_step_euler(*args, cfg=SubstepConfig(k=k))) - ref))
                for k in (12, 24, 48, 96)]
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_instability_ordering_on_collapse(self):
        # Sharp hypolimnion collapse with strong demand: the daily step
        # overshoots the epilimnion upward and the hypolimnion downward
        # relative to the refined scheme.
        args = (9.0, 6.0, 0.2, -2.0, 100.0, 280.0, 200.0, 20.0)
        e1, h1 = multi_step_euler(*args, cfg=SubstepConfig(k=1))
        e12, h12 = multi_step_euler(*args, cfg=SubstepConfig(k=12))
        assert h1 == -14.0  # matches the shrinking-layer closed form exactly
        assert e1 > e12
        assert h1 < h12

    def test_clamp_floors_both_layers(self):
        args = (9.0, 6.0, 0.2, -2.0, 100.0, 280.0, 200.0, 20.0)
        e, h, floored = multi_step_euler(*args, cfg=SubstepConfig(k=1), clamp=True)
        assert h == 0.0 and e >= 0.0 and floored is True

    def test_vectorized_matches_scalar_loop(self):
        rng = np.random.default_rng(7)
        n = 64
        vt = rng.uniform(100.0, 1000.0, n)
        fp = rng.uniform(0.1, 0.9, n)
        fc = rng.uniform(0.1, 0.9, n)
        ve_p, ve_c = vt * fp, vt * fc
        vh_p, vh_c = vt - ve_p, vt - ve_c
        y_e = rng.uniform(0.0, 15.0, n)
        y_h = rng.uniform(0.0, 15.0, n)
        f_e = rng.uniform(-2.0, 2.0, n)
        f_h = rng.uniform(-2.0, 2.0, n)
        vec_e, vec_h = multi_step_euler(y_e, y_h, f_e, f_h, ve_p, ve_c, vh_p, vh_c,
                                        cfg=SubstepConfig(k=12))
        for i in range(0, n, 7):
            se, sh = multi_step_euler(y_e[i], y_h[i], f_e[i], f_h[i],
                                      ve_p[i], ve_c[i], vh_p[i], vh_c[i],
                                      cfg=SubstepConfig(k=12))
            assert vec_e[i] == se and vec_h[i] == sh

    @pytest.mark.parametrize("bad", [
        (np.nan, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 150.0),
        (9.0, np.array([6.0, np.inf]), 0.2, -0.4, 100.0, 150.0, 200.0, 150.0),
        (9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 0.0),
        (9.0, 6.0, 0.2, -0.4, -100.0, 150.0, 200.0, 150.0),
        (9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 120.0),
    ], ids=["nan-state", "inf-state", "zero-volume", "negative-volume", "volumes-not-cancelling"])
    def test_rejects_bad_state_at_entry(self, bad):
        with pytest.raises(DomainError):
            multi_step_euler(*bad, cfg=SubstepConfig(k=2))

    @pytest.mark.parametrize("k", [1, 2, 12])
    @pytest.mark.parametrize("vols", [(100.0, 150.0, 200.0, 150.0), (150.0, 100.0, 150.0, 200.0)],
                             ids=["epi-grows", "epi-shrinks"])
    def test_non_finite_result_raises(self, k, vols):
        # Finite inputs whose mass overflows float64 must not come back as inf.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError):
                multi_step_euler(1e308, 1.0, 0.0, 0.0, *vols, cfg=SubstepConfig(k=k))
            with pytest.raises(DomainError):
                multi_step_euler(np.array([9.0, 1e308]), 1.0, 0.0, 0.0, *vols,
                                 cfg=SubstepConfig(k=k))

    @settings(max_examples=150, deadline=None)
    @given(*SINGLE_DAY, st.booleans(), st.sampled_from([float, np.float64, np.array]))
    @example(UNDERFLOW_VOLUMES, 1.0, 1.0, 0.0, 0.0, 2, False, float)
    def test_single_day_matches_array_path_bitwise(self, vols, y_e, y_h, f_e, f_h, k, clamp,
                                                   kind):
        # A single day (Python floats, numpy scalars or 0-d arrays) runs on
        # Python floats, a one-element array on numpy; both must agree to the
        # bit, signed zeros and clamp floors included. A day whose interpolated
        # volumes underflow to 0 must raise DomainError on both.
        args = (y_e, y_h, f_e, f_h, *vols)
        cfg = SubstepConfig(k=k)
        with np.errstate(divide="ignore", invalid="ignore"):
            try:
                array = multi_step_euler(*[np.array([a]) for a in args], cfg=cfg, clamp=clamp)
            except DomainError:
                with pytest.raises(DomainError):
                    multi_step_euler(*map(kind, args), cfg=cfg, clamp=clamp)
                return
        scalar = multi_step_euler(*map(kind, args), cfg=cfg, clamp=clamp)
        assert len(scalar) == len(array) == (3 if clamp else 2)
        for got, ref in zip(scalar[:2], array[:2]):
            assert type(got) is np.float64
            assert np.array([got]).tobytes() == ref.tobytes()
        if clamp:
            assert type(scalar[2]) is bool and array[2].shape == (1,)
            assert scalar[2] == array[2][0]

    @settings(max_examples=150, deadline=None)
    @given(*SINGLE_DAY, st.sampled_from([float, lambda a: np.array([a])]))
    @example((100.0, 150.0, 200.0, 150.0), 9.0, 6.0, 0.2, -0.4, 12, float)
    def test_unfloored_clamped_day_equals_unclamped_step_bitwise(self, vols, y_e, y_h, f_e, f_h,
                                                                 k, kind):
        # The truth integrator takes the unclamped step again only on days
        # whose clamped step reports a floor; on any other day the clamped
        # step must already be the unclamped one, to the bit.
        args = [kind(a) for a in (y_e, y_h, f_e, f_h, *vols)]
        cfg = SubstepConfig(k=k)
        with np.errstate(divide="ignore", invalid="ignore"):
            try:
                e, h, floored = multi_step_euler(*args, cfg=cfg, clamp=True)
            except DomainError:
                return
            if floored:
                return
            free_e, free_h = multi_step_euler(*args, cfg=cfg)
        assert np.asarray(e).tobytes() == np.asarray(free_e).tobytes()
        assert np.asarray(h).tobytes() == np.asarray(free_h).tobytes()

    def test_clamp_floors_negative_zero_like_numpy(self):
        # A -0.0 state with -0.0 fluxes and no volume change ends a single
        # substep at -0.0; the floor turns it into +0.0, as np.maximum does.
        args = (-0.0, -0.0, -0.0, -0.0, 100.0, 100.0, 200.0, 200.0)
        cfg = SubstepConfig(k=1)
        assert np.signbit(multi_step_euler(*args, cfg=cfg)[0])
        e, h, floored = multi_step_euler(*args, cfg=cfg, clamp=True)
        assert not np.signbit(e) and not np.signbit(h)
        # The floor changed a bit, so the day reports it.
        assert floored is True

    @pytest.mark.parametrize("clamp", [False, True])
    def test_underflowed_volumes_raise_domain_error(self, clamp):
        # Halfway between two subnormal volumes interpolates to exactly 0.0,
        # which Python float division would turn into ZeroDivisionError.
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(DomainError):
                multi_step_euler(1, 1, 0, 0, 5e-324, 5e-324, 5e-324, 5e-324,
                                 cfg=SubstepConfig(k=2), clamp=clamp)

    def test_scalar_input_returns_float64(self):
        e, h, floored = multi_step_euler(9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 150.0,
                                         cfg=SubstepConfig(k=12), clamp=True)
        assert type(e) is np.float64 and type(h) is np.float64 and floored is False


def _outcome(fn, args):
    """A call's result bytes, or the DomainError message it raised."""
    try:
        with np.errstate(all="ignore"):
            result = fn(*args)
    except DomainError as exc:
        return "error", str(exc)
    if hasattr(result, "f_epi"):
        result = (result.f_epi, result.f_hyp)
    return "ok", np.asarray(result, dtype=np.float64).tobytes()


class TestScalarEntryChecks:
    """Python floats take math-module checks; 0-d arrays take numpy's. Same verdicts."""

    BAD = (np.nan, np.inf, -np.inf, -0.0, 0.0, -1.0, 5e-324, 1e308)
    CASES = (
        (multi_step_euler, (9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 150.0)),
        (entrainment_fluxes_daily, (100.0, 150.0, 200.0, 150.0, 9.0, 6.0)),
    )

    @pytest.mark.parametrize("fn, base", CASES)
    def test_float_and_zero_d_array_inputs_agree(self, fn, base):
        for pos in range(len(base)):
            for bad in self.BAD:
                args = list(base)
                args[pos] = bad
                as_float = _outcome(fn, [float(a) for a in args])
                assert _outcome(fn, [np.float64(a) for a in args]) == as_float
                assert _outcome(fn, [np.array(a) for a in args]) == as_float, (pos, bad)

    def test_messages_name_the_argument(self):
        assert _outcome(multi_step_euler, (9.0, 6.0, 0.2, -0.4, -0.0, 150.0, 200.0, 150.0)) \
            == ("error", "v_epi_prev must be positive and finite")
        assert _outcome(multi_step_euler, (9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 151.0))[1] \
            .startswith("layer volume changes must cancel")


class TestTrajectory:
    def test_pure_persistence_under_constant_conditions(self):
        s = make_series("SSS", v_epi=[100.0, 100.0, 100.0], f_exo=(0.0, 0.0, 0.0))
        preds = np.array([[8.0, 5.0, np.nan], [7.0, 4.0, np.nan], [6.5, 3.5, np.nan]])
        sim = simulate_targets(s, preds)
        assert np.all(np.isnan(sim[0]))
        assert (sim[1, 0], sim[1, 1]) == (8.0, 5.0)
        assert (sim[2, 0], sim[2, 1]) == (7.0, 4.0)
        assert np.isnan(sim[1, 2])

    def test_mixed_chain(self):
        s = make_series("MM", f_exo=(0.0, 0.0, 0.5))
        preds = np.array([[np.nan, np.nan, 8.0], [np.nan, np.nan, 9.0]])
        sim = simulate_targets(s, preds)
        assert sim[1, 2] == 8.5
        assert np.isnan(sim[1, 0])

    def test_spring_onset_inherits_total(self):
        s = make_series("MS", v_epi=[np.nan, 120.0])
        preds = np.array([[np.nan, np.nan, 7.5], [1.0, 2.0, np.nan]])
        sim = simulate_targets(s, preds)
        assert sim[1, 0] == 7.5 and sim[1, 1] == 7.5

    def test_fall_turnover_mixes_by_volume(self):
        s = make_series("SM", v_epi=[100.0, np.nan], v_total=300.0)
        preds = np.array([[9.0, 6.0, np.nan], [np.nan, np.nan, 5.0]])
        sim = simulate_targets(s, preds)
        assert sim[1, 2] == (9.0 * 100.0 + 6.0 * 200.0) / 300.0

    def test_fall_turnover_divides_by_the_previous_days_total_volume(self):
        # The layers' mass of day t-1 spreads over that day's water, not over
        # a v_total that changes on the mixed day.
        s = replace(make_series("SM", v_epi=[100.0, np.nan], v_total=300.0),
                    v_total=np.array([300.0, 600.0]))
        preds = np.array([[8.0, 2.0, np.nan], [np.nan, np.nan, 5.0]])
        assert simulate_targets(s, preds)[1, 2] == 4.0

    def test_stratified_pair_uses_substep_policy(self):
        s = make_series("SS", v_epi=[100.0, 150.0], f_exo=(0.2, -0.4, 0.0))
        preds = np.array([[9.0, 6.0, np.nan], [0.0, 0.0, np.nan]])
        by_k = {}
        for k in (1, 12):
            sim = simulate_targets(s, preds, k_per_day=np.array([1, k]))
            by_k[k] = (sim[1, 0], sim[1, 1])
        expect_1 = multi_step_euler(9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 150.0,
                                    cfg=SubstepConfig(k=1))
        expect_12 = multi_step_euler(9.0, 6.0, 0.2, -0.4, 100.0, 150.0, 200.0, 150.0,
                                     cfg=SubstepConfig(k=12))
        assert by_k[1] == expect_1
        assert by_k[12] == expect_12

    def test_rejects_bad_policy(self):
        s = make_series("SS", v_epi=[100.0, 150.0])
        preds = np.zeros((2, 3))
        with pytest.raises(DomainError):
            simulate_targets(s, preds, k_per_day=np.array([1, 0]))
        with pytest.raises(DomainError):
            simulate_targets(s, preds, k_per_day=np.array([1]))
