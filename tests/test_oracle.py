"""Brute-force reference routes: time-domain solver, velocity quadrature, certify."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dresslines import (
    CLOSED_FORM_IDS,
    ConvergenceError,
    DriveField,
    LevelScheme,
    OdeSettings,
    ProbeField,
    QuadratureSettings,
    ThermalEnsemble,
    certify,
    doppler_strong_doublet,
    doppler_weak_doublet,
    drive_trajectory,
    strong_doublet_components,
    strong_pointwise,
    velocity_average,
    voigt_density,
    w_mu_exact,
    w_mu_time_domain,
    w_mu_time_domain_grid,
    weak_doublet_components,
    weak_pointwise,
)
from dresslines.oracle import _pole_distance

SCHEME = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
DRIVE = DriveField(G=3.0, Omega=4.0, k=2.0)
ENS = ThermalEnsemble(vbar=1.0)


def test_no_drive_no_emission():
    probe = ProbeField(G_mu=1e-3, Omega_mu=1.0)
    w = w_mu_time_domain(SCHEME, DriveField(G=0.0, Omega=4.0), probe)
    assert w == pytest.approx(0.0, abs=1e-25)


def test_trajectory_norm_decays():
    times = np.linspace(0.0, 6.0, 301)
    a_m, a_n = drive_trajectory(SCHEME, DRIVE, times)
    norm = np.abs(a_m) ** 2 + np.abs(a_n) ** 2
    assert norm[0] == pytest.approx(1.0, rel=1e-10)
    assert np.all(np.diff(norm) <= 1e-12)


def test_velocity_equals_shifted_detunings():
    # A moving emitter only shifts the two detunings; solving in its frame
    # must agree with shifting the fields for an emitter at rest.
    probe = ProbeField(G_mu=1e-3, k_mu=1.5, theta=0.8, Omega_mu=2.0)
    vx, vy = 0.7, -1.2
    w_moving = w_mu_time_domain(SCHEME, DRIVE, probe, velocity=(vx, vy, 3.0))
    drive_shift = dataclasses.replace(DRIVE, Omega=DRIVE.Omega - DRIVE.k * vx)
    mu_shift = probe.Omega_mu - probe.k_mu * (
        vx * math.cos(probe.theta) + vy * math.sin(probe.theta))
    probe_shift = dataclasses.replace(probe, Omega_mu=mu_shift)
    w_rest = w_mu_time_domain(SCHEME, drive_shift, probe_shift)
    assert w_moving == pytest.approx(w_rest, rel=1e-9)


def test_self_check_path():
    probe = ProbeField(G_mu=1e-3, Omega_mu=-3.0)
    base = w_mu_time_domain(SCHEME, DRIVE, probe)
    checked = w_mu_time_domain(SCHEME, DRIVE, probe,
                               settings=OdeSettings(check=True))
    assert checked == pytest.approx(base, rel=1e-8)


def test_grid_matches_scalar_calls():
    grid = np.array([-5.0, 0.0, 7.0])
    probe = ProbeField(G_mu=1e-3)
    got = w_mu_time_domain_grid(SCHEME, DRIVE, probe, grid)
    for x, w in zip(grid, got):
        single = w_mu_time_domain(SCHEME, DRIVE,
                                  dataclasses.replace(probe, Omega_mu=float(x)))
        assert w == pytest.approx(single, rel=1e-12)


def test_settings_validation():
    with pytest.raises(ValueError):
        OdeSettings(rtol=0.0)
    with pytest.raises(ValueError):
        OdeSettings(horizon=-1.0)
    with pytest.raises(ValueError):
        OdeSettings(horizon_factor=5.0)


def test_velocity_average_constant():
    val = velocity_average(lambda kv, kmuv: np.full_like(kv, 7.0), ENS, 0.0, 0.0, 0.0)
    assert val == 7.0


def test_velocity_average_polynomial_moments():
    # A polynomial has no pole, so the coarsest step (pole distance
    # infinity) must still give second moments to machine precision.
    inf = math.inf
    got = velocity_average(lambda kv, kmuv: kv**2, ENS, 2.0, 0.0, 0.0, pole_distance=inf)
    assert got == pytest.approx(2.0**2 / 2, rel=1e-13)
    got = velocity_average(lambda kv, kmuv: kmuv**2, ENS, 2.0, 3.0, math.pi / 3,
                           pole_distance=inf)
    assert got == pytest.approx(3.0**2 / 2, rel=1e-13)
    got = velocity_average(lambda kv, kmuv: kv * kmuv, ENS, 2.0, 3.0, math.pi / 3,
                           pole_distance=inf)
    assert got == pytest.approx(2.0 * 3.0 * 0.5 / 2, rel=1e-13)


def test_velocity_average_collinear_consistency():
    # half-width 5 over the Doppler scale |k_mu - k|*vbar = 2
    fn = lambda kv, kmuv: 1.0 / (25.0 + (kmuv - kv) ** 2)
    d = _pole_distance([5.0], [abs(6.0 - 8.0) * ENS.vbar])
    flat = velocity_average(fn, ENS, 8.0, 6.0, 0.0, pole_distance=d)
    tilted = velocity_average(fn, ENS, 8.0, 6.0, 1e-9, pole_distance=d)
    assert tilted == pytest.approx(flat, rel=1e-10)


def test_velocity_average_doubling_check():
    # the pole of `sharp` sits at distance 0.01; a step worked out for 100x
    # that distance is far too coarse, and halving it must show so
    sharp = lambda kv, kmuv: 0.01 / (1e-4 + kmuv**2)
    with pytest.raises(ConvergenceError):
        velocity_average(sharp, ENS, 0.0, 1.0, 0.0,
                         settings=QuadratureSettings(doubling_check=True),
                         pole_distance=1.0)
    # a Gaussian has no pole, but off the real axis it grows as the weight
    # does, so it needs a finite pole distance; the same d = 1 resolves it
    smooth = lambda kv, kmuv: np.exp(-(kmuv**2))
    val = velocity_average(smooth, ENS, 0.0, 1.0, 0.0,
                           settings=QuadratureSettings(doubling_check=True),
                           pole_distance=1.0)
    assert val == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_velocity_average_node_resolution_errors():
    fn = lambda kv, kmuv: np.ones_like(kv)
    with pytest.raises(ValueError):
        velocity_average(fn, ENS, 1.0, 1.0, 0.0)  # no pole distance
    # below d = 0.0085 a step would need more than 8400 points per axis
    for d in (0.008, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="pole distance"):
            velocity_average(fn, ENS, 1.0, 1.0, 0.0, pole_distance=d)


def test_weak_pointwise_average_matches_closed_form():
    drive = DriveField(G=1.0, Omega=600.0, k=8.0)
    probe = ProbeField(G_mu=1e-3, k_mu=6.0, theta=0.0)
    comps = weak_doublet_components(SCHEME, drive, probe, ENS)
    d = _pole_distance([c.natural_halfwidth for c in comps], [c.doppler_scale for c in comps])
    for x in (0.0, 598.0, 604.0):
        ref = velocity_average(weak_pointwise(SCHEME, drive, probe, x), ENS,
                               drive.k, probe.k_mu, probe.theta, pole_distance=d)
        closed = doppler_weak_doublet(SCHEME, drive, probe, ENS, x)
        assert closed == pytest.approx(ref, rel=1e-9)


def test_strong_pointwise_average_matches_closed_form():
    drive = DriveField(G=3.0, Omega=4.0, k=3.0)
    probe = ProbeField(G_mu=1e-3, k_mu=3.0, theta=0.0)
    comps = strong_doublet_components(SCHEME, drive, probe, ENS)
    d = _pole_distance([c.natural_halfwidth for c in comps], [c.doppler_scale for c in comps])
    for x in (-4.0, 1.0, 6.5):
        ref = velocity_average(strong_pointwise(SCHEME, drive, probe, x), ENS,
                               drive.k, probe.k_mu, probe.theta, pole_distance=d)
        closed = doppler_strong_doublet(SCHEME, drive, probe, ENS, x)
        assert closed == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("d", [0.05, 0.011])
def test_weak_doublet_2d_average_at_small_pole_distance(d):
    # Equal wave vectors at right angles: the correlated scale sqrt(2)*k
    # is the larger one, so k sets the pole distance to d.
    k = min(c for c in (SCHEME.gamma_l + SCHEME.gamma_m,
                        SCHEME.gamma_l + SCHEME.gamma_n)) / (math.sqrt(2.0) * d)
    drive = DriveField(G=1.0, Omega=600.0, k=k)
    probe = ProbeField(G_mu=1e-3, k_mu=k, theta=math.pi / 2)
    comps = weak_doublet_components(SCHEME, drive, probe, ENS)
    got_d = _pole_distance([c.natural_halfwidth for c in comps], [c.doppler_scale for c in comps])
    assert got_d == pytest.approx(d, rel=1e-12)
    for x in (0.0, 600.0):
        ref = velocity_average(weak_pointwise(SCHEME, drive, probe, x), ENS,
                               drive.k, probe.k_mu, probe.theta, pole_distance=got_d)
        closed = doppler_weak_doublet(SCHEME, drive, probe, ENS, x)
        assert closed == pytest.approx(ref, rel=1e-8)


@settings(max_examples=300, deadline=None, database=None)
@given(d=st.floats(min_value=0.01, max_value=20.0),
       scale=st.floats(min_value=0.1, max_value=10.0),
       u=st.floats(min_value=-4.0, max_value=4.0))
def test_velocity_average_of_lorentzian_is_voigt(d, scale, u):
    # One Lorentzian seen through the probe's Doppler shift, averaged on
    # the probe axis alone, is the Voigt profile of the closed forms.
    a, x = d * scale, u * scale
    fn = lambda kv, kmuv: a / (a * a + (x - kmuv) ** 2)
    got = velocity_average(fn, ENS, 0.0, scale / ENS.vbar, 0.0, pole_distance=d)
    assert got == pytest.approx(voigt_density(a, x, scale), rel=1e-10)


def test_certify_rejects_unknown_inputs():
    assert set(CLOSED_FORM_IDS) == {
        "eq2_6", "eq2_7", "eq3_2", "eq3_3", "eq4_2", "eq5_2"}
    with pytest.raises(ValueError):
        certify("eq9_9", {}, 1e-6)
    with pytest.raises(ValueError):
        certify("eq2_6", {"gamma_x": 1.0}, 1e-6)


def test_certify_exact_form_passes():
    report = certify("eq2_6", {"omega_mu_count": 5}, 1e-6)
    assert report.passed and report.regime_ok
    assert report.n_points == 5
    assert report.max_rel_dev <= 1e-6
    d = report.to_dict()
    assert d["closed_form_id"] == "eq2_6"
    assert set(d) >= {"max_rel_dev", "tolerance", "passed", "regime_ok",
                      "regime_ratios", "explanation", "n_points"}


def test_certify_weak_form_regime_gate():
    ok = certify("eq2_7", {"G": 0.012, "omega_mu_count": 5}, 1e-4)
    assert ok.passed and ok.regime_ok
    assert ok.regime_ratios["G_over_weak_scale"] <= 0.01


def test_certify_strong_doublet_passes():
    params = {"G": 3.0, "Omega": 4.0, "k": 3.0, "k_mu": 3.0, "theta": 0.0,
              "vbar": 1.0, "omega_mu_count": 5}
    report = certify("eq4_2", params, 1e-6)
    assert report.passed


def test_certify_gaussian_form_in_regime():
    params = {"G": 1.0, "Omega": 5000.0, "k": 400.0, "k_mu": 400.0,
              "theta": math.pi / 2, "vbar": 1.0,
              "omega_mu_min": -800.0, "omega_mu_max": 800.0, "omega_mu_count": 21}
    report = certify("eq3_3", params, 1e-2)
    assert report.regime_ok
    assert report.regime_ratios["doppler_over_width"] >= 100.0
    assert report.passed


def test_certify_collapsed_geometry_triplet():
    # forward observation with matched wave vectors kills every Doppler
    # scale while the drive wave vector stays finite; the quadrature must
    # degrade to the constant integrand instead of refusing to run
    params = {"gamma_m": 0.5, "gamma_n": 0.5, "gamma_l": 0.5,
              "G": 500.0, "Omega": 2.0, "k": 1.0, "k_mu": 1.0, "theta": 0.0,
              "vbar": 1.0, "omega_mu_min": -1100.0, "omega_mu_max": 1100.0,
              "omega_mu_count": 9}
    report = certify("eq5_2", params, 1e-8)
    assert report.passed and report.regime_ok


def test_certify_regime_violation_fails_with_explanation():
    # Numbers can agree perfectly and the run must still fail when the
    # stated validity regime is violated.
    report = certify("eq5_2", {"G": 2.0, "omega_mu_count": 5}, 1e-2)
    assert not report.regime_ok
    assert not report.passed
    assert "regime violation, not a code defect" in report.explanation
    assert report.regime_ratios["G_over_Omega"] < 10.0


def test_oracle_vs_exact_stationary_spot():
    probe = ProbeField(G_mu=1e-3, Omega_mu=5.5)
    ode = w_mu_time_domain(SCHEME, DRIVE, probe)
    closed = w_mu_exact(SCHEME, DRIVE, probe, 5.5)
    assert closed == pytest.approx(ode, rel=1e-7)
