"""Brute-force reference routes: time-domain solver, velocity quadrature, certify."""

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
    ProbeField,
    RegimeError,
    ThermalEnsemble,
    certify,
    doppler_strong_doublet,
    doppler_weak_doublet,
    strong_doublet_components,
    strong_pointwise,
    velocity_average,
    voigt_density,
    w_mu_exact,
    w_mu_time_domain_grid,
    weak_doublet_components,
    weak_pointwise,
)
from dresslines import doppler as dop
from dresslines import oracle
from dresslines.oracle import _pole_distance

SCHEME = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
DRIVE = DriveField(G=3.0, Omega=4.0, k=2.0)
ENS = ThermalEnsemble(vbar=1.0)


def test_no_drive_no_emission():
    probe = ProbeField(G_mu=1e-3)
    w = w_mu_time_domain_grid(SCHEME, DriveField(G=0.0, Omega=4.0), probe, [1.0])[0]
    assert w == pytest.approx(0.0, abs=1e-25)


def test_self_check_path(monkeypatch):
    probe = ProbeField(G_mu=1e-3)
    grid = np.array([-3.0, 0.5, 6.0])
    base = w_mu_time_domain_grid(SCHEME, DRIVE, probe, grid)
    rtols = []
    solve = oracle.solve_ivp

    def spy(*args, **kwargs):
        rtols.append(kwargs["rtol"])
        sol = solve(*args, **kwargs)
        if nudge and len(rtols) == 2:
            sol.y[2 + grid.size + 1, -1] *= 1.0 + 1e-8   # one point, beyond 100x rtol
        return sol

    monkeypatch.setattr(oracle, "solve_ivp", spy)
    nudge = False
    checked = w_mu_time_domain_grid(SCHEME, DRIVE, probe, grid, halving_check=True)
    assert rtols == [1e-11, 5e-12]
    assert checked == pytest.approx(base, rel=1e-8)
    rtols.clear()
    nudge = True
    with pytest.raises(ConvergenceError, match="grid point 1"):
        w_mu_time_domain_grid(SCHEME, DRIVE, probe, grid, halving_check=True)


def test_grid_matches_scalar_calls():
    grid = np.array([-5.0, 0.0, 7.0])
    probe = ProbeField(G_mu=1e-3)
    got = w_mu_time_domain_grid(SCHEME, DRIVE, probe, grid)
    for x, w in zip(grid, got):
        single = w_mu_time_domain_grid(SCHEME, DRIVE, probe, [x])[0]
        assert w == pytest.approx(single, rel=1e-12)


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


def test_backward_geometry_takes_the_collinear_path(monkeypatch):
    # sin(pi) is 1.2e-16, not 0: theta = pi must still be summed along one
    # axis.  The values are those the 2-D tensor sum gave at theta = pi.
    def no_2d(*args):
        raise AssertionError("2-D sum run for a collinear geometry")

    monkeypatch.setattr(oracle, "_average_2d", no_2d)
    drive = DriveField(G=1.0, Omega=30.0, k=20.0)
    probe = ProbeField(G_mu=1e-3, k_mu=18.0, theta=math.pi)
    comps = weak_doublet_components(SCHEME, drive, probe, ENS)
    d = _pole_distance([c.natural_halfwidth for c in comps], [c.doppler_scale for c in comps])
    for x, expect in ((0.0, 1.1340623172855093e-10), (30.0, 3.348724781629563e-11)):
        got = velocity_average(weak_pointwise(SCHEME, drive, probe, x), ENS,
                               drive.k, probe.k_mu, probe.theta, pole_distance=d)
        assert got == pytest.approx(expect, rel=1e-12)


def test_velocity_average_doubling_check():
    # the pole of `sharp` sits at distance 0.01; a step worked out for 100x
    # that distance is far too coarse, and halving it must show so
    sharp = lambda kv, kmuv: 0.01 / (1e-4 + kmuv**2)
    with pytest.raises(ConvergenceError):
        velocity_average(sharp, ENS, 0.0, 1.0, 0.0, pole_distance=1.0,
                         doubling_check=True)
    # a Gaussian has no pole, but off the real axis it grows as the weight
    # does, so it needs a finite pole distance; the same d = 1 resolves it
    smooth = lambda kv, kmuv: np.exp(-(kmuv**2))
    val = velocity_average(smooth, ENS, 0.0, 1.0, 0.0, pole_distance=1.0,
                           doubling_check=True)
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
    assert CLOSED_FORM_IDS == ("eq2_6", "eq2_7", "eq3_2", "eq3_3", "eq4_2", "eq5_2")
    with pytest.raises(ValueError):
        certify("eq9_9", {}, 1e-6)
    with pytest.raises(ValueError):
        certify("eq2_6", {"gamma_x": 1.0}, 1e-6)
    # the ODE step tolerances are constants, not parameters
    for key in ("rtol", "atol"):
        with pytest.raises(ValueError, match=f"unknown parameter keys: \\['{key}'\\]"):
            certify("eq2_6", {key: 1e-12}, 1e-6)


# One in-regime set per id: (id, parameters, tolerance, regime ratio keys in
# report order, measure).
IN_REGIME = [
    ("eq2_6", {"G": 5.0, "Omega": -2.0, "omega_mu_min": -12.0, "omega_mu_max": 12.0,
               "omega_mu_count": 6}, 1e-6, [],
     "exact form vs time-domain integration, pointwise relative"),
    ("eq2_7", {"G": 0.012, "omega_mu_count": 5}, 1e-4, ["G_over_weak_scale"],
     "weak-drive form vs time-domain integration, peak relative"),
    ("eq3_2", {"G": 1.0, "Omega": 600.0, "k": 8.0, "k_mu": 6.0, "theta": 0.7,
               "omega_mu_min": -10.0, "omega_mu_max": 610.0, "omega_mu_count": 7},
     1e-8, ["Omega_over_drive_doppler"],
     "averaged doublet vs trapezoidal quadrature, pointwise relative"),
    ("eq3_3", {"G": 1.0, "Omega": 5000.0, "k": 400.0, "k_mu": 400.0,
               "theta": math.pi / 2, "omega_mu_min": -800.0, "omega_mu_max": 800.0,
               "omega_mu_count": 21},
     1e-2, ["Omega_over_drive_doppler", "doppler_over_width"],
     "Gaussian approximation vs full averaged doublet, peak relative"),
    ("eq4_2", {"k": 3.0, "k_mu": 2.0, "theta": 1.2, "omega_mu_count": 5}, 1e-6,
     ["G_over_drive_doppler"],
     "averaged dressed doublet vs trapezoidal quadrature, pointwise relative"),
    ("eq5_2", {"gamma_m": 0.5, "gamma_n": 0.5, "G": 500.0, "Omega": 2.0, "k": 1.0,
               "k_mu": 1.5, "theta": 0.3, "omega_mu_min": -1100.0, "omega_mu_max": 1100.0,
               "omega_mu_count": 9},
     1e-8, ["G_over_Omega", "G_over_Gamma", "G_over_doppler"],
     "averaged triplet vs trapezoidal quadrature, pointwise relative"),
]


@pytest.mark.parametrize("cid, params, tol, keys, measure", IN_REGIME,
                         ids=[case[0] for case in IN_REGIME])
def test_certify_every_id_in_regime(cid, params, tol, keys, measure):
    report = certify(cid, params, tol)
    assert report.passed and report.regime_ok
    assert report.n_points == params["omega_mu_count"]
    assert report.explanation == f"pass; measure: {measure}"
    assert list(report.regime_ratios) == keys
    assert report.max_rel_dev <= tol


@pytest.mark.parametrize("cid, params, tol, need, measure", [
    ("eq2_7", {"omega_mu_count": 3}, 1e-4,
     "weak-drive expansion needs G/|Omega - i(gamma_n-gamma_m)| <= 0.01",
     "weak-drive form vs time-domain integration, peak relative"),
    ("eq3_3", {"G": 1.0, "Omega": 50.0, "k": 1.0, "k_mu": 1.0, "theta": math.pi / 2,
               "omega_mu_min": -10.0, "omega_mu_max": 60.0, "omega_mu_count": 5}, 1e-2,
     "Gaussian form needs every Doppler scale >= 100x its natural width",
     "Gaussian approximation vs full averaged doublet, peak relative"),
    ("eq5_2", {"G": 50.0, "Omega": 1.0, "k": 10.0, "k_mu": 9.0,
               "omega_mu_min": -120.0, "omega_mu_max": 120.0, "omega_mu_count": 5}, 1e-8,
     "strong-drive triplet limit needs G at least 10x each of |Omega|, Gamma, k*vbar",
     "averaged triplet vs trapezoidal quadrature, pointwise relative"),
], ids=["eq2_7", "eq3_3", "eq5_2"])
def test_certify_gated_id_outside_regime(cid, params, tol, need, measure):
    report = certify(cid, params, tol)
    assert not report.regime_ok and not report.passed
    assert report.explanation == (f"regime violation, not a code defect: {need}; "
                                  f"ratios {report.regime_ratios}; "
                                  f"deviation measure: {measure}")


@pytest.mark.parametrize("cid", ["eq2_6", "eq2_7", "eq3_2", "eq4_2"])
def test_certify_zero_reference_is_a_regime_error(cid):
    # No drive, no emission: a deviation relative to a zero reference is
    # undefined, and certify must say so instead of reporting nan.
    with pytest.raises(RegimeError, match=f"^{cid}: the reference .* is zero"):
        certify(cid, {"G": 0.0, "omega_mu_count": 3}, 1e-6)


def test_certify_calls_the_module_level_routes(monkeypatch):
    # A wrapper bound to a route's or builder's module-level name (a test
    # spy, a tracer) must see certify's calls.
    called = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(oracle, "w_mu_time_domain_grid")
    spy(oracle, "velocity_average")
    spy(dop, "strong_doublet_components")
    certify("eq2_6", {"omega_mu_count": 3}, 1e-6)
    assert called == ["w_mu_time_domain_grid"]
    report = certify("eq4_2", {"k": 3.0, "k_mu": 3.0, "omega_mu_count": 3}, 1e-6)
    assert report.passed
    assert called[1:] == ["strong_doublet_components"] + ["velocity_average"] * 3


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
    probe = ProbeField(G_mu=1e-3)
    Omega_mu = 5.5
    ode = w_mu_time_domain_grid(SCHEME, DRIVE, probe, [Omega_mu])[0]
    closed = w_mu_exact(SCHEME, DRIVE, probe, Omega_mu)
    assert closed == pytest.approx(ode, rel=1e-7)
