"""Brute-force reference routes: time-domain propagator, velocity quadrature, certify.

scipy's DOP853 solve of the same amplitude equations is kept here as the
propagator's test-only reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

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
    dressed_exponents,
    strong_doublet_components,
    triplet_components,
    velocity_average,
    voigt_density,
    w_mu_exact,
    w_mu_time_domain_grid,
    weak_doublet_components,
)
from dresslines import doppler as dop
from dresslines import oracle
from dresslines.oracle import _lorentzian_sum, _pole_distance

SCHEME = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
DRIVE = DriveField(G=3.0, Omega=4.0, k=2.0)
ENS = ThermalEnsemble(vbar=1.0)


def test_no_drive_no_emission():
    probe = ProbeField(G_mu=1e-3)
    w = w_mu_time_domain_grid(SCHEME, DriveField(G=0.0, Omega=4.0), probe, [1.0])[0]
    assert w == pytest.approx(0.0, abs=1e-25)


def test_self_check_path(monkeypatch):
    # halving_check reruns the propagator at half of each point's own step
    # h = 0.5/||A||_inf, with a_l fed at the rate gamma_l, and returns the
    # rerun scaled by (G_mu/gamma_l)^2; a point that it moves beyond the
    # 1e-10 halving bound raises
    probe = ProbeField(G_mu=1e-3)
    grid = np.array([-3.0, 0.5, 20.0])
    base = w_mu_time_domain_grid(SCHEME, DRIVE, probe, grid)
    steps, runs = [], []
    emission = oracle._emission

    def spy(A, gamma_l, h):
        w = emission(A, gamma_l, h)
        if nudge and len(runs) == 1:
            w[1] *= 1.0 + 1e-8
        steps.append(h)
        runs.append(w)
        return w

    monkeypatch.setattr(oracle, "_emission", spy)
    nudge = False
    checked = w_mu_time_domain_grid(SCHEME, DRIVE, probe, grid, halving_check=True)
    gl = SCHEME.gamma_l
    drive_row = DRIVE.G + abs(complex(SCHEME.gamma_n, DRIVE.Omega))
    assert steps[0] == pytest.approx([0.5 / drive_row, 0.5 / drive_row,
                                      0.5 / (gl + abs(complex(gl, 20.0)))],
                                     rel=1e-15)
    assert len(steps) == 2 and np.array_equal(steps[1], 0.5 * steps[0])
    assert checked == pytest.approx(runs[1] * (probe.G_mu / gl) ** 2, rel=1e-15)
    assert checked == pytest.approx(base, rel=1e-12)
    steps.clear()
    runs.clear()
    nudge = True
    with pytest.raises(ConvergenceError, match="at point 1 beyond 1e-10"):
        w_mu_time_domain_grid(SCHEME, DRIVE, probe, grid, halving_check=True)


def test_time_domain_route_is_quadratic_in_the_probe():
    # the probe sets no time scale, so w/G_mu^2 is one number at any G_mu
    grid = np.array([-5.0, 0.5, 7.0])
    unit = w_mu_time_domain_grid(SCHEME, DRIVE, ProbeField(G_mu=1.0), grid)
    for G_mu in (1e-3, 1e100):
        w = w_mu_time_domain_grid(SCHEME, DRIVE, ProbeField(G_mu=G_mu), grid)
        assert w == pytest.approx(G_mu**2 * unit, rel=1e-14)


def test_time_domain_refusals():
    probe = ProbeField(G_mu=1e-3)
    # 1e300 needs a horizon of about 1e302 steps, beyond 2**64
    with pytest.raises(ConvergenceError, match="grid point 1 did not decay"):
        w_mu_time_domain_grid(SCHEME, DRIVE, probe, [0.0, 1e300])
    with pytest.raises(ConvergenceError, match="not finite at grid point 2"):
        w_mu_time_domain_grid(SCHEME, DRIVE, probe, [0.0, 1.0, math.inf])


def ode_emission(scheme, drive, probe, grid):
    """The emission density by DOP853 at rtol 1e-11, atol 1e-13 to 40
    slowest decay times: 2 + 2n complex ODEs, the drive pair, each probed
    amplitude and its accumulated 2*gamma_l*int|a_l|^2 dt."""
    gm, gn, gl = scheme.gamma_m, scheme.gamma_n, scheme.gamma_l
    Omu = np.asarray(grid, dtype=float)
    n = Omu.size
    pair = dressed_exponents(scheme, drive)
    T = 40.0 / min(pair.alpha1.real, pair.alpha2.real, gl)
    G, G_mu, Om = drive.G, probe.G_mu, drive.Omega

    def rhs(t, y):
        am, bn, bl = y[0], y[1], y[2:2 + n]
        dy = np.empty_like(y)
        dy[0] = -gm * am + 1j * G * bn
        dy[1] = -(gn + 1j * Om) * bn + 1j * G * am
        dy[2:2 + n] = -(gl + 1j * Omu) * bl + 1j * G_mu * am
        dy[2 + n:] = 2.0 * gl * (bl.real**2 + bl.imag**2)
        return dy

    y0 = np.zeros(2 + 2 * n, dtype=complex)
    y0[1] = 1.0
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-11, atol=1e-13)
    assert sol.success, sol.message
    return sol.y[2 + n:, -1].real


@pytest.mark.parametrize("scheme, drive, grid", [
    (SCHEME, DriveField(G=0.0, Omega=4.0), [-3.0, 1.0, 6.0]),
    # the confluent point of test_stationary's time-domain check
    (LevelScheme(gamma_m=1.0, gamma_n=1.0 + 2 * 1.3, gamma_l=0.8), DriveField(G=1.3, Omega=0.0),
     [-3.0, 0.0, 1.7, 5.0]),
    # far detunings, with rates that keep the ODE's horizon short
    (LevelScheme(gamma_m=4.0, gamma_n=5.0, gamma_l=4.0), DriveField(G=3.0, Omega=4.0),
     [-1e3, 1e3]),
], ids=["no-drive", "confluent", "far"])
def test_propagator_matches_an_ode_solve(scheme, drive, grid):
    # G_mu = 1 keeps the accumulated integral far above the ODE's atol
    probe = ProbeField(G_mu=1.0)
    got = w_mu_time_domain_grid(scheme, drive, probe, grid)
    ref = ode_emission(scheme, drive, probe, grid)
    assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref))


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
    # on the 2-D path kv**2 is a (rows, 1) column: it must broadcast to the slab
    got = velocity_average(lambda kv, kmuv: kv**2, ENS, 2.0, 3.0, math.pi / 3,
                           pole_distance=inf)
    assert got == pytest.approx(2.0**2 / 2, rel=1e-13)


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
        got = velocity_average(_lorentzian_sum(comps, x), ENS,
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
    # d = 0.009 needs 7909 points per axis at h, but 15817 at the h/2 that
    # doubling_check runs
    with pytest.raises(ValueError, match="pole distance"):
        velocity_average(fn, ENS, 0.0, 1.0, 0.0, pole_distance=0.009, doubling_check=True)
    assert velocity_average(fn, ENS, 0.0, 1.0, 0.0, pole_distance=0.009) == pytest.approx(1.0)


def test_slab_sum_matches_full_tensor_sum():
    # The whole-grid tensor sum, with no slabs, against the slab-by-slab
    # contraction, on an axis that ends in a partial slab.
    drive = DriveField(G=3.0, Omega=4.0, k=2.0)
    probe = ProbeField(G_mu=1e-3, k_mu=3.0, theta=1.1)
    kv, kmuv, theta = drive.k * ENS.vbar, probe.k_mu * ENS.vbar, probe.theta
    h = oracle._trapezoid_step(0.3)
    x, wx = oracle._trapezoid_points(h)
    assert x.size > oracle._SLAB_ROWS and x.size % oracle._SLAB_ROWS != 0
    X, Y = x[:, None], x[None, :]
    for build in (weak_doublet_components, strong_doublet_components, triplet_components):
        fn = _lorentzian_sum(build(SCHEME, drive, probe, ENS), 1.5)
        full = np.sum(np.outer(wx, wx)
                      * fn(kv * X, kmuv * (X * math.cos(theta) + Y * math.sin(theta))))
        assert oracle._average_2d(fn, kv, kmuv, theta, h) == pytest.approx(full, rel=1e-14)
        # the pointwise sums still take float projections
        assert fn(0.3, -0.2) == fn(np.array([0.3]), np.array([-0.2]))[0]


def test_weak_pointwise_average_matches_closed_form():
    drive = DriveField(G=1.0, Omega=600.0, k=8.0)
    probe = ProbeField(G_mu=1e-3, k_mu=6.0, theta=0.0)
    comps = weak_doublet_components(SCHEME, drive, probe, ENS)
    d = _pole_distance([c.natural_halfwidth for c in comps], [c.doppler_scale for c in comps])
    for x in (0.0, 598.0, 604.0):
        ref = velocity_average(_lorentzian_sum(comps, x), ENS,
                               drive.k, probe.k_mu, probe.theta, pole_distance=d)
        closed = doppler_weak_doublet(SCHEME, drive, probe, ENS, x)
        assert closed == pytest.approx(ref, rel=1e-9)


def test_strong_pointwise_average_matches_closed_form():
    drive = DriveField(G=3.0, Omega=4.0, k=3.0)
    probe = ProbeField(G_mu=1e-3, k_mu=3.0, theta=0.0)
    comps = strong_doublet_components(SCHEME, drive, probe, ENS)
    d = _pole_distance([c.natural_halfwidth for c in comps], [c.doppler_scale for c in comps])
    for x in (-4.0, 1.0, 6.5):
        ref = velocity_average(_lorentzian_sum(comps, x), ENS,
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
        ref = velocity_average(_lorentzian_sum(comps, x), ENS,
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
    # the time-domain route has no tolerance to set
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


@pytest.mark.parametrize("cid, params, tol", [case[:3] for case in IN_REGIME
                                              if case[0] in ("eq3_2", "eq4_2", "eq5_2")],
                         ids=["eq3_2", "eq4_2", "eq5_2"])
def test_certify_velocity_route_follows_k_times_vbar(cid, params, tol):
    # A quarter of each wave vector at four times the speed: the same Doppler
    # scales, so the closed form and the velocity route must still agree.
    scaled = {**params, "k": params["k"] / 4.0, "k_mu": params["k_mu"] / 4.0, "vbar": 4.0}
    report = certify(cid, scaled, tol)
    assert report.passed and report.regime_ok


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


def test_certify_unresolvable_pole_distance_is_a_regime_error():
    # velocity_average refuses the pole distance with a ValueError; certify
    # reports it as outside the route's regime
    with pytest.raises(RegimeError, match="^eq3_2: pole distance 0.00167 "):
        certify("eq3_2", {"k": 1000.0, "k_mu": 900.0, "theta": 0.5, "omega_mu_count": 1},
                1e-6)


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
    # a probe coupling far above every rate sets no step of the time-domain route
    for G_mu in (1e18, 1e100):
        assert certify("eq2_6", {"G_mu": G_mu, "omega_mu_count": 3}, 1e-6).passed
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


def test_certify_weak_form_gate_is_at_0_01():
    # at G/|Omega - i*gamma_d| = 0.02 the weak form still agrees to 1.4e-3,
    # within the tolerance, but the run is outside the regime; at 0.005 it
    # is inside and passes
    weak_scale = math.hypot(4.0, 1.0)  # the defaults' |Omega - i(gamma_n - gamma_m)|
    reports = [certify("eq2_7", {"G": r * weak_scale, "omega_mu_count": 5}, 1e-2)
               for r in (0.02, 0.005)]
    assert [r.regime_ratios["G_over_weak_scale"] for r in reports] == [0.02, 0.005]
    assert all(r.max_rel_dev <= 1e-2 for r in reports)
    assert [(r.regime_ok, r.passed) for r in reports] == [(False, False), (True, True)]


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


def test_certify_deviation_above_tolerance_fails_with_explanation():
    # in regime, and the numbers agree to rounding, but no tolerance below
    # the rounding of both routes can be met
    report = certify("eq2_6", {}, 1e-300)
    assert report.regime_ok
    assert not report.passed
    assert 1e-300 < report.max_rel_dev < 1e-12
    assert report.explanation.startswith("deviation above tolerance")


def test_oracle_vs_exact_stationary_spot():
    probe = ProbeField(G_mu=1e-3)
    Omega_mu = 5.5
    ode = w_mu_time_domain_grid(SCHEME, DRIVE, probe, [Omega_mu])[0]
    closed = w_mu_exact(SCHEME, DRIVE, probe, Omega_mu)
    assert closed == pytest.approx(ode, rel=1e-7)
