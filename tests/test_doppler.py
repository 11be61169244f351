"""Averaged line shapes: special function, geometry, limits, process kinds."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dresslines import (
    DriveField,
    LevelScheme,
    ProbeField,
    ProcessKind,
    RegimeError,
    ThermalEnsemble,
    doppler_strong_doublet,
    doppler_weak_doublet,
    dressed_exponents,
    effective_q,
    find_peak,
    fluorescence_triplet,
    fwhm,
    integrated_intensity,
    memory_factors,
    strong_doublet_components,
    triplet_components,
    voigt_density,
    w_mu_exact,
    weak_doublet_components,
    weak_doublet_gaussian,
    wofz,
)
from dresslines.doppler import density_sum

rng = np.random.default_rng(99123)

SQRT_PI = math.sqrt(math.pi)


def erfcx_reference(z: complex) -> complex:
    """Independent high-precision route: 50-digit erfc times exp(z^2)."""
    with mpmath.workdps(50):
        v = mpmath.erfc(z) * mpmath.exp(z * z)
        return complex(v)


def test_erfcx_frozen_values():
    # erfcx(z) = w(iz).  References computed with the 50-digit oracle.
    assert wofz(0.0) == pytest.approx(1.0, rel=1e-14)
    assert wofz(10.0j) == pytest.approx(0.056140992743822585858, rel=1e-13)
    assert wofz(1j * (1 + 1j)) == pytest.approx(
        0.30474420525691259246 - 0.20821893820283162729j, rel=1e-13)
    assert wofz(1j * (0.5 - 2j)) == pytest.approx(
        0.10335882374136665895 + 0.28478588475009374558j, rel=1e-13)


def test_erfcx_against_reference_sweep():
    for _ in range(60):
        z = complex(rng.uniform(0, 50.0), rng.uniform(-50.0, 50.0))
        got = wofz(1j * z)
        ref = erfcx_reference(z)
        assert abs(got - ref) / abs(ref) < 1e-12


def test_erfcx_rejects_left_half_plane():
    # erfcx(z) = w(iz): Re z < 0 puts iz below the real axis
    with pytest.raises(ValueError, match="Im z >= 0"):
        wofz(1j * (-0.1 + 1j))
    arr = 1j * np.array([1 + 1j, -1e-9])
    with pytest.raises(ValueError, match="Im z >= 0"):
        wofz(arr)


def test_effective_q_boundaries():
    assert effective_q(1.0, 1.0, math.pi, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert effective_q(1.0, 1.0, 0.0, 1.0) == 0.0
    assert effective_q(1.0, 0.5, 0.0, 0.5) == 0.0
    assert effective_q(3.0, 0.7, 1.1, 0.0) == pytest.approx(0.7, rel=1e-15)


def test_effective_q_monotone_in_theta():
    for _ in range(50):
        k, k_mu = rng.uniform(0.1, 5.0, 2)
        M = rng.uniform(0.0, 1.0)
        thetas = np.linspace(0.0, math.pi, 40)
        qs = [effective_q(k, k_mu, t, M) for t in thetas]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))


def test_effective_q_domain():
    with pytest.raises(ValueError):
        effective_q(-1.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        effective_q(1.0, 1.0, 4.0, 0.5)
    with pytest.raises(ValueError):
        effective_q(1.0, 1.0, 1.0, 1.5)
    for args in ((math.nan, 1.0, 0.5, 0.5), (1.0, math.nan, 0.5, 0.5),
                 (1.0, 1.0, math.nan, 0.5), (1.0, 1.0, 0.5, math.nan)):
        with pytest.raises(ValueError):
            effective_q(*args)


def test_effective_q_where_the_difference_squared_overflows():
    # (k_mu - M*k)**2 leaves the float range past about 1.3e154, q does not
    assert effective_q(1e160, 1.0, 0.5, 0.5) == 5e159
    assert effective_q(1e200, 3e200, 1.0, 0.5) == pytest.approx(2.762e200, rel=1e-3)
    for scale in (1e160, 1e200, 1e300):
        for k, k_mu, theta, M in ((1.0, 3.0, 1.0, 0.5), (2.0, 0.5, 3.0, 1.0), (5.0, 1.0, 0.2, 0.0)):
            q = effective_q(scale * k, scale * k_mu, theta, M)
            assert q == pytest.approx(scale * effective_q(k, k_mu, theta, M), rel=1e-14)


def test_effective_q_keeps_the_squared_form_where_it_is_finite():
    draw = np.random.default_rng(154)
    for _ in range(2000):
        k, k_mu = np.exp(draw.uniform(-300.0, 300.0, 2)).tolist()
        theta, M = draw.uniform(0.0, math.pi), draw.choice([0.0, 1.0, draw.uniform()])
        squared = math.sqrt((k_mu - M * k) ** 2 + 4.0 * M * k * k_mu * math.sin(theta / 2.0) ** 2)
        assert effective_q(k, k_mu, theta, M) == squared


def test_voigt_density_lorentzian_branch():
    xs = np.linspace(-10.0, 10.0, 41)
    got = voigt_density(0.7, xs, 0.0)
    assert np.allclose(got, 0.7 / (0.49 + xs**2), rtol=1e-15)


# (a, x, s) where x/s or a/s overflows, or 1/s does: the Lorentzian is exact
TINY_SCALES = [(0.5, 80.0, 2e-307), (0.5, -80.0, 2e-307), (2.0, 0.0, 1e-308),
               (0.5, 3.0, 5e-324), (1.0, 1e300, 1e-10)]


@pytest.mark.parametrize("a,x,s", TINY_SCALES)
def test_voigt_density_is_the_lorentzian_where_the_scale_cannot_divide(a, x, s):
    lorentzian = a / (a * a + x * x)
    assert voigt_density(a, x, s) == lorentzian
    # on the array path, beside a Voigt and a zero scale in the same block
    got = voigt_density(np.array([a, 1.0, a]), np.array([x, 0.5, x]), np.array([s, 1.0, 0.0]))
    assert got.tolist() == [lorentzian, voigt_density(1.0, 0.5, 1.0), lorentzian]


def test_voigt_density_limits():
    # Narrow Doppler: within 1% of the Lorentzian over +-10 half-widths.
    a, s = 1.0, 0.01
    xs = np.linspace(-10.0, 10.0, 201)
    lor = a / (a * a + xs**2)
    assert np.max(np.abs(voigt_density(a, xs, s) - lor) / lor) < 0.01
    # Wide Doppler: within 1% of the pure Gaussian over +-2 scales
    # (deviation relative to the peak; the Lorentzian wings always win far out).
    a, s = 1.0, 300.0
    xs = np.linspace(-2 * s, 2 * s, 201)
    gau = (SQRT_PI / s) * np.exp(-((xs / s) ** 2))
    dev = np.max(np.abs(voigt_density(a, xs, s) - gau)) / (SQRT_PI / s)
    assert dev < 0.01


def test_voigt_density_scalar_detuning_with_array_widths():
    a, s = np.array([1.0, 2.0]), np.array([0.0, 3.0])
    for x in (0.5, np.array(0.5)):
        for got, want in ((voigt_density(a, x, 1.0), [voigt_density(v, 0.5, 1.0) for v in a]),
                          (voigt_density(1.0, x, s), [voigt_density(1.0, 0.5, v) for v in s])):
            assert got.tolist() == want


def test_voigt_density_area_is_pi():
    from scipy.integrate import quad
    for a, s in ((1.0, 0.0), (0.5, 3.0), (2.0, 40.0)):
        val, _ = quad(lambda x: voigt_density(a, x, s), -np.inf, np.inf, limit=400)
        assert val == pytest.approx(math.pi, rel=1e-7)


SCHEME = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
ENS = ThermalEnsemble(vbar=1.0)


def test_weak_doublet_structure():
    drive = DriveField(G=1.0, Omega=1000.0, k=30.0)
    probe = ProbeField(G_mu=1e-3, k_mu=28.0, theta=2.0)
    comps = weak_doublet_components(SCHEME, drive, probe, ENS)
    assert [c.label for c in comps] == ["stepwise", "raman"]
    assert comps[0].center == 0.0
    assert comps[1].center == pytest.approx(1000.0)
    assert comps[0].doppler_scale == pytest.approx(28.0)
    q = effective_q(30.0, 28.0, 2.0, 1.0)
    assert comps[1].doppler_scale == pytest.approx(q)
    xs = np.linspace(990.0, 1010.0, 11)
    total = doppler_weak_doublet(SCHEME, drive, probe, ENS, xs)
    assert np.allclose(total, comps[0].density(xs) + comps[1].density(xs), rtol=1e-14)


def test_weak_doublet_forward_lorentzian_limit():
    # theta = 0, k = k_mu: the correlated component loses its Doppler width
    # entirely and the analytic q = 0 branch must be used.
    drive = DriveField(G=1.0, Omega=500.0, k=30.0)
    probe = ProbeField(G_mu=1e-3, k_mu=30.0, theta=0.0)
    comps = weak_doublet_components(SCHEME, drive, probe, ENS)
    raman = comps[1]
    assert raman.doppler_scale == 0.0
    xs = np.linspace(475.0, 525.0, 101)
    gl, gn = SCHEME.gamma_l, SCHEME.gamma_n
    pref = abs(drive.G * probe.G_mu) ** 2 / drive.Omega**2
    expect = (pref / gn) * (gl + gn) / ((gl + gn) ** 2 + (xs - 500.0) ** 2)
    assert np.allclose(raman.density(xs), expect, rtol=1e-14)


def test_weak_doublet_zero_detuning_rejected():
    drive = DriveField(G=1.0, Omega=0.0, k=1.0)
    probe = ProbeField(G_mu=1e-3, k_mu=1.0, theta=1.0)
    with pytest.raises(RegimeError):
        doppler_weak_doublet(SCHEME, drive, probe, ENS, 0.0)


def test_weak_doublet_gaussian_regime():
    drive = DriveField(G=1.0, Omega=5000.0, k=400.0)
    probe = ProbeField(G_mu=1e-3, k_mu=400.0, theta=math.pi / 2)
    full = doppler_weak_doublet
    comps = weak_doublet_components(SCHEME, drive, probe, ENS)
    for c in comps:
        assert c.doppler_scale > 100 * c.natural_halfwidth
    xs = np.linspace(-800.0, 800.0, 101)
    f = np.asarray(full(SCHEME, drive, probe, ENS, xs))
    g = np.asarray(weak_doublet_gaussian(SCHEME, drive, probe, ENS, xs))
    assert np.max(np.abs(f - g)) / np.max(f) < 0.01


@pytest.mark.parametrize("call, error, message", [
    (lambda: triplet_components(SCHEME, DriveField(G=0.0, Omega=1.0, k=6.0),
                                ProbeField(G_mu=1e-3, k_mu=6.0, theta=0.4), ENS),
     RegimeError, "triplet requires a nonzero drive"),
    # k = k_mu forward: the Raman component has no Doppler width
    (lambda: weak_doublet_gaussian(SCHEME, DriveField(G=1.0, Omega=500.0, k=30.0),
                                   ProbeField(G_mu=1e-3, k_mu=30.0, theta=0.0), ENS,
                                   np.linspace(-50.0, 550.0, 101)),
     RegimeError, "Gaussian form undefined for a zero Doppler scale"),
    (lambda: integrated_intensity(lambda x: 1.0 / (1.0 + np.asarray(x) ** 2),
                                  (1.0, 1.0), (1.0, 0.5), 1.0),
     ValueError, "window must satisfy hi > lo"),
    (lambda: integrated_intensity(lambda x: 1.0 / (1.0 + np.asarray(x) ** 2),
                                  (2.0, -2.0), (0.0, 1.0), 1.0),
     ValueError, "window must satisfy hi > lo"),
], ids=["triplet-without-drive", "gaussian-zero-doppler-scale", "intensity-empty-window",
        "intensity-reversed-window"])
def test_refusals_outside_the_domain(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_strong_doublet_centers_and_separation():
    drive = DriveField(G=40.0, Omega=3.0, k=8.0)
    probe = ProbeField(G_mu=1e-3, k_mu=8.0, theta=0.9)
    comps = strong_doublet_components(SCHEME, drive, probe, ENS)
    pair = dressed_exponents(SCHEME, drive)
    assert comps[0].center == pytest.approx(pair.alpha1.imag, rel=1e-12)
    assert comps[1].center == pytest.approx(pair.alpha2.imag, rel=1e-12)
    sep = abs(comps[0].center - comps[1].center)
    assert sep == pytest.approx(math.hypot(3.0, 80.0), rel=1e-3)


def test_strong_doublet_equal_damping_matches_printed_weights():
    # gamma_m = gamma_n: the component weights collapse to 1/gamma over
    # (Omega^2 + 4G^2) exactly.
    scheme = LevelScheme(gamma_m=1.2, gamma_n=1.2, gamma_l=0.5)
    drive = DriveField(G=25.0, Omega=6.0, k=3.0)
    probe = ProbeField(G_mu=1e-3, k_mu=3.0, theta=1.3)
    comps = strong_doublet_components(scheme, drive, probe, ENS)
    expected_weight = abs(drive.G * probe.G_mu) ** 2 / (6.0**2 + 4 * 25.0**2) / 1.2
    for c in comps:
        assert c.weight == pytest.approx(expected_weight, rel=1e-12)


def test_strong_doublet_weak_limit_reproduces_weak_doublet():
    drive = DriveField(G=4.0, Omega=4000.0, k=30.0)
    probe = ProbeField(G_mu=1e-3, k_mu=28.0, theta=2.0)
    xs = np.array([0.0, 3997.0, 4000.0, 4011.0])
    strong = np.asarray(doppler_strong_doublet(SCHEME, drive, probe, ENS, xs))
    weak = np.asarray(doppler_weak_doublet(SCHEME, drive, probe, ENS, xs))
    assert np.max(np.abs(strong - weak) / weak) < 1e-4


def test_strong_doublet_natural_width_collapse():
    # k_mu = M_1 * k at theta = 0 kills component 1's Doppler scale.
    drive = DriveField(G=10.0, Omega=5.0, k=8.0)
    M1, _ = memory_factors(drive)
    probe = ProbeField(G_mu=1e-3, k_mu=M1 * 8.0, theta=0.0)
    comps = strong_doublet_components(SCHEME, drive, probe, ENS)
    assert comps[0].doppler_scale == pytest.approx(0.0, abs=1e-12)
    assert comps[1].doppler_scale > 1.0


def test_strong_doublet_degenerate_rejected():
    G = 1.3
    scheme = LevelScheme(gamma_m=1.0, gamma_n=1.0 + 2 * G, gamma_l=0.8)
    drive = DriveField(G=G, Omega=0.0, k=1.0)
    probe = ProbeField(G_mu=1e-3, k_mu=1.0, theta=1.0)
    with pytest.raises(RegimeError):
        doppler_strong_doublet(scheme, drive, probe, ENS, 0.0)


def _table_deviation(components, scheme, drive, probe):
    # peak-relative maximum of |line table - exact| at rest, on grids that
    # resolve each line to +-20 half-widths
    comps = components(scheme, drive, probe, ENS)
    x = np.concatenate([np.linspace(c.center - 20.0 * c.natural_halfwidth,
                                    c.center + 20.0 * c.natural_halfwidth, 801)
                        for c in comps])
    exact = w_mu_exact(scheme, drive, probe, x)
    return np.max(np.abs(density_sum(comps, x) - exact)) / np.max(exact)


def test_line_tables_approach_the_exact_spectrum_at_rest():
    # At k = k_mu = 0 an averaged form is its line table alone, and the
    # certified exact form is its reference.  What the table drops is the
    # interference between its lines: O(1/G) of the peak for the dressed
    # doublet, O(1/|Omega|) for the weak doublet.  Bounds fixed before
    # the first run.
    scheme = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
    probe = ProbeField(G_mu=1e-3)
    drives = (10.0, 30.0, 100.0, 300.0, 1000.0)
    strong = [_table_deviation(strong_doublet_components, scheme,
                               DriveField(G=G, Omega=4.0), probe) for G in drives]
    for G, dev in zip(drives, strong):
        assert dev <= 1.0 / G, (G, dev)
    assert all(b < a for a, b in zip(strong, strong[1:])), strong
    for Omega in (30.0, 100.0, 300.0, 1000.0):
        dev = _table_deviation(weak_doublet_components, scheme,
                               DriveField(G=0.01, Omega=Omega), probe)
        assert dev <= 1.2 / Omega, (Omega, dev)


def test_two_quantum_luminescence_mirror():
    # Flipping the drive photon role is the same as reversing the drive
    # detuning and the geometry: TQL at theta equals the reference process
    # at pi - theta with Omega negated.
    drive = DriveField(G=1.0, Omega=700.0, k=25.0)
    drive_neg = DriveField(G=1.0, Omega=-700.0, k=25.0)
    xs = np.linspace(-720.0, 20.0, 31)
    for theta in (0.0, 1.1, math.pi):
        probe = ProbeField(G_mu=1e-3, k_mu=22.0, theta=theta)
        probe_flip = ProbeField(G_mu=1e-3, k_mu=22.0, theta=math.pi - theta)
        tql = np.asarray(doppler_weak_doublet(
            SCHEME, drive, probe, ENS, xs, kind=ProcessKind.TWO_QUANTUM_LUMINESCENCE))
        ref = np.asarray(doppler_weak_doublet(
            SCHEME, drive_neg, probe_flip, ENS, xs))
        assert np.allclose(tql, ref, rtol=1e-13)
    comps = weak_doublet_components(SCHEME, drive,
                                    ProbeField(G_mu=1e-3, k_mu=22.0, theta=0.5),
                                    ENS, kind=ProcessKind.TWO_QUANTUM_LUMINESCENCE)
    assert comps[1].center == pytest.approx(-700.0)


def test_two_quantum_narrowing_direction():
    # For two-quantum luminescence the correlated width is smallest for
    # backward observation, mirroring the forward Raman narrowing.
    drive = DriveField(G=1.0, Omega=900.0, k=25.0)
    widths = {}
    for theta in (0.0, math.pi / 2, math.pi):
        probe = ProbeField(G_mu=1e-3, k_mu=22.0, theta=theta)
        comps = weak_doublet_components(
            SCHEME, drive, probe, ENS, kind=ProcessKind.TWO_QUANTUM_LUMINESCENCE)
        widths[theta] = comps[1].doppler_scale
    assert widths[math.pi] < widths[math.pi / 2] < widths[0.0]
    assert widths[math.pi] == pytest.approx(abs(22.0 - 25.0), rel=1e-12)
    assert widths[0.0] == pytest.approx(22.0 + 25.0, rel=1e-12)


def test_absorption_kind_mirrors_probe_axis():
    # s_mu = -1 reflects the spectrum through Omega_mu = 0.
    drive = DriveField(G=1.0, Omega=600.0, k=25.0)
    probe = ProbeField(G_mu=1e-3, k_mu=22.0, theta=0.8)
    probe_flip = ProbeField(G_mu=1e-3, k_mu=22.0, theta=math.pi - 0.8)
    xs = np.linspace(-620.0, 620.0, 41)
    tqa = np.asarray(doppler_weak_doublet(
        SCHEME, drive, probe, ENS, xs, kind=ProcessKind.TWO_QUANTUM_ABSORPTION))
    ref = np.asarray(doppler_weak_doublet(SCHEME, drive, probe_flip, ENS, -xs[::-1]))
    assert np.allclose(tqa, ref[::-1], rtol=1e-13)


# (s, s_mu) of each kind, written out from the photon roles rather than
# read from the package: absorbed drive and emitted probe keep both signs.
KIND_SIGNS = {
    ProcessKind.RAMAN_UPPER_INTERMEDIATE: (1, 1),
    ProcessKind.TWO_QUANTUM_LUMINESCENCE: (-1, 1),
    ProcessKind.TWO_QUANTUM_ABSORPTION: (1, -1),
    ProcessKind.RAMAN_LOWER_INTERMEDIATE: (-1, -1),
}


@settings(max_examples=300, deadline=None, database=None)
@given(G=st.floats(min_value=0.01, max_value=50.0),
       Omega=st.floats(min_value=0.01, max_value=500.0),
       Omega_sign=st.sampled_from((-1.0, 1.0)),
       k=st.floats(min_value=0.0, max_value=50.0),
       k_mu=st.floats(min_value=0.0, max_value=50.0),
       theta=st.floats(min_value=0.0, max_value=math.pi))
def test_process_kind_mirror_identities(G, Omega, Omega_sign, k, k_mu, theta):
    # Each kind's doublet is the reference kind's doublet of the drive with
    # detuning s*Omega, seen at pi - theta when exactly one photon flips,
    # with every center multiplied by s_mu.
    drive = DriveField(G=G, Omega=Omega_sign * Omega, k=k)
    probe = ProbeField(G_mu=1e-3, k_mu=k_mu, theta=theta)
    for kind, (s, s_mu) in KIND_SIGNS.items():
        ref_drive = DriveField(G=G, Omega=s * drive.Omega, k=k)
        ref_probe = ProbeField(G_mu=1e-3, k_mu=k_mu,
                               theta=theta if s == s_mu else math.pi - theta)
        for components in (weak_doublet_components, strong_doublet_components):
            got = components(SCHEME, drive, probe, ENS, kind)
            ref = components(SCHEME, ref_drive, ref_probe, ENS)
            assert got == [dataclasses.replace(c, center=s_mu * c.center) for c in ref]


# Distinct k and k_mu at an oblique angle, so that each memory fraction and
# each effective angle gives its own Doppler scale.
SCALED_DRIVE = DriveField(G=3.0, Omega=40.0, k=7.0)
SCALED_PROBE = ProbeField(G_mu=1e-3, k_mu=5.0, theta=0.9)


@pytest.mark.parametrize("vbar", [0.25, 4.0])
@pytest.mark.parametrize("kind", list(ProcessKind), ids=lambda kind: kind.name.lower())
def test_doppler_scale_is_q_of_own_memory_times_vbar(kind, vbar):
    s, s_mu = KIND_SIGNS[kind]
    theta = SCALED_PROBE.theta
    theta_eff = theta if s == s_mu else math.pi - theta
    ens = ThermalEnsemble(vbar=vbar)
    families = [
        (weak_doublet_components(SCHEME, SCALED_DRIVE, SCALED_PROBE, ens, kind), theta_eff),
        (strong_doublet_components(SCHEME, SCALED_DRIVE, SCALED_PROBE, ens, kind), theta_eff),
        (triplet_components(SCHEME, SCALED_DRIVE, SCALED_PROBE, ens), theta),
    ]
    for comps, angle in families:
        for c in comps:
            q = effective_q(SCALED_DRIVE.k, SCALED_PROBE.k_mu, angle, c.memory)
            assert c.doppler_scale == q * vbar


@pytest.mark.parametrize("c", [0.25, 3.0])
def test_averaged_families_depend_on_k_times_vbar_only(c):
    drive = dataclasses.replace(SCALED_DRIVE, k=c * SCALED_DRIVE.k)
    probe = dataclasses.replace(SCALED_PROBE, k_mu=c * SCALED_PROBE.k_mu)
    ens = ThermalEnsemble(vbar=1.0 / c)
    xs = np.linspace(-60.0, 60.0, 41)
    for kind in ProcessKind:
        for family in (doppler_weak_doublet, doppler_strong_doublet):
            ref = family(SCHEME, SCALED_DRIVE, SCALED_PROBE, ENS, xs, kind)
            assert np.allclose(family(SCHEME, drive, probe, ens, xs, kind), ref,
                               rtol=1e-13, atol=0.0)
    ref = fluorescence_triplet(SCHEME, SCALED_DRIVE, SCALED_PROBE, ENS, xs)
    assert np.allclose(fluorescence_triplet(SCHEME, drive, probe, ens, xs), ref,
                       rtol=1e-13, atol=0.0)


def test_triplet_components_and_areas():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=1.0, gamma_l=1.0)
    drive = DriveField(G=200.0, Omega=0.0, k=8.0)
    probe = ProbeField(G_mu=1e-3, k_mu=8.0, theta=1.2)
    comps = triplet_components(scheme, drive, probe, ENS)
    assert [c.center for c in comps] == [-400.0, 0.0, 400.0]
    assert comps[1].weight == pytest.approx(2 * comps[0].weight, rel=1e-15)
    # unit total area
    from scipy.integrate import quad
    total = sum(
        quad(lambda x, c=c: c.density(x), c.center - 3000, c.center + 3000,
             limit=400)[0]
        for c in comps)
    assert total == pytest.approx(1.0, rel=2e-3)


def test_triplet_forward_lorentzians():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=1.5, gamma_l=1.5)
    drive = DriveField(G=150.0, Omega=0.0, k=8.0)
    probe = ProbeField(G_mu=1e-3, k_mu=8.0, theta=0.0)
    Gamma = scheme.gamma_sum
    xs = np.linspace(-350.0, 350.0, 701)
    got = np.asarray(fluorescence_triplet(scheme, drive, probe, ENS, xs))
    expect = np.zeros_like(xs)
    for mult, c in ((1, -300.0), (2, 0.0), (1, 300.0)):
        expect += mult * Gamma / (Gamma**2 + (xs - c) ** 2) / (4 * math.pi)
    assert np.allclose(got, expect, rtol=1e-13)


def test_triplet_peak_height_ratio():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=1.0, gamma_l=1.0)
    drive = DriveField(G=300.0, Omega=0.0, k=8.0)
    probe = ProbeField(G_mu=1e-3, k_mu=8.0, theta=0.01)
    center = fluorescence_triplet(scheme, drive, probe, ENS, 0.0)
    side = fluorescence_triplet(scheme, drive, probe, ENS, 600.0)
    assert center / side == pytest.approx(2.0, rel=1e-3)


def test_fwhm_known_shapes():
    f = lambda x: voigt_density(1.0, np.asarray(x) - 3.0, 0.0)
    x0, h = find_peak(f, -40.0, 40.0)
    width = fwhm(f, -40.0, 40.0, (x0, h))
    assert width == pytest.approx(2.0, rel=1e-6)
    assert x0 == pytest.approx(3.0, abs=1e-6)
    assert h == pytest.approx(1.0, rel=1e-9)
    s = 5.0
    f = lambda x: (SQRT_PI / s) * np.exp(-((np.asarray(x) / s) ** 2))
    width = fwhm(f, -50.0, 50.0, find_peak(f, -50.0, 50.0))
    assert width == pytest.approx(2.0 * math.sqrt(math.log(2.0)) * s, rel=1e-6)


def test_find_peak():
    x0, h = find_peak(lambda x: voigt_density(2.0, np.asarray(x) + 1.5, 3.0),
                      -20.0, 20.0)
    assert x0 == pytest.approx(-1.5, abs=1e-6)
    assert h == pytest.approx(voigt_density(2.0, 0.0, 3.0), rel=1e-10)


def test_integrated_intensity():
    f = lambda x: voigt_density(1.0, np.asarray(x), 0.0)
    area = integrated_intensity(f, (-500.0, 500.0), find_peak(f, -500.0, 500.0), 1.0)
    assert area == pytest.approx(math.pi - 2 * math.atan(1.0 / 500.0), rel=1e-7)
    # window pinned off the peak so the edge dominates: must refuse
    with pytest.raises(ValueError):
        integrated_intensity(f, (-0.4, 0.4), find_peak(f, -0.4, 0.4), 1.0)


@pytest.mark.parametrize("side", [0, 1])
def test_integrated_intensity_isolation_boundary(side):
    # a window is measured only if both edge values are at most a quarter
    # of the peak; 1/(1 + x^2) falls to a quarter of its peak at sqrt(3)
    f = lambda x: 1.0 / (1.0 + np.asarray(x) ** 2)
    peak = (0.0, 1.0)
    above, below = math.sqrt(3.0) * (1.0 - 1e-12), math.sqrt(3.0) * (1.0 + 1e-12)
    assert f(above) > 0.25 >= f(below)

    def window(edge):  # one edge at +-edge, the other far out
        return (-edge, 10.0) if side == 0 else (-10.0, edge)

    with pytest.raises(ValueError, match="does not isolate"):
        integrated_intensity(f, window(above), peak, 1.0)
    area = integrated_intensity(f, window(below), peak, 1.0)
    assert area == pytest.approx(math.atan(below) + math.atan(10.0), rel=1e-10)


def test_integrated_intensity_refuses_a_line_of_zero_height():
    with pytest.raises(ValueError, match="does not isolate"):
        integrated_intensity(lambda x: 0.0 * np.asarray(x), (-1.0, 1.0), (0.0, 0.0), 0.0)


def test_fwhm_requires_crossings_inside_window():
    f = lambda x: voigt_density(1.0, np.asarray(x), 0.0)
    with pytest.raises(ValueError):
        fwhm(f, -0.5, 0.5, find_peak(f, -0.5, 0.5))
