"""Atom-at-rest spectrum against the time-domain oracle and its own limits."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dresslines import (
    DriveField,
    LevelScheme,
    ProbeField,
    RegimeError,
    dressed_exponents,
    w_mu_exact,
    w_mu_time_domain_grid,
    w_mu_weak,
    weak_field_ratio,
)

rng = np.random.default_rng(77001)

PROBE = ProbeField(G_mu=1e-3)


def test_matches_time_domain_spot():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
    drive = DriveField(G=3.0, Omega=4.0)
    grid = np.linspace(-25.0, 25.0, 21)
    w = w_mu_exact(scheme, drive, PROBE, grid)
    ref = w_mu_time_domain_grid(scheme, drive, PROBE, grid)
    assert np.max(np.abs(w - ref) / np.abs(ref)) < 1e-6


def test_probe_off_gives_zero():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
    drive = DriveField(G=3.0, Omega=4.0)
    w = w_mu_exact(scheme, drive, ProbeField(G_mu=0.0), np.linspace(-5, 5, 7))
    assert np.all(w == 0.0)


def test_symmetric_resonance_peaks():
    # Equal damping at zero detuning: maxima near +-G, symmetric spectrum.
    scheme = LevelScheme(gamma_m=1.0, gamma_n=1.0, gamma_l=1.0)
    drive = DriveField(G=10.0, Omega=0.0)
    grid = np.linspace(-30.0, 30.0, 1201)
    w = np.asarray(w_mu_exact(scheme, drive, PROBE, grid))
    assert np.allclose(w, w[::-1], rtol=1e-12)
    peaks = grid[np.r_[False, (w[1:-1] > w[:-2]) & (w[1:-1] > w[2:]), False]]
    assert len(peaks) == 2
    assert peaks[1] == pytest.approx(10.0, abs=0.5)
    assert peaks[0] == pytest.approx(-10.0, abs=0.5)


def test_resolved_peaks_near_exponent_shifts():
    scheme = LevelScheme(gamma_m=0.5, gamma_n=0.7, gamma_l=0.3)
    drive = DriveField(G=15.0, Omega=6.0)
    pair = dressed_exponents(scheme, drive)
    c1, c2 = pair.alpha1.imag, pair.alpha2.imag
    slack = pair.alpha1.real + pair.alpha2.real + 2 * scheme.gamma_l
    grid = np.linspace(min(c1, c2) - 20, max(c1, c2) + 20, 4001)
    w = np.asarray(w_mu_exact(scheme, drive, PROBE, grid))
    peaks = grid[np.r_[False, (w[1:-1] > w[:-2]) & (w[1:-1] > w[2:]), False]]
    assert len(peaks) == 2
    assert min(abs(peaks - c1)) < slack
    assert min(abs(peaks - c2)) < slack


def test_confluent_point_matches_time_domain():
    G = 1.3
    scheme = LevelScheme(gamma_m=1.0, gamma_n=1.0 + 2 * G, gamma_l=0.8)
    drive = DriveField(G=G, Omega=0.0)
    assert dressed_exponents(scheme, drive).is_degenerate
    grid = np.array([-3.0, 0.0, 1.7, 5.0])
    w = w_mu_exact(scheme, drive, PROBE, grid)
    ref = w_mu_time_domain_grid(scheme, drive, PROBE, grid, halving_check=True)
    assert np.max(np.abs(w - ref) / np.abs(ref)) < 1e-8


def test_near_confluent_continuity():
    # Omega -> 0 onto the confluent point gamma_n - gamma_m = 2G, where a
    # dressed-exponent form loses |alpha_1 - alpha_2|^2 to rounding.
    scheme = LevelScheme(gamma_m=1.0, gamma_n=3.0, gamma_l=0.5)
    grid = np.array([-3.0, 0.0, 1.0, 2.5])
    for Om in (1e-4, 1e-8, 1e-10, 1e-12, 1e-14, 1e-15, 0.0):
        drive = DriveField(G=1.0, Omega=Om)
        w = w_mu_exact(scheme, drive, PROBE, grid)
        ref = w_mu_time_domain_grid(scheme, drive, PROBE, grid, halving_check=True)
        assert np.max(np.abs(w - ref) / np.abs(ref)) < 1e-8, Om


def test_confluent_pair_at_the_probe_pole():
    # gamma_l = Re(alpha) and Omega_mu = Im(alpha) = 0 at the confluent point:
    # the density is 3/128 there, on the scalar and on the array path.
    scheme = LevelScheme(gamma_m=1.0, gamma_n=3.0, gamma_l=2.0)
    drive = DriveField(G=1.0, Omega=0.0)
    probe = ProbeField(G_mu=1.0)
    for x in (0.0, 1e-9):
        assert w_mu_exact(scheme, drive, probe, x) == pytest.approx(3 / 128, rel=1e-14)
        w = w_mu_exact(scheme, drive, probe, np.array([x]))
        assert w[0] == pytest.approx(3 / 128, rel=1e-14)


def lyapunov_density_mp(gm, gn, gl, G, Omega, G_mu, x, dps=400):
    """2*gamma_l*P_ll from the 3x3 Gramian M P + P M^H = -e_n e_n^H, in mpmath.

    mpmath's LU calls a pivot below eps times the matrix norm singular, so
    the precision must span Omega_mu's exponent.
    """
    with mpmath.workdps(dps):
        m = [[mpmath.mpc(-gm), mpmath.mpc(0, G), 0],
             [mpmath.mpc(0, G), mpmath.mpc(-gn, -Omega), 0],
             [mpmath.mpc(0, G_mu), 0, mpmath.mpc(-gl, -x)]]
        a, b = mpmath.matrix(9, 9), mpmath.matrix(9, 1)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    a[3 * i + j, 3 * k + j] += m[i][k]
                    a[3 * i + j, 3 * i + k] += mpmath.conj(m[j][k])
        b[4] = -1
        return float(2 * gl * mpmath.re(mpmath.lu_solve(a, b)[8]))


@pytest.mark.parametrize("x", [3.0, 1e78, -1e78, 1e155, 1e300])
def test_far_detunings_against_mpmath(x):
    # dr*dr + di*di overflows from |Omega_mu| ~ 1e77 on; the density there is
    # about 0.103/Omega_mu**2, subnormal at 1e155 and below the float range
    # at 1e300
    scheme = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
    drive = DriveField(G=3.0, Omega=4.0)
    probe = ProbeField(G_mu=1.0)
    ref = lyapunov_density_mp(1.0, 2.0, 0.5, 3.0, 4.0, 1.0, x)
    for got in (w_mu_exact(scheme, drive, probe, x),
                w_mu_exact(scheme, drive, probe, np.array([0.0, x]))[1],
                w_mu_exact(scheme, drive, probe, np.resize([0.0, x], 64))[1]):
        assert math.isclose(got, ref, rel_tol=1e-13, abs_tol=2e-323), (got, ref)
    if abs(x) == 1e78:
        assert ref == pytest.approx(1.0305343511450373e-157, rel=1e-13)


def test_time_domain_route_keeps_a_slow_decay_against_a_fast_detuning():
    # ||A||_inf ~ 1e4 sets the step, so exp(-gamma_m*h) lies within 5e-7
    # of 1: carried as Phi itself it would lose six digits (2e-10 here)
    scheme = LevelScheme(gamma_m=0.01, gamma_n=40.0, gamma_l=50.0)
    drive = DriveField(G=0.002, Omega=2.7)
    probe = ProbeField(G_mu=1.0)
    grid = np.array([-1e4, 1e4])
    got = w_mu_time_domain_grid(scheme, drive, probe, grid)
    for x, w in zip(grid, got):
        ref = lyapunov_density_mp(0.01, 40.0, 50.0, 0.002, 2.7, 1.0, x, dps=60)
        assert w == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_weak_field_form_and_breakdown():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
    Om = 5.0
    ratio_scale = abs(complex(Om, -scheme.gamma_diff))
    drive = DriveField(G=1e-3 * ratio_scale, Omega=Om)
    grid = np.linspace(-10.0, 10.0, 41)
    w, br = w_mu_weak(scheme, drive, PROBE, grid)
    exact = np.asarray(w_mu_exact(scheme, drive, PROBE, grid))
    assert np.max(np.abs(w - exact)) / np.max(np.abs(exact)) < 1e-4
    assert br.coupling_ratio == pytest.approx(1e-3)
    # the density is the real part of the two residues over their poles
    gm, gn, gl = scheme.gamma_m, scheme.gamma_n, scheme.gamma_l
    d_step = gl + gm + 1j * grid
    d_raman = gl + gn + 1j * (grid - Om)
    np.testing.assert_allclose((br.stepwise / d_step + br.raman / d_raman).real, w,
                               rtol=1e-14, atol=0)
    # the interference parts are contained in the two residues: removing
    # them leaves the no-interference doublet, Lorentzians of weight
    # 1/gamma_m and 1/gamma_n
    pref = drive.G**2 * PROBE.G_mu**2 / ratio_scale**2
    assert br.stepwise - br.stepwise_interference == pytest.approx(pref / gm, rel=1e-15)
    assert br.raman - br.raman_interference == pytest.approx(pref / gn, rel=1e-15)
    doublet = pref * ((gl + gm) / gm / ((gl + gm) ** 2 + grid**2)
                      + (gl + gn) / gn / ((gl + gn) ** 2 + (grid - Om) ** 2))
    bare = ((br.stepwise - br.stepwise_interference) / d_step
            + (br.raman - br.raman_interference) / d_raman).real
    np.testing.assert_allclose(bare, doublet, rtol=1e-12, atol=0)
    # and they are no rounding-level correction
    shift = np.max(np.abs(w - bare)) / np.max(np.abs(w))
    assert shift > 0.1


def test_weak_field_far_wings_keep_their_relative_accuracy():
    # Im S = -Im R, so the two residues' 1/Omega_mu tails cancel: taken as
    # two rounded terms they left 2e-11 of error at 1e6 and 0.2 at 1e16
    scheme = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
    drive = DriveField(G=0.01, Omega=4.0)
    probe = ProbeField(G_mu=1.0)
    _, br = w_mu_weak(scheme, drive, probe, 0.0)
    S, R = br.stepwise, br.raman

    def exact(x):  # the same residues over their poles, in rational arithmetic
        a1, a2, x, y = Fraction(1.5), Fraction(2.5), Fraction(x), Fraction(x) - 4
        return float((Fraction(S.real) * a1 + Fraction(S.imag) * x) / (a1 * a1 + x * x)
                     + (Fraction(R.real) * a2 + Fraction(R.imag) * y) / (a2 * a2 + y * y))

    points = [1e6, 1e9, 1e12, 1e16, -1e16, 1e200]
    block = np.resize(points, 64)
    pairs = [(x, w_mu_weak(scheme, drive, probe, x)[0]) for x in points]
    pairs += zip(block.tolist(), w_mu_weak(scheme, drive, probe, block)[0].tolist())
    for x, got in pairs:
        ref = exact(x)
        assert abs(got - ref) <= 3 * np.finfo(float).eps * abs(ref), (x, got, ref)


def test_weak_field_quadratic_convergence():
    scheme = LevelScheme(gamma_m=0.7, gamma_n=0.4, gamma_l=1.2)
    Om = -7.0
    scale = abs(complex(Om, -scheme.gamma_diff))
    grid = np.linspace(-2 * abs(Om), 2 * abs(Om), 41)

    def dev(G):
        drive = DriveField(G=G, Omega=Om)
        w, _ = w_mu_weak(scheme, drive, PROBE, grid)
        exact = np.asarray(w_mu_exact(scheme, drive, PROBE, grid))
        return np.max(np.abs(w - exact)) / np.max(np.abs(exact))

    d1 = dev(1e-3 * scale)
    d2 = dev(0.5e-3 * scale)
    assert d1 < 1e-4
    assert d1 / d2 > 3.9


def test_weak_field_singular_regime():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=1.0, gamma_l=0.5)
    with pytest.raises(RegimeError):
        w_mu_weak(scheme, DriveField(G=0.1, Omega=0.0), PROBE, 0.0)
    assert weak_field_ratio(scheme, DriveField(G=0.1, Omega=0.0)) == math.inf


def test_scaling_invariance():
    # w is a dimensionless emission probability (rate times time integral),
    # so rescaling every frequency-like input by one factor leaves it
    # unchanged: the unit of the shared frequency scale is a free choice.
    # The time-domain route must not depend on that unit either.
    def case(s):
        return (LevelScheme(gamma_m=0.8 * s, gamma_n=1.7 * s, gamma_l=0.6 * s),
                DriveField(G=2.2 * s, Omega=-3.0 * s), ProbeField(G_mu=1e-3 * s))

    x = 1.9
    base = w_mu_exact(*case(1.0), x)
    assert w_mu_exact(*case(7.3), x * 7.3) == pytest.approx(base, rel=1e-12)
    grid = np.array([-6.0, x, 9.0])
    exact = w_mu_exact(*case(1.0), grid)
    for s in (1e-8, 1e8):
        got = w_mu_time_domain_grid(*case(s), grid * s)
        assert np.all(np.abs(got - exact) <= 1e-13 * exact)


def test_nonnegative_on_random_sweep():
    # Empirical positivity of the full expression; a counterexample must
    # surface here as a failure, never be clipped.
    bad = []
    for _ in range(200):
        gm, gn, gl = rng.uniform(0.2, 5.0, 3)
        Om = rng.uniform(-20.0, 20.0)
        G = rng.uniform(0.0, 20.0)
        scheme = LevelScheme(gamma_m=gm, gamma_n=gn, gamma_l=gl)
        drive = DriveField(G=G, Omega=Om)
        grid = rng.uniform(-40.0, 40.0, 9)
        w = np.asarray(w_mu_exact(scheme, drive, PROBE, np.sort(grid)))
        if np.any(w < -1e-18):
            bad.append((gm, gn, gl, Om, G, w.min()))
    assert not bad, f"negative spectral density found: {bad}"


log_rate = st.floats(min_value=-2.0, max_value=2.0).map(lambda e: 10.0 ** e)
log_drive = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None, database=None)
@given(gm=log_rate, gn=log_rate, gl=log_rate, G=st.one_of(st.just(0.0), log_drive),
       Omega=log_drive, sign=st.sampled_from([-1.0, 1.0]))
@example(gm=1.0, gn=3.0, gl=0.5, G=1.0, Omega=0.0, sign=1.0)  # confluent: |gn - gm| = 2G
def test_sum_rule_and_nonnegativity(gm, gn, gl, G, Omega, sign):
    # The area over Omega_mu is 2*pi*|G_mu|^2 times the time integral of
    # |a_m|^2, P_mm = G^2*Gamma / (2(G^2*Gamma^2 + gm*gn*(Gamma^2 + Omega^2))).
    scheme = LevelScheme(gamma_m=gm, gamma_n=gn, gamma_l=gl)
    drive = DriveField(G=G, Omega=sign * Omega)
    probe = ProbeField(G_mu=0.3)
    Gamma = gm + gn
    P_mm = G * G * Gamma / (2.0 * (G * G * Gamma**2 + gm * gn * (Gamma**2 + Omega**2)))
    pair = dressed_exponents(scheme, drive)
    c1, c2 = sorted([pair.alpha1.imag, pair.alpha2.imag])

    def w(x):
        return w_mu_exact(scheme, drive, probe, x)

    area = sum(quad(w, lo, hi, epsrel=1e-11, epsabs=0.0, limit=200)[0]
               for lo, hi in ((-np.inf, c1), (c1, c2), (c2, np.inf)))
    assert area == pytest.approx(2.0 * math.pi * probe.G_mu**2 * P_mm, rel=1e-10, abs=0.0)

    width = gl + Gamma + G
    offsets = width * np.logspace(-3.0, 3.0, 25)
    grid = np.concatenate([c + np.concatenate([-offsets, [0.0], offsets]) for c in (c1, c2)])
    assert np.all(w_mu_exact(scheme, drive, probe, grid) >= 0.0)


@settings(max_examples=300, deadline=None, database=None)
@given(gm=log_rate, gn=log_rate, gl=log_rate, G=st.one_of(st.just(0.0), log_drive),
       Omega=log_drive, sign=st.sampled_from([-1.0, 1.0]),
       x=st.floats(min_value=-1e4, max_value=1e4))
@example(gm=1.0, gn=3.0, gl=0.5, G=1.0, Omega=0.0, sign=1.0, x=0.0)  # exceptional: |gn - gm| = 2G
@example(gm=1.0, gn=2.0, gl=0.5, G=3.0, Omega=4.0, sign=1.0, x=-1e4)  # far detuning
def test_exact_spectrum_matches_the_time_domain_route(gm, gn, gl, G, Omega, sign, x):
    # At each dressed line (whose place only picks the grid), a tenth of a
    # width and ten widths off it, and at x: within 1e-9 relative.
    scheme = LevelScheme(gamma_m=gm, gamma_n=gn, gamma_l=gl)
    drive = DriveField(G=G, Omega=sign * Omega)
    pair = dressed_exponents(scheme, drive)
    offsets = (gl + gm + gn + G) * np.array([-10.0, -0.1, 0.0, 0.1, 10.0])
    grid = np.concatenate([[x], pair.alpha1.imag + offsets, pair.alpha2.imag + offsets])
    ref = w_mu_time_domain_grid(scheme, drive, PROBE, grid)
    w = w_mu_exact(scheme, drive, PROBE, grid)
    assert np.all(np.abs(w - ref) <= 1e-9 * np.abs(ref)), np.max(np.abs(w / ref - 1.0))
