"""Atom-at-rest spectrum against the time-domain oracle and its own limits."""

import math

import numpy as np
import pytest

from dresslines import (
    DriveField,
    LevelScheme,
    ProbeField,
    RegimeError,
    dressed_exponents,
    predicted_peaks,
    w_mu_exact,
    w_mu_time_domain_grid,
    w_mu_weak,
    weak_field_ratio,
)
from dresslines.oracle import OdeSettings

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
    c1, c2 = predicted_peaks(pair)
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
    ref = w_mu_time_domain_grid(scheme, drive, PROBE, grid,
                                settings=OdeSettings(rtol=1e-12, atol=1e-14))
    assert np.max(np.abs(w - ref) / np.abs(ref)) < 1e-8


def test_near_confluent_continuity():
    # Omega -> 0 onto the confluent point gamma_n - gamma_m = 2G, where a
    # dressed-exponent form loses |alpha_1 - alpha_2|^2 to rounding.
    scheme = LevelScheme(gamma_m=1.0, gamma_n=3.0, gamma_l=0.5)
    grid = np.array([-3.0, 0.0, 1.0, 2.5])
    for Om in (1e-4, 1e-8, 1e-10, 1e-12, 1e-14, 1e-15, 0.0):
        drive = DriveField(G=1.0, Omega=Om)
        w = w_mu_exact(scheme, drive, PROBE, grid)
        ref = w_mu_time_domain_grid(scheme, drive, PROBE, grid,
                                    settings=OdeSettings(rtol=1e-12, atol=1e-14))
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
    # the two complex terms assemble the density
    assert np.allclose((br.stepwise + br.raman).real, w, rtol=1e-14)
    # interference parts are retrievable and account for the flag
    w_no, br_no = w_mu_weak(scheme, drive, PROBE, grid, include_interference=False)
    assert np.allclose(
        (br_no.stepwise + br_no.stepwise_interference
         + br_no.raman + br_no.raman_interference).real, w, rtol=1e-12)


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
    scheme = LevelScheme(gamma_m=0.8, gamma_n=1.7, gamma_l=0.6)
    drive = DriveField(G=2.2, Omega=-3.0)
    probe = ProbeField(G_mu=1e-3)
    x = 1.9
    base = w_mu_exact(scheme, drive, probe, x)
    s = 7.3
    scaled = w_mu_exact(
        LevelScheme(gamma_m=0.8 * s, gamma_n=1.7 * s, gamma_l=0.6 * s),
        DriveField(G=2.2 * s, Omega=-3.0 * s),
        ProbeField(G_mu=1e-3 * s),
        x * s,
    )
    assert scaled == pytest.approx(base, rel=1e-12)


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
