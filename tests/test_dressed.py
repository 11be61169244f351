"""Dressed exponents and memory factors against first principles.

The closed forms are checked against the defining quadratic, against limits
with known answers, and the memory factors against the derivative of the
exponents' shifts.
"""

import math

import numpy as np
import pytest

from dresslines import (
    DriveField,
    LevelScheme,
    ProbeField,
    RegimeError,
    ThermalEnsemble,
    doublet_resolved,
    dressed_exponents,
    memory_factors,
    strong_doublet_components,
)

rng = np.random.default_rng(20260821)


def random_case():
    gm, gn, gl = rng.uniform(0.2, 5.0, 3)
    Om = rng.uniform(-20.0, 20.0)
    G = rng.uniform(0.0, 20.0)
    return LevelScheme(gamma_m=gm, gamma_n=gn, gamma_l=gl), DriveField(G=G, Omega=Om)


def test_exponents_satisfy_quadratic():
    # alpha^2 - (Gamma + i*Omega)*alpha + gamma_m*(gamma_n + i*Omega) + G^2 = 0
    for _ in range(300):
        scheme, drive = random_case()
        pair = dressed_exponents(scheme, drive)
        for alpha in (pair.alpha1, pair.alpha2):
            res = (alpha * alpha
                   - (scheme.gamma_sum + 1j * drive.Omega) * alpha
                   + scheme.gamma_m * (scheme.gamma_n + 1j * drive.Omega)
                   + drive.G**2)
            scale = max(abs(alpha) ** 2, 1.0)
            assert abs(res) < 1e-12 * scale


def test_sum_and_product_of_roots():
    for _ in range(300):
        scheme, drive = random_case()
        pair = dressed_exponents(scheme, drive)
        s = pair.alpha1 + pair.alpha2
        p = pair.alpha1 * pair.alpha2
        s_ref = scheme.gamma_sum + 1j * drive.Omega
        p_ref = scheme.gamma_m * (scheme.gamma_n + 1j * drive.Omega) + drive.G**2
        assert abs(s - s_ref) < 1e-12 * max(abs(s_ref), 1.0)
        assert abs(p - p_ref) < 1e-11 * max(abs(p_ref), 1.0)


def test_labeling_order():
    # Component 1 carries the larger frequency shift.
    for _ in range(200):
        scheme, drive = random_case()
        pair = dressed_exponents(scheme, drive)
        assert pair.alpha1.imag >= pair.alpha2.imag - 1e-12 * (1 + abs(pair.alpha1))


def test_weak_drive_limit():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
    pair = dressed_exponents(scheme, DriveField(G=1e-8, Omega=7.0))
    assert pair.alpha1 == pytest.approx(2.0 + 7.0j, abs=1e-8)
    assert pair.alpha2 == pytest.approx(1.0 + 0.0j, abs=1e-8)
    # G = 0 exactly: the uncoupled decay rates
    pair0 = dressed_exponents(scheme, DriveField(G=0.0, Omega=7.0))
    assert pair0.alpha1 == pytest.approx(2.0 + 7.0j, abs=1e-14)
    assert pair0.alpha2 == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_strong_drive_limit():
    # G dominating everything: alpha -> (Gamma + i*Omega)/2 +- i*G
    scheme = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
    G = 1e5
    pair = dressed_exponents(scheme, DriveField(G=G, Omega=3.0))
    half = 0.5 * (3.0 + 3.0j)
    assert pair.alpha1 == pytest.approx(half + 1j * G, rel=1e-6)
    assert pair.alpha2 == pytest.approx(half - 1j * G, rel=1e-6)


def test_equal_damping_real_parts():
    # gamma_m = gamma_n: both decay rates stick at the common gamma while
    # the shifts split by sqrt(Omega^2 + 4G^2).
    scheme = LevelScheme(gamma_m=1.3, gamma_n=1.3, gamma_l=0.5)
    for Om, G in ((0.0, 4.0), (5.0, 2.0), (-8.0, 3.0)):
        pair = dressed_exponents(scheme, DriveField(G=G, Omega=Om))
        assert pair.alpha1.real == pytest.approx(1.3, rel=1e-12)
        assert pair.alpha2.real == pytest.approx(1.3, rel=1e-12)
        split = math.hypot(Om, 2.0 * G)
        assert pair.alpha1.imag - pair.alpha2.imag == pytest.approx(split, rel=1e-12)
        assert pair.alpha1.imag + pair.alpha2.imag == pytest.approx(Om, abs=1e-12 * (1 + abs(Om)))


def test_degenerate_branch():
    # Exponents collapse exactly at Omega = 0, gamma_n - gamma_m = 2G.
    G = 1.3
    scheme = LevelScheme(gamma_m=1.0, gamma_n=1.0 + 2.0 * G, gamma_l=0.8)
    drive = DriveField(G=G, Omega=0.0)
    assert dressed_exponents(scheme, drive).is_degenerate


def test_memory_factors_basics():
    M1, M2 = memory_factors(DriveField(G=1.0, Omega=2.0))
    # Omega = 2G: frozen reference (1 + 1/sqrt(2))/2 from the pre-build oracle
    assert M1 == pytest.approx(0.8535533905932737622, rel=1e-15)
    assert M1 + M2 == pytest.approx(1.0, abs=1e-15)
    # strong drive: both components share the shift equally
    M1, M2 = memory_factors(DriveField(G=100.0, Omega=1e-3))
    assert M1 == pytest.approx(0.5, abs=1e-5)
    # no drive, positive detuning: full memory on component 1
    assert memory_factors(DriveField(G=0.0, Omega=5.0)) == (1.0, 0.0)
    with pytest.raises(RegimeError):
        memory_factors(DriveField(G=0.0, Omega=0.0))


def test_memory_factor_is_shift_derivative():
    # At equal damping, M_1 equals d(Im alpha_1)/d(Omega) exactly.
    scheme = LevelScheme(gamma_m=1.1, gamma_n=1.1, gamma_l=1.0)
    for Om, G in ((3.0, 2.0), (-6.0, 1.5), (0.5, 8.0)):
        h = 1e-6 * max(1.0, abs(Om))
        up = dressed_exponents(scheme, DriveField(G=G, Omega=Om + h))
        dn = dressed_exponents(scheme, DriveField(G=G, Omega=Om - h))
        fd = (up.alpha1.imag - dn.alpha1.imag) / (2.0 * h)
        M1, _ = memory_factors(DriveField(G=G, Omega=Om))
        assert fd == pytest.approx(M1, rel=1e-6)


def test_doublet_resolved():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=1.0, gamma_l=0.5)
    wide = dressed_exponents(scheme, DriveField(G=50.0, Omega=0.0))
    narrow = dressed_exponents(scheme, DriveField(G=1.0, Omega=0.0))
    assert doublet_resolved(wide, scheme.gamma_l)
    assert not doublet_resolved(narrow, scheme.gamma_l)


def test_doublet_resolved_between_one_and_two_gamma_l():
    # gamma = (1, 1, 1), Omega = 0: the separation is 2G and the widths
    # with both gamma_l are 4, so G = 1.75 (separation 3.5) lies between
    # widths + gamma_l = 3 and widths + 2*gamma_l, and G = 2.1 lies above
    scheme = LevelScheme(gamma_m=1.0, gamma_n=1.0, gamma_l=1.0)
    pairs = [dressed_exponents(scheme, DriveField(G=G, Omega=0.0)) for G in (1.75, 2.1)]
    assert [doublet_resolved(p, scheme.gamma_l) for p in pairs] == [False, True]


def test_degenerate_threshold_is_1e_minus_8_of_the_scale():
    # gamma = (1, 3, 0.5), Omega = 0 collapses at G = 1; at G = 1 + 2e-12
    # the splitting is 1.0e-6 of the pair's scale, far above the threshold
    scheme = LevelScheme(gamma_m=1.0, gamma_n=3.0, gamma_l=0.5)
    args = (ProbeField(G_mu=1e-3, k_mu=2.0, theta=1.0), ThermalEnsemble(vbar=1.0))
    near = DriveField(G=1.0 + 2e-12, Omega=0.0, k=2.0)
    assert not dressed_exponents(scheme, near).is_degenerate
    assert len(strong_doublet_components(scheme, near, *args)) == 2
    at = DriveField(G=1.0, Omega=0.0, k=2.0)
    assert dressed_exponents(scheme, at).is_degenerate
    with pytest.raises(RegimeError):
        strong_doublet_components(scheme, at, *args)


def test_pair_carries_damping_summary():
    scheme = LevelScheme(gamma_m=0.4, gamma_n=2.6, gamma_l=1.0)
    pair = dressed_exponents(scheme, DriveField(G=2.0, Omega=1.0))
    assert pair.Gamma == pytest.approx(3.0)
