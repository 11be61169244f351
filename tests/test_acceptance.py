"""Acceptance gate: twelve end-to-end checks of the package's physics claims.

Each test covers one numbered criterion and emits a single [PASS]/[FAIL]
line (visible with -s, or in the failure report) carrying the measured
numbers, so the log gives the full verdict at a glance.  Every check runs
against an independent route: the time-domain solver, trapezoidal
velocity quadrature, 50-digit arithmetic, or an analytic limit.
"""

import json
import math
from pathlib import Path

import numpy as np

from dresslines import (
    DriveField,
    LevelScheme,
    ProbeField,
    ProcessKind,
    ThermalEnsemble,
    doppler_strong_doublet,
    doppler_weak_doublet,
    dressed_exponents,
    effective_q,
    fluorescence_triplet,
    find_peak,
    fwhm,
    integrated_intensity,
    memory_factors,
    strong_doublet_components,
    triplet_components,
    velocity_average,
    w_mu_exact,
    w_mu_time_domain_grid,
    w_mu_weak,
    weak_doublet_components,
    wofz,
)
from dresslines.cli import main as cli_main
from dresslines.oracle import _lorentzian_sum, _pole_distance

GOLDEN = Path(__file__).parent / "golden"

TWO_SQRT_LN2 = 2.0 * math.sqrt(math.log(2.0))


def verdict(num: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_exact_spectrum_vs_time_domain():
    rng = np.random.default_rng(1001)
    grid = np.linspace(-60.0, 60.0, 33)
    worst = 0.0
    for _ in range(100):
        gm, gn, gl = rng.uniform(0.2, 5.0, 3)
        scheme = LevelScheme(gamma_m=gm, gamma_n=gn, gamma_l=gl)
        drive = DriveField(G=rng.uniform(0.05, 20.0), Omega=rng.uniform(-20.0, 20.0))
        probe = ProbeField(G_mu=0.1)
        closed = np.atleast_1d(w_mu_exact(scheme, drive, probe, grid))
        ref = w_mu_time_domain_grid(scheme, drive, probe, grid)
        worst = max(worst, float(np.max(np.abs(closed - ref) / np.abs(ref))))
    verdict(1, worst <= 1e-6,
            f"exact spectrum vs time-domain solver on 100 random parameter "
            f"sets x 33 detunings, worst relative deviation {worst:.2e} <= 1e-6")


def test_criterion_02_weak_drive_expansion():
    rng = np.random.default_rng(1002)
    grid = np.linspace(-40.0, 40.0, 33)
    worst_dev = 0.0
    worst_ratio = math.inf
    done = 0
    while done < 20:
        gm, gn, gl = rng.uniform(0.2, 5.0, 3)
        Om = rng.uniform(-20.0, 20.0)
        scale = abs(complex(Om, -(gn - gm)))
        if scale < 0.5:
            continue
        done += 1
        scheme = LevelScheme(gamma_m=gm, gamma_n=gn, gamma_l=gl)
        probe = ProbeField(G_mu=0.1)

        def peak_dev(G):
            drive = DriveField(G=G, Omega=Om)
            weak, _ = w_mu_weak(scheme, drive, probe, grid)
            exact = np.atleast_1d(w_mu_exact(scheme, drive, probe, grid))
            return float(np.max(np.abs(np.atleast_1d(weak) - exact))
                         / np.max(np.abs(exact)))

        d1 = peak_dev(1e-3 * scale)
        d2 = peak_dev(0.5e-3 * scale)
        worst_dev = max(worst_dev, d1)
        worst_ratio = min(worst_ratio, d1 / d2)
    ok = worst_dev <= 1e-4 and worst_ratio >= 3.9
    verdict(2, ok,
            f"weak-drive form at coupling ratio 1e-3 on 20 sets: worst peak "
            f"deviation {worst_dev:.2e} <= 1e-4, error contraction on halving "
            f"{worst_ratio:.2f}x >= 3.9x")


def test_criterion_03_exponent_and_memory_sum_rules():
    rng = np.random.default_rng(1003)
    worst_root = 0.0
    worst_mem = 0.0
    for _ in range(10_000):
        gm, gn, gl = rng.uniform(0.05, 10.0, 3)
        scheme = LevelScheme(gamma_m=gm, gamma_n=gn, gamma_l=gl)
        drive = DriveField(G=rng.uniform(0.01, 20.0), Omega=rng.uniform(-20.0, 20.0))
        pair = dressed_exponents(scheme, drive)
        target = complex(gm + gn, drive.Omega)
        worst_root = max(worst_root,
                         abs(pair.alpha1 + pair.alpha2 - target) / max(1.0, abs(target)))
        M1, M2 = memory_factors(drive)
        worst_mem = max(worst_mem, abs(M1 + M2 - 1.0))
    ok = worst_root <= 1e-12 and worst_mem <= 1e-12
    verdict(3, ok,
            f"10^4 random draws: exponent sum rule off by {worst_root:.2e}, "
            f"memory-fraction sum rule off by {worst_mem:.2e}, both <= 1e-12")


def test_criterion_04_weak_doublet_vs_quadrature():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
    ens = ThermalEnsemble(vbar=1.0)
    Om = 600.0
    worst = 0.0
    n_sets = 0
    for theta in (0.35, 0.9, math.pi / 2, 2.3, 2.9):
        for kappa in (0.5, 1.0, 2.0, 3.0, 4.5, 6.0):
            n_sets += 1
            drive = DriveField(G=1.0, Omega=Om, k=kappa)
            probe = ProbeField(G_mu=0.1, k_mu=kappa, theta=theta)
            comps = weak_doublet_components(scheme, drive, probe, ens)
            d = _pole_distance([c.natural_halfwidth for c in comps],
                               [c.doppler_scale for c in comps])
            assert d >= 0.105  # stratification keeps every set automatable
            q = comps[1].doppler_scale
            for x in (0.0, Om, Om + 0.8 * max(q, 2.0)):
                ref = velocity_average(_lorentzian_sum(comps, x),
                                       ens, drive.k, probe.k_mu, probe.theta,
                                       pole_distance=d)
                closed = float(doppler_weak_doublet(scheme, drive, probe, ens, x))
                worst = max(worst, abs(closed - ref) / abs(ref))
    # spot self-consistency of the quadrature itself on one mid-range set
    drive = DriveField(G=1.0, Omega=Om, k=2.0)
    probe = ProbeField(G_mu=0.1, k_mu=2.0, theta=0.9)
    comps = weak_doublet_components(scheme, drive, probe, ens)
    velocity_average(_lorentzian_sum(comps, Om), ens,
                     drive.k, probe.k_mu, probe.theta,
                     pole_distance=0.6, doubling_check=True)
    ok = worst <= 1e-8 and n_sets == 30
    verdict(4, ok,
            f"averaged weak doublet vs 2-D trapezoidal quadrature on "
            f"{n_sets} stratified direction/scale sets, worst relative "
            f"deviation {worst:.2e} <= 1e-8")


def test_criterion_05_direction_dependent_width():
    scheme = LevelScheme(gamma_m=0.05, gamma_n=0.05, gamma_l=0.05)
    ens = ThermalEnsemble(vbar=1.0)
    drive = DriveField(G=1.0, Omega=5000.0, k=300.0)
    worst = 0.0
    for theta in (math.pi / 4, math.pi / 2, math.pi):
        probe = ProbeField(G_mu=0.1, k_mu=300.0, theta=theta)
        comps = weak_doublet_components(scheme, drive, probe, ens)
        raman = comps[1]
        s = raman.doppler_scale
        expect = TWO_SQRT_LN2 * effective_q(300.0, 300.0, theta, 1.0)
        lo, hi = raman.center - 6 * s, raman.center + 6 * s
        width = fwhm(raman.density, lo, hi, find_peak(raman.density, lo, hi))
        worst = max(worst, abs(width - expect) / expect)
    # backward observation: correlated width doubles the direct one
    probe = ProbeField(G_mu=0.1, k_mu=300.0, theta=math.pi)
    comps = weak_doublet_components(scheme, drive, probe, ens)
    widths = []
    for c in comps:
        s = max(c.doppler_scale, 1.0)
        lo, hi = c.center - 6 * s, c.center + 6 * s
        widths.append(fwhm(c.density, lo, hi, find_peak(c.density, lo, hi)))
    ratio = widths[1] / widths[0]
    ok = worst <= 0.02 and abs(ratio - 2.0) <= 0.04
    verdict(5, ok,
            f"correlated-component width tracks the direction-dependent "
            f"wavevector: worst FWHM deviation {worst * 100:.2f}% <= 2% at "
            f"three angles; backward width ratio {ratio:.3f} within 2.00 +- 0.04")


def test_criterion_06_forward_natural_lineshape():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
    ens = ThermalEnsemble(vbar=1.0)
    drive = DriveField(G=1.0, Omega=600.0, k=30.0)
    probe = ProbeField(G_mu=0.1, k_mu=30.0, theta=0.0)
    comps = weak_doublet_components(scheme, drive, probe, ens)
    raman = comps[1]
    a = scheme.gamma_l + scheme.gamma_n
    xs = np.linspace(600.0 - 10 * a, 600.0 + 10 * a, 201)
    pref = abs(drive.G * probe.G_mu) ** 2 / drive.Omega**2
    lorentz = (pref / scheme.gamma_n) * a / (a * a + (xs - 600.0) ** 2)
    dev = float(np.max(np.abs(raman.density(xs) - lorentz) / lorentz))
    ok = raman.doppler_scale == 0.0 and dev <= 0.01
    verdict(6, ok,
            f"matched forward observation collapses the correlated component "
            f"to its natural Lorentzian: deviation {dev:.2e} <= 1% over "
            f"+-10 half-widths")


def test_criterion_07_areas_direction_independent():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
    ens = ThermalEnsemble(vbar=1.0)
    drive = DriveField(G=1.0, Omega=600.0, k=25.0)
    areas = {"stepwise": [], "raman": []}
    for theta in (0.0, math.pi / 2, math.pi):
        probe = ProbeField(G_mu=0.1, k_mu=22.0, theta=theta)
        for c in weak_doublet_components(scheme, drive, probe, ens):
            win = (c.center - 250.0, c.center + 250.0)
            areas[c.label].append(
                integrated_intensity(c.density, win, find_peak(c.density, *win), 0.0))
    spreads = {label: max(v) / min(v) - 1.0 for label, v in areas.items()}
    worst = max(spreads.values())
    verdict(7, worst <= 0.005,
            f"component areas independent of observation direction: worst "
            f"spread across three angles {worst * 100:.3f}% <= 0.5%")


def test_criterion_08_strong_drive_doublet():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=1.0, gamma_l=0.5)
    ens = ThermalEnsemble(vbar=1.0)
    drive = DriveField(G=30.0, Omega=5.0, k=4.0)
    pair = dressed_exponents(scheme, drive)
    M1, M2 = memory_factors(drive)
    split_expect = math.hypot(5.0, 60.0)

    centers = []
    width_dev = 0.0
    for M_match, j in ((M1, 0), (M2, 1)):
        probe = ProbeField(G_mu=0.1, k_mu=M_match * drive.k, theta=0.0)
        comps = strong_doublet_components(scheme, drive, probe, ens)
        c = comps[j]
        assert c.doppler_scale <= 1e-12
        lo, hi = c.center - 20.0, c.center + 20.0
        peak = find_peak(c.density, lo, hi)
        w = fwhm(c.density, lo, hi, peak)
        expect = 2.0 * (scheme.gamma_l + (pair.alpha1 if j == 0 else pair.alpha2).real)
        width_dev = max(width_dev, abs(w - expect) / expect)
        centers.append(peak[0])
    sep = abs(centers[1] - centers[0])
    sep_ok = abs(sep - split_expect) / split_expect <= 1e-3

    probe = ProbeField(G_mu=0.1, k_mu=3.0, theta=0.0)
    comps = strong_doublet_components(scheme, drive, probe, ens)
    d = _pole_distance([c.natural_halfwidth for c in comps],
                       [c.doppler_scale for c in comps])
    quad_dev = 0.0
    for x in (pair.alpha1.imag, pair.alpha1.imag + 2.0, pair.alpha2.imag,
              pair.alpha2.imag - 2.0, 0.0):
        ref = velocity_average(_lorentzian_sum(comps, x), ens,
                               drive.k, probe.k_mu, probe.theta, pole_distance=d)
        closed = float(doppler_strong_doublet(scheme, drive, probe, ens, x))
        quad_dev = max(quad_dev, abs(closed - ref) / abs(ref))

    ok = width_dev <= 0.01 and sep_ok and quad_dev <= 1e-6
    verdict(8, ok,
            f"strong-drive doublet: measured splitting {sep:.3f} vs "
            f"{split_expect:.3f}, matched-direction FWHM deviation "
            f"{width_dev * 100:.3f}% <= 1%, closed form vs trapezoidal quadrature "
            f"{quad_dev:.2e} <= 1e-6")


def test_criterion_09_fluorescence_triplet():
    scheme = LevelScheme(gamma_m=0.5, gamma_n=0.5, gamma_l=0.5)
    ens = ThermalEnsemble(vbar=1.0)
    Gamma = scheme.gamma_sum
    G = 300.0
    drive = DriveField(G=G, Omega=0.0, k=8.0)
    theta = 0.05 * Gamma / (drive.k * ens.vbar)  # inside the dispersion cone
    probe = ProbeField(G_mu=0.1, k_mu=8.0, theta=theta)

    def density(x):
        return fluorescence_triplet(scheme, drive, probe, ens, x)

    peak_dev = 0.0
    for c in (-2 * G, 0.0, 2 * G):
        x0, _ = find_peak(density, c - 150.0, c + 150.0)
        peak_dev = max(peak_dev, abs(x0 - c))

    areas = [integrated_intensity(density, win, find_peak(density, *win), 0.0)
             for win in ((-3 * G, -G), (-G, G), (G, 3 * G))]
    ratio_dev = max(abs(areas[1] / areas[0] - 2.0) / 2.0,
                    abs(areas[1] / areas[2] - 2.0) / 2.0,
                    abs(areas[0] / areas[2] - 1.0))

    lo, hi = -6 * Gamma, 6 * Gamma
    width = fwhm(density, lo, hi, find_peak(density, lo, hi))
    width_dev = abs(width - 2 * Gamma) / (2 * Gamma)

    ok = peak_dev <= 0.05 and ratio_dev <= 0.005 and width_dev <= 0.01
    verdict(9, ok,
            f"fluorescence triplet: peaks within {peak_dev:.3f} of 0, +-2G; "
            f"area pattern 1:2:1 off by {ratio_dev * 100:.2f}% <= 0.5%; "
            f"central width in the small-angle cone off by "
            f"{width_dev * 100:.2f}% <= 1%")


def test_criterion_10_scaled_complement_function():
    import mpmath
    rng = np.random.default_rng(1010)
    re_edges = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0]
    im_edges = [-100.0, -50.0, -20.0, -5.0, -1.0, 0.0, 1.0, 5.0, 20.0, 50.0, 100.0]
    worst = 0.0
    n = 0
    with mpmath.workdps(50):
        for rlo, rhi in zip(re_edges[:-1], re_edges[1:]):
            for ilo, ihi in zip(im_edges[:-1], im_edges[1:]):
                for _ in range(10):
                    z = complex(rng.uniform(rlo, rhi), rng.uniform(ilo, ihi))
                    got = wofz(1j * z)  # erfcx(z) = w(iz)
                    ref = complex(mpmath.erfc(z) * mpmath.exp(z * z))
                    worst = max(worst, abs(got - ref) / abs(ref))
                    n += 1
    ok = worst <= 1e-10 and n == 1000
    verdict(10, ok,
            f"scaled complementary error function vs 50-digit arithmetic on "
            f"{n} stratified right-half-plane points, worst relative "
            f"deviation {worst:.2e} <= 1e-10")


def test_criterion_11_two_quantum_narrowing():
    scheme = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
    ens = ThermalEnsemble(vbar=1.0)
    drive = DriveField(G=40.0, Omega=10.0, k=800.0)
    kind = ProcessKind.TWO_QUANTUM_LUMINESCENCE
    signed_drive = DriveField(G=40.0, Omega=-10.0, k=800.0)
    M1, M2 = memory_factors(signed_drive)

    def comp_fwhms(theta):
        probe = ProbeField(G_mu=0.1, k_mu=600.0, theta=theta)
        comps = strong_doublet_components(scheme, drive, probe, ens, kind)
        out = []
        for c in comps:
            span = 6 * max(c.doppler_scale, 10 * c.natural_halfwidth)
            lo, hi = c.center - span, c.center + span
            out.append(fwhm(c.density, lo, hi, find_peak(c.density, lo, hi)))
        return out

    by_theta = {t: comp_fwhms(t) for t in
                (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)}
    narrowest_at_pi = all(
        min(by_theta[t][j] for t in by_theta) == by_theta[math.pi][j]
        for j in range(2))

    width_dev = 0.0
    for j, M in enumerate((M1, M2)):
        expect = TWO_SQRT_LN2 * abs(600.0 - M * 800.0) * ens.vbar
        width_dev = max(width_dev, abs(by_theta[math.pi][j] - expect) / expect)

    # backward two-quantum line equals the reference process observed
    # forward with the drive detuning reversed
    probe_b = ProbeField(G_mu=0.1, k_mu=600.0, theta=math.pi)
    probe_f = ProbeField(G_mu=0.1, k_mu=600.0, theta=0.0)
    xs = np.linspace(-300.0, 300.0, 41)
    tq = np.asarray(doppler_strong_doublet(scheme, drive, probe_b, ens, xs, kind))
    ref = np.asarray(doppler_strong_doublet(scheme, signed_drive, probe_f, ens, xs))
    mirror_ok = np.allclose(tq, ref, rtol=1e-12)

    ok = narrowest_at_pi and width_dev <= 0.02 and mirror_ok
    verdict(11, ok,
            f"two-quantum doublet narrows backward: minimum FWHM at theta=pi "
            f"for both components, widths within {width_dev * 100:.2f}% <= 2% "
            f"of the residual-wavevector prediction, forward/backward mirror "
            f"identity holds")


def test_criterion_12_cli_golden_outputs(tmp_path):
    mismatches, regenerate = [], []
    for job, stem, outputs in (
        ("spectrum", "spectrum_golden", ("spectrum_golden.csv",
                                         "spectrum_golden_summary.json")),
        ("scan", "scan_golden", ("scan_golden_scan.csv", "scan_golden_scan.json")),
    ):
        cfg = GOLDEN / f"{stem}.json"
        code = cli_main([job, "--config", str(cfg), "--out", str(tmp_path)])
        if code != 0:
            mismatches.append(f"{job} exit {code}")
            continue
        moved = [name for name in outputs
                 if (tmp_path / name).read_bytes() != (GOLDEN / name).read_bytes()]
        mismatches += moved
        if moved:
            regenerate.append(f"python -m dresslines.cli {job} "
                              f"--config tests/golden/{stem}.json --out tests/golden")
    ok = not mismatches
    verdict(12, ok,
            "command line reruns reproduce the committed golden outputs "
            "byte for byte" + ("" if ok else
                               f" (mismatch: {mismatches}; if the change is intended, "
                               f"regenerate with: {'; '.join(regenerate)})"))


def test_golden_summary_is_valid_json():
    # guard the committed artifacts themselves
    data = json.loads((GOLDEN / "spectrum_golden_summary.json").read_text())
    assert data["schema_version"] == 1
    assert data["job"] == "spectrum"
