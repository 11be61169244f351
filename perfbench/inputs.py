"""Seeded input generation for the four workloads.

Every workload runs a fixed cycle of task slots (job, stratum, format or
tier); the seed only draws the numbers inside each slot.  So the mix of
task kinds, and with it the cost profile of a run, is the same for every
seed, and the spread between seeds is the spread of the parameters within
a stratum.  Nothing here imports the program: dressed exponents, memory
factors and effective wave vectors are recomputed from their definitions.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("cli-cold", "line-survey", "dense-grid", "certify")

JOBS = ("spectrum", "doppler", "doublet", "triplet", "scan")
KINDS = ("raman_upper_intermediate", "two_quantum_luminescence",
         "two_quantum_absorption", "raman_lower_intermediate")
KIND_SIGNS = {"raman_upper_intermediate": (1, 1), "two_quantum_luminescence": (-1, 1),
              "two_quantum_absorption": (1, -1), "raman_lower_intermediate": (-1, -1)}
FORMATS = ("csv", "json", "both")
SURVEY_GRID = 601

DENSE_FUNCS = ("w_mu_exact", "w_mu_weak", "doppler_weak_doublet",
               "doppler_strong_doublet", "fluorescence_triplet")
DENSE_SIZES = (2**18, 2**19, 2**20)
DENSE_HALF_SPAN = 60.0

# Tolerances the test suite certifies each closed form at.
CERTIFY_TOL = {"eq2_6": 1e-6, "eq2_7": 1e-4, "eq3_2": 1e-8,
               "eq3_3": 1e-2, "eq4_2": 1e-6, "eq5_2": 1e-8}
# Pole-distance bands of the oracle's Gauss-Hermite order table, kept
# inside each band so rounding cannot move a set into the next tier.
NODE_TIERS = {600: (0.55, 0.95), 1200: (0.32, 0.48), 2500: (0.21, 0.29), 4200: (0.155, 0.195)}
# (id, node tier, detunings, two-dimensional velocity average).  Sorted by
# cost the 19 slots form three blocks: eight under 75 ms, four 1200-node
# sets with four detunings near 110-130 ms, and seven of 0.17-0.75 s.  The
# median falls inside the middle block and p75 inside the 2500-node sets,
# not on the edge between two blocks, where a small change in speed would
# jump between them.  Both blocks are numpy-bound Gauss-Hermite sums; the
# Python-bound ODE slots slow down more under contention from other
# processes, so they are kept away from those two ranks.  The price is that
# task_ms_p50 and task_ms_tail on certify do not see the ODE (eq2_6/eq2_7):
# a change there shows in tasks_per_s only.
CERTIFY_CYCLE = (
    ("eq2_6", None, 33, False),
    ("eq2_7", None, 17, False),
    ("eq3_3", None, 21, True),
    ("eq3_2", 600, 3, True), ("eq3_2", 1200, 2, True),
    ("eq3_2", 1200, 4, True), ("eq3_2", 1200, 4, True),
    ("eq3_2", 2500, 1, True), ("eq3_2", 4200, 1, True),
    ("eq4_2", 600, 3, True), ("eq4_2", 1200, 2, True),
    ("eq4_2", 1200, 4, True), ("eq4_2", 1200, 4, True),
    ("eq4_2", 2500, 1, True), ("eq4_2", 4200, 1, True),
    ("eq5_2", 600, 2, True), ("eq5_2", 1200, 1, True),
    ("eq5_2", 2500, 1, True),
    # the 2-D triplet sum at 4200 nodes costs about 3 s per detuning
    ("eq5_2", 4200, 3, False),
)


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def dressed_alphas(gm, gn, G, Omega):
    """Roots of a^2 - (Gamma + i Omega) a + gm (gn + i Omega) + G^2 = 0."""
    b = gm + gn + 1j * Omega
    c = gm * (gn + 1j * Omega) + G * G
    r = np.sqrt(complex(b * b - 4.0 * c))
    a1, a2 = 0.5 * (b + r), 0.5 * (b - r)
    return (a1, a2) if a1.imag >= a2.imag else (a2, a1)


def memory(G, Omega):
    r = math.hypot(Omega, 2.0 * G)
    return 0.5 * (1.0 + Omega / r), 0.5 * (1.0 - Omega / r)


def q_eff(k, k_mu, theta, M):
    return math.sqrt((k_mu - M * k) ** 2 + 4.0 * M * k * k_mu * math.sin(theta / 2.0) ** 2)


def _scheme(rng):
    return {"gamma_m": float(rng.uniform(0.5, 1.5)), "gamma_n": float(rng.uniform(1.7, 3.0)),
            "gamma_l": float(rng.uniform(0.2, 0.8))}


def _theta(rng, stratum):
    """Observation angle inside one of four quarter-range bins."""
    return float((stratum % 4 + rng.uniform(0.05, 0.95)) * math.pi / 4)


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _base(job, label, scheme, drive, probe, kind=None, ensemble=True):
    cfg = {"schema_version": 1, "job": job, "label": label,
           "scheme": scheme, "drive": drive, "probe": probe}
    if kind is not None:
        cfg["kind"] = kind
    if ensemble:
        cfg["ensemble"] = {"vbar": 1.0}
    return cfg


def _grid(lo, hi):
    return {"min": float(lo), "max": float(hi), "count": SURVEY_GRID}


def spectrum_params(rng, resolved: bool):
    """Scheme and drive whose doublet is clearly resolved, or clearly not.

    Resolved means the center splitting exceeds four times the sum of the
    emission half-widths, so that interference and the neighbour's tail
    move each measured peak by well under a quarter half-width; unresolved
    means it stays below 0.8 of that sum.  Sets within 5% of the confluent
    point are redrawn.
    """
    while True:
        sch = _scheme(rng)
        gm, gn, gl = sch["gamma_m"], sch["gamma_n"], sch["gamma_l"]
        Gam = gm + gn
        if resolved:
            G = Gam * _log_uniform(rng, 0.5, 20.0)
            Om = Gam * float(rng.uniform(-3.0, 3.0))
        else:
            G = Gam * _log_uniform(rng, 0.1, 0.5)
            Om = Gam * float(rng.uniform(-0.4, 0.4))
        a1, a2 = dressed_alphas(gm, gn, G, Om)
        if abs(a1 - a2) < 0.05 * Gam:
            continue
        sep = abs(a1.imag - a2.imag)
        widths = a1.real + a2.real + 2.0 * gl
        if (resolved and sep > 4.0 * widths) or (not resolved and sep < 0.8 * widths):
            return sch, G, Om, (a1, a2)


def survey_config(rng, job: str, stratum: int, label: str) -> dict:
    """One CLI job config; `stratum` picks the kind, angle bin and doublet regime."""
    kind = KINDS[stratum % 4]
    s, s_mu = KIND_SIGNS[kind]
    theta = _theta(rng, stratum + JOBS.index(job))
    if job == "spectrum":
        sch, G, Om, (a1, a2) = spectrum_params(rng, resolved=stratum % 2 == 0)
        sa1, sa2 = dressed_alphas(sch["gamma_m"], sch["gamma_n"], G, s * Om)
        centers = sorted((s_mu * sa1.imag, s_mu * sa2.imag))
        w = sch["gamma_l"] + max(sa1.real, sa2.real)
        cfg = _base(job, label, sch, {"G": G, "Omega": Om}, {"G_mu": 1e-3}, kind, ensemble=False)
        cfg["grid"] = _grid(centers[0] - 12.0 * w * rng.uniform(0.8, 1.2),
                            centers[1] + 12.0 * w * rng.uniform(0.8, 1.2))
        return cfg

    sch = _scheme(rng)
    gm, gn, gl = sch["gamma_m"], sch["gamma_n"], sch["gamma_l"]
    Gam = gm + gn
    if job in ("doppler", "scan") and (job == "doppler" or stratum % 2 == 0):
        # weak-drive doublet: stepwise line at 0, Raman line at the detuning
        G = Gam * _log_uniform(rng, 0.1, 1.0)
        k = Gam * float(rng.uniform(0.5, 3.0))
        k_mu = k * float(rng.uniform(0.6, 1.4))
        reach = max(gl + gm + k_mu, gl + gn + k + k_mu)
        Om = reach * float(rng.uniform(8.0, 14.0)) * (1 if rng.uniform() < 0.5 else -1)
        centers = (0.0, s_mu * s * Om)
        family = "weak"
    elif job == "triplet":
        G = Gam * _log_uniform(rng, 5.0, 20.0)
        Om = Gam * float(rng.uniform(-1.0, 1.0))
        room = 2.0 * G / 8.0 - Gam
        k = room * float(rng.uniform(0.2, 0.5))
        k_mu = k * float(rng.uniform(0.6, 1.4))
        reach = Gam + k + k_mu
        centers = (Om - 2.0 * G, Om + 2.0 * G)
        family = None
    else:
        # strong-drive doublet, Doppler scales small enough to keep it apart
        while True:
            G = Gam * _log_uniform(rng, 1.0, 20.0)
            Om = Gam * float(rng.uniform(-3.0, 3.0))
            a1, a2 = dressed_alphas(gm, gn, G, s * Om)
            room = abs(a1.imag - a2.imag) / 8.0 - (gl + max(a1.real, a2.real))
            if room > 0.2 * Gam:
                break
        k = room * float(rng.uniform(0.2, 0.5))
        k_mu = k * float(rng.uniform(0.6, 1.4))
        reach = gl + max(a1.real, a2.real) + k + k_mu
        centers = (s_mu * a1.imag, s_mu * a2.imag)
        family = "strong"

    probe = {"G_mu": 1e-3, "k_mu": k_mu, "theta": theta}
    drive = {"G": G, "Omega": Om, "k": k}
    if job == "scan":
        cfg = _base(job, label, sch, drive, {"G_mu": 1e-3, "k_mu": k_mu}, kind)
        cfg["thetas"] = sorted(float(t) for t in rng.uniform(0.0, math.pi, 4))
        cfg["scan_family"] = family
        return cfg
    cfg = _base(job, label, sch, drive, probe, None if job == "triplet" else kind)
    cfg["grid"] = _grid(min(centers) - 10.0 * reach * rng.uniform(0.8, 1.2),
                        max(centers) + 10.0 * reach * rng.uniform(0.8, 1.2))
    return cfg


def survey_cycle():
    """Slots of one line-survey cycle: (job, stratum, format)."""
    return [(job, stratum, FORMATS[(4 * stratum + j) % 3])
            for stratum in range(4) for j, job in enumerate(JOBS)]


def dense_cycle():
    """Slots of one dense-grid cycle: (function, grid size)."""
    return [(fn, n) for n in DENSE_SIZES for fn in DENSE_FUNCS]


def dense_params(rng, fn: str) -> dict:
    """Flat parameter set for one dense-grid call; features lie inside the grid."""
    kind = KINDS[int(rng.integers(4))]
    while True:
        sch = _scheme(rng)
        gm, gn = sch["gamma_m"], sch["gamma_n"]
        Gam = gm + gn
        if fn == "w_mu_weak":
            Om = Gam * float(rng.uniform(1.0, 8.0)) * (1 if rng.uniform() < 0.5 else -1)
            # deep in the weak-drive regime, where the expansion's error stays
            # well below the gate's 1e-3 of the peak
            G = abs(complex(Om, gm - gn)) * float(rng.uniform(0.0005, 0.002))
        elif fn == "fluorescence_triplet":
            G = Gam * _log_uniform(rng, 2.0, 8.0)
            Om = Gam * float(rng.uniform(-1.0, 1.0))
        elif fn == "doppler_weak_doublet":
            G = Gam * _log_uniform(rng, 0.1, 1.0)
            Om = Gam * float(rng.uniform(1.0, 8.0)) * (1 if rng.uniform() < 0.5 else -1)
        else:
            G = Gam * _log_uniform(rng, 0.1, 8.0)
            Om = Gam * float(rng.uniform(-5.0, 5.0))
        a1, a2 = dressed_alphas(gm, gn, G, Om)
        if abs(a1 - a2) >= 0.05 * Gam:
            break
    k = Gam * float(rng.uniform(0.3, 2.0))
    return {**sch, "G": G, "Omega": Om, "k": k, "G_mu": 1e-3,
            "k_mu": k * float(rng.uniform(0.6, 1.4)),
            "theta": float(rng.uniform(0.0, math.pi)), "vbar": 1.0, "kind": kind}


def _pole_scale(rng, widths, qs, tier):
    """Common wave-vector scale putting min(width)/max(Doppler scale) in a tier."""
    lo, hi = NODE_TIERS[tier]
    d = float(rng.uniform(lo, hi))
    return min(widths) / (d * max(qs))


def certify_params(rng, cid: str, tier, count: int, two_d: bool) -> dict:
    """Parameter set for one certify task at its stated tolerance and node tier."""
    sch = _scheme(rng)
    if cid in ("eq2_6", "eq2_7"):
        # The ODE's cost scales with its horizon (40/gamma_l) and with the
        # fastest beat on the detuning grid, so the ranges are kept narrow
        # and the grid fixed; the cost per task then varies little by seed.
        sch = {"gamma_m": float(rng.uniform(0.9, 1.1)), "gamma_n": float(rng.uniform(1.9, 2.1)),
               "gamma_l": float(rng.uniform(0.48, 0.52))}
    gm, gn, gl = sch["gamma_m"], sch["gamma_n"], sch["gamma_l"]
    Gam = gm + gn
    p = dict(sch, omega_mu_count=count, G_mu=0.1)
    if cid in ("eq2_6", "eq2_7"):
        Om = Gam * float(rng.uniform(1.8, 2.2)) * (1 if rng.uniform() < 0.5 else -1)
        if cid == "eq2_7":
            # the regime gate allows G/|Omega - i(gn-gm)| <= 0.01, but the
            # peak-relative error grows with that ratio and reaches the
            # 1e-4 tolerance near 0.003
            G = abs(complex(Om, gm - gn)) * float(rng.uniform(0.0005, 0.002))
        else:
            G = Gam * float(rng.uniform(0.5, 1.5))
        return dict(p, G=G, Omega=Om, omega_mu_min=-25.0, omega_mu_max=25.0)

    theta = float(rng.uniform(0.15, math.pi - 0.15)) if two_d else 0.0
    rho = float(rng.uniform(0.6, 1.4))          # k_mu / k
    if cid == "eq3_3":
        # Doppler scales at least 200x the natural widths: the Gaussian regime
        G = Gam * _log_uniform(rng, 0.1, 1.0)
        k = 200.0 * (gl + gn) / min(rho, q_eff(1.0, rho, theta, 1.0)) * float(rng.uniform(1.0, 2.0))
        Om = 12.0 * k * (1.0 + rho) * (1 if rng.uniform() < 0.5 else -1)
        reach = 4.0 * k * (1.0 + rho)
        lo, hi = min(0.0, Om) - reach, max(0.0, Om) + reach
    elif cid == "eq3_2":
        G = Gam * _log_uniform(rng, 0.1, 1.0)
        k = _pole_scale(rng, (gl + gm, gl + gn), (rho, q_eff(1.0, rho, theta, 1.0)), tier)
        Om = 8.0 * (gl + gn + k * (1.0 + rho)) * (1 if rng.uniform() < 0.5 else -1)
        lo, hi = (0.0, 0.0) if count == 1 else (min(0.0, Om), max(0.0, Om))
    elif cid == "eq4_2":
        while True:
            G = Gam * _log_uniform(rng, 0.5, 5.0)
            Om = Gam * float(rng.uniform(-3.0, 3.0))
            a1, a2 = dressed_alphas(gm, gn, G, Om)
            if abs(a1 - a2) >= 0.05 * Gam:
                break
        M1, M2 = memory(G, Om)
        k = _pole_scale(rng, (gl + a1.real, gl + a2.real),
                        (q_eff(1.0, rho, theta, M1), q_eff(1.0, rho, theta, M2)), tier)
        lo, hi = sorted((a1.imag, a2.imag))
    else:  # eq5_2: the triplet limit needs G >= 10x |Omega|, Gamma and k*vbar
        Om = Gam * float(rng.uniform(-1.0, 1.0))
        k = _pole_scale(rng, (Gam,), (q_eff(1.0, rho, theta, 1.0),), tier)
        G = 10.0 * max(abs(Om), Gam, k) * float(rng.uniform(1.5, 4.0))
        lo, hi = Om - 2.0 * G, Om + 2.0 * G
    if count == 1:
        lo = hi = 0.5 * (lo + hi)
    return dict(p, G=G, Omega=Om, k=k, k_mu=rho * k, theta=theta, vbar=1.0,
                omega_mu_min=lo, omega_mu_max=hi if hi > lo else lo)
