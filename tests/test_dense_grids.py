"""The closed forms on every shape faddeeva.elementwise meets.

Every shape takes the block path, in blocks of at most faddeeva._BLOCK
points, a 0-d array as one block of one point.  Every element must equal
its own float call bit for bit at one point, on each side of the block
edges, and at 63 and 64 points (ids scalar_max-1 and scalar_max), the edge
of the element-by-element tier the driver once had.  A 0-d call returns a
Python number, the bits of its one-element array call.  A 2^20-point call
may allocate little beyond its output.
"""

import tracemalloc

import numpy as np
import pytest

from dresslines import (
    DriveField,
    LevelScheme,
    ProbeField,
    ThermalEnsemble,
    doppler_strong_doublet,
    doppler_weak_doublet,
    fluorescence_triplet,
    voigt_density,
    w_mu_exact,
    w_mu_weak,
    weak_doublet_gaussian,
    wofz,
)
from dresslines.doppler import (
    DopplerComponent,
    density_sum,
    strong_doublet_components,
    triplet_components,
)
from dresslines.faddeeva import _BLOCK

SCHEME = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
DRIVE = DriveField(G=3.0, Omega=4.0, k=2.0)
WEAK_DRIVE = DriveField(G=0.01, Omega=4.0, k=2.0)
PROBE = ProbeField(G_mu=1.0, k_mu=2.5, theta=0.3)
ENSEMBLE = ThermalEnsemble(vbar=1.0)
# Doppler scales of 25 and about 8, both nonzero, for the pure-Gaussian form
HOT = ThermalEnsemble(vbar=10.0)

LORENTZIAN = [DopplerComponent(label="c", center=1.5, natural_halfwidth=0.7,
                               doppler_scale=0.0, weight=2.0, memory=0.0)]
# one (halfwidth, scale) pair per row, the first a Lorentzian
ROW_HALFWIDTHS = np.array([0.3, 1.1, 2.5])
ROW_SCALES = np.array([0.0, 0.8, 4.0])


def rows(x):
    """x as rows of its last axis, and the row of each parameter pair."""
    r = np.reshape(x, (-1, x.shape[-1] if x.ndim else 1))
    return r, np.arange(len(r))[:, None] % len(ROW_HALFWIDTHS)


def voigt_rows(x):
    """voigt_density with (k, 1) parameters against x as a (k, n) detuning;
    a 0-d x, one (1, 1) call, gives its one value."""
    r, pick = rows(x)
    out = voigt_density(ROW_HALFWIDTHS[pick], r, ROW_SCALES[pick])
    return out.reshape(x.shape) if x.ndim else out.item()


def voigt_rows_floats(x):
    r, pick = rows(x)
    return [voigt_density(ROW_HALFWIDTHS[i], v, ROW_SCALES[i])
            for row, (i,) in zip(r.tolist(), pick.tolist()) for v in row]


def wofz_form(x):
    """w at x/6 + i*(x/60)**2: the rational, near-axis and asymptotic forms."""
    t = x / 60.0
    return wofz(x / 6.0 + 1j * (t * t))

FORMS = {
    "w_mu_exact": lambda x: w_mu_exact(SCHEME, DRIVE, PROBE, x),
    "w_mu_weak": lambda x: w_mu_weak(SCHEME, WEAK_DRIVE, PROBE, x)[0],
    "density_sum_k1": lambda x: density_sum(LORENTZIAN, x),
    "density_sum_k2": lambda x: density_sum(
        strong_doublet_components(SCHEME, DRIVE, PROBE, ENSEMBLE), x),
    "density_sum_k3": lambda x: density_sum(
        triplet_components(SCHEME, DRIVE, PROBE, ENSEMBLE), x),
    "voigt_density": lambda x: voigt_density(0.7, x, 1.3),
    "voigt_density_rows": voigt_rows,
    "wofz": wofz_form,
    "weak_doublet_gaussian": lambda x: weak_doublet_gaussian(SCHEME, DRIVE, PROBE, HOT, x),
}
# each element's own float call, where it is not the form at that float
FLOAT_CALLS = {"voigt_density_rows": voigt_rows_floats}


@pytest.mark.parametrize("shape", [(), (1,), (63,), (64,),
                                   (_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,),
                                   (3 * _BLOCK + 5,), (3, _BLOCK + 1)],
                         ids=["0-d", "one", "scalar_max-1", "scalar_max", "block-1", "block",
                              "block+1", "3block+5", "3x(block+1)"])
@pytest.mark.parametrize("form", FORMS)
def test_array_equals_its_float_calls_at_the_block_edges(form, shape):
    f = FORMS[form]
    x = np.random.default_rng(len(shape) * shape[-1] if shape else 0).uniform(-60.0, 60.0, shape)
    got = f(x)
    floats = FLOAT_CALLS.get(form, lambda x: [f(v) for v in x.ravel().tolist()])(x)
    if shape:
        assert got.shape == x.shape
        assert got.ravel().tolist() == floats
    else:  # a 0-d array returns what its float call returns
        assert type(got) is type(floats[0]) and got == floats[0]


DENSE = {
    "w_mu_exact": FORMS["w_mu_exact"],
    "w_mu_weak": FORMS["w_mu_weak"],
    "doppler_weak_doublet": lambda x: doppler_weak_doublet(SCHEME, DRIVE, PROBE, ENSEMBLE, x),
    "doppler_strong_doublet": lambda x: doppler_strong_doublet(SCHEME, DRIVE, PROBE, ENSEMBLE, x),
    "fluorescence_triplet": lambda x: fluorescence_triplet(SCHEME, DRIVE, PROBE, ENSEMBLE, x),
    "weak_doublet_gaussian": FORMS["weak_doublet_gaussian"],
}


# every public form at a float, np.float64 and 0-d array argument; wofz_form's
# imaginary part overflows at the two extremes, so wofz takes the first three
PUBLIC = {name: f for name, f in {**FORMS, **DENSE}.items() if name != "voigt_density_rows"}
ZERO_D = [(form, v) for form in PUBLIC for v in (0.0, -7.3, 41.5, 1e160, -1e200)
          if form != "wofz" or abs(v) < 1e3]


@pytest.mark.parametrize("form,v", ZERO_D)
def test_a_0d_call_is_its_one_element_array_call(form, v):
    f = PUBLIC[form]
    one = f(np.array([v]))
    for arg in (v, np.float64(v), np.array(v)):
        got = f(arg)
        assert type(got) is (complex if form == "wofz" else float)
        assert np.array([got]).tobytes() == one.tobytes()


@pytest.mark.parametrize("form", DENSE)
def test_a_dense_grid_allocates_little_beyond_its_output(form):
    x = np.linspace(-50.0, 50.0, 2**20)
    tracemalloc.start()
    try:
        out = DENSE[form](x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * 2**20, f"{peak / 2**20:.1f} MiB"
