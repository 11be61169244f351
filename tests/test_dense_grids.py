"""The dense closed forms on arrays larger than one block.

w_mu_exact, w_mu_weak and density_sum fill an array of more than
faddeeva._BLOCK points block by block.  Every element must equal its own
float call bit for bit at the block edges, and a 2^20-point call may
allocate little beyond its output.
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
    w_mu_exact,
    w_mu_weak,
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

LORENTZIAN = [DopplerComponent(label="c", center=1.5, natural_halfwidth=0.7,
                               doppler_scale=0.0, weight=2.0, memory=0.0)]
FORMS = {
    "w_mu_exact": lambda x: w_mu_exact(SCHEME, DRIVE, PROBE, x),
    "w_mu_weak": lambda x: w_mu_weak(SCHEME, WEAK_DRIVE, PROBE, x)[0],
    "density_sum_k1": lambda x: density_sum(LORENTZIAN, x),
    "density_sum_k2": lambda x: density_sum(
        strong_doublet_components(SCHEME, DRIVE, PROBE, ENSEMBLE), x),
    "density_sum_k3": lambda x: density_sum(
        triplet_components(SCHEME, DRIVE, PROBE, ENSEMBLE), x),
}


@pytest.mark.parametrize("shape", [(_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,),
                                   (3 * _BLOCK + 5,), (3, _BLOCK + 1)],
                         ids=["block-1", "block", "block+1", "3block+5", "3x(block+1)"])
@pytest.mark.parametrize("form", FORMS)
def test_array_equals_its_float_calls_at_the_block_edges(form, shape):
    f = FORMS[form]
    x = np.random.default_rng(len(shape) * shape[-1]).uniform(-60.0, 60.0, shape)
    got = f(x)
    assert got.shape == x.shape
    assert got.ravel().tolist() == [f(v) for v in x.ravel().tolist()]


DENSE = {
    "w_mu_exact": FORMS["w_mu_exact"],
    "w_mu_weak": FORMS["w_mu_weak"],
    "doppler_weak_doublet": lambda x: doppler_weak_doublet(SCHEME, DRIVE, PROBE, ENSEMBLE, x),
    "doppler_strong_doublet": lambda x: doppler_strong_doublet(SCHEME, DRIVE, PROBE, ENSEMBLE, x),
    "fluorescence_triplet": lambda x: fluorescence_triplet(SCHEME, DRIVE, PROBE, ENSEMBLE, x),
}


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
