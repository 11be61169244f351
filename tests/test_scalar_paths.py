"""Scalar detunings take a Python-float path that must match the array path.

The measurement layer's searches (find_peak, fwhm) call the densities one
detuning at a time, so voigt_density, DopplerComponent.density,
w_mu_exact and w_mu_weak evaluate a float argument in Python floats (and one
complex wofz argument).  These properties require the result to be a Python
float equal, bit for bit, to the same detuning evaluated through a
one-element array and through an array of 64 points, both of which take
the block path.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dresslines import DriveField, LevelScheme, ProbeField, w_mu_exact, w_mu_weak
from dresslines.doppler import DopplerComponent, voigt_density
from dresslines.dressed import dressed_exponents

PROPERTY = settings(max_examples=300, deadline=None, database=None)

magnitude = st.floats(min_value=1e-3, max_value=1e3)
signed = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))
doppler_scale = st.one_of(st.just(0.0), magnitude)


def scalar_equals_array(f, x):
    """f(x) for a float x is a Python float equal to f([x])[0] and to every
    element of f at 64 copies of x."""
    scalar = f(x)
    assert type(scalar) is float
    assert scalar == f(np.array([x]))[0]
    assert f(np.full(64, x)).tolist() == [scalar] * 64
    assert f(np.float64(x)) == scalar  # np.float64 counts as a float
    return scalar


@PROPERTY
@given(a=magnitude, x=signed, s=doppler_scale)
@example(a=1.0, x=0.0, s=0.0)
@example(a=1e-3, x=-1e3, s=1e3)
def test_voigt_density_scalar_path_is_bit_identical(a, x, s):
    scalar_equals_array(lambda v: voigt_density(a, v, s), x)


@PROPERTY
@given(center=signed, a=magnitude, s=doppler_scale, weight=magnitude, x=signed)
def test_component_density_scalar_path_is_bit_identical(center, a, s, weight, x):
    comp = DopplerComponent(label="c", center=center, natural_halfwidth=a,
                            doppler_scale=s, weight=weight, memory=0.0)
    scalar_equals_array(comp.density, x)


@PROPERTY
@given(gm=magnitude, gn=magnitude, gl=magnitude,
       G=st.one_of(st.just(0.0), magnitude), Omega=signed, x=signed)
@example(gm=1.0, gn=3.0, gl=2.0, G=1.0, Omega=0.0, x=0.0)     # confluent, at the probe pole
@example(gm=1.375, gn=0.5, gl=1.0, G=1.0, Omega=0.0, x=1.001)  # Python and numpy complex products round apart
def test_w_mu_exact_scalar_path_is_bit_identical(gm, gn, gl, G, Omega, x):
    scheme = LevelScheme(gamma_m=gm, gamma_n=gn, gamma_l=gl)
    drive = DriveField(G=G, Omega=Omega)
    probe = ProbeField(G_mu=0.1)
    scalar_equals_array(lambda v: w_mu_exact(scheme, drive, probe, v), x)


@PROPERTY
@given(gm=magnitude, gn=magnitude, gl=magnitude, G=magnitude, Omega=signed, x=signed)
def test_w_mu_weak_scalar_path_is_bit_identical(gm, gn, gl, G, Omega, x):
    assume(gm != gn or Omega != 0.0)  # the form's one singular point
    scheme = LevelScheme(gamma_m=gm, gamma_n=gn, gamma_l=gl)
    drive = DriveField(G=G, Omega=Omega)
    probe = ProbeField(G_mu=0.1)
    scalar_equals_array(lambda v: w_mu_weak(scheme, drive, probe, v)[0], x)


def test_confluent_pair_keeps_its_branch_on_the_scalar_path():
    # Omega = 0 with |gamma_n - gamma_m| = 2G collapses the dressed exponents;
    # the density has no branch there and stays finite and positive.
    scheme = LevelScheme(gamma_m=1.0, gamma_n=3.0, gamma_l=0.5)
    drive = DriveField(G=1.0, Omega=0.0)
    assert dressed_exponents(scheme, drive).is_degenerate
    probe = ProbeField(G_mu=0.1)
    for x in (-2.5, 0.0, 0.75):
        w = scalar_equals_array(lambda v: w_mu_exact(scheme, drive, probe, v), x)
        assert np.isfinite(w) and w > 0


@pytest.mark.parametrize("a", [0.0, -1.0])
@pytest.mark.parametrize("x", [0.5, np.float64(0.5), np.array([0.5])],
                         ids=["float", "float64", "array"])
def test_nonpositive_halfwidth_is_rejected_on_both_paths(a, x):
    with pytest.raises(ValueError, match="natural_halfwidth must be > 0"):
        voigt_density(a, x, 1.0)
    comp = DopplerComponent(label="c", center=0.0, natural_halfwidth=a,
                            doppler_scale=0.0, weight=1.0, memory=0.0)
    with pytest.raises(ValueError, match="natural_halfwidth must be > 0"):
        comp.density(x)
