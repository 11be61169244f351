"""The package's Faddeeva function against scipy's, and its two paths.

scipy.special.wofz is kept here as a test-only reference, the way
test_measurement.py keeps scipy's brentq: the package itself imports no
scipy outside certify.  The module's stated accuracy is checked against
40-digit mpmath.  Every float and array evaluation must agree bit
for bit, so that a batched density_sum equals its per-element float calls.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import wofz as scipy_wofz

from dresslines import faddeeva, voigt_density, wofz
from dresslines.doppler import DopplerComponent, density_sum

PROPERTY = settings(max_examples=300, deadline=None, database=None)

x_range = st.floats(min_value=-200.0, max_value=200.0)


def log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


def relative(got, ref):
    return abs(got - ref) / abs(ref)


def test_coefficients_follow_weidemans_recipe():
    n = 40
    m = 2 * n
    L = math.sqrt(n / math.sqrt(2))
    t = L * np.tan(np.arange(-m + 1, m) * math.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (L * L + t * t)])
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    assert faddeeva._L == L
    np.testing.assert_allclose(faddeeva._P2, 2 * a[1:n + 1], rtol=0, atol=1e-16)


def mp_real_w(x, y):
    """Re w(x + iy) at 40 digits."""
    with mpmath.workdps(40):
        z = mpmath.mpc(x, y)
        return float((mpmath.exp(-z * z) * mpmath.erfc(-1j * z)).real)


def assert_real_part_within(x, y, bound):
    got = wofz(x + 1j * y).real
    for g, a, b in zip(got.tolist(), x.tolist(), y.tolist()):
        ref = mp_real_w(a, b)
        assert abs(g - ref) <= bound * abs(ref), (a, b, relative(g, ref))


# the module's stated bounds, Re w off the axis against 40 digits: 1e-11 in
# the rational form just above the switch to the Taylor series, 1e-3 <= y <=
# 1e-2 and |x| < 8, and 2e-13 in the Taylor and asymptotic forms
BAND = 1e-11
OTHER_FORMS = 2e-13


def test_real_part_at_the_worst_points_of_the_band_near_the_axis():
    x = np.array([-5.17286, -7.1913, 4.0, 5.0])
    y = np.array([0.00100852, 0.00164415, 0.0011, 0.01])
    assert_real_part_within(x, y, BAND)


def test_real_part_in_the_band_near_the_axis():
    rng = np.random.default_rng(1497)
    x = rng.uniform(-8.0, 8.0, 300)
    y = np.exp(rng.uniform(math.log(1e-3), math.log(1e-2), x.size))
    assert_real_part_within(x, y, BAND)


def test_real_part_in_the_taylor_and_asymptotic_forms():
    rng = np.random.default_rng(1994)
    near = (rng.uniform(-8.0, 8.0, 200), np.exp(rng.uniform(math.log(1e-6), math.log(1e-3), 200)))
    wing = (rng.choice([-1.0, 1.0], 200) * rng.uniform(8.0, 50.0, 200),
            np.exp(rng.uniform(math.log(1e-6), 0.0, 200)))
    far = (rng.uniform(-200.0, 200.0, 200), np.exp(rng.uniform(math.log(8.0), math.log(1e3), 200)))
    for x, y in (near, wing, far):
        assert_real_part_within(x, y, OTHER_FORMS)


@PROPERTY
@given(x=x_range, y=st.one_of(st.just(0.0), log_uniform(1e-12, 1e3)))
@example(x=8.0, y=0.0)
@example(x=7.99, y=1e-3)
def test_modulus_matches_scipy(x, y):
    assert relative(wofz(complex(x, y)), scipy_wofz(complex(x, y))) <= 1e-13


@PROPERTY
@given(x=x_range, y=log_uniform(1e-4, 1e3))
def test_real_part_matches_scipy(x, y):
    ref = scipy_wofz(complex(x, y)).real
    assert relative(wofz(complex(x, y)).real, ref) <= 1e-10


@PROPERTY
@given(x=x_range, y=log_uniform(1e-6, 1e-4))
@example(x=5.0, y=1e-6)   # Re w = exp(-x**2) + O(y), both terms tiny against |w|
def test_real_part_matches_scipy_near_the_axis(x, y):
    ref = scipy_wofz(complex(x, y)).real
    assert relative(wofz(complex(x, y)).real, ref) <= 5e-10


@PROPERTY
@given(x=st.lists(x_range, min_size=1, max_size=200),
       y=st.lists(st.one_of(st.just(0.0), log_uniform(1e-8, 1e3)), min_size=1, max_size=200))
def test_array_path_is_the_float_path(x, y):
    n = min(len(x), len(y))
    z = np.array(x[:n]) + 1j * np.array(y[:n])
    got = wofz(z)
    assert [complex(v) for v in got] == [wofz(complex(v)) for v in z]


def test_every_form_agrees_across_paths_over_several_blocks():
    rng = np.random.default_rng(11)
    x = rng.uniform(-12.0, 12.0, (2, faddeeva._BLOCK + 7))
    y = np.exp(rng.uniform(math.log(1e-9), math.log(20.0), x.shape))
    got = wofz(x + 1j * y)
    assert got.ravel().tolist() == [wofz(complex(a, b)) for a, b in zip(x.flat, y.flat)]


@pytest.mark.parametrize("z", [1e160 + 1j, -1e200 + 2j])
def test_w_where_z_squared_overflows(z):
    # |z|**2 is beyond the float range: w = i/(sqrt(pi) z) to rounding,
    # from 1/z taken with z scaled to unit size
    ref = 1j / z / math.sqrt(math.pi)
    for got in (wofz(z), *wofz(np.full(64, z)).tolist()):
        assert abs(got - ref) <= 1e-15 * abs(ref), (got, ref)


@pytest.mark.parametrize("z", [1e308 + 1e308j, -1.7e308 + 1.7e308j])
def test_w_where_the_parts_sum_beyond_the_float_range(z):
    # |x| + |y| overflows as well, so z is scaled by (|x| + |y|)/2; the
    # reference divides by z/2, since Python's complex division by z overflows
    ref = 1j / (z / 2) / 2 / math.sqrt(math.pi)
    for got in (wofz(z), *wofz(np.full(64, z)).tolist()):
        assert abs(got - ref) <= 1e-14 * abs(ref), (got, ref)


def test_real_part_on_the_axis_beyond_the_rational_form():
    # the asymptotic series gives Re w = 0 on the axis, where Re w = exp(-x**2)
    for got in (wofz(8.5), *wofz(np.full(64, 8.5 + 0j)).tolist()):
        assert got.real == np.exp(-72.25)


def test_wofz_keeps_shape_and_returns_complex_for_a_scalar():
    assert type(wofz(0.5 + 0.5j)) is complex
    assert wofz(np.zeros((2, 3)) + 1j).shape == (2, 3)
    assert wofz(np.zeros(0)).shape == (0,) and wofz(np.zeros(0)).dtype == complex


@pytest.mark.parametrize("shape,blocks", [((), [1]), ((1,), [1]), ((63,), [63]), ((64,), [64]),
                                          ((2, 3), [6]),
                                          ((faddeeva._BLOCK + 1,), [faddeeva._BLOCK, 1])],
                         ids=["0-d", "one", "63", "64", "2x3", "block+1"])
def test_elementwise_takes_block_for_every_shape_and_a_0d_one_as_one_point(shape, blocks):
    calls = []

    def block(x):
        calls.append(x.size)
        return 2.0 * x

    got = faddeeva.elementwise(block, np.full(shape, 1.5))
    assert calls == blocks
    if shape:
        assert got.shape == shape and (got == 3.0).all()
    else:
        assert type(got) is float and got == 3.0


halfwidth = log_uniform(1e-3, 1e2)
scale = st.one_of(st.just(0.0), log_uniform(1e-3, 1e2))
component = st.builds(DopplerComponent, label=st.just("c"),
                      center=st.floats(min_value=-50.0, max_value=50.0),
                      natural_halfwidth=halfwidth, doppler_scale=scale,
                      weight=log_uniform(1e-3, 1e3), memory=st.just(0.0))


@PROPERTY
@given(comps=st.lists(component, min_size=1, max_size=4),
       lo=st.floats(min_value=-100.0, max_value=0.0),
       width=st.floats(min_value=1e-3, max_value=200.0),
       n=st.sampled_from([1, 5, 63, 64, 65, 300, 2001]))
def test_batched_density_sum_is_the_per_element_float_sum(comps, lo, width, n):
    x = np.linspace(lo, lo + width, n)
    batched = density_sum(comps, x)
    assert batched.shape == x.shape
    assert batched.tolist() == [density_sum(comps, v) for v in x.tolist()]


@pytest.mark.parametrize("x", [0.5, np.array([0.5]), np.linspace(-1.0, 1.0, 100)],
                         ids=["float", "one", "block"])
def test_negative_doppler_scale_is_rejected_on_both_paths(x):
    with pytest.raises(ValueError, match="doppler_scale must be >= 0"):
        voigt_density(1.0, x, -1e-3)
    with pytest.raises(ValueError, match="doppler_scale must be >= 0"):
        voigt_density(1.0, x, math.nan)
