"""The measurement layer against the scipy routines it stands in for.

find_peak and fwhm port Brent's bounded minimizer and root finder from
scipy step for step, so on random Lorentzian and Voigt pairs they must
return what scipy's minimize_scalar and brentq return, bit for bit.  quad
is the package's own Gauss-Legendre rule: it must agree with a
tight-tolerance scipy quad split at dense breakpoints, and give up, in
bounded memory, on an integrand that never converges.  The measures from
the predicted components, component_peak and voigt_fwhm, must agree with
the generic measures and with 50-digit half-maximum crossings.
"""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.optimize import brentq, minimize_scalar

from dresslines import cli
from dresslines import doppler as dop
from dresslines.doppler import DopplerComponent, density_sum, find_peak, fwhm, voigt_density

PROPERTY = settings(max_examples=200, deadline=None, database=None)


def reference_find_peak(f, lo, hi, n=2001):
    xs = np.linspace(lo, hi, n)
    ys = np.asarray(f(xs), dtype=float)
    i = int(np.argmax(ys))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, n - 1)]
    if a == b:
        return float(xs[i]), float(ys[i])
    res = minimize_scalar(lambda x: -float(f(x)), bounds=(a, b), method="bounded",
                          options={"xatol": 1e-12 * max(abs(a), abs(b), 1.0)})
    x0 = float(res.x)
    return x0, float(f(x0))


def reference_fwhm(f, lo, hi):
    x0, h = reference_find_peak(f, lo, hi)
    half = 0.5 * h
    span = hi - lo

    def crossing(direction, edge):
        step = span / 400.0
        a = x0
        b = x0 + direction * step
        while True:
            if not lo <= b <= hi:  # stepped past the window: its edge, once
                b = edge
            if float(f(b)) < half:
                return brentq(lambda x: float(f(x)) - half, min(a, b), max(a, b),
                              xtol=1e-9 * span)
            if b == edge:
                raise ValueError("half-maximum crossing not inside the window")
            a = b
            step *= 1.6
            b = x0 + direction * (abs(a - x0) + step)

    xr = crossing(+1.0, hi)
    xl = crossing(-1.0, lo)
    return xr - xl, x0, h


def component(center, a, s, weight):
    return DopplerComponent(label="c", center=center, natural_halfwidth=a,
                            doppler_scale=s, weight=weight, memory=0.0)


# A pair of Voigt components (a Lorentzian where the Doppler scale is 0)
# and a window around them that may or may not hold their half maxima.
halfwidth = st.floats(min_value=0.02, max_value=5.0)
doppler_scale = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=20.0))
pairs = st.tuples(
    st.floats(min_value=-30.0, max_value=30.0), halfwidth, doppler_scale,
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-30.0, max_value=30.0), halfwidth, doppler_scale,
    st.floats(min_value=0.1, max_value=10.0),
).map(lambda p: [component(*p[:4]), component(*p[4:])])
margins = st.tuples(st.floats(min_value=0.1, max_value=300.0),
                    st.floats(min_value=0.1, max_value=300.0))


def window(comps, margin):
    centers = [c.center for c in comps]
    return min(centers) - margin[0], max(centers) + margin[1]


@PROPERTY
@given(comps=pairs, margin=margins)
def test_find_peak_matches_scipy_bit_for_bit(comps, margin):
    f = lambda x: density_sum(comps, x)
    lo, hi = window(comps, margin)
    assert find_peak(f, lo, hi) == reference_find_peak(f, lo, hi)


@PROPERTY
@given(comps=pairs, margin=margins, narrow=st.booleans())
def test_fwhm_matches_scipy_bit_for_bit(comps, margin, narrow):
    f = lambda x: density_sum(comps, x)
    lo, hi = window(comps, margin)
    if narrow:  # a window that often cuts a half-maximum crossing off
        lo, hi = comps[0].center - 0.01 * margin[0], comps[0].center + 0.01 * margin[1]
    peak = find_peak(f, lo, hi)
    try:
        expect = reference_fwhm(f, lo, hi)
    except ValueError:
        with pytest.raises(ValueError):
            fwhm(f, lo, hi, peak)
        return
    assert (fwhm(f, lo, hi, peak), *peak) == expect


@pytest.mark.parametrize("k", [0, 500, 990])
def test_fwhm_of_a_tiny_density_matches_scipy_bit_for_bit(k):
    # from 2^-500 on, the inverse-quadratic step's denominator, cubic in f,
    # underflows to 0; brentq.c's quotient is then inf or nan, and it bisects
    comps = [component(0.0, 1.0, 2.0, 1.0), component(7.0, 0.5, 1.0, 0.6)]
    f = lambda x: 2.0**-k * density_sum(comps, x)
    peak = find_peak(f, -20.0, 30.0)
    assert (fwhm(f, -20.0, 30.0, peak), *peak) == reference_fwhm(f, -20.0, 30.0)


def test_fwhm_calls_its_density_on_python_floats():
    # Brent's tolerance is a Python float, so its steps leave no numpy scalar
    seen = []

    def f(x):
        seen.append(type(x))
        return voigt_density(0.7, x, 1.3)

    fwhm(f, -10.0, 10.0, find_peak(f, -10.0, 10.0))
    assert set(seen) == {np.ndarray, float}


def test_find_peak_on_a_one_point_window():
    f = lambda x: 1.0 / (1.0 + np.asarray(x) ** 2)
    assert find_peak(f, 1.0, 1.0) == (1.0, 0.5) == reference_find_peak(f, 1.0, 1.0)


@pytest.mark.parametrize("root", [-1.0, 2.0], ids=["left", "right"])
def test_brent_root_returns_an_endpoint_where_f_vanishes(root):
    f = lambda x: x - root
    assert dop._brent_root(f, -1.0, 2.0, xtol=1e-12) == root == brentq(f, -1.0, 2.0)


def test_brent_root_refuses_a_bracket_without_a_sign_change():
    f = lambda x: x * x + 1.0
    with pytest.raises(ValueError) as scipy_error:
        brentq(f, -1.0, 2.0)
    with pytest.raises(ValueError, match=f"^{re.escape(str(scipy_error.value))}$"):
        dop._brent_root(f, -1.0, 2.0, xtol=1e-12)


def test_fwhm_tests_the_window_edge_its_march_steps_past():
    # the march from the peak at 0 steps past 1.05 before it tests a point
    # below the half maximum; the edge, at 0.476 of the peak, brackets the
    # crossing at 1
    f = lambda x: 1.0 / (1.0 + x * x)
    peak = find_peak(f, -50.0, 1.05)
    assert peak == pytest.approx((0.0, 1.0), abs=1e-9)
    assert fwhm(f, -50.0, 1.05, peak) == pytest.approx(2.0, rel=1e-8)


def tight_reference(f, lo, hi, centers):
    """scipy quad at relative 1e-13, split at breakpoints that close in on
    each center geometrically."""
    edges = {lo, hi}
    for c in centers:
        for k in range(0, 45):
            for x in (c - (hi - lo) * 2.0**-k, c, c + (hi - lo) * 2.0**-k):
                if lo < x < hi:
                    edges.add(x)
    edges = sorted(edges)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # roundoff notices near 1e-13
        return math.fsum(scipy_quad(lambda x: float(f(x)), a, b, epsrel=1e-13,
                                    epsabs=0.0, limit=400)[0]
                         for a, b in zip(edges, edges[1:]))


@PROPERTY
@given(comps=pairs, margin=margins)
def test_quad_matches_a_tight_scipy_reference(comps, margin):
    f = lambda x: density_sum(comps, x)
    lo, hi = window(comps, margin)
    centers = [c.center for c in comps]
    got = dop.quad(f, lo, hi, points=centers)
    assert got == pytest.approx(tight_reference(f, lo, hi, centers), rel=1e-10, abs=0.0)


@PROPERTY
@given(comps=pairs, reach=st.floats(min_value=2.0, max_value=60.0))
def test_integrated_intensity_matches_a_tight_scipy_reference(comps, reach):
    # the production path of a window without components: quad split at
    # find_peak's peak and at half the measured FWHM and twice the FWHM
    # from it, or at the peak alone where the width is not measured
    f = lambda x: density_sum(comps, x)
    c = comps[0]
    half = reach * (c.natural_halfwidth + c.doppler_scale)
    lo, hi = c.center - half, c.center + 0.7 * half
    got = cli._measure_component(f, (lo, hi), cli._Line("c", c.center))["area"]
    assume(got is not None)  # the window does not isolate a component
    centers = [c.center for c in comps]
    assert got == pytest.approx(tight_reference(f, lo, hi, centers), rel=1e-10, abs=0.0)


def test_quad_is_exact_for_polynomials_and_makes_one_call_per_level():
    calls = []

    def cubic(x):
        calls.append(x.size)
        return 1.0 + x - 3.0 * x**2 + 0.5 * x**3

    expect = (lambda x: x + x**2 / 2 - x**3 + x**4 / 8)
    got = dop.quad(cubic, -2.0, 3.0, points=(0.5, 7.0))
    assert got == pytest.approx(expect(3.0) - expect(-2.0), rel=1e-14)
    # 0.5 splits [-2, 3] in two panels and 7.0 lies outside it; the first
    # level evaluates both panels and their halves in one call, and a
    # rule exact for the cubic closes them there
    assert calls == [2 * 3 * 16]


def test_gauss_legendre_table_is_numpys_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    for table, ref in ((dop._GL_NODES, nodes), (dop._GL_WEIGHTS, weights)):
        assert table.dtype == np.float64 and table.shape == (16,)
        assert np.all(np.abs(table - ref) <= np.spacing(np.abs(ref)))


@pytest.mark.parametrize("points", [(), (0.5, 0.5), (0.0, 1.0, 0.5), (1.0, 0.25, 0.0, 0.25),
                                    (-3.0, 0.75, 7.0, 0.75, 0.1), (0.0, 0.0, 1.0, 1.0)])
def test_quad_edges_are_np_uniques(points):
    # repeats and breakpoints on lo or hi collapse; those outside drop
    got = dop._edges(0.0, 1.0, points)
    want = np.unique([0.0, 1.0, *(p for p in points if 0.0 < p < 1.0)])
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_quad_gives_up_on_a_nan_integrand_in_bounded_memory():
    sizes = []

    def nan(x):
        sizes.append(x.size)
        return np.full_like(x, np.nan)

    with pytest.raises(ValueError, match="did not converge"):
        dop.quad(nan, 0.0, 1.0, points=(0.25,))
    # every panel stays open, so each level doubles the open panels until
    # the partition passes the cap; no call exceeds the cap's node count
    assert max(sizes) <= 2 * 16 * dop._MAX_PANELS
    assert len(sizes) <= math.log2(dop._MAX_PANELS) + 2


# Two or three Voigt lines (Lorentzians where s = 0, zero weights too), in
# units of w0: centers within 4 w0 of 0, half widths of at least w0/4,
# windows at most 24 w0 wide, so that the generic measures' grids resolve
# every line.  (w0, [(center, a, s, weight)], left margin, right margin)
voigt_line = st.tuples(st.floats(min_value=-4.0, max_value=4.0),
                       st.floats(min_value=0.25, max_value=1.0),
                       st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=2.0)),
                       st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=10.0)))
line_sets = st.tuples(st.floats(min_value=0.05, max_value=20.0),
                      st.lists(voigt_line, min_size=2, max_size=3),
                      st.floats(min_value=0.5, max_value=8.0),
                      st.floats(min_value=0.5, max_value=8.0))


@PROPERTY
@given(case=line_sets)
# a weak line on a strong one's flank: the sum falls across its window, so
# its components cannot place the window's maximum, and the window takes
# the generic measures
@example(case=(1.0, [(0.0, 1.0, 0.0, 10.0), (3.0, 1.0, 0.0, 0.05)], 4.0, 4.0))
def test_component_peak_matches_the_generic_measures(case):
    w0, lines, left, right = case
    comps = [component(w0 * c, w0 * a, w0 * s, weight) for c, a, s, weight in lines]
    comps.sort(key=lambda c: c.center)
    centers = [c.center for c in comps]
    assume(len(set(centers)) == len(centers))
    bounds = [centers[0] - w0 * left, *(0.5 * (a + b) for a, b in zip(centers, centers[1:])),
              centers[-1] + w0 * right]

    def density(x):
        return density_sum(comps, x)

    for own, window in zip(comps, zip(bounds, bounds[1:])):
        generic = cli._measure_component(density, window, own)
        got = cli._measure_component(density, window, own, comps)
        if dop.component_peak(comps, own, *window) is None:
            assert got == generic
            continue
        assert [got[k] is None for k in got] == [generic[k] is None for k in got]
        r = own.natural_halfwidth + math.sqrt(math.log(2.0)) * own.doppler_scale
        assert got["center"] == pytest.approx(generic["center"], rel=0.0, abs=1e-6 * r)
        assert got["peak_height"] == pytest.approx(generic["peak_height"], rel=1e-12)
        if got["fwhm"] is not None:
            assert got["fwhm"] == pytest.approx(generic["fwhm"], rel=0.0,
                                                abs=4e-9 * (window[1] - window[0]))
        if got["area"] is not None:
            assert got["area"] == pytest.approx(generic["area"], rel=2e-10)


def array_side_bounds(components, lo, left, right, hi):
    """component_peak's side bounds as one (k, 2) array call: each
    component's weight (taken as >= 0) times its Voigt at the point of
    [lo, left] and of [right, hi] nearest its center, summed over k."""
    def column(field):
        return np.reshape([getattr(c, field) for c in components], (len(components), 1))

    centers = column("center")
    near = np.clip(centers, [lo, right], [left, hi])
    sides = voigt_density(column("natural_halfwidth"), near - centers, column("doppler_scale"))
    return (np.maximum(column("weight"), 0.0) * sides).sum(axis=0)


@PROPERTY
@given(lines=st.lists(st.tuples(st.floats(min_value=-4.0, max_value=4.0),
                                st.floats(min_value=0.25, max_value=1.0),
                                st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=2.0)),
                                st.floats(min_value=-10.0, max_value=10.0)),  # signed weights
                      min_size=1, max_size=3),
       own=st.integers(min_value=0, max_value=2),
       margins=st.tuples(st.floats(min_value=0.0, max_value=8.0),
                         st.floats(min_value=0.0, max_value=8.0)))
# a weak line beside a strong one: the strong line's side bound decides
@example(lines=[(0.0, 1.0, 0.0, 10.0), (3.0, 1.0, 0.0, 0.05)], own=1, margins=(4.0, 4.0))
def test_float_side_bounds_give_the_array_bounds_verdict(lines, own, margins):
    comps = [component(c, a, s, weight) for c, a, s, weight in lines]
    own = comps[own % len(comps)]
    lo, hi = own.center - margins[0], own.center + margins[1]
    r = own.natural_halfwidth + math.sqrt(math.log(2.0)) * own.doppler_scale
    left, right = max(lo, own.center - r), min(hi, own.center + r)
    h = dop._refine(lambda x: density_sum(comps, x), left, right)[1]
    verdict = bool((array_side_bounds(comps, lo, left, right, hi) < h).all())
    got = dop.component_peak(comps, own, lo, hi)
    assert (got is not None) == verdict
    if verdict:
        assert got[1:] == (h, r)


def mp_voigt_fwhm(a, s):
    """Twice the 50-digit half-maximum crossing of Re w((x + ia)/s)."""
    with mpmath.workdps(50):
        a, s = mpmath.mpf(a), mpmath.mpf(s)
        if s == 0:
            return 2 * a

        def v(x):
            z = (x + 1j * a) / s
            return mpmath.re(mpmath.exp(-z * z) * mpmath.erfc(-1j * z))

        half = v(0) / 2
        g = s * mpmath.sqrt(mpmath.log(2))
        return 2 * mpmath.findroot(lambda x: v(x) - half, (max(a, g), a + g), solver="anderson")


@pytest.mark.parametrize("s", [0.37, 1.0, 20.0])
@pytest.mark.parametrize("ratio", [1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e3])
def test_voigt_fwhm_matches_50_digit_crossings(ratio, s):
    a = ratio * s
    assert dop.voigt_fwhm(a, s) == pytest.approx(float(mp_voigt_fwhm(a, s)), rel=1e-13)


@pytest.mark.parametrize("s", [1e290, 1e300])
def test_voigt_fwhm_of_a_huge_doppler_scale_is_gaussian(s):
    # V(0) is near 1/s, so every Brent step's interpolation underflows
    assert dop.voigt_fwhm(1.0, s) == pytest.approx(2.0 * s * math.sqrt(math.log(2.0)),
                                                   rel=1e-15)


def test_voigt_fwhm_of_a_lorentzian_is_twice_its_halfwidth():
    assert dop.voigt_fwhm(2.5, 0.0) == float(mp_voigt_fwhm(2.5, 0.0)) == 5.0


@pytest.mark.parametrize("a,s", [(1.7e308, 0.0), (1.7e308, 16.2), (1e308, 1e308)])
def test_voigt_fwhm_beyond_the_float_range_overflows(a, s):
    with pytest.raises(OverflowError, match="leaves the float range"):
        dop.voigt_fwhm(a, s)
