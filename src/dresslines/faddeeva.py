"""The Faddeeva function w(z) = exp(-z**2)*erfc(-i*z) in the upper half plane.

Re w(x + iy) is the Voigt profile, so every Doppler-averaged line is built
on it.  Three forms, each in real arithmetic on (x, y):

* |z| < 8: Weideman's rational approximation with N = 40 (SIAM J. Numer.
  Anal. 31 (1994) 1497), w = (2p(Z)/(L - iz) + 1/sqrt(pi))/(L - iz) with
  Z = (L + iz)/(L - iz), L = sqrt(N/sqrt(2)) and p of degree N - 1;
* |z| >= 8: 13 terms of the asymptotic series
  i/(sqrt(pi) z) * sum_k (2k-1)!!/(2z**2)**k; on the real axis, where the
  series gives Re w = 0, Re w = exp(-x**2);
* |z| < 8 and y < _Y_SMALL: the Taylor series in y about the real axis,
  through y**4.  On the axis Re w(x) = exp(-x**2) exactly, Im w(x) comes
  from the rational form, and the derivatives follow from
  w' = -2zw + 2i/sqrt(pi).  Near the axis Re w lies far below |w|, and the
  rational form alone loses its relative accuracy there (4e-9 at y = 1e-6).

Each polynomial with real coefficients is summed at a complex point v by
the recurrence b_k = a_k + 2Re(v)*b_{k+1} - |v|**2*b_{k+2}.  A Python float
and a float array then take the same IEEE operations, so the scalar path
agrees with the array path bit for bit; a complex Horner would not, since
numpy's vectorized complex multiply fuses its products where Python's does
not.  The one transcendental, exp(-x**2), is numpy's on both paths, as
math.exp and numpy.exp differ in the last bit on some arguments.

Off the axis, from y = 1e-6 up, Re w is within 1e-11 of its exact value,
relative: against 40-digit mpmath the worst is 5.6e-12, at y = 1e-3 and
|x| near 5.2, in the rational form just above _Y_SMALL, where Re w is far
below |w|.  The error falls as 1/y, to 5e-13 at y = 1e-2; the other forms
stay below 2e-13.  Im z < 0 is rejected.  elementwise, the package's one
driver from a kernel to an array, runs its 1-D block function on every
shape, a 0-d argument as a one-point block.
"""

from __future__ import annotations

import math

import numpy as np

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_L = 5.3182958969449885  # sqrt(40/sqrt(2))
# Coefficients of 2p(Z), lowest degree first: twice Weideman's a_1 ... a_40,
# from the FFT of exp(-t**2)*(L**2 + t**2) at t = L*tan(k*pi/160), |k| < 80.
_P2 = (
    5.79924901877941, 5.232108305523719, 4.403027589756624, 3.4507661696359557,
    2.5127631351530266, 1.694434915318763, 1.0533057976554172, 0.5997887599230012,
    0.3100852760495901, 0.14364723558148657, 0.05840583294248376, 0.02009637248556707,
    0.005410811266147458, 0.000879614031973934, -7.87872629096761e-05,
    -0.00011182618528469759, -3.6014894289446815e-05, -2.132027796832546e-06,
    2.967132226634403e-06, 1.1824273906058115e-06, 2.839728474590686e-08,
    -1.2703546966030822e-07, -3.663123366859367e-08, 6.499493165890158e-09,
    6.035560851103128e-09, 4.2171981462502116e-10, -7.126470080720537e-10,
    -1.8110277721916646e-10, 6.945484187781403e-11, 3.542837134773436e-11,
    -5.455547125166049e-12, -5.81543702082854e-12, 2.406661905839136e-13,
    9.068289781886931e-13, 2.755644809532809e-14, -1.4142176044318817e-13,
    -1.0463432732648808e-14, 2.303834044149897e-14, 2.403349821518562e-15,
    -3.471396199758373e-15,
)
# (2k-1)!!/2**k for k = 0 ... 12, the series in 1/z**2; every one is exact.
_ASYMPTOTIC = tuple(math.prod(range(1, 2 * k, 2)) / 2.0**k for k in range(13))


def _series(coeffs):
    """A polynomial a_0 ... a_n as _poly runs it.

    (a_0, start, pairs, a_n, below).  The float recurrence starts from
    b1 = start and adds the rest of a_n ... a_1 two per turn of its loop:
    start is a_n when n is odd, which leaves an even count, else zero.  The
    array recurrence starts from b1 = a_n and adds a_{n-1} ... a_1 (below),
    as 0-d arrays, which numpy adds faster than floats.
    """
    top_down = coeffs[:0:-1]
    if len(top_down) % 2:
        start, pairs = top_down[0], tuple(zip(top_down[1::2], top_down[2::2]))
    else:
        start, pairs = 0.0, tuple(zip(top_down[0::2], top_down[1::2]))
    return coeffs[0], start, pairs, coeffs[-1], tuple(np.array(c) for c in top_down[1:])


_WEIDEMAN = _series(_P2)
_SERIES = _series(_ASYMPTOTIC)
_R2_FAR = 64.0    # |z|**2 from which the asymptotic series is used
_Y_SMALL = 1e-3   # below this y (and |z| < 8) the Taylor series is used
_BLOCK = 8192     # elementwise's slice, which keeps a kernel's temporaries in cache


def _poly(series, vr, vi):
    """Sum of a_k*v**k at v = vr + i*vi, as (real, imaginary) parts.

    The remainder of the polynomial after division by the real quadratic
    (t - v)(t - conj v) = t**2 - 2*vr*t + |v|**2, which vanishes at v.
    Floats take the recurrence two steps per turn of the loop; arrays take
    it in place, on three buffers, from the top coefficient, which is where
    the float recurrence stands after its first step from zero.
    """
    a0, start, pairs, top, below_top = series
    r2 = vr + vr
    q = vr * vr + vi * vi
    if isinstance(vr, float):
        b1, b2 = start, 0.0
        for c, d in pairs:
            b2 = c + (r2 * b1 - q * b2)
            b1 = d + (r2 * b2 - q * b1)
    else:
        b1, b2, t = np.full_like(vr, top), np.zeros_like(vr), np.empty_like(vr)
        for c in below_top:
            np.multiply(q, b2, out=t)
            np.multiply(r2, b1, out=b2)
            np.subtract(b2, t, out=b2)
            np.add(b2, c, out=b2)
            b1, b2 = b2, b1
    return (a0 - q * b2) + b1 * vr, b1 * vi


def _rational(x, y):
    """Weideman's N = 40 form, for |z| < 8."""
    yl = _L + y
    ym = _L - y
    xx = x * x
    d = yl * yl + xx
    gr = yl / d          # 1/(L - iz) = gr + i*gi
    gi = x / d
    pr, pi = _poly(_WEIDEMAN, (ym * yl - xx) / d, (2.0 * _L) * x / d)
    tr = (pr * gr - pi * gi) + _INV_SQRT_PI
    ti = pr * gi + pi * gr
    return gr * tr - gi * ti, gr * ti + gi * tr


def _asymptotic(x, y):
    """The asymptotic series, for |z| >= 8, with 1/z from _scaled_inverse
    where |z|**2 overflows and Re w = exp(-x**2), numpy's, on the axis."""
    d = x * x + y * y
    gr = x / d           # 1/z = gr + i*gi
    gi = -y / d
    if isinstance(d, float):
        gr, gi = (gr, gi) if d < math.inf else _scaled_inverse(x, y)
    elif np.isinf(d).any():
        gr, gi = np.where(np.isinf(d), _scaled_inverse(x, y), (gr, gi))
    sr, si = _poly(_SERIES, gr * gr - gi * gi, 2.0 * gr * gi)
    re = -(gr * si + gi * sr) * _INV_SQRT_PI
    if isinstance(y, float):
        re = re if y else float(np.exp(-(x * x)))
    elif not y.all():
        re = np.where(y == 0.0, np.exp(-(x * x)), re)
    return re, (gr * sr - gi * si) * _INV_SQRT_PI


def _scaled_inverse(x, y):
    """1/z where |z|**2 overflows, from z/m, m = (|x| + |y|)/2, which cannot
    overflow, of modulus sqrt(2) to 2: 1/z = (conj(z/m)/|z/m|**2)/m."""
    m = 0.5 * abs(x) + 0.5 * abs(y)
    xs, ys = x / m, y / m
    d = xs * xs + ys * ys
    return xs / d / m, -ys / d / m


def _near_axis(x, y):
    """The Taylor series in y through y**4, for |z| < 8 and y < _Y_SMALL.

    r_n + i*i_n is the n-th derivative of w on the axis, by the recurrence
    w^(n+1) = -2x*w^(n) - 2n*w^(n-1).
    """
    m = -2.0 * x
    r0 = np.exp(-(x * x))
    i0 = _rational(x, 0.0)[1]
    r1 = m * r0
    i1 = m * i0 + 2.0 * _INV_SQRT_PI
    r2 = m * r1 - 2.0 * r0
    i2 = m * i1 - 2.0 * i0
    r3 = m * r2 - 4.0 * r1
    i3 = m * i2 - 4.0 * i1
    r4 = m * r3 - 6.0 * r2
    i4 = m * i3 - 6.0 * i2
    re = r0 + y * (-i1 + y * (-0.5 * r2 + y * (i3 / 6.0 + y * (r4 / 24.0))))
    im = i0 + y * (r1 + y * (-0.5 * i2 + y * (-r3 / 6.0 + y * (i4 / 24.0))))
    return re, im


def w_scalar(x: float, y: float):
    """(Re w, Im w) at x + iy, y >= 0, for Python floats."""
    if x * x + y * y >= _R2_FAR:
        return _asymptotic(x, y)
    if y < _Y_SMALL:
        re, im = _near_axis(x, y)
        return float(re), float(im)
    return _rational(x, y)


def w_block(x, y):
    """(Re w, Im w) at x + iy, y >= 0, for 1-D float arrays: per element the
    form and the operations of w_scalar."""
    far = x * x + y * y >= _R2_FAR
    axis = y < _Y_SMALL
    if axis.any():
        axis &= ~far
        parts = ((far, _asymptotic), (axis, _near_axis), (~(far | axis), _rational))
    elif not far.any():
        return _rational(x, y)
    elif far.all():
        return _asymptotic(x, y)
    else:
        parts = ((far, _asymptotic), (~far, _rational))
    re, im = np.empty_like(x), np.empty_like(x)
    for part, form in parts:
        if part.any():
            re[part], im[part] = form(x[part], y[part])
    return re, im


def elementwise(block, *args):
    """block(*arrays) at every element of the arguments, broadcast against
    each other, on consecutive slices of at most _BLOCK points of their
    flattening, with overflow and invalid operations silenced as in Python
    floats: a float64 array of their shape, or a Python float for a 0-d
    broadcast, one slice of one point.  An argument the broadcast repeats
    along some but not all of its axes is flattened by a copy.
    """
    args = [np.asarray(a, dtype=float) for a in args]
    shape = np.broadcast(*args).shape
    flat = [np.broadcast_to(a, shape).reshape(-1) for a in args]
    out = np.empty(flat[0].size)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, out.size, _BLOCK):
            out[i:i + _BLOCK] = block(*(a[i:i + _BLOCK] for a in flat))
    return out.reshape(shape) if shape else float(out[0])


def wofz(z):
    """The Faddeeva function w(z) = exp(-z**2)*erfc(-i*z) for Im z >= 0.

    A 0-d z runs w_scalar once and returns a Python complex; an array keeps
    its shape, from two float passes of elementwise, Re w and Im w.
    Arguments with Im z < 0, where w grows as exp(-z**2), are rejected.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag < 0):
        raise ValueError("wofz requires Im z >= 0")
    if not z.shape:
        re, im = w_scalar(float(z.real), float(z.imag))
    else:
        re, im = (elementwise(lambda x, y: w_block(x, y)[j], z.real, z.imag) for j in (0, 1))
    return re + 1j * im
