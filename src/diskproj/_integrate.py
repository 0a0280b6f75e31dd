"""Internal quadrature helpers.

Two engines are provided:

* an adaptive composite Simpson rule (recursive bisection) for scalar
  integrals of real- or complex-valued functions, with absolute or
  relative tolerance control;
* a fixed graded Gauss-Legendre rule on [0, 1] whose panels shrink
  dyadically toward r = 1, used for vectorized evaluation of integrals
  of the form  int rho(r) g(r, w) dr  at many targets w at once.

The graded rule is validated against the adaptive rule in the test
suite; both are deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidRangeError

_MAX_DEPTH = 48


def _simpson_step(f, a, fa, b, fb, tol, whole, m, fm, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _simpson_step(f, a, fa, m, fm, tol / 2.0, left, lm, flm, depth - 1) + \
        _simpson_step(f, m, fm, b, fb, tol / 2.0, right, rm, frm, depth - 1)


def adaptive_simpson(f, a, b, tol=1e-12):
    """Integrate f on [a, b] to absolute tolerance tol.

    f maps a float to a float or complex. Deterministic: the refinement
    path depends only on (f, a, b, tol).
    """
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(f, a, fa, b, fb, tol, whole, m, fm, _MAX_DEPTH)


def adaptive_simpson_rel(f, a, b, rel_tol=1e-12, floor=1e-300):
    """Integrate f on [a, b] to relative tolerance rel_tol.

    Runs one pass at a provisional absolute tolerance, then re-runs with
    the tolerance anchored to the first estimate. Needed where integrand
    scales vary over many orders (high moments of decaying densities).
    """
    first = adaptive_simpson(f, a, b, tol=max(abs(rel_tol), 1e-15))
    scale = max(abs(first), floor)
    second = adaptive_simpson(f, a, b, tol=rel_tol * scale)
    if abs(second - first) <= rel_tol * max(abs(second), floor):
        return second
    return adaptive_simpson(f, a, b, tol=rel_tol * max(abs(second), floor))


_GL_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def graded_gl_rule(n_panels=44, order=16):
    """Nodes and weights of a graded Gauss-Legendre rule on [0, 1].

    Panels shrink dyadically toward both endpoints (down to 2^-40 at 0,
    2^-n_panels at 1); each panel carries a Gauss-Legendre rule of the
    given order. The grading toward 1 resolves integrands with a pole
    just beyond r = 1; the grading toward 0 resolves algebraic endpoint
    behavior such as fractional powers of r. The grading toward 1 stops
    before the nodes of the last panel round onto r = 1, where they
    would carry no weight and turn a density singular at 1 into NaN; at
    the default 44 panels and order 16 every node stays below 1.
    """
    key = (n_panels, order)
    if key not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        breaks = np.concatenate(
            ([0.0], 0.5 ** np.arange(40, 1, -1),
             1.0 - 0.5 ** np.arange(1, n_panels + 1), [1.0]))
        nodes = []
        weights = []
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            h = 0.5 * (hi - lo)
            nodes.append(lo + h * (x + 1.0))
            weights.append(h * w)
        nodes = np.concatenate(nodes)
        if nodes.max() >= 1.0:
            raise InvalidRangeError(
                f"{n_panels} panels grade below double resolution at r = 1")
        _GL_CACHE[key] = (nodes, np.concatenate(weights))
    return _GL_CACHE[key]
