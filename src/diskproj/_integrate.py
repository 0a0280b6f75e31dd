"""Internal quadrature helpers.

Two engines are provided, each with one job:

* Gauss-Legendre rules on [0, 1] built from panels, each rule built
  once and cached. They are the only engine behind integrals of the
  form  int rho(r) g(r, w) dr  in the kernel layer and behind
  RadialMeasure.moment, vectorized over many targets w at once (see
  RadialMeasure.density_rule, which maps a rule onto an interval and
  weights it by the density). The full rule, graded_gl_rule, grades
  toward both endpoints and serves every integrand; argument_gl_rule,
  for integrands analytic on [0, 1] up to one pole just beyond r = 1,
  grades toward 1 only as far as the pole's distance needs
  (argument_panels);
* an adaptive composite Simpson rule (recursive bisection) to an
  absolute tolerance, which raises on a non-finite integrand value,
  kept for the interval masses of a radial measure,
  which set it relative to the interval: on polynomial densities its
  sums reproduce cell masses such as Lebesgue dyadic lengths exactly,
  which a Gauss-Legendre sum misses by an ulp. The test suite also uses
  it as the independent oracle for the graded rule.

Both are deterministic."""

from __future__ import annotations

import cmath

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
    path depends only on (f, a, b, tol). The first NaN or infinite value
    of f raises InvalidRangeError: no refinement would meet tol.
    """
    if a == b:
        return 0.0

    def checked(x):
        value = f(x)
        if not cmath.isfinite(value):
            raise InvalidRangeError(f"integrand not finite at {x}")
        return value

    fa, fb = checked(a), checked(b)
    m = 0.5 * (a + b)
    fm = checked(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(checked, a, fa, b, fb, tol, whole, m, fm,
                         _MAX_DEPTH)


_GL_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
# panels toward r = 1 of the full rule; argument rules never grade further
FULL_PANELS = 44


def _panel_rule(key, breaks, order):
    """Gauss-Legendre of the given order on each panel between successive
    breaks, built once and cached under key."""
    if key not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        h = 0.5 * np.diff(breaks)[:, None]
        nodes = (breaks[:-1, None] + h * (x + 1.0)).ravel()
        if nodes.max() >= 1.0:
            raise InvalidRangeError(
                f"{len(breaks) - 1} panels grade below double resolution "
                "at r = 1")
        _GL_CACHE[key] = (nodes, (h * w).ravel())
    return _GL_CACHE[key]


def graded_gl_rule(n_panels=FULL_PANELS, order=16):
    """Nodes and weights of a graded Gauss-Legendre rule on [0, 1].

    Panels shrink dyadically toward both endpoints (down to 2^-40 at 0,
    2^-n_panels at 1); each panel carries a Gauss-Legendre rule of the
    given order. The grading toward 1 resolves integrands with a pole
    just beyond r = 1; the grading toward 0 resolves algebraic endpoint
    behavior such as fractional powers of r. The grading toward 1 stops
    before the nodes of the last panel round onto r = 1, where they
    would carry no weight and turn a density singular at 1 into NaN; at
    the default 44 panels every node stays below 1 for orders 16 and 24.
    """
    return _panel_rule(("full", n_panels, order), np.concatenate(
        ([0.0], 0.5 ** np.arange(40, 1, -1),
         1.0 - 0.5 ** np.arange(1, n_panels + 1), [1.0])), order)


def argument_panels(gap):
    """K = clip(ceil(log2(1/gap)) + 3, 3, FULL_PANELS) for an array of
    distances gap = |1 - w| > 0 from the pole 1/w to r = 1 (|w| <= 1)."""
    k = np.ceil(-np.log2(gap)) + 3.0
    return np.clip(k, 3, FULL_PANELS).astype(int)


def argument_gl_rule(n_panels, order=16):
    """The Gauss-Legendre rule on [0, 1] for an integrand analytic on
    [0, 1] up to one pole about 2^-(n_panels - 3) beyond r = 1.

    Panels [0, 1/4], [1/4, 1/2], [1 - 2^-k, 1 - 2^-(k+1)] for
    k = 1..n_panels-1, and [1 - 2^-n_panels, 1]. Gauss-Legendre on a
    panel converges at a rate set by the Bernstein ellipse that avoids
    the pole, so a bounded ratio of pole distance to panel length is
    enough: each panel is no longer than its distance from r = 1, and
    the last is at most an eighth of the pole's distance unless
    n_panels is capped at FULL_PANELS, where its last panels are the
    full rule's. There is no grading
    toward 0, so the integrand must be smooth there too (no fractional
    powers of r).
    """
    return _panel_rule(("argument", n_panels, order), np.concatenate(
        ([0.0, 0.25], 1.0 - 0.5 ** np.arange(1, n_panels + 1), [1.0])),
        order)
