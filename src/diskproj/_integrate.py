"""Internal quadrature helpers: the library's one integration engine.

Gauss-Legendre rules on [0, 1] built from panels, each rule built once
and cached. They are the only engine behind integrals of the form
int rho(r) g(r, w) dr: interval masses, tails and moments of a radial
measure and every integral of the kernel layer, vectorized over many
targets w at once (see RadialMeasure.density_rule, which maps a rule
onto an interval and weights it by the density). The full rule,
graded_gl_rule, grades toward both endpoints and serves every
integrand; argument_gl_rule, for integrands analytic on [0, 1] up to
one pole just beyond r = 1, grades toward 1 only as far as the pole's
distance needs (argument_panels). The test suite pins the rules
against an independent oracle, adaptive Simpson quadrature
(tests/quadrature_oracle.py).

The rules are deterministic."""

from __future__ import annotations

import numpy as np

from .errors import InvalidRangeError

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
