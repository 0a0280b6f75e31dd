"""Adaptive composite Simpson quadrature, the tests' independent oracle
for the library's graded Gauss-Legendre rules (diskproj._integrate):
recursive bisection to an absolute tolerance, raising on a non-finite
integrand value. It shares no node, weight or panel with the rules."""

import cmath

from diskproj.errors import InvalidRangeError

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
