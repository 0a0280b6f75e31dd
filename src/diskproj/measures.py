"""Radial measures on [0, 1]: densities plus finitely many atoms.

A radial measure omega induces the area-type measure
d(omega x m)(r e^{i theta}) = r domega(r) dtheta / pi on the unit disk;
everything downstream (quadratures, kernels, projections) is built on
the three primitives implemented here: tails, moments and interval
masses. Atom sums are exact. Integrals of the density part take one of
two engines: moments, and every integral of the kernel layer, run on
the graded Gauss-Legendre rule that density_rule maps onto an interval;
interval masses and tails run on adaptive composite Simpson quadrature
(absolute tolerance 1e-12), which gives polynomial-density cell masses
exactly. Both apply the same endpoint substitution to densities
singular at r = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._integrate import adaptive_simpson, graded_gl_rule
from .errors import ConfigError, InvalidRangeError

DEFAULT_TOL = 1e-12
# Densities with endpoint_power p < 0 are integrated above this radius in
# the variable u = (1-r)^(1+p), which keeps the integrand bounded.
_SUBSTITUTION_CUT = 0.875


def _endpoint_substitution(q, u):
    """r = 1 - u^(1/q) and the Jacobian |dr/du| = u^(1/q - 1) / q.

    u is clamped at (2^-50)^q, which keeps r representably below 1.
    """
    u = np.maximum(u, (2.0 ** -50) ** q)
    return 1.0 - u ** (1.0 / q), u ** (1.0 / q - 1.0) / q


# Interval convention: interval_mass(a, b) covers [a, b] with atoms
# counted on [a, b) internally so adjacent intervals add exactly; the
# right endpoint is included only for b = 1 (no interval continues past
# it) and for the degenerate case a = b.


@dataclass(frozen=True)
class RadialMeasure:
    """A positive measure on [0, 1] given by a density and atoms.

    Parameters
    ----------
    name : str
        Identifier used in configs and reports.
    density : callable or None
        Vectorized density on [0, 1); None means purely atomic.
    atoms : tuple of (location, mass)
        Point masses; locations in [0, 1], masses > 0.
    endpoint_power : float
        Algebraic exponent p of the density near r = 1 (density ~
        C (1-r)^p). Only matters for p < 0, where integrals over
        intervals touching 1 use the substitution u = (1-r)^(1+p)
        to keep the integrand bounded.
    """

    name: str
    density: Optional[Callable] = None
    atoms: tuple = ()
    endpoint_power: float = 0.0

    def __post_init__(self):
        for loc, mass in self.atoms:
            if not 0.0 <= loc <= 1.0:
                raise InvalidRangeError(f"atom location {loc} outside [0, 1]")
            if mass < 0.0:
                raise InvalidRangeError(f"atom mass {mass} negative")
        if self.endpoint_power <= -1.0:
            raise InvalidRangeError("endpoint_power must be > -1 for integrability")

    # -- density integration -------------------------------------------------

    def density_rule(self, a=0.0, b=1.0, tol=DEFAULT_TOL):
        """Nodes r_i and weights c_i with sum_i c_i g(r_i) approximating
        int_a^b g(r) density(r) dr: the graded Gauss-Legendre rule mapped
        onto [a, b], its weights multiplied by the density.

        For endpoint_power < 0 the part of [a, b] above 7/8 is mapped in
        u = (1-r)^(1+p) instead, and the weights carry the Jacobian. A tol
        below DEFAULT_TOL selects order 24 instead of 16 per panel. A
        purely atomic measure gives empty arrays.
        """
        if self.density is None:
            return np.empty(0), np.empty(0)
        x, w = graded_gl_rule(order=16 if tol >= DEFAULT_TOL else 24)
        if self.endpoint_power < 0.0 and b > _SUBSTITUTION_CUT:
            cut = max(a, _SUBSTITUTION_CUT)
            q = 1.0 + self.endpoint_power
            u_lo, u_hi = (1.0 - b) ** q, (1.0 - cut) ** q
            r_sub, jac = _endpoint_substitution(q, u_lo + (u_hi - u_lo) * x)
            nodes = np.concatenate((a + (cut - a) * x, r_sub))
            weights = np.concatenate(((cut - a) * w, (u_hi - u_lo) * w * jac))
        else:
            nodes, weights = a + (b - a) * x, (b - a) * w
        return nodes, weights * np.asarray(self.density(nodes), dtype=float)

    def _density_integral(self, fn, a, b):
        """Integrate fn(r) * density(r) over [a, b] by adaptive Simpson."""
        if self.density is None or a >= b:
            return 0.0
        dens = self.density

        def integrand(r):
            return fn(r) * dens(r)

        if self.endpoint_power < 0.0 and b > _SUBSTITUTION_CUT:
            cut = max(a, _SUBSTITUTION_CUT)
            q = 1.0 + self.endpoint_power

            def transformed(u):
                r, jac = _endpoint_substitution(q, u)
                return integrand(r) * jac

            return adaptive_simpson(integrand, a, cut, tol=DEFAULT_TOL) + \
                adaptive_simpson(transformed, (1.0 - b) ** q,
                                 (1.0 - cut) ** q, tol=DEFAULT_TOL)
        return adaptive_simpson(integrand, a, b, tol=DEFAULT_TOL)

    def _atom_sum(self, fn, a, b, include_right):
        total = 0.0
        for loc, mass in self.atoms:
            if a == b:
                if loc == a:
                    total += fn(loc) * mass
            elif a <= loc < b or (include_right and loc == b):
                total += fn(loc) * mass
        return total

    # -- public primitives ---------------------------------------------------

    def interval_mass(self, a, b):
        """omega([a, b]), atoms on [a, b) except b = 1 (and a = b) closed."""
        if not (0.0 <= a <= b <= 1.0):
            raise InvalidRangeError(f"bad interval [{a}, {b}]")
        include_right = (b == 1.0) or (a == b)
        return self._density_integral(lambda r: 1.0, a, b) + \
            self._atom_sum(lambda r: 1.0, a, b, include_right)

    def tail(self, r):
        """omega-hat(r) = omega([r, 1])."""
        if not 0.0 <= r <= 1.0:
            raise InvalidRangeError(f"tail argument {r} outside [0, 1]")
        return self.interval_mass(r, 1.0)

    def total_mass(self):
        return self.tail(0.0)

    def moment(self, x):
        """omega_x = int r^x domega(r), x >= 0, on the density rule.

        The rule's panels refine toward r = 1, where high moments
        concentrate, so small moments keep their relative accuracy.
        """
        if x < 0.0:
            raise InvalidRangeError("moment order must be >= 0")
        nodes, weights = self.density_rule()
        dens_part = float(weights @ nodes ** x)
        atom_part = sum(mass * loc ** x for loc, mass in self.atoms)
        return dens_part + atom_part

    def weighted_interval_mass(self, a, b, exponent=1):
        """int_{[a,b)} r^exponent domega with the interval_mass atom rule."""
        if not (0.0 <= a <= b <= 1.0):
            raise InvalidRangeError(f"bad interval [{a}, {b}]")
        include_right = (b == 1.0) or (a == b)
        return self._density_integral(lambda r: r ** exponent, a, b) + \
            self._atom_sum(lambda r: r ** exponent, a, b, include_right)


# -- catalog ------------------------------------------------------------------

def lebesgue():
    return RadialMeasure(name="lebesgue", density=lambda r: np.ones_like(np.asarray(r, dtype=float)))


def power_measure(alpha):
    """Standard-weight shape (alpha+1)(1-r^2)^alpha dr, alpha > -1."""
    if alpha <= -1.0:
        raise InvalidRangeError("power measure needs alpha > -1")

    def dens(r):
        r = np.asarray(r, dtype=float)
        return (alpha + 1.0) * np.power(np.maximum(1.0 - r * r, 0.0), alpha)

    return RadialMeasure(name=f"power({alpha:g})", density=dens, endpoint_power=alpha)


def point_mass(location=1.0, mass=1.0, name=None):
    return RadialMeasure(name=name or f"atom({location:g})",
                         atoms=((location, mass),))


def loginv(levels=46):
    """Atomized measure with tail 1/(1 - log(1-r)) at dyadic radii.

    The continuous density 1/((1-r) (1 - log(1-r))^2) concentrates
    logarithmically at r = 1 and cannot be integrated to tolerance by
    bounded-order quadrature, so the catalog carries the dyadic
    discretization: atoms at r_k = 1 - 2^-k holding the exact tail
    differences. Tails at the probe radii 1 - 2^-k are exact.
    """
    def t(r):
        return 1.0 / (1.0 - math.log1p(-r)) if r < 1.0 else 0.0

    radii = [1.0 - 0.5 ** k for k in range(levels)]
    atoms = []
    for k in range(levels - 1):
        atoms.append((radii[k], t(radii[k]) - t(radii[k + 1])))
    atoms.append((radii[-1], t(radii[-1])))
    return RadialMeasure(name="loginv", atoms=tuple(atoms))


def expinv():
    """Density with tail exp(-1/(1-r)): decays faster than any power."""
    def dens(r):
        r = np.asarray(r, dtype=float)
        eps = np.maximum(1.0 - r, 1e-300)
        return np.exp(-1.0 / eps - 2.0 * np.log(eps))

    return RadialMeasure(name="expinv", density=dens)


def half_atom_mix():
    """Lebesgue plus a unit atom at 1/2."""
    return RadialMeasure(name="halfmix",
                         density=lambda r: np.ones_like(np.asarray(r, dtype=float)),
                         atoms=((0.5, 1.0),))


_CATALOG = {
    "lebesgue": ("uniform density on [0, 1)", lambda **kw: lebesgue()),
    "power": ("(alpha+1)(1-r^2)^alpha dr, alpha > -1",
              lambda alpha=0.0, **kw: power_measure(float(alpha))),
    "point1": ("unit atom at r = 1", lambda **kw: point_mass(1.0, 1.0, name="point1")),
    "loginv": ("atomized log-tail measure, tail 1/(1 - log(1-r))",
               lambda **kw: loginv()),
    "expinv": ("tail exp(-1/(1-r)); decays faster than any power",
               lambda **kw: expinv()),
    "halfmix": ("Lebesgue plus a unit atom at 1/2", lambda **kw: half_atom_mix()),
    "atoms": ("finite atom list from the 'atoms' key", None),
}


def catalog():
    """Names and one-line descriptions of built-in measures."""
    return {name: desc for name, (desc, _) in _CATALOG.items()}


def make_measure(kind, **params):
    if kind == "atoms":
        atoms = params.get("atoms")
        if not atoms:
            raise ConfigError("atom-list measure needs a nonempty 'atoms' key")
        return RadialMeasure(name=params.get("name", "atoms"), atoms=tuple(atoms))
    try:
        _, factory = _CATALOG[kind]
    except KeyError:
        raise ConfigError(f"unknown measure kind {kind!r}; see catalog()") from None
    base = factory(**params)
    extra = params.get("atoms")
    if extra:
        return RadialMeasure(name=params.get("name", base.name),
                             density=base.density,
                             atoms=base.atoms + tuple(extra),
                             endpoint_power=base.endpoint_power)
    return base
