"""Radial measures on [0, 1]: densities plus finitely many atoms.

A radial measure omega induces the area-type measure
d(omega x m)(r e^{i theta}) = r domega(r) dtheta / pi on the unit disk;
everything downstream (quadratures, kernels, projections) is built on
the three primitives implemented here: tails, moments and interval
masses. Atom sums are exact. Integrals of the density part run on one
engine: interval masses, tails, moments and every integral of the
kernel layer are sums over the Gauss-Legendre rules that density_rule
maps onto an interval, which also holds the endpoint substitution for
densities singular at r = 1 and the one check that the density is
finite and non-negative on the rule's nodes.

The catalog declares the densities of lebesgue, halfmix and integer-alpha
power measures analytic on [0, 1] (analytic_density); only the kernel
layer's Cauchy-type integrals use that, and moments keep the full rule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._integrate import argument_gl_rule, graded_gl_rule
from .errors import InvalidRangeError

DEFAULT_TOL = 1e-12
# Densities with endpoint_power p < 0 are integrated above this radius in
# the variable u = (1-r)^(1+p), which keeps the integrand bounded.
_SUBSTITUTION_CUT = 0.875


def _endpoint_substitution(q, u):
    """The node r and the exact gap s = u^(1/q) = 1 - r.

    dr = -(s^(1-q) / q) du, and s^(1-q) cancels the density's (1-r)^p
    (p = q - 1), so int g(r) (1-r)^p h(1-r) dr becomes
    int g(1 - s) h(s) / q du: bounded, with no floor on u. r stays at
    or below the last double under 1, so a g that divides by 1 - r
    stays finite.
    """
    s = u ** (1.0 / q)
    return np.minimum(1.0 - s, 1.0 - 2.0 ** -53), s


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
        Point masses; locations in [0, 1], masses finite and >= 0.
    endpoint_power : float
        Algebraic exponent p > -1 of the density near r = 1 (density ~
        C (1-r)^p). Only matters for p < 0, where integrals over
        intervals touching 1 use the substitution u = (1-r)^(1+p)
        to keep the integrand bounded.
    endpoint_factor : callable or None
        For p < 0, the bounded factor h with density(r) = (1-r)^p h(1-r),
        a vectorized function of the gap s = 1 - r on [0, 1/8]. The
        substitution hands it s exactly, never s re-derived from a
        rounded r.
    analytic_density : bool
        Declares the density analytic on a neighborhood of [0, 1], as a
        polynomial is. Integrals of the kernel layer then run on a rule
        graded toward r = 1 only as far as each argument needs (see
        density_rule's panels); moments keep the full rule. Never
        inferred: a density singular or merely smooth at 0 or 1 must
        leave it False.
    """

    name: str
    density: Optional[Callable] = None
    atoms: tuple = ()
    endpoint_power: float = 0.0
    endpoint_factor: Optional[Callable] = None
    analytic_density: bool = False

    def __post_init__(self):
        for loc, mass in self.atoms:
            if not 0.0 <= loc <= 1.0:
                raise InvalidRangeError(f"atom location {loc} outside [0, 1]")
            if not 0.0 <= mass < math.inf:
                raise InvalidRangeError(f"atom mass {mass} not finite, >= 0")
        if not -1.0 < self.endpoint_power < math.inf:
            raise InvalidRangeError("endpoint_power must be finite and > -1")
        if self.endpoint_power < 0.0 and self.density is not None and \
                self.endpoint_factor is None:
            raise InvalidRangeError("endpoint_power < 0 needs endpoint_factor")
        if self.analytic_density and self.endpoint_power < 0.0:
            raise InvalidRangeError("a density with endpoint_power < 0 is "
                                    "not analytic at r = 1")

    # -- density integration -------------------------------------------------

    def density_rule(self, a=0.0, b=1.0, tol=DEFAULT_TOL, panels=None):
        """Nodes r_i and weights c_i with sum_i c_i g(r_i) approximating
        int_a^b g(r) density(r) dr: the graded Gauss-Legendre rule mapped
        onto [a, b], its weights multiplied by the density. panels = K
        takes argument_gl_rule(K) instead, for an analytic g with one
        pole about 2^-(K-3) beyond r = 1 and a measure that declares
        analytic_density.

        For endpoint_power < 0 the part of [a, b] above 7/8 is mapped in
        u = (1-r)^(1+p) instead, where the weights are endpoint_factor
        at the exact gap 1 - r over 1 + p. A tol
        below DEFAULT_TOL selects order 24 instead of 16 per panel. A
        purely atomic measure gives empty arrays. Weights that are not
        finite or are negative (a signed density) raise.
        """
        if self.density is None:
            return np.empty(0), np.empty(0)
        order = 16 if tol >= DEFAULT_TOL else 24
        x, w = graded_gl_rule(order=order) if panels is None else \
            argument_gl_rule(panels, order)
        if self.endpoint_power < 0.0 and b > _SUBSTITUTION_CUT:
            cut = max(a, _SUBSTITUTION_CUT)
            q = 1.0 + self.endpoint_power
            u_lo, u_hi = (1.0 - b) ** q, (1.0 - cut) ** q
            r_sub, gap = _endpoint_substitution(q, u_lo + (u_hi - u_lo) * x)
            nodes = a + (cut - a) * x
            dens = np.asarray(self.density(nodes), dtype=float)
            factor = np.asarray(self.endpoint_factor(gap), dtype=float)
            nodes = np.concatenate((nodes, r_sub))
            weights = np.concatenate(((cut - a) * w * dens,
                                      (u_hi - u_lo) / q * w * factor))
        else:
            nodes = a + (b - a) * x
            weights = (b - a) * w * np.asarray(self.density(nodes),
                                               dtype=float)
        if not np.all((weights >= 0.0) & (weights < math.inf)):
            raise InvalidRangeError(
                f"density of {self.name} is not finite and >= 0 on the "
                f"rule's nodes in [{a}, {b}]")
        return nodes, weights

    def _density_integral(self, exponent, a, b):
        """int_a^b r^exponent density(r) dr on density_rule(a, b)."""
        if a >= b:
            return 0.0
        nodes, weights = self.density_rule(a, b)
        return float(weights @ nodes ** exponent)

    def _atom_sum(self, exponent, a, b, include_right):
        total = 0.0
        for loc, mass in self.atoms:
            if a == b:
                if loc == a:
                    total += loc ** exponent * mass
            elif a <= loc < b or (include_right and loc == b):
                total += loc ** exponent * mass
        return total

    # -- public primitives ---------------------------------------------------

    def interval_mass(self, a, b):
        """omega([a, b]), atoms on [a, b) except b = 1 (and a = b) closed."""
        return self.weighted_interval_mass(a, b, exponent=0)

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
        return self.weighted_interval_mass(0.0, 1.0, exponent=x)

    def weighted_interval_mass(self, a, b, exponent=1):
        """int_{[a,b)} r^exponent domega with the interval_mass atom rule."""
        if not (0.0 <= a <= b <= 1.0):
            raise InvalidRangeError(f"bad interval [{a}, {b}]")
        if not exponent >= 0.0:   # NaN fails every comparison
            raise InvalidRangeError(f"order {exponent} must be >= 0")
        include_right = (b == 1.0) or (a == b)
        return self._density_integral(exponent, a, b) + \
            self._atom_sum(exponent, a, b, include_right)


# -- catalog ------------------------------------------------------------------

def lebesgue():
    return RadialMeasure(name="lebesgue", density=lambda r: np.ones_like(np.asarray(r, dtype=float)),
                         analytic_density=True)


def power_measure(alpha):
    """Standard-weight shape (alpha+1)(1-r^2)^alpha dr, alpha > -1.

    An integer alpha gives a polynomial density, declared analytic.
    """
    if not -1.0 < alpha < math.inf:
        raise InvalidRangeError("power measure needs a finite alpha > -1")

    def dens(r):
        r = np.asarray(r, dtype=float)
        return (alpha + 1.0) * np.power(np.maximum(1.0 - r * r, 0.0), alpha)

    def factor(s):
        # (1 - r^2)^alpha = (1-r)^alpha (1+r)^alpha, with 1 + r = 2 - s
        s = np.asarray(s, dtype=float)
        return (alpha + 1.0) * np.power(2.0 - s, alpha)

    return RadialMeasure(name=f"power({alpha:g})", density=dens,
                         endpoint_power=alpha, endpoint_factor=factor,
                         analytic_density=float(alpha).is_integer())


def point_mass(location=1.0, mass=1.0, name=None):
    return RadialMeasure(name=name or f"atom({location:g})",
                         atoms=((location, mass),))


def loginv():
    """Atomized measure with tail 1/(1 - log(1-r)) at dyadic radii.

    The continuous density 1/((1-r) (1 - log(1-r))^2) concentrates
    logarithmically at r = 1 and cannot be integrated to tolerance by
    bounded-order quadrature, so the catalog carries the dyadic
    discretization: atoms at r_k = 1 - 2^-k holding the exact tail
    differences, k = 0..45. Tails at the probe radii 1 - 2^-k are exact.
    """
    def t(r):
        return 1.0 / (1.0 - math.log1p(-r)) if r < 1.0 else 0.0

    radii = [1.0 - 0.5 ** k for k in range(46)]
    atoms = []
    for k in range(len(radii) - 1):
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
                         atoms=((0.5, 1.0),), analytic_density=True)


_CATALOG = {
    "lebesgue": "uniform density on [0, 1)",
    "power": "(alpha+1)(1-r^2)^alpha dr, alpha > -1",
    "point1": "unit atom at r = 1",
    "loginv": "atomized log-tail measure, tail 1/(1 - log(1-r))",
    "expinv": "tail exp(-1/(1-r)); decays faster than any power",
    "halfmix": "Lebesgue plus a unit atom at 1/2",
}


def catalog():
    """Names and one-line descriptions of built-in measures."""
    return dict(_CATALOG)
