"""Reproducing kernels with the representation (1-w)^(-gamma) * Cauchy(nu).

Two evaluation routes are provided and cross-checked: the power series
sum x^n / (2 omega_{2n+1}) driven by a moment sequence, and the integral
form (1-w)^(-gamma) int dnu(r)/(1-rw). Every integral against nu here
(moment tables, Cauchy transforms, the construction values F, the lower
bound and the divergence proxy) runs on one engine, the graded
Gauss-Legendre rule of nu.density_rule, vectorized over its arguments;
each scalar function is its grid twin at one argument. The moment
construction turns a measure nu on [0,1] into the moment sequence of a
radial weight whose kernel has exactly that integral form (gamma = 1),
via

    F(x) = int (1 - r^((x+1/2)/2)) / (1-r) dnu(r),   omega_m = 1/(2 F(m + 1/2)).

Also here: small analytic verifiers used throughout the test batteries
(complete monotonicity of sequences, the 1/sqrt(2) Cauchy-transform
lower bound, the kernel/tail ratio, and the kernel difference bound with
its explicit constant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (InvalidRangeError, QuadratureMismatchError,
                     SeparationError, TailVanishedError,
                     TruncationInfeasibleError)
from .measures import DEFAULT_TOL, RadialMeasure

MAX_SERIES_ARG = 1.0 - 2.0 ** -20
_IDENTITY_TOL = 1e-10
# node x argument products per grid block: cache-sized blocks run about
# three times faster than 2^22-entry ones
_GRID_BLOCK_ENTRIES = 2 ** 16


def binomial_weights(gamma, n_max):
    """b_k = C(k+gamma-1, k) for k = 0..n_max, by the ratio recurrence."""
    b = np.empty(n_max + 1)
    b[0] = 1.0
    for k in range(1, n_max + 1):
        b[k] = b[k - 1] * (k + gamma - 1.0) / k
    return b


def nu_moment_table(nu: RadialMeasure, n_max):
    """nu_j = int r^j dnu for j = 0..n_max, vectorized over j.

    Density part uses the density rule (panels refine dyadically toward
    r = 1, where high moments concentrate); atoms are added exactly.
    """
    out = np.zeros(n_max + 1)
    nodes, dens_w = nu.density_rule()
    powers = np.ones_like(nodes)
    for j in range(n_max + 1):
        out[j] = dens_w @ powers
        powers *= nodes
    for loc, mass in nu.atoms:
        out += mass * loc ** np.arange(n_max + 1, dtype=float)
    return out


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Kernel data: exponent gamma >= 1 and the representing measure nu."""

    gamma: float
    nu: RadialMeasure
    name: str = "kernel"

    def __post_init__(self):
        if not 1.0 <= self.gamma < math.inf:
            raise InvalidRangeError("kernel exponent gamma must be finite "
                                    f"and >= 1: {self.gamma}")
        mass = self.nu.total_mass()
        if not (0.0 < mass < math.inf):
            raise InvalidRangeError("nu must have finite positive mass")

    def coefficients(self, n_max):
        """c_n with kernel B(w) = sum c_n w^n, for n = 0..n_max."""
        table = nu_moment_table(self.nu, n_max)
        if self.gamma == 1.0:
            return np.cumsum(table)
        b = binomial_weights(self.gamma, n_max)
        return np.convolve(b, table)[:n_max + 1]

    def moments(self, n_max):
        """omega_{2n+1} for n = 0..n_max."""
        return 1.0 / (2.0 * self.coefficients(n_max))


# -- series route -------------------------------------------------------------

def kernel_series(moments: Sequence[float], x, tol=1e-12):
    """Sum x^n / (2 omega_{2n+1}) with a certified geometric tail cutoff.

    The tail past index N is bounded by 4 |x|^{N+1} / ((1-|x|) 2 omega_{2N+1})
    (coefficients of these kernels are nondecreasing, factor 4 is slack);
    summation is in ascending n, so identical inputs sum identically.
    """
    ax = abs(x)
    if ax > MAX_SERIES_ARG:
        raise TruncationInfeasibleError(
            f"|x| = {ax} too close to 1 for the series route")
    total = 0.0 + 0.0j if isinstance(x, complex) else 0.0
    power = 1.0 if not isinstance(x, complex) else 1.0 + 0.0j
    for n, m in enumerate(moments):
        if not m > 0.0:
            raise InvalidRangeError(f"moment {n} is not positive: {m}")
        a = 1.0 / (2.0 * m)
        total += a * power
        power *= x
        tail = 4.0 * a * ax ** (n + 1) / (1.0 - ax)
        if tail < tol:
            return total
    raise TruncationInfeasibleError(
        f"moment list of length {len(moments)} exhausted before the tail "
        f"bound met {tol} at |x| = {ax}")


# -- integral route -----------------------------------------------------------

def _density_sums(nu: RadialMeasure, flat, integrand, tol=DEFAULT_TOL):
    """sum_i c_i integrand(r_i, w) over the density rule of nu, for each w
    in the 1-d array flat, in blocks of at most _GRID_BLOCK_ENTRIES node
    x argument products."""
    nodes, dens_w = nu.density_rule(tol=tol)
    out = np.zeros(flat.shape, dtype=complex)
    block = max(1, _GRID_BLOCK_ENTRIES // max(nodes.size, 1))
    for start in range(0, flat.size, block):
        seg = flat[start:start + block]
        out[start:start + block] = dens_w @ integrand(nodes[:, None],
                                                      seg[None, :])
    return out


def nu_cauchy_grid(nu: RadialMeasure, w_values, tol=DEFAULT_TOL):
    """int dnu(r) / (1 - r w) over an array of complex |w| < 1; atoms exact.

    A tol below the default selects a higher-order rule.
    """
    w = np.asarray(w_values)
    flat = w.ravel()
    out = _density_sums(nu, flat, lambda r, x: 1.0 / (1.0 - r * x), tol)
    for loc, mass in nu.atoms:
        out += mass / (1.0 - loc * flat)
    return out.reshape(w.shape)


def nu_cauchy_transform(nu: RadialMeasure, w, tol=DEFAULT_TOL):
    """nu_cauchy_grid at one argument."""
    return complex(nu_cauchy_grid(nu, complex(w), tol=tol))


def kernel_integral_grid(spec: KernelSpec, w_values):
    """(1-w)^(-gamma) * int dnu/(1-rw), principal branch, over an array."""
    w = np.asarray(w_values, dtype=complex)
    pref = (1.0 - w) ** (-spec.gamma)
    return pref * nu_cauchy_grid(spec.nu, w)


def kernel_integral(spec: KernelSpec, w):
    """kernel_integral_grid at one argument |w| < 1."""
    w = complex(w)
    if abs(w) >= 1.0:
        raise InvalidRangeError("kernel argument must satisfy |w| < 1")
    return complex(kernel_integral_grid(spec, w))


# -- moment construction ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MomentConstruction:
    """Moment sequence of a radial weight built from nu (gamma = 1).

    F_values[m] = F(shift_a + m); constructed_moments[m] = 1/(2 F_values[m]);
    phi_coefficients[j] = nu_j, with the partial-sum identity
    F(a + 2n + 1) = sum_{j<=n} nu_j validated at construction.
    hypothesis_warning is set when the divergence proxy for
    int dnu/(1-r) fails (tail of the constructed weight then decays too
    fast for the representation class).
    """

    nu: RadialMeasure
    shift_a: float
    F_values: np.ndarray
    phi_coefficients: np.ndarray
    constructed_moments: np.ndarray
    identity_max_error: float
    hypothesis_warning: bool

    def moment_at(self, m):
        """omega_m = 1/(2 F(a + m)) at arbitrary real order m >= 0."""
        return 1.0 / (2.0 * float(_construction_F_table(
            self.nu, [self.shift_a + m])[0]))

    def tail(self, x):
        """Tail surrogate omega-hat(x) := omega_{1/(1-x)} for x in [0, 1)."""
        if not 0.0 <= x < 1.0:
            raise InvalidRangeError("tail surrogate needs x in [0, 1)")
        return self.moment_at(1.0 / (1.0 - x))

def _stable_power_quotient(u, s):
    """(1 - (1-u)^s) / u for an array of orders s, evaluated without
    cancellation; limit s at u = 0."""
    s = np.asarray(s, dtype=float)
    if u <= 0.0:
        return s
    if u >= 1.0:
        return np.ones_like(s)
    return -np.expm1(s * math.log1p(-u)) / u


def _construction_F_table(nu: RadialMeasure, x):
    """F(x) = int (1 - r^((x+1/2)/2)) / (1-r) dnu(r) at an array of orders.

    One pass over the density rule; -expm1(s log r)/(1-r) avoids the
    cancellation of 1 - r^s near r = 1, where the rule's panels cluster.
    """
    orders = (np.asarray(x, dtype=float) + 0.5) / 2.0
    nodes, dens_w = nu.density_rule()
    quot = -np.expm1(np.outer(orders, np.log(nodes))) / (1.0 - nodes)
    out = quot @ dens_w
    for loc, mass in nu.atoms:
        out += mass * _stable_power_quotient(1.0 - loc, orders)
    return out


def construct_omega_from_nu(nu: RadialMeasure, m_max) -> MomentConstruction:
    """Build the moment sequence omega_m = 1/(2 F(1/2 + m)), m = 0..m_max."""
    if m_max < 1:
        raise InvalidRangeError("m_max must be >= 1")
    a = 0.5
    F = _construction_F_table(nu, a + np.arange(m_max + 1))
    if np.any(F <= 0.0):
        raise InvalidRangeError("construction produced a nonpositive F value")
    moments = 1.0 / (2.0 * F)

    n_top = (m_max - 1) // 2
    phi = nu_moment_table(nu, n_top)
    partial = np.cumsum(phi)
    lhs = F[1::2]
    err = float(np.max(np.abs(lhs - partial) /
                       np.maximum(np.abs(partial), 1.0))) if n_top >= 0 else 0.0
    if err > _IDENTITY_TOL:
        raise QuadratureMismatchError(
            f"partial-sum identity off by {err:.3g} (> {_IDENTITY_TOL})")

    warning = _divergence_proxy_fails(nu)
    return MomentConstruction(nu=nu, shift_a=a, F_values=F,
                              phi_coefficients=phi,
                              constructed_moments=moments,
                              identity_max_error=err,
                              hypothesis_warning=warning)


def _divergence_proxy_fails(nu: RadialMeasure):
    """True when int dnu/(1-r) looks convergent (representation suspect).

    An atom at 1 makes the integral infinite outright. Otherwise the
    truncated integral I(c) = int_0^c dnu/(1-r) is computed at cutoffs
    1 - 2^{-10}, 1 - 2^{-20}, 1 - 2^{-30}. A small final value alone is
    not conclusive (log divergence grows slowly), so the hypothesis is
    flagged only when the value stays at or below 1e3 times the nu mass
    AND the increments between successive cutoffs are shrinking, which
    is what a convergent tail does and a log-divergent one does not.
    """
    if any(loc == 1.0 and mass > 0.0 for loc, mass in nu.atoms):
        return False

    def truncated(cutoff):
        nodes, dens_w = nu.density_rule(0.0, cutoff)
        return float(dens_w @ (1.0 / (1.0 - nodes))) + \
            sum(mass / (1.0 - loc) for loc, mass in nu.atoms if loc <= cutoff)

    i10 = truncated(1.0 - 2.0 ** -10)
    i20 = truncated(1.0 - 2.0 ** -20)
    i30 = truncated(1.0 - 2.0 ** -30)
    mass = nu.total_mass()
    if i30 > 1e3 * mass:
        return False
    # Increments at or below quadrature noise count as zero: a convergent
    # tail gives d1 = d2 = 0 up to rounding and must still be flagged.
    floor = 1e-6 * max(abs(i30), mass)
    d1 = max(i20 - i10, 0.0)
    d2 = max(i30 - i20, 0.0)
    return d2 <= 0.5 * d1 + floor


def moments_from_phi(phi_values):
    """omega_{2n+1} = 1/(2 sum_{j<=n} phi(j)): the odd-order moments a
    coefficient sequence phi-hat generates through the construction."""
    phi = np.asarray(phi_values, dtype=float)
    if np.any(phi <= 0.0):
        raise InvalidRangeError("phi coefficients must be positive")
    return 1.0 / (2.0 * np.cumsum(phi))


# -- analytic verifiers -------------------------------------------------------

@dataclass(frozen=True)
class MonotonicityReport:
    max_order_checked: int
    first_violation: Optional[tuple]  # (k, n, value)
    passed: bool


def check_completely_monotone(seq, k_max, tol=1e-12) -> MonotonicityReport:
    """Check (-1)^k (Delta^k m)_n >= -tol for k = 0..k_max."""
    m = np.asarray(seq, dtype=float)
    if m.size < k_max + 1:
        raise InvalidRangeError("sequence too short for requested order")
    diff = m.copy()
    for k in range(k_max + 1):
        signed = diff if k % 2 == 0 else -diff
        bad = np.nonzero(signed < -tol)[0]
        if bad.size:
            n = int(bad[0])
            return MonotonicityReport(k_max, (k, n, float(signed[n])), False)
        diff = diff[1:] - diff[:-1]
    return MonotonicityReport(k_max, None, True)


def lower_bound_eq4_grid(nu: RadialMeasure, z_values):
    """|int dnu/(1-rz)| against (1/sqrt 2) int dnu/|1-rz| over an array of
    |z| < 1; the ratio lhs/rhs is >= 1."""
    z = np.asarray(z_values, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise InvalidRangeError("need |z| < 1")
    lhs = np.abs(nu_cauchy_grid(nu, z))
    flat = z.ravel()
    rhs = _density_sums(nu, flat,
                        lambda r, x: 1.0 / np.abs(1.0 - r * x)).real
    for loc, mass in nu.atoms:
        rhs += mass / np.abs(1.0 - loc * flat)
    rhs = rhs.reshape(z.shape) / math.sqrt(2.0)
    return lhs, rhs, lhs / rhs


def difference_bound_grid(spec: KernelSpec, z0, z, zeta, c):
    """|B_{z0}(zeta) - B_z(zeta)| against
    C(c, gamma) (|z-z0|/|1-conj(zeta) z|) |B_z(zeta)| over arrays of
    admissible triples (|1-conj(zeta) z| >= c |z-z0|)."""
    z0 = np.asarray(z0, dtype=complex)
    z = np.asarray(z, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    if max(np.max(np.abs(z0)), np.max(np.abs(z)),
           np.max(np.abs(zeta))) >= 1.0:
        raise InvalidRangeError("all points must lie in the open disk")
    sep = np.abs(1.0 - zeta.conjugate() * z)
    step = np.abs(z - z0)
    bad = np.flatnonzero(sep < c * step)
    if bad.size:
        i = bad[0]
        raise SeparationError(f"|1-conj(zeta) z| = {sep.flat[i]:.3g} < "
                              f"c |z-z0| = {c * step.flat[i]:.3g}")
    b_z = kernel_integral_grid(spec, zeta * z.conjugate())
    b_z0 = kernel_integral_grid(spec, zeta * z0.conjugate())
    lhs = np.abs(b_z0 - b_z)
    bound = difference_constant(c, spec.gamma) * (step / sep) * np.abs(b_z)
    return lhs, bound


def shi_ratio(spec: KernelSpec, omega, x, tol=DEFAULT_TOL):
    """[int dnu/(1-rx)] * omega-hat(x) / (1-x)^(gamma-1).

    omega is anything with a tail(x) method: a RadialMeasure or a
    MomentConstruction (whose tail is the moment surrogate).
    """
    if not 0.0 <= x < 1.0:
        raise InvalidRangeError("need x in [0, 1)")
    tail = omega.tail(x)
    if tail <= 0.0:
        raise TailVanishedError(f"omega tail vanishes at x = {x}")
    val = nu_cauchy_transform(spec.nu, x, tol=tol).real
    return val * tail / (1.0 - x) ** (spec.gamma - 1.0)


def difference_constant(c, gamma):
    """C(c, gamma) = sqrt(2) (2+gamma) c^(gamma+1) (3c+1) / (c-1)^(gamma+2)."""
    if c <= 1.0:
        raise InvalidRangeError("separation parameter c must be > 1")
    return math.sqrt(2.0) * (2.0 + gamma) * c ** (gamma + 1.0) * \
        (3.0 * c + 1.0) / (c - 1.0) ** (gamma + 2.0)
