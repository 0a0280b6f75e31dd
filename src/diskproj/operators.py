"""Projection-type operators on disk quadratures.

Four operator kinds share one handle type: the reproducing projection
(complex kernel conj(B_z(zeta))), its absolute-kernel majorant, the
positive integral operator with kernel K_Psi(z, zeta) =
Psi(|1 - conj(zeta) z|)/|1 - conj(zeta) z|, and the positive dyadic
operators sum_I (Psi(|I|)/|I|) <f, 1_S(I)>_mu 1_S(I) on either shifted
grid.

The three integral kernels depend on a node pair only through
w = zeta conj(z). Every band of the quadrature holds a power-of-two
number of equally spaced nodes, so between a row band and a column band
w takes only max(n_a, n_b) distinct values: each band-pair block is
circulant up to index striding. A handle evaluates its kernel once at
those values, on first use, and applies it by one FFT correlation per
band pair. Kernel rows (apply with matrix_free=True) and the dense
matrix the norms need are gathered from the same table. Dyadic
application is per-level index arithmetic, cost O(cells x levels).

Norms: at p = 2 the operator norm between weighted L^2 spaces is the
largest singular value of D(sqrt(u mu)) K D(sqrt(sigma mu)); at p != 2
only a lower bound is computed (nonlinear power iteration from random
starts) and is labeled as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import svdvals
from scipy.optimize import bisect

from . import weights as weights_mod
from .disk import Arc, DiskQuadrature, Field, arc_index, carleson_square
from .errors import (BudgetExceededError, InvalidRangeError,
                     NoAdmissiblePairError, SeparationError)
from .kernels import KernelSpec, kernel_integral_grid, nu_cauchy_grid
from .measures import RadialMeasure

MATRIX_THRESHOLD = 4096
_GATHER_ENTRIES = 2 ** 20   # kernel entries per gathered row block


# -- Psi profiles -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PsiProfile:
    """Psi(t) = t^(1-gamma) int dnu(r)/(1 - r(1-t)) on (0, 2]."""

    gamma: float
    nu: RadialMeasure
    name: str = "psi"

    def __post_init__(self):
        if not 1.0 <= self.gamma < math.inf:
            raise InvalidRangeError("profile exponent gamma must be finite "
                                    f"and >= 1: {self.gamma}")

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr <= 0.0) or np.any(t_arr > 2.0):
            raise InvalidRangeError("Psi is defined on (0, 2]")
        vals = nu_cauchy_grid(self.nu, 1.0 - t_arr).real
        out = np.power(t_arr, 1.0 - self.gamma) * vals
        return float(out) if out.ndim == 0 else out

    def kernel(self, z, zeta):
        """K_Psi(z, zeta) = Psi(|1 - conj(zeta) z|) / |1 - conj(zeta) z|."""
        t = np.abs(1.0 - np.conj(zeta) * z)
        return self(t) / t


def psi_diagnostics(psi: PsiProfile, probe_count=120):
    """Measured essential-decrease and doubling constants on a dyadic
    probe grid: sup_{t1<=t2} Psi(t2)/Psi(t1) and sup_t Psi(t)/Psi(2t)."""
    k = np.arange(probe_count)
    t = 2.0 * np.power(2.0, -k / 8.0)[::-1]  # ascending
    vals = psi(t)
    if np.any(vals <= 0.0):
        raise InvalidRangeError("profile is not positive on the probe grid")
    prefix_min = np.minimum.accumulate(vals)
    decreasing = float(np.max(vals / prefix_min))
    mask = 2.0 * t <= 2.0
    doubling = float(np.max(vals[mask] / psi(2.0 * t[mask])))
    return decreasing, doubling


# -- operator handles ---------------------------------------------------------

@dataclass(eq=False)
class OperatorHandle:
    """A linear operator bound to one quadrature.

    Application is out = K @ (f * mu). fast_apply computes it without
    forming K (FFT correlation or dyadic prefix sums); kernel_block(rows)
    returns the pure kernel submatrix K[rows, :] (no masses), which the
    matrix-free route and the dense matrix are built from.
    """

    kind: str
    quad: DiskQuadrature
    kernel_block: Callable
    mu: np.ndarray
    positive: bool
    fast_apply: Callable
    _matrix: Optional[np.ndarray] = None

    def _row_blocks(self):
        n = self.quad.size
        step = max(1, _GATHER_ENTRIES // n)
        for s in range(0, n, step):
            yield self.kernel_block(np.arange(s, min(s + step, n)))

    def matrix(self):
        """Pure kernel matrix; cached. Only below the cell threshold."""
        if self._matrix is None:
            n = self.quad.size
            if n > MATRIX_THRESHOLD:
                raise BudgetExceededError(
                    f"{n} cells exceed the matrix threshold {MATRIX_THRESHOLD}")
            self._matrix = np.concatenate(list(self._row_blocks()), axis=0)
        return self._matrix

    def apply(self, values, matrix_free=False):
        """K @ (values * mu) by fast_apply; with matrix_free=True, by
        kernel rows gathered block by block instead."""
        v = np.asarray(values)
        if not matrix_free:
            return self.fast_apply(v)
        weighted = v * self.mu
        return np.concatenate([block @ weighted
                               for block in self._row_blocks()])


class _BandPairTable:
    """A kernel k(w), w = z_j conj(z_i), tabulated once per ordered band pair.

    For row band a and column band b with n_a and n_b arcs, let
    N = max(n_a, n_b), s_a = N / n_a and s_b = N / n_b (one of them is 1).
    Node angles are (k + 1/2) / n, so between arcs k_a and k_b the angle
    of w is (m + delta) / N with m = (k_b s_b - k_a s_a) mod N and
    delta = (s_b - s_a) / 2, and the block (a, b) holds only the N values
    k(r_a r_b e^{2 pi i (m + delta) / N}). They are evaluated on first use.
    """

    def __init__(self, quad: DiskQuadrature, kernel_of_w: Callable):
        self.quad = quad
        self._kernel_of_w = kernel_of_w
        self._arcs = np.array([b.arc_count for b in quad.bands])
        self._slices = [slice(b.start, b.start + b.arc_count)
                        for b in quad.bands]
        self._span = np.maximum.outer(self._arcs, self._arcs)
        sizes = self._span.ravel()
        self._offset = (np.cumsum(sizes) - sizes).reshape(self._span.shape)
        self._values = None
        self._spectra = None

    @property
    def values(self):
        """All band-pair tables, concatenated pair-major."""
        if self._values is None:
            radius = self.quad.nodes_r[[s.start for s in self._slices]]
            w = []
            for a, n_a in enumerate(self._arcs):
                for b, n_b in enumerate(self._arcs):
                    span = self._span[a, b]
                    delta = 0.5 * (span // n_b - span // n_a)
                    angle = (np.arange(span) + delta) / span
                    w.append(radius[a] * radius[b] *
                             np.exp(2j * np.pi * angle))
            self._values = np.asarray(self._kernel_of_w(np.concatenate(w)))
        return self._values

    def rows(self, rows):
        """Kernel submatrix K[rows, :], gathered from the tables."""
        q = self.quad
        rows = np.asarray(rows)
        a = q.cell_band[rows][:, None]
        b = q.cell_band[None, :]
        span = self._span[a, b]
        pos = (q.cell_arc[None, :] * (span // self._arcs[b])
               - q.cell_arc[rows][:, None] * (span // self._arcs[a])) % span
        return self.values[self._offset[a, b] + pos]

    def _pair_spectra(self):
        """Per pair, sum_m T[m] e^{2 pi i p m / N}: the DFT of m -> T[-m],
        which turns the correlation with T into a circular convolution."""
        if self._spectra is None:
            vals = self.values
            self._spectra = [
                [np.fft.ifft(vals[self._offset[a, b]:
                                  self._offset[a, b] + self._span[a, b]],
                             norm="forward")
                 for b in range(self._arcs.size)]
                for a in range(self._arcs.size)]
        return self._spectra

    def correlate(self, g):
        """K @ g, one FFT correlation per band pair.

        Row band a needs out[k_a] = sum_{k_b} T[k_b s_b - k_a s_a] g[k_b]:
        the column band is zero-stuffed to length N (its spectrum tiles
        s_b times), and sampling every s_a-th output folds the product
        spectrum s_a times onto length n_a.
        """
        spectra = self._pair_spectra()
        g_hat = [np.fft.fft(g[s]) for s in self._slices]
        out = np.empty(self.quad.size, dtype=complex)
        for a, n_a in enumerate(self._arcs):
            acc = np.zeros(n_a, dtype=complex)
            for b, n_b in enumerate(self._arcs):
                span = self._span[a, b]
                prod = spectra[a][b] * np.tile(g_hat[b], span // n_b)
                acc += prod.reshape(-1, n_a).sum(axis=0) * (n_a / span)
            out[self._slices[a]] = np.fft.ifft(acc)
        return out


def _table_handle(kind, quad, kernel_of_w, mu, positive):
    table = _BandPairTable(quad, kernel_of_w)

    def fast(values):
        out = table.correlate(values * mu)
        return out.real if positive and not np.iscomplexobj(values) else out

    return OperatorHandle(kind, quad, table.rows, mu, positive,
                          fast_apply=fast)


def bergman_handle(spec: KernelSpec, quad: DiskQuadrature) -> OperatorHandle:
    """P_omega: out(z_i) = sum_j f(z_j) conj(B_{z_i}(z_j)) mass_j."""
    return _table_handle(
        "bergman", quad, lambda w: np.conj(kernel_integral_grid(spec, w)),
        quad.masses.copy(), positive=False)


def positive_handle(spec: KernelSpec, quad: DiskQuadrature) -> OperatorHandle:
    """P+_omega: absolute kernel |B_{z_i}(z_j)|."""
    return _table_handle(
        "positive", quad, lambda w: np.abs(kernel_integral_grid(spec, w)),
        quad.masses.copy(), positive=True)


def psi_positive_handle(psi: PsiProfile, quad: DiskQuadrature,
                        mu=None) -> OperatorHandle:
    """P+_{Psi,mu} with kernel K_Psi against the measure mu."""
    mu = quad.masses.copy() if mu is None else np.asarray(mu, dtype=float)
    # K_Psi(z_i, z_j) depends only on |1 - conj(z_j) z_i| = |1 - w|,
    # which is also the separation K_Psi sees at the pair (w, 1)
    return _table_handle("psi-positive", quad, lambda w: psi.kernel(w, 1.0),
                         mu, positive=True)


def _level_cap(quad: DiskQuadrature):
    return quad.J + 1


def dyadic_handle(beta, psi: PsiProfile, quad: DiskQuadrature, L_max=None,
                  mu=None) -> OperatorHandle:
    """P^beta_{Psi,mu} = sum over grid squares of (Psi(|I|)/|I|) <f,1_S>_mu 1_S."""
    L_max = _level_cap(quad) if L_max is None else L_max
    mu = quad.masses.copy() if mu is None else np.asarray(mu, dtype=float)
    r, t = quad.nodes_r, quad.nodes_t
    levels = list(range(L_max + 1))
    coef = {l: float(psi(2.0 ** -l)) * 2.0 ** l for l in levels}
    idx = {l: arc_index(beta, l, t) for l in levels}
    radial = {l: r >= 1.0 - 2.0 ** -l for l in levels}

    def fast(values):
        out = np.zeros(quad.size)
        fw = values * mu
        for l in levels:
            mask = radial[l]
            sums = np.bincount(idx[l][mask], weights=fw[mask],
                               minlength=1 << l)
            out[mask] += coef[l] * sums[idx[l][mask]]
        return out

    def block(rows):
        out = np.zeros((rows.size, quad.size))
        for l in levels:
            both = radial[l][rows, None] & radial[l][None, :] & \
                (idx[l][rows, None] == idx[l][None, :])
            out += coef[l] * both
        return out

    return OperatorHandle("dyadic", quad, block, mu, positive=True,
                          fast_apply=fast)


def apply_bergman(handle: OperatorHandle, f: Field) -> Field:
    if not handle.quad.same_as(f.quad):
        from .errors import QuadratureMismatchError
        raise QuadratureMismatchError("operator and field quadratures differ")
    return Field(f.quad, handle.apply(f.values))


apply_positive = apply_bergman  # same dispatch; the handle fixes the kernel


def projection_identity_error(spec: KernelSpec, quad: DiskQuadrature,
                              handle=None):
    """max |P 1 - 1| over the core nodes: the truncation-error monitor
    for the reproducing property (1 is in every A^2_omega here).

    It tracks 2^-J only while the core rings resolve the kernel. At the
    default j0 = 1 the four-arc core rings alias the w^4 mode, and the
    monitor stalls from J = 10 on (atom nu: 4.0e-3 at J = 10, 4.5e-3 at
    J = 11); with j0 = 2 it stays within 5% of 2^-J through J = 11.
    """
    h = bergman_handle(spec, quad) if handle is None else handle
    out = h.apply(np.ones(quad.size))
    return float(np.max(np.abs(out[quad.core_mask] - 1.0)))


# -- dyadic kernels and comparability ------------------------------------------

def dyadic_kernel(beta, psi: PsiProfile, z, zeta, L_max):
    """sum over grid squares S(I), level <= L_max, containing both points,
    of Psi(|I|)/|I|. Levels are scanned independently: the half-shifted
    family is not nested, so membership is not monotone in the level."""
    z, zeta = complex(z), complex(zeta)
    tz = (np.angle(z) / (2 * np.pi)) % 1.0
    tw = (np.angle(zeta) / (2 * np.pi)) % 1.0
    total = 0.0
    for l in range(L_max + 1):
        thr = 1.0 - 2.0 ** -l
        if abs(z) >= thr and abs(zeta) >= thr and \
                int(arc_index(beta, l, tz)) == int(arc_index(beta, l, tw)):
            total += float(psi(2.0 ** -l)) * 2.0 ** l
    return total


def _dyadic_kernel_pairs(beta, psi, z, zeta, L_max):
    """Vectorized dyadic kernel over paired point arrays."""
    rz, rw = np.abs(z), np.abs(zeta)
    tz = (np.angle(z) / (2 * np.pi)) % 1.0
    tw = (np.angle(zeta) / (2 * np.pi)) % 1.0
    out = np.zeros(np.shape(z))
    for l in range(L_max + 1):
        thr = 1.0 - 2.0 ** -l
        both = (rz >= thr) & (rw >= thr) & \
            (arc_index(beta, l, tz) == arc_index(beta, l, tw))
        out[both] += float(psi(2.0 ** -l)) * 2.0 ** l
    return out


def apply_dyadic(beta, psi: PsiProfile, quad: DiskQuadrature, f: Field,
                 L_max=None, mu=None) -> Field:
    h = dyadic_handle(beta, psi, quad, L_max=L_max, mu=mu)
    return Field(quad, h.apply(f.values))


def comparability_constants(psi: PsiProfile, sample_count, seed, J=8,
                            L_max=None):
    """min and max over sampled pairs of K_Psi / (K^0 + K^(1/2)).

    Points are sampled boundary-clustered in the truncated disk of
    depth J; the dyadic kernels are capped at L_max (default J + 1).
    The denominator is never zero: the root square holds every point.
    """
    if sample_count <= 0:
        raise InvalidRangeError("sample_count must be positive")
    L_max = J + 1 if L_max is None else L_max
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(2, sample_count))
    r = 1.0 - np.power(2.0, -u[0] * (J + 1))
    t = rng.uniform(size=(2, sample_count))
    z = r * np.exp(2j * np.pi * t[0])
    zeta = (1.0 - np.power(2.0, -u[1] * (J + 1))) * np.exp(2j * np.pi * t[1])
    sep = np.abs(1.0 - np.conj(zeta) * z)
    k_psi = psi(sep) / sep
    denom = (_dyadic_kernel_pairs(0.0, psi, z, zeta, L_max) +
             _dyadic_kernel_pairs(0.5, psi, z, zeta, L_max))
    ratio = k_psi / denom
    return float(ratio.min()), float(ratio.max())


# -- lower-bound lemmas --------------------------------------------------------

def separation_thresholds(gamma):
    """(D1, D2): D1 is the smallest separation multiple with
    sqrt(2)(2+gamma) c^gamma (3c+1)/(c-1)^(gamma+2) <= 1/2 at
    c = (1/3 + D1)/sqrt(2); D2 = D1 + 2. Found by bisection (the left
    side is strictly decreasing in c on (1, inf))."""

    def g(d):
        c = (1.0 / 3.0 + d) / math.sqrt(2.0)
        if c <= 1.0:
            return math.inf
        return math.sqrt(2.0) * (2.0 + gamma) * c ** gamma * (3.0 * c + 1.0) \
            / (c - 1.0) ** (gamma + 2.0) - 0.5

    lo = math.sqrt(2.0) - 1.0 / 3.0 + 1e-9
    hi = 10.0
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise InvalidRangeError("no separation threshold found")
    d1 = bisect(g, lo, hi, xtol=1e-12)
    return d1, d1 + 2.0


def _square_pair_at_level(quad: DiskQuadrature, level, gamma):
    """Two side-2^-level Carleson squares with Euclidean separation at
    the midpoint of [D1 l, D2 l], placed by solving for the angular gap
    directly. Grid squares cannot realize the window: the admissible
    edge gap is about (D1/2pi, D2/2pi) ~ (6.4, 6.7) arcs, which holds
    no integer, so the pair comes from the continuum square family.
    Raises when the target separation exceeds the chord reachable at
    this level."""
    d1, d2 = separation_thresholds(gamma)
    side = 2.0 ** -level
    r_lo = 1.0 - side
    target = 0.5 * (d1 + d2) * side
    if target > 2.0 * r_lo:
        raise NoAdmissiblePairError(
            f"separation {target:.3g} is out of reach at level {level}")
    # both squares span radii [1-side, 1), so the set distance is the
    # chord between the near edges at the inner radius
    gap = math.asin(target / (2.0 * r_lo)) / math.pi
    if gap > 0.5 - side:
        raise NoAdmissiblePairError(
            f"no room for two side-{side:g} squares with gap {gap:.3g}")
    s1 = carleson_square(Arc(0.0, side))
    s2 = carleson_square(Arc(side + gap, side))
    return s1, s2, target


def separated_square_lower_bound(spec: KernelSpec, quad: DiskQuadrature,
                                 level, f: Optional[Field] = None):
    """(min over S2 nodes of |P_omega f|, average of f over S1) for a
    nonnegative f supported on S1; the pair is auto-selected at the
    requested level with the derived separation window."""
    s1, s2, dist = _square_pair_at_level(quad, level, spec.gamma)
    m1 = quad.node_mask(s1)
    m2 = quad.node_mask(s2)
    if not m1.any() or not m2.any():
        raise NoAdmissiblePairError(
            f"level {level} squares contain no quadrature nodes at J={quad.J}")
    if f is None:
        f = Field(quad, m1.astype(float))
    vals = np.asarray(f.values, dtype=float)
    if np.any(vals < 0.0) or np.any(vals[~m1] != 0.0):
        raise InvalidRangeError("f must be nonnegative and supported on S1")
    z = quad.nodes_z
    w = z[None, m1] * np.conj(z[m2, None])
    kern = np.conj(kernel_integral_grid(spec, w))
    out = kern @ (vals[m1] * quad.masses[m1])
    mass1 = quad.masses[m1].sum()
    avg = float((vals[m1] * quad.masses[m1]).sum() / mass1)
    return float(np.min(np.abs(out))), avg


def tail_difference_bound(spec: KernelSpec, quad: DiskQuadrature, v_values,
                          z0, z, c):
    """lhs: integral of |B_{z0} - B_z| v d(omega x m) outside
    D(z0, 2|z-z0|); rhs: inf of the disc maximal function of v over
    nodes in D(z0, sqrt(2) (1-|z0|))."""
    z0, z = complex(z0), complex(z)
    step = abs(z - z0)
    if abs(z0) < 0.5:
        raise SeparationError("need |z0| >= 1/2")
    if step > c * (1.0 - abs(z0)):
        raise SeparationError("need |z - z0| <= c (1 - |z0|)")
    nodes = quad.nodes_z
    outside = np.abs(nodes - z0) >= 2.0 * step
    v = np.asarray(v_values, dtype=float)
    b0 = kernel_integral_grid(spec, nodes[outside] * np.conj(z0))
    b1 = kernel_integral_grid(spec, nodes[outside] * np.conj(z))
    lhs = float(np.sum(np.abs(b0 - b1) * v[outside] * quad.masses[outside]))
    m_field = weights_mod.disc_maximal_field(quad, v)
    near = np.abs(nodes - z0) < math.sqrt(2.0) * (1.0 - abs(z0))
    if not near.any():
        raise SeparationError("no nodes in the reference disc of z0")
    rhs = float(np.min(m_field[near]))
    return lhs, rhs


# -- weighted operator norms ---------------------------------------------------

def weighted_norm_p2(kernel_matrix, mu, u, sigma):
    """Exact L^2(sigma mu) -> L^2(u mu) norm of f -> K (sigma mu f):
    the largest singular value of D(sqrt(u mu)) K D(sqrt(sigma mu))."""
    left = np.sqrt(np.asarray(u) * mu)
    right = np.sqrt(np.asarray(sigma) * mu)
    m = left[:, None] * np.asarray(kernel_matrix) * right[None, :]
    return float(svdvals(m)[0])


def weighted_norm_lp_lower(kernel_matrix, mu, u, sigma, p, starts=16,
                           iters=60, seed=0):
    """Lower bound for the L^p(sigma mu) -> L^p(u mu) norm of a
    NONNEGATIVE kernel by nonlinear power iteration from random starts.
    Reported as a lower bound only; p = 2 callers should use the exact
    singular value instead."""
    if p <= 1.0:
        raise InvalidRangeError("p must be > 1")
    K = np.asarray(kernel_matrix, dtype=float)
    if K.min() < 0.0:
        raise InvalidRangeError("power iteration needs a nonnegative kernel")
    q = p / (p - 1.0)
    left = (np.asarray(u) * mu) ** (1.0 / p)
    right = (np.asarray(sigma) * mu) ** (1.0 / q)
    A = left[:, None] * K * right[None, :]
    rng = np.random.default_rng(seed)
    best = 0.0
    n = A.shape[1]
    for s in range(starts + 1):
        x = np.ones(n) if s == 0 else rng.uniform(0.1, 1.0, size=n)
        x /= np.linalg.norm(x, ord=p)
        for _ in range(iters):
            y = A @ x
            ny = np.linalg.norm(y, ord=p)
            if ny == 0.0:
                break
            z = A.T @ (y / ny) ** (p - 1.0)
            x = np.maximum(z, 0.0) ** (q - 1.0)
            nx = np.linalg.norm(x, ord=p)
            if nx == 0.0:
                break
            x /= nx
        val = np.linalg.norm(A @ x, ord=p)
        best = max(best, float(val))
    return best
