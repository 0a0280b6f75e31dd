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
band pair. Kernel rows (apply with matrix_free=True) use the same table.

The dyadic operators are SparseOperator instances, T f = sum_S tau_S
(E^mu_S f) 1_S over the squares of one grid, with tau_S = Psi(|I|)
mu(S)/|I| by default. Apply and kernel rows (tau_S / mu(S) per square)
reduce over the quadrature's per-level index, cost O(cells x levels).

Norms run on fast_apply and form no dense matrix; every kernel here is
Hermitian, so the adjoint is the same apply. At p = 2 the norm is the
top singular value of D(sqrt(u mu)) K D(sqrt(sigma mu)), by Lanczos. At
p != 2, for a nonnegative kernel, it is bracketed by Boyd's power
iteration below and the Schur test above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
from scipy.optimize import bisect
from scipy.sparse.linalg import ArpackError, LinearOperator, svds

from .disk import (Arc, DiskQuadrature, Field, arc_index, carleson_square,
                   check_grid, nonnegative_table, require_same_quadrature)
from .errors import (InvalidRangeError, NoAdmissiblePairError,
                     NoConvergenceError)
from .kernels import KernelSpec, kernel_integral_grid, nu_cauchy_grid
from .measures import RadialMeasure

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


# -- operator handles ---------------------------------------------------------

@dataclass(eq=False)
class OperatorHandle:
    """A linear operator bound to one quadrature.

    Application is out = K @ (f * mu). fast_apply computes it without
    forming K (FFT correlation or per-level sums); kernel_block(rows)
    returns the pure kernel submatrix K[rows, :] (no masses), which the
    matrix-free route gathers block by block.
    """

    quad: DiskQuadrature
    kernel_block: Callable
    mu: np.ndarray
    positive: bool
    fast_apply: Callable

    def apply(self, values, matrix_free=False):
        """K @ (values * mu) by fast_apply; with matrix_free=True, by
        kernel rows gathered block by block instead."""
        v = np.asarray(values)
        if v.shape != self.mu.shape:
            raise InvalidRangeError(f"values of shape {v.shape} for an "
                                    f"operator on {self.mu.size} cells")
        if not matrix_free:
            return self.fast_apply(v)
        weighted = v * self.mu
        n = self.quad.size
        step = max(1, _GATHER_ENTRIES // n)
        return np.concatenate([
            self.kernel_block(np.arange(s, min(s + step, n))) @ weighted
            for s in range(0, n, step)])


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


def _table_handle(quad, kernel_of_w, mu, positive):
    table = _BandPairTable(quad, kernel_of_w)

    def fast(values):
        out = table.correlate(values * mu)
        return out.real if positive and not np.iscomplexobj(values) else out

    return OperatorHandle(quad, table.rows, mu, positive, fast_apply=fast)


def bergman_handle(spec: KernelSpec, quad: DiskQuadrature) -> OperatorHandle:
    """P_omega: out(z_i) = sum_j f(z_j) conj(B_{z_i}(z_j)) mass_j."""
    return _table_handle(
        quad, lambda w: np.conj(kernel_integral_grid(spec, w)),
        quad.masses.copy(), positive=False)


def positive_handle(spec: KernelSpec, quad: DiskQuadrature) -> OperatorHandle:
    """P+_omega: absolute kernel |B_{z_i}(z_j)|."""
    return _table_handle(
        quad, lambda w: np.abs(kernel_integral_grid(spec, w)),
        quad.masses.copy(), positive=True)


def psi_positive_handle(psi: PsiProfile, quad: DiskQuadrature,
                        mu=None) -> OperatorHandle:
    """P+_{Psi,mu} with kernel K_Psi against the measure mu."""
    mu = (quad.masses.copy() if mu is None
          else nonnegative_table(mu, (quad.size,), "mu"))
    # K_Psi(z_i, z_j) depends only on |1 - conj(z_j) z_i| = |1 - w|,
    # which is also the separation K_Psi sees at the pair (w, 1)
    return _table_handle(quad, lambda w: psi.kernel(w, 1.0), mu,
                         positive=True)


# -- the dyadic model operator -------------------------------------------------

@dataclass(eq=False)
class SparseOperator:
    """T f = sum_S tau_S (E^mu_S f) 1_S over the Carleson squares of one
    grid up to level L_max, with tau[level][arc] >= 0.

    Its kernel is K_ij = sum over squares S holding both cells of
    tau_S / mu(S), so that T f = K (f mu).
    """

    beta: float
    quad: DiskQuadrature
    L_max: int
    mu: np.ndarray                     # cell masses of the base measure
    tau: List[np.ndarray]              # tau[level][arc], levels 0..L_max

    def __post_init__(self):
        self._levels = self.quad.levels(self.beta, self.L_max)
        self.mu = nonnegative_table(self.mu, (self.quad.size,), "mu")
        if len(self.tau) != self.L_max + 1:
            raise InvalidRangeError("need one tau array per level")
        self.tau = [nonnegative_table(row, (lv.count,),
                                      f"tau at level {lv.level}")
                    for row, lv in zip(self.tau, self._levels)]
        self._square_mass = [lv.sums(self.mu) for lv in self._levels]

    def square_masses(self, lev):
        """mu(S) for every arc at one level."""
        return self._square_mass[lev]

    def apply(self, values):
        """T f for the cell values of f."""
        values = np.asarray(values)
        if np.iscomplexobj(values):  # bincount takes no complex weights
            return self.apply(values.real) + 1j * self.apply(values.imag)
        weighted = values * self.mu
        out = np.zeros(self.quad.size)
        for lv, tau, mu_s in zip(self._levels, self.tau, self._square_mass):
            avg = np.divide(lv.sums(weighted), mu_s,
                            out=np.zeros_like(mu_s), where=mu_s > 0.0)
            out[lv.members] += (tau * avg)[lv.arcs]
        return out

    def kernel_rows(self, rows):
        """Kernel submatrix K[rows, :]."""
        rows = np.asarray(rows)
        out = np.zeros((rows.size, self.quad.size))
        for lv, tau, mu_s in zip(self._levels, self.tau, self._square_mass):
            weight = np.divide(tau, mu_s, out=np.zeros_like(mu_s),
                               where=mu_s > 0.0)
            arc_of = np.full(self.quad.size, -1)
            arc_of[lv.members] = lv.arcs
            same = arc_of[rows][:, None] == lv.arcs[None, :]
            out[:, lv.members] += np.where(same, weight[lv.arcs], 0.0)
        return out

    def handle(self) -> OperatorHandle:
        return OperatorHandle(self.quad, self.kernel_rows, self.mu,
                              positive=True, fast_apply=self.apply)


def sparse_bergman_model(psi: PsiProfile, quad: DiskQuadrature, beta=0.0,
                         L_max: Optional[int] = None, mu=None,
                         tau: Optional[List[np.ndarray]] = None
                         ) -> SparseOperator:
    """The dyadic model of the kernel profile: tau_S = Psi(|I|) mu(S)/|I|
    at levels 0..L_max (default J: no cell lies deeper), mu the cell
    masses by default. A custom tau table overrides the default."""
    L_max = quad.J if L_max is None else L_max
    mu = quad.masses if mu is None else mu
    op = SparseOperator(beta, quad, L_max, mu, tau if tau is not None else
                        [np.zeros(1 << lev) for lev in range(L_max + 1)])
    if tau is None:
        psi_vals = psi(2.0 ** -np.arange(L_max + 1))
        op.tau = [psi_vals[lev] * op.square_masses(lev) * 2.0 ** lev
                  for lev in range(L_max + 1)]
    return op


def apply_sparse(T: SparseOperator, f: Field) -> Field:
    """Evaluate sum_S tau_S (E^mu_S f) 1_S; linear, positive on f >= 0."""
    require_same_quadrature(T.quad, f)
    return Field(T.quad, T.apply(f.values))


def dyadic_handle(beta, psi: PsiProfile, quad: DiskQuadrature, L_max=None,
                  mu=None) -> OperatorHandle:
    """P^beta_{Psi,mu} = sum over grid squares of (Psi(|I|)/|I|) <f,1_S>_mu 1_S:
    the handle of sparse_bergman_model's operator."""
    return sparse_bergman_model(psi, quad, beta, L_max, mu).handle()


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

def _dyadic_kernel_pairs(beta, psi, z, zeta, L_max):
    """sum over grid squares S(I), level <= L_max, containing both points,
    of Psi(|I|)/|I|, over paired point arrays. Levels are scanned
    independently: the half-shifted family is not nested, so membership
    is not monotone in the level."""
    check_grid(beta, L_max)
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


# -- weighted operator norms ---------------------------------------------------

NORM_RTOL = 1e-12        # a bracket is closed when its gap is this, relative
NORM_MAX_STEPS = 500     # Boyd steps before an open bracket is returned


def _weighted_operator(handle: OperatorHandle, u, sigma, p):
    """(matvec, rmatvec) of A = D((u mu)^(1/p)) K D((sigma mu)^(1/p')), whose
    l^p norm is the L^p(sigma mu) -> L^p(u mu) norm of f -> K (sigma mu f)."""
    mu = handle.mu
    left = (nonnegative_table(u, mu.shape, "u") * mu) ** (1.0 / p)
    right = (nonnegative_table(sigma, mu.shape, "sigma") * mu) ** (1 - 1 / p)
    # fast_apply multiplies by mu again; a massless cell drops out
    inv_mu = np.divide(1.0, mu, out=np.zeros(mu.shape), where=mu > 0.0)
    return (lambda x: left * handle.fast_apply(np.ravel(x) * right * inv_mu),
            lambda y: right * handle.fast_apply(np.ravel(y) * left * inv_mu))


def weighted_norm_p2(handle: OperatorHandle, u, sigma):
    """Exact L^2(sigma mu) -> L^2(u mu) norm of f -> K (sigma mu f):
    the largest singular value of D(sqrt(u mu)) K D(sqrt(sigma mu)), by
    Lanczos from the constant vector, so that a result repeats exactly."""
    matvec, rmatvec = _weighted_operator(handle, u, sigma, 2.0)
    mu = handle.mu
    if not (np.any(np.asarray(u) * mu) and np.any(np.asarray(sigma) * mu)):
        return 0.0  # a zero weighted diagonal: the operator is zero
    n = mu.size
    A = LinearOperator((n, n), matvec=matvec, rmatvec=rmatvec,
                       dtype=float if handle.positive else complex)
    try:
        s = svds(A, k=1, tol=0, v0=np.ones(n), return_singular_vectors=False)
    except ArpackError as exc:
        if handle.positive and not np.any(matvec(np.ones(n))):
            return 0.0  # A >= 0 with A 1 = 0 is zero; Lanczos breaks down
        raise NoConvergenceError(f"Lanczos norm: {exc}") from None
    return float(s[0])


def weighted_norm_bracket(handle: OperatorHandle, u, sigma, p):
    """(lower, upper, closed) for the L^p(sigma mu) -> L^p(u mu) norm of
    f -> K (sigma mu f); closed means a gap of at most NORM_RTOL relative.

    At p = 2 the bracket is one point, by Lanczos. Otherwise, for a
    nonnegative kernel, Boyd's iteration runs from the constant vector:
    y = A x, z = A^T y^(p-1), x <- z^(p'-1) normalized in l^p, at most
    NORM_MAX_STEPS times. ||y||_p bounds ||A|| below, and the Schur test
    bounds it above by max_j (z_j / x_j^(p-1))^(1/p) over x_j > 0 (the
    other cells are zero columns of A)."""
    if p == 2.0:
        s = weighted_norm_p2(handle, u, sigma)
        return s, s, True
    if not (1.0 < p < math.inf and handle.positive):
        raise InvalidRangeError(f"Boyd's iteration needs p in (1, inf), not "
                                f"{p}, and a nonnegative kernel")
    matvec, rmatvec = _weighted_operator(handle, u, sigma, p)
    n = handle.mu.size
    x = np.full(n, n ** (-1.0 / p))
    lower, upper = 0.0, math.inf
    for _ in range(NORM_MAX_STEPS):
        # clip FFT round-off below zero before the fractional powers
        y = np.maximum(matvec(x), 0.0)
        lower = max(lower, float(np.linalg.norm(y, ord=p)))
        z = np.maximum(rmatvec(y ** (p - 1.0)), 0.0)
        xp = x ** (p - 1.0)
        ratio = np.divide(z, xp, out=np.where(z > 0.0, math.inf, 0.0),
                          where=xp > 0.0)
        upper = min(upper, float(np.max(ratio)) ** (1.0 / p))
        if upper - lower <= NORM_RTOL * upper:
            break
        x = z ** (1.0 / (p - 1.0))
        x /= np.linalg.norm(x, ord=p)
    return lower, upper, upper - lower <= NORM_RTOL * upper
