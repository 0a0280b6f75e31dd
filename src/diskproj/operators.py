"""Projection-type operators on disk quadratures.

Four operator kinds share one base class, OperatorHandle: the
reproducing projection (complex kernel conj(B_z(zeta))), its
absolute-kernel majorant, the positive integral operator with kernel
K_Psi(z, zeta) = Psi(|1 - conj(zeta) z|)/|1 - conj(zeta) z|, and the
positive dyadic operators sum_I (Psi(|I|)/|I|) <f, 1_S(I)>_mu 1_S(I) on
either shifted grid. Each kind is its own handle: it defines
fast_apply(g), the product K @ g with the mass-weighted vector
g = f mu, and kernel_block(rows), and the base's apply forms g.

The profile Psi(t) = t^(1-gamma) int dnu(r)/(1 - r(1-t)) is read off the
same pair (gamma, nu) as the kernel (1-w)^(-gamma) int dnu(r)/(1 - r w),
at w = 1 - t. So PsiProfile is a KernelSpec that adds only its
evaluation, and it takes KernelSpec's checks on the pair.

The three integral kernels depend on a node pair only through
w = zeta conj(z). Every band of the quadrature holds a power-of-two
number of equally spaced nodes, so between a row band and a column band
w takes only max(n_a, n_b) distinct values: each band-pair block is
circulant up to index striding. The three integral kinds are one
class, _BandPairTable, that evaluates its kernel once at those values on
first use, and applies it in the mode domain (Davis, Circulant
Matrices): an FFT per group of equal-sized bands, one sparse product
and an inverse FFT per group. Tables and mode matrix are laid out and
built span class by span class, so a build costs a number of numpy
calls that grows with the number of distinct spans, not of band pairs.
Kernel rows (apply with matrix_free=True) use the tables. Both are kept
on the quadrature per (spec, kind), so every handle of one KernelSpec
object and kind on one quadrature reads one build; the absolute-kernel
handle takes the absolute value of the Bergman handle's tables, so the
two evaluate B once.

The dyadic operators are SparseOperator instances, T f = sum_S tau_S
(E^mu_S f) 1_S over the squares of one grid at levels 0..J, with mu the
cell masses and tau_S = Psi(|I|) mu(S)/|I| by default. tau has one
entry per row of the grid's square-by-cell incidence matrix S (disk.py),
which caches every mu(S), and the kernel's value on each square,
square_kernel = tau / mu(S) (0 on a massless square), is divided once
per operator. fast_apply(g) is S^T (square_kernel (S g)): two sparse
products of nnz = about cells x levels each, 0.2 ms apiece at J=12
(196,616 entries). Kernel rows are the rows' squares, weighted by
square_kernel, times S.

Norms run on fast_apply and form no dense matrix: the weighted operator
D((u mu)^(1/p)) K D((sigma mu)^(1/p')) is left * fast_apply(x * right),
with mu inside the two diagonals. Every kernel here is Hermitian, so
the adjoint is the same apply. At p = 2 the norm is the top singular
value, by Golub-Kahan-Lanczos bidiagonalization in numpy, with no
ARPACK; when u mu and sigma mu are constant on every band, a band-pair
handle runs that loop on the residue-0 block of its mode matrix
instead, with no FFT per step (weighted_norm_p2). At p != 2, for a
nonnegative kernel, it is bracketed by Boyd's power iteration below and
the Schur test above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.sparse import csr_array

from .disk import (GRID_SHIFTS, DiskQuadrature, Field, finite_table,
                   nonnegative_table, require_same_quadrature)
from .errors import InvalidRangeError, NoConvergenceError
from .kernels import KernelSpec, kernel_integral_grid, nu_cauchy_grid

_GATHER_ENTRIES = 2 ** 20   # kernel entries per gathered row block


# -- Psi profiles -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PsiProfile(KernelSpec):
    """Psi(t) = t^(1-gamma) int dnu(r)/(1 - r(1-t)) on (0, 2], for the
    kernel data (gamma, nu): gamma finite and >= 1, nu of finite positive
    mass, as KernelSpec checks."""

    name: str = "psi"

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

class OperatorHandle:
    """A linear operator bound to one quadrature: out = K @ (f * mu), mu
    the cell masses.

    A subclass sets quad and positive (K >= 0 entrywise) and defines
    fast_apply(g), the product K @ g computed without forming K (in the
    mode domain or by square sums), and kernel_block(rows), the pure
    kernel submatrix K[rows, :] (no masses), which the matrix-free route
    gathers block by block.
    """

    @property
    def mu(self):
        return self.quad.masses

    def apply(self, values, matrix_free=False):
        """K @ (values * mu) by fast_apply; with matrix_free=True, by
        kernel rows gathered block by block instead."""
        g = finite_table(values, self.mu.shape, "values") * self.mu
        if not matrix_free:
            return self.fast_apply(g)
        n = self.quad.size
        step = max(1, _GATHER_ENTRIES // n)
        return np.concatenate([
            self.kernel_block(np.arange(s, min(s + step, n))) @ g
            for s in range(0, n, step)])

    def _lanczos_operands(self, left, right):
        """(matvec, rmatvec, start) for the Lanczos norm of
        A = D(left) K D(right): the cell-domain products, and the constant
        unit vector, real for a nonnegative kernel."""
        n = left.size
        return (*_cell_products(self, left, right),
                np.full(n, n ** -0.5, float if self.positive else complex))


class _BandPairTable(OperatorHandle):
    """A kernel k(w), w = z_j conj(z_i), tabulated once per ordered band pair.

    For row band a and column band b with n_a and n_b arcs, let
    N = max(n_a, n_b), s_a = N / n_a and s_b = N / n_b (one of them is 1).
    Node angles are (k + 1/2) / n, so between arcs k_a and k_b the angle
    of w is (m + delta) / N with m = (k_b s_b - k_a s_a) mod N and
    delta = (s_b - s_a) / 2, and the block (a, b) holds only the N values
    T_ab[m] = k(r_a r_b e^{2 pi i (m + delta) / N}), evaluated for a <= b:
    T_ba[m] = conj T_ab[-m mod N], as k(conj w) = conj k(w). In the mode
    domain, block (a, b) sends DFT entry m mod n_b of band b to entry
    m mod n_a of band a times S_ab[m] n_a / N, S_ab = ifft(T_ab), m < N.

    The tables are laid out span class by span class (the pairs of one N,
    row-major), T_ab at _offset[a, b], so that a build takes one kernel
    call for every pair a <= b, and per class one conjugated-reversal
    gather for the pairs a > b and one batched inverse FFT: its numpy
    calls grow with the number of distinct spans, not of pairs.
    build(handle) returns the tables; they, the mode matrix and its
    residue-0 block (for radial-weight norms) are kept on the quadrature
    under key, (spec, kind), for every handle of that key.
    """

    def __init__(self, quad: DiskQuadrature, key, build: Callable,
                 positive: bool):
        self.quad = quad
        self.positive = positive
        self._key = key
        self._build = build
        self._arcs = arcs = np.array([b.arc_count for b in quad.bands])
        self._starts = np.array([b.start for b in quad.bands])
        self._span = np.maximum.outer(arcs, arcs)
        self._step = self._span // arcs[:, None]   # s_a of pair (a, b)
        order = np.argsort(self._span, axis=None, kind="stable")
        sizes = self._span.ravel()[order]
        self._offset = np.empty(sizes.size, dtype=np.intp)
        self._offset[order] = np.cumsum(sizes) - sizes
        self._offset = self._offset.reshape(self._span.shape)
        # runs of bands with one arc count: (first cell, end cell, count)
        first = np.flatnonzero(np.diff(arcs, prepend=0))
        ends = [*self._starts[first[1:]], quad.size]
        self._groups = [(int(lo), int(hi), int(arcs[b]))
                        for lo, hi, b in zip(self._starts[first], ends, first)]

    def _span_classes(self):
        """(N, a, b, base) for each distinct span N: its pairs in layout
        order, and the offset of the first."""
        for span in np.unique(self._span):
            a, b = np.nonzero(self._span == span)
            yield int(span), a, b, int(self._offset[a[0], b[0]])

    def _cached(self, name, build):
        tables, key = self.quad._kernel_tables, (*self._key, name)
        if key not in tables:
            tables[key] = build()
        return tables[key]

    @property
    def values(self):
        """All band-pair tables, span class by span class."""
        return self._cached("values", lambda: self._build(self))

    def _evaluate(self, kernel_of_w):
        """The tables of kernel_of_w: one call at the arguments of every
        pair a <= b, the pairs a > b filled by conjugated reversal. A
        table entry that overflows the double range raises
        InvalidRangeError."""
        radius = self.quad.nodes_r[self._starts]
        classes = list(self._span_classes())
        w = []
        for span, a, b, _ in classes:
            a, b = a[a <= b], b[a <= b]
            delta = 0.5 * (span // self._arcs[b] - span // self._arcs[a])
            angle = (np.arange(span) + delta[:, None]) / span
            w.append((radius[a] * radius[b])[:, None]
                     * np.exp(2j * np.pi * angle))
        with np.errstate(over="ignore", invalid="ignore"):
            k = np.asarray(kernel_of_w(np.concatenate(w, axis=None)))
        if not np.all(np.isfinite(k)):
            raise InvalidRangeError(
                f"the kernel table overflows: {np.sum(~np.isfinite(k))} "
                f"of {k.size} entries are not finite")
        out = np.empty(self._span.sum(), dtype=k.dtype)
        upper = np.split(k, np.cumsum([x.size for x in w])[:-1])
        for (span, a, b, base), part in zip(classes, upper):
            rows = out[base:base + a.size * span].reshape(a.size, span)
            up = a <= b
            rows[up] = part.reshape(-1, span)
            # a lower pair reads the row of its transpose, reversed
            src = (self._offset[b[~up], a[~up]] - base) // span
            reverse = -np.arange(span) & span - 1
            rows[~up] = np.conj(rows[src[:, None], reverse])
        return out

    def kernel_block(self, rows):
        """Kernel submatrix K[rows, :], gathered from the tables by the
        flat band-pair index: s_a is _step[a, b], s_b is _step[b, a],
        and as every span is a power of two, mod span is a mask."""
        q = self.quad
        rows = np.asarray(rows)
        pair = q.cell_band[rows][:, None] * self._arcs.size + q.cell_band
        pos = (q.cell_arc * self._step.T.ravel()[pair]
               - q.cell_arc[rows][:, None] * self._step.ravel()[pair]) \
            & (self._span - 1).ravel()[pair]
        return self.values[self._offset.ravel()[pair] + pos]

    @property
    def modes(self):
        """K as one CSR matrix on the concatenated per-band DFTs."""
        return self._cached("modes", self._mode_matrix)

    def _mode_matrix(self, fold=1):
        """The mode matrix on the modes m = 0 mod fold of every band,
        written in canonical order: row r of band a holds, band b by band
        b, the entries m = r + k n_a of block (a, b), k ascending (s_a of
        them), in column order. Every arc count is a power of two, so
        mod n is a mask and // n a shift.

        S_ab at the multiples of fold is the inverse DFT of T_ab folded
        to span / fold entries, T'[m] = sum_s T[m + s span / fold]. So
        the block is the mode matrix of the folded tables on bands of
        n / fold arcs; fold = 1 gives all of K's."""
        values, arcs = self.values, self._arcs // fold
        starts = np.cumsum(arcs) - arcs
        shift = np.log2(arcs).astype(int)
        row_len = self._step.sum(axis=1)
        # int32 indices, as the incidence has: the cell budget keeps the
        # entry count far below 2^31
        indptr = np.zeros(arcs.sum() + 1, dtype=np.int32)
        np.cumsum(np.repeat(row_len, arcs), out=indptr[1:])
        first = indptr[starts]       # band a's first entry
        # where block (a, b) starts within a row of band a
        before = np.cumsum(self._step, axis=1) - self._step
        data = np.empty(indptr[-1], dtype=complex)
        indices = np.empty(indptr[-1], dtype=np.int32)
        for span, a, b, base in self._span_classes():
            rows = values[base:base + a.size * span].reshape(
                a.size, fold, span // fold).sum(axis=1)
            span //= fold
            m = np.arange(span)
            n_a = arcs[a, None]
            pos = (first[a, None] + (m & n_a - 1) * row_len[a, None]
                   + before[a, b][:, None] + (m >> shift[a, None]))
            data[pos] = np.fft.ifft(rows, norm="forward") * (n_a / span)
            indices[pos] = starts[b, None] + (m & arcs[b, None] - 1)
        return csr_array((data, indices, indptr), shape=(arcs.sum(),) * 2)

    def fast_apply(self, g):
        """K @ g through the mode-domain matrix, the bands of one arc
        count transformed together; real for a positive kernel on a real
        g."""
        g_hat = np.concatenate([np.fft.fft(g[lo:hi].reshape(-1, n)).ravel()
                                for lo, hi, n in self._groups])
        acc = self.modes @ g_hat
        out = np.concatenate([np.fft.ifft(acc[lo:hi].reshape(-1, n)).ravel()
                              for lo, hi, n in self._groups])
        return out.real if self.positive and not np.iscomplexobj(g) else out

    def _lanczos_operands(self, left, right):
        """On the residue-0 block of the mode matrix when left and right
        are each constant on every band; in the cell domain otherwise.

        The kernel depends only on w, so with such weights A commutes
        with rotation by one core arc (1/c turn, c = 2^(1+j0) the
        fewest arcs of a band), which multiplies DFT entry m of every
        band by e^(-2 pi i m / c). The mode matrix M then couples only
        modes of one residue mod c, and the constant vector lies in
        residue 0, the modes m = 0, c, 2c, ... of each band. In the
        unitary per-band DFT, F_b / sqrt(n_b), A is
        D(left / sqrt n) M D(right sqrt n), n the band's arc count; as
        K = K^H gives M^H = D(1/n) M D(n), its adjoint is
        D(right / sqrt n) M D(left sqrt n). The constant unit vector maps
        to sqrt(n_b / N) at each band's mode 0, N the cell count. No
        FFT runs per product, and the block is kept on the quadrature
        beside the mode matrix.

        A nonnegative kernel is real, so it maps the DFT of a real
        vector, y[-m] = conj y[m], to another. Its operands then take
        real coordinates, as the cell route does: y[m] at m = -m mod n_b,
        and sqrt 2 Re y[m] and sqrt 2 Im y[m] for the pair m, -m with
        0 < m < n_b / 2, an orthonormal basis, so the Lanczos bases stay
        real."""
        if not all(np.array_equal(d, np.repeat(d[self._starts], self._arcs))
                   for d in (left, right)):
            return super()._lanczos_operands(left, right)
        q, c = self.quad, self._arcs.min()
        residue = np.flatnonzero(q.cell_arc % c == 0)
        block = self._cached("residue0", lambda: self._mode_matrix(c))
        root = np.sqrt(self._arcs[q.cell_band[residue]])
        l_out, l_in = left[residue] / root, left[residue] * root
        r_out, r_in = right[residue] / root, right[residue] * root
        start = np.where(q.cell_arc[residue] == 0, root / math.sqrt(q.size),
                         0.0)
        if not self.positive:
            return (lambda x: l_out * (block @ (r_in * x)),
                    lambda y: r_out * (block @ (l_in * y)),
                    start.astype(complex))
        # coordinate i is mode k c of a band of d c arcs: for the low
        # modes 0 < k < d / 2, mode -k c = (d - k) c is d - 2k further on
        k, d = q.cell_arc[residue] // c, self._arcs[q.cell_band[residue]] // c
        low = np.flatnonzero((k > 0) & (2 * k < d))
        high = low + d[low] - 2 * k[low]

        def modes(x):
            y = x.astype(complex)
            y[low] = (x[low] + 1j * x[high]) * 0.5 ** 0.5
            y[high] = np.conj(y[low])
            return y

        def real(y):
            x = y.real.copy()
            x[high] = y.imag[low] * 2.0 ** 0.5
            x[low] *= 2.0 ** 0.5
            return x

        return (lambda x: l_out * real(block @ modes(r_in * x)),
                lambda y: r_out * real(block @ modes(l_in * y)), start)


def bergman_handle(spec: KernelSpec, quad: DiskQuadrature) -> OperatorHandle:
    """P_omega: out(z_i) = sum_j f(z_j) conj(B_{z_i}(z_j)) mass_j."""
    return _BandPairTable(quad, (spec, "bergman"), lambda h: h._evaluate(
        lambda w: np.conj(kernel_integral_grid(spec, w))), positive=False)


def positive_handle(spec: KernelSpec, quad: DiskQuadrature) -> OperatorHandle:
    """P+_omega: absolute kernel |B_{z_i}(z_j)|, the absolute value of the
    Bergman handle's tables (|conj B| = |B| bit for bit), so that the
    kernel is evaluated once per spec and quadrature."""
    return _BandPairTable(
        quad, (spec, "positive"),
        lambda h: np.abs(bergman_handle(spec, quad).values), positive=True)


def psi_positive_handle(psi: PsiProfile, quad: DiskQuadrature
                        ) -> OperatorHandle:
    """P+_{Psi} with kernel K_Psi against the cell masses."""
    # K_Psi(z_i, z_j) depends only on |1 - conj(z_j) z_i| = |1 - w|,
    # which is also the separation K_Psi sees at the pair (w, 1)
    return _BandPairTable(quad, (psi, "psi"), lambda h: h._evaluate(
        lambda w: psi.kernel(w, 1.0)), positive=True)


# -- the dyadic model operator -------------------------------------------------

@dataclass(eq=False)
class SparseOperator(OperatorHandle):
    """T f = sum_S tau_S (E^mu_S f) 1_S over the Carleson squares of one
    grid at levels 0..J, with mu the cell masses: mu(S) is the square
    mass cached on the grid's incidence. tau >= 0 has one entry per
    incidence row, levels 0..J stacked like the incidence's masses.

    Its kernel is K_ij = sum over squares S holding both cells of
    square_kernel[S] = tau_S / mu(S), 0 on a massless square, so that
    T f = K (f mu). With S the incidence matrix,
    K g = S^T (square_kernel (S g)): one product each way.
    """

    beta: float
    quad: DiskQuadrature
    tau: np.ndarray                    # tau per incidence row
    positive = True

    def __post_init__(self):
        self._incidence = inc = self.quad.incidence(self.beta)
        self.tau = nonnegative_table(self.tau, inc.masses.shape, "tau")
        self.square_kernel = np.divide(self.tau, inc.masses,
                                       out=np.zeros(inc.masses.shape),
                                       where=inc.masses > 0.0)

    def fast_apply(self, g):
        """K @ g for the mass-weighted cell values g = f mu."""
        g = np.asarray(g)
        if np.iscomplexobj(g):  # keep the products on real ones
            return self.fast_apply(g.real) + 1j * self.fast_apply(g.imag)
        inc = self._incidence
        return inc.St @ (self.square_kernel * (inc.S @ g))

    def kernel_block(self, rows):
        """Kernel submatrix K[rows, :]: the rows' squares, each weighted
        by square_kernel, times S."""
        inc = self._incidence
        return (inc.St[np.asarray(rows)].multiply(self.square_kernel)
                @ inc.S).toarray()


def sparse_bergman_model(psi: PsiProfile, quad: DiskQuadrature, beta=0.0,
                         tau: Optional[np.ndarray] = None
                         ) -> SparseOperator:
    """The dyadic model of the kernel profile: tau_S = Psi(|I|) mu(S)/|I|
    at levels 0..J. A custom tau, one entry per incidence row, overrides
    the default."""
    if tau is None:
        levels = np.arange(quad.J + 1)
        # psi * 2^l is exact, so tau rounds as Psi(|I|) mu(S) / |I| does
        tau = np.repeat(psi(2.0 ** -levels) * 2.0 ** levels,
                        1 << levels) * quad.incidence(beta).masses
    return SparseOperator(beta, quad, tau)


def apply_sparse(T: SparseOperator, f: Field) -> Field:
    """Evaluate sum_S tau_S (E^mu_S f) 1_S; linear, positive on f >= 0."""
    require_same_quadrature(T.quad, f)
    return Field(T.quad, T.apply(f.values))


def dyadic_handle(beta, psi: PsiProfile, quad: DiskQuadrature
                  ) -> SparseOperator:
    """P^beta_{Psi} = sum over grid squares of (Psi(|I|)/|I|) <f,1_S>_mu 1_S:
    sparse_bergman_model's operator."""
    return sparse_bergman_model(psi, quad, beta)


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
    require_same_quadrature(quad, h)
    out = h.apply(np.ones(quad.size))
    return float(np.max(np.abs(out[quad.core_mask] - 1.0)))


# -- kernel comparability -----------------------------------------------------

def comparability_constants(psi: PsiProfile, quad: DiskQuadrature):
    """min and max over the quadrature's node pairs of
    K_Psi / (K^0 + K^(1/2)), dyadic levels 0..J: the Psi handle's table
    over the dyadic handles' kernel rows, in row blocks. The half turn
    t -> t + 1/2 keeps the nodes and both grids, so rows t < 1/2 hold
    every value; for j0 >= 1, where no node lies on an arc end, so does
    the reflection t -> 1 - t, and rows t < 1/4 suffice. The root square
    holds every node, so the denominator is never zero."""
    numerator = psi_positive_handle(psi, quad).kernel_block
    dyadic = [dyadic_handle(beta, psi, quad).kernel_block
              for beta in GRID_SHIFTS]
    rows = np.flatnonzero(quad.nodes_t < (0.25 if quad.j0 else 0.5))
    step = max(1, _GATHER_ENTRIES // quad.size)
    lo, hi = math.inf, 0.0
    for s in range(0, rows.size, step):
        block = rows[s:s + step]
        ratio = numerator(block) / sum(k(block) for k in dyadic)
        lo, hi = min(lo, ratio.min()), max(hi, ratio.max())
    return float(lo), float(hi)


# -- weighted operator norms ---------------------------------------------------

NORM_RTOL = 1e-12        # a bracket is closed when its gap is this, relative
NORM_MAX_STEPS = 500     # Boyd steps before an open bracket is returned,
                         # and the cap on Lanczos steps


def _weighted_diagonals(handle: OperatorHandle, u, sigma, p):
    """(left, right) = ((u mu)^(1/p), (sigma mu)^(1/p')): the diagonals of
    A = D(left) K D(right), whose l^p norm is the L^p(sigma mu) ->
    L^p(u mu) norm of f -> K (sigma mu f)."""
    mu = handle.mu
    left = (nonnegative_table(u, mu.shape, "u") * mu) ** (1.0 / p)
    right = (nonnegative_table(sigma, mu.shape, "sigma") * mu) ** (1 - 1 / p)
    return left, right


def _cell_products(handle: OperatorHandle, left, right):
    """(matvec, rmatvec) of A = D(left) K D(right) by fast_apply on the
    cells; K is Hermitian, so the adjoint is the same apply."""
    return (lambda x: left * handle.fast_apply(np.ravel(x) * right),
            lambda y: right * handle.fast_apply(np.ravel(y) * left))


def weighted_norm_p2(handle: OperatorHandle, u, sigma):
    """Exact L^2(sigma mu) -> L^2(u mu) norm of f -> K (sigma mu f): the
    largest singular value of A = D(sqrt(u mu)) K D(sqrt(sigma mu)).

    Golub-Kahan-Lanczos bidiagonalization (Golub and Kahan, SIAM J.
    Numer. Anal. B 2, 1965) from the constant vector, so that a result
    repeats exactly: u_k = A v_k - beta_(k-1) u_(k-1) and
    v_(k+1) = A^H u_k - alpha_k v_k, both bases fully reorthogonalized,
    give A V_k = U_k B_k with B_k upper bidiagonal (alpha on the
    diagonal, beta above it). For B_k's top triplet (s, p, q),
    A V_k q = s U_k p and ||A^H U_k p - s V_k q|| = beta_k |p_k|. The
    iteration stops when that residual is at most eps s, or when V_k
    spans the space; it raises NoConvergenceError after NORM_MAX_STEPS
    steps.

    A zero u or sigma gives 0. When alpha_k = 0 or beta_k <= eps s the
    Krylov space of the constant vector is invariant, to rounding. For a
    nonnegative kernel s is then the norm: A has a nonnegative top right
    singular vector (Perron-Frobenius), which is not orthogonal to the
    constant vector, so its projection on the space is a top singular
    vector as well. A zero first product A 1 thus gives 0. For any other
    kernel the space may miss the top singular vector, and a breakdown
    raises NoConvergenceError.

    The loop runs on one of two sets of operands, chosen by the handle
    from u mu and sigma mu alone. A band-pair kernel (Bergman, its
    absolute value, K_Psi) under weights for which u mu and sigma mu are
    each constant on every band, the radial weights, runs on the
    residue-0 block of its mode matrix, N / 2^(1+j0) coordinates for N
    cells (real ones for a nonnegative kernel), with no FFT per step
    (_BandPairTable._lanczos_operands). Every other case, a dyadic
    SparseOperator or a weight that varies along a band, runs in the
    cell domain on fast_apply. The block holds the constant vector's
    whole Krylov space, so both give one result to rounding; when V_k
    fills the block it is an invariant space, with the rule above, as
    it is for the cell route, which reaches the same breakdown there.
    That space misses the other residues on either route, which a
    nonnegative kernel's top singular vector never needs; the Bergman
    kernel's can lie there, and then both return the residue-0 norm,
    below the operator's: 10.3549 against 10.3812 for gamma 2 and the
    half-atom nu at J = 6, j0 = 2, u = (1-r)^(-1/2) and
    sigma = (1-r)^0.3 (1 - log(1-r)).
    """
    left, right = _weighted_diagonals(handle, u, sigma, 2.0)
    if not (np.any(left) and np.any(right)):
        return 0.0  # a zero weighted diagonal: the operator is zero
    matvec, rmatvec, start = handle._lanczos_operands(left, right)
    n = start.size
    steps = min(n, NORM_MAX_STEPS)
    eps = np.finfo(float).eps
    # rows are only paged in as they are written
    dtype = start.dtype
    U, V = np.empty((steps, n), dtype), np.empty((steps + 1, n), dtype)
    alpha, beta = np.zeros(steps), np.zeros(steps)
    V[0] = start
    for k in range(steps):
        x = matvec(V[k])
        if k:
            x = x - beta[k - 1] * U[k - 1]
        x = _orthogonalize(x, U[:k])
        alpha[k] = _product_norm(x)
        if alpha[k] > 0.0:
            U[k] = x / alpha[k]
            y = _orthogonalize(rmatvec(U[k]) - alpha[k] * V[k], V[:k + 1])
            beta[k] = _product_norm(y)
        P, s, _ = np.linalg.svd(np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1))
        if k + 1 == handle.mu.size:
            return float(s[0])  # V spans the space: B_n has A's spectrum
        # an invariant space: V fills the operands' block, or alpha_k = 0,
        # or beta_k vanishes to rounding
        if k + 1 == n or beta[k] <= eps * s[0]:
            if handle.positive:
                return float(s[0])
            raise NoConvergenceError(
                f"Lanczos norm: the Krylov space of the constant vector is "
                f"invariant after {k + 1} steps, and the kernel is not "
                f"nonnegative")
        if beta[k] * abs(P[-1, 0]) <= eps * s[0]:
            return float(s[0])
        V[k + 1] = y / beta[k]
    raise NoConvergenceError(f"Lanczos norm: residual above eps times the "
                             f"norm after {steps} steps")


def _product_norm(x, ord=None):
    """The ord-norm of a product of the weighted operator. When the plain
    norm overflows on finite entries, it is max|x| times the norm of
    x / max|x|; a norm past the double range raises InvalidRangeError."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(x, ord=ord))
        if not math.isfinite(norm) and np.all(np.isfinite(x)):
            scale = float(np.max(np.abs(x)))
            norm = scale * float(np.linalg.norm(x / scale, ord=ord))
    if not math.isfinite(norm):
        raise InvalidRangeError("the weighted operator overflows: a "
                                "product's norm is not finite")
    return norm


def _orthogonalize(x, basis):
    """x less its projection on the orthonormal rows of basis, taken
    twice (classical Gram-Schmidt with reorthogonalization)."""
    for _ in range(2):
        x = x - np.conj(basis @ np.conj(x)) @ basis
    return x


def weighted_norm_bracket(handle: OperatorHandle, u, sigma, p):
    """(lower, upper, closed) for the L^p(sigma mu) -> L^p(u mu) norm of
    f -> K (sigma mu f); closed means a gap of at most NORM_RTOL relative.

    At p = 2 the bracket is one point (weighted_norm_p2). Otherwise, for a
    nonnegative kernel, Boyd's iteration runs from the constant vector:
    y = A x, z = A^T y^(p-1), x <- z^(p'-1) normalized in l^p, at most
    NORM_MAX_STEPS times. ||y||_p bounds ||A|| below, and the Schur test
    bounds it above by max_j (z_j / x_j^(p-1))^(1/p) over x_j > 0 (the
    other cells are zero columns of A). Only a finite upper end closes
    the bracket, and a power past the double range raises
    InvalidRangeError."""
    if p == 2.0:
        s = weighted_norm_p2(handle, u, sigma)
        return s, s, True
    if not (1.0 < p < math.inf and handle.positive):
        raise InvalidRangeError(f"Boyd's iteration needs p in (1, inf), not "
                                f"{p}, and a nonnegative kernel")
    matvec, rmatvec = _cell_products(
        handle, *_weighted_diagonals(handle, u, sigma, p))
    n = handle.mu.size
    x = np.full(n, n ** (-1.0 / p))
    lower, upper = 0.0, math.inf
    for _ in range(NORM_MAX_STEPS):
        # clip FFT round-off below zero before the fractional powers
        y = np.maximum(matvec(x), 0.0)
        lower = max(lower, _product_norm(y, p))
        z = np.maximum(rmatvec(_boyd_power(y, p - 1.0)), 0.0)
        xp = x ** (p - 1.0)
        ratio = np.divide(z, xp, out=np.where(z > 0.0, math.inf, 0.0),
                          where=xp > 0.0)
        upper = min(upper, float(np.max(ratio)) ** (1.0 / p))
        closed = math.isfinite(upper) and upper - lower <= NORM_RTOL * upper
        if closed:
            break
        x = _boyd_power(z, 1.0 / (p - 1.0))
        x /= _product_norm(x, p)
    return lower, upper, closed


def _boyd_power(x, exponent):
    """x ** exponent; a power past the double range raises
    InvalidRangeError."""
    with np.errstate(over="ignore"):
        out = x ** exponent
    if not np.all(np.isfinite(out)):
        raise InvalidRangeError(f"the weighted operator overflows: a power "
                                f"^{exponent:g} of a product is not finite")
    return out
