"""Stopping squares, testing constants and the one-weight experiment.

They run on the sparse dyadic operator T f = sum_S tau_S (E^mu_S f) 1_S
of operators.py: levels 0..J, mu the cell masses, each mu(S) cached on
the grid's square-by-cell incidence matrix S (disk.py), and the
operator's square_kernel = tau / mu(S), its kernel's value on each
square, divided once when it is built. Every square sum they need is
one single-vector product S @ c over all levels per field
(SquareIncidence.sums), and the stopped sum of the linearization one
product with the transpose; each costs one pass over nnz = about
cells x levels entries.
A square is addressed by its row of S; (level, index) pairs appear only
in what this module returns, and come from one table of tuples over
the rows to disk.MAX_DEPTH, built once per process on first use, so
every list and view shares them. On the nested beta = 0 grid, where
row r has the children 2r + 1 and 2r + 2, the stopping squares take
one top-down array pass over those sums, and StoppingFamily keeps the
pass's arrays over the rows, from which the linearization (its maximal
bound by the incidence's heap pass) and the Carleson embedding sum
read; the Sawyer testing constants take one tree pass per side with no
apply of T (see _testing_sup), whose suffix sums over levels still
spread level by level, each member's square read from its deepest row.
The half-shifted grid does not nest, so there the testing constants
apply T once per square: 2^(d+1) - 1 applies per side at depth d. The
operator norms iterate on fast applies and form no dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Dict, List, Tuple

import numpy as np

from .disk import (MAX_DEPTH, DiskQuadrature, DyadicInterval, Field,
                   check_integer, conjugate_exponent, finite_table,
                   nonnegative_table, require_same_quadrature,
                   square_address, square_row, square_rows)
from .errors import InvalidRangeError
from .kernels import KernelSpec
from .operators import (PsiProfile, SparseOperator, apply_sparse,
                        positive_handle, sparse_bergman_model,
                        weighted_norm_bracket)
from .weights import (WeightField, bp_characteristic, dual_weight,
                      weight_field)

Square = Tuple[int, int]          # (level, arc index) on a fixed grid


# -- stopping squares ----------------------------------------------------------

@dataclass(eq=False)
class StoppingFamily:
    """Stopping squares under a root on the unshifted grid, as arrays
    over the rows of its incidence (disk.SquareIncidence): sums is
    (sigma mu)(S), averages the sigma mu average of |f| on S (0 on
    massless squares), owner the row of lambda(S), the minimal stopping
    ancestor of a positive-mass square S under the root, and generation
    the generation of a stopping square; both are -1 elsewhere. The
    (level, index) views are built on first read."""

    quad: DiskQuadrature
    sums: np.ndarray
    averages: np.ndarray
    owner: np.ndarray
    generation: np.ndarray
    sigma_mu: np.ndarray
    f_abs: np.ndarray

    @cached_property
    def generations(self) -> List[List[Square]]:
        """The stopping squares of each generation, in level-then-index
        order."""
        stops = np.flatnonzero(self.generation >= 0)
        gen = self.generation[stops]
        return [_squares(stops[gen == g]) for g in range(gen.max() + 1)]

    @cached_property
    def expectations(self) -> Dict[Square, float]:
        """The stopped E^{sigma mu}_L |f| of each stopping square L."""
        stops = np.flatnonzero(self.generation >= 0)
        return dict(zip(_squares(stops), self.averages[stops].tolist()))

    @cached_property
    def assignment(self) -> Dict[Square, Square]:
        """lambda(S) of each positive-mass square S under the root."""
        rows = np.flatnonzero(self.owner >= 0)
        return dict(zip(_squares(rows), _squares(self.owner[rows])))

    def stopping_squares(self):
        return [L for gen in self.generations for L in gen]


@cache
def _square_table():
    """The (level, index) of every incidence row to MAX_DEPTH, built on
    first use: the lists and views of this module share these tuples."""
    return list(zip(*(a.tolist() for a in square_address(
        np.arange(square_row(MAX_DEPTH + 1, 0))))))


def _squares(rows):
    """The (level, index) of each incidence row, from the shared table."""
    return list(map(_square_table().__getitem__, rows.tolist()))


def stopping_family(f: Field, sigma: WeightField, s0: DyadicInterval
                    ) -> StoppingFamily:
    """Breadth-first stopping-square generations at threshold factor 4.

    Starting from S0, each stopping square L spawns the maximal squares
    strictly inside it whose sigma*mu average of |f| exceeds 4 times
    L's. Zero-mass squares are skipped (all their descendants are
    massless too). The assignment map sends every positive-mass square
    under S0 to its minimal stopping ancestor.

    One top-down pass over the levels: the squares under S0 at a level
    are one range of rows, the children of the range above, and each
    takes its parent's owner unless it stops itself.
    """
    quad = f.quad
    require_same_quadrature(quad, sigma)
    if s0.beta != 0.0:
        raise InvalidRangeError("stopping construction runs on the "
                                "unshifted grid (its squares nest)")
    if s0.level > quad.J:
        raise InvalidRangeError("root below the quadrature's depth")

    sm_cell = sigma.values * quad.masses
    f_abs = np.abs(finite_table(f.values, (quad.size,), "f"))
    # sigma mu and the average of |f| on every square, by incidence row
    sums, sm_f = quad.incidence(0.0).sums(sm_cell, f_abs * sm_cell)
    # in place into sm_f's own product: it is already 0 on the massless
    # squares, where the average is 0
    averages = np.divide(sm_f, sums, out=sm_f, where=sums > 0.0)

    root = square_row(s0.level, s0.index)
    if not averages[root] > 0.0:
        raise InvalidRangeError("root average of |f| must be positive")
    owner = np.full(sums.shape, -1, dtype=np.int32)
    generation = owner.copy()
    owner[root] = root
    generation[root] = 0
    lo, hi = root, root + 1          # the rows under S0 at a level
    for _ in range(quad.J - s0.level):
        lo, hi = 2 * lo + 1, 2 * hi + 1
        rows = np.arange(lo, hi)
        live = sums[rows] > 0.0
        if not live.any():
            break                        # every deeper square is massless
        anc = owner[(rows - 1) >> 1]
        stop = live & (averages[rows] > 4.0 * averages[anc])
        owner[rows] = np.where(stop, rows, np.where(live, anc, -1))
        generation[rows] = np.where(stop, generation[anc] + 1, -1)
    return StoppingFamily(quad=quad, sums=sums, averages=averages,
                          owner=owner, generation=generation,
                          sigma_mu=sm_cell, f_abs=f_abs)


def pointwise_linearization(family: StoppingFamily):
    """(lhs, rhs) of the pointwise stopped-sum bound at the nodes:
    lhs(z) = sum of E_L over stopping L containing z, rhs = (4/3) M f(z)
    with M the dyadic maximal function of |f| in sigma*mu: the max of
    the family's averages over each cell's squares, by the heap pass of
    weights.dyadic_maximal."""
    inc = family.quad.incidence(0.0)
    stopped = np.where(family.generation >= 0, family.averages, 0.0)
    # a cell's squares add level by level, the order of the stopped sum
    lhs = inc.St @ stopped
    return lhs, (4.0 / 3.0) * inc.cell_max(family.averages)


def carleson_embedding_sum(family: StoppingFamily, p) -> float:
    """sum_L (E^{sigma mu}_L |f|)^p (sigma mu)(L) over the stopping family,
    in level-then-index order."""
    conjugate_exponent(p)
    stops = np.flatnonzero(family.generation >= 0)
    total = 0.0
    for e_l, mass in zip(family.averages[stops].tolist(),
                         family.sums[stops].tolist()):
        total += e_l ** p * mass
    return total


# -- testing constants ---------------------------------------------------------

@dataclass(frozen=True)
class TestingReport:
    p: float
    depth: int
    c0: float                  # sup ||T(sigma 1_S)||^p_{L^p_mu(u)} / (sigma mu)(S)
    c0_star: float             # dual sup with (u, p') in place of (sigma, p)
    c0_root: float             # c0 ** (1/p)
    c0_star_root: float        # c0_star ** (1/p')
    witness_c0: Square
    witness_c0_star: Square
    norm_lower: float          # certified bracket [norm_lower, norm_upper]
    norm_upper: float
    norm_exact: bool           # the bracket is closed to operators.NORM_RTOL
    c1_measured: float         # norm_lower / (c0_root + c0_star_root)


def _testing_sup(T, source_vals, target_vals, p, depth):
    """sup over squares Q to the given depth of
    ||T(s 1_Q)||^p_{L^p(t mu)} / (s mu)(Q), for source s and target t,
    with its first witness in level-then-index order. Massless squares
    count as 0.

    On the nested grid, for Q at level l, T(s 1_Q) = D_l + (s mu)(Q) A(Q)
    on Q. With k_S = T.square_kernel, tau_S / mu(S) and 0 on a massless
    square, D_l(z) sums k_S (s mu)(S) = tau_S <s>_S over the squares S at
    levels >= l holding z, and A(Q) sums k_S over the strict ancestors
    of Q. Off Q it is (s mu)(Q) A(C) on C's parent minus C,
    for each ancestor-or-self C of Q below the root, so the norm off Q
    is (s mu)(Q)^p W(Q), W(C) = W(parent) + A(C)^p (t mu)(parent minus C).
    """
    if T.beta != 0.0:
        return _square_by_square_sup(T, source_vals, target_vals, p, depth)
    quad = T.quad
    top = min(quad.J, depth)
    inc = quad.incidence(0.0)
    s_mu, t_mu = source_vals * quad.masses, target_vals * quad.masses
    s_sq, t_sq = inc.sums(s_mu, t_mu)
    # top-down: A and W at every level to the depth
    A, W = [np.zeros(1)], [np.zeros(1)]
    for lev in range(top):
        t_mass = t_sq[square_rows(lev)]
        a_child = np.repeat(A[lev] + T.square_kernel[square_rows(lev)], 2)
        A.append(a_child)
        W.append(np.repeat(W[lev], 2) + a_child ** p * (
            np.repeat(t_mass, 2) - t_sq[square_rows(lev + 1)]))
    # bottom-up: D_l, then each level's best square (>= keeps the first).
    # A member of depth L has its deepest row d and, at level l, the row
    # ((d + 1) >> (L - l)) - 1: node = d + 1 halves after each level and
    # reads 2^l + arc index at level l.
    node = inc.deepest + 1
    D = np.zeros(quad.size)
    best, witness = 0.0, (0, 0)
    for lev in range(quad.J, -1, -1):
        start, count = quad.level_start(lev), 1 << lev
        rows = square_rows(lev)
        arcs = node[start:] - count
        node[start:] >>= 1
        s_mass = s_sq[rows]
        D[start:] += (T.square_kernel[rows] * s_mass)[arcs]
        if lev > top:
            continue
        on_q = np.abs(D[start:] + (s_mass * A[lev])[arcs]) ** p
        norm = np.bincount(arcs, weights=on_q * t_mu[start:],
                           minlength=count) + s_mass ** p * W[lev]
        ratio = np.divide(norm, s_mass, out=np.zeros(count),
                          where=s_mass > 0.0)
        k = int(np.argmax(ratio))
        if ratio[k] > 0.0 and ratio[k] >= best:
            best, witness = float(ratio[k]), (lev, k)
    return best, witness


def _square_by_square_sup(T, source_vals, target_vals, p, depth):
    """_testing_sup by one apply of T per square, for the half-shifted
    grid, whose squares do not nest."""
    quad = T.quad
    best, witness = 0.0, (0, 0)
    tmu = target_vals * quad.masses
    inc = quad.incidence(T.beta)
    denom = inc.S @ (source_vals * quad.masses)
    for lev in range(min(quad.J, depth) + 1):
        for m in range(1 << lev):
            row = square_row(lev, m)
            d = float(denom[row])
            if d <= 0.0:
                continue
            f_vals = np.zeros(quad.size)
            cells = inc.cells(row)
            f_vals[cells] = source_vals[cells]
            out = apply_sparse(T, Field(quad, f_vals)).values
            val = float(np.sum(np.abs(out) ** p * tmu))
            ratio = val / d
            if ratio > best:
                best, witness = ratio, (lev, m)
    return best, witness


def testing_constants(T: SparseOperator, sigma: WeightField, u: WeightField,
                      p, depth) -> TestingReport:
    """Sawyer testing constants on squares to the given depth, plus the
    operator norm from L^p(sigma mu) to L^p(u mu) acting as f -> T(sigma f).

    The norm is the certified bracket of operators.weighted_norm_bracket;
    the necessity inequalities c0^(1/p) <= norm and c0*^(1/p') <= norm
    are exact only when it is closed.
    """
    q = conjugate_exponent(p)
    check_integer(depth, "depth")
    require_same_quadrature(T.quad, sigma, u)
    c0, wit0 = _testing_sup(T, sigma.values, u.values, p, depth)
    c0s, wits = _testing_sup(T, u.values, sigma.values, q, depth)

    norm, upper, exact = weighted_norm_bracket(T, u.values, sigma.values, p)
    c0_root = c0 ** (1.0 / p)
    c0s_root = c0s ** (1.0 / q)
    denom = c0_root + c0s_root
    c1 = norm / denom if denom > 0.0 else math.inf
    return TestingReport(p=p, depth=depth, c0=c0, c0_star=c0s,
                         c0_root=c0_root, c0_star_root=c0s_root,
                         witness_c0=wit0, witness_c0_star=wits,
                         norm_lower=norm, norm_upper=upper, norm_exact=exact,
                         c1_measured=c1)


def split_by_criterion(f: Field, g: Field, sigma: WeightField,
                       u: WeightField, p, depth):
    """Partition the unshifted grid's squares to the given depth: S
    goes to S1 when
    (E^{mu sigma}_S f)^p (mu sigma)(S) >= (E^{mu u}_S g)^{p'} (mu u)(S),
    to S2 otherwise. Ties go to S1; massless squares are skipped."""
    q = conjugate_exponent(p)
    check_integer(depth, "depth")
    quad = f.quad
    require_same_quadrature(quad, g, sigma, u)
    fv, gv = (nonnegative_table(h.values, (quad.size,), name)
              for h, name in ((f, "f"), (g, "g")))
    mu = quad.masses
    sig_mu, u_mu = sigma.values * mu, u.values * mu
    inc = quad.incidence(0.0)
    rows = slice(0, square_rows(min(depth, quad.J)).stop)
    msig, m_u, f_sig, g_u = (col[rows] for col in inc.sums(
        sig_mu, u_mu, fv * sig_mu, gv * u_mu))
    e_f = np.divide(f_sig, msig, out=np.zeros(msig.shape), where=msig > 0.0)
    e_g = np.divide(g_u, m_u, out=np.zeros(m_u.shape), where=m_u > 0.0)
    # massless squares are skipped, and every square past J is massless
    live = np.flatnonzero(inc.masses[rows] > 0.0)
    first = e_f[live] ** p * msig[live] >= e_g[live] ** q * m_u[live]
    return _squares(live[first]), _squares(live[~first])


# -- one-weight experiment -----------------------------------------------------

@dataclass(frozen=True)
class OneWeightReport:
    p: float
    depth: int
    bp_value: float
    norm: float                # certified bracket [norm, norm_upper]
    norm_upper: float
    norm_exact: bool           # the bracket is closed to operators.NORM_RTOL
    ratio: float               # norm / bp ** max(1, 1/(p-1))
    psi_mu_ratios: tuple       # Psi(|I|) mu(S(I)) / |I| per level
    psi_mu_band: tuple         # (min, max) of the ratios over levels with mass
    top_half_max_ratio: float  # max over levels of mu(S(I)) / mu(T(I))


def one_weight_norm_experiment(spec: KernelSpec, v: WeightField, p,
                               depth) -> OneWeightReport:
    """Norm of the positive projection on L^p(v) against the weight
    characteristic, plus the structural facts the comparison rests on:
    Psi(|I|) mu(S(I)) / |I| stays in a band over levels, and the square
    keeps a fixed share of its mass in the top half.

    Both are read from the beta = 0 grid, whose squares at a level all
    carry the same mass: the ratio is the dyadic model's tau
    (sparse_bergman_model) at the level's first square, 0 past J, and
    the share is mu(S) over mu(S) less its two children."""
    quad = v.quad
    bp = bp_characteristic(v, p, depth)
    sigma = dual_weight(v, p)
    norm, upper, exact = weighted_norm_bracket(positive_handle(spec, quad),
                                               v.values, sigma.values, p)
    ratio = norm / bp.value ** max(1.0, 1.0 / (p - 1.0))

    tau = sparse_bergman_model(PsiProfile(spec.gamma, spec.nu), quad).tau
    masses = quad.incidence(0.0).masses
    ratios = [0.0] * (depth + 1)
    shares = []
    for lev in range(min(depth, quad.J) + 1):
        row = square_row(lev, 0)
        if masses[row] <= 0.0:
            continue
        ratios[lev] = float(tau[row])
        # a square at level J has no children: all of it is top half
        top = masses[row] - (masses[2 * row + 1] + masses[2 * row + 2]
                             if lev < quad.J else 0.0)
        if top > 0.0:
            shares.append(float(masses[row] / top))
    live = [x for x in ratios if x > 0.0]
    band_lim = (min(live), max(live)) if live else (0.0, math.inf)
    return OneWeightReport(p=p, depth=depth, bp_value=bp.value, norm=norm,
                           norm_upper=upper, norm_exact=exact, ratio=ratio,
                           psi_mu_ratios=tuple(ratios), psi_mu_band=band_lim,
                           top_half_max_ratio=max(shares) if shares else
                           math.inf)


def random_instance(quad: DiskQuadrature, seed):
    """A reproducible (sigma, u, f, g) tuple: power-law-times-bump
    weights and heavy-tailed nonnegative fields, for stress sweeps."""
    rng = np.random.default_rng(seed)
    def one_weight(tag):
        return weight_field(quad, eta=rng.uniform(-0.45, 0.45),
                            bump_center=rng.uniform(0.0, 1.0),
                            bump_height=rng.uniform(0.0, 3.0),
                            name=tag)
    sigma = one_weight(f"sigma[{seed}]")
    u = one_weight(f"u[{seed}]")
    f_vals = rng.pareto(1.5, quad.size) + 1e-3
    g_vals = rng.pareto(1.5, quad.size) + 1e-3
    return sigma, u, Field(quad, f_vals), Field(quad, g_vals)
