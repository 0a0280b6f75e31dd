"""Stopping squares, testing constants and the one-weight experiment.

They run on the sparse dyadic operator T f = sum_S tau_S (E^mu_S f) 1_S
of operators.py. Every pass reduces level by level over the quadrature's
dyadic-level index, linear in cell count times levels; the operator
norms iterate on fast applies and form no dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .disk import (DiskQuadrature, DyadicInterval, Field,
                   require_same_quadrature)
from .errors import InvalidRangeError
from .kernels import KernelSpec
from .operators import (PsiProfile, SparseOperator, apply_sparse,
                        positive_handle, sparse_bergman_model,
                        weighted_norm_bracket)
from .weights import (WeightField, bp_characteristic, dual_weight,
                      dyadic_maximal)

Square = Tuple[int, int]          # (level, arc index) on a fixed grid


def _conjugate(p):
    if not p > 1.0:
        raise InvalidRangeError(f"exponent p={p} must exceed 1")
    return p / (p - 1.0)


# -- stopping squares ----------------------------------------------------------

@dataclass(eq=False)
class StoppingFamily:
    root: Square
    beta: float
    level_cap: int
    generations: List[List[Square]]
    expectations: Dict[Square, float]       # stopped E^{sigma mu}_L |f|
    assignment: Dict[Square, Square]        # lambda(S): minimal stopping
    #                                         ancestor, over positive-mass S
    collections: Dict[Square, List[Square]]  # D(L) = {S: lambda(S) = L}
    quad: DiskQuadrature
    sigma_mu: np.ndarray
    f_abs: np.ndarray

    def stopping_squares(self):
        return [L for gen in self.generations for L in gen]


def stopping_family(f: Field, sigma: WeightField, s0: DyadicInterval,
                    level_cap: Optional[int] = None) -> StoppingFamily:
    """Breadth-first stopping-square generations at threshold factor 4.

    Starting from S0, each stopping square L spawns the maximal squares
    strictly inside it whose sigma*mu average of |f| exceeds 4 times
    L's. Zero-mass squares are skipped (all their descendants are
    massless too). The assignment map sends every positive-mass square
    under S0 to its minimal stopping ancestor.
    """
    quad = f.quad
    require_same_quadrature(quad, sigma)
    if s0.beta != 0.0:
        raise InvalidRangeError("stopping construction runs on the "
                                "unshifted grid (its squares nest)")
    if level_cap is None:
        level_cap = quad.J
    if s0.level > level_cap:
        raise InvalidRangeError("root below the level cap")

    sm_cell = sigma.values * quad.masses
    f_abs = np.abs(np.asarray(f.values))
    sm, ex = [], []
    for lv in quad.levels(0.0, level_cap):
        mass = lv.sums(sm_cell)
        sm.append(mass)
        ex.append(np.divide(lv.sums(f_abs * sm_cell), mass,
                            out=np.zeros(lv.count), where=mass > 0.0))

    root = (s0.level, s0.index)
    if not ex[root[0]][root[1]] > 0.0:
        raise InvalidRangeError("root average of |f| must be positive")

    expectations = {root: float(ex[root[0]][root[1]])}
    assignment = {root: root}
    collections = {root: [root]}
    generations = [[root]]
    current = [root]
    while current:
        nxt = []
        for L in current:
            e_l = expectations[L]
            stack = [(L[0] + 1, 2 * L[1]), (L[0] + 1, 2 * L[1] + 1)]
            while stack:
                lev, m = stack.pop()
                if lev > level_cap or sm[lev][m] <= 0.0:
                    continue
                e_s = float(ex[lev][m])
                if e_s > 4.0 * e_l:
                    expectations[(lev, m)] = e_s
                    assignment[(lev, m)] = (lev, m)
                    collections[(lev, m)] = [(lev, m)]
                    nxt.append((lev, m))
                else:
                    assignment[(lev, m)] = L
                    collections[L].append((lev, m))
                    stack.extend([(lev + 1, 2 * m), (lev + 1, 2 * m + 1)])
        if nxt:
            generations.append(nxt)
        current = nxt
    return StoppingFamily(root=root, beta=0.0, level_cap=level_cap,
                          generations=generations, expectations=expectations,
                          assignment=assignment, collections=collections,
                          quad=quad, sigma_mu=sm_cell, f_abs=f_abs)


def pointwise_linearization(family: StoppingFamily):
    """(lhs, rhs) of the pointwise stopped-sum bound at the nodes:
    lhs(z) = sum of E_L over stopping L containing z, rhs = (4/3) M f(z)
    with M the dyadic maximal function of |f| in sigma*mu."""
    quad = family.quad
    levels = quad.levels(0.0, family.level_cap)
    stopped = [np.zeros(lv.count) for lv in levels]
    for (lev, m), e_l in family.expectations.items():
        stopped[lev][m] = e_l
    # the stopping squares holding a node nest, one per generation, so
    # adding them level by level keeps the order of the stopped sum
    lhs = np.zeros(quad.size)
    for lv, e_l in zip(levels, stopped):
        lhs[lv.members] += e_l[lv.arcs]
    maximal = dyadic_maximal(quad, family.sigma_mu, 0.0, family.f_abs,
                             L_max=family.level_cap)
    return lhs, (4.0 / 3.0) * maximal


def carleson_embedding_sum(family: StoppingFamily, p) -> float:
    """sum_L (E^{sigma mu}_L |f|)^p (sigma mu)(L) over the stopping family."""
    _conjugate(p)
    levels = family.quad.levels(0.0, family.level_cap)
    total = 0.0
    for (lev, m), e_l in family.expectations.items():
        cells = levels[lev].cells(m)
        total += e_l ** p * float(family.sigma_mu[cells].sum())
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


def _testing_sup(T, source_vals, target_vals, denom_cell, p, depth):
    """sup over squares of ||T(source 1_S)||^p_{L^p_mu(target)} / denom(S)."""
    quad = T.quad
    best, witness = 0.0, (0, 0)
    tmu = target_vals * T.mu
    for lv in quad.levels(T.beta, min(T.L_max, depth)):
        denom = lv.sums(denom_cell)
        for m in range(lv.count):
            if denom[m] <= 0.0:
                continue
            f_vals = np.zeros(quad.size)
            cells = lv.cells(m)
            f_vals[cells] = source_vals[cells]
            out = apply_sparse(T, Field(quad, f_vals)).values
            val = float(np.sum(np.abs(out) ** p * tmu))
            ratio = val / denom[m]
            if ratio > best:
                best, witness = ratio, (lv.level, m)
    return best, witness


def testing_constants(T: SparseOperator, sigma: WeightField, u: WeightField,
                      p, depth) -> TestingReport:
    """Sawyer testing constants on squares to the given depth, plus the
    operator norm from L^p(sigma mu) to L^p(u mu) acting as f -> T(sigma f).

    The norm is the certified bracket of operators.weighted_norm_bracket;
    the necessity inequalities c0^(1/p) <= norm and c0*^(1/p') <= norm
    are exact only when it is closed.
    """
    q = _conjugate(p)
    if depth < 0:
        raise InvalidRangeError("depth must be nonnegative")
    require_same_quadrature(T.quad, sigma, u)
    sig_mu = sigma.values * T.mu
    u_mu = u.values * T.mu
    c0, wit0 = _testing_sup(T, sigma.values, u.values, sig_mu, p, depth)
    c0s, wits = _testing_sup(T, u.values, sigma.values, u_mu, q, depth)

    norm, upper, exact = weighted_norm_bracket(T.handle(), u.values,
                                               sigma.values, p)
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
                       u: WeightField, p, depth, beta=0.0):
    """Partition squares to the given depth: S goes to S1 when
    (E^{mu sigma}_S f)^p (mu sigma)(S) >= (E^{mu u}_S g)^{p'} (mu u)(S),
    to S2 otherwise. Ties go to S1; massless squares are skipped."""
    q = _conjugate(p)
    quad = f.quad
    require_same_quadrature(quad, g, sigma, u)
    fv, gv = np.asarray(f.values), np.asarray(g.values)
    if np.any(fv < 0.0) or np.any(gv < 0.0):
        raise InvalidRangeError("the splitting criterion takes f, g >= 0")
    mu = quad.masses
    sig_mu, u_mu = sigma.values * mu, u.values * mu
    s1, s2 = [], []
    for lv in quad.levels(beta, depth):
        msig, m_u = lv.sums(sig_mu), lv.sums(u_mu)
        e_f = np.divide(lv.sums(fv * sig_mu), msig,
                        out=np.zeros(lv.count), where=msig > 0.0)
        e_g = np.divide(lv.sums(gv * u_mu), m_u,
                        out=np.zeros(lv.count), where=m_u > 0.0)
        lhs = e_f ** p * msig
        rhs = e_g ** q * m_u
        mu_tot = lv.sums(mu)
        for m in range(lv.count):
            if mu_tot[m] <= 0.0:
                continue
            (s1 if lhs[m] >= rhs[m] else s2).append((lv.level, m))
    return s1, s2


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
    keeps a fixed share of its mass in the top half."""
    quad = v.quad
    mu = quad.masses
    bp = bp_characteristic(v, p, depth)
    sigma = dual_weight(v, p)
    norm, upper, exact = weighted_norm_bracket(positive_handle(spec, quad),
                                               v.values, sigma.values, p)
    ratio = norm / bp.value ** max(1.0, 1.0 / (p - 1.0))

    psi = PsiProfile(spec.gamma, spec.nu)
    psi_vals = psi(2.0 ** -np.arange(depth + 1))
    levels = quad.levels(0.0, depth + 1)
    ratios, shares = [], []
    for lev in range(depth + 1):
        square = levels[lev].members
        tail = float(mu[square].sum()) / 2 ** lev
        if tail <= 0.0:
            ratios.append(0.0)
            continue
        ratios.append(psi_vals[lev] * tail * 2.0 ** lev)
        # the next level's members are a suffix of these (cells are
        # band-major); what precedes it is the top-half band
        top_half = square[:square.size - levels[lev + 1].members.size]
        top = float(mu[top_half].sum()) / 2 ** lev
        if top > 0.0:
            shares.append(tail / top)
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
    from .weights import weight_field
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
