"""Sparse model operators, stopping families, and testing constants.

Closed-form oracle used for the testing report: when tau lives only on
the root square with value rho, the operator is rank one and

    c0^(1/2) = c0*^(1/2) = norm = rho sqrt((sigma mu)(D) (u mu)(D)) / mu(D)

exactly, so c1_measured = 1/2 and both witnesses are the root. The
flat stopping instance (f = 1, sigma = 1) keeps only the root square:
its pointwise stopped sum is 1, the bound is 4/3, and the Carleson
embedding sum collapses to (sigma mu)(D).

Oracles for the array passes: the testing tree pass is checked against
the route that applies T once per square, and the stopping pass against
the depth-first walk below, which visits every positive-mass square
under the root one at a time.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diskproj import disk as dk
from diskproj import measures as ms
from diskproj import twoweight as tw
from diskproj import weights as wt
from diskproj.errors import InvalidRangeError, QuadratureMismatchError
from diskproj.kernels import KernelSpec
from diskproj.operators import (PsiProfile, bergman_handle,
                                weighted_norm_bracket, weighted_norm_p2)
from dyadic_oracle import incidence_spread, level_sums

ATOM1 = ms.point_mass(1.0, 1.0)


def std_psi():
    return PsiProfile(1.0, ATOM1, name="std")


@pytest.fixture(scope="module")
def quad3():
    return dk.build_quadrature(ms.lebesgue(), J=3, j0=1)


def test_default_tau_table(quad3):
    T = tw.sparse_bergman_model(std_psi(), quad3)
    assert T.tau.shape == (dk.square_row(quad3.J + 1, 0),)
    for level in range(quad3.J + 1):
        # Psi(2^-l) = 2^l for the standard profile
        want = 4.0 ** level * level_sums(quad3, 0.0, level, quad3.masses)
        np.testing.assert_allclose(T.tau[dk.square_rows(level)], want,
                                   rtol=1e-13)


def test_single_square_apply(quad3):
    quad = quad3
    tau = np.concatenate([np.zeros(1), np.zeros(2),
                          np.array([0.0, 5.0, 0.0, 0.0]), np.zeros(8)])
    T = tw.sparse_bergman_model(std_psi(), quad, tau=tau)
    out = tw.apply_sparse(T, dk.Field.constant(quad, 1.0))
    members = (quad.nodes_r >= 0.75) & \
        (dk.arc_index(0.0, 2, quad.nodes_t) == 1)
    np.testing.assert_array_equal(out.values[members], 5.0)
    np.testing.assert_array_equal(out.values[~members], 0.0)


def test_matrix_matches_apply(leb_quad5):
    quad = leb_quad5
    T = tw.sparse_bergman_model(std_psi(), quad, beta=0.5)
    K = T.kernel_block(np.arange(quad.size))
    assert np.array_equal(K, K.T)
    rng = np.random.default_rng(17)
    f = rng.uniform(0.0, 2.0, size=quad.size)
    np.testing.assert_allclose(K @ (f * quad.masses),
                               tw.apply_sparse(T, dk.Field(quad, f)).values,
                               rtol=1e-12)


@pytest.mark.parametrize("beta", dk.GRID_SHIFTS)
def test_square_kernel_massless_rule(beta):
    """square_kernel is tau / mu(S), and 0 where mu(S) = 0: atom(0.9)
    leaves every square past level 3 massless. The kernel rows built
    from it give apply on either grid, with tau zeroed on some squares
    and on all of level 2."""
    quad = dk.build_quadrature(ms.point_mass(0.9), J=5)
    rng = np.random.default_rng(5)
    mu = quad.incidence(beta).masses
    tau = rng.pareto(1.0, mu.size) * (rng.random(mu.size) > 0.3)
    tau[dk.square_rows(2)] = 0.0
    T = tw.sparse_bergman_model(std_psi(), quad, beta=beta, tau=tau)
    live = mu > 0.0
    assert live.any() and not live.all() and (live & (tau == 0.0)).any()
    np.testing.assert_array_equal(T.square_kernel[live],
                                  tau[live] / mu[live])
    np.testing.assert_array_equal(T.square_kernel[~live], 0.0)
    f = rng.uniform(0.0, 2.0, size=quad.size)
    np.testing.assert_allclose(
        T.kernel_block(np.arange(quad.size)) @ (f * quad.masses), T.apply(f),
        rtol=1e-12)


def test_sparse_validation(quad3, leb_quad5):
    psi = std_psi()
    deeper = [np.zeros(4), np.zeros(8)]   # levels 2 and 3 of quad3
    with pytest.raises(InvalidRangeError):
        tw.sparse_bergman_model(psi, quad3, tau=np.concatenate(
            [np.zeros(1), np.zeros(2), np.zeros(4)]))
    with pytest.raises(InvalidRangeError):
        tw.sparse_bergman_model(psi, quad3, tau=np.concatenate(
            [np.zeros(1), np.zeros(3)] + deeper))
    with pytest.raises(InvalidRangeError):
        tw.sparse_bergman_model(psi, quad3, tau=np.concatenate(
            [np.zeros(1), -np.ones(2)] + deeper))
    T = tw.sparse_bergman_model(psi, quad3)
    with pytest.raises(QuadratureMismatchError):
        tw.apply_sparse(T, dk.Field.constant(leb_quad5, 1.0))


def test_stopping_flat_field(leb_quad5):
    quad = leb_quad5
    f = dk.Field.constant(quad, 1.0)
    sigma = wt.weight_field(quad)
    fam = tw.stopping_family(f, sigma, dk.DyadicInterval(0.0, 0, 0))
    assert fam.stopping_squares() == [(0, 0)]
    assert fam.expectations == {(0, 0): pytest.approx(1.0)}
    lhs, rhs = tw.pointwise_linearization(fam)
    np.testing.assert_allclose(lhs, 1.0, rtol=1e-13)
    np.testing.assert_allclose(rhs, 4.0 / 3.0, rtol=1e-13)
    total = tw.carleson_embedding_sum(fam, 2.0)
    assert total == pytest.approx(quad.total_mass(), rel=1e-12)
    # every positive-mass square is assigned to the root
    assert all(L == (0, 0) for L in fam.assignment.values())
    assert set(fam.assignment) == {(lev, m) for lev in range(quad.J + 1)
                                   for m in range(2 ** lev)}


def ancestor_of(square, other):
    """other is a dyadic ancestor of square (or equal)."""
    lev, m = square
    lev2, m2 = other
    return lev2 <= lev and (m >> (lev - lev2)) == m2


def test_stopping_spike_chain(leb_quad5):
    quad = leb_quad5
    # mass piles up toward one boundary cell: averages grow down a chain
    vals = np.where(quad.nodes_r >= 1.0 - 2.0 ** -5,
                    np.where(quad.nodes_t < 2.0 ** -5, 3000.0, 0.01), 0.01)
    f = dk.Field(quad, vals)
    sigma = wt.weight_field(quad)
    fam = tw.stopping_family(f, sigma, dk.DyadicInterval(0.0, 0, 0))
    assert len(fam.generations) >= 2
    for gen in fam.generations[1:]:
        for s in gen:
            # walk up to the nearest strict stopping ancestor
            lev, m = s
            anc = None
            while lev > 0:
                lev, m = lev - 1, m // 2
                if (lev, m) in fam.expectations:
                    anc = (lev, m)
                    break
            assert anc is not None
            assert fam.expectations[s] > 4.0 * fam.expectations[anc]
    # the assignment sends each square to its minimal stopping ancestor,
    # and each stopping square to itself
    for s, L in fam.assignment.items():
        assert ancestor_of(s, L) and L in fam.expectations
        lev, m = s
        while (lev, m) != L:
            assert (lev, m) not in fam.expectations
            lev, m = lev - 1, m // 2
    assert all(fam.assignment[L] == L for L in fam.expectations)


def test_stopping_validation(leb_quad5):
    quad = leb_quad5
    sigma = wt.weight_field(quad)
    ones = dk.Field.constant(quad, 1.0)
    with pytest.raises(InvalidRangeError):
        tw.stopping_family(ones, sigma, dk.DyadicInterval(0.5, 1, 0))
    with pytest.raises(InvalidRangeError):
        tw.stopping_family(dk.Field.constant(quad, 0.0), sigma,
                           dk.DyadicInterval(0.0, 0, 0))
    # a root below the quadrature's depth holds no cell
    with pytest.raises(InvalidRangeError):
        tw.stopping_family(ones, sigma, dk.DyadicInterval(0.0, quad.J + 1, 0))


def test_pointwise_bound_random(leb_quad5):
    quad = leb_quad5
    rng = np.random.default_rng(6)
    for k in range(10):
        f = dk.Field(quad, rng.pareto(2.0, quad.size) + 1e-3)
        sigma = wt.weight_field(quad, eta=float(rng.uniform(-0.4, 0.4)))
        fam = tw.stopping_family(f, sigma, dk.DyadicInterval(0.0, 0, 0))
        lhs, rhs = tw.pointwise_linearization(fam)
        assert np.all(lhs <= rhs * (1.0 + 1e-10) + 1e-14)
        total = tw.carleson_embedding_sum(fam, 2.0)
        assert 0.0 < total < math.inf
    with pytest.raises(InvalidRangeError):
        tw.carleson_embedding_sum(fam, 1.0)


def test_testing_root_only_oracle(quad3):
    quad = quad3
    sigma = wt.weight_field(quad, eta=-0.25, name="sigma")
    u = wt.weight_field(quad, eta=0.25, name="u")
    rho = 0.7
    tau = np.concatenate([np.array([rho])] +
                         [np.zeros(2 ** lev) for lev in range(1, 4)])
    T = tw.sparse_bergman_model(std_psi(), quad, tau=tau)
    rep = tw.testing_constants(T, sigma, u, p=2.0, depth=3)
    mu_total = quad.total_mass()
    sig_total = sigma.integral()
    u_total = u.integral()
    want = rho * math.sqrt(sig_total * u_total) / mu_total
    assert rep.c0_root == pytest.approx(want, rel=1e-12)
    assert rep.c0_star_root == pytest.approx(want, rel=1e-12)
    assert rep.norm_lower == pytest.approx(want, rel=1e-12)
    assert rep.norm_upper == rep.norm_lower and rep.norm_exact
    assert rep.c1_measured == pytest.approx(0.5, rel=1e-12)
    assert rep.witness_c0 == (0, 0)
    assert rep.witness_c0_star == (0, 0)


def test_testing_zero_operator(quad3):
    """tau = 0 is accepted and gives the zero operator, where Lanczos
    breaks down: the norm is 0 at p = 2 and p != 2."""
    sigma = wt.weight_field(quad3, eta=-0.25)
    u = wt.weight_field(quad3, eta=0.25)
    tau = np.concatenate([np.zeros(2 ** lev) for lev in range(4)])
    T = tw.sparse_bergman_model(std_psi(), quad3, tau=tau)
    for p in (2.0, 3.0):
        rep = tw.testing_constants(T, sigma, u, p, depth=3)
        assert rep.norm_lower == rep.norm_upper == 0.0 and rep.norm_exact
        assert rep.c0 == rep.c0_star == 0.0


def test_bergman_norm_with_a_zero_weight(quad3):
    """A zero u or sigma zeroes the weighted Bergman operator; Lanczos
    would start from the zero vector, so the norm is 0 without it."""
    h = bergman_handle(KernelSpec(gamma=1.0, nu=ATOM1), quad3)
    zero, one = np.zeros(quad3.size), np.ones(quad3.size)
    for u, sigma in ((zero, one), (one, zero)):
        assert weighted_norm_p2(h, u, sigma) == 0.0
        assert weighted_norm_bracket(h, u, sigma, 2.0) == (0.0, 0.0, True)


def test_testing_necessity_random(leb_quad5):
    quad = leb_quad5
    for seed in range(5):
        sigma, u, _, _ = tw.random_instance(quad, seed)
        T = tw.sparse_bergman_model(std_psi(), quad)
        rep = tw.testing_constants(T, sigma, u, p=2.0, depth=4)
        assert rep.norm_exact
        # testing on squares is necessary: both roots sit under the norm
        assert rep.c0_root <= rep.norm_lower * (1.0 + 1e-8)
        assert rep.c0_star_root <= rep.norm_lower * (1.0 + 1e-8)
        assert rep.c1_measured >= 0.5 - 1e-9
        assert rep.norm_upper == rep.norm_lower == pytest.approx(
            rep.c1_measured * (rep.c0_root + rep.c0_star_root), rel=1e-12)
    # no square lies below J, so a deeper depth reports depth J's numbers
    assert tw.testing_constants(T, sigma, u, 2.0, quad.J + 1) == \
        dataclasses.replace(tw.testing_constants(T, sigma, u, 2.0, quad.J),
                            depth=quad.J + 1)


def test_testing_other_exponent(quad3):
    sigma = wt.weight_field(quad3, eta=-0.2)
    u = wt.weight_field(quad3, eta=0.2)
    T = tw.sparse_bergman_model(std_psi(), quad3)
    rep = tw.testing_constants(T, sigma, u, p=2.5, depth=3)
    # Boyd's lower bound and the Schur upper bound meet
    assert rep.norm_exact and rep.norm_lower > 0.0
    assert rep.norm_upper - rep.norm_lower <= 1e-12 * rep.norm_upper
    assert rep.c0_root <= rep.norm_upper * (1.0 + 1e-12)
    assert rep.c0_star_root <= rep.norm_upper * (1.0 + 1e-12)
    assert rep.c0 > 0.0 and rep.c0_star > 0.0
    assert rep.p == 2.5
    for bad in (1.0, math.inf, math.nan):
        with pytest.raises(InvalidRangeError):
            tw.testing_constants(T, sigma, u, p=bad, depth=3)
    with pytest.raises(InvalidRangeError):
        tw.testing_constants(T, sigma, u, p=2.0, depth=-1)


def test_split_by_criterion(leb_quad5):
    quad = leb_quad5
    sigma = wt.weight_field(quad, eta=-0.3)
    rng = np.random.default_rng(14)
    f = dk.Field(quad, rng.uniform(0.0, 1.0, size=quad.size))
    # identical data on both sides at p = 2: every square ties into S1
    s1, s2 = tw.split_by_criterion(f, f, sigma, sigma, p=2.0, depth=5)
    assert s2 == []
    assert len(s1) == sum(2 ** lev for lev in range(6))
    g = dk.Field(quad, rng.uniform(0.0, 1.0, size=quad.size))
    u = wt.weight_field(quad, eta=0.3)
    s1, s2 = tw.split_by_criterion(f, g, sigma, u, p=2.0, depth=5)
    assert len(s1) + len(s2) == sum(2 ** lev for lev in range(6))
    assert not set(s1) & set(s2)
    with pytest.raises(InvalidRangeError):
        tw.split_by_criterion(dk.Field(quad, -f.values), g, sigma, u,
                              p=2.0, depth=3)
    # p = inf would make q nan and put every square silently into S2
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidRangeError):
            tw.split_by_criterion(f, g, sigma, u, p=bad, depth=3)


def addresses(rows):
    level, index = dk.square_address(np.asarray(rows, dtype=np.intp))
    return list(zip(level.tolist(), index.tolist()))


def test_square_views_share_one_address_table(leb_quad6):
    """The criterion split's lists and the stopping family's views are
    square_address of their rows, one tuple object per row across all
    of them and across calls; an empty row set gives []."""
    quad = leb_quad6
    sigma, u, f, g = tw.random_instance(quad, 5)
    s1, s2 = tw.split_by_criterion(f, g, sigma, u, p=2.0, depth=quad.J)
    rows = sorted(dk.square_row(lev, m) for lev, m in s1 + s2)
    assert rows == np.flatnonzero(quad.incidence(0.0).masses > 0.0).tolist()
    for part in (s1, s2):
        assert part == addresses(sorted(dk.square_row(*sq) for sq in part))
    fam = tw.stopping_family(f, sigma, dk.DyadicInterval(0.0, 0, 0))
    stops = np.flatnonzero(fam.generation >= 0)
    order = np.argsort(fam.generation[stops], kind="stable")
    owned = np.flatnonzero(fam.owner >= 0)
    assert [sq for gen in fam.generations for sq in gen] == \
        addresses(stops[order])
    assert list(fam.expectations) == addresses(stops)
    assert list(fam.assignment) == addresses(owned)
    assert list(fam.assignment.values()) == addresses(fam.owner[owned])

    again = tw.split_by_criterion(f, g, sigma, u, p=2.0, depth=quad.J)
    by_row = {}
    for view in (s1, s2, *again, *fam.generations, fam.expectations,
                 fam.assignment, fam.assignment.values()):
        for sq in view:
            assert by_row.setdefault(dk.square_row(*sq), sq) is sq
    assert len(by_row) == len(rows)
    assert tw._squares(np.array([], dtype=np.int32)) == []


def test_one_weight_report(leb_quad5):
    spec = KernelSpec(gamma=1.0, nu=ATOM1, name="std")
    v = wt.weight_field(leb_quad5, eta=-0.25)
    rep = tw.one_weight_norm_experiment(spec, v, p=2.0, depth=4)
    assert rep.norm_exact
    assert rep.bp_value > 1.0
    assert 0.0 < rep.ratio < math.inf
    assert len(rep.psi_mu_ratios) == 5
    lo, hi = rep.psi_mu_band
    assert 0.0 < lo <= hi < math.inf
    assert rep.top_half_max_ratio >= 1.0


def one_weight_structure_oracle(spec, quad, depth):
    """The report's structure facts from per-level sums of the cell
    masses: a level's members are a suffix of the band-major cells, the
    next level's members a shorter one, and what lies between is the
    top half; each square holds 1 / 2^level of the level's sum."""
    mu = quad.masses
    psi_vals = PsiProfile(spec.gamma, spec.nu)(2.0 ** -np.arange(depth + 1))
    ratios, shares = [], []
    for lev in range(depth + 1):
        start = quad.level_start(lev)
        tail = float(mu[start:].sum()) / 2 ** lev
        if tail <= 0.0:
            ratios.append(0.0)
            continue
        ratios.append(psi_vals[lev] * tail * 2.0 ** lev)
        top = float(mu[start:quad.level_start(lev + 1)].sum()) / 2 ** lev
        if top > 0.0:
            shares.append(tail / top)
    live = [x for x in ratios if x > 0.0]
    band = (min(live), max(live)) if live else (0.0, math.inf)
    return tuple(ratios), band, max(shares) if shares else math.inf


@pytest.mark.parametrize("J, depth", [(4, 6), (5, 4), (8, 6)])
def test_one_weight_structure_matches_level_sums(J, depth):
    """The ratios read from the dyadic model's tau and the shares read
    from the incidence masses equal the per-level sums to 1e-15 relative,
    levels past J included."""
    quad = dk.build_quadrature(ms.lebesgue(), J=J)
    spec = KernelSpec(gamma=1.0, nu=ATOM1, name="std")
    rep = tw.one_weight_norm_experiment(spec, wt.weight_field(quad, eta=0.0),
                                        2.0, depth)
    ratios, band, share = one_weight_structure_oracle(spec, quad, depth)
    assert rep.psi_mu_ratios == pytest.approx(ratios, rel=1e-15, abs=0)
    assert rep.psi_mu_band == pytest.approx(band, rel=1e-15, abs=0)
    assert rep.top_half_max_ratio == pytest.approx(share, rel=1e-15, abs=0)


def test_norm_brackets_at_depth_ten():
    """Past the 4096 cells where a dense norm stopped: both reports give
    finite, closed brackets at J=10 (4100 cells), at p = 2 and p = 3."""
    quad = dk.build_quadrature(ms.lebesgue(), J=10)
    sigma, u, _, _ = tw.random_instance(quad, 10)
    T = tw.sparse_bergman_model(std_psi(), quad)
    spec = KernelSpec(gamma=1.0, nu=ATOM1, name="std")
    v = wt.weight_field(quad, eta=0.25)
    for p in (2.0, 3.0):
        rep = tw.testing_constants(T, sigma, u, p, depth=3)
        one = tw.one_weight_norm_experiment(spec, v, p, depth=3)
        for lower, upper, closed in ((rep.norm_lower, rep.norm_upper,
                                      rep.norm_exact),
                                     (one.norm, one.norm_upper,
                                      one.norm_exact)):
            assert closed and 0.0 < lower <= upper * (1.0 + 1e-15)
            assert math.isfinite(upper) and upper - lower <= 1e-12 * upper
        assert rep.c0_root <= rep.norm_upper * (1.0 + 1e-12)


def test_random_instance_reproducible(quad3):
    a = tw.random_instance(quad3, 11)
    b = tw.random_instance(quad3, 11)
    c = tw.random_instance(quad3, 12)
    np.testing.assert_array_equal(a[0].values, b[0].values)
    np.testing.assert_array_equal(a[2].values, b[2].values)
    assert not np.array_equal(a[0].values, c[0].values)
    assert np.all(a[2].values > 0.0) and np.all(a[3].values > 0.0)


# -- oracles for the array passes ----------------------------------------------

def stopping_walk(f, sigma, s0):
    """The stopping family by a depth-first walk from each stopping
    square: (generations, expectations, assignment)."""
    quad = f.quad
    sm_cell = sigma.values * quad.masses
    f_abs = np.abs(f.values)
    sm, ex = [], []
    for level in range(quad.J + 1):
        mass = level_sums(quad, 0.0, level, sm_cell)
        sm.append(mass)
        ex.append(np.divide(level_sums(quad, 0.0, level, f_abs * sm_cell),
                            mass, out=np.zeros(1 << level), where=mass > 0.0))
    root = (s0.level, s0.index)
    expectations = {root: float(ex[root[0]][root[1]])}
    assignment = {root: root}
    generations = [[root]]
    current = [root]
    while current:
        nxt = []
        for L in current:
            e_l = expectations[L]
            stack = [(L[0] + 1, 2 * L[1]), (L[0] + 1, 2 * L[1] + 1)]
            while stack:
                lev, m = stack.pop()
                if lev > quad.J or sm[lev][m] <= 0.0:
                    continue
                e_s = float(ex[lev][m])
                if e_s > 4.0 * e_l:
                    expectations[(lev, m)] = e_s
                    assignment[(lev, m)] = (lev, m)
                    nxt.append((lev, m))
                else:
                    assignment[(lev, m)] = L
                    stack.extend([(lev + 1, 2 * m), (lev + 1, 2 * m + 1)])
        if nxt:
            generations.append(nxt)
        current = nxt
    return generations, expectations, assignment


ORACLE_MEASURES = {"lebesgue": ms.lebesgue(), "halfmix": ms.half_atom_mix(),
                   "atom(0.9)": ms.point_mass(0.9, 1.0)}


@functools.lru_cache(maxsize=None)
def oracle_quadrature(name, J, j0):
    return dk.build_quadrature(ORACLE_MEASURES[name], J=J, j0=j0)


def zeroed(rng, values, share):
    return np.where(rng.random(values.shape) < share, 0.0, values)


def square_ratio(T, source, target, p, square):
    """||T(s 1_Q)||^p_{L^p(t mu)} / (s mu)(Q) for one square Q."""
    lev, m = square
    cells = T.quad.incidence(T.beta).cells(dk.square_row(lev, m))
    f_vals = np.zeros(T.quad.size)
    f_vals[cells] = source[cells]
    out = T.apply(f_vals)
    mu = T.quad.masses
    return float(np.sum(np.abs(out) ** p * target * mu) /
                 np.sum(source[cells] * mu[cells]))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(ORACLE_MEASURES)), J=st.integers(1, 7),
       j0=st.sampled_from([0, 1, 2]), p=st.sampled_from([1.5, 2.0, 3.0]),
       zero_share=st.sampled_from([0.0, 0.3, 0.9]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_testing_tree_pass_matches_per_square(name, J, j0, p, zero_share,
                                               seed, data):
    """c0 and c0* of the tree pass equal the per-square route's to 1e-12
    relative, with the same witness, at depths from 0 past J; tau has
    zeroed entries and rows, and atom(0.9) leaves whole bands massless."""
    quad = oracle_quadrature(name, J, j0)
    depth = data.draw(st.integers(0, J + 2), label="depth")
    rng = np.random.default_rng(seed)
    tau = np.concatenate([zeroed(rng, rng.pareto(1.0, 2 ** lev), zero_share)
                          * (rng.random() > 0.25) for lev in range(J + 1)])
    T = tw.sparse_bergman_model(std_psi(), quad, tau=tau)
    sigma = wt.WeightField(quad, np.exp(rng.normal(0.0, 1.0, quad.size)))
    u = wt.WeightField(quad, np.exp(rng.normal(0.0, 1.0, quad.size)))
    for s, t, e in ((sigma, u, p), (u, sigma, p / (p - 1.0))):
        got, got_witness = tw._testing_sup(T, s.values, t.values, e, depth)
        want, want_witness = tw._square_by_square_sup(T, s.values, t.values,
                                                      e, depth)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        if got_witness != want_witness:
            # only a tie in exact arithmetic, which rounding may break
            # either way, as when a square and its child hold the same
            # mass and T adds nothing on the rest of the square
            assert square_ratio(T, s.values, t.values, e, got_witness) == \
                pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(ORACLE_MEASURES)), J=st.integers(1, 7),
       j0=st.sampled_from([0, 1, 2]),
       zero_share=st.sampled_from([0.0, 0.5, 0.95]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_stopping_pass_matches_walk(name, J, j0, zero_share, seed, data):
    """The array pass gives the walk's expectations and assignment
    exactly, and the same generations, for roots at levels 0..2 and
    fields with zeros; the stopped sum, the maximal bound and the
    Carleson embedding sums read from the family equal those built from
    the walk's expectations and the per-level square sums."""
    quad = oracle_quadrature(name, J, j0)
    level = data.draw(st.integers(0, min(2, J)), label="root level")
    s0 = dk.DyadicInterval(0.0, level, data.draw(
        st.integers(0, 2 ** level - 1), label="root index"))
    rng = np.random.default_rng(seed)
    f = dk.Field(quad, zeroed(rng, rng.pareto(1.5, quad.size), zero_share))
    sigma = wt.WeightField(quad, np.exp(rng.normal(0.0, 1.0, quad.size)))
    try:
        fam = tw.stopping_family(f, sigma, s0)
    except InvalidRangeError:
        # only a root with no |f| mass is refused
        assert not stopping_walk(f, sigma, s0)[1][
            (s0.level, s0.index)] > 0.0
        return
    generations, expectations, assignment = stopping_walk(f, sigma, s0)
    assert fam.expectations == expectations
    assert fam.assignment == assignment
    assert [set(g) for g in fam.generations] == \
        [set(g) for g in generations]
    assert all(g == sorted(g) for g in fam.generations)

    lhs, rhs = tw.pointwise_linearization(fam)
    stopped = np.zeros(dk.square_row(quad.J + 1, 0))
    for (lev, m), e_l in expectations.items():
        stopped[dk.square_row(lev, m)] = e_l
    np.testing.assert_array_equal(
        lhs, incidence_spread(quad, 0.0, stopped))
    sm_cell = sigma.values * quad.masses
    np.testing.assert_array_equal(rhs, (4.0 / 3.0) * wt.dyadic_maximal(
        quad, sm_cell, 0.0, np.abs(f.values)))
    for p in (1.5, 2.0, 3.0):
        total = 0.0
        for (lev, m), e_l in sorted(expectations.items()):
            total += e_l ** p * float(level_sums(quad, 0.0, lev, sm_cell)[m])
        assert tw.carleson_embedding_sum(fam, p) == total


def test_testing_ties_go_to_the_first_square():
    """Flat weights on the default model make the squares of each level
    equal by rotation, and the tree pass computes them alike, so the
    witness is the level's first square."""
    for J, j0 in ((5, 1), (7, 2)):
        quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)
        one = wt.weight_field(quad).values
        T = tw.sparse_bergman_model(std_psi(), quad)
        for p in (1.5, 2.0, 3.0):
            got, (lev, m) = tw._testing_sup(T, one, one, p, J)
            want, (want_lev, _) = tw._square_by_square_sup(T, one, one, p, J)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            assert (lev, m) == (want_lev, 0)


def test_testing_constants_at_depth_twelve():
    """The tree pass makes the testing constants cheap at J=12, depth 11:
    the bracket closes and c0^(1/2) sits under it."""
    quad = dk.build_quadrature(ms.lebesgue(), J=12)
    sigma, u, _, _ = tw.random_instance(quad, 12)
    T = tw.sparse_bergman_model(std_psi(), quad)
    rep = tw.testing_constants(T, sigma, u, 2.0, depth=11)
    assert rep.norm_exact and 0.0 < rep.norm_lower <= rep.norm_upper
    assert rep.c0_root <= rep.norm_upper
    assert rep.c0_star_root <= rep.norm_upper


@pytest.mark.parametrize("beta", dk.GRID_SHIFTS)
def test_testing_report_numbers_are_python_floats(quad3, beta):
    """Both grids report Python floats: the per-square route of the
    half-shifted grid used to hand back np.float64."""
    T = tw.sparse_bergman_model(std_psi(), quad3, beta=beta)
    sigma, u, _, _ = tw.random_instance(quad3, 5)
    rep = tw.testing_constants(T, sigma, u, 2.0, 2)
    for name in ("c0", "c0_star", "c0_root", "c0_star_root", "norm_lower",
                 "norm_upper", "c1_measured"):
        assert type(getattr(rep, name)) is float, name
    assert rep.c0 > 0.0 and rep.c0_star > 0.0
