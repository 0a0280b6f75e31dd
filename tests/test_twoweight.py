"""Sparse model operators, stopping families, and testing constants.

Closed-form oracle used for the testing report: when tau lives only on
the root square with value rho, the operator is rank one and

    c0^(1/2) = c0*^(1/2) = norm = rho sqrt((sigma mu)(D) (u mu)(D)) / mu(D)

exactly, so c1_measured = 1/2 and both witnesses are the root. The
flat stopping instance (f = 1, sigma = 1) keeps only the root square:
its pointwise stopped sum is 1, the bound is 4/3, and the Carleson
embedding sum collapses to (sigma mu)(D).
"""

import dataclasses
import math

import numpy as np
import pytest

from diskproj import disk as dk
from diskproj import measures as ms
from diskproj import twoweight as tw
from diskproj import weights as wt
from diskproj.errors import InvalidRangeError, QuadratureMismatchError
from diskproj.kernels import KernelSpec
from diskproj.operators import (PsiProfile, bergman_handle, dyadic_handle,
                                weighted_norm_bracket, weighted_norm_p2)

ATOM1 = ms.point_mass(1.0, 1.0)


def std_psi():
    return PsiProfile(1.0, ATOM1, name="std")


@pytest.fixture(scope="module")
def quad3():
    return dk.build_quadrature(ms.lebesgue(), J=3, j0=1)


def test_default_tau_table(quad3):
    T = tw.sparse_bergman_model(std_psi(), quad3)
    assert T.L_max == quad3.J
    for lev in range(T.L_max + 1):
        # Psi(2^-l) = 2^l for the standard profile
        want = 4.0 ** lev * T.square_masses(lev)
        np.testing.assert_allclose(T.tau[lev], want, rtol=1e-13)


def test_single_square_apply(quad3):
    quad = quad3
    tau = [np.zeros(1), np.zeros(2), np.array([0.0, 5.0, 0.0, 0.0]),
           np.zeros(8)]
    T = tw.sparse_bergman_model(std_psi(), quad, L_max=3, tau=tau)
    out = tw.apply_sparse(T, dk.Field.constant(quad, 1.0))
    members = (quad.nodes_r >= 0.75) & \
        (dk.arc_index(0.0, 2, quad.nodes_t) == 1)
    np.testing.assert_array_equal(out.values[members], 5.0)
    np.testing.assert_array_equal(out.values[~members], 0.0)


def test_matrix_matches_apply(leb_quad5):
    quad = leb_quad5
    T = tw.sparse_bergman_model(std_psi(), quad, beta=0.5)
    K = T.kernel_rows(np.arange(quad.size))
    assert np.array_equal(K, K.T)
    rng = np.random.default_rng(17)
    f = rng.uniform(0.0, 2.0, size=quad.size)
    np.testing.assert_allclose(K @ (f * quad.masses),
                               tw.apply_sparse(T, dk.Field(quad, f)).values,
                               rtol=1e-12)


def test_sparse_validation(quad3, leb_quad5):
    psi = std_psi()
    with pytest.raises(InvalidRangeError):
        tw.sparse_bergman_model(psi, quad3, mu=-np.ones(quad3.size))
    with pytest.raises(InvalidRangeError):
        tw.sparse_bergman_model(psi, quad3, L_max=2,
                                tau=[np.zeros(1), np.zeros(2)])
    with pytest.raises(InvalidRangeError):
        tw.sparse_bergman_model(psi, quad3, L_max=1,
                                tau=[np.zeros(1), np.zeros(3)])
    with pytest.raises(InvalidRangeError):
        tw.sparse_bergman_model(psi, quad3, L_max=1,
                                tau=[np.zeros(1), -np.ones(2)])
    T = tw.sparse_bergman_model(psi, quad3)
    with pytest.raises(QuadratureMismatchError):
        tw.apply_sparse(T, dk.Field.constant(leb_quad5, 1.0))


def test_level_cap_past_the_depth(leb_quad5):
    """Levels beyond J hold no cell; they used to crash the per-level
    reductions (bincount returns int64 zeros on an empty level) and must
    instead add nothing."""
    quad = leb_quad5
    J = quad.J
    sigma, u, f, _ = tw.random_instance(quad, 4)
    deep = tw.sparse_bergman_model(std_psi(), quad, L_max=J + 1)
    flush = tw.sparse_bergman_model(std_psi(), quad, L_max=J)
    np.testing.assert_array_equal(tw.apply_sparse(deep, f).values,
                                  tw.apply_sparse(flush, f).values)
    cells = np.arange(quad.size)
    np.testing.assert_array_equal(deep.kernel_rows(cells),
                                  flush.kernel_rows(cells))
    # the dyadic handle is the same operator, capped at J by default
    np.testing.assert_array_equal(
        dyadic_handle(0.0, std_psi(), quad).apply(f.values),
        tw.apply_sparse(deep, f).values)
    s0 = dk.DyadicInterval(0.0, 0, 0)
    fam = tw.stopping_family(f, sigma, s0, level_cap=J + 1)
    assert fam.expectations == \
        tw.stopping_family(f, sigma, s0, level_cap=J).expectations
    rep = tw.testing_constants(deep, sigma, u, 2.0, J + 1)
    assert rep == dataclasses.replace(
        tw.testing_constants(flush, sigma, u, 2.0, J), depth=J + 1)


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
    assert sorted(fam.collections[(0, 0)]) == sorted(fam.assignment.keys())


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
    # collections partition the assigned squares and respect ancestry
    seen = set()
    for L, members in fam.collections.items():
        for s in members:
            assert s not in seen
            seen.add(s)
            assert ancestor_of(s, L)
            assert fam.assignment[s] == L
    assert seen == set(fam.assignment.keys())


def test_stopping_validation(leb_quad5):
    quad = leb_quad5
    sigma = wt.weight_field(quad)
    ones = dk.Field.constant(quad, 1.0)
    with pytest.raises(InvalidRangeError):
        tw.stopping_family(ones, sigma, dk.DyadicInterval(0.5, 1, 0))
    with pytest.raises(InvalidRangeError):
        tw.stopping_family(dk.Field.constant(quad, 0.0), sigma,
                           dk.DyadicInterval(0.0, 0, 0))
    with pytest.raises(InvalidRangeError):
        tw.stopping_family(ones, sigma, dk.DyadicInterval(0.0, 4, 0),
                           level_cap=3)


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
    tau = [np.array([rho])] + [np.zeros(2 ** lev) for lev in range(1, 4)]
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
    tau = [np.zeros(2 ** lev) for lev in range(4)]
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
    with pytest.raises(InvalidRangeError):
        tw.testing_constants(T, sigma, u, p=1.0, depth=3)
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
