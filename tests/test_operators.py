"""Projection handles, dyadic models, and the lower-bound lemmas.

Oracles used here:
  * gamma=1, nu = atom at 1 gives Psi(t) = 1/t, so the dyadic level
    coefficient Psi(2^-l) 2^l is 4^l and two points sharing squares at
    levels 0..2 see kernel 1 + 4 + 16 = 21.
  * the separation margin g(D) is recomputed from scratch and checked
    to bracket the bisection output.
  * the exact p=2 weighted norm for a diagonal 2x2 instance is 4 by
    hand: diag(sqrt(u mu)) K diag(sqrt(sigma mu)) = diag(2 sqrt 3, 4).
  * the kernel handles' band-pair tables are pinned against kernels
    evaluated directly at every node pair w = z_j conj(z_i), the dense
    route the tables replace.
Deterministic grid quantities (identity error, comparability range)
were computed once and frozen.
"""

import math

import numpy as np
import pytest

from diskproj import disk as dk
from diskproj import measures as ms
from diskproj import operators as op
from diskproj.errors import (BudgetExceededError, InvalidRangeError,
                             NoAdmissiblePairError, QuadratureMismatchError,
                             SeparationError)
from diskproj.kernels import KernelSpec, kernel_integral_grid

ATOM1 = ms.point_mass(1.0, 1.0)
STD = KernelSpec(gamma=1.0, nu=ATOM1, name="std")


def std_psi():
    return op.PsiProfile(1.0, ATOM1, name="std")


def test_psi_profile_closed_forms():
    psi = std_psi()
    for t in (0.01, 0.25, 1.0, 2.0):
        assert psi(t) == pytest.approx(1.0 / t, rel=1e-14)
    grid = np.array([0.5, 1.5])
    np.testing.assert_allclose(psi(grid), 1.0 / grid, rtol=1e-14)
    assert psi(2.0 ** -10) == pytest.approx(2.0 ** 10, rel=1e-14)
    psi2 = op.PsiProfile(2.0, ATOM1)
    assert psi2(0.3) == pytest.approx(1.0 / 0.3 ** 2, rel=1e-13)
    t = np.array([2.0, 1.0, 0.25, 2.0 ** -10])
    np.testing.assert_allclose(psi2(t), 1.0 / t ** 2, rtol=1e-14)
    z, zeta = 0.5 + 0.1j, 0.3 - 0.4j
    t = abs(1.0 - np.conj(zeta) * z)
    assert psi.kernel(z, zeta) == pytest.approx(1.0 / t ** 2, rel=1e-13)
    for gamma in (0.5, math.inf, math.nan):
        with pytest.raises(InvalidRangeError):
            op.PsiProfile(gamma, ATOM1)
    with pytest.raises(InvalidRangeError):
        psi(0.0)
    with pytest.raises(InvalidRangeError):
        psi(2.5)


def test_psi_diagnostics_frozen():
    dec, dbl = op.psi_diagnostics(std_psi())
    assert dec == 1.0  # 1/t is strictly decreasing
    assert dbl == pytest.approx(2.0, rel=1e-10)


def test_projection_identity_error_frozen(leb_quad5, leb_quad6):
    err5 = op.projection_identity_error(STD, leb_quad5)
    err6 = op.projection_identity_error(STD, leb_quad6)
    assert err5 == pytest.approx(0.03094312361260676, rel=1e-9)
    assert err6 == pytest.approx(0.015501229081356538, rel=1e-9)
    assert err6 < err5  # refinement shrinks the truncation error


def test_handle_matrix_consistency(leb_quad5):
    quad = leb_quad5
    rng = np.random.default_rng(5)
    f = rng.uniform(-1.0, 1.0, size=quad.size)
    h = op.bergman_handle(STD, quad)
    via_matrix = h.matrix() @ (f * quad.masses)
    np.testing.assert_allclose(h.apply(f), via_matrix, rtol=1e-12)
    np.testing.assert_allclose(h.apply(f, matrix_free=True), via_matrix,
                               rtol=1e-12)
    pos = op.positive_handle(STD, quad)
    np.testing.assert_allclose(pos.matrix(), np.abs(h.matrix()), rtol=1e-13)
    # the Psi handle is real symmetric by construction
    ph = op.psi_positive_handle(std_psi(), quad)
    m = ph.matrix()
    assert np.all(m > 0.0)
    np.testing.assert_allclose(m, m.T, rtol=1e-13)


NUS = {"atom": ATOM1, "lebesgue": ms.lebesgue(), "halfmix": ms.half_atom_mix()}


@pytest.mark.parametrize("J, j0", [(6, 0), (5, 1)])
@pytest.mark.parametrize("gamma", [1.0, 2.0])
@pytest.mark.parametrize("nu_name", sorted(NUS))
def test_table_route_matches_dense_oracle(nu_name, gamma, J, j0):
    """FFT apply, gathered rows and matrix() of the three kernel handles
    against kernels evaluated directly at every pair w = z_j conj(z_i)."""
    nu = NUS[nu_name]
    quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)
    spec = KernelSpec(gamma=gamma, nu=nu)
    psi = op.PsiProfile(gamma, nu)
    z = quad.nodes_z
    B = kernel_integral_grid(spec, z[None, :] * np.conj(z[:, None]))
    cases = [(op.bergman_handle(spec, quad), np.conj(B)),
             (op.positive_handle(spec, quad), np.abs(B)),
             (op.psi_positive_handle(psi, quad),
              psi.kernel(z[:, None], z[None, :]))]
    rng = np.random.default_rng(10 * J + j0)
    f = rng.standard_normal(quad.size) + 1j * rng.standard_normal(quad.size)
    for h, K in cases:
        want = K @ (f * quad.masses)
        for matrix_free in (False, True):
            got = h.apply(f, matrix_free=matrix_free)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(h.matrix() - K)) <= 1e-12 * np.max(np.abs(K))
        if h.positive:
            assert np.isrealobj(h.apply(f.real))


def test_table_evaluates_each_band_pair_offset_once(monkeypatch):
    quad = dk.build_quadrature(ms.lebesgue(), J=6, j0=0)
    arcs = [b.arc_count for b in quad.bands]
    distinct = sum(max(a, b) for a in arcs for b in arcs)
    assert distinct == 1670 < quad.size ** 2
    sizes = []
    evaluate = op.kernel_integral_grid

    def counted(spec, w):
        sizes.append(np.size(w))
        return evaluate(spec, w)

    monkeypatch.setattr(op, "kernel_integral_grid", counted)
    h = op.bergman_handle(STD, quad)
    assert sizes == []   # nothing is evaluated before first use
    ones = np.ones(quad.size)
    h.apply(ones)
    h.apply(ones, matrix_free=True)
    h.matrix()
    assert sizes == [distinct]


def test_projection_identity_error_density_deep():
    """A lebesgue-nu projection at J=10, 4100 cells: past the dense
    threshold, finite, and closer to the identity than at J=8."""
    spec = KernelSpec(gamma=1.0, nu=ms.lebesgue())
    err8, err10 = (op.projection_identity_error(
        spec, dk.build_quadrature(ms.lebesgue(), J=J)) for J in (8, 10))
    assert math.isfinite(err10) and err10 < err8


def test_projection_identity_error_tracks_depth_at_j0_2():
    """With four-arc core rings (j0=1) the monitor stalls near 4e-3 from
    J=10; with j0=2 it stays within 5% of 2^-J for an atom nu."""
    for J in range(8, 12):
        err = op.projection_identity_error(
            STD, dk.build_quadrature(ms.lebesgue(), J=J, j0=2))
        assert err == pytest.approx(2.0 ** -J, rel=0.05), J


def test_dyadic_handle_fast_matches_matrix(leb_quad5):
    quad = leb_quad5
    rng = np.random.default_rng(11)
    f = rng.uniform(0.0, 2.0, size=quad.size)
    h = op.dyadic_handle(0.0, std_psi(), quad)
    fast = h.apply(f)
    slow = h.matrix() @ (f * quad.masses)
    np.testing.assert_allclose(fast, slow, rtol=1e-12)
    np.testing.assert_allclose(h.matrix(), h.matrix().T)
    # L_max=0 keeps only the root square, which holds every node
    h0 = op.dyadic_handle(0.0, std_psi(), quad, L_max=0)
    want = float(np.sum(f * quad.masses))
    np.testing.assert_allclose(h0.apply(f), want, rtol=1e-13)
    out = op.apply_dyadic(0.5, std_psi(), quad, dk.Field(quad, f))
    h_half = op.dyadic_handle(0.5, std_psi(), quad)
    np.testing.assert_allclose(out.values, h_half.apply(f), rtol=1e-13)


def test_dyadic_kernel_hand_value():
    psi = std_psi()
    z = 0.9 * np.exp(2j * np.pi * 0.01)
    zeta = 0.9 * np.exp(2j * np.pi * 0.02)
    # shared squares at levels 0, 1, 2 with coefficients 4^l
    assert op.dyadic_kernel(0.0, psi, z, zeta, L_max=2) == 21.0
    # radius 0.9 misses the level-4 band even though the arcs agree
    assert op.dyadic_kernel(0.0, psi, z, zeta, L_max=6) == \
        pytest.approx(21.0 + 64.0)
    rng = np.random.default_rng(2)
    zs = 0.97 * np.exp(2j * np.pi * rng.random(50))
    ws = 0.97 * np.exp(2j * np.pi * rng.random(50))
    for beta in (0.0, 0.5):
        vec = op._dyadic_kernel_pairs(beta, psi, zs, ws, 6)
        one = [op.dyadic_kernel(beta, psi, a, b, 6) for a, b in zip(zs, ws)]
        np.testing.assert_allclose(vec, one, rtol=1e-13)


def test_apply_bergman_dispatch(leb_quad5, leb_quad6):
    h = op.bergman_handle(STD, leb_quad5)
    f5 = dk.Field.constant(leb_quad5, 1.0)
    out = op.apply_bergman(h, f5)
    assert isinstance(out, dk.Field)
    np.testing.assert_allclose(out.values, h.apply(f5.values), rtol=1e-13)
    with pytest.raises(QuadratureMismatchError):
        op.apply_bergman(h, dk.Field.constant(leb_quad6, 1.0))


def test_matrix_budget_guard():
    quad = dk.build_quadrature(ms.lebesgue(), J=10, j0=1)
    assert quad.size == 4100
    h = op.bergman_handle(STD, quad)
    with pytest.raises(BudgetExceededError):
        h.matrix()


def test_comparability_constants():
    lo, hi = op.comparability_constants(std_psi(), 200, seed=1)
    assert 0.0 < lo <= hi < math.inf
    assert lo == pytest.approx(0.019607385808610732, rel=1e-9)
    assert hi == pytest.approx(1.3757575185586914, rel=1e-9)
    with pytest.raises(InvalidRangeError):
        op.comparability_constants(std_psi(), 0, seed=1)


def margin(d, gamma):
    c = (1.0 / 3.0 + d) / math.sqrt(2.0)
    return math.sqrt(2.0) * (2.0 + gamma) * c ** gamma * (3.0 * c + 1.0) \
        / (c - 1.0) ** (gamma + 2.0) - 0.5


def test_separation_thresholds():
    d1, d2 = op.separation_thresholds(1.0)
    assert d1 == pytest.approx(40.18180731748611, abs=1e-6)
    assert d2 == d1 + 2.0
    # independent recomputation of the defining margin
    assert abs(margin(d1, 1.0)) < 1e-8
    assert margin(d1 - 0.5, 1.0) > 0.0 > margin(d1 + 0.5, 1.0)
    d1b, _ = op.separation_thresholds(2.0)
    assert d1b == pytest.approx(53.524718378458054, abs=1e-6)
    assert d1b > d1


def test_separated_square_lower_bound():
    quad = dk.build_quadrature(ms.lebesgue(), J=8, j0=1)
    ratios = []
    for level in (5, 6, 7, 8):
        lower, avg = op.separated_square_lower_bound(STD, quad, level)
        assert avg == 1.0  # default f is the S1 indicator
        assert lower > 0.0
        ratios.append(lower / avg)
    assert max(ratios) / min(ratios) < 3.0
    # too coarse: the required separation exceeds any chord
    with pytest.raises(NoAdmissiblePairError):
        op.separated_square_lower_bound(STD, quad, 4)
    # too fine: the squares hold no quadrature nodes
    with pytest.raises(NoAdmissiblePairError):
        op.separated_square_lower_bound(STD, quad, 9)
    # the derived example: log-type kernel, positive as well
    spec_log = KernelSpec(gamma=1.0, nu=ms.lebesgue(), name="log")
    lower, avg = op.separated_square_lower_bound(spec_log, quad, 8)
    assert lower > 0.0 and avg == 1.0
    # f must be nonnegative and live on S1
    s1, _, _ = op._square_pair_at_level(quad, 6, 1.0)
    m1 = quad.node_mask(s1)
    off = np.ones(quad.size)
    with pytest.raises(InvalidRangeError):
        op.separated_square_lower_bound(STD, quad, 6, dk.Field(quad, off))
    neg = np.zeros(quad.size)
    neg[np.nonzero(m1)[0][0]] = -1.0
    with pytest.raises(InvalidRangeError):
        op.separated_square_lower_bound(STD, quad, 6, dk.Field(quad, neg))
    both = op.separated_square_lower_bound(
        STD, quad, 6, dk.Field(quad, np.zeros(quad.size)))
    assert both == (0.0, 0.0)


def test_tail_difference_bound(leb_quad6):
    quad = leb_quad6
    v = np.ones(quad.size)
    lhs, rhs = op.tail_difference_bound(STD, quad, v, 0.9 + 0j, 0.93 + 0j,
                                        c=1.0)
    assert rhs == pytest.approx(1.0, rel=1e-12)
    assert lhs == pytest.approx(0.272169, rel=1e-4)
    assert lhs < 10.0 * rhs
    with pytest.raises(SeparationError):
        op.tail_difference_bound(STD, quad, v, 0.3 + 0j, 0.33 + 0j, c=1.0)
    with pytest.raises(SeparationError):
        op.tail_difference_bound(STD, quad, v, 0.9 + 0j, 0.9 + 0.2j, c=1.0)


def test_weighted_norm_p2_hand_value():
    K = np.array([[2.0, 0.0], [0.0, 1.0]])
    mu = np.array([1.0, 2.0])
    u = np.array([3.0, 1.0])
    sigma = np.array([1.0, 4.0])
    # diag(sqrt(u mu)) K diag(sqrt(sigma mu)) = diag(2 sqrt 3, 4)
    assert op.weighted_norm_p2(K, mu, u, sigma) == pytest.approx(4.0,
                                                                 rel=1e-12)


def test_weighted_norm_lp_lower():
    rng = np.random.default_rng(7)
    K = rng.uniform(0.0, 1.0, size=(30, 30))
    mu = rng.uniform(0.5, 1.5, size=30)
    u = rng.uniform(0.5, 2.0, size=30)
    sigma = rng.uniform(0.5, 2.0, size=30)
    exact = op.weighted_norm_p2(K, mu, u, sigma)
    lower = op.weighted_norm_lp_lower(K, mu, u, sigma, p=2.0, seed=3)
    assert lower <= exact * (1.0 + 1e-10)
    assert lower >= 0.999 * exact  # power iteration converges at p=2
    lower3 = op.weighted_norm_lp_lower(K, mu, u, sigma, p=3.0, seed=3)
    assert 0.0 < lower3 < math.inf
    with pytest.raises(InvalidRangeError):
        op.weighted_norm_lp_lower(K, mu, u, sigma, p=1.0)
    with pytest.raises(InvalidRangeError):
        op.weighted_norm_lp_lower(-K, mu, u, sigma, p=2.0)
