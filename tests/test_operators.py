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
  * the matrix-free norms are pinned against dense oracles on the
    gathered kernel: svdvals at p = 2, and at p != 2 a nonlinear power
    iteration from random starts, which must land inside the bracket.
Deterministic grid quantities (identity error, comparability range)
were computed once and frozen.
"""

import math

import numpy as np
import pytest
from scipy.linalg import svdvals
from scipy.sparse.linalg import ArpackNoConvergence

from diskproj import czd
from diskproj import disk as dk
from diskproj import measures as ms
from diskproj import operators as op
from diskproj import twoweight as tw
from diskproj import weights as wt
from diskproj.errors import (InvalidRangeError, NoAdmissiblePairError,
                             NoConvergenceError, QuadratureMismatchError)
from diskproj.kernels import KernelSpec, kernel_integral_grid

ATOM1 = ms.point_mass(1.0, 1.0)
STD = KernelSpec(gamma=1.0, nu=ATOM1, name="std")


def std_psi():
    return op.PsiProfile(1.0, ATOM1, name="std")


def gather(h):
    """The handle's full kernel matrix, gathered: a dense test oracle."""
    return h.kernel_block(np.arange(h.mu.size))


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
    K = gather(h)
    via_matrix = K @ (f * quad.masses)
    np.testing.assert_allclose(h.apply(f), via_matrix, rtol=1e-12)
    np.testing.assert_allclose(h.apply(f, matrix_free=True), via_matrix,
                               rtol=1e-12)
    pos = op.positive_handle(STD, quad)
    np.testing.assert_allclose(gather(pos), np.abs(K), rtol=1e-13)
    # the Psi handle is real symmetric by construction
    ph = op.psi_positive_handle(std_psi(), quad)
    m = gather(ph)
    assert np.all(m > 0.0)
    np.testing.assert_allclose(m, m.T, rtol=1e-13)


NUS = {"atom": ATOM1, "lebesgue": ms.lebesgue(), "halfmix": ms.half_atom_mix()}


@pytest.mark.parametrize("J, j0", [(6, 0), (5, 1)])
@pytest.mark.parametrize("gamma", [1.0, 2.0])
@pytest.mark.parametrize("nu_name", sorted(NUS))
def test_table_route_matches_dense_oracle(nu_name, gamma, J, j0):
    """FFT apply and gathered rows of the three kernel handles
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
        assert np.max(np.abs(gather(h) - K)) <= 1e-12 * np.max(np.abs(K))
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
    gather(h)
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
    K = gather(h)
    slow = K @ (f * quad.masses)
    np.testing.assert_allclose(fast, slow, rtol=1e-12)
    np.testing.assert_allclose(K, K.T)
    # L_max=0 keeps only the root square, which holds every node
    h0 = op.dyadic_handle(0.0, std_psi(), quad, L_max=0)
    want = float(np.sum(f * quad.masses))
    np.testing.assert_allclose(h0.apply(f), want, rtol=1e-13)
    h_half = op.dyadic_handle(0.5, std_psi(), quad)
    np.testing.assert_allclose(h_half.apply(f),
                               gather(h_half) @ (f * quad.masses),
                               rtol=1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("J", [3, 6])
def test_sparse_apply_complex_field(beta, J):
    """A complex field goes through the real and imaginary parts; a real
    field stays real."""
    quad = dk.build_quadrature(ms.lebesgue(), J=J)
    T = tw.sparse_bergman_model(std_psi(), quad, beta=beta)
    rng = np.random.default_rng(J)
    f = rng.standard_normal(quad.size) + 1j * rng.standard_normal(quad.size)
    want = T.kernel_rows(np.arange(quad.size)) @ (f * quad.masses)
    got = tw.apply_sparse(T, dk.Field(quad, f)).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    np.testing.assert_allclose(T.handle().apply(f), got, rtol=0.0, atol=0.0)
    assert np.isrealobj(T.apply(f.real))


def test_dyadic_kernel_hand_value():
    psi = std_psi()
    z = 0.9 * np.exp(2j * np.pi * 0.01)
    zeta = 0.9 * np.exp(2j * np.pi * 0.02)
    # shared squares at levels 0, 1, 2 with coefficients 4^l
    assert float(op._dyadic_kernel_pairs(0.0, psi, z, zeta, 2)) == 21.0
    # radius 0.9 misses the level-4 band even though the arcs agree
    assert float(op._dyadic_kernel_pairs(0.0, psi, z, zeta, 6)) == \
        pytest.approx(21.0 + 64.0)
    # random pairs against a scan of every grid arc at every level
    rng = np.random.default_rng(2)
    zs = 0.97 * np.exp(2j * np.pi * rng.random(50))
    ws = 0.97 * np.exp(2j * np.pi * rng.random(50))
    for beta in (0.0, 0.5):
        vec = op._dyadic_kernel_pairs(beta, psi, zs, ws, 6)
        want = np.zeros(zs.size)
        for k, (a, b) in enumerate(zip(zs, ws)):
            ta, tb = (np.angle([a, b]) / (2.0 * np.pi)) % 1.0
            for level in range(7):
                if min(abs(a), abs(b)) < 1.0 - 2.0 ** -level:
                    continue
                for m in range(2 ** level):
                    arc = dk.DyadicInterval(beta, level, m).arc
                    if arc.contains(ta) and arc.contains(tb):
                        want[k] += 4.0 ** level
        np.testing.assert_allclose(vec, want, rtol=1e-13)


BAD_DYADIC_INPUTS = {
    "mu-nan": lambda q: op.dyadic_handle(0.0, std_psi(), q, mu=np.nan),
    "mu-negative": lambda q: op.dyadic_handle(0.0, std_psi(), q,
                                              mu=-np.ones(q.size)),
    "mu-short": lambda q: op.dyadic_handle(0.0, std_psi(), q,
                                           mu=q.masses[:-1]),
    "tau-nan": lambda q: tw.sparse_bergman_model(
        std_psi(), q, L_max=1, tau=[np.ones(1), np.array([1.0, np.nan])]),
    "bp-depth-negative": lambda q: wt.bp_characteristic(
        wt.weight_field(q), 2.0, -1),
    "maximal-cap-negative": lambda q: wt.dyadic_maximal(
        q, q.masses, 0.0, np.ones(q.size), L_max=-2),
    "handle-cap-negative": lambda q: op.dyadic_handle(0.0, std_psi(), q,
                                                      L_max=-1),
    "comparability-cap-negative": lambda q: op.comparability_constants(
        std_psi(), 10, seed=0, L_max=-1),
    "shift-off-grid": lambda q: op.dyadic_handle(0.3, std_psi(), q),
    "psi-handle-mu-negative": lambda q: op.psi_positive_handle(
        std_psi(), q, mu=-q.masses),
    "maximal-nu-nan": lambda q: wt.dyadic_maximal(
        q, np.full(q.size, np.nan), 0.0, np.ones(q.size)),
    "maximal-nu-negative": lambda q: wt.weak11_maximal_check(
        q, -q.masses, 0.0, dk.Field.constant(q, 1.0)),
    "maximal-nu-short": lambda q: wt.weak11_maximal_check(
        q, q.masses[:-1], 0.5, dk.Field.constant(q, 1.0)),
}


@pytest.mark.parametrize("call", BAD_DYADIC_INPUTS.values(),
                         ids=list(BAD_DYADIC_INPUTS))
def test_dyadic_inputs_out_of_range_raise(leb_quad5, call):
    with pytest.raises(InvalidRangeError):
        call(leb_quad5)


MISMATCHED_QUADRATURE = {
    "weak11-projection": lambda q, o: wt.weak11_projection_check(
        wt.weight_field(q), dk.Field.constant(o, 1.0),
        dk.Field.constant(q, 1.0)),
    "weak11-maximal": lambda q, o: wt.weak11_maximal_check(
        q, q.masses, 0.0, dk.Field.constant(o, 1.0)),
    "split": lambda q, o: tw.split_by_criterion(
        dk.Field.constant(q, 1.0), dk.Field.constant(q, 1.0),
        wt.weight_field(o), wt.weight_field(q), 2.0, 2),
    "testing": lambda q, o: tw.testing_constants(
        tw.sparse_bergman_model(std_psi(), q), wt.weight_field(o),
        wt.weight_field(q), 2.0, 2),
    "cz-weak11": lambda q, o: czd.cz_reconstruct_weak11_bound(
        STD, wt.weight_field(o), dk.Field.constant(q, 1.0), 2.0),
}


@pytest.mark.parametrize("call, other, error", [
    *(pytest.param(call, other, QuadratureMismatchError, id=f"{name}-{other}")
      for name, call in MISMATCHED_QUADRATURE.items()
      for other in ("J6", "power1")),
    pytest.param(lambda q, o: op.bergman_handle(STD, q).apply(np.ones(o.size)),
                 "J6", InvalidRangeError, id="apply-J6")])
def test_mismatched_quadratures_raise(leb_quad5, leb_quad6, call, other,
                                      error):
    """An item on a deeper quadrature, or on a same-size one over another
    measure, raises instead of crashing in numpy or returning a number;
    a handle rejects a value array of the wrong length."""
    o = leb_quad6 if other == "J6" else \
        dk.build_quadrature(ms.power_measure(1.0), J=5)
    with pytest.raises(error):
        call(leb_quad5, o)


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


def handle_kinds(quad):
    """One handle of every kind: the Lanczos adjoint assumes each kernel
    equals its conjugate transpose."""
    spec = KernelSpec(gamma=2.0, nu=ms.half_atom_mix())
    psi = op.PsiProfile(2.0, ms.half_atom_mix())
    return {"bergman": op.bergman_handle(spec, quad),
            "positive": op.positive_handle(spec, quad),
            "psi-positive": op.psi_positive_handle(psi, quad),
            "dyadic-0": op.dyadic_handle(0.0, psi, quad),
            "dyadic-1/2": op.dyadic_handle(0.5, psi, quad)}


@pytest.mark.parametrize("J", [4, 6])
def test_handle_kernels_are_hermitian(J):
    for kind, h in handle_kinds(dk.build_quadrature(ms.lebesgue(), J=J)
                                ).items():
        K = gather(h)
        err = np.max(np.abs(K - K.conj().T)) / np.max(np.abs(K))
        assert err <= 1e-13, kind
        if h.positive:
            assert np.isrealobj(K) and K.min() >= 0.0, kind


def matrix_handle(K, mu):
    """A handle that applies a given kernel matrix: K @ (x mu)."""
    K = np.asarray(K)
    return op.OperatorHandle(None, lambda rows: K[rows], mu,
                             positive=bool(np.isrealobj(K) and K.min() >= 0.0),
                             fast_apply=lambda x: K @ (x * mu))


def weighted_matrix(K, mu, u, sigma, p):
    q = p / (p - 1.0)
    return ((u * mu) ** (1.0 / p))[:, None] * K * \
        ((sigma * mu) ** (1.0 / q))[None, :]


def random_start_lower(A, p, starts=16, iters=300, seed=0):
    """Nonlinear power iteration from the constant vector and random
    starts on a dense nonnegative matrix: a lower bound for its l^p norm."""
    q = p / (p - 1.0)
    rng = np.random.default_rng(seed)
    best = 0.0
    n = A.shape[1]
    for s in range(starts + 1):
        x = np.ones(n) if s == 0 else rng.uniform(0.1, 1.0, size=n)
        x /= np.linalg.norm(x, ord=p)
        for _ in range(iters):
            y = A @ x
            z = A.T @ (y / np.linalg.norm(y, ord=p)) ** (p - 1.0)
            x = np.maximum(z, 0.0) ** (q - 1.0)
            x /= np.linalg.norm(x, ord=p)
        best = max(best, float(np.linalg.norm(A @ x, ord=p)))
    return best


@pytest.fixture(scope="module", params=[6, 8], ids=["J6", "J8"])
def norm_instance(request):
    quad = dk.build_quadrature(ms.lebesgue(), J=request.param)
    sigma, u, _, _ = tw.random_instance(quad, request.param)
    return quad, handle_kinds(quad), u.values, sigma.values


@pytest.mark.parametrize("kind", ["bergman", "positive", "psi-positive",
                                  "dyadic-0", "dyadic-1/2"])
def test_weighted_norm_p2_matches_svdvals(norm_instance, kind):
    quad, handles, u, sigma = norm_instance
    h = handles[kind]
    want = svdvals(weighted_matrix(gather(h), h.mu, u, sigma, 2.0))[0]
    got = op.weighted_norm_p2(h, u, sigma)
    assert got == pytest.approx(want, rel=1e-12)
    assert op.weighted_norm_bracket(h, u, sigma, 2.0) == (got, got, True)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("kind", ["positive", "psi-positive", "dyadic-0",
                                  "dyadic-1/2"])
def test_weighted_norm_lp_bracket_closes(norm_instance, kind, p):
    quad, handles, u, sigma = norm_instance
    h = handles[kind]
    lower, upper, closed = op.weighted_norm_bracket(h, u, sigma, p)
    assert closed and 0.0 < lower and upper - lower <= 1e-10 * upper
    if quad.J <= 6:
        old = random_start_lower(weighted_matrix(gather(h), h.mu, u, sigma,
                                                 p), p)
        assert lower * (1.0 - 1e-10) <= old <= upper * (1.0 + 1e-12)


def test_weighted_norm_p2_hand_value():
    K = np.array([[2.0, 0.0], [0.0, 1.0]])
    mu = np.array([1.0, 2.0])
    u = np.array([3.0, 1.0])
    sigma = np.array([1.0, 4.0])
    # diag(sqrt(u mu)) K diag(sqrt(sigma mu)) = diag(2 sqrt 3, 4)
    assert op.weighted_norm_p2(matrix_handle(K, mu), u, sigma) == \
        pytest.approx(4.0, rel=1e-12)


def test_weighted_norm_lp_lower():
    rng = np.random.default_rng(7)
    K = rng.uniform(0.0, 1.0, size=(30, 30))
    K = K + K.T
    mu = rng.uniform(0.5, 1.5, size=30)
    u = rng.uniform(0.5, 2.0, size=30)
    sigma = rng.uniform(0.5, 2.0, size=30)
    h = matrix_handle(K, mu)
    exact = op.weighted_norm_p2(h, u, sigma)
    assert exact == pytest.approx(
        svdvals(weighted_matrix(K, mu, u, sigma, 2.0))[0], rel=1e-12)
    # just off p = 2, Boyd's bracket closes near the singular value
    lower, upper, closed = op.weighted_norm_bracket(h, u, sigma, 2.0 + 1e-9)
    assert closed and upper - lower <= 1e-12 * upper
    assert lower == pytest.approx(exact, rel=1e-7)
    lower3, upper3, closed3 = op.weighted_norm_bracket(h, u, sigma, 3.0)
    old = random_start_lower(weighted_matrix(K, mu, u, sigma, 3.0), 3.0)
    assert closed3 and lower3 * (1.0 - 1e-10) <= old <= upper3 * (1.0 + 1e-12)
    # a zero column (a massless cell) drops out of the Schur bound
    mu0 = mu.copy()
    mu0[3] = 0.0
    lo0, up0, closed0 = op.weighted_norm_bracket(matrix_handle(K, mu0), u,
                                                 sigma, 3.0)
    assert closed0 and 0.0 < lo0 < lower3
    with pytest.raises(InvalidRangeError):
        op.weighted_norm_bracket(h, u, sigma, p=1.0)
    with pytest.raises(InvalidRangeError):
        op.weighted_norm_bracket(matrix_handle(K - 0.5, mu), u, sigma, 3.0)
    with pytest.raises(InvalidRangeError):
        op.weighted_norm_p2(h, u[:-1], sigma)
    with pytest.raises(InvalidRangeError):
        op.weighted_norm_bracket(h, u, np.full(30, np.nan), 3.0)


def test_lanczos_failure_is_a_diskproj_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(op, "svds", no_convergence)
    h = matrix_handle(np.eye(3), np.ones(3))
    with pytest.raises(NoConvergenceError):
        op.weighted_norm_p2(h, np.ones(3), np.ones(3))
