"""Kernel routes, the moment construction, and the analytic verifiers.

Independent oracles used here:
- gamma = 1, nu = atom at 1 gives kernel coefficients n+1 and kernel
  (1-w)^(-2) in closed form;
- gamma = alpha+2, nu = atom at 0 gives coefficients C(n+alpha+1, n)
  (binomial series of (1-w)^(-gamma));
- for nu = Lebesgue the construction values F(1/2 + m) are harmonic
  numbers H_s at s = (m+1)/2, i.e. digamma(s+1) + Euler gamma, with
  H_{1/2} = 2 - 2 log 2 and H_{3/2} = 8/3 - 2 log 2 exactly;
- phi-hat(j) = 1 + H_j gives partial sums (n+1) H_{n+1}, checked
  against the Cauchy-product coefficients computed with a bare double
  loop;
- the explicit difference constant at (c, gamma) = (2, 1) is 84 sqrt 2;
- adaptive Simpson on the raw integrands (the helpers below) for the
  Cauchy transform, the lower bound, the kernel difference bound and the
  construction values: the library runs all of these on the graded rule.
"""

import math

import numpy as np
import pytest
from scipy.special import digamma

from diskproj import kernels as kn
from diskproj import measures as ms
from diskproj._integrate import adaptive_simpson, graded_gl_rule
from diskproj.errors import (InvalidRangeError, SeparationError,
                             TruncationInfeasibleError)

ATOM1 = ms.point_mass(1.0, 1.0)


def harmonic_number(s):
    return digamma(s + 1.0) + np.euler_gamma


def simpson_nu_integral(nu, g, tol=1e-12):
    """int g(r) dnu(r): adaptive Simpson on the density, atoms exact."""
    total = 0.0
    if nu.density is not None:
        dens = nu.density
        total += adaptive_simpson(lambda r: g(r) * dens(r), 0.0, 1.0, tol=tol)
    return total + sum(mass * g(loc) for loc, mass in nu.atoms)


def simpson_cauchy(nu, w):
    return simpson_nu_integral(nu, lambda r: 1.0 / (1.0 - r * w))


def simpson_kernel(spec, w):
    return (1.0 - w) ** -spec.gamma * simpson_cauchy(spec.nu, w)


# -- moment tables -------------------------------------------------------------

def test_binomial_weights_match_comb():
    for gamma in (1, 2, 3):
        got = kn.binomial_weights(float(gamma), 12)
        want = [math.comb(k + gamma - 1, k) for k in range(13)]
        np.testing.assert_allclose(got, want, rtol=1e-14)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5])
def test_moment_table_matches_beta_oracle(alpha):
    # alpha < 0 has a density singular at r = 1: the rule runs in the
    # endpoint variable u = (1-r)^(1+alpha) there, and the density's own
    # 1 - r^2 near r = 1 limits it to about 1e-10
    rtol = 1e-9 if alpha < 0.0 else 1e-12
    meas = ms.power_measure(alpha)
    table = kn.nu_moment_table(meas, 16)
    want = [(alpha + 1.0) / 2.0 * math.gamma((j + 1.0) / 2.0)
            * math.gamma(alpha + 1.0) / math.gamma((j + 1.0) / 2.0 + alpha + 1.0)
            for j in range(17)]
    np.testing.assert_allclose(table, want, rtol=rtol)


def test_moment_table_matches_adaptive_route():
    # the graded rule against adaptive Simpson on the raw integrand
    for nu in (ms.lebesgue(), ms.power_measure(1.0), ms.half_atom_mix()):
        table = kn.nu_moment_table(nu, 30)
        adaptive = [simpson_nu_integral(nu, lambda r, j=j: r ** j, tol=1e-14)
                    for j in range(31)]
        np.testing.assert_allclose(table, adaptive, rtol=1e-11)
        np.testing.assert_allclose([nu.moment(float(j)) for j in range(31)],
                                   adaptive, rtol=1e-11)


# -- kernel spec and the two evaluation routes ----------------------------------

def test_atom_kernel_is_the_quadratic_standard_kernel():
    spec = kn.KernelSpec(gamma=1.0, nu=ATOM1)
    coefs = spec.coefficients(20)
    np.testing.assert_allclose(coefs, np.arange(1.0, 22.0), rtol=1e-14)
    moments = spec.moments(300)
    np.testing.assert_allclose(moments, 1.0 / (2.0 * np.arange(1.0, 302.0)),
                               rtol=1e-14)
    for x in (0.0, 0.3, 0.7):
        val = kn.kernel_series(list(moments), x)
        assert val == pytest.approx((1.0 - x) ** -2, rel=1e-12)
    w = 0.4 + 0.3j
    assert kn.kernel_integral(spec, w) == pytest.approx((1.0 - w) ** -2,
                                                        rel=1e-12)


@pytest.mark.parametrize("alpha", [0, 1, 2])
def test_atom_at_zero_gives_binomial_coefficients(alpha):
    # (1-w)^(-gamma) * 1 with gamma = alpha + 2: the general standard kernel
    spec = kn.KernelSpec(gamma=float(alpha + 2), nu=ms.point_mass(0.0, 1.0))
    coefs = spec.coefficients(24)
    want = [math.comb(n + alpha + 1, n) for n in range(25)]
    np.testing.assert_allclose(coefs, want, rtol=1e-13)


def test_kernel_series_matches_direct_polynomial_sum():
    moments = 1.0 / (2.0 * np.arange(1.0, 401.0))
    x = 0.7
    series = kn.kernel_series(list(moments), x)
    direct = float(np.polyval((1.0 / (2.0 * moments))[::-1], x))
    assert series == pytest.approx(direct, rel=1e-12)


def test_kernel_series_truncation_guards():
    moments = [0.5, 0.25]
    with pytest.raises(TruncationInfeasibleError):
        kn.kernel_series(moments, 0.9)        # list exhausted before tail met
    with pytest.raises(TruncationInfeasibleError):
        kn.kernel_series(moments, 0.9999999)  # |x| above the series cap
    with pytest.raises(InvalidRangeError):
        kn.kernel_series([0.5, -1.0, 0.1], 0.5)
    with pytest.raises(InvalidRangeError):
        kn.kernel_series([0.5, math.nan, 0.1], 0.5)


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_kernel_spec_rejects_non_finite_gamma(gamma):
    with pytest.raises(InvalidRangeError):
        kn.KernelSpec(gamma=gamma, nu=ATOM1)
    with pytest.raises(InvalidRangeError):
        kn.KernelSpec(gamma=0.5, nu=ATOM1)


def test_graded_rule_keeps_nodes_below_one():
    for order in (16, 24):   # the orders RadialMeasure.density_rule uses
        nodes, weights = graded_gl_rule(order=order)
        assert nodes.max() < 1.0
        assert np.all(weights > 0.0)
    with pytest.raises(InvalidRangeError):
        graded_gl_rule(n_panels=80)   # grades past double resolution at 1


def test_series_and_integral_routes_agree_for_log_kernel():
    spec = kn.KernelSpec(gamma=1.0, nu=ms.lebesgue())
    mc = kn.construct_omega_from_nu(ms.lebesgue(), 301)
    x = 0.55
    series = kn.kernel_series(list(mc.constructed_moments[1::2]), x)
    integral = kn.kernel_integral(spec, x).real
    closed = math.log(1.0 / (1.0 - x)) / (x * (1.0 - x))
    assert series == pytest.approx(closed, rel=1e-10)
    assert integral == pytest.approx(closed, rel=1e-10)


def test_cauchy_grid_matches_scalar_transform():
    nu = ms.half_atom_mix()
    w = np.array([0.2 + 0.1j, -0.5, 0.8j, 0.95])
    grid = kn.nu_cauchy_grid(nu, w)
    oracle = np.array([simpson_cauchy(nu, complex(x)) for x in w])
    np.testing.assert_allclose(grid, oracle, rtol=1e-10)
    scalar = [kn.nu_cauchy_transform(nu, complex(x)) for x in w]
    np.testing.assert_allclose(scalar, oracle, rtol=1e-10)
    # enough arguments to span several node x argument blocks
    many = 0.9 * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 10_000))
    grid = kn.nu_cauchy_grid(nu, many)[::999]
    oracle = [simpson_cauchy(nu, complex(x)) for x in many[::999]]
    np.testing.assert_allclose(grid, oracle, rtol=1e-10)
    with pytest.raises(InvalidRangeError):
        kn.kernel_integral(kn.KernelSpec(gamma=1.0, nu=nu), 1.0)


# -- moment construction ---------------------------------------------------------

def test_construction_matches_harmonic_numbers():
    mc = kn.construct_omega_from_nu(ms.lebesgue(), 400)
    m = np.arange(401)
    want = harmonic_number((m + 1.0) / 2.0)
    err = np.max(np.abs(mc.F_values - want) / want)
    assert err < 1e-13
    # closed forms at the half-integer orders
    assert mc.F_values[0] == pytest.approx(2.0 - 2.0 * math.log(2.0),
                                           abs=1e-14)
    assert mc.F_values[1] == pytest.approx(1.0, abs=1e-14)
    assert mc.F_values[2] == pytest.approx(8.0 / 3.0 - 2.0 * math.log(2.0),
                                           abs=1e-14)
    assert mc.F_values[3] == pytest.approx(1.5, abs=1e-14)
    assert mc.constructed_moments[1] == pytest.approx(0.5, abs=1e-10)
    assert mc.constructed_moments[3] == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_construction_internal_identities():
    mc = kn.construct_omega_from_nu(ms.lebesgue(), 41)
    assert mc.identity_max_error <= 1e-12
    # partial sums of the phi coefficients are the odd-order F values
    np.testing.assert_allclose(np.cumsum(mc.phi_coefficients),
                               mc.F_values[1::2], rtol=1e-12)
    # single-order route and table route against adaptive Simpson on the
    # raw integrand (1 - r^s)/(1-r), s = (a + 5 + 1/2)/2 = 3
    s = 3.0
    F5 = adaptive_simpson(lambda r: s if r == 1.0 else (1.0 - r ** s) / (1.0 - r),
                          0.0, 1.0, tol=1e-13)
    assert mc.moment_at(5.0) == pytest.approx(1.0 / (2.0 * F5), rel=1e-11)
    assert mc.constructed_moments[5] == pytest.approx(1.0 / (2.0 * F5),
                                                      rel=1e-11)
    # tail surrogate is the moment at order 1/(1-x)
    assert mc.tail(0.5) == pytest.approx(mc.moment_at(2.0), rel=1e-12)
    with pytest.raises(InvalidRangeError):
        mc.tail(1.0)
    with pytest.raises(InvalidRangeError):
        kn.construct_omega_from_nu(ms.lebesgue(), 0)


def test_construction_divergence_warning_classification():
    # finite int dnu/(1-r) means the representation hypothesis is
    # suspect and must be flagged; log-divergent cases must not be
    flagged = {"lebesgue": False, "atom1": False, "loginv": False,
               "halfmix": False, "atom_half": True, "expinv": True}
    cases = {"lebesgue": ms.lebesgue(), "atom1": ATOM1,
             "loginv": ms.loginv(), "halfmix": ms.half_atom_mix(),
             "atom_half": ms.point_mass(0.5, 1.0), "expinv": ms.expinv()}
    for tag, nu in cases.items():
        mc = kn.construct_omega_from_nu(nu, 4)
        assert mc.hypothesis_warning == flagged[tag], tag


def test_harmonic_phi_partial_sums_closed_form():
    n_coef = 64
    h = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1.0, n_coef))])
    phi = 1.0 + h
    coefs = 1.0 / (2.0 * kn.moments_from_phi(phi))
    closed = np.array([(n + 1.0) * harmonic_number(n + 1.0)
                       for n in range(n_coef)])
    np.testing.assert_allclose(coefs, closed, rtol=1e-12)
    # bare double-loop Cauchy product of (1-x)^-2 and its log series
    oracle = np.empty(n_coef)
    for n in range(n_coef):
        oracle[n] = (n + 1.0) + sum((n + 1.0 - k) / k for k in range(1, n + 1))
    np.testing.assert_allclose(coefs, oracle, rtol=1e-12)


def test_moments_from_phi_and_inversion():
    np.testing.assert_allclose(kn.moments_from_phi([1.0, 1.0, 1.0]),
                               [0.5, 0.25, 1.0 / 6.0], rtol=1e-14)
    with pytest.raises(InvalidRangeError):
        kn.moments_from_phi([1.0, 0.0])


# -- analytic verifiers ----------------------------------------------------------

def test_completely_monotone_sequences():
    rep = kn.check_completely_monotone([1.0 / (n + 1) for n in range(51)],
                                       k_max=10)
    assert rep.passed and rep.first_violation is None
    rep2 = kn.check_completely_monotone(list(range(51)), k_max=10)
    assert not rep2.passed
    assert rep2.first_violation[:2] == (1, 0)
    # any true moment sequence passes
    table = kn.nu_moment_table(ms.power_measure(1.0), 40)
    assert kn.check_completely_monotone(table, k_max=8).passed
    with pytest.raises(InvalidRangeError):
        kn.check_completely_monotone([1.0, 0.5], k_max=5)


def test_transform_lower_bound_atom_is_sqrt2_on_reals():
    z = np.array([0.7, 0.2 + 0.5j, -0.9, 0.1j])
    lhs, _, grid_ratio = kn.lower_bound_eq4_grid(ATOM1, z)
    assert grid_ratio[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert lhs[0] == pytest.approx(1.0 / 0.3, rel=1e-14)
    oracle = [abs(simpson_cauchy(ATOM1, x)) * math.sqrt(2.0)
              / simpson_nu_integral(ATOM1, lambda r, x=x: 1.0 / abs(1.0 - r * x))
              for x in z]
    np.testing.assert_allclose(grid_ratio, oracle, rtol=1e-12)
    assert np.all(grid_ratio >= 1.0)


def test_transform_lower_bound_randoms():
    rng = np.random.default_rng(11)
    z = np.sqrt(rng.random(2000)) * 0.999 * \
        np.exp(2j * np.pi * rng.random(2000))
    for nu in (ms.lebesgue(), ms.half_atom_mix()):
        _, _, ratio = kn.lower_bound_eq4_grid(nu, z)
        assert float(ratio.min()) >= 1.0 - 1e-12
    with pytest.raises(InvalidRangeError):
        kn.lower_bound_eq4_grid(ms.lebesgue(), 1.2)


def test_difference_constant_closed_form():
    assert kn.difference_constant(2.0, 1.0) == \
        pytest.approx(84.0 * math.sqrt(2.0), abs=1e-10)
    # direct recomputation of the formula at another point
    c, g = 4.0, 1.0
    want = math.sqrt(2.0) * (2.0 + g) * c ** (g + 1.0) * (3.0 * c + 1.0) \
        / (c - 1.0) ** (g + 2.0)
    assert kn.difference_constant(c, g) == pytest.approx(want, rel=1e-15)
    with pytest.raises(InvalidRangeError):
        kn.difference_constant(1.0, 1.0)


def test_difference_bound_scalar_grid_and_guards():
    spec = kn.KernelSpec(gamma=1.0, nu=ms.lebesgue())
    z0, z, zeta, c = 0.5, 0.52, -0.3 + 0.4j, 2.0
    b_z = simpson_kernel(spec, zeta * np.conj(z))
    b_z0 = simpson_kernel(spec, zeta * np.conj(z0))
    want_bound = kn.difference_constant(c, spec.gamma) * abs(z - z0) \
        / abs(1.0 - np.conj(zeta) * z) * abs(b_z)
    glhs, gbound = kn.difference_bound_grid(spec, [z0], [z], [zeta], c)
    assert glhs[0] <= gbound[0]
    assert glhs[0] == pytest.approx(abs(b_z0 - b_z), rel=1e-9)
    assert gbound[0] == pytest.approx(want_bound, rel=1e-9)
    with pytest.raises(SeparationError):
        kn.difference_bound_grid(spec, [0.0], [0.9], [0.9], 2.0)
    with pytest.raises(InvalidRangeError):
        kn.difference_bound_grid(spec, [0.0], [1.0], [0.5], 2.0)


def test_difference_bound_random_batch():
    spec = kn.KernelSpec(gamma=1.0, nu=ATOM1)
    rng = np.random.default_rng(5)
    n = 300
    z0 = np.sqrt(rng.random(n)) * 0.98 * np.exp(2j * np.pi * rng.random(n))
    z = z0 + 0.01 * rng.random(n) * np.exp(2j * np.pi * rng.random(n))
    zeta = np.sqrt(rng.random(n)) * 0.98 * np.exp(2j * np.pi * rng.random(n))
    keep = np.abs(1.0 - zeta.conjugate() * z) >= 2.0 * np.abs(z - z0)
    lhs, bound = kn.difference_bound_grid(spec, z0[keep], z[keep],
                                          zeta[keep], 2.0)
    assert np.all(lhs <= bound)


def test_tail_transform_exact_for_atom_and_lebesgue_weight():
    # gamma=1, nu = atom at 1, omega = Lebesgue: the ratio is
    # [1/(1-x)] * (1-x) / 1 = 1 at every x.
    spec = kn.KernelSpec(gamma=1.0, nu=ATOM1)
    leb = ms.lebesgue()
    for x in (0.0, 0.5, 1.0 - 2.0 ** -10):
        assert kn.shi_ratio(spec, leb, x) == pytest.approx(1.0, rel=1e-12)
    # constructed-weight surrogate tail stays within a narrow band
    mc = kn.construct_omega_from_nu(ms.lebesgue(), 16)
    spec_l = kn.KernelSpec(gamma=1.0, nu=ms.lebesgue())
    vals = [kn.shi_ratio(spec_l, mc, 1.0 - 2.0 ** -k) for k in range(1, 11)]
    assert max(vals) / min(vals) < 10.0
    with pytest.raises(InvalidRangeError):
        kn.shi_ratio(spec, leb, 1.0)


def test_tail_vanished_error():
    from diskproj.errors import TailVanishedError
    dead = ms.RadialMeasure(
        name="inner", density=lambda r: (np.asarray(r) < 0.5).astype(float))
    spec = kn.KernelSpec(gamma=1.0, nu=ATOM1)
    with pytest.raises(TailVanishedError):
        kn.shi_ratio(spec, dead, 0.75)
