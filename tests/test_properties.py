"""Property tests.

The kernel layer's entry points give finite values or raise a
DiskprojError on every accepted input. Inputs: the catalog measures
(power at alpha in {-1/2, 0, 1}), gamma in {1, 2}, and arguments
|w| < 1 (x = |w| in [0, 1) where a real argument is needed). A silent
NaN or infinity, or an exception that is not a DiskprojError, fails the
test.

The argument-graded rule of measures that declare an analytic density
matches the full rule, kept as the oracle, for both kernel-layer
integrands at orders 16 and 24 and |1 - w| = 2^-s, s in [0, 40]: to
1e-14 relative for |1 - w| >= 2^-10. Closer to 1 both routes lose
digits to the rounding of 1 - r w. There the full rule's error is its
largest relative error against the closed form -log(1 - w)/w of the
unit density over 256 arguments of the drawn w's dyadic band, the drawn
one among them. The graded route's error on a unit density may be no
larger, and on any measure the two routes may differ by no more.

The dyadic layer matches brute force at depths J = 1..6, angular
refinements j0 = 0..2 and both grid shifts: the dyadic handle against
the double sum over node pairs, and the dyadic maximal function against
averages over each square, with the squares found by scanning every
grid arc at levels up to J + 2, and the level index against the same
scan at level caps up to J + 2; B_p stays >= 1 at those depths. Each
grid's square-by-cell incidence matrix S and its transpose give the
per-level bincount and gather of dyadic_oracle bit for bit, at J = 1..8,
on fields with zeros and on a measure with massless bands. So do the
heap passes of the dyadic maximal function, on both grids, and of the
linearization's maximal bound, against the max over St's rows, and
SquareIncidence.sums, one single-vector product per column, against
both the oracle and the product with the stacked columns.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from diskproj import disk as dk
from diskproj import kernels as kn
from diskproj import measures as ms
from diskproj import operators as op
from diskproj import twoweight as tw
from diskproj import weights as wt
from diskproj.errors import DiskprojError
from dyadic_oracle import (dyadic_maximal, incidence_spread, incidence_sums,
                           row_max)

MEASURES = {
    "lebesgue": ms.lebesgue(),
    "power(-0.5)": ms.power_measure(-0.5),
    "power(0)": ms.power_measure(0.0),
    "power(1)": ms.power_measure(1.0),
    "point1": ms.point_mass(1.0, 1.0, name="point1"),
    "loginv": ms.loginv(),
    "expinv": ms.expinv(),
    "halfmix": ms.half_atom_mix(),
}


@functools.lru_cache(maxsize=None)
def construction(name):
    return kn.construct_omega_from_nu(MEASURES[name], 16)


def assert_finite_or_raises(fn):
    try:
        value = fn()
    except DiskprojError:
        return
    assert np.all(np.isfinite(value)), value


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(MEASURES)),
       gamma=st.sampled_from([1.0, 2.0]),
       radius=st.floats(0.0, 1.0, exclude_max=True),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_kernel_layer_is_finite_or_raises(name, gamma, radius, angle):
    nu = MEASURES[name]
    w = radius * complex(math.cos(angle), math.sin(angle))
    spec = kn.KernelSpec(gamma=gamma, nu=nu)
    assert_finite_or_raises(lambda: kn.nu_cauchy_transform(nu, w))
    assert_finite_or_raises(lambda: kn.kernel_integral(spec, w))
    assert_finite_or_raises(lambda: kn.lower_bound_eq4_grid(nu, w))
    assert_finite_or_raises(lambda: construction(name).tail(radius))
    assert_finite_or_raises(
        lambda: kn.shi_ratio(spec, construction(name), radius))


GRADED = {"lebesgue": ms.lebesgue(), "halfmix": ms.half_atom_mix(),
          "power(0)": ms.power_measure(0.0), "power(1)": ms.power_measure(1.0),
          "power(2)": ms.power_measure(2.0)}
UNIT_DENSITY = ("lebesgue", "halfmix", "power(0)")   # density 1 on [0, 1)
UNIT = GRADED["lebesgue"]
INTEGRANDS = {"cauchy": lambda r, x: 1.0 / (1.0 - r * x),
              "distance": lambda r, x: 1.0 / np.abs(1.0 - r * x)}
BAND_SIZE = 256


def near_one(s, u):
    """w = 1 - 2^-s e^(i phi), phi = u arccos(2^-s / 2), so |w| <= 1."""
    gap = 2.0 ** -np.asarray(s)
    return 1.0 - gap * np.exp(1j * np.asarray(u) * np.arccos(gap / 2.0))


def full_rule(nu, w, integrand, tol):
    nodes, dens_w = nu.density_rule(tol=tol)
    return dens_w @ integrand(nodes[:, None], np.atleast_1d(w)[None, :])


def unit_density_error(w, values):
    """Relative error of int_0^1 dr/(1 - r w) against -log(1 - w)/w; 1 - w
    is exact for w this close to 1."""
    exact = -np.log(1.0 - w) / w
    return np.abs(values - exact) / np.abs(exact)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(GRADED)),
       tol=st.sampled_from([kn.DEFAULT_TOL, 1e-13]),   # orders 16 and 24
       integrand=st.sampled_from(sorted(INTEGRANDS)),
       k=st.integers(0, 39), frac=st.floats(0.0, 1.0),
       u=st.floats(-1.0, 1.0))
def test_argument_rule_matches_full_rule(name, tol, integrand, k, frac, u):
    nu, fn = GRADED[name], INTEGRANDS[integrand]
    s = k + frac                      # |1 - w| = 2^-s, s in [0, 40]
    w = complex(near_one(s, u))
    assume(abs(w) <= 1.0)
    graded = kn._density_sums(nu, np.array([w]), fn, tol)[0]
    full = full_rule(nu, w, fn, tol)[0]
    if s <= 10.0:
        assert abs(graded - full) <= 1e-14 * abs(full)
        return
    j = np.arange(BAND_SIZE - 1)
    band = np.concatenate(([w], near_one(k + (j + 0.5) / j.size,
                                         np.cos(np.pi * (0.618034 * j % 1.0)))))
    band = band[np.abs(band) <= 1.0]
    full_error = unit_density_error(
        band, full_rule(UNIT, band, INTEGRANDS["cauchy"], tol)).max()
    assert abs(graded - full) <= full_error * abs(full)
    if name in UNIT_DENSITY and integrand == "cauchy":
        assert unit_density_error(w, graded) <= full_error


PSI = op.PsiProfile(1.0, ms.point_mass(1.0, 1.0))  # Psi(2^-l) 2^l = 4^l


@functools.lru_cache(maxsize=None)
def quadrature(J, j0):
    return dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)


def square_labels(quad, beta, level):
    """Arc of the level's grid square holding each node, -1 for none."""
    labels = np.full(quad.size, -1)
    inside = quad.nodes_r >= 1.0 - 2.0 ** -level
    for m in range(2 ** level):
        arc = dk.DyadicInterval(beta, level, m).arc
        labels[inside & arc.contains(quad.nodes_t)] = m
    return labels


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(J=st.integers(1, 6), j0=st.sampled_from([0, 1, 2]),
       beta=st.sampled_from(dk.GRID_SHIFTS), p=st.sampled_from([1.5, 2.0, 4.0]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_dyadic_layer_matches_brute_force(J, j0, beta, p, seed, data):
    quad = quadrature(J, j0)
    depth = data.draw(st.integers(0, J + 2), label="depth")
    rng = np.random.default_rng(seed)
    f = rng.pareto(1.5, quad.size) + 1e-3
    v = wt.WeightField(quad, np.exp(rng.normal(0.0, 2.0, quad.size)))
    mu = quad.masses
    # levels past J hold no node, so the sums below may run to J + 2
    labels = [square_labels(quad, beta, level) for level in range(J + 3)]
    # the level index: members are the suffix of labelled cells, in order,
    # and the level's rows of S list each square's members
    inc = quad.incidence(beta)
    for level, lab in enumerate(labels[:depth + 1]):
        start = quad.level_start(level)
        np.testing.assert_array_equal(np.flatnonzero(lab >= 0),
                                      np.arange(start, quad.size))
        got = np.full(quad.size, -1)
        for m in range(1 << level) if level <= J else ():
            cells = inc.cells(dk.square_row(level, m))
            assert np.all(got[cells] == -1)
            got[cells] = m
        np.testing.assert_array_equal(got, lab)

    kernel = np.zeros((quad.size, quad.size))
    for level, lab in enumerate(labels):
        same = (lab[:, None] == lab[None, :]) & (lab[:, None] >= 0)
        kernel += 4.0 ** level * same
    out = op.dyadic_handle(beta, PSI, quad).apply(f)
    np.testing.assert_allclose(out, kernel @ (f * mu), rtol=1e-12)

    want = np.zeros(quad.size)
    for lab in labels:
        for m in np.unique(lab[lab >= 0]):
            cells = lab == m
            avg = np.sum(f[cells] * mu[cells]) / np.sum(mu[cells])
            want[cells] = np.maximum(want[cells], avg)
    got = wt.dyadic_maximal(quad, mu, beta, f)
    np.testing.assert_allclose(got, want, rtol=1e-12)

    bp = wt.bp_characteristic(v, p, depth)
    assert bp.value >= 1.0
    assert np.all(np.isfinite([*out, *got, *bp.per_depth]))


INCIDENCE_MEASURES = {"lebesgue": ms.lebesgue(),
                      "atom(0.9)": ms.point_mass(0.9, 1.0)}


@functools.lru_cache(maxsize=None)
def incidence_quadrature(name, J, j0):
    return dk.build_quadrature(INCIDENCE_MEASURES[name], J=J, j0=j0)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(INCIDENCE_MEASURES)), J=st.integers(1, 8),
       j0=st.sampled_from([0, 1, 2]), beta=st.sampled_from(dk.GRID_SHIFTS),
       k=st.integers(1, 4), zero_share=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_incidence_products_match_level_oracle(name, J, j0, beta, k,
                                               zero_share, seed):
    """S @ V and St @ y equal the per-level bincount and gather exactly."""
    quad = incidence_quadrature(name, J, j0)
    inc = quad.incidence(beta)
    rng = np.random.default_rng(seed)
    V = rng.normal(0.0, 1.0, (quad.size, k)) * \
        (rng.random((quad.size, k)) >= zero_share)
    np.testing.assert_array_equal(inc.S @ V, incidence_sums(quad, beta, V))
    y = rng.pareto(1.5, inc.masses.size) * \
        (rng.random(inc.masses.size) >= zero_share)
    np.testing.assert_array_equal(inc.St @ y,
                                  incidence_spread(quad, beta, y))
    np.testing.assert_array_equal(
        inc.masses, incidence_sums(quad, beta, quad.masses)[:, 0])
    # int32 indices; both grids and both matrices share one array of ones
    other = quad.incidence(0.5 - beta)
    assert inc.S.indices.dtype == inc.St.indices.dtype == np.int32
    assert inc.S.shape == inc.St.shape[::-1] == ((2 << J) - 1, quad.size)
    assert np.shares_memory(inc.S.data, inc.St.data)
    assert np.shares_memory(inc.S.data, other.St.data)
    assert np.all(inc.S.data == 1.0)


MAXIMAL_MEASURES = {"lebesgue": ms.lebesgue(),
                    "point(0.75)": ms.point_mass(0.75)}


@functools.lru_cache(maxsize=None)
def maximal_quadrature(name, J, j0):
    return dk.build_quadrature(MAXIMAL_MEASURES[name], J=J, j0=j0)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(MAXIMAL_MEASURES)), J=st.integers(1, 8),
       j0=st.sampled_from([0, 1, 2]), beta=st.sampled_from(dk.GRID_SHIFTS),
       zero_share=st.sampled_from([0.0, 0.5, 0.95]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_heap_maximal_matches_row_max(name, J, j0, beta, zero_share, seed):
    """dyadic_maximal's heap pass equals the max over St's rows bit for
    bit, for nu the cell masses and a nu with zeros, on fields with
    zeros; point(0.75) leaves most bands, and so most squares, massless.
    On the unshifted grid the linearization's maximal bound is (4/3)
    times the same max of the stopping family's averages."""
    quad = maximal_quadrature(name, J, j0)
    rng = np.random.default_rng(seed)
    f = rng.pareto(1.5, quad.size) * (rng.random(quad.size) >= zero_share)
    f *= rng.choice([-1.0, 1.0], quad.size)
    nu = quad.masses * rng.pareto(1.0, quad.size) * \
        (rng.random(quad.size) >= zero_share)
    for weights in (quad.masses, nu):
        np.testing.assert_array_equal(
            wt.dyadic_maximal(quad, weights, beta, f),
            dyadic_maximal(quad, weights, beta, f))
    if beta == 0.0 and np.any((f != 0.0) & (quad.masses > 0.0)):
        sigma = wt.WeightField(quad, np.exp(rng.normal(0.0, 1.0, quad.size)))
        fam = tw.stopping_family(dk.Field(quad, f), sigma,
                                 dk.DyadicInterval(0.0, 0, 0))
        _, rhs = tw.pointwise_linearization(fam)
        np.testing.assert_array_equal(
            rhs, (4.0 / 3.0) * row_max(quad, 0.0, fam.averages))
        np.testing.assert_array_equal(rhs, (4.0 / 3.0) * dyadic_maximal(
            quad, sigma.values * quad.masses, 0.0, f))


@pytest.mark.parametrize("beta", dk.GRID_SHIFTS)
@pytest.mark.parametrize("name", sorted(MAXIMAL_MEASURES))
def test_square_sums_match_stacked_product_and_oracle(name, beta):
    """SquareIncidence.sums, one single-vector product per column, equals
    the per-level oracle and the product with the stacked columns bit
    for bit, for one and for four columns with zeros, at J = 1..8 and
    j0 = 0..2; point(0.75) leaves most bands without mass."""
    rng = np.random.default_rng(int(beta * 2) + 10 * len(name))
    for J in range(1, 9):
        for j0 in (0, 1, 2):
            quad = maximal_quadrature(name, J, j0)
            inc = quad.incidence(beta)
            for k in (1, 4):
                columns = [rng.normal(0.0, 1.0, quad.size)
                           * (rng.random(quad.size) >= 0.5) for _ in range(k)]
                columns[0] = columns[0] * quad.masses
                got = np.column_stack(inc.sums(*columns))
                np.testing.assert_array_equal(
                    got, incidence_sums(quad, beta, np.column_stack(columns)))
                np.testing.assert_array_equal(
                    got, inc.S @ np.column_stack(columns))
