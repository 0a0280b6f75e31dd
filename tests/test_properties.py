"""Property tests.

The kernel layer's entry points give finite values or raise a
DiskprojError on every accepted input. Inputs: the catalog measures
(power at alpha in {-1/2, 0, 1}), gamma in {1, 2}, and arguments
|w| < 1 (x = |w| in [0, 1) where a real argument is needed). A silent
NaN or infinity, or an exception that is not a DiskprojError, fails the
test.

The dyadic layer matches brute force at depths J = 1..6, angular
refinements j0 = 0..2, both grid shifts and level caps up to J + 2: the
dyadic handle against the double sum over node pairs, and the dyadic
maximal function against averages over each square, with the squares
found by scanning every grid arc; B_p stays >= 1.
"""

import functools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from diskproj import disk as dk
from diskproj import kernels as kn
from diskproj import measures as ms
from diskproj import operators as op
from diskproj import weights as wt
from diskproj.errors import DiskprojError

MEASURES = {
    "lebesgue": ms.lebesgue(),
    "power(-0.5)": ms.power_measure(-0.5),
    "power(0)": ms.power_measure(0.0),
    "power(1)": ms.power_measure(1.0),
    "point1": ms.make_measure("point1"),
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
    L_max = data.draw(st.integers(0, J + 2), label="L_max")
    rng = np.random.default_rng(seed)
    f = rng.pareto(1.5, quad.size) + 1e-3
    v = wt.WeightField(quad, np.exp(rng.normal(0.0, 2.0, quad.size)))
    mu = quad.masses
    labels = [square_labels(quad, beta, level) for level in range(L_max + 1)]

    kernel = np.zeros((quad.size, quad.size))
    for level, lab in enumerate(labels):
        same = (lab[:, None] == lab[None, :]) & (lab[:, None] >= 0)
        kernel += 4.0 ** level * same
    out = op.dyadic_handle(beta, PSI, quad, L_max=L_max).apply(f)
    np.testing.assert_allclose(out, kernel @ (f * mu), rtol=1e-12)

    want = np.zeros(quad.size)
    for lab in labels:
        for m in np.unique(lab[lab >= 0]):
            cells = lab == m
            avg = np.sum(f[cells] * mu[cells]) / np.sum(mu[cells])
            want[cells] = np.maximum(want[cells], avg)
    got = wt.dyadic_maximal(quad, mu, beta, f, L_max=L_max)
    np.testing.assert_allclose(got, want, rtol=1e-12)

    bp = wt.bp_characteristic(v, p, L_max)
    assert bp.value >= 1.0
    assert np.all(np.isfinite([*out, *got, *bp.per_depth]))
