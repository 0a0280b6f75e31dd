"""Weights, characteristics, and maximal operators.

The dyadic maximal function is checked against a per-node brute-force
loop on a J=3 grid (36 cells). The exact weak-type supremum has a
three-point hand oracle: values (3, 2, 1) with measures accumulating
(0.5, 0.75, 1.75) give sup lambda mu({v > lambda}) = 1.75, attained
just below the smallest positive value.
"""

import numpy as np
import pytest

from diskproj import disk as dk
from diskproj import measures as ms
from diskproj import weights as wt
from diskproj.errors import ConfigError, InvalidRangeError


@pytest.fixture(scope="module")
def quad3():
    return dk.build_quadrature(ms.lebesgue(), J=3, j0=1)


def test_weight_field_forms(leb_quad5):
    quad = leb_quad5
    ones = wt.weight_field(quad)
    np.testing.assert_array_equal(ones.values, 1.0)
    assert ones.integral() == pytest.approx(quad.total_mass(), rel=1e-14)
    v = wt.weight_field(quad, eta=-0.5, log_exp=1.0)
    want = (1.0 - quad.nodes_r) ** -0.5 * (1.0 - np.log1p(-quad.nodes_r))
    np.testing.assert_allclose(v.values, want, rtol=1e-14)
    assert "log" in v.name
    b = wt.weight_field(quad, bump_center=0.25, bump_width=0.2,
                        bump_height=3.0)
    d = np.abs((quad.nodes_t - 0.25 + 0.5) % 1.0 - 0.5)
    tent = 1.0 + 3.0 * np.maximum(0.0, 1.0 - d / 0.2)
    np.testing.assert_allclose(b.values, tent, rtol=1e-14)
    with pytest.raises(InvalidRangeError):
        wt.weight_field(quad, bump_center=0.0, bump_width=0.0)
    with pytest.raises(InvalidRangeError):
        wt.WeightField(quad, np.zeros(quad.size))
    with pytest.raises(InvalidRangeError):
        wt.WeightField(quad, np.ones(quad.size - 1))


def test_dual_weight_involution(leb_quad5):
    v = wt.weight_field(leb_quad5, eta=0.75)
    p = 2.5
    pprime = p / (p - 1.0)
    sigma = wt.dual_weight(v, p)
    np.testing.assert_allclose(sigma.values, v.values ** (1.0 - pprime),
                               rtol=1e-13)
    back = wt.dual_weight(sigma, pprime)
    np.testing.assert_allclose(back.values, v.values, rtol=1e-12)
    with pytest.raises(InvalidRangeError):
        wt.dual_weight(v, 1.0)


def test_bp_characteristic_flat_weight(leb_quad6):
    rep = wt.bp_characteristic(wt.weight_field(leb_quad6), p=2.0, depth=6)
    assert rep.value == pytest.approx(1.0, rel=1e-13)
    assert rep.skipped == 0
    assert len(rep.per_depth) == 7
    assert all(x == pytest.approx(1.0, rel=1e-13) for x in rep.per_depth)
    assert rep.witness is not None


def test_bp_characteristic_decaying_weight(leb_quad6):
    v = wt.weight_field(leb_quad6, eta=0.5)
    rep = wt.bp_characteristic(v, p=2.0, depth=6)
    assert rep.value > 1.0
    diffs = np.diff(rep.per_depth)
    assert np.all(diffs >= 0.0)  # per-depth running maxima
    beta, level, index = rep.witness
    assert beta in (0.0, 0.5) and 0 <= level <= 6
    with pytest.raises(InvalidRangeError):
        wt.bp_characteristic(v, p=1.0, depth=3)


def test_b1_characteristic(leb_quad5):
    rep = wt.b1_characteristic(wt.weight_field(leb_quad5))
    assert rep.value == pytest.approx(1.0, rel=1e-13)
    v = wt.weight_field(leb_quad5, eta=-0.25)
    rep2 = wt.b1_characteristic(v)
    assert 1.0 < rep2.value < np.inf
    assert 0 <= rep2.witness < leb_quad5.size


def test_disc_maximal_consistency(leb_quad5):
    quad = leb_quad5
    rng = np.random.default_rng(4)
    f = rng.uniform(0.5, 2.0, size=quad.size)
    field = wt.disc_maximal_field(quad, f)
    assert np.all(field <= f.max() + 1e-12)
    # at sample nodes, against a scan of the disc family
    for i in (0, 37, quad.size - 1):
        z = quad.nodes_z[i]
        want = 0.0
        for a, rho in wt.disc_family(quad):
            cells = np.abs(quad.nodes_z - a) < rho
            if abs(z - a) < rho and quad.masses[cells].sum() > 0.0:
                m = quad.masses[cells]
                want = max(want, float(np.sum(f[cells] * m) / m.sum()))
        assert want > 0.0
        assert field[i] == pytest.approx(want, rel=1e-13)
    np.testing.assert_allclose(wt.disc_maximal_field(quad, np.ones(quad.size)),
                               1.0, rtol=1e-14)


def test_dyadic_maximal_brute_force(quad3):
    quad = quad3
    rng = np.random.default_rng(9)
    f = rng.uniform(-1.0, 3.0, size=quad.size)
    nu = quad.masses
    L_max = quad.J + 1
    for beta in (0.0, 0.5):
        got = wt.dyadic_maximal(quad, nu, beta, f)
        af = np.abs(f)
        want = np.zeros(quad.size)
        for i in range(quad.size):
            r_i, t_i = quad.nodes_r[i], quad.nodes_t[i]
            for level in range(L_max + 1):
                if r_i < 1.0 - 2.0 ** -level:
                    continue
                idx = dk.arc_index(beta, level, quad.nodes_t)
                members = (quad.nodes_r >= 1.0 - 2.0 ** -level) & \
                    (idx == dk.arc_index(beta, level, t_i))
                den = nu[members].sum()
                if den > 0.0:
                    want[i] = max(want[i],
                                  float(np.sum(af[members] * nu[members]) / den))
        np.testing.assert_allclose(got, want, rtol=1e-12)
    flat = wt.dyadic_maximal(quad, nu, 0.0, np.ones(quad.size))
    np.testing.assert_allclose(flat, 1.0, rtol=1e-14)


def test_exact_weak_sup_hand_case():
    values = np.array([3.0, 1.0, 2.0])
    weights = np.array([0.5, 1.0, 0.25])
    assert wt._exact_weak_sup(values, weights) == pytest.approx(1.75)
    assert wt._exact_weak_sup(np.zeros(3), weights) == 0.0
    # a dense grid scan can only undershoot the exact supremum
    grid = np.linspace(1e-3, 3.0, 2000)
    best = max(lam * weights[values > lam].sum() for lam in grid)
    assert best <= 1.75 + 1e-12
    assert best == pytest.approx(1.75, rel=1e-2)


def test_weak11_maximal_bounds(leb_quad5):
    quad = leb_quad5
    flat = wt.weak11_maximal_check(quad, quad.masses, 0.0,
                                   dk.Field.constant(quad, 1.0))
    assert flat == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(12)
    for _ in range(20):
        f = dk.Field(quad, rng.uniform(-1.0, 1.0, size=quad.size))
        for beta in (0.0, 0.5):
            ratio = wt.weak11_maximal_check(quad, quad.masses, beta, f)
            assert 0.0 < ratio <= 2.0 + 1e-10
            # a lambda grid scan can only undershoot the exact supremum
            m = wt.dyadic_maximal(quad, quad.masses, beta, f.values)
            norm1 = float(np.sum(np.abs(f.values) * quad.masses))
            gridded = max(lam * float(quad.masses[m > lam].sum())
                          for lam in np.linspace(1e-3, 2.0, 50)) / norm1
            assert gridded <= ratio + 1e-12
    zero = wt.weak11_maximal_check(quad, quad.masses, 0.0,
                                   dk.Field.constant(quad, 0.0))
    assert zero == 0.0


def test_weak11_projection_check(leb_quad5):
    quad = leb_quad5
    v = wt.weight_field(quad, eta=-0.25)
    f = dk.Field.constant(quad, 1.0)
    # with projected = f the check reduces to the layer-cake identity
    ratio = wt.weak11_projection_check(v, f, f)
    assert ratio == pytest.approx(1.0, rel=1e-12)
    assert wt.weak11_projection_check(v, dk.Field.constant(quad, 0.0), f) == 0.0


def test_weight_from_config(leb_quad5):
    v = wt.weight_from_config(leb_quad5, {"eta": "-0.5", "name": "test"})
    assert v.name == "test"
    np.testing.assert_allclose(
        v.values, (1.0 - leb_quad5.nodes_r) ** -0.5, rtol=1e-14)
    b = wt.weight_from_config(leb_quad5, {"bump_center": "0.5",
                                          "bump_height": "2"})
    assert b.values.max() > 2.5
    with pytest.raises(ConfigError):
        wt.weight_from_config(leb_quad5, {"eta": "half"})
