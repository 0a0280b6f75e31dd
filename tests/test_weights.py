"""Weights, characteristics, and maximal operators.

The dyadic maximal function is checked against a per-node brute-force
loop on a J=3 grid (36 cells). B_1 is the two grids' dyadic maximal
functions of v over v: it is pinned bit for bit against the per-level
oracle of tests/dyadic_oracle.py at J = 1..8, j0 = 0..2, and its
witness square against that square's own level sums. The disc family
that B_1 used to run over is kept here as an oracle (disc_family and
its node scan, checked against a scan one disc at a time at J = 5 and
10): the grid value over the disc value stays in a band.
The exact weak-type supremum has a three-point hand oracle: values
(3, 2, 1) with measures accumulating (0.5, 0.75, 1.75) give
sup lambda mu({v > lambda}) = 1.75, attained just below the smallest
positive value.
"""

import functools
import math

import numpy as np
import pytest

from diskproj import disk as dk
from diskproj import measures as ms
from diskproj import operators as op
from diskproj import weights as wt
from diskproj.kernels import KernelSpec
from diskproj.errors import ConfigError, InvalidRangeError
import dyadic_oracle


def disc_family(quad):
    """The B_1 disc family the grids replaced, disc by disc:
    node-centered discs D(a, k(1-|a|)) for k in {1, sqrt(2), 2, 4},
    plus boundary-touching discs of dyadic radius 2^-k centered at
    (1-2^-k) e^(2 pi i m 2^-k)."""
    centers = quad.nodes_z
    discs = []
    for k in (1.0, math.sqrt(2.0), 2.0, 4.0):
        radii = k * (1.0 - np.abs(centers))
        discs.extend(zip(centers.tolist(), radii.tolist()))
    for k in range(1, quad.J + 1):
        rho = 2.0 ** -k
        for m in range(1 << k):
            a = (1.0 - rho) * np.exp(2j * np.pi * m * rho)
            discs.append((complex(a), rho))
    return discs


def scan_disc_maximal(quad, values, discs):
    """The disc maximal function of each column of values at every node:
    each disc's cells by the float test |z - a| < rho over every node,
    its omega x m average, the max over the discs that contain the node
    and have positive mass. Discs are scanned 256 at a time."""
    block = 256
    z = quad.nodes_z
    av = np.abs(values).reshape(quad.size, -1)
    weighted = quad.masses[:, None] * av
    out = np.zeros(av.shape)
    for first in range(0, len(discs), block):
        centers, radii = (np.array(part) for part in
                          zip(*discs[first:first + block]))
        inside = np.abs(z - centers[:, None]) < radii[:, None]
        total = (inside @ quad.masses)[:, None]
        avg = np.divide(inside @ weighted, total,
                        out=np.zeros((centers.size, av.shape[1])),
                        where=total > 0.0)
        for k in range(av.shape[1]):
            np.maximum(out[:, k], np.where(inside, avg[:, k, None],
                                           0.0).max(axis=0), out=out[:, k])
    return out


def disc_maximal_at(quad, values, discs, nodes):
    """The disc maximal function of one field at the given nodes, one
    disc at a time: the scan that scan_disc_maximal blocks."""
    z = quad.nodes_z
    av = np.abs(values)
    out = np.zeros(len(nodes))
    for a, rho in discs:
        hit = np.abs(z[nodes] - a) < rho
        if not hit.any():
            continue
        mask = np.abs(z - a) < rho
        m = quad.masses[mask]
        total = m.sum()
        if total > 0.0:
            out[hit] = np.maximum(out[hit],
                                  float(np.sum(av[mask] * m) / total))
    return out


DISC_MEASURES = {"lebesgue": ms.lebesgue(), "power(1)": ms.power_measure(1.0),
                 "halfmix": ms.half_atom_mix(),
                 "point(0.75)": ms.point_mass(0.75)}
ETAS = (-0.75, -0.25, 0.0, 0.5, 1.5)


@functools.lru_cache(maxsize=None)
def disc_quadrature(name, J, j0):
    return dk.build_quadrature(DISC_MEASURES[name], J=J, j0=j0)


def b1_weights(quad):
    """(1-r)^eta for each of ETAS and one angular bump."""
    return [wt.weight_field(quad, eta=eta) for eta in ETAS] + \
        [wt.weight_field(quad, bump_center=0.5)]


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
        wt.WeightField(quad, np.full(quad.size, np.nan))
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
    assert rep.value == 1.0
    # every square averages to 1: the ties go to beta = 0, the root square
    # and the first cell
    assert rep.witness == (0.0, 0, 0, 0)
    v = wt.weight_field(leb_quad5, eta=-0.25)
    rep2 = wt.b1_characteristic(v)
    assert 1.0 < rep2.value < np.inf
    beta, level, index, cell = rep2.witness
    assert beta in dk.GRID_SHIFTS and 0 <= level <= leb_quad5.J
    assert 0 <= index < 2 ** level and 0 <= cell < leb_quad5.size
    # on point(0.75) only annulus 2 has mass: with v = 1 there and 4 on
    # the massless core, the first annulus-1 cell is the first of ratio 1,
    # and both its squares and both grids tie at average 1
    quad = disc_quadrature("point(0.75)", 4, 1)
    v = wt.WeightField(quad, np.where(quad.core_mask, 4.0, 1.0))
    rep3 = wt.b1_characteristic(v)
    assert rep3.value == 1.0
    assert rep3.witness == (0.0, 0, 0, quad.level_start(1))


@pytest.mark.parametrize("name", ["lebesgue", "halfmix", "point(0.75)"])
def test_b1_witness_square(name):
    """The witness square contains the witness cell, and its average of
    v, from the oracle's level sums, over v at the cell is B_1 bit for
    bit."""
    for J, j0 in ((3, 0), (6, 1), (8, 2)):
        quad = disc_quadrature(name, J, j0)
        for v in b1_weights(quad):
            rep = wt.b1_characteristic(v)
            beta, level, index, cell = rep.witness
            assert cell >= quad.level_start(level)
            assert dk.arc_index(beta, level, quad.nodes_t[cell]) == index
            num, den = (dyadic_oracle.level_sums(quad, beta, level, col)[index]
                        for col in (v.values * quad.masses, quad.masses))
            assert num / den / v.values[cell] == rep.value


@pytest.mark.parametrize("j0", [0, 1, 2])
@pytest.mark.parametrize("name", ["lebesgue", "halfmix", "point(0.75)"])
def test_b1_matches_dyadic_oracle(name, j0):
    """B_1 is the max over both grids of the oracle's dyadic maximal
    function (level sums, then the max over each cell's row of St) over
    v, bit for bit; point(0.75) leaves most bands massless."""
    for J in range(1, 9):
        quad = disc_quadrature(name, J, j0)
        for v in b1_weights(quad):
            want = max(float(np.max(dyadic_oracle.dyadic_maximal(
                quad, quad.masses, beta, v.values) / v.values))
                for beta in dk.GRID_SHIFTS)
            assert wt.b1_characteristic(v).value == want


@pytest.mark.parametrize("name", ["lebesgue", "power(1)", "halfmix"])
def test_b1_against_disc_family(name):
    """Grid B_1 over the disc family's B_1 stays in [0.55, 1.25] at
    J = 4..8 and j0 = 0..2: measured 0.592 (eta = 1.5) to 1.222 (the
    bump, which a grid square fits better than the family's discs)."""
    for j0 in (0, 1, 2):
        for J in range(4, 9):
            quad = disc_quadrature(name, J, j0)
            weights = b1_weights(quad)
            values = np.column_stack([v.values for v in weights])
            disc = np.max(scan_disc_maximal(quad, values, disc_family(quad))
                          / values, axis=0)
            grid = [wt.b1_characteristic(v).value for v in weights]
            assert np.all((0.55 <= grid / disc) & (grid / disc <= 1.25))


def test_b1_on_massless_bands():
    """On point(0.75) quadratures most bands carry no mass, but the root
    square does, so each cell's maximal value is positive and B_1 is
    finite and >= 1."""
    for J, j0 in ((2, 0), (5, 1), (8, 2), (12, 1)):
        quad = dk.build_quadrature(ms.point_mass(0.75), J=J, j0=j0)
        assert np.count_nonzero(quad.masses) < quad.size
        for v in b1_weights(quad):
            for beta in dk.GRID_SHIFTS:
                assert np.all(wt.dyadic_maximal(quad, quad.masses, beta,
                                                v.values) > 0.0)
            value = wt.b1_characteristic(v).value
            assert math.isfinite(value) and value >= 1.0


def test_disc_maximal_consistency(leb_quad5):
    """The disc-family oracle, blocked and several fields at once, is
    bounded by the field's max, is 1 on v = 1, and matches the scan one
    disc at a time at sampled nodes."""
    quad = leb_quad5
    rng = np.random.default_rng(4)
    f = rng.uniform(0.5, 2.0, size=quad.size)
    discs = disc_family(quad)
    field = scan_disc_maximal(quad, np.column_stack([f, np.ones(quad.size)]),
                              discs)
    assert np.all(field[:, 0] <= f.max() + 1e-12)
    nodes = np.array([0, 37, quad.size - 1])
    want = disc_maximal_at(quad, f, discs, nodes)
    assert np.all(want > 0.0)
    np.testing.assert_allclose(field[nodes, 0], want, rtol=1e-13)
    np.testing.assert_allclose(field[:, 1], 1.0, rtol=1e-14)


def test_disc_maximal_at_depth_10_sampled_nodes():
    """At J = 10, past the ratio-band sweep: the blocked oracle against
    the scan one disc at a time at six sampled nodes."""
    quad = dk.build_quadrature(ms.lebesgue(), J=10, j0=1)
    rng = np.random.default_rng(10)
    f = rng.pareto(1.0, quad.size)
    nodes = rng.choice(quad.size, 6, replace=False)
    discs = disc_family(quad)
    got = scan_disc_maximal(quad, f, discs)[nodes, 0]
    np.testing.assert_allclose(got, disc_maximal_at(quad, f, discs, nodes),
                               rtol=1e-13)


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


def test_exact_weak_sup_rows_match_single_rows():
    """Along the last axis, each row's sup is the 1-D call's, bit for
    bit, with ties, zeros and an all-zero row among the rows."""
    rng = np.random.default_rng(5)
    rows = rng.pareto(1.2, (7, 300))
    rows[1, ::3] = rows[1, 0]          # ties
    rows[2, :150] = 0.0
    rows[3] = 0.0
    weights = rng.random(300)
    got = wt._exact_weak_sup(rows, weights)
    assert got.shape == (7,)
    assert got.tolist() == [wt._exact_weak_sup(r, weights) for r in rows]
    assert got[3] == 0.0


ATOM_SPEC = KernelSpec(gamma=1.0, nu=ms.point_mass(1.0, 1.0), name="a1")


def point_mass_ratios(quad, cells, eta):
    """The weak11 suite's projection ratio at each point mass 1_c: the
    weak sup of the kernel row |K[c, :]| in v mu, over v_c."""
    v = wt.weight_field(quad, eta=eta)
    rows = np.abs(op.bergman_handle(ATOM_SPEC, quad).kernel_block(cells))
    return wt._exact_weak_sup(rows, v.values * quad.masses) / v.values[cells]


def test_point_mass_ratio_matches_projection_check():
    """The kernel row route equals weak11_projection_check on the one-hot
    field and its projection by apply."""
    quad = dk.build_quadrature(ms.lebesgue(), J=6, j0=1)
    handle = op.bergman_handle(ATOM_SPEC, quad)
    deep = np.flatnonzero(quad.cell_band == quad.cell_band[-1])
    cells = np.concatenate([deep[[0, 5, 77]], [0, quad.size // 3]])
    for eta in (-0.25, 1.5):
        v = wt.weight_field(quad, eta=eta)
        want = []
        for c in cells:
            one = np.zeros(quad.size)
            one[c] = 1.0
            want.append(wt.weak11_projection_check(
                v, dk.Field(quad, one), dk.Field(quad, handle.apply(one))))
        np.testing.assert_allclose(point_mass_ratios(quad, cells, eta),
                                   want, rtol=1e-12)


@pytest.mark.parametrize("J", [6, 7])
@pytest.mark.parametrize("j0", [0, 1, 2])
def test_point_mass_ratio_turn_reduction(J, j0):
    """The deepest band's cells t < 1/4 (t < 1/2 at j0 = 0) hold its
    largest point-mass ratio, bit for bit."""
    quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)
    deep = quad.cell_band == quad.cell_band[-1]
    part = deep & (quad.nodes_t < (0.25 if j0 else 0.5))
    assert 0 < part.sum() < deep.sum()
    for eta in (-0.25, 1.5):
        assert np.max(point_mass_ratios(quad, np.flatnonzero(part), eta)) \
            == np.max(point_mass_ratios(quad, np.flatnonzero(deep), eta))


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
