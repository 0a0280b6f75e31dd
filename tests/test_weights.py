"""Weights, characteristics, and maximal operators.

The dyadic maximal function is checked against a per-node brute-force
loop on a J=3 grid (36 cells). The disc maximal function runs on band
windows; its oracle is the documented disc family listed disc by disc
(disc_family) and a scan of every node for each disc: member sets must
agree exactly and M to 1e-13, at J = 1..7, j0 = 0..2 and four measures,
and at sampled nodes at J=10. The exact weak-type supremum has a
three-point hand oracle: values (3, 2, 1) with measures accumulating
(0.5, 0.75, 1.75) give sup lambda mu({v > lambda}) = 1.75, attained
just below the smallest positive value.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diskproj import disk as dk
from diskproj import measures as ms
from diskproj import operators as op
from diskproj import weights as wt
from diskproj.kernels import KernelSpec
from diskproj.errors import ConfigError, InvalidRangeError


def disc_family(quad):
    """The documented B_1 family, disc by disc: node-centered discs
    D(a, k(1-|a|)) for k in {1, sqrt(2), 2, 4}, plus boundary-touching
    discs of dyadic radius 2^-k centered at (1-2^-k) e^(2 pi i m 2^-k)."""
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


def scan_disc_maximal(quad, values, discs, nodes=None):
    """M(values) at the given nodes (default all): each disc's cells by a
    scan of every node, its omega x m average, the max over the discs
    that contain the node and have positive mass."""
    z = quad.nodes_z
    nodes = np.arange(quad.size) if nodes is None else np.asarray(nodes)
    av = np.abs(values)
    out = np.zeros(nodes.size)
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
    nodes = [0, 37, quad.size - 1]
    want = scan_disc_maximal(quad, f, disc_family(quad), nodes)
    assert np.all(want > 0.0)
    np.testing.assert_allclose(field[nodes], want, rtol=1e-13)
    np.testing.assert_allclose(wt.disc_maximal_field(quad, np.ones(quad.size)),
                               1.0, rtol=1e-14)


DISC_MEASURES = {"lebesgue": ms.lebesgue(), "power(1)": ms.power_measure(1.0),
                 "halfmix": ms.half_atom_mix(),
                 "point(0.75)": ms.point_mass(0.75)}


@functools.lru_cache(maxsize=None)
def disc_quadrature(name, J, j0):
    return dk.build_quadrature(DISC_MEASURES[name], J=J, j0=j0)


def window_members(quad, centers, radii):
    """Each disc's cells by the band windows, as a (discs, cells) mask."""
    got = np.zeros((centers.size, quad.size), dtype=bool)
    index = np.arange(centers.size)[:, None]
    for rows, windows in wt._group_windows(quad, quad.nodes_z, centers, radii):
        for _, cells, inside in windows:
            got[np.broadcast_to(index[rows], cells.shape)[inside],
                cells[inside]] = True
    return got


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(sorted(DISC_MEASURES)), J=st.integers(1, 7),
       j0=st.sampled_from([0, 1, 2]), seed=st.integers(0, 2 ** 32 - 1),
       tail=st.sampled_from([0.5, 1.0, 3.0]),
       zeros=st.sampled_from([0.0, 0.5, 0.95]))
def test_disc_windows_match_brute_force(name, J, j0, seed, tail, zeros):
    """Band windows give each disc exactly the cells of the float test
    |z - a| < rho over every node, and M matches the family scan, on
    fields with zeros and Pareto tails; point(0.75) leaves most bands
    massless, so most discs are skipped."""
    quad = disc_quadrature(name, J, j0)
    z = quad.nodes_z
    for centers, radii in wt._disc_groups(quad, z):
        want = np.abs(z - centers[:, None]) < radii[:, None]
        np.testing.assert_array_equal(window_members(quad, centers, radii),
                                      want)
    rng = np.random.default_rng(seed)
    f = rng.pareto(tail, quad.size) * (rng.random(quad.size) >= zeros)
    f *= rng.choice([-1.0, 1.0], quad.size)
    np.testing.assert_allclose(wt.disc_maximal_field(quad, f),
                               scan_disc_maximal(quad, f, disc_family(quad)),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("J, j0", [(3, 0), (6, 1), (6, 2)])
def test_disc_windows_hold_nodes_one_ulp_inside(J, j0):
    """Discs whose edge passes one ulp beyond a node: the law-of-cosines
    run can round past that node, and the widened window still holds
    it. Centers are arbitrary, 0.1 <= |a| < 0.95."""
    quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)
    z = quad.nodes_z
    rng = np.random.default_rng(J + 10 * j0)
    for _ in range(50):
        centers = np.sqrt(rng.uniform(0.01, 0.9, 64)) * \
            np.exp(2j * np.pi * rng.random(64))
        radii = np.nextafter(np.abs(z[rng.integers(quad.size, size=64)]
                                    - centers), np.inf)
        want = np.abs(z - centers[:, None]) < radii[:, None]
        np.testing.assert_array_equal(window_members(quad, centers, radii),
                                      want)


def test_band_skipping_at_depth_9():
    """At J = 9, deeper than the sweep above: the deepest band's four
    aperture groups and the boundary groups k = 7..9 get exactly the
    float test's members, and every band a group skips, by its reach or
    by the law of cosines, holds none of them."""
    quad = dk.build_quadrature(ms.lebesgue(), J=9, j0=1)
    z = quad.nodes_z
    groups = list(wt._disc_groups(quad, z))
    aperture_end = 4 * len(quad.bands)
    chosen = groups[aperture_end - 4:aperture_end] + \
        groups[aperture_end + 6:aperture_end + 9]
    assert [radii[0] for _, radii in chosen[4:]] == [2.0 ** -k
                                                      for k in (7, 8, 9)]
    for centers, radii in chosen:
        want = np.abs(z - centers[:, None]) < radii[:, None]
        np.testing.assert_array_equal(window_members(quad, centers, radii),
                                      want)
        kept = {int(quad.cell_band[cells[0, 0]])
                for _, windows in wt._group_windows(quad, z, centers, radii)
                for _, cells, _ in windows}
        skipped = ~np.isin(quad.cell_band, sorted(kept))
        assert skipped.any()
        assert not want[:, skipped].any()


def test_disc_blocks_split_groups(monkeypatch):
    """Groups larger than one block run in slices of discs: the same
    member sets, and the same M bit for bit."""
    quad = dk.build_quadrature(ms.half_atom_mix(), J=6, j0=1)
    f = np.random.default_rng(6).pareto(1.0, quad.size)
    whole = wt.disc_maximal_field(quad, f)
    monkeypatch.setattr(wt, "_BLOCK", 40)
    for centers, radii in wt._disc_groups(quad, quad.nodes_z):
        slices = list(wt._group_windows(quad, quad.nodes_z, centers, radii))
        assert len(slices) > 1 or centers.size == 1
        np.testing.assert_array_equal(
            window_members(quad, centers, radii),
            np.abs(quad.nodes_z - centers[:, None]) < radii[:, None])
    np.testing.assert_array_equal(wt.disc_maximal_field(quad, f), whole)


def test_disc_groups_cover_the_family():
    """The rotation groups are the documented family, every disc once:
    73,742 discs at J=12, j0=1, with no stride."""
    quad = dk.build_quadrature(ms.lebesgue(), J=12, j0=1)
    family = disc_family(quad)
    assert len(family) == 4 * quad.size + 2 ** 13 - 2 == 73742
    got = sorted((a.real, a.imag, rho)
                 for centers, radii in wt._disc_groups(quad, quad.nodes_z)
                 for a, rho in zip(centers.tolist(), radii.tolist()))
    assert got == sorted((a.real, a.imag, rho) for a, rho in family)


def test_disc_maximal_at_depth_10_sampled_nodes():
    quad = dk.build_quadrature(ms.lebesgue(), J=10, j0=1)
    rng = np.random.default_rng(10)
    f = rng.pareto(1.0, quad.size)
    nodes = rng.choice(quad.size, 6, replace=False)
    got = wt.disc_maximal_field(quad, f)[nodes]
    np.testing.assert_allclose(
        got, scan_disc_maximal(quad, f, disc_family(quad), nodes), rtol=1e-13)


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
