"""Stopping-time decomposition on Carleson squares.

One instance is frozen by hand on the 36-cell J=3 grid: a unit spike
on cell 20 (node r = 0.90625, t = 0.03125, mass 0.007080078125) inside
the region over the arc [0, 1/2). The region has 14 cells and mass
0.314453125, so the region average of |f| is about 0.02252 and the
threshold sweep crosses it between 3 and 4 spike masses:

  lam = 2 ||f||_1   -> the region itself is selected (flagged)
  lam = 3 ||f||_1   -> still the region
  lam = 4 ||f||_1   -> the child square over [0, 1/4), cells
                       {12, 13, 20, 21, 22, 23}, parent ratio 322/81
  lam = 0.9         -> the single spike cell, parent ratio exactly 2
  lam = 1.5 > |f|   -> nothing selected at all

Every run ends with unresolved == 0: a floor cell with |f| > lam is
always selected outright because its average equals its value.

The level pass is pinned against walk_decompose, the stack walk it
replaced: one PolarRectangle per visited region, split by cz_children
below, and float node membership per child. The pass is checked on every grid square of depths J = 1..7,
angular refinements j0 = 0..2 and both grid shifts.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diskproj import czd
from diskproj import disk as dk
from diskproj import measures as ms
from diskproj import weights as wt
from diskproj.errors import InvalidRangeError
from diskproj.kernels import KernelSpec


@pytest.fixture(scope="module")
def spike():
    quad = dk.build_quadrature(ms.lebesgue(), J=3, j0=1)
    vals = np.zeros(quad.size)
    vals[20] = 1.0
    return dk.Field(quad, vals)


def region_one():
    return czd.level_one_regions()[0]


def arc_halves(arc):
    h = arc.length / 2.0
    return dk.Arc(arc.start, h), dk.Arc(arc.start + h, h)


def cz_children(q):
    """Four disjoint children covering q: arc halves x radial halves.

    For a Carleson square (h' = 0) the upper band children are the two
    child Carleson squares and the lower band children are the two top
    rectangles over the arc halves.
    """
    mid = (q.h + q.h_prime) / 2.0
    left, right = arc_halves(q.arc)
    upper = [dk.PolarRectangle(a, mid, q.h_prime) if q.h_prime > 0.0
             else dk.carleson_square(a) for a in (left, right)]
    lower = [dk.PolarRectangle(a, q.h, mid) for a in (left, right)]
    return upper + lower


def walk_decompose(f, lam, region):
    """The stack walk: (selected, selected_cells, f_cells, g, b,
    parent_constant, unresolved, root_selected), with the f_cells sorted
    and g, b as value arrays."""
    quad = f.quad
    vals = np.asarray(f.values)

    def single_cell(q, cells):
        if cells.size != 1:
            return False
        b = quad.bands[quad.cell_band[cells[0]]]
        return q.arc.length <= b.arc_length * (1.0 + 1e-12) and \
            q.r_hi - q.r_lo <= (b.r_hi - b.r_lo) * (1.0 + 1e-12)

    def subdivide(q):
        if q.h_prime == 0.0:
            return cz_children(q)
        left, right = arc_halves(q.arc)
        return [dk.PolarRectangle(left, q.h, q.h_prime),
                dk.PolarRectangle(right, q.h, q.h_prime)]

    selected, selected_cells, f_cells = [], [], []
    unresolved, parent_ratio, root_selected = 0, 1.0, False
    stack = [(region, np.nonzero(quad.node_mask(region))[0], None)]
    while stack:
        q, cells, parent_mass = stack.pop()
        if cells.size == 0:
            continue
        mass = float(quad.masses[cells].sum())
        if mass <= 0.0:
            f_cells.append(cells)
            continue
        integral = float(np.sum(np.abs(vals[cells]) * quad.masses[cells]))
        if integral >= lam * mass:
            selected.append(q)
            selected_cells.append(cells)
            if parent_mass is None:
                root_selected = True
            else:
                parent_ratio = max(parent_ratio, parent_mass / mass)
            continue
        if single_cell(q, cells):
            f_cells.append(cells)
            if abs(vals[cells[0]]) > lam:
                unresolved += 1
            continue
        for child in subdivide(q):
            inside = child.contains(quad.nodes_r[cells], quad.nodes_t[cells])
            stack.append((child, cells[inside], mass))

    f_idx = np.sort(np.concatenate(f_cells)) if f_cells \
        else np.array([], dtype=np.int64)
    g = np.zeros(quad.size, dtype=vals.dtype)
    b = np.zeros(quad.size, dtype=vals.dtype)
    g[f_idx] = vals[f_idx]
    for cells in selected_cells:
        m = quad.masses[cells]
        avg = np.sum(vals[cells] * m) / m.sum()
        g[cells] = avg
        b[cells] = vals[cells] - avg
    return (selected, selected_cells, f_idx, g, b, parent_ratio, unresolved,
            root_selected)


def test_cz_children_partition():
    left, right = arc_halves(dk.Arc(0.9, 0.2))
    assert left.start == pytest.approx(0.9)
    assert right.start == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(1)
    for q in (dk.carleson_square(dk.Arc(0.0, 0.25)),
              dk.PolarRectangle(dk.Arc(0.5, 0.25), h=0.25, h_prime=0.125)):
        kids = cz_children(q)
        assert len(kids) == 4
        for _ in range(300):
            r = float(rng.uniform(q.r_lo, q.r_hi - 1e-12))
            t = float((q.arc.start + rng.random() * q.arc.length) % 1.0)
            assert q.contains(r, t)
            hits = sum(bool(k.contains(r, t)) for k in kids)
            assert hits == 1
    # Carleson-square children: two child squares plus two top halves
    sq = dk.carleson_square(dk.Arc(0.0, 0.25))
    kinds = sorted((k.h, k.h_prime) for k in cz_children(sq))
    assert kinds == [(0.125, 0.0), (0.125, 0.0), (0.25, 0.125), (0.25, 0.125)]


def test_spike_root_selection(spike):
    norm1 = float(spike.quad.masses[20])
    assert norm1 == 0.007080078125
    for mult in (2.0, 3.0):
        dec = czd.cz_decompose(spike, mult * norm1, region_one())
        assert dec.root_selected
        assert dec.parent_constant == 1.0
        assert len(dec.selected) == 1
        assert float(spike.quad.masses[dec.selected_cells[0]].sum()) == \
            0.314453125
        assert dec.f_cells.size == 0


def test_spike_child_square(spike):
    quad = spike.quad
    dec = czd.cz_decompose(spike, 4.0 * 0.007080078125, region_one())
    assert not dec.root_selected
    assert len(dec.selected) == 1
    q = dec.selected[0]
    assert (q.arc.start, q.arc.length, q.h, q.h_prime) == (0.0, 0.25, 0.25, 0.0)
    assert sorted(dec.selected_cells[0].tolist()) == [12, 13, 20, 21, 22, 23]
    assert float(quad.masses[dec.selected_cells[0]].sum()) == 0.0791015625
    assert dec.parent_constant == pytest.approx(0.314453125 / 0.0791015625,
                                                rel=1e-12)
    assert dec.unresolved == 0


def test_spike_cell_floor_and_empty(spike):
    dec = czd.cz_decompose(spike, 0.9, region_one())
    assert len(dec.selected) == 1
    assert dec.selected_cells[0].tolist() == [20]
    assert dec.parent_constant == 2.0  # sibling cells in a band share mass
    empty = czd.cz_decompose(spike, 1.5, region_one())
    assert empty.selected == []
    assert empty.parent_constant == 1.0
    assert empty.unresolved == 0
    np.testing.assert_array_equal(empty.b.values, 0.0)
    with pytest.raises(InvalidRangeError):
        czd.cz_decompose(spike, 0.005, region_one())  # below ||f||_1


def test_decomposition_properties_random(leb_quad5):
    quad = leb_quad5
    region = region_one()
    rmask = quad.node_mask(region)
    rng = np.random.default_rng(21)
    for _ in range(20):
        vals = rng.uniform(-1.0, 1.0, size=quad.size) ** 3
        f = dk.Field(quad, vals)
        norm1 = float(np.sum(np.abs(vals) * quad.masses))
        lam = norm1 * float(rng.uniform(1.2, 3.0))
        dec = czd.cz_decompose(f, lam, region)
        assert dec.unresolved == 0
        # selected squares carry at least lambda of average mass and,
        # unless the root fired, at most parent_constant * lambda
        covered = np.zeros(quad.size, dtype=bool)
        total_sel = 0.0
        for cells in dec.selected_cells:
            mass = float(quad.masses[cells].sum())
            integral = float(np.sum(np.abs(vals[cells]) * quad.masses[cells]))
            assert integral >= lam * mass * (1.0 - 1e-12)
            if not dec.root_selected:
                assert integral <= dec.parent_constant * lam * mass \
                    * (1.0 + 1e-12)
            assert not covered[cells].any()  # pairwise disjoint
            covered[cells] = True
            total_sel += mass
            # bad part has exactly zero mean on each selected square
            bsum = float(np.sum(dec.b.values[cells] * quad.masses[cells]))
            assert abs(bsum) <= 1e-12 * mass
        # Chebyshev mass bound for the selected union
        norm1_region = float(np.sum(np.abs(vals[rmask]) * quad.masses[rmask]))
        assert total_sel <= norm1_region / lam * (1.0 + 1e-12)
        # good + bad reproduces f on the region and vanishes off it
        onto = dec.g.values + dec.b.values
        np.testing.assert_allclose(onto[rmask], vals[rmask], rtol=0,
                                   atol=1e-15)
        np.testing.assert_array_equal(onto[~rmask], 0.0)
        # F-cells plus selected cells tile the region exactly
        assert not covered[dec.f_cells].any()
        covered[dec.f_cells] = True
        np.testing.assert_array_equal(covered, rmask)
        np.testing.assert_array_equal(dec.g.values[dec.f_cells],
                                      vals[dec.f_cells])


def test_level_one_regions_partition(leb_quad5):
    quad = leb_quad5
    r1, r2 = czd.level_one_regions()
    m1, m2 = quad.node_mask(r1), quad.node_mask(r2)
    assert not np.any(m1 & m2)
    np.testing.assert_array_equal(m1 | m2, quad.nodes_r >= 0.5)


def test_circumscribed_disc(leb_quad5):
    quad = leb_quad5
    for q in (region_one(), dk.PolarRectangle(dk.Arc(0.7, 0.125),
                                              h=0.25, h_prime=0.125)):
        center, radius = czd.circumscribed_disc(q)
        mask = quad.node_mask(q)
        if mask.any():
            assert np.all(np.abs(quad.nodes_z[mask] - center)
                          <= radius + 1e-12)


def test_reconstruct_weak11_report(leb_quad5):
    quad = leb_quad5
    spec = KernelSpec(gamma=1.0, nu=ms.point_mass(1.0, 1.0), name="std")
    v = wt.weight_field(quad, eta=-0.25)
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.0, 1.0, size=quad.size)
    f = dk.Field(quad, vals)
    norm1 = float(np.sum(vals * quad.masses))
    rep = czd.cz_reconstruct_weak11_bound(spec, v, f, 2.0 * norm1)
    assert rep.b1_value == wt.b1_characteristic(v).value
    for ratio in (rep.good_part_ratio, rep.bad_tail_ratio,
                  rep.omega_prime_ratio):
        assert 0.0 <= ratio < np.inf
    assert rep.selected_count >= 0
    assert rep.unresolved == 0
    # a field vanishing on the region cannot be normalized against
    off = np.where(quad.node_mask(czd.level_one_regions()[1]), 1.0, 0.0)
    with pytest.raises(InvalidRangeError):
        czd.cz_reconstruct_weak11_bound(
            spec, v, dk.Field(quad, off), 2.0 * float(np.sum(off * quad.masses)))


@functools.lru_cache(maxsize=None)
def quadrature(omega, J, j0):
    measure = ms.lebesgue() if omega == "lebesgue" else ms.power_measure(0.5)
    return dk.build_quadrature(measure, J=J, j0=j0)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(J=st.integers(1, 7), j0=st.sampled_from([0, 1, 2]),
       beta=st.sampled_from(dk.GRID_SHIFTS),
       omega=st.sampled_from(["lebesgue", "power(0.5)"]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_level_pass_matches_stack_walk(J, j0, beta, omega, seed, data):
    quad = quadrature(omega, J, j0)
    level = data.draw(st.integers(1, J), label="level")
    m = data.draw(st.integers(0, 2 ** level - 1), label="m")
    region = dk.carleson_square(dk.DyadicInterval(beta, level, m))
    rng = np.random.default_rng(seed)
    vals = rng.pareto(1.5, quad.size) * rng.choice([-1.0, 1.0], quad.size)
    lam = float(np.sum(np.abs(vals) * quad.masses)) * rng.uniform(1.05, 6.0)
    f = dk.Field(quad, vals)

    dec = czd.cz_decompose(f, lam, region)
    (selected, selected_cells, f_cells, g, b, parent_constant, unresolved,
     root_selected) = walk_decompose(f, lam, region)

    def by_rectangle(rects, cell_lists):
        return {q: tuple(c.tolist()) for q, c in zip(rects, cell_lists)}

    assert len(dec.selected) == len(selected)
    assert by_rectangle(dec.selected, dec.selected_cells) == \
        by_rectangle(selected, selected_cells)
    np.testing.assert_array_equal(dec.f_cells, f_cells)
    assert (dec.unresolved, dec.root_selected) == (unresolved, root_selected)
    assert np.array_equal(dec.g.values, g) and np.array_equal(dec.b.values, b)
    if omega == "lebesgue":
        assert dec.parent_constant == parent_constant
    else:
        assert dec.parent_constant == pytest.approx(parent_constant,
                                                    rel=1e-13)


def test_cz_region_must_be_a_grid_square():
    quad = quadrature("lebesgue", 6, 1)
    rng = np.random.default_rng(5)
    f = dk.Field(quad, rng.pareto(1.5, quad.size))
    lam = 2.0 * float(np.sum(f.values * quad.masses))
    # these duplicated cells, lost cells, or halved arcs to length 0
    for region in (dk.PolarRectangle(dk.Arc(0.0, 0.5), h=0.25),
                   dk.PolarRectangle(dk.Arc(0.0, 0.25), h=0.5),
                   dk.carleson_square(dk.Arc(0.0, 1.0)),
                   dk.PolarRectangle(dk.Arc(0.1, 0.3), h=0.3),
                   dk.carleson_square(dk.DyadicInterval(0.0, 7, 0))):
        with pytest.raises(InvalidRangeError):
            czd.cz_decompose(f, lam, region)
    for interval in (dk.DyadicInterval(0.5, 2, 1),
                     dk.DyadicInterval(0.0, 3, 5)):
        region = dk.carleson_square(interval)
        rmask = quad.node_mask(region)
        dec = czd.cz_decompose(f, lam, region)
        parts = np.concatenate([dec.f_cells, *dec.selected_cells])
        np.testing.assert_array_equal(np.sort(parts), np.flatnonzero(rmask))
        np.testing.assert_allclose(dec.g.values + dec.b.values,
                                   f.values * rmask, rtol=0,
                                   atol=1e-15 * np.max(f.values))
