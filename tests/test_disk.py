"""Grids, polar regions, and the cell scheme.

Mass oracles: with omega = Lebesgue the quadrature total is exactly
(1 - 2^-(J+1))^2 (it integrates 2 r dr over the truncated disk), so
J = 1 gives 9/16. Containment minimality is checked by brute-force
scan of every grid arc one level finer than the returned one, and the
array search containing_dyadics against the arc-at-a-time loop of
tests/dyadic_oracle.py.
"""

import math

import numpy as np
import pytest

from diskproj import disk as dk
from diskproj import measures as ms
from diskproj.errors import (BudgetExceededError, InvalidRangeError,
                             QuadratureMismatchError)
from dyadic_oracle import containing_dyadic, level_sums


def test_arc_wraps_and_contains():
    arc = dk.Arc(0.9, 0.2)
    assert arc.contains(0.95)
    assert arc.contains(0.05)
    assert not arc.contains(0.5)
    assert arc.midpoint == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(InvalidRangeError):
        dk.Arc(0.0, 0.0)
    with pytest.raises(InvalidRangeError):
        dk.Arc(0.0, 1.5)
    for start in (math.nan, math.inf):
        with pytest.raises(InvalidRangeError):
            dk.Arc(start, 0.1)


def test_arc_index_definition():
    # exact on dyadic angles
    for m in range(8):
        assert int(dk.arc_index(0.0, 3, m / 8.0)) == m
    # random angles: the indexed arc must contain the angle, both shifts
    rng = np.random.default_rng(0)
    for _ in range(500):
        t = float(rng.random())
        level = int(rng.integers(0, 9))
        for beta in (0.0, 0.5):
            m = int(dk.arc_index(beta, level, t))
            assert dk.DyadicInterval(beta, level, m).arc.contains(t)


def test_dyadic_children_nest_only_unshifted():
    # on the unshifted grid the incidence rows 2r + 1 and 2r + 2 are the
    # squares that tile the square of row r
    parent = dk.DyadicInterval(0.0, 2, 3)
    row = dk.square_row(parent.level, parent.index)
    level, index = dk.square_address(np.array([2 * row + 1, 2 * row + 2]))
    kids = [dk.DyadicInterval(0.0, int(lev), int(m))
            for lev, m in zip(level, index)]
    assert [(k.level, k.index) for k in kids] == [(3, 6), (3, 7)]
    for t in np.linspace(0.0, 1.0, 257, endpoint=False):
        inside = parent.arc.contains(t)
        assert inside == (kids[0].arc.contains(t) or kids[1].arc.contains(t))
    with pytest.raises(InvalidRangeError):
        dk.DyadicInterval(0.25, 2, 3)
    with pytest.raises(InvalidRangeError):
        dk.DyadicInterval(0.0, 2, 4)


def test_containing_dyadic_bound_and_minimality():
    rng = np.random.default_rng(3)
    arcs = [dk.Arc(float(rng.random()), float(rng.uniform(1e-6, 0.25)))
            for _ in range(2000)]
    beta, level, index = dk.containing_dyadics(
        [a.start for a in arcs], [a.length for a in arcs])
    for arc, b, lv, i in zip(arcs, beta, level, index):
        K = dk.DyadicInterval(float(b), int(lv), int(i))
        # containment and the factor-4 bound
        offset = (arc.start - K.arc.start) % 1.0
        assert offset + arc.length <= K.length * (1.0 + 1e-12)
        assert K.length <= 4.0 * arc.length
        # minimality: no arc of either grid one level finer contains it
        finer = K.level + 1
        for shift in (0.0, 0.5):
            m = int(dk.arc_index(shift, finer, arc.start))
            start = (m + shift) * 2.0 ** -finer
            assert (arc.start - start) % 1.0 + arc.length > 2.0 ** -finer
    with pytest.raises(InvalidRangeError):
        dk.containing_dyadics([0.0], [0.3])
    # the finest level a double angle resolves is 52; shorter arcs raise
    # instead of overflowing the arc index
    assert dk.containing_dyadics([0.75], [2.0 ** -52])[1].tolist() == [52]
    for length in (2.0 ** -53, 1e-300, 5e-324):
        with pytest.raises(InvalidRangeError):
            dk.containing_dyadics([0.3], [length])


def test_containing_dyadics_match_the_loop():
    rng = np.random.default_rng(11)
    arcs = [dk.Arc(float(rng.random()), float(rng.uniform(1e-6, 0.25)))
            for _ in range(3000)]
    # boundary arcs: grid-aligned starts and ends, power-of-two lengths,
    # wrap-around starts, the longest and shortest accepted lengths
    for level in range(1, 53, 3):
        w = 2.0 ** -level
        for start in (0.0, 0.5, 0.75, 1.0 - w, 0.5 - w / 2, 3 * w,
                      1.0 - 2.0 ** -53):
            for length in (w, w / 2, 0.75 * w, w * (1 - 2.0 ** -52)):
                if np.finfo(float).eps <= length <= 0.25:
                    arcs.append(dk.Arc(start, length))
    arcs += [dk.Arc(0.9, 0.25), dk.Arc(0.75, 2.0 ** -52)]
    beta, level, index = dk.containing_dyadics(
        [a.start for a in arcs], [a.length for a in arcs])
    got = [dk.DyadicInterval(float(b), int(lv), int(m))
           for b, lv, m in zip(beta, level, index)]
    assert got == [containing_dyadic(a) for a in arcs]
    for bad in (0.3, 2.0 ** -53, math.nan):
        with pytest.raises(InvalidRangeError):
            dk.containing_dyadics([0.1, 0.2], [0.1, bad])
    with pytest.raises(InvalidRangeError):
        dk.containing_dyadics([math.inf], [0.1])


def test_carleson_square_and_top_half():
    sq = dk.carleson_square(dk.Arc(0.25, 0.125))
    assert sq.h == 0.125 and sq.h_prime == 0.0
    # T(I): the band [1-h, 1-h/2) over the square's arc
    top = dk.PolarRectangle(sq.arc, h=sq.h, h_prime=sq.h / 2.0)
    assert top.r_lo == 0.875 and top.r_hi == pytest.approx(0.9375)
    with pytest.raises(InvalidRangeError):
        dk.PolarRectangle(dk.Arc(0.0, 0.5), h=0.2, h_prime=0.3)


def test_quadrature_masses_exact():
    leb = ms.lebesgue()
    for J in (1, 4, 6):
        quad = dk.build_quadrature(leb, J=J, j0=1)
        want = (1.0 - 2.0 ** -(J + 1)) ** 2
        assert quad.total_mass() == pytest.approx(want, abs=1e-13)
        assert quad.bands[-1].r_hi == 1.0 - 2.0 ** -(J + 1)
        # cell count: two core rings plus the dyadic bands
        count = 2 * 2 ** 2 + sum(2 ** (j + 1) for j in range(1, J + 1))
        assert quad.size == count
    quad1 = dk.build_quadrature(leb, J=1, j0=1)
    assert quad1.total_mass() == pytest.approx(9.0 / 16.0, abs=1e-15)


def test_dyadic_level_index():
    """Level l holds the cells of annuli j >= l (every cell at l = 0),
    which are the nodes with r >= 1 - 2^-l; the level-th entry of a
    member's row of St is the grid square that contains its angle, a
    row of S lists the square's members, and the incidence holds the
    mass of each square; levels past J hold no cell."""
    for J, j0 in ((4, 0), (6, 1)):
        quad = dk.build_quadrature(ms.lebesgue(), J=J, j0=j0)
        annulus = np.array([b.j for b in quad.bands])[quad.cell_band]
        for beta in dk.GRID_SHIFTS:
            inc = quad.incidence(beta)
            for level in range(J + 3):
                start = quad.level_start(level)
                members = np.arange(start, quad.size)
                want = np.arange(quad.size) if level == 0 else \
                    np.nonzero(annulus >= level)[0]
                np.testing.assert_array_equal(members, want)
                np.testing.assert_array_equal(
                    members,
                    np.nonzero(quad.nodes_r >= 1.0 - 2.0 ** -level)[0])
                if level > J:
                    assert start == quad.size
                    continue
                arcs = (inc.St.indices[inc.St.indptr[start:-1] + level]
                        - dk.square_row(level, 0))
                for cell, m in zip(members, arcs):
                    arc = dk.DyadicInterval(beta, level, int(m)).arc
                    assert arc.contains(quad.nodes_t[cell])
                for m in range(1 << level):
                    np.testing.assert_array_equal(
                        inc.cells(dk.square_row(level, m)),
                        members[arcs == m])
                # the cached square masses: mu(S) of every grid square
                masses = inc.masses[dk.square_rows(level)]
                np.testing.assert_allclose(
                    masses, [quad.masses[members[arcs == m]].sum()
                             for m in range(1 << level)], rtol=1e-14)
                np.testing.assert_array_equal(
                    masses, level_sums(quad, beta, level, quad.masses))
    with pytest.raises(InvalidRangeError):
        quad.incidence(0.25)


def test_quadrature_band_structure(leb_quad6):
    quad = leb_quad6
    assert quad.bands[0].label == "core0"
    assert quad.bands[1].label == "core1"
    for b in quad.bands:
        cells = slice(b.start, b.start + b.arc_count)
        # angular arcs tile the circle, so the band mass is 2x radial
        assert float(quad.masses[cells].sum()) == \
            pytest.approx(2.0 * b.radial_mass, rel=1e-13)
        assert b.arc_length == 1.0 / b.arc_count
        np.testing.assert_allclose(quad.nodes_r[cells],
                                   0.5 * (b.r_lo + b.r_hi))
    # nodes_z matches polar data
    np.testing.assert_allclose(
        quad.nodes_z, quad.nodes_r * np.exp(2j * np.pi * quad.nodes_t))
    assert np.all(quad.core_mask == (quad.nodes_r < 0.5))


def test_region_masses_partition(leb_quad6):
    quad = leb_quad6
    r1 = dk.carleson_square(dk.Arc(0.0, 0.5))
    r2 = dk.carleson_square(dk.Arc(0.5, 0.5))
    m1, m2 = quad.node_mask(r1), quad.node_mask(r2)
    assert not np.any(m1 & m2)
    outer = quad.nodes_r >= 0.5
    assert np.array_equal(m1 | m2, outer)
    assert float(quad.masses[m1].sum()) + float(quad.masses[m2].sum()) == \
        pytest.approx(float(quad.masses[outer].sum()), rel=1e-14)


def test_quadrature_limits():
    leb = ms.lebesgue()
    with pytest.raises(InvalidRangeError):
        dk.build_quadrature(leb, J=0)
    with pytest.raises(InvalidRangeError):
        dk.build_quadrature(leb, J=13)
    with pytest.raises(InvalidRangeError):
        dk.build_quadrature(leb, J=5, j0=-1)
    # a depth that is not an integer, not a TypeError from range()
    with pytest.raises(InvalidRangeError):
        dk.build_quadrature(leb, 6.0)
    with pytest.raises(InvalidRangeError):
        dk.build_quadrature(leb, 6, j0=1.5)
    with pytest.raises(BudgetExceededError):
        dk.build_quadrature(leb, J=12, j0=10)


def test_field_operations(leb_quad6, leb_quad5):
    quad = leb_quad6
    ones = dk.Field.constant(quad, 1.0)
    assert ones.integral() == pytest.approx(quad.total_mass(), rel=1e-14)
    sq = dk.Field(quad, quad.nodes_z ** 2)
    assert np.iscomplexobj(sq.values)
    # the integral of |z^2|^2 is that of r^4 over the grid
    want = float(np.sum(quad.nodes_r ** 4 * quad.masses))
    assert abs(dk.Field(quad, np.abs(sq.values) ** 2).integral() - want) \
        < 1e-13
    with pytest.raises(InvalidRangeError):
        dk.Field(quad, np.ones(quad.size - 1))
    other = dk.Field.constant(leb_quad5, 1.0)
    dk.require_same_quadrature(quad, ones, ones)
    with pytest.raises(QuadratureMismatchError):
        dk.require_same_quadrature(quad, ones, other)
