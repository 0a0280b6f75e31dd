"""Calderon-Zygmund decomposition on dyadic Carleson squares.

Selection is greedy and top-down: a polar rectangle Q is selected as
soon as int_Q |f| >= lambda * omega(Q); otherwise it is subdivided,
down to single quadrature cells. A Carleson square splits into its two
child squares and the two top rectangles over its arc halves; a top
rectangle, which spans one annulus, splits by angular halving. All
masses are sums of cell masses, so the set identities are exact at
quadrature level, not approximate.

The region must be the Carleson square S(I) of a grid arc I = [(m +
beta) 2^-l, (m + 1 + beta) 2^-l), beta in GRID_SHIFTS, at a level l in
1..J of the quadrature; any other region raises InvalidRangeError.

The subdivision runs as one array pass per dyadic level t = l + 1, ...,
on the integer keys of the active cells. A cell of annulus j with arc
index k (at level j + j0) lies, at level t, in the rectangle
(min(j, t), arc index at level t): the Carleson square over that arc
when j >= t, else annulus j's top rectangle over it. The halves of a
shifted grid arc are unshifted arcs, so below the root every arc is an
unshifted grid arc and these integer keys are exactly the float
membership of the cell nodes. Per-rectangle masses and integrals of |f|
are bincount sums; a rectangle leaves the pass when it is selected, has
no mass, or is one cell (the cell's own arc, or at j0 = 0 the right
half of it, where its node sits). So the selected rectangles come level
by level, the region first if it is selected; f_cells and each entry of
selected_cells are sorted.

The selection is kept as arrays. Each level appends the key of each
selected cell, its level t packed above the rectangle key, and the cell;
after the pass one stable argsort orders the cells by rectangle, the
boundaries of the ordered array cut it into selected_cells, and the
keys at the boundaries give each rectangle's (level, band, index).
CZDecomposition.selected builds the PolarRectangles from those arrays
on first read, so a caller that reads only cells builds none.

The good part g equals f off the selected squares and the signed
average of f on each, formed one size class of selected rectangles at a
time, in floating point also for an integer f, each class's cells
gathered from the ordered array as one (rectangles, size) index; b =
f - g is supported on the selection and has exactly zero mean on each
selected square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List

import numpy as np

from .disk import (GRID_SHIFTS, Arc, Field, PolarRectangle,
                   carleson_square, require_same_quadrature, square_row)
from .errors import InvalidRangeError
from .kernels import KernelSpec
from .operators import bergman_handle
from .weights import WeightField, b1_characteristic


@dataclass(eq=False)
class CZDecomposition:
    """The selection as arrays, one entry per selected rectangle below the
    region: levels (t), bands (band == t for the Carleson square over the
    level-t arc, else annulus band's top rectangle over it) and indices
    (the arc index at level t, on the unshifted grid). They are empty
    when the region itself is selected; selected builds the rectangles
    on first read."""

    region: PolarRectangle
    threshold: float
    levels: np.ndarray
    bands: np.ndarray
    indices: np.ndarray
    selected_cells: List[np.ndarray]
    f_cells: np.ndarray            # unselected-cell indices (the set F)
    g: Field
    b: Field
    parent_constant: float         # measured max omega(parent)/omega(Q_k)
    unresolved: int                # floor cells in F with |f| > lambda
    root_selected: bool

    @cached_property
    def selected(self) -> List[PolarRectangle]:
        """The selected rectangles, built on first read: [region] when
        the region is selected."""
        if self.root_selected:
            return [self.region]
        return list(map(_rectangle, self.levels.tolist(), self.bands.tolist(),
                        self.indices.tolist()))


def _grid_square(quad, region: PolarRectangle):
    """(beta, level, m) of the region as the Carleson square over the grid
    arc [(m + beta) 2^-level, (m + 1 + beta) 2^-level), 1 <= level <= J."""
    length = region.arc.length
    mantissa, exponent = math.frexp(length)
    level = 1 - exponent
    if mantissa == 0.5 and 1 <= level <= quad.J and region.h == length \
            and region.h_prime == 0.0:
        for beta in GRID_SHIFTS:
            m = region.arc.start / length - beta
            if m.is_integer():
                return beta, level, int(m)
    raise InvalidRangeError(
        f"region {region} is not the Carleson square of a grid arc at a "
        f"level in 1..{quad.J}")


def _rectangle(t, band, index):
    """The Carleson square (band == t) or annulus band's top rectangle
    over the level-t arc of the given index."""
    arc = Arc(index * 2.0 ** -t, 2.0 ** -t)
    if band == t:
        return carleson_square(arc)
    return PolarRectangle(arc, 2.0 ** -band, 2.0 ** -(band + 1))


def cz_decompose(f: Field, lam, region: PolarRectangle) -> CZDecomposition:
    """Decompose f restricted to the region at height lambda.

    Requires lambda > ||f||_{L^1_omega} (the lemma hypothesis) and a
    region that is a grid Carleson square (see the module docstring).
    The region itself may be selected when its average already exceeds
    lambda (possible here because omega x m is not normalized to give
    the region mass >= 1); that case is flagged and contributes no
    parent ratio.

    `selected` comes in level order (within a level: Carleson squares,
    then top rectangles from the newest annulus down, each by arc
    index); each entry of `selected_cells` and `f_cells` is sorted.
    """
    quad = f.quad
    vals = np.asarray(f.values)
    norm1 = float(np.sum(np.abs(vals) * quad.masses))
    if not lam > norm1:
        raise InvalidRangeError(
            f"threshold {lam} must exceed ||f||_1 = {norm1}")
    beta, level, m = _grid_square(quad, region)

    sel_keys, sel_cells = [], []
    f_parts = []
    unresolved = 0
    parent_ratio = 1.0
    root_selected = False

    cells = quad.incidence(beta).cells(square_row(level, m)).astype(np.int64)
    ordered = cells[:0]                    # the selected cells, by rectangle
    mass = float(quad.masses[cells].sum())
    if mass <= 0.0:
        f_parts.append(cells)
        cells = cells[:0]
    elif float(np.sum(np.abs(vals[cells]) * quad.masses[cells])) >= lam * mass:
        ordered = cells
        root_selected = True
        cells = cells[:0]

    j0 = quad.j0
    j = quad.cell_band[cells] - 1          # annulus of each active cell
    node = 2 * quad.cell_arc[cells] + 1    # node's arc index at level j + j0 + 1
    cell_mass = quad.masses[cells]
    cell_int = np.abs(vals[cells]) * cell_mass
    parent = np.full(cells.size, mass)
    # annulus J's cells are single at level J + j0, or at J + 1 when j0 = 0
    top = quad.J + max(j0, 1)
    # a level-t key is below (J + 1) << t: the level packs above bit width
    width = top + quad.J.bit_length()
    for t in range(level + 1, top + 1):
        if not cells.size:
            break
        # rectangle key (J - band) << t | arc index, band = min(j, t)
        shift = j + j0 + 1 - t
        key = ((quad.J - np.minimum(j, t)) << t) | (node >> shift)
        rect_mass = np.bincount(key, weights=cell_mass)
        rect_int = np.bincount(key, weights=cell_int)
        rect_sel = (rect_mass > 0.0) & (rect_int >= lam * rect_mass)
        mass, sel = rect_mass[key], rect_sel[key]
        single = (j < t) & (shift <= 1) & ~sel
        done = sel | single | (mass <= 0.0)
        if sel.any():
            parent_ratio = max(parent_ratio,
                               float(np.max(parent[sel] / mass[sel])))
            sel_keys.append((t << width) | key[sel])
            sel_cells.append(cells[sel])
        unresolved += int(np.count_nonzero(
            single & (mass > 0.0) & (np.abs(vals[cells]) > lam)))
        f_parts.append(cells[done & ~sel])
        keep = ~done
        cells, j, node = cells[keep], j[keep], node[keep]
        cell_mass, cell_int, parent = (cell_mass[keep], cell_int[keep],
                                       mass[keep])

    # each rectangle's cells start at starts: the region alone, or nothing
    starts = np.zeros(min(ordered.size, 1), dtype=np.intp)
    levels = bands = indices = starts[:0]
    if sel_keys:
        # by level, then rectangle key; a stable sort keeps each
        # rectangle's cells in cell order
        keys = np.concatenate(sel_keys)
        order = np.argsort(keys, kind="stable")
        keys, ordered = keys[order], np.concatenate(sel_cells)[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        levels, rect = np.divmod(keys[starts], 1 << width)
        offsets, indices = np.divmod(rect, np.left_shift(1, levels))
        bands = quad.J - offsets
    sizes = np.diff(starts, append=ordered.size)

    f_idx = (np.sort(np.concatenate(f_parts)) if f_parts
             else np.array([], dtype=np.int64))
    # an average is not an integer: g and b are float (or complex)
    dtype = np.result_type(vals, float)
    g_vals = np.zeros(quad.size, dtype=dtype)
    b_vals = np.zeros(quad.size, dtype=dtype)
    g_vals[f_idx] = vals[f_idx]
    # the selected rectangles' averages, one size class at a time
    for size in np.unique(sizes):
        idx = ordered[starts[sizes == size][:, None] + np.arange(size)]
        m = quad.masses[idx]
        avg = (np.sum(vals[idx] * m, axis=1) / m.sum(axis=1))[:, None]
        g_vals[idx] = avg
        b_vals[idx] = vals[idx] - avg
    return CZDecomposition(region=region, threshold=lam, levels=levels,
                           bands=bands, indices=indices,
                           selected_cells=[ordered[a:b] for a, b in zip(
                               starts.tolist(), (starts + sizes).tolist())],
                           f_cells=f_idx,
                           g=Field(quad, g_vals), b=Field(quad, b_vals),
                           parent_constant=parent_ratio,
                           unresolved=unresolved,
                           root_selected=root_selected)


def level_one_regions():
    """R1, R2: the Carleson squares over the two level-1 arcs."""
    return (carleson_square(Arc(0.0, 0.5)), carleson_square(Arc(0.5, 0.5)))


def circumscribed_disc(q: PolarRectangle):
    """Center and radius of a disc containing the polar rectangle."""
    t_mid = q.arc.midpoint
    r_mid = 0.5 * (q.r_lo + q.r_hi)
    center = r_mid * np.exp(2j * np.pi * t_mid)
    corners = []
    for r in (q.r_lo, q.r_hi):
        for dt in (0.0, q.arc.length):
            corners.append(r * np.exp(2j * np.pi * (q.arc.start + dt)))
    radius = max(abs(c - center) for c in corners)
    return complex(center), float(radius)


@dataclass(frozen=True)
class CZWeakReport:
    good_part_ratio: float    # ||g||^2_{L^2(v)} / (lambda B1 ||f 1_R||_{L^1(v)})
    bad_tail_ratio: float     # tail integral of |P b| over complement of
    #                           the doubled discs / (B1^2 ||f 1_R||_{L^1(v)})
    omega_prime_ratio: float  # (v omega)(Omega') * lambda / ||f 1_R||_{L^1(v)}
    b1_value: float
    selected_count: int
    unresolved: int


def cz_reconstruct_weak11_bound(spec: KernelSpec, v: WeightField, f: Field,
                                lam) -> CZWeakReport:
    """The weak-(1,1) proof's intermediate quantities, each as a ratio
    against the bound it is compared to in the argument, on the region
    R1 = level_one_regions()[0]: the Carleson square over the arc
    [0, 1/2)."""
    quad = f.quad
    require_same_quadrature(quad, v)
    region = level_one_regions()[0]
    dec = cz_decompose(f, lam, region)
    b1 = b1_characteristic(v).value
    vmass = v.values * quad.masses
    rmask = quad.node_mask(region)
    norm1v = float(np.sum(np.abs(f.values[rmask]) * vmass[rmask]))
    if norm1v <= 0.0:
        raise InvalidRangeError("f vanishes on the region")

    g_sq = float(np.sum(np.abs(dec.g.values) ** 2 * vmass))
    good_ratio = g_sq / (lam * b1 * norm1v)

    omega_prime = np.zeros(quad.size, dtype=bool)
    for q in dec.selected:
        center, radius = circumscribed_disc(q)
        omega_prime |= np.abs(quad.nodes_z - center) < 2.0 * radius

    handle = bergman_handle(spec, quad)
    pb = np.abs(handle.apply(dec.b.values))
    tail = float(np.sum(pb[~omega_prime] * vmass[~omega_prime]))
    bad_ratio = tail / (b1 ** 2 * norm1v)

    vo_prime = float(vmass[omega_prime].sum())
    prime_ratio = vo_prime * lam / norm1v

    return CZWeakReport(good_part_ratio=good_ratio, bad_tail_ratio=bad_ratio,
                        omega_prime_ratio=prime_ratio, b1_value=b1,
                        selected_count=len(dec.selected_cells),
                        unresolved=dec.unresolved)
