"""Weights on disk quadratures and their characteristics.

A weight is a positive cell field v. The two characteristics:

* B_p: sup over dyadic Carleson squares S (both shifted grids, levels
  up to a depth cap) of [avg_S v] [avg_S v^(-p'/p)]^(p/p'), averages
  against omega x m. Hoelder makes every square's value >= 1, so the
  sup is >= 1 with no tolerance.
* B_1: max over nodes of M(v)/v where M is the disc maximal operator
  over a finite family: the node-centered discs D(a, k(1-|a|)) for
  k in {1, sqrt(2), 2, 4} at every node a, plus the boundary-touching
  discs of radius 2^-k centered at (1-2^-k) e^(2 pi i m 2^-k) for
  k = 1..J and m < 2^k. That is 4 n + 2^(J+1) - 2 discs on n cells
  (73,742 at J=12, j0=1), all of them at every depth. The family is
  finite, so M is a lower bound for the true maximal function;
  divergence under refinement is the out-of-class diagnostic.

M runs on band windows. The family falls into rotation groups, one
per (center band, k) and one per boundary radius, and every band of
the quadrature is one radius with uniform arcs. A group skips, before
any per-disc arithmetic, each band whose radius its discs cannot reach,
outside [min(|a| - rho), max(|a| + rho)]. A disc meets any other band
in one cyclic run of arcs, which the law of cosines gives; each disc
tests only its run, widened by one arc on each side, with the float
test |z - a| < rho. A disc's cells are then exactly those of a scan of
every node, and since cell masses are constant within a band its
average is sum_b mass_b sum(|v| in run b) / sum_b mass_b count(run b).

The dyadic maximal function takes the max over each cell's squares by
one pass down the unshifted grid's heap of squares, on either grid
(disk.SquareIncidence.cell_max), not by a pass over the incidence.

Maximal operators and the weak-type verifiers report exact suprema over
lambda: the map lambda -> lambda * measure({M f > lambda}) is piecewise
linear between the sorted values of M f, so the supremum is attained at
level-set jumps and is computed by one sorted sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .disk import (GRID_SHIFTS, DiskQuadrature, Field, check_integer,
                   conjugate_exponent, finite_table, nonnegative_table,
                   require_same_quadrature, square_rows)
from .errors import ConfigError, InvalidRangeError


@dataclass(eq=False)
class WeightField(Field):
    """A Field of positive, finite, real per-cell weight values."""

    name: str = "weight"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        super().__post_init__()
        if np.any(self.values <= 0.0) or not np.all(np.isfinite(self.values)):
            raise InvalidRangeError("weights must be positive and finite")


def weight_field(quad, eta=0.0, log_exp=0.0, bump_center=None,
                 bump_width=0.1, bump_height=1.0, name=None) -> WeightField:
    """(1-r)^eta (1 - log(1-r))^log_exp times an optional angular tent
    bump 1 + height * max(0, 1 - dist(t, center)/width)."""
    r, t = quad.nodes_r, quad.nodes_t
    vals = np.power(1.0 - r, eta)
    if log_exp != 0.0:
        vals = vals * np.power(1.0 - np.log1p(-r), log_exp)
    if bump_center is not None:
        if bump_width <= 0.0:
            raise InvalidRangeError("bump width must be positive")
        d = np.abs((t - bump_center + 0.5) % 1.0 - 0.5)
        vals = vals * (1.0 + bump_height * np.maximum(0.0, 1.0 - d / bump_width))
    if name is None:
        name = f"(1-r)^{eta:g}"
        if log_exp != 0.0:
            name += f" log^{log_exp:g}"
        if bump_center is not None:
            name += " bump"
    return WeightField(quad, vals, name=name)


def weight_from_config(quad, section) -> WeightField:
    try:
        kw = {}
        if "eta" in section:
            kw["eta"] = float(section["eta"])
        if "log_exp" in section:
            kw["log_exp"] = float(section["log_exp"])
        if "bump_center" in section:
            kw["bump_center"] = float(section["bump_center"])
            kw["bump_width"] = float(section.get("bump_width", "0.1"))
            kw["bump_height"] = float(section.get("bump_height", "1"))
    except ValueError as exc:
        raise ConfigError(f"bad weight parameter: {exc}") from None
    if "name" in section:
        kw["name"] = section["name"]
    return weight_field(quad, **kw)


def dual_weight(v: WeightField, p) -> WeightField:
    """sigma = v^(1-p') = v^(-1/(p-1)); dual of sigma under p' is v."""
    pprime = conjugate_exponent(p)
    return WeightField(v.quad, np.power(v.values, 1.0 - pprime),
                       name=f"dual({v.name}, p={p:g})")


# -- B_p characteristic --------------------------------------------------------

@dataclass(frozen=True)
class CharacteristicReport:
    value: float
    witness: Optional[tuple]   # (beta, level, index) or node index for B_1
    depth: int
    per_depth: tuple
    skipped: int = 0


def bp_characteristic(v: WeightField, p, depth) -> CharacteristicReport:
    """B_p over both grids to the given depth: each grid's square sums of
    v mu and v^(-p'/p) mu in one product, then the levels in order, the
    grids in GRID_SHIFTS order within a level. The witness is the first
    square of the largest value; squares without mass are skipped."""
    pprime = conjugate_exponent(p)
    check_integer(depth, "depth")
    quad = v.quad
    mass = quad.masses
    fields = np.column_stack((mass * v.values,
                              mass * np.power(v.values, -pprime / p)))
    grids = []
    for beta in GRID_SHIFTS:
        inc = quad.incidence(beta)
        num = inc.S @ fields
        den = inc.masses
        ok = den > 0.0
        vals = np.full(den.shape, -math.inf)
        vals[ok] = (num[ok, 0] / den[ok]) * (num[ok, 1] / den[ok]) ** (
            p / pprime)
        grids.append((beta, vals))
    best, witness = 0.0, None
    per_depth = []
    for level in range(depth + 1):
        for beta, vals in grids:
            level_vals = vals[square_rows(level)]   # empty past J
            if level_vals.size and level_vals.max() > best:
                k = int(np.argmax(level_vals))
                best = float(level_vals[k])
                witness = (beta, level, k)
        per_depth.append(best)
    rows = square_rows(depth).stop          # the squares at levels 0..depth
    live = sum(int(np.count_nonzero(vals[:rows] > -math.inf))
               for _, vals in grids)
    return CharacteristicReport(value=best, witness=witness, depth=depth,
                                per_depth=tuple(per_depth),
                                skipped=2 * rows - live)


# -- disc maximal operator and B_1 ----------------------------------------------

_APERTURES = (1.0, math.sqrt(2.0), 2.0, 4.0)
# A band is skipped for a group when its radius lies this far outside
# the radii the discs reach: float membership can only reach about
# 1e-12 past them.
_TANGENT_SLACK = 1e-9
# Candidate cells tested at once; bounds the memory of one block.
_BLOCK = 1 << 17


def _disc_groups(quad: DiskQuadrature, z):
    """The disc family as rotation groups of (centers, radii): one group
    per band and aperture k for the node-centered discs D(a, k(1-|a|)),
    then one per boundary level k for the discs of radius 2^-k centered
    at (1-2^-k) e^(2 pi i m 2^-k), m < 2^k."""
    for band in quad.bands:
        centers = z[band.start:band.start + band.arc_count]
        for k in _APERTURES:
            yield centers, k * (1.0 - np.abs(centers))
    for k in range(1, quad.J + 1):
        rho = 2.0 ** -k
        centers = (1.0 - rho) * np.exp(2j * np.pi * np.arange(1 << k) * rho)
        yield centers, np.full(1 << k, rho)


def _group_windows(quad: DiskQuadrature, z, centers, radii):
    """Yield (rows, windows) for consecutive slices of a group's discs,
    about _BLOCK candidates each. windows holds, for each band within
    the discs' reach, the band's cell mass, the candidate cells of each
    disc in rows (one row per disc) and which of them lie in the disc,
    by the float test |z - a| < rho.

    A band whose radius lies outside the reach, [min(|a| - rho),
    max(|a| + rho)] widened by _TANGENT_SLACK, is skipped before any
    per-disc arithmetic. The law of cosines gives each disc's run of
    arcs in any other band; the candidates are that run widened by one
    arc on each side, at most the whole band, so no row repeats a cell.
    Rounding moves a run's ends by less than 2e-6 rad, a sixth of the
    narrowest arc that the cell budget allows, so every cell that
    passes the test is a candidate.
    """
    R = np.abs(centers)
    turns = np.angle(centers) / (2.0 * np.pi)
    # a disc meets radii in [|a| - rho, |a| + rho] only
    reach_lo = float(np.min(R - radii)) - _TANGENT_SLACK
    reach_hi = float(np.max(R + radii)) + _TANGENT_SLACK
    runs = []
    for band in quad.bands:
        r, n = quad.nodes_r[band.start], band.arc_count
        if not reach_lo <= r <= reach_hi:
            continue
        cos = (r * r + R * R - radii * radii) / (2.0 * r * R)
        # node k sits at turn (k + 1/2)/n; arcs within half of mid are in
        half = np.arccos(np.clip(cos, -1.0, 1.0)) * (n / (2.0 * np.pi))
        mid = turns * n - 0.5
        lo = np.floor(mid - half).astype(np.int64)
        width = min(int(np.max(np.ceil(mid + half) - lo)) + 1, n)
        runs.append((band, lo, np.arange(width)))
    step = max(1, _BLOCK // sum(span.size for _, _, span in runs))
    for first in range(0, centers.size, step):
        rows = slice(first, first + step)
        windows = []
        for band, lo, span in runs:
            cells = band.start + (lo[rows, None] + span) % band.arc_count
            inside = np.abs(z[cells] - centers[rows, None]) < radii[rows, None]
            windows.append((quad.masses[band.start], cells, inside))
        yield rows, windows


def disc_maximal_field(quad: DiskQuadrature, values):
    """M(v) at every node: max over family discs containing the node of
    the omega x m average of |values| over the disc's cells; discs
    without positive mass are skipped. values must be finite, one per
    cell."""
    values = np.asarray(values)
    if values.shape != (quad.size,) or not np.all(np.isfinite(values)):
        raise InvalidRangeError(
            f"disc maximal values must be finite, shape ({quad.size},)")
    av = np.abs(values)
    z = quad.nodes_z
    out = np.zeros(quad.size)
    for centers, radii in _disc_groups(quad, z):
        for _, windows in _group_windows(quad, z, centers, radii):
            num = den = 0.0
            # cell masses are constant within a band
            for mass, cells, inside in windows:
                num = num + mass * np.where(inside, av[cells], 0.0).sum(axis=1)
                den = den + mass * np.count_nonzero(inside, axis=1)
            # a massless disc averages to 0, which leaves out >= 0 as it is
            avg = np.divide(num, den, out=np.zeros(den.shape), where=den > 0.0)
            members = np.concatenate(
                [cells[inside] for _, cells, inside in windows])
            member_avg = np.concatenate(
                [np.broadcast_to(avg[:, None], inside.shape)[inside]
                 for _, _, inside in windows])
            np.maximum.at(out, members, member_avg)
    return out


def b1_characteristic(v: WeightField) -> CharacteristicReport:
    """max over nodes of M(v)/v; >= 1 because some family disc covers
    the whole disk, so at the argmin of v the average beats the value."""
    m = disc_maximal_field(v.quad, v.values)
    ratio = m / v.values
    k = int(np.argmax(ratio))
    return CharacteristicReport(value=float(ratio[k]), witness=k,
                                depth=v.quad.J, per_depth=(float(ratio[k]),))


# -- dyadic maximal operator -----------------------------------------------------

def dyadic_maximal(quad: DiskQuadrature, nu_masses, beta, f_values):
    """M f(z) = max over grid squares S containing z of the nu-average
    of |f| over S at levels 0..J: the square sums in one product (nu(S)
    read from the incidence when nu is the cell masses), then the max
    over each cell's squares by one pass down the unshifted heap
    (SquareIncidence.cell_max)."""
    nu = nonnegative_table(nu_masses, (quad.size,), "nu_masses")
    nu_f = nu * np.abs(finite_table(f_values, (quad.size,), "f"))
    inc = quad.incidence(beta)
    if nu is quad.masses:
        den, num = inc.masses, inc.S @ nu_f
    else:
        den, num = (inc.S @ np.column_stack((nu, nu_f))).T
    # 0 on massless squares; every cell lies in the level-0 square
    avg = np.divide(num, den, out=np.zeros(den.shape), where=den > 0.0)
    return inc.cell_max(avg)


def _exact_weak_sup(values, measure_weights):
    """sup over lambda of lambda * mu({values > lambda}) along the last
    axis, computed at the level-set jumps of the sorted values: a float
    for one row of values, an array for a stack of rows."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, axis=-1)[..., ::-1]
    vs = np.take_along_axis(v, order, axis=-1)
    ws = np.cumsum(np.asarray(measure_weights, dtype=float)[order], axis=-1)
    # the products at positive values are >= 0, so the zeros below
    # leave a row's max alone unless no value is positive
    sup = np.max(np.where(vs > 0.0, vs * ws, 0.0), axis=-1)
    return float(sup) if sup.ndim == 0 else sup


def weak11_maximal_check(quad: DiskQuadrature, nu_masses, beta, f: Field):
    """sup_lambda lambda nu({M f > lambda}) / ||f||_{L^1_nu}."""
    require_same_quadrature(quad, f)
    nu = np.asarray(nu_masses, dtype=float)
    m = dyadic_maximal(quad, nu, beta, f.values)
    norm1 = float(np.sum(np.abs(f.values) * nu))
    if norm1 <= 0.0:
        return 0.0
    return _exact_weak_sup(m, nu) / norm1


def weak11_projection_check(v: WeightField, f: Field, projected: Field):
    """sup_lambda lambda (v omega x m)({|Pf| > lambda}) / ||f||_{L^1(v)}
    for a precomputed projection output (P_omega f or P+_omega f)."""
    require_same_quadrature(v.quad, f, projected)
    f_abs, pf_abs = (np.abs(finite_table(h.values, h.values.shape, name))
                     for h, name in ((f, "f"), (projected, "projected")))
    meas = v.values * v.quad.masses
    norm1 = float(np.sum(f_abs * meas))
    if norm1 <= 0.0:
        return 0.0
    return _exact_weak_sup(pf_abs, meas) / norm1
