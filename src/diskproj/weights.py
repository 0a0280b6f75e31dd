"""Weights on disk quadratures and their characteristics.

A weight is a positive cell field v. The two characteristics:

* B_p: sup over dyadic Carleson squares S (both shifted grids, levels
  up to a depth cap) of [avg_S v] [avg_S v^(-p'/p)]^(p/p'), averages
  against omega x m. Hoelder makes every square's value >= 1, so the
  sup is >= 1 with no tolerance.
* B_1: Bekolle and Bonami's sup over Carleson squares S of
  avg_S v / inf_S v, on the same squares of both grids at levels
  0..J: max over cells z of M v(z) / v(z), with M v(z) the max over
  the squares containing z of avg_S v. The root square holds every
  cell and carries mass, so at the argmin of v the ratio is >= 1 in
  exact arithmetic, massless cells included.

The dyadic maximal function takes the max over each cell's squares by
one pass down the unshifted grid's heap of squares, on either grid
(disk.SquareIncidence.cell_max), not by a pass over the incidence; B_1
is the larger of the two grids' passes over v.

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
                   require_same_quadrature, square_address, square_rows)
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
    witness: Optional[tuple]   # (beta, level, index); B_1 adds the cell
    depth: int
    per_depth: tuple
    skipped: int = 0


def bp_characteristic(v: WeightField, p, depth) -> CharacteristicReport:
    """B_p over both grids to the given depth: each grid's square sums of
    v mu and v^(-p'/p) mu (SquareIncidence.sums), then the levels in
    order, the grids in GRID_SHIFTS order within a level. The witness is
    the first square of the largest value; squares without mass are
    skipped."""
    pprime = conjugate_exponent(p)
    check_integer(depth, "depth")
    quad = v.quad
    mass = quad.masses
    v_mu, w_mu = mass * v.values, mass * np.power(v.values, -pprime / p)
    grids = []
    for beta in GRID_SHIFTS:
        inc = quad.incidence(beta)
        num_v, num_w = inc.sums(v_mu, w_mu)
        den = inc.masses
        ok = den > 0.0
        vals = np.full(den.shape, -math.inf)
        vals[ok] = (num_v[ok] / den[ok]) * (num_w[ok] / den[ok]) ** (
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


# -- dyadic maximal operator and B_1 ------------------------------------------

def _square_averages(quad: DiskQuadrature, nu, beta, f_abs):
    """(incidence of grid beta, the nu-average of f_abs on each of its
    squares): the square sums of nu f_abs, and of nu unless nu is the
    cell masses, whose nu(S) the incidence keeps, by one single-vector
    product each (SquareIncidence.sums); 0 on massless squares."""
    inc = quad.incidence(beta)
    nu_f = nu * f_abs
    if nu is quad.masses:
        den, num = inc.masses, inc.S @ nu_f
    else:
        den, num = inc.sums(nu, nu_f)
    return inc, np.divide(num, den, out=np.zeros(den.shape), where=den > 0.0)


def dyadic_maximal(quad: DiskQuadrature, nu_masses, beta, f_values):
    """M f(z) = max over grid squares S containing z of the nu-average
    of |f| over S at levels 0..J: the square averages, then the max over
    each cell's squares by one pass down the unshifted heap
    (SquareIncidence.cell_max)."""
    nu = nonnegative_table(nu_masses, (quad.size,), "nu_masses")
    f_abs = np.abs(finite_table(f_values, (quad.size,), "f"))
    inc, avg = _square_averages(quad, nu, beta, f_abs)
    # every cell lies in the level-0 square
    return inc.cell_max(avg)


def b1_characteristic(v: WeightField) -> CharacteristicReport:
    """max over cells z of max_S avg_S v / v(z), S over the squares of
    both grids that contain z: the two grids' dyadic maximal functions
    of v over v. The witness is the argmax cell and, on the grid of the
    larger maximal value there (beta = 0 on a tie), the first square of
    the cell's row of St, coarsest first, whose average is that value."""
    quad = v.quad
    averages = {beta: _square_averages(quad, quad.masses, beta, v.values)
                for beta in GRID_SHIFTS}
    maximal = {beta: inc.cell_max(avg)
               for beta, (inc, avg) in averages.items()}
    ratio = np.maximum.reduce(list(maximal.values())) / v.values
    cell = int(np.argmax(ratio))
    # max keeps the first of equal values: beta = 0 on a tie
    beta = max(GRID_SHIFTS, key=lambda shift: maximal[shift][cell])
    inc, avg = averages[beta]
    rows = inc.St.indices[inc.St.indptr[cell]:inc.St.indptr[cell + 1]]
    level, index = square_address(int(rows[np.argmax(avg[rows])]))
    value = float(ratio[cell])
    return CharacteristicReport(value=value,
                                witness=(beta, int(level), int(index), cell),
                                depth=quad.J, per_depth=(value,))


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
