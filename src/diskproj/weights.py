"""Weights on disk quadratures and their characteristics.

A weight is a positive cell field v. The two characteristics:

* B_p: sup over dyadic Carleson squares S (both shifted grids, levels
  up to a depth cap) of [avg_S v] [avg_S v^(-p'/p)]^(p/p'), averages
  against omega x m. Hoelder makes every square's value >= 1, so the
  sup is >= 1 with no tolerance.
* B_1: max over nodes of M(v)/v where M is the disc maximal operator
  over a finite family (node-centered discs at four aperture multiples
  plus boundary-touching discs at dyadic radii). The family is finite,
  so M is a lower bound for the true maximal function; divergence under
  refinement is the out-of-class diagnostic.

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

from .disk import (GRID_SHIFTS, DiskQuadrature, Field, nonnegative_table,
                   require_same_quadrature)
from .errors import ConfigError, InvalidRangeError

_CENTER_CAP = 4096


@dataclass(eq=False)
class WeightField:
    """Positive per-cell weight values."""

    quad: DiskQuadrature
    values: np.ndarray
    name: str = "weight"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.quad.size,):
            raise InvalidRangeError("weight length does not match cell count")
        if np.any(self.values <= 0.0) or not np.all(np.isfinite(self.values)):
            raise InvalidRangeError("weights must be positive and finite")

    def integral(self):
        return float(np.sum(self.values * self.quad.masses))


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
    if not 1.0 < p < math.inf:
        raise InvalidRangeError("p must be in (1, inf)")
    pprime = p / (p - 1.0)
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
    if not 1.0 < p < math.inf:
        raise InvalidRangeError("B_p needs p in (1, inf)")
    quad = v.quad
    pprime = p / (p - 1.0)
    dual_vals = np.power(v.values, -pprime / p)
    mass = quad.masses
    grids = [(beta, quad.levels(beta, depth)) for beta in GRID_SHIFTS]
    best, witness, skipped = 0.0, None, 0
    per_depth = []
    for level in range(depth + 1):
        level_best = 0.0
        for beta, levels in grids:
            lv = levels[level]
            den = lv.sums(mass)
            num_v = lv.sums(mass * v.values)
            num_d = lv.sums(mass * dual_vals)
            ok = den > 0.0
            skipped += int(lv.count - ok.sum())
            if not ok.any():
                continue
            vals = (num_v[ok] / den[ok]) * (num_d[ok] / den[ok]) ** (p / pprime)
            k = int(np.argmax(vals))
            if vals[k] > level_best:
                level_best = float(vals[k])
            if vals[k] > best:
                best = float(vals[k])
                witness = (beta, level, int(np.nonzero(ok)[0][k]))
        per_depth.append(max(best, level_best) if per_depth == []
                         else max(per_depth[-1], level_best))
    return CharacteristicReport(value=best, witness=witness, depth=depth,
                                per_depth=tuple(per_depth), skipped=skipped)


# -- disc maximal operator and B_1 ----------------------------------------------

def disc_family(quad: DiskQuadrature):
    """Finite search family: node-centered discs D(a, k(1-|a|)) for
    k in {1, sqrt(2), 2, 4}, plus boundary-touching discs of dyadic
    radius 2^-k centered at (1-2^-k) e^(2 pi i m 2^-k)."""
    centers = quad.nodes_z
    if centers.size > _CENTER_CAP:
        stride = int(np.ceil(centers.size / _CENTER_CAP))
        centers = centers[::stride]
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


def disc_maximal_field(quad: DiskQuadrature, values):
    """M(v) at every node: max over family discs containing the node of
    the omega x m average of |values| over the disc's cells; discs
    without positive mass are skipped."""
    z = quad.nodes_z
    av = np.abs(np.asarray(values))
    out = np.zeros(quad.size)
    for a, rho in disc_family(quad):
        mask = np.abs(z - a) < rho
        m = quad.masses[mask]
        total = m.sum()
        if total <= 0.0:
            continue
        out[mask] = np.maximum(out[mask], float(np.sum(av[mask] * m) / total))
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

def dyadic_maximal(quad: DiskQuadrature, nu_masses, beta, f_values,
                   L_max=None):
    """M f(z) = max over grid squares S containing z of the nu-average
    of |f| over S, levels 0..L_max (default J; no cell lies deeper); one
    pass per level."""
    L_max = quad.J if L_max is None else L_max
    nu = nonnegative_table(nu_masses, (quad.size,), "nu_masses")
    nu_f = nu * np.abs(np.asarray(f_values))
    out = np.zeros(quad.size)
    for lv in quad.levels(beta, L_max):
        den = lv.sums(nu)
        avg = np.divide(lv.sums(nu_f), den, out=np.zeros(lv.count),
                        where=den > 0.0)
        # avg is 0 on massless squares, and out >= 0 already
        out[lv.members] = np.maximum(out[lv.members], avg[lv.arcs])
    return out


def _exact_weak_sup(values, measure_weights):
    """sup over lambda of lambda * mu({values > lambda}), computed at
    the level-set jumps of the sorted values."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(measure_weights, dtype=float)
    order = np.argsort(v)[::-1]
    vs, ws = v[order], np.cumsum(w[order])
    pos = vs > 0.0
    if not pos.any():
        return 0.0
    return float(np.max(vs[pos] * ws[pos]))


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
    meas = v.values * v.quad.masses
    norm1 = float(np.sum(np.abs(f.values) * meas))
    if norm1 <= 0.0:
        return 0.0
    return _exact_weak_sup(np.abs(projected.values), meas) / norm1
