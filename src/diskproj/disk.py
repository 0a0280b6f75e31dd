"""Disk geometry and quadrature: shifted dyadic grids, Carleson squares,
polar rectangles, and the band/arc cell scheme that turns functions on
the unit disk into finite node vectors (Fields).

Angles are handled in normalized turns t = theta / (2 pi) in [0, 1).
The area-type measure is d(omega x m)(r e^{i theta}) = r domega(r)
dtheta / pi, i.e. a cell [r1, r2) x [t1, t2) has mass
(int_band r domega) * 2 * (t2 - t1); with omega = Lebesgue this is the
normalized area dA/pi and forces <z^n, z^n> = 2 omega_{2n+1}.

Grid convention: the arcs of grid beta in {0, 1/2} at level l are
[(m + beta) 2^-l, (m + 1 + beta) 2^-l) mod 1. At each fixed level both
families partition the circle; the beta = 0 family is nested across
levels, the beta = 1/2 family is not (its shift halves with the level),
so every cross-level algorithm here works per level by index arithmetic
instead of by tree descent.

That arithmetic lives in one cached index per quadrature and grid shift,
DiskQuadrature.levels: the cells in some Carleson square of each level
and their arc indices. Every per-level reduction (B_p, the dyadic
maximal function, the dyadic operator, stopping and testing) runs on it,
and it is the one place that checks a grid shift and a level cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetExceededError, InvalidRangeError,
                     QuadratureMismatchError)
from .measures import RadialMeasure

CELL_BUDGET = 2 ** 20
MAX_DEPTH = 12
GRID_SHIFTS = (0.0, 0.5)


# -- arcs and dyadic intervals ------------------------------------------------

@dataclass(frozen=True)
class Arc:
    """Half-open arc [start, start+length) in normalized turns, mod 1."""

    start: float
    length: float

    def __post_init__(self):
        if not 0.0 < self.length <= 1.0:
            raise InvalidRangeError(f"arc length {self.length} outside (0, 1]")
        object.__setattr__(self, "start", self.start % 1.0)

    def contains(self, t):
        return (np.asarray(t) - self.start) % 1.0 < self.length

    @property
    def midpoint(self):
        return (self.start + self.length / 2.0) % 1.0


def check_grid(beta, L_max):
    """Reject a grid shift outside GRID_SHIFTS or a level cap below 0."""
    if beta not in GRID_SHIFTS:
        raise InvalidRangeError(f"grid shift {beta} is not in {GRID_SHIFTS}")
    if not isinstance(L_max, (int, np.integer)) or L_max < 0:
        raise InvalidRangeError(f"level cap must be an integer >= 0: {L_max}")


def nonnegative_table(values, shape, name):
    """values as a float array of the given shape, finite and >= 0."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape or not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise InvalidRangeError(f"{name} must be finite, >= 0, shape {shape}")
    return arr


def arc_index(beta, level, t):
    """Index m of the grid arc at (beta, level) containing angle t.

    Vectorized; exact for dyadic node angles (the floor argument is a
    dyadic rational representable in binary floating point).
    """
    n = 1 << level
    return np.floor(np.asarray(t) * n - beta).astype(np.int64) % n


@dataclass(frozen=True)
class DyadicInterval:
    """Arc [(m+beta) 2^-l, (m+1+beta) 2^-l) of grid beta at level l."""

    beta: float
    level: int
    index: int

    def __post_init__(self):
        check_grid(self.beta, self.level)
        if not 0 <= self.index < (1 << self.level):
            raise InvalidRangeError(
                f"bad dyadic address level={self.level} index={self.index}")

    @property
    def length(self):
        return 2.0 ** -self.level

    @property
    def arc(self):
        return Arc((self.index + self.beta) * self.length, self.length)

    def children(self):
        """The two level+1 grid arcs inside this one. Only the beta = 0
        family is nested across levels; for beta = 1/2 the level+1 grid
        is shifted by a quarter of this arc and no two grid arcs tile it."""
        if self.beta != 0.0:
            raise InvalidRangeError(
                "half-shifted grid arcs have no same-grid children")
        return (DyadicInterval(0.0, self.level + 1, 2 * self.index),
                DyadicInterval(0.0, self.level + 1, 2 * self.index + 1))


def containing_dyadic(arc: Arc) -> DyadicInterval:
    """Smallest grid arc (either shift) containing the given arc.

    Guaranteed to satisfy |K| <= 4 |arc|: at the level with
    2^-l in (2|arc|, 4|arc|] the arc either misses all beta = 0
    boundaries or sits within |arc| of one, in which case the beta = 1/2
    arc centered at that boundary contains it. Ties go to beta = 0.
    """
    if arc.length > 0.25:
        raise InvalidRangeError("arc longer than 1/4; use the full circle")
    top = int(math.floor(math.log2(1.0 / arc.length)))
    for level in range(top, -1, -1):
        width = 2.0 ** -level
        for beta in GRID_SHIFTS:
            m = int(arc_index(beta, level, arc.start))
            start = (m + beta) * width
            if (arc.start - start) % 1.0 + arc.length <= width:
                return DyadicInterval(beta, level, m)
    raise InvalidRangeError("no containing arc found (unreachable)")


# -- polar regions ------------------------------------------------------------

@dataclass(frozen=True)
class PolarRectangle:
    """Region {r e^{2 pi i t}: 1-h <= r < 1-h_prime, t in arc}."""

    arc: Arc
    h: float
    h_prime: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.h_prime < self.h <= 1.0:
            raise InvalidRangeError(
                f"bad radial band h={self.h}, h'={self.h_prime}")

    @property
    def r_lo(self):
        return 1.0 - self.h

    @property
    def r_hi(self):
        return 1.0 - self.h_prime

    def contains(self, r, t):
        r = np.asarray(r)
        return (r >= self.r_lo) & (r < self.r_hi) & self.arc.contains(t)


def carleson_square(interval) -> PolarRectangle:
    """S(I): the square over an Arc or DyadicInterval."""
    arc = interval.arc if isinstance(interval, DyadicInterval) else interval
    return PolarRectangle(arc=arc, h=min(arc.length, 1.0))


# -- quadrature ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DyadicLevel:
    """The member cells of one grid level, those whose nodes lie in a
    Carleson square of side 2^-level, and the arc index of each, both in
    cell order."""

    level: int
    members: np.ndarray
    arcs: np.ndarray

    @property
    def count(self):
        return 1 << self.level

    def sums(self, cell_values):
        """Per-arc sums of cell_values over the members, in cell order."""
        # float also on an empty level, where bincount gives int64 zeros
        return np.bincount(self.arcs, weights=cell_values[self.members],
                           minlength=self.count).astype(float, copy=False)

    def cells(self, m):
        """The member cells in arc m, in cell order."""
        by_arc, bounds = self._grouped
        return by_arc[bounds[m]:bounds[m + 1]]

    @functools.cached_property
    def _grouped(self):
        order = np.argsort(self.arcs, kind="stable")
        bounds = np.searchsorted(self.arcs[order], np.arange(self.count + 1))
        return self.members[order], bounds


@dataclass(eq=False)
class BandInfo:
    label: str          # "core0", "core1", or "annulus j"
    j: int              # annulus index; -2, -1 for the core rings
    r_lo: float
    r_hi: float
    arc_count: int
    arc_length: float
    start: int          # index of the band's first cell
    radial_mass: float  # int_band r domega


@dataclass(eq=False)
class DiskQuadrature:
    """Polar cell decomposition of the truncated disk {r < 1 - 2^-(J+1)}.

    Core {r < 1/2} is two rings of 2^(1+j0) arcs; annulus j (1..J) is
    the band [1-2^-j, 1-2^-(j+1)) cut into arcs of length 2^(-j-j0).
    Cells are ordered band-major, then by angular index. Nodes are cell
    centers; masses are exact cell measures, so any node-membership
    partition of the cells splits the total mass exactly.
    """

    omega: RadialMeasure
    J: int
    j0: int
    bands: list
    nodes_r: np.ndarray
    nodes_t: np.ndarray
    masses: np.ndarray
    cell_band: np.ndarray
    cell_arc: np.ndarray
    _level_index: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def size(self):
        return self.nodes_r.size

    @property
    def nodes_z(self):
        return self.nodes_r * np.exp(2j * np.pi * self.nodes_t)

    @property
    def core_mask(self):
        """Cells of the two inner rings (r < 1/2); the interior nodes on
        which kernel-truncation error is monitored."""
        return self.nodes_r < 0.5

    def total_mass(self):
        return float(self.masses.sum())

    def node_mask(self, region: PolarRectangle):
        return region.contains(self.nodes_r, self.nodes_t)

    def levels(self, beta, L_max):
        """The DyadicLevel of grid beta at each level 0..L_max: every cell
        at level 0, the cells of annuli j >= l (the nodes with
        r >= 1 - 2^-l) at level l, none above J. Each level is built once
        per grid shift, on first use."""
        check_grid(beta, L_max)
        index = self._level_index.setdefault(beta, [])
        for level in range(len(index), L_max + 1):
            # band b >= 2 is annulus b - 1, after the two core rings
            members = (np.flatnonzero(self.cell_band > level) if level
                       else np.arange(self.size))
            index.append(DyadicLevel(
                level, members, arc_index(beta, level, self.nodes_t[members])))
        return tuple(index[:L_max + 1])

    def same_as(self, other):
        return self is other or (self.omega is other.omega and
                                 self.J == other.J and self.j0 == other.j0)


def require_same_quadrature(quad: DiskQuadrature, *items):
    """Raise QuadratureMismatchError unless every item (a Field, a weight
    or an operator) is bound to quad."""
    for item in items:
        if not quad.same_as(item.quad):
            raise QuadratureMismatchError(
                f"{type(item).__name__} on a different quadrature")


def build_quadrature(omega: RadialMeasure, J, j0=1) -> DiskQuadrature:
    if not 1 <= J <= MAX_DEPTH:
        raise InvalidRangeError(f"depth J must be in [1, {MAX_DEPTH}]")
    if j0 < 0:
        raise InvalidRangeError("angular refinement j0 must be >= 0")
    core_arcs = 2 ** (1 + j0)
    count = 2 * core_arcs + sum(2 ** (j + j0) for j in range(1, J + 1))
    if count > CELL_BUDGET:
        raise BudgetExceededError(
            f"{count} cells exceed the budget {CELL_BUDGET}")

    bands = []
    edges = [("core0", -2, 0.0, 0.25, core_arcs),
             ("core1", -1, 0.25, 0.5, core_arcs)]
    edges += [(f"annulus {j}", j, 1.0 - 2.0 ** -j, 1.0 - 2.0 ** -(j + 1),
               2 ** (j + j0)) for j in range(1, J + 1)]

    nodes_r, nodes_t, masses, cell_band, cell_arc = [], [], [], [], []
    start = 0
    for b_id, (label, j, r_lo, r_hi, n_arcs) in enumerate(edges):
        radial = omega.weighted_interval_mass(r_lo, r_hi, exponent=1)
        length = 1.0 / n_arcs
        bands.append(BandInfo(label, j, r_lo, r_hi, n_arcs, length,
                              start, radial))
        r_mid = 0.5 * (r_lo + r_hi)
        k = np.arange(n_arcs)
        nodes_r.append(np.full(n_arcs, r_mid))
        nodes_t.append((k + 0.5) * length)
        masses.append(np.full(n_arcs, radial * 2.0 * length))
        cell_band.append(np.full(n_arcs, b_id, dtype=np.int64))
        cell_arc.append(k.astype(np.int64))
        start += n_arcs

    return DiskQuadrature(omega=omega, J=J, j0=j0, bands=bands,
                          nodes_r=np.concatenate(nodes_r),
                          nodes_t=np.concatenate(nodes_t),
                          masses=np.concatenate(masses),
                          cell_band=np.concatenate(cell_band),
                          cell_arc=np.concatenate(cell_arc))


# -- fields -------------------------------------------------------------------

@dataclass(eq=False)
class Field:
    """One value per quadrature cell node."""

    quad: DiskQuadrature
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.quad.size,):
            raise InvalidRangeError(
                f"field length {self.values.shape} != cell count {self.quad.size}")

    @classmethod
    def constant(cls, quad, value=1.0):
        return cls(quad, np.full(quad.size, value))

    def integral(self, weight=None):
        w = self.quad.masses if weight is None else self.quad.masses * weight
        return complex(np.sum(self.values * w)) if np.iscomplexobj(self.values) \
            else float(np.sum(self.values * w))

    def norm(self, p, weight=None):
        """(sum |v|^p weight mass)^(1/p)."""
        if p <= 0.0:
            raise InvalidRangeError("norm exponent must be positive")
        w = self.quad.masses if weight is None else self.quad.masses * weight
        return float(np.sum(np.abs(self.values) ** p * w) ** (1.0 / p))
