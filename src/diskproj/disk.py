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
so the cross-level algorithms work per level by index arithmetic.

That arithmetic lives in one cached incidence matrix per quadrature and
grid shift, DiskQuadrature.incidence: St, cells by squares in CSR form,
built level by level from each cell's arc indices; S, squares by cells,
its CSR transpose, with levels 0..J stacked (square (l, m) is row
2^l - 1 + m); and the square masses. The row is a square's one address in the
dyadic layer; (level, index) pairs appear only in what the layer
returns. On the nested grid the rows are a binary heap: row r has the
children 2r + 1 and 2r + 2 and the parent (r - 1) // 2, and the stopping
and testing passes carry arrays from one level to the next. Every
per-level sum (B_p, the dyadic maximal function, the dyadic operator,
stopping and testing) is then a product: SquareIncidence.sums sums each
column, one value per cell, over every square by one single-vector
product S @ c per column, and St @ y spreads per-square values back to
the cells. Each product costs one pass over the nnz = sum over cells of
their level counts, about cells x levels (196,616 entries at J=12,
j0=1); S and St add in the order of a per-level bincount and gather, so
their sums are those bit for bit. The indices are int32 and both grids
share one array of ones, so the two grids hold 16 bytes per entry plus 8
per entry once: 5.0 MB at J=12, j0=1. A max over each cell's squares
(the dyadic maximal function and the linearization's bound) is not a
product: SquareIncidence.cell_max takes it by one running max down the
unshifted heap, 2^(J+1) - 1 rows, and one gather per cell at its deepest
row, which the incidence keeps for each cell. The half-shifted grid
rides on the same heap, since its level-l arc m is the union of the
unshifted level-(l+1) arcs 2m + 1 and 2m + 2: only a cell's deepest half
square is read from a row of its own. A level's rows are
square_rows(level), and its member cells the suffix from
DiskQuadrature.level_start(level). The dyadic layer's measure is the
cell masses and its levels are 0..J; the incidence is the one place that
checks a grid shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

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
        if not (0.0 < self.length <= 1.0 and math.isfinite(self.start)):
            raise InvalidRangeError(f"arc ({self.start}, {self.length}) needs "
                                    "a finite start, a length in (0, 1]")
        object.__setattr__(self, "start", self.start % 1.0)

    def contains(self, t):
        return (np.asarray(t) - self.start) % 1.0 < self.length

    @property
    def midpoint(self):
        return (self.start + self.length / 2.0) % 1.0


def check_integer(value, name, low=0):
    """Reject a level, depth or count that is not an integer >= low."""
    if not isinstance(value, (int, np.integer)) or value < low:
        raise InvalidRangeError(f"{name} must be an integer >= {low}: {value}")


def conjugate_exponent(p):
    """p' = p / (p - 1), for an exponent p in (1, inf); any other p
    raises InvalidRangeError."""
    if not 1.0 < p < math.inf:
        raise InvalidRangeError(f"exponent p={p} must lie in (1, inf)")
    return p / (p - 1.0)


def check_grid(beta):
    """Reject a grid shift outside GRID_SHIFTS."""
    if beta not in GRID_SHIFTS:
        raise InvalidRangeError(f"grid shift {beta} is not in {GRID_SHIFTS}")


def finite_table(values, shape, name):
    """values as an array of the given shape, every entry finite."""
    arr = np.asarray(values)
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        raise InvalidRangeError(f"{name} must be finite, shape {shape}: "
                                f"{arr.shape}")
    return arr


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
        check_grid(self.beta)
        check_integer(self.level, "level")
        if not 0 <= self.index < (1 << self.level):
            raise InvalidRangeError(
                f"bad dyadic address level={self.level} index={self.index}")

    @property
    def length(self):
        return 2.0 ** -self.level

    @property
    def arc(self):
        return Arc((self.index + self.beta) * self.length, self.length)


def containing_dyadics(starts, lengths):
    """The smallest grid arc (either shift) containing each arc [starts,
    starts + lengths), as (beta, level, index) arrays; ties go to
    beta = 0.

    Guaranteed to satisfy |K| <= 4 |arc|: at the level with
    2^-l in (2|arc|, 4|arc|] the arc either misses all beta = 0
    boundaries or sits within |arc| of one, in which case the beta = 1/2
    arc centered at that boundary contains it. Arcs longer than 1/4 and
    arcs shorter than 2^-52 turns, the spacing of double angles near 1,
    raise: a grid level past 52 resolves nothing more.

    One array pass per level, from the finest level the shortest arc
    fits down to 0, over the arcs no finer grid arc contains. A grid arc
    shorter than an arc cannot contain it, so the levels above an arc's
    own finest one leave it open."""
    starts = np.asarray(starts, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    if not np.all(np.isfinite(starts)):
        raise InvalidRangeError("arc starts must be finite")
    if np.any(lengths > 0.25):
        raise InvalidRangeError("arc longer than 1/4; use the full circle")
    short = ~(lengths >= np.finfo(float).eps)
    if np.any(short):
        raise InvalidRangeError(f"arc length {lengths[short][0]} below the "
                                "resolution of a double angle")
    starts = starts % 1.0
    beta = np.zeros(lengths.shape)
    level = np.zeros(lengths.shape, dtype=np.int64)
    index = np.zeros(lengths.shape, dtype=np.int64)
    unresolved = np.arange(lengths.size)
    top = int(math.floor(math.log2(1.0 / lengths.min()))) if lengths.size \
        else -1
    for lev in range(top, -1, -1):
        width = 2.0 ** -lev
        for b in GRID_SHIFTS:
            t, length = starts[unresolved], lengths[unresolved]
            m = arc_index(b, lev, t)
            fits = (t - (m + b) * width) % 1.0 + length <= width
            hit = unresolved[fits]
            beta[hit], level[hit], index[hit] = b, lev, m[fits]
            unresolved = unresolved[~fits]
    if unresolved.size:
        raise InvalidRangeError("no containing arc found (unreachable)")
    return beta, level, index


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

def square_row(level, index):
    """The row of square (level, index) in a grid's incidence matrix: the
    levels are stacked, so it is 2^level - 1 + index. Takes arrays too."""
    return (1 << level) - 1 + index


def square_rows(level):
    """The rows of all the squares of a level."""
    return slice(square_row(level, 0), square_row(level + 1, 0))


def square_address(rows):
    """(level, index) arrays of an array of incidence rows: the inverse
    of square_row, as 2^level <= row + 1 < 2^(level + 1)."""
    level = np.frexp(rows + 1)[1] - 1
    return level, rows - square_row(level, 0)


@dataclass(frozen=True, eq=False)
class SquareIncidence:
    """Grid beta's Carleson squares at levels 0..J against the cells.

    S is the 0/1 square-by-cell incidence matrix in CSR form, levels
    stacked: square (l, m) is row 2^l - 1 + m and holds the cells whose
    nodes lie in it, in cell order. St is its CSR transpose: a cell's row
    lists its squares level by level. Both share one array of ones. So
    sums(*columns) sums each column over every square, one product
    S @ c per column, and St @ y spreads per-square values back to the
    cells; each adds in the order of a per-level bincount and gather, so
    the sums are bit for bit theirs. masses is S @ quad.masses, mu(S)
    per row. deepest is each cell's last entry of St, heap_deepest the
    same square's row on the unshifted grid (the same array there), and
    heap_rows serves cell_max."""

    S: csr_array
    St: csr_array
    masses: np.ndarray
    deepest: np.ndarray        # per cell, the row of its deepest square
    heap_deepest: np.ndarray   # per cell, that row on the unshifted grid
    heap_rows: np.ndarray      # per unshifted row, see cell_max

    def sums(self, *columns):
        """Each column, one value per cell, summed over every square: a
        tuple of single-vector products S @ c, one array over the rows
        per column. A CSR row adds its entries in cell order for one
        column as for several, so these are the sums of one product with
        the stacked columns bit for bit. Against scipy's multi-column
        product (j0=1, best of 7 x 50 calls) two columns took 343 us
        here and 556 us stacked at J=12 (66 and 118 us at J=10), four
        columns 615 and 653 us at J=12 but 41 and 35 us at J=8."""
        return tuple(self.S @ c for c in columns)

    def cells(self, row):
        """The cells of the square at an incidence row, in cell order."""
        return self.S.indices[self.S.indptr[row]:self.S.indptr[row + 1]]

    def cell_max(self, square_values):
        """The max of square_values, one per row, over each cell's
        squares: the max over the cell's row of St, by one pass down the
        unshifted grid's heap of 2^(J+1) - 1 rows in place of a pass over
        St's entries. heap_rows names, for each unshifted row, a square of
        this grid holding its cells: the row itself on the unshifted grid;
        on the half-shifted grid, whose level-l arc m is the union of the
        unshifted level-(l+1) arcs 2m + 1 and 2m + 2 (mod 2^(l+1)), the
        half square one level up (the root for the root). A running max
        down the heap, read at the cell's deepest unshifted row, then
        covers every square of the cell but, on the half grid, its
        deepest, which is read from its own row."""
        run = square_values[self.heap_rows]
        for level in range(1, self.masses.size.bit_length()):
            rows = square_rows(level)
            np.maximum(run[rows], np.repeat(run[square_rows(level - 1)], 2),
                       out=run[rows])
        out = run[self.heap_deepest]
        return np.maximum(out, square_values[self.deepest], out=out)


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
    _incidence: dict = field(default_factory=dict, init=False, repr=False)
    # operators.py's band-pair tables and mode matrices, by (spec, kind, name)
    _kernel_tables: dict = field(default_factory=dict, init=False,
                                 repr=False)

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

    def level_start(self, level):
        """The first cell of the level's members, those whose nodes lie
        in a Carleson square of side 2^-level: cells are band-major, so
        the members are the suffix start..size-1. Every cell at level 0,
        the cells of annuli j >= level (nodes with r >= 1 - 2^-level)
        after that, none past J (start = size)."""
        # band b >= 2 is annulus b - 1, after the two core rings
        return (int(np.searchsorted(self.cell_band, level, side="right"))
                if level else 0)

    def incidence(self, beta):
        """The SquareIncidence of grid beta, built once per grid shift on
        first use. St comes level by level from each level's members and
        their arc indices: a cell of band b lies in one square at each
        level 0..max(b - 1, 0), so its row of St has that many entries
        and the level-th is its square at that level. S is St's CSR
        transpose, whose rows list each square's cells in cell order.
        The deepest rows and heap_rows of cell_max come with it."""
        check_grid(beta)
        if beta not in self._incidence:
            levels = np.maximum(self.cell_band, 1)     # each cell's count
            t_ptr = np.zeros(self.size + 1, dtype=np.int32)
            np.cumsum(levels, out=t_ptr[1:])
            t_ind = np.empty(t_ptr[-1], dtype=np.int32)
            for level in range(self.J + 1):
                start = self.level_start(level)
                t_ind[t_ptr[start:-1] + level] = square_row(
                    level, arc_index(beta, level, self.nodes_t[start:]))
            # both grids have the same entries: one array of ones for all
            built = list(self._incidence.values())
            ones = built[0].St.data if built else np.ones(t_ind.size)
            St = csr_array((ones, t_ind, t_ptr),
                           shape=(self.size, square_row(self.J + 1, 0)))
            S = St.T.tocsr()
            S = csr_array((ones, S.indices, S.indptr), shape=S.shape)
            deepest = t_ind[t_ptr[1:] - 1].astype(np.intp)
            heap_rows = np.arange(S.shape[0])
            if beta == 0.0:
                heap_deepest = deepest
            else:
                heap_deepest = square_row(levels - 1, arc_index(
                    0.0, levels - 1, self.nodes_t))
                level, index = square_address(heap_rows[1:])
                # unshifted arc k at level l lies in half arc (k - 1) >> 1
                # at level l - 1; arc 0 wraps to the last one
                heap_rows[1:] = square_row(level - 1, ((index - 1) >> 1) % (
                    1 << (level - 1)))
            self._incidence[beta] = SquareIncidence(
                S, St, S @ self.masses, deepest, heap_deepest, heap_rows)
        return self._incidence[beta]

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
    check_integer(J, "depth J", low=1)
    if J > MAX_DEPTH:
        raise InvalidRangeError(f"depth J must be in [1, {MAX_DEPTH}]")
    check_integer(j0, "angular refinement j0")
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

    def integral(self):
        """sum of values times the cell masses."""
        total = np.sum(self.values * self.quad.masses)
        return complex(total) if np.iscomplexobj(self.values) \
            else float(total)
