"""Per-level oracle for the dyadic layer: the bincount and the gather
that summed over one grid level at a time and spread back to its cells,
before the square-by-cell incidence matrices replaced them. Each level's
member cells and arc indices come from the node radii and arc_index,
not from the incidence. The maximal functions' oracle is the route the
heap pass replaced: one maximum.reduceat over the entries of St, each
cell's squares level by level. The containing-arc search has its
scalar oracle too: containing_dyadic, one arc at a time."""

import math

import numpy as np

from diskproj import disk as dk


def arc_sums(arcs, member_values, count):
    # float also on an empty level, where bincount gives int64 zeros
    return np.bincount(arcs, weights=member_values,
                       minlength=count).astype(float, copy=False)


def level_arcs(quad, beta, level):
    """(start, arcs): the level's members are the cells start..size-1,
    the nodes with r >= 1 - 2^-level, and arcs their arc indices."""
    start = quad.size - int(np.count_nonzero(
        quad.nodes_r >= 1.0 - 2.0 ** -level))
    return start, dk.arc_index(beta, level, quad.nodes_t[start:])


def level_sums(quad, beta, level, cell_values):
    """Per-arc sums of cell_values over the level's members, in cell
    order."""
    start, arcs = level_arcs(quad, beta, level)
    return arc_sums(arcs, cell_values[start:], 1 << level)


def incidence_sums(quad, beta, columns):
    """S @ columns: every column's level sums, levels 0..J stacked."""
    return np.column_stack([
        np.concatenate([level_sums(quad, beta, level, col)
                        for level in range(quad.J + 1)])
        for col in np.asarray(columns).reshape(quad.size, -1).T])


def incidence_spread(quad, beta, square_values):
    """St @ square_values: level by level from level 0, each member
    cell adds the value of its square."""
    out = np.zeros(quad.size)
    for level in range(quad.J + 1):
        start, arcs = level_arcs(quad, beta, level)
        out[start:] += square_values[dk.square_rows(level)][arcs]
    return out


def row_max(quad, beta, square_values):
    """The max of square_values over each cell's row of St."""
    St = quad.incidence(beta).St
    return np.maximum.reduceat(square_values[St.indices], St.indptr[:-1])


def dyadic_maximal(quad, nu, beta, f_values):
    """The nu-average of |f| on every square from the level sums, 0 on
    massless squares, then row_max."""
    den, num = incidence_sums(
        quad, beta, np.column_stack((nu, nu * np.abs(f_values)))).T
    avg = np.divide(num, den, out=np.zeros(den.shape), where=den > 0.0)
    return row_max(quad, beta, avg)


def containing_dyadic(arc):
    """The smallest grid arc containing arc, one arc at a time: from the
    arc's finest level down, beta = 0 first, the first grid arc that
    holds it."""
    top = int(math.floor(math.log2(1.0 / arc.length)))
    for level in range(top, -1, -1):
        width = 2.0 ** -level
        for beta in dk.GRID_SHIFTS:
            m = int(dk.arc_index(beta, level, arc.start))
            start = (m + beta) * width
            if (arc.start - start) % 1.0 + arc.length <= width:
                return dk.DyadicInterval(beta, level, m)
    raise AssertionError("unreachable")
