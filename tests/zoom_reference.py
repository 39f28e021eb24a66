"""The oracle's extremum searches with their seeds zoomed one at a time: the
reference that the batched zoom of ``oracle._extrema`` is pinned to with ``==``.

Each side's seeds (``oracle._seeds`` of ``oracle._best_cells``) zoom in
turn, and one running minimum is carried through them, starting from the
side's best cell value; a window whose best point lies on its border and
lowers that minimum moves there at the same width.
"""

import math

import numpy as np

from hexband import oracle


def grid_min(g, n, cells, best, refine_rounds, negate=False):
    """Minimum of g (of -g when ``negate``) from the best cells ``cells``,
    whose first value (negated when ``negate``) is ``best``."""
    f = (lambda c1, c2, c12: -g(c1, c2, c12)) if negate else g
    for c1, c2 in oracle._seeds(cells, n):
        half = 4 * math.pi / n
        rounds = 0
        while rounds < refine_rounds:
            lt = oracle._zoom_offsets(half)
            l1, l2 = c1 + lt, c2 + lt
            local = f(np.cos(l1)[:, None], np.cos(l2)[None, :], np.cos(l1[:, None] - l2[None, :]))
            i, j = np.unravel_index(np.argmin(local), local.shape)
            value = float(local[i, j])
            c1, c2 = float(l1[i]), float(l2[j])
            if value < best and (i in (0, 32) or j in (0, 32)):
                best = value
                continue
            best = min(best, value)
            half /= 8
            rounds += 1
    return best


def rhs_extrema(g, grid):
    """``oracle._rhs_extrema``: the minimum and the maximum of g."""
    (lo_cells, lo), (hi_cells, hi) = oracle._best_cells(g, grid.n, (False, True))
    lo = grid_min(g, grid.n, lo_cells, float(lo[0]), grid.refine_rounds)
    return lo, -grid_min(g, grid.n, hi_cells, -float(hi[0]), grid.refine_rounds, negate=True)


def trig_min(a_coef, b_coef, c_coef, grid):
    """``oracle.trig_min_grid``."""
    g = oracle._trig_function(a_coef, b_coef, c_coef)
    [(cells, values)] = oracle._best_cells(g, grid.n, (False,))
    return grid_min(g, grid.n, cells, float(values[0]), grid.refine_rounds)
