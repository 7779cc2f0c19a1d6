"""Independent reference minima of the cubic model m(h) = g'h + h'Hh/2 + (M/6)||h||^3.

Nothing here uses the solver's method (a root of the secular equation in
the eigenbasis of H): a dense grid for d <= 2, and a local polish from many
starts, all advanced together as one array.  The polish is saddle-free
Newton on m itself, with the step length picked from a geometric grid along
the Newton and the steepest-descent direction, so each start descends to a
local minimum of m.
"""

import numpy as np

_GRID_ROWS = 16  # grid rows per array pass: 16 x 3001 doubles stay in cache
_STEPS = 2.0 ** -np.arange(41)  # step lengths tried along each direction
_MAX_ITER = 200
_STARTS = 40  # random polish starts, besides h = 0


def model_values(model, h):
    """m at every displacement of ``h`` (shape ``(..., d)``)."""
    quad = np.einsum("...i,ij,...j->...", h, model.H, h)
    r = np.sqrt(np.einsum("...i,...i->...", h, h))
    return h @ model.g + 0.5 * quad + (model.M / 6.0) * r**3


def grid_min(model, radius, resolution):
    """Smallest m on the grid of spacing ``resolution`` over [-radius, radius]^d, d <= 2 (and m(0) = 0)."""
    g, H, M = model.g, model.H, model.M
    xs = np.arange(-radius, radius + resolution, resolution)
    if g.size == 1:
        vals = g[0] * xs + 0.5 * H[0, 0] * xs**2 + M / 6.0 * np.abs(xs) ** 3
        return min(0.0, float(vals.min()))
    if g.size != 2:
        raise ValueError("grids are for d <= 2")
    # m(x, y) = a(x) + b(y) + H01 x y + (M/6) (x^2 + y^2)^1.5, a block of rows at a time
    sq = xs * xs
    a = g[0] * xs + 0.5 * H[0, 0] * sq
    b = g[1] * xs + 0.5 * H[1, 1] * sq
    best = 0.0
    for start in range(0, xs.size, _GRID_ROWS):
        rows = slice(start, start + _GRID_ROWS)
        r2 = np.add.outer(sq[rows], sq)
        vals = np.sqrt(r2)
        vals *= r2
        vals *= M / 6.0
        vals += np.multiply.outer(H[0, 1] * xs[rows], xs)
        vals += a[rows, None]
        vals += b
        best = min(best, float(vals.min()))
    return best


def polish_min(model, starts):
    """Smallest m reached by a local descent from every row of ``starts`` (and m(0) = 0).

    The iteration stops when no start improves m by more than its rounding.
    """
    g, H, M = model.g, model.H, model.M
    h = np.array(starts, dtype=np.float64)
    eye = np.eye(g.size)
    val = model_values(model, h)
    for _ in range(_MAX_ITER):
        r = np.sqrt(np.einsum("ki,ki->k", h, h))
        grad = g + h @ H + (0.5 * M) * r[:, None] * h
        outer = h[:, :, None] * h[:, None, :] / np.where(r > 0.0, r, 1.0)[:, None, None]
        lam, vecs = np.linalg.eigh(H + (0.5 * M) * (r[:, None, None] * eye + outer))
        # saddle-free Newton: invert |curvature|, so negative curvature is descended
        coeff = np.einsum("kji,kj->ki", vecs, grad) / np.maximum(np.abs(lam), 1e-8)
        dirs = np.stack([-np.einsum("kij,kj->ki", vecs, coeff), -grad])  # (2, k, d)
        # m(h + t p) - m(h) = t (g + H h).p + t^2 p'Hp / 2 + (M/6) (|h + t p|^3 - |h|^3)
        slope = np.einsum("jki,ki->jk", dirs, grad - (0.5 * M) * r[:, None] * h)
        curv = np.einsum("jki,il,jkl->jk", dirs, H, dirs)
        hp = np.einsum("jki,ki->jk", dirs, h)
        pp = np.einsum("jki,jki->jk", dirs, dirs)
        t = _STEPS[:, None, None]
        norm2 = np.maximum(r * r + 2.0 * t * hp + t * t * pp, 0.0)
        change = t * slope + 0.5 * t * t * curv + (M / 6.0) * (norm2 * np.sqrt(norm2) - r**3)
        change = change.reshape(-1, len(h))  # (steps * 2, k)
        pick = change.argmin(axis=0)
        # gains below rounding of m would keep the loop alive without moving m
        better = change[pick, np.arange(len(h))] < -1e-14 * (1.0 + np.abs(val))
        if not better.any():
            break
        step = (_STEPS[pick // 2] * np.where(better, 1.0, 0.0))[:, None]
        h = h + step * dirs[pick % 2, np.arange(len(h))]
        val = model_values(model, h)
    return min(0.0, float(val.min()))


def reference_min(model, seed):
    """Best of the polish and, for d <= 2, the grid.

    The box of half-width ``radius = 3 max(1, 2 ||g|| / M)`` holds every
    minimizer.  The polish starts from 0 and from ``_STARTS`` points drawn
    uniformly from the box; the grid's spacing is 1e-3 for d = 1 and
    ``radius / 1500`` for d = 2.
    """
    d = model.g.size
    radius = 3.0 * max(1.0, 2.0 * np.linalg.norm(model.g) / model.M)
    rng = np.random.default_rng(seed)
    points = [np.zeros(d)] + [radius * rng.uniform(-1, 1, d) for _ in range(_STARTS)]
    best = polish_min(model, points)
    if d <= 2:
        best = min(best, grid_min(model, radius, 1e-3 if d == 1 else radius / 1500))
    return best
