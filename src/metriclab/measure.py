"""Volume quadrature, discrete level sets, coarea and volume profiles.

Volume is cell based: each lattice cell contributes its chart volume times
sqrt(det) of the cell-averaged tensor, which is exact for constant tensors.
Level sets of scalar vertex fields are extracted by marching squares with
linear interpolation (2-D only); ambiguous saddle cells are resolved by the
cell-average rule.  Lengths of level polylines use the same mean-endpoint
tensor rule as polyline_length, and rp2 quantities carry the quotient factor
of the double cover.

One segment core and one case table serve two entry points:
_marching_segments returns the segments of one level, and ladder_lengths the
length of every level of a ladder from one pass over the cells, bit-identical
to one _marching_segments pass per level (segment lengths round alike in a
call of any size).  Coarea profiles and separating-cut ladders use the latter.
The core reads flat index arrays and gathers no per-row stacks: a row's
corner values at row * 4 + corner, its cell's corner vertices and chart
coords at cell * 4 + corner, the coords as one contiguous column per axis.
The tensors at the crossings are blended entry by entry from n^2
contiguous per-vertex entry columns, each blend one (S,) array, and the
mean tensors fill an (n, n, S) buffer whose transpose goes to
fields._quadratic_forms.  Every value takes the same IEEE operations, in
the same order, as a blend of gathered (S, 2, 2) tensor stacks, which the
tests keep as the oracle, so points and lengths equal its bit for bit.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import MetricField, _quadratic_forms
from .geodesy import distance_field

# CCW corner order within a cell, as bit-order indices (00, 10, 11, 01)
_CCW = np.array([0, 1, 3, 2])


class MeasureError(ValueError):
    pass


def volume(field: MetricField) -> float:
    """Total volume: sum over cells of chart volume times sqrt(det gbar)."""
    g = field.grid
    return float((g.cell_chart_vol * field.cell_sqrt_det()).sum()) * g.quotient_volume_factor


def region_volume(field: MetricField, region) -> float:
    """Volume of a vertex-predicate region, weighted by corner fractions.

    Each cell contributes in proportion to how many of its valid corners lie
    in the region, so splitting by any predicate is exactly additive.
    """
    region = np.asarray(region, dtype=bool)
    g = field.grid
    cells = g.cells
    valid = cells >= 0
    inside = region[np.where(valid, cells, 0)] & valid
    frac = inside.sum(axis=1) / valid.sum(axis=1)
    return float((g.cell_chart_vol * field.cell_sqrt_det() * frac).sum()) * g.quotient_volume_factor


def ball_volume(field: MetricField, p: int, r: float, dist=None) -> float:
    """Volume of cells whose valid corners all lie within distance r of p
    (open ball).  MeasureError for r negative or NaN."""
    if not r >= 0:  # NaN fails too
        raise MeasureError(f"r must be nonnegative, got {r!r}")
    if dist is None:
        dist = distance_field(field, [p])
    g = field.grid
    cells = g.cells
    valid = cells >= 0
    d = np.where(valid, dist[np.where(valid, cells, 0)], -np.inf)
    inside = (d < r).all(axis=1)
    return float((g.cell_chart_vol * field.cell_sqrt_det())[inside].sum()) * g.quotient_volume_factor


# ---------------------------------------------------------------------------
# marching squares


@dataclass
class LevelSegments:
    """All marching-squares segments of one level."""

    t: float
    cells: np.ndarray          # cell index per segment
    points_a: np.ndarray       # (S, 2) local chart coords of first crossing
    points_b: np.ndarray
    lengths: np.ndarray        # g-length per segment


# Crossed-edge pairs (ea, eb) of each case's segments, -1 padded; cell edge j
# joins CCW corners j and j+1.  The saddle codes 5 and 10 never index the
# table: the cell-average rule turns them into case 16 (segments e0-e1 and
# e2-e3) or case 17 (segments e3-e0 and e1-e2).
_CASE_EDGES = np.array([
    [[-1, -1], [-1, -1]], [[3, 0], [-1, -1]], [[0, 1], [-1, -1]], [[3, 1], [-1, -1]],
    [[1, 2], [-1, -1]], [[-1, -1], [-1, -1]], [[0, 2], [-1, -1]], [[3, 2], [-1, -1]],
    [[2, 3], [-1, -1]], [[2, 0], [-1, -1]], [[-1, -1], [-1, -1]], [[2, 1], [-1, -1]],
    [[1, 3], [-1, -1]], [[1, 0], [-1, -1]], [[0, 3], [-1, -1]], [[-1, -1], [-1, -1]],
    [[0, 1], [2, 3]], [[3, 0], [1, 2]],
])
_NEXT = np.array([1, 2, 3, 0])
# per case and slot: whether the segment exists, and at column case * 2 + slot
# the CCW corners ea, ea + 1, eb, eb + 1 of its two crossed edges
_HAS_SEGMENT = _CASE_EDGES[:, :, 0] >= 0
_SEGMENT_CORNERS = np.stack([_CASE_EDGES[..., 0], _NEXT[_CASE_EDGES[..., 0]],
                             _CASE_EDGES[..., 1], _NEXT[_CASE_EDGES[..., 1]]]).reshape(4, -1)
_CASE_BITS = np.array([1, 2, 4, 8])

# (cell, level) pairs per block of a level ladder; bounds the ladder's memory
_LADDER_BLOCK_PAIRS = 2048


def _full_cells(field: MetricField, cell_mask):
    """Ids, CCW corner vertices (C, 4) and corner chart coords (n, C * 4) of
    the cells that have four valid corners (and pass cell_mask); the coords
    are one contiguous column per axis, corner k of cell i at i * 4 + k."""
    g = field.grid
    if g.n != 2:
        raise MeasureError("level sets are implemented for 2-D fields only")
    cid = g.full_cells if cell_mask is None else g.full_cells[cell_mask[g.full_cells]]
    at = (cid[:, None] * 4 + _CCW).ravel()
    xcols = g.cell_corner_xy.reshape(-1, g.n).take(at, axis=0).T.copy()
    return cid, g.cells.take(at).reshape(-1, 4), xcols


def _tensor_columns(field: MetricField) -> np.ndarray:
    """The tensors as n^2 contiguous (V,) entry columns, in row-major order."""
    return field.tensors.reshape(field.grid.num_vertices, -1).T.copy()


def _segments(tcols, corners, xcols, s, cell):
    """Marching-squares segments of cells with corner values s = f - t.

    corners (C, 4) holds each cell's CCW corner vertices and xcols (n, C * 4)
    their chart coords (_full_cells); s (P, 4) holds the corner values of
    each row, and cell (P,) the row's cell.  A corner is inside when s > 0.
    Every read is a take by flat index, row * 4 + k for corner k of a row's
    values and cell * 4 + k for its vertex and coords, so no (P, 4) stack of
    vertices or coords is gathered; each index table is (4, S), one
    contiguous row per corner of the two crossed edges.  tcols (n^2, V)
    holds the tensors as contiguous entry columns (_tensor_columns): each
    entry is blended from its own column, one (S,) row per crossed edge,
    and the mean of the two rows fills its row of an (n, n, S) buffer whose
    transpose _quadratic_forms reads.  Returns (rows, pa, pb, lengths): the
    row of each segment (ascending, a saddle's two segments in table order),
    its two crossing points, and its g-length sqrt(d^T gbar d), d = pb - pa,
    with gbar the mean of the tensors blended linearly along the crossed
    edges.
    """
    inside = s > 0.0
    case = inside @ _CASE_BITS
    saddle = np.where((case == 5) | (case == 10))[0]
    # saddles follow the average rule: code 5 with its average inside, or
    # code 10 with its average outside, joins (e0, e1) and (e2, e3)
    avg_in = s[saddle].mean(axis=1) > 0
    case[saddle] = np.where(avg_in != (case[saddle] == 10), 16, 17)
    rows, slot = np.nonzero(np.take(_HAS_SEGMENT, case, axis=0))
    k = np.take(_SEGMENT_CORNERS, case[rows] * 2 + slot, axis=1)
    at_cell = k + cell[rows] * 4
    sv = s.take(k + rows * 4)
    alpha = sv[0::2] / (sv[0::2] - sv[1::2])  # per crossed edge
    beta = 1 - alpha
    n = len(xcols)
    pts = np.empty((n, 2, len(rows)))  # [axis, edge, segment]
    for i, col in enumerate(xcols):
        x = col.take(at_cell)
        pts[i] = x[0::2] + alpha * (x[1::2] - x[0::2])
    verts = corners.take(at_cell)
    mean = np.empty((n, n, len(rows)))
    for (i, j), col in zip(np.ndindex(n, n), tcols):
        t = col.take(verts)
        ten = beta * t[0::2] + alpha * t[1::2]
        np.multiply(0.5, ten[0] + ten[1], out=mean[i, j])
    pa, pb = pts[:, 0].T, pts[:, 1].T
    q = _quadratic_forms(pb - pa, mean.transpose(2, 0, 1))
    return rows, pa, pb, np.sqrt(np.maximum(q, 0.0))


def _marching_segments(field: MetricField, fvals: np.ndarray, t: float,
                       cell_mask=None) -> LevelSegments:
    """Segments of the level {f = t} over the full cells that pass cell_mask."""
    cid, corners, xcols = _full_cells(field, cell_mask)
    rows, pa, pb, lengths = _segments(_tensor_columns(field), corners, xcols,
                                      fvals[corners] - t, np.arange(len(cid)))
    return LevelSegments(t, cid[rows], pa, pb, lengths)


def ladder_lengths(field: MetricField, fvals, levels, cell_mask=None) -> np.ndarray:
    """g-length of the level set {f = t} for every t in levels, in one pass.

    A cell is crossed by level t exactly when min corner <= t < max corner,
    so a binary search of the sorted ladder gives each cell its range of
    levels.  The (cell, level) pairs run through the segment core of
    _marching_segments in level-major, cell-ascending order, one call per
    block of at most _LADDER_BLOCK_PAIRS pairs (one level may exceed that);
    a pair passes its corner values and its cell's index, and the core
    reads the cell's corners and coords in place.  Entry k, the .sum() of
    its level's slice, is bit-identical to
    _marching_segments(field, fvals, levels[k], cell_mask).lengths.sum().
    Lengths are those of the cover (no quotient factor).
    """
    fvals = np.asarray(fvals, dtype=float)
    levels = np.asarray(levels, dtype=float)
    _, corners, xcols = _full_cells(field, cell_mask)
    tcols = _tensor_columns(field)
    fc = fvals[corners]
    order = np.argsort(levels, kind="stable")
    tl = levels[order]
    L = len(tl)
    ext = np.where(np.isnan(fc), -np.inf, fc).T  # a NaN corner is never inside
    lo = np.searchsorted(tl, np.minimum(np.minimum(*ext[:2]), np.minimum(*ext[2:])))
    hi = np.searchsorted(tl, np.maximum(np.maximum(*ext[:2]), np.maximum(*ext[2:])))
    per_level = np.cumsum(np.bincount(lo, minlength=L + 1) - np.bincount(hi, minlength=L + 1))
    done = np.concatenate([[0], np.cumsum(per_level[:L])])  # pairs before level k
    out = np.zeros(L)
    k0 = 0
    while k0 < L:
        k1 = max(k0 + 1, int(np.searchsorted(done, done[k0] + _LADDER_BLOCK_PAIRS,
                                              side="right")) - 1)
        sel = np.where((lo < k1) & (hi > k0))[0]
        first = np.maximum(lo[sel], k0)
        count = np.minimum(hi[sel], k1) - first
        # cell sel[i] takes levels first[i] .. first[i] + count[i] - 1
        pc = np.repeat(sel, count)
        pl = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(pc))
        # a stable sort on 16-bit keys is a radix sort
        key = pl - k0 if k1 - k0 > 1 << 16 else (pl - k0).astype(np.uint16)
        level_major = np.argsort(key, kind="stable")
        pc, pl = pc[level_major], pl[level_major]
        s = np.take(fc, pc, axis=0) - tl[pl][:, None]
        rows, _, _, lengths = _segments(tcols, corners, xcols, s, pc)
        bounds = np.searchsorted(pl[rows], np.arange(k0, k1 + 1)).tolist()
        out[order[k0:k1]] = [lengths[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])]
        k0 = k1
    return out


def level_set_measure(field: MetricField, fvals, t: float) -> float:
    """(n-1)-volume of the discrete level set {f = t} (literal g-length, n=2).
    MeasureError for a t that is NaN, or for f without a finite value."""
    if math.isnan(t):
        raise MeasureError("level t is NaN")
    fvals = np.asarray(fvals, dtype=float)
    finite = fvals[np.isfinite(fvals)]
    if not len(finite):
        raise MeasureError("f has no finite value")
    if t < finite.min() or t > finite.max():
        warnings.warn("level t lies outside the range of f; measure is 0")
        return 0.0
    segs = _marching_segments(field, fvals, t)
    return float(segs.lengths.sum()) * field.grid.quotient_volume_factor


# ---------------------------------------------------------------------------
# coarea


@dataclass
class CoareaProfile:
    t_grid: np.ndarray
    a: np.ndarray
    total: float
    volume: float
    defect: float


def check_one_lipschitz(field: MetricField, fvals, tol: float = 1e-6) -> bool:
    e = field.grid.edges
    df = np.abs(fvals[e[:, 0]] - fvals[e[:, 1]])
    return bool((df <= field.edge_lengths() + tol).all())


def coarea_profile(field: MetricField, fvals, t_count: int = 256) -> CoareaProfile:
    """Sampled t -> vol_{n-1}(f^{-1}(t)) with trapezoid total and defect.

    f must be 1-Lipschitz on the stencil graph (edge slack 1e-6).  Levels are
    the t_count cell midpoints of [min f, max f]; endpoint levels are
    degenerate for marching squares and carry no length.  MeasureError for a
    t_count that is not an integer, or is below 2, whose trapezoid total
    would be 0 or undefined.
    """
    if not (isinstance(t_count, numbers.Integral) and t_count >= 2):
        raise MeasureError(f"t_count must be at least 2 and an integer, got {t_count!r}")
    fvals = np.asarray(fvals, dtype=float)
    if not check_one_lipschitz(field, fvals):
        raise MeasureError("f is not 1-Lipschitz on the stencil graph")
    lo, hi = float(fvals.min()), float(fvals.max())
    if hi <= lo:
        t_grid = np.array([lo])
        a = np.array([0.0])
        vol = volume(field)
        return CoareaProfile(t_grid, a, 0.0, vol, vol)
    step = (hi - lo) / t_count
    t_grid = lo + step * (np.arange(t_count) + 0.5)
    a = ladder_lengths(field, fvals, t_grid) * field.grid.quotient_volume_factor
    total = float(np.trapezoid(a, t_grid))
    vol = volume(field)
    return CoareaProfile(t_grid, a, total, vol, vol - total)


# ---------------------------------------------------------------------------
# volume profile


@dataclass
class VolumeProfileTable:
    r_grid: np.ndarray
    volpro: np.ndarray
    centers: np.ndarray
    sampled: bool  # True when the sup was lower-bounded on a center sample


def volume_profile(field: MetricField, r_grid, center_sample: int = 64) -> VolumeProfileTable:
    """Max ball volume over a deterministic stratified center sample.

    A vertex sample lower-bounds the true sup; `sampled` flags whether any
    centers were skipped.  MeasureError unless center_sample is an integer >= 1.
    """
    if not (isinstance(center_sample, numbers.Integral) and center_sample >= 1):
        raise MeasureError(f"center_sample must be an integer >= 1, got {center_sample!r}")
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    g = field.grid
    V = g.num_vertices
    if center_sample >= V:
        centers = np.arange(V)
    else:
        centers = np.unique(np.linspace(0, V - 1, center_sample).astype(np.int64))
    best = np.zeros(len(r_grid))
    for p in centers:
        dist = distance_field(field, [int(p)])
        for i, r in enumerate(r_grid):
            best[i] = max(best[i], ball_volume(field, int(p), r, dist=dist))
    return VolumeProfileTable(r_grid, best, centers, sampled=len(centers) < V)


def hausdorff_conversion(n: int) -> float:
    """vol_n = (omega_n / 2^n) * haus_n; exact constants for n = 1..4."""
    if n not in (1, 2, 3, 4):
        raise MeasureError("hausdorff_conversion supports n = 1..4")
    omega = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0, 4: math.pi ** 2 / 2.0}[n]
    return omega / 2.0 ** n
