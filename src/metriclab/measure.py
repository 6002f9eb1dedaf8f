"""Volume quadrature, discrete level sets, coarea and volume profiles.

Volume is cell based: each lattice cell contributes its chart volume times
sqrt(det) of the cell-averaged tensor, which is exact for constant tensors.
Level sets of scalar vertex fields are extracted by marching squares with
linear interpolation (2-D only); ambiguous saddle cells are resolved by the
cell-average rule.  Lengths of level polylines use the same mean-endpoint
tensor rule as polyline_length, and rp2 quantities carry the quotient factor
of the double cover.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import MetricField
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
    """Volume of cells whose valid corners all lie within distance r of p (open ball)."""
    if r < 0:
        raise MeasureError("r must be nonnegative")
    if dist is None:
        dist = distance_field(field, [p]).dist
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
    """All marching-squares segments of one level: geometry and graph keys."""

    t: float
    cells: np.ndarray          # cell index per segment
    keys_a: np.ndarray         # (S, 2) sorted vertex pair of first crossed cell edge
    keys_b: np.ndarray         # (S, 2) second crossed cell edge
    points_a: np.ndarray       # (S, 2) local chart coords of first crossing
    points_b: np.ndarray
    lengths: np.ndarray        # g-length per segment


def _marching_segments(field: MetricField, fvals: np.ndarray, t: float,
                       cell_mask=None) -> LevelSegments:
    g = field.grid
    if g.n != 2:
        raise MeasureError("level sets are implemented for 2-D fields only")
    cells = g.cells
    full = (cells >= 0).all(axis=1)
    if cell_mask is not None:
        full = full & cell_mask
    cid = np.where(full)[0]
    corners = cells[cid][:, _CCW]
    xy = g.cell_corner_xy[cid][:, _CCW, :]
    s = fvals[corners] - t
    inside = s > 0.0
    code = (inside * np.array([1, 2, 4, 8])).sum(axis=1)
    active = (code > 0) & (code < 15)
    cid, corners, xy, s, inside, code = (
        cid[active], corners[active], xy[active], s[active], inside[active], code[active]
    )

    # crossing data for the four CCW cell edges
    nxt = np.array([1, 2, 3, 0])
    pts = np.zeros((len(cid), 4, 2))
    keys = np.zeros((len(cid), 4, 2), dtype=np.int64)
    tens = np.zeros((len(cid), 4, 2, 2))
    crossed = np.zeros((len(cid), 4), dtype=bool)
    all_t = field.tensors[corners]
    for j in range(4):
        a, b = j, nxt[j]
        cr = inside[:, a] != inside[:, b]
        crossed[:, j] = cr
        denom = s[:, a] - s[:, b]
        alpha = np.where(cr, s[:, a] / np.where(denom == 0, 1.0, denom), 0.0)
        pts[:, j] = xy[:, a] + alpha[:, None] * (xy[:, b] - xy[:, a])
        lohi = np.sort(np.stack([corners[:, a], corners[:, b]], axis=1), axis=1)
        keys[:, j] = lohi
        tens[:, j] = (1 - alpha)[:, None, None] * all_t[:, a] + alpha[:, None, None] * all_t[:, b]

    # segment edge pairs per marching-squares case; saddles use the average rule
    pair_table = {
        1: [(3, 0)], 2: [(0, 1)], 4: [(1, 2)], 8: [(2, 3)],
        3: [(3, 1)], 6: [(0, 2)], 12: [(1, 3)], 9: [(2, 0)],
        7: [(3, 2)], 11: [(2, 1)], 13: [(1, 0)], 14: [(0, 3)],
    }
    seg_cell, seg_a, seg_b = [], [], []
    for c, pairs in pair_table.items():
        rows = np.where(code == c)[0]
        for (ea, eb) in pairs:
            seg_cell.append(rows)
            seg_a.append(np.full(len(rows), ea))
            seg_b.append(np.full(len(rows), eb))
    for c, flip in ((5, False), (10, True)):
        rows = np.where(code == c)[0]
        if len(rows) == 0:
            continue
        avg_in = s[rows].mean(axis=1) > 0
        connect = avg_in != flip
        # corners 0 and 2 inside (code 5): avg inside joins (e0,e1),(e2,e3)
        for sel, pairs in ((connect, [(0, 1), (2, 3)]), (~connect, [(3, 0), (1, 2)])):
            rr = rows[sel]
            for (ea, eb) in pairs:
                seg_cell.append(rr)
                seg_a.append(np.full(len(rr), ea))
                seg_b.append(np.full(len(rr), eb))
    if seg_cell:
        rows = np.concatenate(seg_cell)
        ea = np.concatenate(seg_a)
        eb = np.concatenate(seg_b)
    else:
        rows = np.empty(0, dtype=np.int64)
        ea = eb = np.empty(0, dtype=np.int64)

    pa = pts[rows, ea]
    pb = pts[rows, eb]
    gbar = 0.5 * (tens[rows, ea] + tens[rows, eb])
    d = pb - pa
    q = np.einsum("si,sij,sj->s", d, gbar, d)
    lengths = np.sqrt(np.maximum(q, 0.0))
    order = np.argsort(rows, kind="stable")
    return LevelSegments(
        t, cid[rows][order], keys[rows, ea][order], keys[rows, eb][order],
        pa[order], pb[order], lengths[order],
    )


def level_set_measure(field: MetricField, fvals, t: float) -> float:
    """(n-1)-volume of the discrete level set {f = t} (literal g-length, n=2)."""
    fvals = np.asarray(fvals, dtype=float)
    finite = fvals[np.isfinite(fvals)]
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
    degenerate for marching squares and carry no length.
    """
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
    qfac = field.grid.quotient_volume_factor
    a = np.array([_marching_segments(field, fvals, t).lengths.sum() * qfac for t in t_grid])
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
    centers were skipped.
    """
    if center_sample < 1:
        raise MeasureError("center_sample must be at least 1")
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    g = field.grid
    V = g.num_vertices
    if center_sample >= V:
        centers = np.arange(V)
    else:
        centers = np.unique(np.linspace(0, V - 1, center_sample).astype(np.int64))
    best = np.zeros(len(r_grid))
    for p in centers:
        dist = distance_field(field, [int(p)]).dist
        for i, r in enumerate(r_grid):
            best[i] = max(best[i], ball_volume(field, int(p), r, dist=dist))
    return VolumeProfileTable(r_grid, best, centers, sampled=len(centers) < V)


def hausdorff_conversion(n: int) -> float:
    """vol_n = (omega_n / 2^n) * haus_n; exact constants for n = 1..4."""
    if n not in (1, 2, 3, 4):
        raise MeasureError("hausdorff_conversion supports n = 1..4")
    omega = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0, 4: math.pi ** 2 / 2.0}[n]
    return omega / 2.0 ** n
