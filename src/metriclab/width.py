"""Separating cuts, width certificates, and the sys/width/volume cross-checks.

The cut engine follows the volume-profile recursion specialized to surfaces:
while some complement component has certified radius >= R, build the distance
field from that component's farthest-point center, scan a uniform ladder of
levels inside (r0, r1), keep the level whose curve is shortest (the discrete
pigeonhole surrogate: some level in the band is no longer than
vol(B(p, r1)) / (r1 - r0)), remove every component-internal edge straddling
the level, and recompute components.  The whole ladder is scanned at once:
binary searches of the sorted ladder give each level's nudge off vertex
values and its count of straddling edges, and measure.ladder_lengths gives
every level's curve length from one pass over the cells; only the chosen
level's segments are built.  Cut curves become one-ring vertex sets
(endpoints of straddled edges), optionally thickened by one tenth of their
separation from other curves, and are appended to the complement components
as cover sets.  Certificates store per-set centers so an independent
validator can recheck every radius with fresh distance fields.

All certified radii are strict upper bounds measured from stored centers;
an engine failure is an honest "no certificate", never a false one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import measure
from .covers import Cover, _edge_components
from .fields import MetricField
from .geodesy import (
    _column_maxima,
    _least_column,
    _rows,
    _widened,
    distance_field,
    set_radius_exact,
    set_radius_upper,
    systole,
)


class WidthError(ValueError):
    pass


_LEVEL_COUNT = 256   # levels in each cut's ladder
_RADIUS_ROUNDS = 4   # farthest-point rounds per component radius


def field_hash(field: MetricField) -> str:
    h = hashlib.sha256()
    h.update(field.grid.topology.descriptor().encode())
    h.update(np.int64(field.grid.resolution).tobytes())
    h.update(np.int64(field.grid.stencil_order).tobytes())
    h.update(np.ascontiguousarray(field.tensors).tobytes())
    return h.hexdigest()


@dataclass
class CutCurve:
    level: float
    center: int
    length: float
    ball_bound: float          # vol(B(center, r1)) / (r1 - r0) at cut time
    removed_edges: np.ndarray  # edge ids straddled by this level
    points: np.ndarray         # segment midpoints, for reports and figures


@dataclass
class SeparatingCut:
    R: float
    r0: float
    r1: float
    curves: list
    removed_mask: np.ndarray
    components: list
    component_radii: list      # (radius_upper_bound, center) per component
    valid: bool
    iterations: int
    reasons: list
    total_length: float


def _kept_components(field: MetricField, removed_mask: np.ndarray):
    g = field.grid
    ncomp, labels = _edge_components(g.num_vertices, g.edges[~removed_mask])
    comps = [np.where(labels == c)[0] for c in range(ncomp)]
    comps.sort(key=lambda a: int(a[0]))
    return comps


def _ladder(fcomp, r0: float, r1: float, level_count: int) -> np.ndarray:
    """Midpoint levels of level_count equal steps of (r0, r1); a level within
    1e-13 of a component value moves up by a millionth of a step."""
    step = (r1 - r0) / level_count
    t = r0 + step * (np.arange(level_count) + 0.5)
    # fl(x - t) is monotone in x, so the value nearest t is a sorted neighbour
    fs = np.sort(fcomp)
    i = np.searchsorted(fs, t)
    near = np.minimum(np.abs(fs[np.minimum(i, len(fs) - 1)] - t),
                      np.abs(fs[np.maximum(i - 1, 0)] - t))
    return np.where(near < 1e-13, t + step * 1e-6, t)


def _straddle_counts(fu, fv, levels) -> np.ndarray:
    """Number of edges with min(fu, fv) < t < max(fu, fv), for each level t."""
    lo, hi = np.minimum(fu, fv), np.maximum(fu, fv)
    keep = lo < hi
    lo, hi = np.sort(lo[keep]), np.sort(hi[keep])
    return np.searchsorted(lo, levels, side="left") - np.searchsorted(hi, levels, side="right")


def separating_cut(field: MetricField, R: float, r0: float = None, r1: float = None,
                   budget: int = 32) -> SeparatingCut:
    """Cut level curves until every complement component has radius < R."""
    g = field.grid
    if g.n != 2 or g.topology.kind == "rp2":
        raise WidthError("separating cuts are implemented for plain 2-D fields")
    if R <= 0:
        raise WidthError("R must be positive")
    n = g.n
    if r1 is None:
        r1 = R
    if r0 is None:
        r0 = (n - 1) / n * R
    if not (0 < r0 < r1 <= R):
        raise WidthError("need 0 < r0 < r1 <= R")

    removed = np.zeros(g.num_edges, dtype=bool)
    curves = []
    reasons = []
    comps = _kept_components(field, removed)
    radii = {}

    def radius_of(comp):
        key = comp.tobytes()
        if key not in radii:
            radii[key] = set_radius_upper(field, comp, rounds=_RADIUS_ROUNDS, within=comp)
        return radii[key]

    iterations = 0
    while True:
        comp = next((c for c in comps if radius_of(c)[0] >= R), None)
        if comp is None:
            break
        if iterations == budget:
            reasons.append(f"iteration budget {budget} exhausted")
            break
        iterations += 1
        rad_ub, center = radius_of(comp)
        in_comp = np.zeros(g.num_vertices, dtype=bool)
        in_comp[comp] = True
        # every comp vertex lies within rad_ub of the center, and r1 <= R <= rad_ub:
        # the row cut off there holds every value read below, the same as in a full row
        (fvals,) = _rows(field, [center], rad_ub)
        # cells with every vertex corner in comp; measure keeps only the full ones
        cells_ok = in_comp[np.where(g.cells >= 0, g.cells, 0)].all(axis=1)
        e = g.edges
        edge_candidate = np.flatnonzero(in_comp[e[:, 0]] & in_comp[e[:, 1]] & ~removed)
        fu, fv = fvals[e[edge_candidate, 0]], fvals[e[edge_candidate, 1]]

        levels = _ladder(fvals[comp], r0, r1, _LEVEL_COUNT)
        ncut = _straddle_counts(fu, fv, levels)
        lengths = measure.ladder_lengths(field, fvals, levels, cell_mask=cells_ok)
        best = None
        for k in np.where(ncut > 0)[0]:
            if best is None or lengths[k] < lengths[best] - 1e-15:
                best = k
        if best is None:
            reasons.append(f"no level in ({r0:.4g}, {r1:.4g}) separates component "
                           f"with radius {rad_ub:.4g}")
            break
        t = float(levels[best])
        cut_edges = edge_candidate[(fu - t) * (fv - t) < 0]
        segs = measure._marching_segments(field, fvals, t, cell_mask=cells_ok)
        length = float(segs.lengths.sum())
        bound = measure.ball_volume(field, center, r1, dist=fvals) / (r1 - r0)
        removed[cut_edges] = True
        mids = 0.5 * (segs.points_a + segs.points_b)
        curves.append(CutCurve(t, center, length, bound, cut_edges, mids))
        comps = _kept_components(field, removed)

    total = float(sum(c.length for c in curves))
    return SeparatingCut(R, r0, r1, curves, removed, comps, [radius_of(c) for c in comps],
                         not reasons, iterations, reasons, total)


# ---------------------------------------------------------------------------
# cut graph -> cover sets


def _curve_ring_groups(field: MetricField, cut: SeparatingCut):
    """Connected one-ring vertex groups of the cut graph Q."""
    g = field.grid
    ring_edges = np.where(cut.removed_mask)[0]
    if len(ring_edges) == 0:
        return []
    ring_verts = np.unique(g.edges[ring_edges].ravel())
    in_ring = np.zeros(g.num_vertices, dtype=bool)
    in_ring[ring_verts] = True
    e = g.edges
    _, labels = _edge_components(g.num_vertices, e[in_ring[e[:, 0]] & in_ring[e[:, 1]]])
    groups = [ring_verts[labels[ring_verts] == c] for c in np.unique(labels[ring_verts])]
    groups.sort(key=lambda a: int(a[0]))
    return groups


def _group_radii(field: MetricField, group: np.ndarray, others: list, R: float):
    """(rad, center, thick, rad2, center2): the exact radius of a Q-set, its
    thickening by the one-tenth separation rule (capped to protect R), and
    the exact radius of that.

    Every vertex of the thickening lies within r_x = min(sep / 10,
    (R - rad) / 2) of the group, so its radius is at most rad + r_x: below
    R, and at most the group's bound ub (set_radius_upper, one round) plus
    sep / 10.  One cut-off, widened by the reversal slack, keeps both least
    column maxima exact: ub + sep / 10 when ub < R, else ub, so a group
    that may fail (rad >= R) is searched before its distance field.  The
    group's rows are searched once, and the thickening adds only its new
    vertices' rows to the group's column maxima.  A lone group is not
    thickened."""
    if not others:
        rad, center = set_radius_exact(field, group)
        return rad, center, group, rad, center
    graph = field.graph()

    def separation():
        d = distance_field(field, group, quotient=False).dist
        return d, min(float(d[o].min()) for o in others)

    ub = set_radius_upper(field, group, rounds=1)[0]
    d = None
    if ub < R:
        d, sep = separation()
    bound = _widened(ub if d is None else ub + sep / 10.0, graph)
    ecc = _column_maxima(graph, group, bound)
    rad, center = _least_column(ecc, bound)
    if rad >= R:
        return rad, center, group, rad, center
    if d is None:
        d, sep = separation()
    r_x = min(sep / 10.0, (R - rad) / 2.0)
    if r_x <= 0:
        return rad, center, group, rad, center
    thick = np.flatnonzero(d < r_x)
    new = np.setdiff1d(thick, group, assume_unique=True)
    return (rad, center, thick) + _least_column(_column_maxima(graph, new, bound, ecc), bound)


@dataclass
class WidthCertificate:
    n_width: int
    R: float
    cover: Cover
    valid: bool
    reasons: list
    multiplicity: int
    field_hash: str
    curves: list = dataclass_field(default_factory=list)
    r0: float = float("nan")
    r1: float = float("nan")


def _n_width(multiplicity: int) -> int:
    """The width index a cover of this multiplicity certifies: a surface
    cover of multiplicity m bounds width_(m-1), and width_0 is never claimed."""
    return max(multiplicity - 1, 1)


def width_upper_bound(field: MetricField, R: float, budget: int = 32) -> WidthCertificate:
    """Certificate that width_1 < R (multiplicity <= 3 cover, radii < R).

    Cuts in the band ((n-1)/n R, R) first and in (0.6 R, 0.9 R) if that
    fails; emits an invalid certificate with reasons when neither band
    produces a cover that survives the checks.  No false certificate is
    possible: validity is determined by direct radius / multiplicity / union
    re-checks.
    """
    fh = field_hash(field)
    last_reasons = []
    for (a0, a1) in [(None, None), (0.6 * R, 0.9 * R)]:
        cut = separating_cut(field, R, a0, a1, budget=budget)
        if not cut.valid:
            last_reasons = cut.reasons
            continue
        sets = list(cut.components)
        radii, centers = map(list, zip(*cut.component_radii))
        groups = _curve_ring_groups(field, cut)
        for gi, grp in enumerate(groups):
            rad, center, thick, rad2, center2 = _group_radii(
                field, grp, groups[:gi] + groups[gi + 1:], R)
            if rad >= R:
                last_reasons = [f"cut-graph component radius {rad:.4g} >= R"]
                break
            if rad2 >= R:
                thick, rad2, center2 = grp, rad, center
            sets.append(thick)
            centers.append(center2)
            radii.append(rad2)
        else:
            cover = Cover(sets, centers, radii)
            mult = cover.multiplicity(field.grid.num_vertices)
            if mult > field.grid.n + 1:
                last_reasons = [f"multiplicity {mult} exceeds n+1"]
            elif not cover.covers_everything(field.grid.num_vertices):
                last_reasons = ["cover union misses vertices"]
            else:
                return WidthCertificate(
                    n_width=_n_width(mult), R=R, cover=cover, valid=True, reasons=[],
                    multiplicity=mult, field_hash=fh, curves=cut.curves,
                    r0=cut.r0, r1=cut.r1,
                )
    return WidthCertificate(
        n_width=_n_width(0), R=R, cover=Cover([], [], []), valid=False,
        reasons=last_reasons or ["no valid attempt"], multiplicity=0, field_hash=fh,
    )


def validate_certificate(field: MetricField, cert: WidthCertificate):
    """Independent recheck: hash, union, multiplicity, the width index it
    implies, and fresh radius measurements, which must lie below R and not
    above the stored radii by more than the reversal slack."""
    reasons = []
    if field_hash(field) != cert.field_hash:
        reasons.append("field hash mismatch")
    if not cert.valid:
        reasons.append("certificate is marked invalid")
    cover = cert.cover
    V = field.grid.num_vertices
    if any(not 0 <= int(c) < V for c in cover.centers) or any(
            len(s) and not 0 <= np.min(s) <= np.max(s) < V for s in cover.sets):
        return False, reasons + [f"a center or set vertex lies outside 0..{V - 1}"]
    if not cover.covers_everything(V):
        reasons.append("cover union misses vertices")
    mult = cover.multiplicity(V) if cover.sets else 0
    if mult != cert.multiplicity:
        reasons.append(f"multiplicity mismatch: {mult} != {cert.multiplicity}")
    if mult > field.grid.n + 1:
        reasons.append("multiplicity exceeds n+1")
    if cert.n_width != _n_width(mult):
        reasons.append(f"n_width {cert.n_width} is not the {_n_width(mult)} that "
                       f"multiplicity {mult} certifies")
    graph = field.graph()
    for s, center, stored in zip(cover.sets, cover.centers, cover.radii):
        d = distance_field(field, [int(center)], quotient=False).dist
        ecc = float(d[np.asarray(s)].max(initial=0.0))
        if not ecc < cert.R:
            reasons.append(f"set radius {ecc:.6g} not below R = {cert.R:.6g}")
        if not ecc <= _widened(stored, graph):
            reasons.append(f"set radius {ecc!r} above its stored radius {stored!r}")
    return len(reasons) == 0, reasons


# ---------------------------------------------------------------------------
# theorem cross-checks


@dataclass
class WidthVolumeReport:
    vol: float
    R_star: float
    certificate: WidthCertificate
    slack_certificate: WidthCertificate
    success: bool


def check_width_volume(field: MetricField) -> WidthVolumeReport:
    """Attempt the width <= n * vol^(1/n) certificate (n = 2) plus a 5% slack run.

    Failure here means discretization shortfall, never a refutation.
    """
    vol = measure.volume(field)
    n = field.grid.n
    R_star = n * vol ** (1.0 / n)
    cert = width_upper_bound(field, R_star)
    cert_slack = width_upper_bound(field, 1.05 * R_star)
    return WidthVolumeReport(
        vol=vol, R_star=R_star, certificate=cert, slack_certificate=cert_slack,
        success=cert.valid or cert_slack.valid,
    )


@dataclass
class SysWidthReport:
    sys: float
    vol: float
    bound_4n: float
    ok_4n: bool
    cert_rows: list   # (R_cert, sys <= 6 R, sys <= 4 R) per valid certificate


def check_sys_width(field: MetricField, certificates=()) -> SysWidthReport:
    """Gross inequality checks: sys <= 4 n vol^(1/n); sys <= 6 R per certificate."""
    w = systole(field)
    vol = measure.volume(field)
    n = field.grid.n
    bound = 4.0 * n * vol ** (1.0 / n)
    rows = []
    for cert in certificates:
        if cert is not None and cert.valid:
            rows.append((cert.R, w.length <= 6.0 * cert.R, w.length <= 4.0 * cert.R))
    return SysWidthReport(
        sys=w.length, vol=vol, bound_4n=bound,
        ok_4n=bool(w.length <= bound), cert_rows=rows,
    )
