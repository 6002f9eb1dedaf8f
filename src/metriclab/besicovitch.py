"""Face-distance maps, Jacobian and degree checks, Besicovitch certificates.

The checker builds the coordinate map f_i(x) = min(dist(face_i, x), d_i) from
clamped face distance fields, estimates the per-cell Jacobian in a
g-orthonormal frame by finite differences, verifies the mod-2 boundary degree
(winding parity for n = 2, face-restricted preimage parity for n = 3), and
certifies vol >= d_1 ... d_n with the measured slack.  Degree checks for n = 1
and n >= 4 are skipped with a flag; exact face containment stands in (the
straight-line homotopy argument needs nothing more).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import measure
from .fields import MetricField, _det
from .geodesy import distance_field, systole
from .grid import face_vertices

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


class BesicovitchError(ValueError):
    pass


@dataclass
class BesicovitchReport:
    d: tuple
    vol: float
    product: float
    slack: float
    jac_max: float
    jac_ok: bool
    row_norm_max: float
    degree_ok: bool
    degree_checked: bool
    face_containment_ok: bool
    passed: bool
    rel_tol: float
    per_cell_jac: np.ndarray = dataclass_field(repr=False)
    flatness: float = float("nan")

    def jac_histogram(self):
        """(edges, counts) of per-cell |jac| in 16 bins from 0 to max(1, jac_max)."""
        hi = max(1.0 + 1e-9, float(self.per_cell_jac.max()))
        edges = np.linspace(0.0, hi, 16 + 1)
        counts, _ = np.histogram(self.per_cell_jac, bins=edges)
        return edges, counts


def _axis_face_pairs(field: MetricField):
    top = field.grid.topology
    pairs = top.face_pairs()
    if top.kind == "hexagon" or len(pairs) != field.grid.n:
        raise BesicovitchError(
            f"{top.kind} is not cube-like: expected {field.grid.n} opposite face pairs"
        )
    return pairs


def face_distance_map(field: MetricField):
    """Coordinate functions f_i = min(dist to face_i, d_i) and the spans d_i.

    Each f_i is 1-Lipschitz on the graph, vanishes exactly on face_i, and is
    clamped to exactly d_i on the opposite face.
    """
    pairs = _axis_face_pairs(field)
    g = field.grid
    fmap = np.empty((g.num_vertices, g.n))
    d = []
    for i, (fa, fb) in enumerate(pairs):
        dist = distance_field(field, face_vertices(g, fa), quotient=False)
        d.append(float(dist[face_vertices(g, fb)].min()))
        fmap[:, i] = np.minimum(dist, d[-1])
    return fmap, tuple(d)


def check_face_containment(field: MetricField, fmap: np.ndarray, d) -> bool:
    """f maps each declared face exactly into the matching target-box face."""
    pairs = _axis_face_pairs(field)
    g = field.grid
    ok = True
    for i, (fa, fb) in enumerate(pairs):
        ok &= bool((fmap[face_vertices(g, fa), i] == 0.0).all())
        ok &= bool((fmap[face_vertices(g, fb), i] == d[i]).all())
    return ok


def jacobian_bound_check(field: MetricField, fmap: np.ndarray):
    """Per-cell |jac f| in a g-orthonormal frame plus row-norm maxima.

    Cell differentials come from corner-mean finite differences; |jac| =
    |det J_chart| / sqrt(det gbar).  The kernel works on contiguous per-cell
    rows: each f_i is gathered once per corner into one row (freed once J is
    formed), and each J_ik is a row of one (n, n, C) array.  For n = 2, det J,
    the inverse of gbar and the row norms are closed forms on rows; for every
    other n, LAPACK takes the determinants of J viewed as (C, n, n) and
    inverts gbar.  A cell whose tensor has no positive determinant raises.
    Corner means add corners in order, then divide by their count, as .mean
    did; row i's squared norm adds (J_ik ginv_kl) J_il over l for each k, then
    over k, as the einsum "cik,ckl,cil->ci" did for n = 2 (for n >= 3 it added
    all n^2 terms in one run: a few ulps apart).  So 2-D reports, sha-pinned
    at %.17g in besicovitch-*.txt, stay bit-equal.  Returns (jac_max,
    per_cell, row_norm_max).
    """
    g, n = field.grid, field.grid.n
    # every cell of a cube-like grid is full: take the arrays, not a gather
    full = slice(None) if len(g.full_cells) == len(g.cells) else g.full_cells
    corners, xy = g.cells[full], g.cell_corner_xy[full]
    values = np.take(fmap.T.copy(), corners.T, axis=1)  # values[i, b]: f_i at corner b
    J = np.empty((n, n, len(corners)))  # J[k, i] is the row of J_ik
    for k in range(n):
        hi, lo = ([values[:, b] for b in range(2 ** n) if (b >> k) & 1 == side] for side in (1, 0))
        hk = xy[:, 1 << k, k] - xy[:, 0, k]
        J[k] = (sum(hi[1:], hi[0]) / len(hi) - sum(lo[1:], lo[0]) / len(lo)) / hk
    del values, hi, lo
    gbar = field.cell_tensors()[full]
    det_g = field.cell_det()[full]
    bad = ~(det_g > 0)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise BesicovitchError(f"cell tensor {gbar[k].tolist()} has determinant {det_g[k]!r}: "
                               "the metric is not positive definite there")
    if n == 2:  # closed forms on rows, det_J in the order _det uses
        det_J = J[0, 0] * J[1, 1] - J[1, 0] * J[0, 1]
        ginv = np.empty((2, 2, len(det_g)))
        np.divide(gbar[:, 1, 1], det_g, out=ginv[0, 0])
        np.divide(-gbar[:, 0, 1], det_g, out=ginv[0, 1])
        np.divide(-gbar[:, 1, 0], det_g, out=ginv[1, 0])
        np.divide(gbar[:, 0, 0], det_g, out=ginv[1, 1])
    else:
        det_J = _det(J.transpose(2, 1, 0))
        ginv = np.linalg.inv(gbar).transpose(1, 2, 0)
    jac = np.abs(det_J) / np.sqrt(det_g)
    row_sq = sum(sum((J[k] * ginv[k, l]) * J[l] for l in range(n)) for k in range(n))
    row_norms = np.sqrt(np.maximum(row_sq, 0.0))
    hadamard = row_norms.prod(axis=0)
    if np.any(jac > hadamard + 1e-9):
        raise BesicovitchError("Hadamard bound violated; degenerate cell tensor upstream")
    return float(jac.max()), jac, float(row_norms.max())


def boundary_degree(fmap: np.ndarray, grid, d) -> int:
    """Mod-2 degree of the boundary map onto the target box boundary.

    Counts transversal preimages of a generic point in the interior of the
    first target face, restricted to the matching source face (exact face
    containment keeps other faces away).  Retries up to 8 deterministic
    perturbations of the sample point; raises if all are non-transversal.
    """
    n = grid.n
    if n == 2:
        return _degree_2d(fmap, grid, d)
    if n == 3:
        return _degree_3d(fmap, grid, d)
    raise BesicovitchError("boundary degree is implemented for n = 2 and 3")


def _degree_2d(fmap, grid, d) -> int:
    face = face_vertices(grid, grid.topology.face_pairs()[0][1])
    order = np.argsort(grid.coords[face, 1], kind="stable")
    vals = fmap[face[order], 1]
    scale = max(d[1], 1.0)
    for k in range(8):
        z2 = d[1] * ((_GOLDEN + 0.1137 * k) % 1.0)
        s = vals - z2
        if np.all(np.abs(s) > 1e-12 * scale):
            return int((np.signbit(s[:-1]) != np.signbit(s[1:])).sum() % 2)
    raise BesicovitchError("no transversal sample point found for the degree count")


def _degree_3d(fmap, grid, d) -> int:
    vid = grid.lattice_vid
    face_grid = vid[-1, :, :]
    f2 = fmap[face_grid, 1]
    f3 = fmap[face_grid, 2]
    N1, N2 = face_grid.shape
    a = (slice(0, N1 - 1), slice(0, N2 - 1))
    b = (slice(1, N1), slice(0, N2 - 1))
    c = (slice(1, N1), slice(1, N2))
    e = (slice(0, N1 - 1), slice(1, N2))
    tris = []
    for corners in ((a, b, c), (a, c, e)):
        pts = np.stack(
            [np.stack([f2[s].ravel(), f3[s].ravel()], axis=1) for s in corners], axis=1
        )
        tris.append(pts)
    tris = np.concatenate(tris)  # (T, 3, 2)
    for k in range(8):
        z = np.array(
            [d[1] * ((_GOLDEN + 0.1137 * k) % 1.0), d[2] * ((0.2931 + 0.0917 * k) % 1.0)]
        )
        sides = np.empty((len(tris), 3))
        for j in range(3):
            pq = tris[:, (j + 1) % 3] - tris[:, j]
            pz = z - tris[:, j]
            sides[:, j] = pq[:, 0] * pz[:, 1] - pq[:, 1] * pz[:, 0]
        eps = 1e-12 * max(d[1], d[2], 1.0)
        on_edge = (np.abs(sides) < eps).any(axis=1)
        contains = (sides > 0).all(axis=1) | (sides < 0).all(axis=1)
        if not on_edge.any():
            return int(contains.sum() % 2)
    raise BesicovitchError("no transversal sample point found for the degree count")


def verify_besicovitch(field: MetricField, rel_tol: float = 0.01) -> BesicovitchReport:
    """Certify vol(M, g) >= d_1 ... d_n on a cube-like domain.

    PASS iff slack >= -rel_tol * product and the boundary degree check holds
    (for n in {2, 3}; otherwise exact face containment is the certificate).
    BesicovitchError unless rel_tol is a finite number >= 0.
    """
    if not (isinstance(rel_tol, numbers.Real) and 0 <= rel_tol < math.inf):
        raise BesicovitchError(f"rel_tol must be a finite number >= 0, got {rel_tol!r}")
    fmap, d = face_distance_map(field)
    vol = measure.volume(field)
    product = float(np.prod(d))
    slack = vol - product
    jac_max, per_cell, row_max = jacobian_bound_check(field, fmap)
    containment = check_face_containment(field, fmap, d)
    degree_checked = field.grid.n in (2, 3)
    degree_ok = boundary_degree(fmap, field.grid, d) == 1 if degree_checked else containment
    jac_ok = jac_max <= 1.0 + 4.0 / field.grid.resolution
    passed = bool(slack >= -rel_tol * product and degree_ok)
    report = BesicovitchReport(
        d=d, vol=vol, product=product, slack=slack, jac_max=jac_max, jac_ok=jac_ok,
        row_norm_max=row_max, degree_ok=degree_ok, degree_checked=degree_checked,
        face_containment_ok=containment, passed=passed, rel_tol=rel_tol,
        per_cell_jac=per_cell,
    )
    report.flatness = equality_flatness(field, report)
    return report


def equality_flatness(field: MetricField, report: BesicovitchReport) -> float:
    """Mean-square tensor deviation from the flat rectangle diag(d_i^2)."""
    D = np.diag(np.asarray(report.d, dtype=float) ** 2)
    dev = field.tensors - D
    return float(np.mean(np.sum(dev * dev, axis=(1, 2))) / np.sum(D * D))


# ---------------------------------------------------------------------------
# cylinder (optimal coarea bound)


@dataclass
class CylinderReport:
    hypothesis_ok: bool
    boundary_distance: float
    sys: float
    area: float
    coarea_total: float
    min_interior_level: float
    passed: bool
    applicable: bool


def cylinder_check(field: MetricField, tol: float = 0.01) -> CylinderReport:
    """Check area >= 1 for cylinders with unit boundary separation and systole.

    Hypotheses (boundary-to-boundary distance >= 1, systole >= 1) are measured
    first; when they fail the checker reports not-applicable rather than
    failing.  The conclusion asserts every interior level of the distance to
    the bottom circle has length >= 1 - tol and the coarea total >= 1 - tol;
    interior levels leave out 2% of the level range at each end.
    BesicovitchError unless tol is a finite number >= 0.
    """
    if not (isinstance(tol, numbers.Real) and 0 <= tol < math.inf):
        raise BesicovitchError(f"tol must be a finite number >= 0, got {tol!r}")
    if field.grid.topology.kind != "cylinder":
        raise BesicovitchError("cylinder_check needs cylinder topology")
    f = distance_field(field, face_vertices(field.grid, "B"))
    bdist = float(f[face_vertices(field.grid, "B'")].min())
    s = systole(field).length
    hyp = bdist >= 1.0 - tol and s >= 1.0 - tol
    area = measure.volume(field)
    if not hyp:
        return CylinderReport(False, bdist, s, area, float("nan"), float("nan"),
                              passed=False, applicable=False)
    prof = measure.coarea_profile(field, f)
    span = f.max() - f.min()
    inner = (prof.t_grid > f.min() + 0.02 * span) & (prof.t_grid < f.max() - 0.02 * span)
    min_level = float(prof.a[inner].min())
    passed = bool(prof.total >= 1.0 - tol and min_level >= 1.0 - tol)
    return CylinderReport(True, bdist, s, area, prof.total, min_level,
                          passed=passed, applicable=True)
