"""Per-vertex SPD metric tensors and g-lengths of edges and polylines.

A MetricField stores one symmetric positive definite n x n tensor per grid
vertex (chart units: squared length per squared chart unit).  An edge's length
is sqrt(dx^T g dx) with g the arithmetic mean of the endpoint tensors.  It is
computed as the square root of the mean of the endpoint quadratic forms, one
form per vertex and displacement class (see Grid.displacement_classes); by
linearity that is the form of the mean tensor, equal to it up to an ulp.
The same rule measures polyline segments, with tensors at non-vertex points
obtained by multilinear interpolation on the lattice; one kernel
(_quadratic_forms) forms every d^T g d, level segments' too, each as one sum
in (i, j) row-major order.  Edge lengths read the tensors as n^2 contiguous
entry rows, one class at a time (_class_forms); level segments blend n^2
contiguous per-vertex entry columns into an (n, n, S) buffer (measure), and
polylines read (M, n, n) stacks.  A field's graph fills the grid's stencil
CSR pattern with its edge lengths.  Validation checks that tensors are
finite, symmetric and positive definite (by leading principal minors) and
computes no eigenvalue: lambda_min and lambda_max make one cached eigvalsh
call, on first use.  Seeded fields are cosine mixtures, one cosine per
distinct coordinate per axis; nothing here calls einsum.

Sphere grids are the one sanctioned exception to strict positive definiteness:
the collapsed pole vertices carry the chart-degenerate round tensor (zero
longitude component), flagged by grid.chart_degenerate, and pole-incident
edges have pure meridian lattice offsets so lengths stay exact.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .grid import Grid


class FieldError(ValueError):
    """Raised for invalid metric constructions."""


class MetricField:
    """Immutable per-vertex tensor field over a Grid."""

    def __init__(self, grid: Grid, tensors: np.ndarray, validate: bool = True):
        tensors = np.asarray(tensors, dtype=float)
        if tensors.shape != (grid.num_vertices, grid.n, grid.n):
            raise FieldError(f"tensors must have shape (V, n, n), got {tensors.shape}")
        self.grid = grid
        self.tensors = tensors
        self._edge_lengths = None
        self._csr = None
        self._lambda_min = None
        self._lambda_max = None
        self._exact_translations = None  # per axis, set by geodesy's loop engine
        self._rows = {}  # source: (cut-off, read-only row of graph()), kept by geodesy._rows
        self._cell_tensors = None
        self._cell_det = None
        self._cell_sqrt_det = None
        if validate:
            _check_spd(self)
            _check_quotient_invariance(self)

    # -- cached geometry ---------------------------------------------------

    def edge_lengths(self) -> np.ndarray:
        if self._edge_lengths is None:
            disp, index = self.grid.displacement_classes()
            ends = _class_forms(disp, self.tensors).ravel()[index]
            mean = ends[:, 0] + ends[:, 1]
            del ends
            mean *= 0.5
            self._edge_lengths = np.sqrt(np.maximum(mean, 0.0, out=mean), out=mean)
        return self._edge_lengths

    def graph(self) -> sp.csr_matrix:
        """Symmetric weighted adjacency (both edge directions stored)."""
        if self._csr is None:
            s = self.grid.stencil()
            data = self.edge_lengths()[s.edge]
            V = self.grid.num_vertices
            self._csr = sp.csr_matrix((data, s.indices, s.indptr), shape=(V, V))
        return self._csr

    def lambda_min(self) -> float:
        """Smallest tensor eigenvalue over non-degenerate vertices (one eigvalsh call, cached
        with the largest)."""
        if self._lambda_min is None:
            ev = np.linalg.eigvalsh(self.tensors[~self.grid.chart_degenerate])
            self._lambda_min, self._lambda_max = float(ev.min()), float(ev.max())
        return self._lambda_min

    def lambda_max(self) -> float:
        self.lambda_min()
        return self._lambda_max

    def cell_tensors(self) -> np.ndarray:
        """Per-cell mean of the tensors at the cell's valid corners."""
        if self._cell_tensors is None:
            cells, n = self.grid.cells, self.grid.n
            valid = cells >= 0
            flat = self.tensors.reshape(-1, n * n)
            for k in range(cells.shape[1]):  # corner by corner, as a sum over corners adds
                t = np.take(flat, np.where(valid[:, k], cells[:, k], 0), axis=0)
                if not valid[:, k].all():
                    t *= valid[:, k, None]
                total = t if k == 0 else total + t
            self._cell_tensors = (total / valid.sum(axis=1)[:, None]).reshape(-1, n, n)
        return self._cell_tensors

    def cell_det(self) -> np.ndarray:
        """Per-cell determinant of cell_tensors()."""
        if self._cell_det is None:
            self._cell_det = _det(self.cell_tensors())
        return self._cell_det

    def cell_sqrt_det(self) -> np.ndarray:
        """Per-cell sqrt(det) of cell_tensors(), clamped at 0."""
        if self._cell_sqrt_det is None:
            self._cell_sqrt_det = np.sqrt(np.maximum(self.cell_det(), 0.0))
        return self._cell_sqrt_det

    def tensor_at(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation of the tensor field at chart points.

        Points may be unwrapped (outside [0,1) on periodic axes); masked lattice
        corners are dropped from the interpolation weights.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        g = self.grid
        n = g.n
        shape = g.lattice_shape
        hs = np.asarray(g.spacing)
        x = pts / hs
        base = np.floor(x).astype(np.int64)
        frac = x - base
        for k in range(n):
            if g.topology.periodic[k]:
                base[:, k] %= shape[k]
            else:
                # a point past either end of a bounded axis reads that end's row
                base[:, k] = np.clip(base[:, k], 0, shape[k] - 2)
                frac[:, k] = np.clip(x[:, k] - base[:, k], 0.0, 1.0)
        out = np.zeros((len(pts), n, n))
        wsum = np.zeros(len(pts))
        for bit in range(2 ** n):
            idx = base.copy()
            wgt = np.ones(len(pts))
            for k in range(n):
                if (bit >> k) & 1:
                    idx[:, k] += 1
                    if g.topology.periodic[k]:
                        idx[:, k] %= shape[k]
                    wgt *= frac[:, k]
                else:
                    wgt *= 1.0 - frac[:, k]
            vid = g.lattice_vid[tuple(idx.T)]
            ok = vid >= 0
            wgt = np.where(ok, wgt, 0.0)
            out += wgt[:, None, None] * self.tensors[np.where(ok, vid, 0)]
            wsum += wgt
        if np.any(wsum <= 0):
            raise FieldError("point lies outside the active mask")
        out /= wsum[:, None, None]
        return out

    def scaled(self, factor: float) -> "MetricField":
        """Field with tensors multiplied by factor (lengths scale by sqrt(factor))."""
        if factor <= 0:
            raise FieldError("scale factor must be positive")
        return MetricField(self.grid, self.tensors * factor, validate=False)


def _check_spd(field: MetricField):
    """Finite tensors; off chart-degenerate vertices also symmetric by allclose's rule (in
    both orders) and positive definite by Sylvester's criterion, every leading principal
    minor positive.  No eigenvalue is computed."""
    t = field.tensors
    if not np.isfinite(t).all():
        raise FieldError("tensors must be finite")
    if field.grid.chart_degenerate.any():
        t = t[~field.grid.chart_degenerate]
    i, j = np.triu_indices(field.grid.n, 1)
    a, b = t[:, i, j], t[:, j, i]
    if (np.abs(a - b) > 1e-12 + 1e-5 * np.minimum(np.abs(a), np.abs(b))).any():
        raise FieldError("tensors must be symmetric")
    # dividing a tensor by its t[0, 0] > 0 keeps the sign of each leading minor
    # and keeps the products in a minor of tiny entries from underflowing to 0
    # (a quotient overflows only where entries differ by a factor near 1e308)
    t00 = t[:, :1, :1]
    with np.errstate(over="ignore", invalid="ignore"):
        if not (t00 > 0).all() or not all((_det(t[:, :k, :k] / t00) > 0).all()
                                          for k in range(2, field.grid.n + 1)):
            raise FieldError("tensors must be positive definite")


def _quadratic_forms(d: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d^T t d over the last axes of broadcast stacks d (..., n) and t (..., n, n).

    The terms (d_i t_ij) d_j are added in one run, (i, j) row-major, so a form
    rounds alike in a batch of any size and in any memory layout of t; tests
    compare it with numpy's batched order.  Each t[..., i, j] is read as one
    array: a contiguous entry row from _class_forms and from level segments
    (the transpose of an (n, n, S) buffer), a strided column of an (M, n, n)
    stack from polylines.
    """
    n = d.shape[-1]
    return sum((d[..., i] * t[..., i, j]) * d[..., j] for i, j in np.ndindex(n, n))


def _class_forms(disp: np.ndarray, tensors: np.ndarray) -> np.ndarray:
    """The row-major (V, K) table of d_k^T t_v d_k over the vertex tensors t_v
    (V, n, n) and the class displacements d_k (K, n).

    The tensors are copied once to n^2 contiguous entry rows, which are freed
    before the table is transposed; each class's V forms are one
    _quadratic_forms call over those rows, so every form keeps its sum order.
    """
    V, n = tensors.shape[:2]
    rows = tensors.reshape(V, n * n).T.copy()
    t = rows.reshape(n, n, V).transpose(2, 0, 1)  # t[:, i, j] is the row of entry (i, j)
    forms = np.empty((len(disp), V))
    for k, d in enumerate(disp):
        forms[k] = _quadratic_forms(d, t)
    del rows, t
    return forms.T.copy()


def _det(t: np.ndarray) -> np.ndarray:
    """Determinants of a stack of n x n matrices, in closed form for n = 2."""
    if t.shape[-1] == 2:
        return t[:, 0, 0] * t[:, 1, 1] - t[:, 0, 1] * t[:, 1, 0]
    return np.linalg.det(t)


def _check_quotient_invariance(field: MetricField, tol: float = 1e-9):
    """rp2 fields must be invariant under the antipodal pushforward."""
    g = field.grid
    if g.topology.kind != "rp2":
        return
    anti = g.antipode_map
    flip = np.diag([1.0, -1.0])
    pushed = flip @ field.tensors @ flip
    if not np.allclose(field.tensors[anti], pushed, atol=tol):
        raise FieldError("field is not invariant under the antipodal identification")


# ---------------------------------------------------------------------------
# constructors


def flat_metric(grid: Grid) -> MetricField:
    """Constant identity tensor (the Euclidean chart metric)."""
    t = np.broadcast_to(np.eye(grid.n), (grid.num_vertices, grid.n, grid.n)).copy()
    if grid.antipode_map is not None:
        raise FieldError("flat chart metric is not defined on sphere2/rp2; "
                         "use round_sphere_metric")
    return MetricField(grid, t, validate=False)


def constant_metric(grid: Grid, G) -> MetricField:
    """Constant tensor G at every vertex (e.g. a torus Gram matrix)."""
    G = np.asarray(G, dtype=float)
    if G.shape != (grid.n, grid.n):
        raise FieldError(f"G must be {grid.n} x {grid.n}")
    if grid.antipode_map is not None:
        raise FieldError("constant chart tensors are not antipodally invariant on the sphere")
    return MetricField(grid, np.broadcast_to(G, (grid.num_vertices, grid.n, grid.n)).copy())


def conformal_metric(grid: Grid, u: np.ndarray) -> MetricField:
    """Tensor e^{2 u(v)} * identity at each vertex."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.num_vertices,):
        raise FieldError("u must be a per-vertex scalar field")
    if not np.all(np.isfinite(u)):
        raise FieldError("u must be finite")
    if grid.antipode_map is not None:
        raise FieldError("use conformal_rescale(round_sphere_metric(...), u) on the sphere")
    t = np.exp(2.0 * u)[:, None, None] * np.eye(grid.n)
    return MetricField(grid, t, validate=False)


def conformal_rescale(field: MetricField, u: np.ndarray) -> MetricField:
    """Field with tensors multiplied pointwise by e^{2u}; checks rp2 invariance."""
    u = np.asarray(u, dtype=float)
    if u.shape != (field.grid.num_vertices,):
        raise FieldError("u must be a per-vertex scalar field")
    if not np.all(np.isfinite(u)):
        raise FieldError("u must be finite")
    g = field.grid
    if g.topology.kind == "rp2" and not np.allclose(u[g.antipode_map], u, atol=1e-9):
        raise FieldError("u violates the antipodal identification")
    return MetricField(g, np.exp(2.0 * u)[:, None, None] * field.tensors, validate=False)


def round_sphere_metric(grid: Grid, radius: float = 1.0) -> MetricField:
    """Round metric of the given radius in the latitude-longitude chart.

    Chart axes are (longitude u in [0,1), latitude v in [0,1]); the tensor is
    diag((2 pi r cos(lat))^2, (pi r)^2), with lat = pi (v - 1/2).  Pole
    vertices carry the degenerate limit tensor.  The latitude of lattice row
    j (v = j / N) is computed as pi (2 j - N) / (2 N), so the antipodal rows
    j and N - j get exactly opposite latitudes and bit-equal tensors.
    """
    if grid.topology.kind not in ("sphere2", "rp2"):
        raise FieldError("round metric needs sphere2 or rp2 topology")
    if radius <= 0:
        raise FieldError("radius must be positive")
    N, rows = grid.lattice_shape
    row = np.empty(grid.num_vertices, dtype=np.int64)
    row[grid.lattice_vid] = np.arange(rows)
    lat = math.pi * ((2 * row - N) / (2 * N))
    t = np.zeros((grid.num_vertices, 2, 2))
    t[:, 0, 0] = (2.0 * math.pi * radius * np.cos(lat)) ** 2
    t[:, 1, 1] = (math.pi * radius) ** 2
    return MetricField(grid, t, validate=False)


def _cosine_mixture(grid: Grid, rng, terms: int, scale: float) -> np.ndarray:
    """0 + term_0 + term_1 + ... per vertex; each term draws frequencies f in {1, 2}
    and phases p per axis, then a normal a, and is ((scale a) c_0) c_1 ... with
    c_k = cos(2 pi f_k x_k + p_k), evaluated once per distinct x_k and gathered."""
    out = np.zeros(grid.num_vertices)
    for _ in range(terms):
        freq = rng.integers(1, 3, size=grid.n)
        phase = rng.uniform(0, 2 * math.pi, size=grid.n)
        term = scale * rng.normal()
        for k, (values, inverse) in enumerate(grid.axis_values()):
            term = term * np.cos(2 * math.pi * freq[k] * values + phase[k])[inverse]
        out += term
    return out


def random_spd_metric(grid: Grid, seed: int, eig_range=(0.5, 2.0)) -> MetricField:
    """Smooth random tensor field with per-vertex eigenvalues inside eig_range.

    A truncated trigonometric mixture (_cosine_mixture, one cosine per distinct
    coordinate per axis) drives n eigenvalue fields and a rotation angle, so the
    field is periodic on wrap topologies by construction and deterministic in
    seed.  rot diag(lam) rot^T sums (rot_ij lam_j) rot_kj over j, with no einsum.
    """
    lo, hi = float(eig_range[0]), float(eig_range[1])
    if not (0 < lo <= hi):
        raise FieldError("eig_range must satisfy 0 < lo <= hi")
    if grid.topology.kind in ("sphere2", "rp2"):
        raise FieldError("random SPD fields are not defined on the sphere chart; "
                         "use conformal_rescale of the round metric")
    rng = np.random.default_rng(seed)
    n = grid.n
    # log-uniform eigenvalue mapping keeps the relative tensor gradient bounded
    log_lo, log_hi = math.log(lo), math.log(hi)
    lams = []
    for _ in range(n):
        s = _cosine_mixture(grid, rng, 4, 0.45)
        lams.append(np.exp(log_lo + (log_hi - log_lo) * 0.5 * (1.0 + np.sin(s))))
    if n == 1:
        t = np.array(lams[0])[:, None, None]
        return MetricField(grid, t, validate=False)
    theta = _cosine_mixture(grid, rng, 4, 0.45)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.broadcast_to(np.eye(n), (grid.num_vertices, n, n)).copy()
    rot[:, 0, 0], rot[:, 0, 1] = c, -s
    rot[:, 1, 0], rot[:, 1, 1] = s, c
    t = sum((rot[:, :, j] * lams[j][:, None])[:, :, None] * rot[:, None, :, j]
            for j in range(n))
    t = 0.5 * (t + np.swapaxes(t, 1, 2))  # exactly symmetric for export round-trips
    return MetricField(grid, t, validate=False)


def piecewise_metric(grid: Grid, region, g1: MetricField, g2: MetricField) -> MetricField:
    """Tensor of g1 inside region (per-vertex bool), g2 outside."""
    if g1.grid is not grid or g2.grid is not grid:
        raise FieldError("piecewise parts must live on the same grid")
    region = np.asarray(region, dtype=bool)
    if region.shape != (grid.num_vertices,):
        raise FieldError("region must be a per-vertex predicate")
    t = np.where(region[:, None, None], g1.tensors, g2.tensors)
    return MetricField(grid, t, validate=False)


# ---------------------------------------------------------------------------
# lengths


def polyline_length(field: MetricField, points) -> float:
    """Sum of per-segment lengths sqrt(dx^T gbar dx), gbar = mean endpoint tensor.

    Points are unwrapped chart coordinates (integer parts encode seam wraps).
    Consecutive points must stay within stencil reach (2 lattice cells per
    axis).  A segment's length does not depend on the polyline around it, so
    additivity under concatenation holds up to the grouping of the final sum.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, field.grid.n)
    if len(pts) < 2:
        return 0.0
    hs = np.asarray(field.grid.spacing)
    span = np.abs(np.diff(pts, axis=0))
    if np.any(span > 2 * hs + 1e-9):
        raise FieldError("malformed polyline: segment exceeds stencil reach")
    wrapped = pts.copy()
    for k in range(field.grid.n):
        if field.grid.topology.periodic[k]:
            wrapped[:, k] = pts[:, k] % 1.0
    tens = field.tensor_at(wrapped)
    gbar = 0.5 * (tens[:-1] + tens[1:])
    d = np.diff(pts, axis=0)
    return float(np.sqrt(np.maximum(_quadratic_forms(d, gbar), 0.0)).sum())
