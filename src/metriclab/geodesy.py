"""Distance fields, face distances, homotopy-class loops, systoles, radii.

All distances are exact shortest paths on the weighted stencil graph (edge
weights from MetricField.edge_lengths), computed with scipy's Dijkstra.
Metrication against the continuum is bounded by the stencil distortion
(about 2.75 percent for the 16-neighbor stencil).

Every minimum over sources goes through one engine: Dijkstras from 64 sources
at a time, each cut off at the running best, reduced to one value per source.
Loops minimize d(sources[i], targets[i]), then take one witness Dijkstra and
one predecessor-chain walk; radii minimize eccentricities.

On torus2/cylinder the graph is a window of fundamental-domain copies: the
shortest loop through a base vertex v in deck class c equals the lifted
distance from v to its translate by c.  Any loop with a nonzero first winding
must pass through one of the two lattice columns next to the seam (stencil
moves span at most two columns), so minimizing over those base vertices is
exact; symmetrically for the second axis.  On rp2, noncontractible loops lift
to paths from v to its antipode on the sphere double cover, searched over the
vertices of the southern half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .fields import MetricField, polyline_length
from .grid import GridError


class GeodesyError(ValueError):
    pass


_CHUNK = 64  # sources per Dijkstra block in every search


@dataclass
class DistanceField:
    """Multi-source shortest-path distances with predecessors."""

    field: MetricField
    sources: np.ndarray
    dist: np.ndarray
    parent: np.ndarray
    source_of: np.ndarray

    def path_to(self, v: int) -> np.ndarray:
        """Unwrapped chart polyline from the nearest source to v."""
        return _unwrap_chain(self.field.grid, _chain(self.parent, v))


def _chain(pred, v) -> list:
    """Vertices from the root of a predecessor array to v."""
    chain = [int(v)]
    while pred[chain[-1]] >= 0:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    return chain


def _unwrap_chain(grid, chain) -> np.ndarray:
    """Chart polyline of a vertex chain, unwrapped by summing edge displacements.

    Where two stencil edges join the same vertex pair (tiny periodic grids),
    the one listed last in grid.edges gives the step, in either orientation.
    """
    chain = np.asarray(chain, dtype=np.int64)
    e = grid.edges
    V = grid.num_vertices
    keys = e.min(axis=1) * V + e.max(axis=1)
    order = np.argsort(keys, kind="stable")
    a, b = chain[:-1], chain[1:]
    want = np.minimum(a, b) * V + np.maximum(a, b)
    i = order[np.searchsorted(keys[order], want, side="right") - 1]
    if (keys[i] != want).any():
        raise GeodesyError("vertex chain leaves the edge set")
    steps = grid.edge_disp[i] * np.where(e[i, 0] == a, 1.0, -1.0)[:, None]
    return np.cumsum(np.vstack([grid.coords[chain[0]], steps]), axis=0)


def distance_field(field: MetricField, sources, quotient: bool = True) -> DistanceField:
    """Exact multi-source distances; on rp2 (quotient=True) sources are
    augmented with their antipodes so distances live in the quotient."""
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if len(sources) == 0:
        raise GeodesyError("sources must be nonempty")
    g = field.grid
    if quotient and g.topology.kind == "rp2":
        sources = np.unique(np.concatenate([sources, g.antipode_map[sources]]))
    dist, pred, src = dijkstra(
        field.graph(), directed=True, indices=sources, min_only=True,
        return_predecessors=True,
    )
    return DistanceField(field, sources, dist, pred, src)


def distance_matrix(field: MetricField, sources, limit=np.inf) -> np.ndarray:
    """(len(sources), V) matrix of exact distances."""
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    return dijkstra(field.graph(), directed=True, indices=sources, limit=limit)


def face_distance(field: MetricField, face_a: str, face_b: str) -> float:
    """g-distance between two opposite boundary faces."""
    g = field.grid
    top = g.topology
    if top.opposite_face(face_a) != face_b:
        raise GridError(f"faces {face_a!r} and {face_b!r} are not an opposite pair")
    from .grid import face_vertices

    va = face_vertices(g, face_a)
    vb = face_vertices(g, face_b)
    d = distance_field(field, va, quotient=False)
    return float(d.dist[vb].min())


# ---------------------------------------------------------------------------
# radii


@dataclass
class RadiusResult:
    value: float
    center: int
    connected: bool
    per_component: list = dataclass_field(default_factory=list)


def radius(field: MetricField, quotient: bool = True) -> RadiusResult:
    """Exact min-max radius: one cut-off search per connected component for
    the least row max (on rp2 with quotient=True, of min(d(v, u), d(v, -u))).
    """
    g = field.grid
    graph = field.graph()
    ncomp, labels = connected_components(graph, directed=False)
    fold = g.antipode_map if quotient and g.topology.kind == "rp2" else None
    per = []
    for c in range(ncomp):
        verts = np.where(labels == c)[0]

        def ecc(D, rows):
            if fold is not None:
                np.minimum(D, D[:, fold], out=D)
            return D[:, verts].max(axis=1)

        value, k = _loop_search(graph, verts, ecc, np.inf)
        per.append((value, int(verts[k])))
    if ncomp == 1:
        return RadiusResult(per[0][0], per[0][1], True)
    worst = max(per, key=lambda vc: vc[0])
    return RadiusResult(worst[0], worst[1], False, per)


def set_radius_exact(field: MetricField, subset) -> tuple[float, int]:
    """Exact radius of a vertex subset (center anywhere in the space), from
    column maxima kept over chunks of _CHUNK sources."""
    subset = np.asarray(subset, dtype=np.int64)
    if len(subset) == 0:
        raise GeodesyError("subset must be nonempty")
    ecc = -np.inf
    for k0 in range(0, len(subset), _CHUNK):
        ecc = np.maximum(ecc, distance_matrix(field, subset[k0:k0 + _CHUNK]).max(axis=0))
    c = int(np.argmin(ecc))
    return float(ecc[c]), c


def set_radius_upper(field: MetricField, subset, rounds: int = 3,
                     within=None) -> tuple[float, int]:
    """Sound upper bound on the radius of a subset via farthest-point centers.

    Returns (ecc, center) with ecc = max over subset of d(center, .).  The
    `rounds` vertices of least max(d(a, .), d(b, .)), for a far pair (a, b),
    are tried as centers in one search.  `within` optionally restricts
    candidate centers to a vertex set (default: anywhere).
    """
    subset = np.asarray(subset, dtype=np.int64)
    d0 = distance_matrix(field, subset[:1])[0]
    far = int(subset[np.argmax(d0[subset])])
    d1 = distance_matrix(field, [far])[0]
    best = (float(d1[subset].max()), far)
    d2 = distance_matrix(field, [int(subset[np.argmax(d1[subset])])])[0]
    cand_scores = np.maximum(d1, d2)
    if within is not None:
        mask = np.full(len(cand_scores), np.inf)
        mask[np.asarray(within, dtype=np.int64)] = 0.0
        cand_scores = cand_scores + mask
    cand = np.argsort(cand_scores, kind="stable")[:rounds]
    cand = cand[np.isfinite(cand_scores[cand])]
    ecc, i = _loop_search(field.graph(), cand, lambda D, rows: D[:, subset].max(axis=1),
                          best[0])
    if ecc < best[0]:
        best = (ecc, int(cand[i]))
    return best


# ---------------------------------------------------------------------------
# loops and systoles


@dataclass
class LoopWitness:
    """A closed noncontractible loop: deck class, base vertex, polyline, length.

    points are unwrapped chart coordinates; the endpoint equals the start
    translated by the deck class (or by the antipodal map for rp2, where
    cls is the string "antipodal")."""

    cls: object
    base_vertex: int
    points: np.ndarray
    length: float

    def check_length(self, field: MetricField, tol: float = 1e-12) -> bool:
        return abs(polyline_length(field, self.points) - self.length) <= max(
            tol, 1e-12 * (1 + abs(self.length))
        )


def _loop_base_vertices(grid, cls):
    """Base vertices every class-cls loop must visit (two lattice lines)."""
    vid = grid.lattice_vid
    if cls[0] != 0:
        lines = [vid[0, ...].ravel(), vid[1, ...].ravel()]
    else:
        lines = [vid[:, 0].ravel(), vid[:, 1].ravel()]
    out = np.unique(np.concatenate(lines))
    return out[out >= 0]


def _straight_upper_bound(field, base, cls) -> float:
    g = field.grid
    h = min(g.spacing)
    cls = np.asarray(cls, dtype=float)
    m = max(2, int(np.ceil(np.abs(cls).max() / h)))
    t = np.linspace(0.0, 1.0, m + 1)
    best = np.inf
    step = max(1, len(base) // 16)
    for v in base[::step]:
        pts = g.coords[v] + t[:, None] * cls
        best = min(best, polyline_length(field, pts))
    return float(best)


def _lifted_graph(field, nx: int, ny: int) -> csr_matrix:
    """CSR over an nx-by-ny window of fundamental-domain copies.

    Copy (i, j) of the window is c = i * ny + j and holds vertex ids
    c*V .. c*V + V-1; edges that leave the window are dropped.  Copies are
    built one at a time to keep the peak memory near that of the result.
    """
    g = field.grid
    V = g.num_vertices
    e, w = g.edges, g.edge_wrap
    wt = field.edge_lengths()
    wx = w[:, 0].astype(np.int64)
    wy = w[:, 1].astype(np.int64) if g.n > 1 else np.zeros(len(e), dtype=np.int64)
    rows, cols, data = [], [], []
    for c in range(nx * ny):
        tx, ty = c // ny + wx, c % ny + wy
        ok = (tx >= 0) & (tx < nx) & (ty >= 0) & (ty < ny)
        src_ids = c * V + e[ok, 0]
        dst_ids = (tx[ok] * ny + ty[ok]) * V + e[ok, 1]
        rows += [src_ids, dst_ids]
        cols += [dst_ids, src_ids]
        data += [wt[ok], wt[ok]]
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)
    nverts = nx * ny * V
    return csr_matrix((data, (rows, cols)), shape=(nverts, nverts))


def _loop_search(graph, sources, value, ub):
    """(min over i of value for sources[i], first minimizing i).

    Dijkstras run _CHUNK sources at a time, each cut off at the best value so
    far (at first at ub); value(block, rows) maps the block of sources[rows]
    to one value per row, exact when within the cut-off, as maxima and pair
    distances are.  Returns (inf, -1) when no value lies within ub.
    """
    incumbent = ub * (1 + 1e-12) + 1e-12
    best = (np.inf, -1)
    for k0 in range(0, len(sources), _CHUNK):
        rows = slice(k0, k0 + _CHUNK)
        # reduce the block at once, so that no two blocks are alive together
        vals = value(dijkstra(graph, directed=True, indices=sources[rows], limit=incumbent),
                     rows)
        j = int(np.argmin(vals))
        if vals[j] < best[0]:
            best = (float(vals[j]), k0 + j)
            incumbent = min(incumbent, best[0] * (1 + 1e-12) + 1e-12)
    return best


def _pair_value(targets):
    """_loop_search value of d(sources[i], targets[i])."""
    return lambda D, rows: D[np.arange(len(D)), targets[rows]]


def _witness_chain(graph, source: int, target: int, length: float) -> list:
    """Vertex chain of a shortest source-target path whose length is known."""
    _, pred = dijkstra(graph, directed=True, indices=source,
                       limit=length * (1 + 1e-9) + 1e-9, return_predecessors=True)
    return _chain(pred, target)


def shortest_loop_in_class(field: MetricField, cls, upper: float = np.inf,
                           prunable: bool = False):
    """Shortest closed loop in a deck-transformation class (torus2/cylinder).

    `upper` prunes the search: with prunable=True, classes whose minimum
    exceeds it return None instead of raising (systole enumeration).  The
    internal bound pads the straight-chart-path length by the stencil factor
    and doubles on retry, since no grid path follows the straight line.
    """
    g = field.grid
    kind = g.topology.kind
    if kind == "torus2":
        p, q = int(cls[0]), int(cls[1])
        if p == 0 and q == 0:
            raise GeodesyError("trivial deck class")
    elif kind == "cylinder":
        p = int(np.atleast_1d(cls)[0])
        q = 0
        if p == 0:
            raise GeodesyError("trivial deck class")
    else:
        raise GeodesyError(f"{kind} has no free abelian deck group")

    base = _loop_base_vertices(g, (p, q))
    straight = _straight_upper_bound(field, base,
                                     (p, q) if kind == "torus2" else (p, 0.0))
    pad = 0.05 * straight + 4 * max(g.spacing) * math.sqrt(field.lambda_max())
    lam = math.sqrt(field.lambda_min())
    V = g.num_vertices
    best = (np.inf, -1)
    for attempt in range(3):
        ub = min(straight + pad * 2 ** attempt, upper)
        if not np.isfinite(ub):
            raise GeodesyError("unbounded loop search")
        # a loop of length <= ub stays within ub / (2 lam) chart units of its base
        margin = ub / (2.0 * lam) + 2 * max(g.spacing)
        kx0 = math.floor(min(0, p) - margin)
        nx = math.ceil(max(0, p) + margin) - kx0
        if kind == "torus2":
            ky0 = math.floor(min(0, q) - margin)
            ny = math.ceil(max(0, q) + margin) - ky0
        else:
            ky0, ny = 0, 1
        lifted = _lifted_graph(field, nx, ny)
        c0 = -kx0 * ny - ky0
        ct = (p - kx0) * ny + (q - ky0)
        best = _loop_search(lifted, c0 * V + base, _pair_value(ct * V + base), ub)
        if np.isfinite(best[0]) or ub >= upper:
            break
    if not np.isfinite(best[0]):
        if prunable:
            return None
        raise GeodesyError(f"no loop found in class {cls} within bound {upper}")

    length, v = best[0], int(base[best[1]])
    chain = np.array(_witness_chain(lifted, c0 * V + v, ct * V + v, length))
    copy_x, copy_y = np.divmod(chain // V, ny)
    pts = g.coords[chain % V] + np.stack([kx0 + copy_x, ky0 + copy_y], axis=1)
    return LoopWitness((p, q) if kind == "torus2" else p, v, pts, length)


def _primitive_classes(window: int):
    out = []
    for p in range(0, window + 1):
        for q in range(-window, window + 1):
            if p == 0 and q <= 0:
                continue
            if math.gcd(p, abs(q)) != 1:
                continue
            out.append((p, q))
    out.sort(key=lambda c: (c[0] ** 2 + c[1] ** 2, c))
    return out


def systole(field: MetricField) -> LoopWitness:
    """Shortest noncontractible loop (torus2, cylinder, rp2)."""
    g = field.grid
    kind = g.topology.kind
    if kind == "cylinder":
        return shortest_loop_in_class(field, 1)
    if kind == "rp2":
        return _systole_rp2(field)
    if kind != "torus2":
        raise GeodesyError(f"{kind} is simply connected or unsupported")

    lam = math.sqrt(field.lambda_min())
    best = None
    window = 2
    while True:
        classes = [c for c in _primitive_classes(window)
                   if max(abs(c[0]), abs(c[1])) <= window]
        for c in classes:
            lb = lam * math.hypot(c[0], c[1])
            if best is not None and lb >= best.length:
                continue
            w = shortest_loop_in_class(field, c,
                                       upper=np.inf if best is None else best.length,
                                       prunable=best is not None)
            if w is not None and (best is None or w.length < best.length - 1e-15):
                best = w
        nxt = window + 1
        ring = [c for c in _primitive_classes(nxt) if max(abs(c[0]), abs(c[1])) == nxt]
        if all(lam * math.hypot(c[0], c[1]) >= best.length for c in ring):
            return best
        window = nxt


def min_antipodal_distance(field: MetricField) -> tuple[float, int]:
    """(min over v of d(v, antipode(v)), first minimizing v) on sphere2/rp2.

    Distances are taken on the sphere double cover.  Sources are the vertices
    with latitude coordinate <= 1/2; the antipodal map swaps the two halves,
    so every pair {v, antipode(v)} is seen.
    """
    g = field.grid
    if g.antipode_map is None:
        raise GeodesyError(f"{g.topology.kind} has no antipodal map")
    half = np.where(g.coords[:, 1] <= 0.5 + 1e-12)[0]
    length, i = _loop_search(field.graph(), half, _pair_value(g.antipode_map[half]), np.inf)
    return length, int(half[i])


def _systole_rp2(field: MetricField) -> LoopWitness:
    g = field.grid
    length, v = min_antipodal_distance(field)
    chain = _witness_chain(field.graph(), v, int(g.antipode_map[v]), length)
    return LoopWitness("antipodal", v, _unwrap_chain(g, chain), length)
