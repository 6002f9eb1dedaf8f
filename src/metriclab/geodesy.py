"""Distance fields, face distances, homotopy-class loops, systoles, radii.

All distances are exact shortest paths on the weighted stencil graph (edge
weights from MetricField.edge_lengths), computed with scipy's Dijkstra.
Metrication against the continuum is bounded by the stencil distortion
(about 2.75 percent for the 16-neighbor stencil).

Every minimum over sources goes through one engine: Dijkstras from 64 sources
at a time, each cut off at the running best, reduced to one value per source.
Radii minimize eccentricities.  Loops meet in the middle: a deck translation
t (or the antipodal map on sphere2/rp2) is an isometry of the lifted graph, so
d(v, t v) = min over w of d(v, w) + d(v, t^-1 w), and the minimum is met at a
w halfway along a shortest path.  One Dijkstra from v, cut off at half the
running best plus the longest edge, gives both terms.  The witness joins the
winner's chain to w with the t-image of its reversed chain to t^-1 w, and
must pass check_length before it is returned.

On torus2/cylinder the graph is a window of fundamental-domain copies: the
shortest loop through a base vertex v in deck class c equals the lifted
distance from v to its translate by c.  Any loop with a nonzero first winding
must pass through one of the two lattice columns next to the seam (stencil
moves span at most two columns), so minimizing over those base vertices is
exact; symmetrically for the second axis.  Both halves of a loop of length at
most ub stay within (ub / 2 + longest edge) / sqrt(lambda_min) chart units of
the base lines, and the window holds those copies only; ub is the graph length
of a stencil walk in the class, a true upper bound.

On rp2, noncontractible loops lift to paths from v to its antipode on the
sphere double cover.  The antipodal map sends the meridian circle (longitudes
0 and 1/2, and the poles) to itself and swaps the two hemispheres it bounds,
so every such path meets the band of lattice columns 0, 1, N/2 and N/2 + 1
(stencil moves span at most two columns), poles included.  The map sends
columns N/2 and N/2 + 1 onto columns 0 and 1, so those two, with both poles,
are the sources: 2N of them, instead of half the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .fields import MetricField, polyline_length
from .grid import GridError, stencil_offsets


class GeodesyError(ValueError):
    pass


_CHUNK = 64  # sources per Dijkstra block in every search


def _padded(bound: float) -> float:
    """A bound widened by the rounding slack that every cut-off allows."""
    return bound * (1 + 1e-12) + 1e-12


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


def _edge_index(grid, a, b) -> np.ndarray:
    """Index in grid.edges of the edge joining a[k] and b[k], in either
    orientation; where two stencil edges join one vertex pair (tiny periodic
    grids), the one listed last."""
    e = grid.edges
    V = grid.num_vertices
    keys = e.min(axis=1) * V + e.max(axis=1)
    order = np.argsort(keys, kind="stable")
    want = np.minimum(a, b) * V + np.maximum(a, b)
    i = order[np.searchsorted(keys[order], want, side="right") - 1]
    if (keys[i] != want).any():
        raise GeodesyError("vertex chain leaves the edge set")
    return i


def _unwrap_chain(grid, chain) -> np.ndarray:
    """Chart polyline of a vertex chain, unwrapped by summing edge displacements.

    A pole edge stores a pure meridian step, so a pole sits on its row at the
    longitude of its neighbour in the chain.  Where the chain passes through
    a pole, the polyline runs along the degenerate pole row, which adds no
    length, to the next neighbour's longitude, in steps of at most one
    lattice spacing.
    """
    chain = np.asarray(chain, dtype=np.int64)
    a, b = chain[:-1], chain[1:]
    i = _edge_index(grid, a, b)
    steps = grid.edge_disp[i] * np.where(grid.edges[i, 0] == a, 1.0, -1.0)[:, None]
    start = grid.coords[chain[0]].copy()
    pole = grid.chart_degenerate[chain]
    if pole[0] and len(chain) > 1:
        start[0] = grid.coords[chain[1], 0]
    pts = np.cumsum(np.vstack([start, steps]), axis=0)
    if not pole[1:].any():
        return pts
    x = grid.coords[chain, 0]
    mid = np.flatnonzero(pole[1:-1]) + 1
    turn = np.zeros(len(chain))
    turn[mid] = (x[mid + 1] - x[mid - 1] + 0.5) % 1.0 - 0.5
    pts[1:, 0] += np.cumsum(turn)[:-1]
    pts[pole, 1] = grid.coords[chain[pole], 1]
    for k in mid[::-1]:
        m = math.ceil(abs(turn[k]) / grid.spacing[0])
        row = pts[k] + np.arange(1, m + 1)[:, None] / m * [turn[k], 0.0]
        pts = np.insert(pts, k + 1, row, axis=0)
    return pts


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


def _stencil_walk_length(field, base, cls) -> float:
    """Least graph length, over base vertices v, of a walk from v to v + cls.

    The walk is N repetitions of cls split greedily into stencil offsets, so
    it is a path of the lift and its length a true upper bound on the class's
    shortest loop.  Walks that leave a bounded axis count as inf.
    """
    g = field.grid
    e = g.edges
    off = np.rint(g.edge_disp / np.asarray(g.spacing)).astype(np.int64)

    def key(v, o):  # (vertex, lattice offset) of a directed step; offsets are within +-2
        return (v * 5 + o[..., 0] + 2) * 5 + o[..., 1] + 2

    keys = np.concatenate([key(e[:, 0], off), key(e[:, 1], -off)])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    heads = np.concatenate([e[:, 1], e[:, 0]])[order]
    lengths = np.tile(field.edge_lengths(), 2)[order]
    half = stencil_offsets(g.n, g.stencil_order)
    moves = np.concatenate([half, -half])
    rest, split = np.asarray(cls, dtype=np.int64), []
    while rest.any():
        o = min(moves, key=lambda o: (((rest - o) ** 2).sum(), (o ** 2).sum(), tuple(o)))
        split.append(o)
        rest = rest - o
    v, total = base.copy(), np.zeros(len(base))
    for o in split * g.lattice_shape[0]:
        want = key(v, o)
        k = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        total = np.where(keys[k] == want, total + lengths[k], np.inf)
        v = heads[k]
    return float(total.min())


def _deck_window(field, cls, ub: float, reach: float):
    """(kx0, nx, ky0, ny): the copies of the lift that hold every vertex within
    (ub / 2 + reach) / sqrt(lambda_min) chart units of the base lines, plus
    one lattice spacing.  A path of graph length l spans at most
    l / sqrt(lambda_min) chart units, so this holds both halves of every
    loop of length <= ub met halfway (see _meet_search)."""
    g = field.grid
    r = (_padded(ub) / 2 + reach) / math.sqrt(field.lambda_min()) + max(g.spacing)
    across = 0 if cls[0] != 0 else 1
    out = []
    for k in range(2 if g.topology.kind == "torus2" else 1):
        top = g.spacing[k] * (1 if k == across else g.lattice_shape[k] - 1)
        k0 = math.floor(-r)
        out += [k0, math.floor(top + r) - k0 + 1]
    return tuple(out) if len(out) == 4 else (*out, 0, 1)


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


def _loop_search(graph, sources, value, ub, reach=None):
    """(min over i of value for sources[i], first minimizing i).

    Dijkstras run _CHUNK sources at a time, each cut off at the best value so
    far (at first at ub); value(block, rows) maps the block of sources[rows]
    to one value per row, exact when within the cut-off, as maxima are.
    Loop searches pass reach, the longest edge: their values are sums of two
    distances met halfway, exact when each half is within incumbent / 2 +
    reach, which becomes the cut-off.  Returns (inf, -1) when no value lies
    within ub.
    """
    incumbent = _padded(ub)
    best = (np.inf, -1)
    for k0 in range(0, len(sources), _CHUNK):
        rows = slice(k0, k0 + _CHUNK)
        limit = incumbent if reach is None else incumbent / 2 + reach
        # reduce the block at once, so that no two blocks are alive together
        vals = value(dijkstra(graph, directed=True, indices=sources[rows], limit=limit), rows)
        j = int(np.argmin(vals))
        if vals[j] < best[0] and vals[j] <= incumbent:
            best = (float(vals[j]), k0 + j)
            incumbent = min(incumbent, _padded(best[0]))
    return best


def _meet_search(graph, sources, pairs, ub: float, reach: float):
    """Shortest path from some sources[i] to its image under an isometry s of
    the graph, as (length, i, chains), or None when none is within ub.

    d(v, s v) = min over w of d(v, w) + d(v, s^-1 w), and the minimum is met
    at a w halfway along a shortest path, where both terms are within
    length / 2 + reach of v.  pairs lists column indices (a, b) with b the
    preimages of a; each pair is reduced on its own, so that no second
    block-sized array is alive.  chains() gives the vertex chains from
    sources[i] to w and to s^-1 w, from one more Dijkstra, cut off at the
    first cut-off of the search, which held both.
    """
    cols = np.arange(graph.shape[0])
    meet = np.zeros((len(sources), 2), dtype=np.int64)

    def value(D, rows):
        best = np.full(len(D), np.inf)
        r = np.arange(len(D))
        for a, b in pairs:
            s = D[:, a] + D[:, b]
            k = np.argmin(s, axis=1)
            m = s[r, k]
            won = m < best
            best[won] = m[won]
            meet[rows.start + r[won]] = np.stack([cols[a][k[won]], cols[b][k[won]]], axis=1)
        return best

    length, i = _loop_search(graph, sources, value, ub, reach)
    if i < 0:
        return None

    def chains():
        _, pred = dijkstra(graph, directed=True, indices=sources[i],
                           limit=_padded(ub) / 2 + reach, return_predecessors=True)
        return _chain(pred, meet[i, 0]), _chain(pred, meet[i, 1])

    return length, i, chains


def _checked(field: MetricField, witness: LoopWitness) -> LoopWitness:
    """The witness, once its polyline is seen to have its graph length."""
    if not witness.check_length(field):
        raise GeodesyError(
            f"loop witness in class {witness.cls} fails its length check: polyline "
            f"{polyline_length(field, witness.points)!r} != graph {witness.length!r}")
    return witness


def shortest_loop_in_class(field: MetricField, cls, upper: float = np.inf,
                           prunable: bool = False):
    """Shortest closed loop in a deck-transformation class (torus2/cylinder).

    Base vertices are the two lattice lines every class-cls loop crosses; the
    returned base vertex is a minimizing one among them.  `upper` prunes the
    search: with prunable=True, classes whose minimum exceeds it return None
    instead of raising (systole enumeration).  The first bound is the graph
    length of a stencil walk in the class, and the window holds every loop
    within it met halfway (_deck_window), so one search always suffices.  The
    witness passes check_length before it is returned.
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
    ub = min(_stencil_walk_length(field, base, (p, q)), upper)
    reach = float(field.edge_lengths().max())
    kx0, nx, ky0, ny = _deck_window(field, (p, q), ub, reach)
    V = g.num_vertices
    # the deck translation's preimages of copy (i, j) are copy (i - p, j - q)
    pairs = []
    for i0 in range(max(0, p), min(nx, nx + p)):
        for j0 in range(max(0, q), min(ny, ny + q)):
            a, b = i0 * ny + j0, (i0 - p) * ny + j0 - q
            pairs.append((slice(a * V, (a + 1) * V), slice(b * V, (b + 1) * V)))
    c0 = -kx0 * ny - ky0
    found = _meet_search(_lifted_graph(field, nx, ny), c0 * V + base, pairs, ub, reach)
    if found is None:
        if prunable:
            return None
        raise GeodesyError(f"no loop found in class {cls} within bound {upper}")

    length, i, chains = found
    to_w, to_pre = chains()

    def chart(chain):
        copy, vertex = np.divmod(np.asarray(chain), V)
        copy_x, copy_y = np.divmod(copy, ny)
        return g.coords[vertex] + np.stack([kx0 + copy_x, ky0 + copy_y], axis=1)

    pts = np.vstack([chart(to_w), chart(to_pre)[-2::-1] + [p, q]])
    return _checked(field, LoopWitness((p, q) if kind == "torus2" else p, int(base[i]), pts,
                                       length))


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
    """Shortest noncontractible loop (torus2, cylinder, rp2); its witness has
    passed check_length (GeodesyError otherwise)."""
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


def _antipodal_search(field: MetricField):
    """(length, band vertex, chains): the shortest path from a band vertex to
    its antipode, met halfway (_meet_search)."""
    g = field.grid
    if g.antipode_map is None:
        raise GeodesyError(f"{g.topology.kind} has no antipodal map")
    anti = g.antipode_map
    wt = field.edge_lengths()
    if not np.allclose(wt[_edge_index(g, anti[g.edges[:, 0]], anti[g.edges[:, 1]])], wt,
                       rtol=1e-9, atol=0.0):
        raise GeodesyError("the antipodal map is not an isometry of this metric")
    graph = field.graph()
    band = np.unique(g.lattice_vid[:2].ravel())
    # d(v, w) + d(v, -w) is symmetric in w and -w: the southern half holds
    # one of each; taken in two parts, no temporary is block-sized
    half = np.where(g.coords[:, 1] <= 0.5 + 1e-12)[0]
    pairs = [(h, anti[h]) for h in np.array_split(half, 2)]
    meridian = g.lattice_vid[0]  # south pole to north pole at longitude 0
    ub = float(np.asarray(graph[meridian[:-1], meridian[1:]]).sum())
    length, i, chains = _meet_search(graph, band, pairs, ub, float(wt.max()))
    return length, int(band[i]), chains


def min_antipodal_distance(field: MetricField) -> tuple[float, int]:
    """(min over v of d(v, antipode(v)), a minimizing v from the band) on sphere2/rp2.

    Distances are taken on the sphere double cover.  The antipodal map must be
    an isometry of the metric (GeodesyError otherwise).  Sources are the band
    of lattice columns 0 and 1, poles included, which every v-to-antipode
    path meets (module docstring).
    """
    return _antipodal_search(field)[:2]


def _systole_rp2(field: MetricField) -> LoopWitness:
    g = field.grid
    length, v, chains = _antipodal_search(field)
    to_w, to_anti = chains()
    chain = np.concatenate([to_w, g.antipode_map[to_anti[-2::-1]]])
    return _checked(field, LoopWitness("antipodal", v, _unwrap_chain(g, chain), length))
