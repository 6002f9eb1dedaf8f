"""Gridded parameter domains: one lattice, one vertex map.

Every domain is one regular lattice in one chart, [0,1]^n, plus the
identifications its quotient makes.  The lattice has N points per axis (N + 1
latitude rows on the sphere), spaced 1/m on a periodic axis of m points and
1/(m-1) on a bounded one.  A vertex map sends each lattice point to its
vertex, and everything else follows from that map:

* the identity on interval, square, cube3, cube4, cylinder (axis 0
  periodic) and torus2, whose periodic seams wrap through edges;
* the hexagon mask (regular or tripod), -1 outside the domain;
* the pole collapse on sphere2 and rp2, a latitude-longitude lattice whose
  pole rows each map to one vertex (south 0, north 1, the inner rows in
  lattice order).  rp2 is the sphere grid plus the antipodal involution,
  and rp2 quantities are computed on this double cover.

A Grid carries what downstream modules need:

* vertices with chart coordinates,
* stencil edges, each with the integer lattice offset that made it
  (Grid.edge_offset); its chart displacement is offset * spacing, unwrapped
  across a periodic seam,
* quadrature cells (the vertices at their 2^n lattice corners, -1 where the
  map has none, local unwrapped corner coordinates, chart volume clipped to
  the hexagon mask) and the ids of the full cells, those whose 2^n corners
  are all vertices (Grid.full_cells),
* labeled boundary face vertex sets,
* the antipodal involution for sphere2 / rp2.

Every lattice step follows one rule (_moved): an integer offset o takes
lattice index i to (i + o) mod N on a periodic axis of N points, and on a
bounded axis keeps only the points whose step stays inside.  Stencil edges,
quadrature cells (the steps by {0, 1}^n from each point whose step by
(1, ..., 1) is kept) and the stencil walks behind the systole's first bounds
all take their steps from it.

One edge joins each vertex pair.  On a periodic axis of 4 lattice points a
knight step and its reverse would join the same pair, so build_grid refuses
the order-3 stencil there, and the sphere keeps one of the parallel edges that
collapsing its pole rows makes.

The grid also owns the structure that every metric field on it shares,
built on first use and kept for the grid's lifetime:

* the CSR pattern of the 2E directed stencil entries (Grid.stencil), whose
  entry order, by (row, column), lets a field fill in its graph weights
  with one gather and no sort,
* the displacement classes of the edges (Grid.displacement_classes): edges
  with one lattice offset share one chart displacement, so a field
  evaluates one quadratic form per vertex and class, and a lifted box of
  the loop search reads its stencil moves from them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

FACE_LETTERS = "ABCD"

class GridError(ValueError):
    """Raised for invalid domain descriptors or grid parameters."""


@dataclass(frozen=True)
class DomainTopology:
    """Domain kind, periodic axes and boundary-face labels.

    The identifications follow from the kind: an edge across a periodic
    seam joins the vertices on either side and keeps its lattice offset
    (Grid.edge_offset), since the quotient representation stores no
    duplicated seam vertices, and sphere2/rp2 carry the antipodal involution
    on grid vertices (Grid.antipode_map).
    """

    kind: str
    dim: int
    periodic: tuple[bool, ...]
    boundary_faces: tuple[str, ...]
    mask_name: str = ""

    @property
    def closed(self) -> bool:
        return len(self.boundary_faces) == 0

    def opposite_face(self, face: str) -> str:
        if face not in self.boundary_faces:
            raise GridError(f"unknown face label {face!r} for {self.kind}")
        if self.kind == "hexagon":
            k = int(face[1:])
            return f"S{(k + 3) % 6}"
        return face[:-1] if face.endswith("'") else face + "'"

    def face_pairs(self) -> list[tuple[str, str]]:
        pairs = []
        for f in self.boundary_faces:
            if not f.endswith("'") and (self.kind != "hexagon" or int(f[1:]) < 3):
                pairs.append((f, self.opposite_face(f)))
        return pairs

    def descriptor(self) -> str:
        return self.kind if not self.mask_name else f"{self.kind}:{self.mask_name}"


def _axis_faces(axes: list[int]) -> tuple[str, ...]:
    out = []
    for k in axes:
        out += [FACE_LETTERS[k], FACE_LETTERS[k] + "'"]
    return tuple(out)


def interval() -> DomainTopology:
    return DomainTopology("interval", 1, (False,), _axis_faces([0]))


def square() -> DomainTopology:
    return DomainTopology("square", 2, (False, False), _axis_faces([0, 1]))


def cube(n: int) -> DomainTopology:
    if n not in (3, 4):
        raise GridError("cube(n) supports n = 3 or 4; use square/interval below that")
    return DomainTopology(f"cube{n}", n, (False,) * n, _axis_faces(list(range(n))))


def hexagon(mask: str = "regular") -> DomainTopology:
    _parse_hexagon_mask(mask)
    faces = tuple(f"S{k}" for k in range(6))
    return DomainTopology("hexagon", 2, (False, False), faces, mask_name=mask)


def cylinder() -> DomainTopology:
    return DomainTopology("cylinder", 2, (True, False), ("B", "B'"))


def torus2() -> DomainTopology:
    return DomainTopology("torus2", 2, (True, True), ())


def sphere2() -> DomainTopology:
    return DomainTopology("sphere2", 2, (True, False), ())


def rp2() -> DomainTopology:
    return DomainTopology("rp2", 2, (True, False), ())


def topology_from_name(name: str) -> DomainTopology:
    """Parse a textual domain descriptor, e.g. "square", "cube:3", "hexagon:tripod:0.46:0.024".

    GridError for any other descriptor: an unknown kind, a parameter on a
    kind that takes none, or a cube other than "cube:3" and "cube:4"."""
    kind, sep, param = name.strip().partition(":")
    if kind == "hexagon":
        return hexagon(param if sep else "regular")
    if kind == "cube" and sep:
        kind, sep = kind + param, ""
    build = {"interval": interval, "square": square, "cube3": lambda: cube(3),
             "cube4": lambda: cube(4), "cylinder": cylinder, "torus2": torus2,
             "sphere2": sphere2, "rp2": rp2}.get(kind)
    if build is None or sep:
        raise GridError(f"unknown domain descriptor {name!r}")
    return build()


# ---------------------------------------------------------------------------
# stencils


def stencil_offsets(n: int, order: int) -> np.ndarray:
    """Half set of neighbor offsets (each edge generated once), sorted.

    order 1: axis steps; order 2: adds all diagonal steps in {-1,0,1}^n;
    order 3: adds knight moves (permutations of (+-1, +-2, 0, ...)).
    """
    if order not in (1, 2, 3):
        raise GridError("stencil_order must be 1, 2, or 3")

    def in_stencil(o):
        steps = sorted(abs(c) for c in o if c)
        if order == 1:
            return steps == [1]
        return max(steps) == 1 or (order == 3 and steps == [1, 2])

    return np.array([o for o in itertools.product(range(-2, 3), repeat=n)
                     if any(o) and next(c for c in o if c) > 0 and in_stencil(o)],
                    dtype=np.int64)


# ---------------------------------------------------------------------------
# masks (hexagon)


def _parse_hexagon_mask(mask: str):
    parts = mask.split(":")
    if parts[0] == "regular" and len(parts) == 1:
        return ("regular",)
    if parts[0] == "tripod":
        if len(parts) != 3:
            raise GridError("tripod mask is 'tripod:<leg_length>:<leg_width>'")
        ell, w = float(parts[1]), float(parts[2])
        if not (0 < w < ell <= 0.5):
            raise GridError("tripod mask needs 0 < width < length <= 0.5")
        return ("tripod", ell, w)
    raise GridError(f"unknown hexagon mask {mask!r}")


_HEX_VERTS = np.array(
    [
        [0.5 + 0.5 * math.cos(math.radians(90 + 60 * k)),
         0.5 + 0.5 * math.sin(math.radians(90 + 60 * k))]
        for k in range(6)
    ]
)

_TRIPOD_ANGLES = np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3])


def _tripod_frames():
    c = np.array([0.5, 0.5])
    u = np.stack([np.cos(_TRIPOD_ANGLES), np.sin(_TRIPOD_ANGLES)], axis=1)
    nrm = np.stack([-np.sin(_TRIPOD_ANGLES), np.cos(_TRIPOD_ANGLES)], axis=1)
    return c, u, nrm


def _tripod_coords(points: np.ndarray):
    """Per-leg (along, across) coordinates, shape (npts, 3)."""
    c, u, nrm = _tripod_frames()
    rel = points - c
    s = rel @ u.T
    t = rel @ nrm.T
    return s, t


def _mask_inside(points: np.ndarray, mask_spec) -> np.ndarray:
    pts = np.atleast_2d(points)
    if mask_spec[0] == "regular":
        inside = np.ones(len(pts), dtype=bool)
        for k in range(6):
            a, b = _HEX_VERTS[k], _HEX_VERTS[(k + 1) % 6]
            cross = (b[0] - a[0]) * (pts[:, 1] - a[1]) - (b[1] - a[1]) * (pts[:, 0] - a[0])
            inside &= cross >= -1e-12
        return inside
    _, ell, w = mask_spec
    s, t = _tripod_coords(pts)
    in_leg = (s >= -w / 2 - 1e-12) & (s <= ell + 1e-12) & (np.abs(t) <= w / 2 + 1e-12)
    return in_leg.any(axis=1)


def _hexagon_polygons(mask_spec) -> list[np.ndarray]:
    """Convex polygons whose union is the masked domain (for exact cell clipping)."""
    if mask_spec[0] == "regular":
        return [_HEX_VERTS.copy()]
    _, ell, w = mask_spec
    c, u, nrm = _tripod_frames()
    polys = []
    for i in range(3):
        a = c + u[i] * (-w / 2)
        b = c + u[i] * ell
        polys.append(
            np.array(
                [a - nrm[i] * w / 2, b - nrm[i] * w / 2, b + nrm[i] * w / 2, a + nrm[i] * w / 2]
            )
        )
    return polys


def _clip_convex(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by a convex polygon (CCW)."""
    poly = subject
    m = len(clip)
    for k in range(m):
        if len(poly) == 0:
            return poly
        a, b = clip[k], clip[(k + 1) % m]
        ex, ey = b[0] - a[0], b[1] - a[1]
        side = ex * (poly[:, 1] - a[1]) - ey * (poly[:, 0] - a[0])
        keep = side >= -1e-14
        out = []
        npts = len(poly)
        for i in range(npts):
            j = (i + 1) % npts
            if keep[i]:
                out.append(poly[i])
            if keep[i] != keep[j]:
                denom = side[i] - side[j]
                alpha = side[i] / denom if denom != 0 else 0.5
                out.append(poly[i] + alpha * (poly[j] - poly[i]))
        poly = np.array(out) if out else np.empty((0, 2))
    return poly


def _poly_area(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _clipped_cell_area(cell_poly: np.ndarray, polys: list[np.ndarray]) -> float:
    """Area of cell intersected with a union of convex polygons (inclusion-exclusion)."""
    k = len(polys)
    total = 0.0
    for r in range(1, k + 1):
        for combo in itertools.combinations(range(k), r):
            piece = cell_poly
            for idx in combo:
                piece = _clip_convex(piece, polys[idx])
                if len(piece) == 0:
                    break
            area = _poly_area(piece)
            total += area if r % 2 == 1 else -area
    return total


# ---------------------------------------------------------------------------
# Grid


@dataclass(frozen=True)
class StencilCSR:
    """CSR pattern of the directed stencil entries, shared by every field's graph.

    Directed entry j = 2 e + s runs along edge e from edges[e, s] to its other
    end, so edges.ravel() lists the row of every entry.  One edge joins each
    vertex pair (module docstring), so the 2E entries are the slots of the
    pattern: slot k holds key[k] = row * V + column, ascending, and runs along
    edge[k].
    """

    indptr: np.ndarray      # (V + 1,) int32
    indices: np.ndarray     # (2E,) int32, ascending within a row
    edge: np.ndarray        # (2E,) int32
    key: np.ndarray         # (2E,) int64, ascending


class Grid:
    """Immutable discrete domain; see module docstring for the data layout."""

    def __init__(self, topology, resolution, stencil_order, coords, edges, edge_offset,
                 cells, cell_corner_xy, cell_chart_vol, face_sets, spacing, lattice_vid,
                 lattice_shape, antipode_map, chart_degenerate, quotient_volume_factor):
        self.topology = topology
        self.resolution = resolution
        self.stencil_order = stencil_order
        self.n = topology.dim
        self.coords = coords
        self.edges = edges
        self.edge_offset = edge_offset
        self.cells = cells
        self.full_cells = np.flatnonzero((cells >= 0).all(axis=1))
        self.cell_corner_xy = cell_corner_xy
        self.cell_chart_vol = cell_chart_vol
        self.face_sets = face_sets
        self.spacing = spacing
        self.lattice_vid = lattice_vid
        self.lattice_shape = lattice_shape
        self.antipode_map = antipode_map
        self.chart_degenerate = chart_degenerate
        self.quotient_volume_factor = quotient_volume_factor
        self._stencil = None        # StencilCSR, built on first use
        self._classes = None        # (class_disp, form_index)
        self._axis_values = None    # per axis, (distinct coordinates, inverse)

    @property
    def num_vertices(self) -> int:
        return len(self.coords)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def stencil(self) -> StencilCSR:
        """The CSR pattern of the directed stencil entries (see StencilCSR)."""
        if self._stencil is None:
            V = self.num_vertices
            keys = self.edges.ravel() * V + self.edges[:, ::-1].ravel()
            order = np.argsort(keys, kind="stable")  # keys are unique: any sort gives this order
            keys = keys[order]
            indptr = np.zeros(V + 1, dtype=np.int32)
            np.cumsum(np.bincount(keys // V, minlength=V), out=indptr[1:])
            self._stencil = StencilCSR(indptr, (keys % V).astype(np.int32),
                                       (order >> 1).astype(np.int32), keys)
        return self._stencil

    def displacement_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """(class_disp, form_index): the edges grouped by lattice offset.

        class_disp (K, n) holds each class's chart displacement, its offset
        times the spacing, with the classes in lexicographic order of offset.
        form_index[e, s] = edges[e, s] * K + (class of e) indexes a
        row-major (V, K) table of per-vertex, per-class values.  The classes
        are the base-5 keys of the offsets that occur, decoded back into
        offsets.  GridError for an offset outside [-2, 2], where the key
        aliases.
        """
        if self._classes is None:
            offs = self.edge_offset
            if len(offs) and (offs.min() < -2 or offs.max() > 2):
                raise GridError("edge offset is longer than a stencil step")
            key = np.zeros(len(offs), dtype=np.int16)  # n <= 4, so keys are below 5^4
            for k in range(self.n):
                key = key * 5 + (offs[:, k] + 2)
            present = np.bincount(key, minlength=5 ** self.n) > 0
            class_offset = np.stack(np.unravel_index(np.flatnonzero(present), (5,) * self.n),
                                    axis=1) - 2
            form_index = np.multiply(self.edges, len(class_offset), casting="unsafe",
                                     out=np.empty(self.edges.shape, dtype=np.int32))
            form_index += (np.cumsum(present, dtype=np.int32) - 1)[key][:, None]
            self._classes = (class_offset * np.asarray(self.spacing), form_index)
        return self._classes

    def axis_values(self) -> list:
        """Per axis k, np.unique(coords[:, k], return_inverse=True), computed once."""
        if self._axis_values is None:
            self._axis_values = [np.unique(c, return_inverse=True) for c in self.coords.T]
        return self._axis_values

    def edge_index(self, a, b) -> np.ndarray:
        """Index in edges of the edge joining a[k] and b[k], in either orientation."""
        s = self.stencil()
        want = np.asarray(a, dtype=np.int64) * self.num_vertices + b
        slot = np.minimum(np.searchsorted(s.key, want), len(s.key) - 1)
        if ((s.key[slot] != want) | (s.indices[slot] != b)).any():  # b outside [0, V) aliases
            raise GridError("vertex pair is not an edge")
        return s.edge[slot]

    def vertex_at(self, lattice_index: tuple[int, ...]) -> int:
        v = int(self.lattice_vid[tuple(lattice_index)])
        if v < 0:
            raise GridError(f"lattice index {lattice_index} is masked out")
        return v


def build_grid(topology: DomainTopology, resolution: int, stencil_order: int = 3) -> Grid:
    """Build the discrete grid for a domain: one lattice, one vertex map.

    The chart lattice is built once, and the vertex map (the identity, the
    hexagon mask or the pole collapse; see the module docstring) sends its
    points to vertices.  Edges, cells, faces and the antipode follow from it.

    resolution N is at least 4.  The order-3 stencil needs at least 5 on a
    periodic axis (torus2, cylinder, sphere2, rp2), so that one edge joins
    each vertex pair.  sphere2/rp2 require an even resolution so that the
    antipodal involution is exact on grid vertices.
    """
    N = resolution
    if topology_from_name(topology.descriptor()) != topology:
        raise GridError(f"unsupported topology {topology!r}")
    if N < 4:
        raise GridError("resolution must be at least 4")
    if stencil_order not in (1, 2, 3):
        raise GridError("stencil_order must be 1, 2, or 3")
    if stencil_order == 3 and N < 5 and any(topology.periodic):
        raise GridError("stencil_order 3 needs resolution at least 5 on a periodic axis")
    sphere = topology.kind in ("sphere2", "rp2")
    if sphere and N % 2:
        raise GridError("sphere2/rp2 need an even resolution for the antipodal map")
    periodic = topology.periodic
    shape = (N, N + 1) if sphere else (N,) * topology.dim
    spacing = tuple(1.0 / (m - (not p)) for m, p in zip(shape, periodic))
    coords_all = _lattice_coords(shape, spacing)

    mask_spec = None
    if topology.kind == "hexagon":
        mask_spec = _parse_hexagon_mask(topology.mask_name)
        active = _mask_inside(coords_all, mask_spec)
        if not active.any():
            raise GridError("hexagon mask selects no vertices at this resolution")
        vid = np.where(active, np.cumsum(active) - 1, -1)
    elif sphere:
        row = np.arange(len(coords_all)) % (N + 1)
        inner = (row > 0) & (row < N)
        vid = np.where(inner, np.cumsum(inner) + 1, (row == N).astype(np.int64))
    else:
        vid = np.arange(len(coords_all))
    V = int(vid.max()) + 1
    coords = np.empty((V, topology.dim))
    coords[vid[vid >= 0]] = coords_all[vid >= 0]

    offsets = stencil_offsets(topology.dim, stencil_order)
    pairs, offset = _lattice_edges(shape, periodic, spacing, offsets, vid, coords_all, mask_spec)

    corners, corner_xy, cell_vol = _lattice_cells(shape, periodic, spacing, coords_all)
    cells = vid[corners]
    keep = (cells >= 0).any(axis=1)
    cells, corner_xy, cell_vol = cells[keep], corner_xy[keep], cell_vol[keep]
    if mask_spec is not None:
        polys = _hexagon_polygons(mask_spec)
        cell_vol = np.array([_clipped_cell_area(xy[[0, 1, 3, 2]], polys)  # bit order -> CCW
                             for xy in corner_xy])
        keep = cell_vol > 1e-15
        cells, corner_xy, cell_vol = cells[keep], corner_xy[keep], cell_vol[keep]

    vid = vid.reshape(shape)
    anti, degenerate = None, np.zeros(V, dtype=bool)
    if sphere:
        pairs, offset = _collapse_poles(pairs, offset, coords)
        anti = np.empty(V, dtype=np.int64)
        anti[vid] = np.roll(vid, -(N // 2), axis=0)[:, ::-1]
        degenerate = np.arange(V) < 2

    return Grid(
        topology, N, stencil_order, coords, pairs, offset, cells, corner_xy, cell_vol,
        _faces(topology, coords, mask_spec, vid), spacing, vid, shape, anti, degenerate,
        0.5 if topology.kind == "rp2" else 1.0,
    )


def _lattice_coords(shape, spacing):
    grids = np.meshgrid(*[np.arange(nk) * hk for nk, hk in zip(shape, spacing)], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _moved(shape, periodic, box, o):
    """The lattice-step rule (module docstring) for an integer offset o and
    the lattice points of a box, given as one index array per axis (its
    points are their product, in row-major order).  Returns (kept, target):
    kept masks the points whose step stays inside every bounded axis, and
    target holds the flat lattice id of each point's step, taken mod N on
    every axis.  Each axis is stepped once, and the flat ids are built by
    strides.  o may hold M offsets per axis instead (o[k] of shape (M,)):
    then kept and target are (M, points), one row per offset."""
    kept, target = np.ones(1, dtype=bool), np.zeros(1, dtype=np.int64)
    for i, N, p, ok in zip(box, shape, periodic, o):
        t = np.add.outer(ok, i)
        lead = t.shape[:-1] + (-1,)
        kept = (kept[..., :, None] & (p | ((t >= 0) & (t < N)))[..., None, :]).reshape(lead)
        target = (target[..., :, None] * N + (t % N)[..., None, :]).reshape(lead)
    return kept, target


def _lattice_edges(shape, periodic, spacing, offsets, vid, coords_all, mask_spec):
    """Stencil edges between mapped lattice points, as (vertex pairs, int8
    lattice offsets).  Under a mask, an edge also keeps its quarter points
    inside it."""
    box = [np.arange(N) for N in shape]
    active = vid >= 0
    pairs, offs = [], []
    for o in offsets:
        kept, d = _moved(shape, periodic, box, o)
        keep = kept & active & active[d]
        if mask_spec is not None:
            cand = np.flatnonzero(keep)
            ok = np.ones(len(cand), dtype=bool)
            for frac in (0.25, 0.5, 0.75):
                ok &= _mask_inside(coords_all[cand] + frac * (o * np.asarray(spacing)), mask_spec)
            keep[cand[~ok]] = False
        s = np.flatnonzero(keep)
        pairs.append(vid[np.stack([s, d[s]], axis=1)])
        offs.append(np.broadcast_to(o.astype(np.int8), (len(s), len(shape))))
    return np.concatenate(pairs), np.concatenate(offs)


def _lattice_cells(shape, periodic, spacing, coords_all):
    """Cell corner lattice ids (bit order over axes), local unwrapped corner
    coords and chart volumes.  A cell's base corner is a lattice point whose
    step by (1, ..., 1) is kept; corner bit b is its step by the bits of b."""
    n = len(shape)
    box = [np.arange(N) for N in shape]
    base = np.flatnonzero(_moved(shape, periodic, box, np.ones(n, dtype=np.int64))[0])
    base_xy, corners, corner_xy = coords_all[base], [], []
    for bit in range(2 ** n):
        offs = np.array([(bit >> k) & 1 for k in range(n)])
        corners.append(_moved(shape, periodic, box, offs)[1][base])
        corner_xy.append(base_xy + offs * np.asarray(spacing))
    vol = float(np.prod(spacing))
    return np.stack(corners, axis=1), np.stack(corner_xy, axis=1), np.full(len(base), vol)


def _collapse_poles(pairs, offset, coords):
    """The sphere's one step of its own: each pole row is one vertex at
    longitude 0, so drop the edges within a pole row, zero the longitude
    step of the edges at a pole, and of the parallel edges the collapse
    makes keep, per vertex pair (low id first), the least |offset_y|: the
    shortest meridian step."""
    coords[:2] = ((0.0, 0.0), (0.0, 1.0))
    keep = pairs[:, 0] != pairs[:, 1]
    p, offset = pairs[keep], offset[keep]
    offset[(p[:, 0] < 2) | (p[:, 1] < 2), 0] = 0
    swap = p[:, 0] > p[:, 1]
    p[swap] = p[swap][:, ::-1]
    offset[swap] *= -1
    order = np.lexsort((np.abs(offset[:, 1]), p[:, 1], p[:, 0]))
    p, offset = p[order], offset[order]
    _, first = np.unique(p, axis=0, return_index=True)
    return p[first], offset[first]


def _faces(topology, coords, mask_spec, vid):
    """Boundary face vertex sets; {} on a closed domain."""
    if topology.kind == "hexagon":
        boundary = _hexagon_boundary_vertices(vid)
        labels = _hexagon_face_labels(coords[boundary], mask_spec)
        return {f"S{k}": boundary[labels == k] for k in range(6)}
    face_sets = {}
    for face in topology.boundary_faces:
        axis = FACE_LETTERS.index(face[0])
        target = 1.0 if face.endswith("'") else 0.0
        face_sets[face] = np.where(np.abs(coords[:, axis] - target) < 1e-12)[0]
    return face_sets


def _hexagon_boundary_vertices(vid):
    """Active vertices with an inactive or missing axis neighbour."""
    active = np.pad(vid >= 0, 1)
    inner = active[1:-1, 1:-1]
    on_edge = inner & ~(active[:-2, 1:-1] & active[2:, 1:-1]
                        & active[1:-1, :-2] & active[1:-1, 2:])
    return vid[on_edge]


def _hexagon_face_labels(pts, mask_spec):
    if mask_spec[0] == "regular":
        dists = np.empty((len(pts), 6))
        for k in range(6):
            a, b = _HEX_VERTS[k], _HEX_VERTS[(k + 1) % 6]
            ab = b - a
            tpar = np.clip(((pts - a) @ ab) / (ab @ ab), 0.0, 1.0)
            proj = a + tpar[:, None] * ab
            dists[:, k] = np.linalg.norm(pts - proj, axis=1)
        return np.argmin(dists, axis=1)
    _, ell, w = mask_spec
    s, t = _tripod_coords(pts)
    in_leg = (s >= -w / 2 - 1e-12) & (np.abs(t) <= w / 2 + 1e-12)
    s_masked = np.where(in_leg, s, -np.inf)
    leg = np.argmax(s_masked, axis=1)
    s_leg = s_masked[np.arange(len(pts)), leg]
    t_leg = t[np.arange(len(pts)), leg]
    labels = np.empty(len(pts), dtype=np.int64)
    cap = s_leg >= ell - w
    labels[cap] = 2 * leg[cap]
    side_pos = ~cap & (t_leg > 0)
    labels[side_pos] = (2 * leg[side_pos] + 1) % 6
    side_neg = ~cap & (t_leg <= 0)
    labels[side_neg] = (2 * leg[side_neg] - 1) % 6
    return labels


# ---------------------------------------------------------------------------
# operations


def face_vertices(grid: Grid, face: str) -> np.ndarray:
    """Vertex set of a declared boundary face."""
    if grid.topology.closed:
        raise GridError(f"{grid.topology.kind} is closed: no boundary faces")
    if face not in grid.face_sets:
        raise GridError(f"unknown face label {face!r}")
    verts = grid.face_sets[face]
    if len(verts) == 0:
        raise GridError(f"face {face!r} has no vertices at this resolution")
    return verts


def _deck_class(kind: str, cls) -> tuple[int, int]:
    """A deck class as the integer pair (p, q): on torus2 from two integers, on
    the cylinder from one integer p, bare or in a 1-element sequence (q = 0).
    GridError for anything else, and on any other kind."""
    if kind not in ("torus2", "cylinder"):
        raise GridError(f"{kind} has no free abelian deck group")
    size = 2 if kind == "torus2" else 1
    entries = cls.tolist() if isinstance(cls, np.ndarray) else cls
    if size == 1 and isinstance(entries, (int, np.integer)):
        entries = (entries,)
    if (not isinstance(entries, (tuple, list)) or len(entries) != size
            or not all(isinstance(c, (int, np.integer)) for c in entries)):
        raise GridError(f"a {kind} deck class is {('one integer', 'two integers')[size - 1]}, "
                        f"not {cls!r}")
    return int(entries[0]), int(entries[1]) if size == 2 else 0


def deck_translate(grid: Grid, v: int, cls) -> np.ndarray:
    """Chart coordinate of v translated by cls fundamental-domain periods."""
    return grid.coords[v] + np.array(_deck_class(grid.topology.kind, cls), dtype=float)


def antipode(grid: Grid, v: int) -> int:
    if grid.antipode_map is None:
        raise GridError(f"{grid.topology.kind} has no antipodal structure")
    return int(grid.antipode_map[v])
