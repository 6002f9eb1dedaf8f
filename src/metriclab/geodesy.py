"""Distance fields, face distances, homotopy-class loops, systoles, radii.

All distances are exact shortest paths on the weighted stencil graph (edge
weights from MetricField.edge_lengths), from one kernel, _shortest_paths, the
package's only call of scipy's Dijkstra.  It raises GeodesyError, before any
allocation, for empty sources, sources outside 0..V-1 and blocks estimated
above _BLOCK_BYTES (1 GiB).  A distance field is the plain (V,) array of
distances to the nearest source; only a loop witness (_halves) asks for
predecessors, to walk its two chains.  Metrication against the continuum is
bounded by the stencil distortion (about 2.75 percent for the 16-neighbor
stencil).

A plain block (no predecessors, not min_only) of at least _SPLIT (2^19)
rows x vertices is split across k = min(cores, rows // _PIECE) processes
when k >= 2, cores being the process's CPU affinity (_split_block): the
caller forks k - 1 children, and each process fills its interleaved share of
the rows of one anonymous shared mapping.  Each row of a block is its own
search from its source over the same graph and cut-off, so a Dijkstra call
on a few of the rows returns those rows bit for bit as the call on the whole
block does: a split changes no distance, loop, witness or golden.  Processes,
not threads: scipy's Dijkstra holds the GIL.  Small blocks, distance fields
and witness searches never split, since a fork costs about a millisecond.

Every minimum over sources goes through one engine: Dijkstras from 64 sources
at a time, each cut off at the running best, reduced to one value per source.

Radii search from proven bounds.  A computed distance is a sum of at most
V - 1 edge lengths, so it lies within (V - 1) 2^-53 (relative) of its path's
length; the reversed distance, or the true one, lies within 4 V 2^-52 of it
(the reversal slack).  A cut-off at a bound widened by that slack keeps every
value within the bound exact.  Eccentricities obey the bounds of Takes &
Kosters (Algorithms, 2013): after the row of u, every v has
ecc(v) >= max(d(u, v), ecc(u) - d(u, v)).  radius() lowers each such bound by
twice the slack of ecc(u), to cover the reversal and the subtraction (on rp2
with quotient=True also by the antipode's distortion of edge lengths), takes
sources in order of least bound, and never searches one whose bound is above
the least eccentricity so far; ties are never pruned, so the center is the
first minimizing vertex, as in a search over every vertex.  A set radius
cuts its members' searches off at the eccentricity of one center, which
bounds the least one.  set_radius_upper and the cut centers of width read
their single-source rows through the field's row store (_rows): at most
_STORED_ROWS read-only rows, each with the cut-off it was searched at, the
least recently used dropped first.  A stored row serves any cut-off at or
below its own as np.where(row <= limit, row, inf), bit for bit what scipy
returns at that cut-off: each value within it has its last edge leave a
vertex that is no farther, so it is the same fixed point (below).

Loops meet in the middle: a deck translation
t (or the antipodal map on sphere2/rp2) is an isometry of the lifted graph, so
d(v, t v) = min over w of d(v, w) + d(v, t^-1 w), and the minimum is met at a
w halfway along a shortest path.  One Dijkstra from v, cut off at half the
running best plus the longest edge, gives both terms, and serves several
isometries at once: each keeps its own least value, first minimizing source
and meet pair (w, t^-1 w), and the cut-off is the least value over all of
them (_meet_search).  One engine turns the leading loop into its witness,
_deck_loop for deck translations and _antipodal_loop for the antipodal map
(on sphere2 as on rp2): one more Dijkstra from its source joins the chain to
w with the t-image of the reversed chain to t^-1 w, and the witness must
pass check_length before it is returned.

On torus2/cylinder the graph is a box of lattice points of the lift: the
shortest loop through a base vertex v in deck class c equals the lifted
distance from v to its translate by c.  Any loop with a nonzero first winding
must pass through one of the two lattice columns next to the seam (stencil
moves span at most two columns), so minimizing over those base vertices is
exact; symmetrically for the second axis.  An edge of displacement class j
is at least m_j long (the least in its class), so a path moves at most
length / b_k chart units along axis k, with b_k the least m_j / |delta_jk|
over classes that move along k (b_k >= sqrt(lambda_min)).  Every vertex that
a Dijkstra from a searched base vertex settles within its cut-off, at most
ub / 2 + longest edge, therefore lies within cut-off / b_k of that vertex
along axis k, and the box holds those points around every searched base
vertex, plus one lattice spacing (_deck_box): the ball of the cut-off radius
around each searched source lies in it whole, and so both halves of every
loop of length at most ub through it.  Balls around the base vertices that
are not searched (below) are never needed.  ub is the graph length of a
stencil walk in the class, a true upper bound.  The box depends on the
classes only through ub and the searched base vertices, which are those of
the same base lines for every class with a nonzero first winding, so the
systole searches all of them in one box.  It holds one box at a time: each
search's leading class gets its witness before the next box is built.

On rp2, noncontractible loops lift to paths from v to its antipode on the
sphere double cover.  The antipodal map sends the meridian circle (longitudes
0 and 1/2, and the poles) to itself and swaps the two hemispheres it bounds,
so every such path meets the band of lattice columns 0, 1, N/2 and N/2 + 1
(stencil moves span at most two columns), poles included.  The map sends
columns N/2 and N/2 + 1 onto columns 0 and 1, so those two, with both poles,
are the sources: 2N of them, instead of half the sphere.

One source per symmetry orbit.  On torus2, cylinder, sphere2 and rp2 a unit
lattice translation T along a periodic axis (on sphere2/rp2 a longitude
rotation, the poles fixed) maps the edge set onto itself, each edge to an
edge of the same offset class up to sign, and commutes with the deck group
and with the antipode.  An edge length is a fixed IEEE function of its two
end tensors and its class, unchanged when the ends swap or the offset is
negated; so a T that keeps every tensor bit for bit (O(V) comparisons per
axis) keeps every edge length bit for bit and is an automorphism of the
graph.  A T that keeps every length but not every tensor is missed, which
costs extra sources, never a wrong result.  scipy's computed distances within
a cut-off are the unique fixed point of d(x) = min over d(u) < d(x) of
fl(d(u) + w(u, x)), which depends neither on heap order nor on the box,
once the box holds the ball of the cut-off radius around the source; so the
row of T v, in any box that holds its ball, is the row of v moved by T, bit
for bit, and d(v, t v) = d(T v, t T v) exactly.  Every base vertex of an
orbit ties, the least minimizing index of the search over every source is
the first of its orbit, and only the first of each orbit is searched, in a
box sized around the searched ones alone.  A loop counts only balanced meet
pairs (_meet_search), so no value or meet pair that can win depends on the
order or the blocks of the search: length, base vertex and witness are
those of the search over every source.  On a flat or
hexagonal torus that is one source per class instead of 2N; on round
sphere2/rp2 N + 1 instead of 2N; a field with no exact translation keeps
every source.
"""

from __future__ import annotations

import itertools
import math
import mmap
import numbers
import os
import signal
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .fields import MetricField, polyline_length
from .grid import GridError, _deck_class, _moved, face_vertices, stencil_offsets


class GeodesyError(ValueError):
    pass


_CHUNK = 64  # sources per Dijkstra block in every search
_SLAB = 1024  # box points per slab of a lifted box's CSR fill (_lifted_graph)
_STORED_ROWS = 16  # single-source rows a field's row store keeps (_rows)
_BLOCK_BYTES = 2 ** 30  # ceiling on the estimated bytes of one Dijkstra block
_SPLIT = 2 ** 19  # rows x vertices from which a plain Dijkstra block is split across cores
_PIECE = 8  # rows per Dijkstra call in a split block


def _padded(bound: float) -> float:
    """A bound widened by the rounding slack that every cut-off allows."""
    return bound * (1 + 1e-12) + 1e-12


def _sources(sources, V: int) -> np.ndarray:
    """sources as an int64 array of vertices, nonempty and within 0..V-1."""
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if len(sources) == 0 or sources.min() < 0 or sources.max() >= V:
        raise GeodesyError(f"sources must be a nonempty set of vertices 0..{V - 1}")
    return sources


def _cores() -> int:
    """The cores this process may run on (its affinity); 1 where os.fork or
    os.sched_getaffinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _shortest_paths(graph, sources, limit=np.inf, predecessors=False, min_only=False):
    """scipy's Dijkstra from the checked sources, cut off at limit, with predecessors when
    asked (min_only: one row, from the nearest source).  A plain block of at least
    _SPLIT rows x vertices is split across k = min(cores, rows // _PIECE) >= 2
    processes (_split_block).  GeodesyError when the block, estimated at rows x V x 8
    bytes (x 1.5 with predecessors; a split block adds one _PIECE-row piece per
    process), exceeds _BLOCK_BYTES."""
    V = graph.shape[0]
    sources = _sources(sources, V)
    rows = 1 if min_only else len(sources)
    k = 1 if min_only or predecessors or rows * V < _SPLIT else min(_cores(), rows // _PIECE)
    nbytes = int(rows * V * 8 * (1.5 if predecessors else 1))
    if k > 1:
        nbytes += k * _PIECE * V * 8  # one piece per process, beside the shared block
    if nbytes > _BLOCK_BYTES:
        raise GeodesyError(f"a Dijkstra block from {len(sources)} sources over {V} vertices "
                           f"needs about {nbytes} bytes, above the ceiling of {_BLOCK_BYTES}")
    if k > 1:
        return _split_block(graph, sources, limit, k)
    return dijkstra(graph, directed=True, indices=sources, limit=limit,
                    return_predecessors=predecessors, min_only=min_only)


def _split_block(graph, sources, limit, k: int) -> np.ndarray:
    """The (rows, V) block of _shortest_paths, filled by k processes in one
    anonymous shared mapping: process j (the caller is 0, the others forked
    children) fills rows j, j + k, ... in pieces of at most _PIECE rows, each
    one plain Dijkstra call, so every row is bit for bit that of one call over
    the whole block (module docstring).  A fork that fails leaves its share to
    the caller.  Every child is reaped before this returns or raises, and
    killed first when the caller's own share raises (an interrupt included).
    GeodesyError when a child does not exit 0."""
    rows, V = len(sources), graph.shape[0]
    block = np.frombuffer(mmap.mmap(-1, rows * V * 8), dtype=np.float64).reshape(rows, V)

    def fill(j):
        mine = np.arange(j, rows, k)
        for p in range(0, len(mine), _PIECE):
            piece = mine[p:p + _PIECE]
            block[piece] = dijkstra(graph, directed=True, indices=sources[piece], limit=limit)

    children = []
    try:
        for j in range(1, k):
            try:
                pid = os.fork()
            except OSError:
                fill(j)
                continue
            if pid == 0:  # the child: it leaves only through os._exit
                code = 1
                try:
                    fill(j)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        fill(0)
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    if any(codes):
        raise GeodesyError(f"a Dijkstra worker process failed: exit codes {codes}")
    return block


def _rows(field: MetricField, sources, limit=np.inf) -> list:
    """The rows of field.graph() from each checked source, cut off at limit,
    read through the field's row store (module docstring).  A source whose
    stored row was searched at a lower cut-off, or that is not stored, is
    searched again, with the others missing, in one block at limit (whole
    rows through distance_matrix); its row replaces the stored one, and the
    least recently used rows beyond _STORED_ROWS are dropped.  Stored rows
    are read-only, and so is a row served at its own cut-off."""
    graph = field.graph()
    sources = _sources(sources, graph.shape[0]).tolist()
    store, found = field._rows, {}
    for s in dict.fromkeys(sources):
        if s in store and store[s][0] >= limit:
            found[s] = store[s] = store.pop(s)  # now the most recently used
    missing = [s for s in dict.fromkeys(sources) if s not in found]
    if missing:
        block = (distance_matrix(field, missing) if limit == np.inf
                 else _shortest_paths(graph, missing, limit))
        for s, row in zip(missing, block):
            row = row.copy()
            row.flags.writeable = False
            store.pop(s, None)
            found[s] = store[s] = (limit, row)
        for s in list(store)[:-_STORED_ROWS]:
            del store[s]
    return [row if cut == limit else np.where(row <= limit, row, np.inf)
            for cut, row in map(found.get, sources)]


def _chain(pred, v) -> list:
    """Vertices from the root of a predecessor array to v."""
    chain = [int(v)]
    while pred[chain[-1]] >= 0:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    return chain


def _unwrap_chain(grid, chain) -> np.ndarray:
    """Chart polyline of a vertex chain, unwrapped by summing edge displacements
    (lattice offset times spacing).

    A pole edge has a pure meridian offset, so a pole sits on its row at the
    longitude of its neighbour in the chain.  Where the chain passes through
    a pole, the polyline runs along the degenerate pole row, which adds no
    length, to the next neighbour's longitude, in steps of at most one
    lattice spacing.
    """
    chain = np.asarray(chain, dtype=np.int64)
    a, b = chain[:-1], chain[1:]
    i = grid.edge_index(a, b)
    steps = grid.edge_offset[i] * np.where(grid.edges[i, 0] == a, 1, -1)[:, None] * grid.spacing
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


def distance_field(field: MetricField, sources, quotient: bool = True) -> np.ndarray:
    """(V,) exact distances to the nearest source; on rp2 (quotient=True)
    sources are augmented with their antipodes so distances live in the
    quotient."""
    g = field.grid
    sources = _sources(sources, g.num_vertices)
    if quotient and g.topology.kind == "rp2":
        sources = np.unique(np.concatenate([sources, g.antipode_map[sources]]))
    return _shortest_paths(field.graph(), sources, min_only=True)


def distance_matrix(field: MetricField, sources) -> np.ndarray:
    """(len(sources), V) exact distances in one block (GeodesyError above its ceiling)."""
    return _shortest_paths(field.graph(), sources)


def face_distance(field: MetricField, face_a: str, face_b: str) -> float:
    """g-distance between two opposite boundary faces."""
    g = field.grid
    top = g.topology
    if top.opposite_face(face_a) != face_b:
        raise GridError(f"faces {face_a!r} and {face_b!r} are not an opposite pair")
    va = face_vertices(g, face_a)
    vb = face_vertices(g, face_b)
    return float(distance_field(field, va, quotient=False)[vb].min())


# ---------------------------------------------------------------------------
# radii


@dataclass
class RadiusResult:
    value: float
    center: int
    connected: bool
    per_component: list = dataclass_field(default_factory=list)


def _reversal_slack(graph) -> float:
    """Relative slack between a computed distance and the true one, or the one
    computed in reverse: each is a sum of at most V - 1 edge lengths, rounded
    within (V - 1) 2^-53 of the path's length, so 4 V 2^-52 covers both."""
    return 4 * graph.shape[0] * 2.0 ** -52


def _widened(bound: float, graph) -> float:
    """A bound on distances computed one way, valid for those computed in
    reverse."""
    return _padded(bound * (1 + _reversal_slack(graph)))


def _distortion(graph, perm) -> float:
    """Least eta with w(perm a, perm b) <= (1 + eta) w(a, b) on every edge
    (a, b) of a vertex map: 0 when perm is an exact automorphism (every edge's
    image an edge of bit-equal length), inf when it does not map edges to
    edges."""
    image = graph[perm][:, perm]
    image.sort_indices()
    if not (graph.has_sorted_indices and np.array_equal(image.indptr, graph.indptr)
            and np.array_equal(image.indices, graph.indices)):
        return np.inf
    moved = image.data != graph.data
    with np.errstate(divide="ignore"):
        return float(np.max(np.abs(image.data - graph.data)[moved] / graph.data[moved],
                            initial=0.0))


def radius(field: MetricField, quotient: bool = True) -> RadiusResult:
    """Exact min-max radius: one pruned cut-off search per connected component
    for the least row max (on rp2 with quotient=True, of min(d(v, u), d(v, -u))).

    Each searched row u bounds every v of its component from below by
    max(d(u, v), ecc(u) - d(u, v)) (Takes & Kosters), less the rounding slack
    (module docstring); sources go in order of least bound, and one whose
    bound is above the least eccentricity so far is never searched.  The
    value and the center (the first minimizing vertex) are those of the
    search over every vertex.
    """
    g = field.grid
    graph = field.graph()
    ncomp, labels = connected_components(graph, directed=False)
    fold = g.antipode_map if quotient and g.topology.kind == "rp2" else None
    slack = _reversal_slack(graph) + (0.0 if fold is None else 2 * _distortion(graph, fold))
    per = []
    for c in range(ncomp):
        verts = np.where(labels == c)[0]
        cols = slice(None) if ncomp == 1 else verts

        def ecc(D, rows):
            if fold is not None:
                np.minimum(D, D[:, fold], out=D)
            return D[:, cols].max(axis=1)

        def bounds(D, vals, limit):
            # max(d, e - d) = |d - e / 2| + e / 2, in place; an entry cut off
            # counts as the limit, and so does ecc(u)
            half = np.minimum(vals, limit)[:, None] / 2
            d = D[:, cols]
            np.minimum(d, limit, out=d)
            d -= half
            np.abs(d, out=d)
            d += half * (1 - 4 * slack)
            return d.max(axis=0)

        value, k = _loop_search(graph, verts, ecc, np.inf,
                                bounds=bounds if np.isfinite(slack) else None)
        per.append((value, int(verts[k])))
    if ncomp == 1:
        return RadiusResult(per[0][0], per[0][1], True)
    worst = max(per, key=lambda vc: vc[0])
    return RadiusResult(worst[0], worst[1], False, per)


def set_radius_exact(field: MetricField, subset) -> tuple[float, int]:
    """Exact radius of a vertex subset (center anywhere in the space), from
    column maxima kept over chunks of _CHUNK sources.

    set_radius_upper with one round gives a center c and the bound
    U = max over the subset of d(c, .), widened by the reversal slack
    (module docstring).  Every member runs cut off at U: every column whose
    maximum is within U, the least among them, comes out exact, and every
    other one inf.
    """
    subset = np.asarray(subset, dtype=np.int64)
    graph = field.graph()
    bound = _widened(set_radius_upper(field, subset, rounds=1)[0], graph)
    return _least_column(_column_maxima(graph, subset, bound), bound)


def _column_maxima(graph, sources, bound, ecc=None) -> np.ndarray:
    """The column maxima of the rows of sources cut off at bound, searched in
    blocks of _CHUNK; into ecc (in place) when given, else into a new array.
    A column whose maximum is within bound comes out exact, any other inf."""
    if ecc is None:
        ecc = np.full(graph.shape[0], -np.inf)
    for k0 in range(0, len(sources), _CHUNK):
        block = _shortest_paths(graph, sources[k0:k0 + _CHUNK], bound)
        np.maximum(ecc, block.max(axis=0), out=ecc)
    return ecc


def _least_column(ecc, bound) -> tuple[float, int]:
    """(least column maximum, its first column); GeodesyError when no column
    lies within the bound that should hold one."""
    c = int(np.argmin(ecc))
    if ecc[c] == np.inf and bound < np.inf:
        raise GeodesyError(f"no center within the proven bound {bound!r}")
    return float(ecc[c]), c


def set_radius_upper(field: MetricField, subset, rounds: int = 3,
                     within=None) -> tuple[float, int]:
    """Sound upper bound on the radius of a subset via farthest-point centers.

    Returns (ecc, center) with ecc = max over subset of d(center, .).  The
    `rounds` vertices of least max(d(a, .), d(b, .)), for a far pair (a, b),
    are tried as centers.  `within` optionally restricts candidate centers
    to a vertex set (default: anywhere); a is the first center only if it
    lies there.  Every row is read through the field's row store (_rows), so
    a row searched before, at a cut-off no lower, is not searched again: a
    served row is bit for bit the one a search at its cut-off returns
    (module docstring).  The rows of the first member and of a are whole.
    The row of b is cut off at the best ecc so far, widened by the reversal
    slack: a vertex beyond it has a larger ecc, so it could never be the
    center.  The candidates' rows, in blocks of _CHUNK, are cut off at that
    ecc padded as every cut-off is (_padded): a candidate whose ecc lies
    beyond could not beat it, and one cut-off for all of them keeps the
    least ecc within it and its first candidate.  GeodesyError unless rounds
    is an integer >= 0.
    """
    if not (isinstance(rounds, numbers.Integral) and rounds >= 0):
        raise GeodesyError(f"rounds must be an integer >= 0, got {rounds!r}")
    subset = np.asarray(subset, dtype=np.int64)
    graph = field.graph()
    penalty = np.zeros(graph.shape[0])
    if within is not None:
        penalty[:] = np.inf
        penalty[_sources(within, len(penalty))] = 0.0
    (d0,) = _rows(field, subset[:1])
    far = int(subset[np.argmax(d0[subset])])
    (d1,) = _rows(field, [far])
    best = (float(d1[subset].max()), far) if penalty[far] == 0 else (np.inf, -1)
    (d2,) = _rows(field, [subset[np.argmax(d1[subset])]], _widened(best[0], graph))
    cand_scores = np.maximum(d1, d2) + penalty
    cand = np.argsort(cand_scores, kind="stable")[:rounds]
    cand = cand[np.isfinite(cand_scores[cand])]
    ecc = [row[subset].max() for k in range(0, len(cand), _CHUNK)
           for row in _rows(field, cand[k:k + _CHUNK], _padded(best[0]))]
    if ecc and min(ecc) < best[0]:
        i = int(np.argmin(ecc))
        best = (float(ecc[i]), int(cand[i]))
    return best


# ---------------------------------------------------------------------------
# loops and systoles


@dataclass
class LoopWitness:
    """A closed noncontractible loop: deck class, base vertex, polyline, length.

    points are unwrapped chart coordinates; the endpoint equals the start
    translated by the deck class (or by the antipodal map on sphere2 and rp2,
    where cls is the string "antipodal")."""

    cls: object
    base_vertex: int
    points: np.ndarray
    length: float

    def check_length(self, field: MetricField) -> bool:
        """The polyline's length equals the graph length within 1e-12 (1 + length)."""
        return abs(polyline_length(field, self.points) - self.length) <= 1e-12 * (
            1 + abs(self.length))


def _orbit_representatives(field: MetricField, base) -> np.ndarray:
    """The base vertices to search: those that come first in base among their
    orbit under the unit lattice translations along periodic axes that keep
    every tensor bit for bit, so every edge length (module docstring), in the
    order of base."""
    g = field.grid
    vid = g.lattice_vid
    tensors = field.tensors[vid]
    orbit = vid
    for k, periodic in enumerate(g.topology.periodic):
        if periodic and np.array_equal(tensors, np.roll(tensors, 1, axis=k)):
            orbit = np.take(orbit, np.zeros(vid.shape[k], dtype=np.int64), axis=k)
    label = np.empty(g.num_vertices, dtype=np.int64)
    label[vid] = orbit
    return base[np.sort(np.unique(label[base], return_index=True)[1])]


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
    shortest loop.  The base vertices are a box of lattice points (the base
    lines); after step m the walks are that box moved by the sum of the first
    m steps, by the grid's lattice-step rule, all steps in one call; walks
    that leave a bounded axis count as inf.  Their edges are read through
    Grid.edge_index at once.
    """
    g = field.grid
    half = stencil_offsets(g.n, g.stencil_order)
    moves = np.concatenate([half, -half])
    rest, split = np.asarray(cls, dtype=np.int64), []
    while rest.any():
        o = min(moves, key=lambda o: (((rest - o) ** 2).sum(), (o ** 2).sum(), tuple(o)))
        split.append(o)
        rest = rest - o
    box = [np.unique(i) for i in np.argwhere(g.lattice_vid >= 0)[base].T]  # the base lines
    moved = np.cumsum([np.zeros(g.n, dtype=np.int64)] + split * g.lattice_shape[0], axis=0)
    kept, ends = _moved(g.lattice_shape, g.topology.periodic, box, moved.T)
    ends = g.lattice_vid.ravel()[ends[:, kept.all(axis=0)]]
    steps = field.edge_lengths()[g.edge_index(ends[:-1], ends[1:])]
    return float(np.cumsum(steps, axis=0)[-1].min(initial=np.inf))


def _sqrt_lambda_min(field) -> float:
    """sqrt(lambda_min): the least length of a chart unit step (GeodesyError
    on a degenerate metric, whose lifted boxes would be unbounded)."""
    lam = field.lambda_min()
    if not lam > 0:
        raise GeodesyError(f"degenerate metric: least tensor eigenvalue {lam!r} is not positive")
    return math.sqrt(lam)


def _deck_box(field, sources, ub: float, reach: float):
    """(lo, shape): the box of lattice points of the lift, lo its least index,
    that holds every point within (ub / 2 + reach) / b_k plus one lattice
    spacing of the searched sources (grid vertices) along each periodic axis
    k, and a bounded axis whole.  b_k, the least m_j / |delta_jk| over
    displacement classes j with delta_jk != 0 (m_j the least edge length in
    class j), bounds the graph length of a path per chart unit it moves along
    axis k; so the box holds both halves of every loop of length <= ub
    through a source, met halfway (module docstring)."""
    g = field.grid
    disp, index = g.displacement_classes()
    least = np.full(len(disp), np.inf)
    np.minimum.at(least, index[:, 0] % len(disp), field.edge_lengths())
    with np.errstate(divide="ignore"):
        b = (least[:, None] / np.abs(disp)).min(axis=0)
    at = np.unravel_index(sources, g.lattice_shape)
    lo, shape = [], []
    for k, (n, h, periodic) in enumerate(zip(g.lattice_shape, g.spacing, g.topology.periodic)):
        m = math.floor(((_padded(ub) / 2 + reach) / b[k] + h) / h) if periodic else 0
        first, last = (int(at[k].min()), int(at[k].max())) if periodic else (0, n - 1)
        lo.append(first - m)
        shape.append(last - first + 1 + 2 * m)
    return lo, shape


def _lifted_graph(field, lo, shape):
    """(CSR, grid vertex of each box point) over a box of lattice points of
    the lift (_deck_box): point lo + (a, b) is vertex a * shape[1] + b, and a
    row holds its stencil moves that stay in the box, in lexicographic order,
    which is column order.  One (P, 2K) bool mask marks the moves that have an
    edge and stay in the box; its row sums give indptr, and each slab of
    _SLAB points fills its span of indices and data by compressing its
    weights and targets with it.  GeodesyError, before anything is
    allocated, when the CSR, the mask and one (_CHUNK, P) float64 block are
    estimated above _BLOCK_BYTES."""
    g = field.grid
    disp, index = g.displacement_classes()
    K, P = len(disp), math.prod(shape)
    nbytes = 2 * K * P * (4 + 8 + 1) + 4 * (P + 1) + _CHUNK * P * 8
    if nbytes > _BLOCK_BYTES:  # below it, every index fits in int32
        raise GeodesyError(f"a lifted box of {P} vertices needs about {nbytes} bytes for its "
                           f"graph and one Dijkstra block, above the ceiling of {_BLOCK_BYTES}")
    offsets = np.rint(disp / g.spacing).astype(np.int64)
    moves = np.concatenate([offsets, -offsets])  # move K + j is class j backwards
    order = np.lexsort(moves.T[::-1])
    moves, column = moves[order], np.argsort(order)  # column[j]: move j's lexicographic rank
    weight = np.full((g.num_vertices, 2 * K), np.nan)  # per vertex and move; nan: no edge
    cls, w = index[:, 0] % K, field.edge_lengths()
    weight[g.edges[:, 0], column[cls]], weight[g.edges[:, 1], column[K + cls]] = w, w
    del cls  # before the box's arrays are made
    vertex = g.lattice_vid[np.ix_(*[(l + np.arange(s)) % n
                                    for l, s, n in zip(lo, shape, g.lattice_shape)])].ravel()
    mask = (~np.isnan(weight))[vertex].reshape(*shape, 2 * K)
    for j, o in enumerate(moves):  # clear the moves that leave the box
        for k, (ok, s) in enumerate(zip(o, shape)):
            out = slice(max(s - ok, 0), None) if ok > 0 else slice(0, -ok)
            mask[(slice(None),) * k + (out, Ellipsis, j)] = False
    mask = mask.reshape(P, 2 * K)
    indptr = np.zeros(P + 1, dtype=np.int32)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    step = moves @ (shape[1], 1)
    for a in range(0, P, _SLAB):
        b = min(a + _SLAB, P)
        data[indptr[a]:indptr[b]] = weight[vertex[a:b]][mask[a:b]]
        indices[indptr[a]:indptr[b]] = (np.arange(a, b)[:, None] + step)[mask[a:b]]
    return csr_matrix((data, indices, indptr), shape=(P, P)), vertex


def _loop_search(graph, sources, value, ub, reach=None, bounds=None):
    """(min over i of value for sources[i], least minimizing i).

    Dijkstras run one block of sources at a time, each cut off at the best
    value so far (at first at ub); value(block, rows) maps the block of
    sources[rows] to one value per row, exact when within the cut-off, as
    maxima are.  Loop searches pass reach, the longest edge: their values are
    sums of two distances met halfway, exact when each half is within
    incumbent / 2 + reach, which becomes the cut-off (_meet_search).
    Returns (inf, -1) when no value lies within ub.

    bounds(block, vals, limit) maps a searched block (which it may overwrite)
    to a lower bound on the value of every source, rounding slack already
    taken off.  Sources run in order of least bound (in order without
    bounds), in blocks of _CHUNK, or of 1, 2, 4, ... up to _CHUNK with
    bounds; a source whose bound is above the best value is never searched,
    and ties are never pruned, so the least minimizing i still wins.
    """
    incumbent = _padded(ub)
    best = (np.inf, -1)
    lower = np.full(len(sources), -np.inf)
    todo = np.ones(len(sources), dtype=bool)
    size = _CHUNK if bounds is None else 1
    while True:
        open_ = np.flatnonzero(todo & (lower <= best[0]))
        if len(open_) == 0:
            return best
        rows = open_[np.argsort(lower[open_], kind="stable")[:size]]
        size = min(2 * size, _CHUNK)
        todo[rows] = False
        limit = incumbent if reach is None else incumbent / 2 + reach
        # reduce the block at once and free it before anything else is
        # allocated, so that no two blocks are alive together
        block = _shortest_paths(graph, sources[rows], limit)
        vals = value(block, rows)
        if bounds is not None:
            np.maximum(lower, bounds(block, vals, limit), out=lower)
        del block
        m = vals.min()
        i = int(rows[vals == m].min())
        if m <= incumbent and (m < best[0] or m == best[0] and i < best[1]):
            best = (float(m), i)
            incumbent = min(incumbent, _padded(m))


def _meet_search(graph, sources, isometries, ub: float, reach: float):
    """For each isometry s of the graph, the shortest path from some sources[i]
    to its image s sources[i], as three arrays over the isometries: its
    length (inf when none is within ub, and then the other two mean nothing),
    the first minimizing i, and its meet pair (w, s^-1 w).  One Dijkstra per
    source serves every isometry.

    d(v, s v) = min over w of d(v, w) + d(v, s^-1 w), and only balanced
    pairs count, |d(v, w) - d(v, s^-1 w)| <= 2 reach: of the two vertices of
    a shortest path on either side of its midpoint, one splits it within one
    edge, so the minimum is unchanged.  A balanced pair whose sum is within
    the incumbent has both terms within incumbent / 2 + reach, the cut-off,
    and so the same distances at every cut-off (module docstring): every
    value and first meet pair that can win is the same in every order and
    block of the search.  isometries lists, for each s, a shape to view the
    columns in and its pairs (a, b) of index tuples into that view, with b
    the preimages of a; each pair is reduced on its own, so that no second
    block-sized array is alive.  Each isometry keeps its own least value,
    first minimizing source and meet pair; the cut-off is the least value
    over all of them so far (_loop_search).
    """
    cols = np.arange(graph.shape[0])
    vals = np.full((len(isometries), len(sources)), np.inf)
    meet = np.zeros((len(isometries), len(sources), 2), dtype=np.int64)

    def value(D, rows):
        r = np.arange(len(D))
        for k, (shape, pairs) in enumerate(isometries):
            view, ids, best = D.reshape(len(D), *shape), cols.reshape(shape), vals[k, rows]
            for a, b in pairs:
                x, y = view[(slice(None), *a)], view[(slice(None), *b)]
                with np.errstate(invalid="ignore"):  # inf - inf, where the sum is inf
                    s = x - y
                unbalanced = np.abs(s, out=s) > 2 * reach
                np.add(x, y, out=s)[unbalanced] = np.inf
                s = s.reshape(len(D), -1)
                j = np.argmin(s, axis=1)
                m = s[r, j]
                del s, unbalanced, x, y  # before the next pair's copies and sum are made
                won = m < best
                best[won] = m[won]
                meet[k, rows[won]] = np.stack([ids[a].ravel()[j[won]], ids[b].ravel()[j[won]]],
                                              axis=1)
            vals[k, rows] = best
        return vals[:, rows].min(axis=0)

    _loop_search(graph, sources, value, ub, reach)
    vals[vals > _padded(ub)] = np.inf
    first = np.argmin(vals, axis=1)
    return vals.min(axis=1), first, meet[np.arange(len(first)), first]


def _halves(graph, source, meet, limit):
    """The vertex chains of a loop met halfway at the pair (w, s^-1 w): from
    source to w, and back from s^-1 w (left out) to source, which s maps onto
    the rest of the loop, from w on to s source.  One more Dijkstra, cut off
    at limit, the search's first cut-off, which held both."""
    _, (pred,) = _shortest_paths(graph, source, limit, predecessors=True)
    return _chain(pred, meet[0]), _chain(pred, meet[1])[-2::-1]


def _shifted(r, d) -> slice:
    """The slice of range r moved down by d."""
    return slice(r.start - d, r.stop - d)


def _deck_lift(field: MetricField, classes, base, ub: float, reach: float):
    """(graph, grid vertex of each graph vertex, sources, isometries) for a
    _meet_search of the deck translations by classes (torus2/cylinder) from
    the base vertices base, in the box that holds every loop of length <= ub
    through one of them (_deck_box).  Class (p, q) sends box point x to
    x + (p N, q N), so its pairs are shifted views of the block, one domain
    of box rows at a time."""
    n = field.grid.lattice_shape
    lo, shape = _deck_box(field, base, ub, reach)
    isometries = []
    for c in classes:
        t = (c[0] * n[0], c[1] * n[1])
        xs, ys = (range(max(0, d), min(s, s + d)) for d, s in zip(t, shape))
        rows = [range(i, min(i + n[0], xs.stop)) for i in xs[::n[0]] if ys]
        isometries.append((shape, [((_shifted(x, 0), _shifted(ys, 0)),
                                    (_shifted(x, t[0]), _shifted(ys, t[1]))) for x in rows]))
    sources = np.ravel_multi_index([i - l for i, l in zip(np.unravel_index(base, n), lo)], shape)
    return (*_lifted_graph(field, lo, shape), sources, isometries)


def _deck_loop(field: MetricField, classes, base, ub: float, best):
    """The checked witness of the class that takes the lead from best (a
    LoopWitness, or None) in one joint search of classes from base
    (_deck_lift), or best when none takes it.  Only the first base vertex of
    each orbit is searched.  The classes are walked in order: one takes the
    lead only when shorter by 1e-15, and the walk stops at the first whose
    lower bound, sqrt(lambda_min) |c|, reaches the lead.  Nothing holds the
    search's box once it returns."""
    lam = _sqrt_lambda_min(field)  # a degenerate metric fails here, before any box
    reach = float(field.edge_lengths().max())
    graph, vertex, sources, isometries = _deck_lift(
        field, classes, _orbit_representatives(field, base), ub, reach)
    lengths, first, meet = _meet_search(graph, sources, isometries, ub, reach)
    lead, k = np.inf if best is None else best.length, None
    for j, c in enumerate(classes):
        if lam * math.hypot(*c) >= lead:
            break
        if lengths[j] < lead - 1e-15:
            lead, k = lengths[j], j
    if k is None:
        return best
    to_w, back = _halves(graph, sources[first[k]], meet[k], _padded(ub) / 2 + reach)
    chain = vertex[to_w + back]  # the translations map each grid vertex to itself
    cls = classes[k] if field.grid.topology.kind == "torus2" else classes[k][0]
    return _loop_witness(field, cls, vertex[sources[first[k]]], lead, chain)


def _loop_witness(field: MetricField, cls, base_vertex, length, chain) -> LoopWitness:
    """The witness of a loop along a chain of grid vertices, once its
    polyline, unwrapped, is seen to have the graph length length."""
    witness = LoopWitness(cls, int(base_vertex), _unwrap_chain(field.grid, chain), float(length))
    if not witness.check_length(field):
        raise GeodesyError(
            f"loop witness in class {witness.cls} fails its length check: polyline "
            f"{polyline_length(field, witness.points)!r} != graph {witness.length!r}")
    return witness


def shortest_loop_in_class(field: MetricField, cls):
    """Shortest closed loop in a deck-transformation class (torus2/cylinder).

    Base vertices are the two lattice lines every class-cls loop crosses; the
    returned base vertex is the first minimizing one among them.  Only the
    first base vertex of each orbit of exact lattice translations is searched
    (module docstring); the others tie with it.  The bound is the graph length
    of a stencil walk in the class, and the box holds every loop within it
    met halfway (_deck_box), so one search always suffices; a class with
    no loop within it raises.  The witness passes check_length before it is
    returned.  GridError for a class other than two integers on torus2 or one
    on the cylinder, and on any other kind (grid._deck_class).
    """
    g = field.grid
    p, q = _deck_class(g.topology.kind, cls)
    if p == 0 and q == 0:
        raise GeodesyError("trivial deck class")
    base = _loop_base_vertices(g, (p, q))
    ub = _stencil_walk_length(field, base, (p, q))
    witness = _deck_loop(field, [(p, q)], base, ub, None)
    if witness is None:
        raise GeodesyError(f"no loop found in class {cls} within bound {ub}")
    return witness


def _primitive_classes():
    """Primitive deck classes (p, q), one of each pair +-c (p > 0, or p = 0 < q),
    without end, in increasing p^2 + q^2 and by the tuple among equals."""
    for norm2 in itertools.count(1):
        shell = []
        for p in range(math.isqrt(norm2) + 1):
            q = math.isqrt(norm2 - p * p)
            if q * q == norm2 - p * p and math.gcd(p, q) == 1:
                shell += [(p, -q), (p, q)] if p and q else [(p, q)]
        yield from sorted(shell)


def systole(field: MetricField) -> LoopWitness:
    """Shortest noncontractible loop (torus2, cylinder, rp2); its witness has
    passed check_length (GeodesyError otherwise).

    On torus2 the primitive classes c are walked in increasing |c|; a class
    replaces the shortest loop so far only when shorter by 1e-15, and the
    walk ends at the first class whose lower bound sqrt(lambda_min) |c|
    reaches it, since every later class's bound is no smaller.  One ub,
    found before any search, bounds every search: in increasing |c| it starts
    at the (0, 1) stencil walk and falls to each later class's walk, and the
    first class whose bound reaches it ends the joint set.  No shortest loop
    so far is ever above ub, so this set holds the classes the walk reaches,
    and a class left out has no value below the cut-off's start.  (0, 1) is
    searched first, alone, at ub; with no loop within ub it is longer than
    the loop of the walk that set ub, and the walk goes on without it.  Every
    later class has a nonzero first winding and the same base vertices, so
    one joint search, in one box and with one Dijkstra per base vertex,
    reduces them all.  Each class keeps its own least value, first minimizing
    base vertex and meet point (_meet_search), and the walk then runs on
    those values (_deck_loop).

    The choice is that of a walk with one search per class.  The joint
    cut-off, the least value over every class so far, never falls below the
    systole, so every class whose shortest loop is within it, the winner
    included, gets its exact value and first minimizing base vertex.  A class
    whose shortest loop lies beyond the cut-off may come out longer, or not at
    all; but it is longer than the systole by more than 1e-15, so in either
    walk a later class replaces it or it is never chosen.  Each search runs
    one source per orbit of exact lattice translations: one on a constant
    (flat, hexagonal) torus, in a box sized around it.  The class that takes
    the lead in a search gets its checked witness at once, so no box
    outlives its search.
    """
    g = field.grid
    kind = g.topology.kind
    if kind == "cylinder":
        return shortest_loop_in_class(field, 1)
    if kind == "rp2":
        return _antipodal_loop(field)
    if kind != "torus2":
        raise GeodesyError(f"{kind} is simply connected or unsupported")

    lam = _sqrt_lambda_min(field)
    first, base = _loop_base_vertices(g, (0, 1)), _loop_base_vertices(g, (1, 0))
    joint, ub = [], _stencil_walk_length(field, first, (0, 1))
    for c in itertools.islice(_primitive_classes(), 1, None):
        if lam * math.hypot(*c) >= ub:  # a later class's bound is no smaller
            break
        joint.append(c)
        ub = min(ub, _stencil_walk_length(field, base, c))
    best = None
    for classes, b in [([(0, 1)], first)] + ([(joint, base)] if joint else []):
        best = _deck_loop(field, classes, b, ub, best)
    if best is None:
        raise GeodesyError(f"no noncontractible loop found within bound {ub}")
    return best


def _antipodal_loop(field: MetricField) -> LoopWitness:
    """The checked witness of the shortest path from a band vertex to its
    antipode on sphere2/rp2, met halfway (_meet_search).  The band is lattice
    columns 0 and 1, poles included (_loop_base_vertices), which every such
    path meets (module docstring).  GeodesyError when the antipodal map is
    not an isometry of the metric."""
    g = field.grid
    anti = g.antipode_map
    if anti is None:
        raise GeodesyError(f"{g.topology.kind} has no antipodal map")
    graph = field.graph()
    if not _distortion(graph, anti) <= 1e-9:
        raise GeodesyError("the antipodal map is not an isometry of this metric")
    band = _orbit_representatives(field, _loop_base_vertices(g, (1, 0)))
    # d(v, w) + d(v, -w) is symmetric in w and -w: the southern half holds
    # one of each; taken in four parts, the two copies of a part and their sum
    # together take less than half a block
    half = np.where(g.coords[:, 1] <= 0.5 + 1e-12)[0]
    pairs = [((h,), (anti[h],)) for h in np.array_split(half, 4)]
    meridian = g.lattice_vid[0]  # south pole to north pole at longitude 0
    ub = float(np.asarray(graph[meridian[:-1], meridian[1:]]).sum())
    reach = float(field.edge_lengths().max())
    (length,), (i,), (meet,) = _meet_search(graph, band, [((len(anti),), pairs)], ub, reach)
    to_w, back = _halves(graph, band[i], meet, _padded(ub) / 2 + reach)
    return _loop_witness(field, "antipodal", band[i], length, np.concatenate([to_w, anti[back]]))


def min_antipodal_distance(field: MetricField) -> tuple[float, int]:
    """(min over v of d(v, antipode(v)), a minimizing v from the band) on
    sphere2/rp2: the length and base vertex of the checked witness.

    Distances are taken on the sphere double cover.  The antipodal map must be
    an isometry of the metric, and the witness must pass check_length
    (GeodesyError otherwise).  Sources are the band of lattice columns 0 and
    1, poles included (_antipodal_loop); when a longitude rotation is an
    exact automorphism, as on the round metric, column 1 is not searched.
    """
    witness = _antipodal_loop(field)
    return witness.length, witness.base_vertex
