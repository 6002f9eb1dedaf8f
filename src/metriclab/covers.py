"""Coverings, partitions of unity, nerves, slicing covers, 1-D polyhedra.

Covers are lists of vertex subsets with certified radii (stored center plus
measured max distance, a sound upper bound on the true radius).  Partitions
of unity follow the distance-to-complement construction: phi_i(x) =
dist(x, complement of V_i), Phi = sum phi_i, psi_i = phi_i / Phi, so the
support condition psi_i > 0 iff x in V_i is exact by construction.

MetricGraph is a minimal 1-D Riemannian polyhedron (weighted graph with edge
lengths): enough to exercise the one-dimensional width base case (volume
profile below R forces component radii below R) on stars, paths and circles,
and to model cut graphs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .fields import MetricField
from .geodesy import _shortest_paths, distance_field, radius as geodesy_radius, set_radius_upper


class CoverError(ValueError):
    pass


@dataclass
class Cover:
    """Vertex subsets with certified radius upper bounds (center + max dist)."""

    sets: list
    centers: list
    radii: list

    def multiplicity(self, num_vertices: int) -> int:
        return int(self.membership_counts(num_vertices).max())

    def membership_counts(self, num_vertices: int) -> np.ndarray:
        count = np.zeros(num_vertices, dtype=np.int64)
        for s in self.sets:
            count[s] += 1
        return count

    def covers_everything(self, num_vertices: int) -> bool:
        return bool((self.membership_counts(num_vertices) >= 1).all())


@dataclass
class PartitionOfUnity:
    phi: np.ndarray   # (k, V) distance to complement per set
    Phi: np.ndarray   # (V,)
    psi: np.ndarray   # (k, V) weights summing to 1


def partition_of_unity(field: MetricField, cover: Cover) -> PartitionOfUnity:
    """Distance-to-complement weights phi_i / Phi for a covering."""
    V = field.grid.num_vertices
    if not cover.covers_everything(V):
        raise CoverError("cover does not union to the whole vertex set")
    allv = np.arange(V)
    phi = np.empty((len(cover.sets), V))
    for i, s in enumerate(cover.sets):
        comp = np.setdiff1d(allv, s, assume_unique=False)
        if len(comp) == 0:
            phi[i] = 1.0
            continue
        phi[i] = distance_field(field, comp, quotient=False)
    Phi = phi.sum(axis=0)
    if np.any(Phi <= 0):
        raise CoverError("cover gap: Phi vanishes at some vertex")
    return PartitionOfUnity(phi, Phi, phi / Phi)


@dataclass
class NerveComplex:
    num_vertices: int
    simplices: set          # frozensets of cover-set indices, closed under faces
    dimension: int

    def has_simplex(self, idxs) -> bool:
        return frozenset(idxs) in self.simplices

    def edges(self):
        return sorted(tuple(sorted(s)) for s in self.simplices if len(s) == 2)


def nerve(cover: Cover, num_vertices: int, pou: PartitionOfUnity | None = None):
    """Nerve complex from actual nonempty intersections, plus barycentric map.

    Returns (NerveComplex, psi_bar) where psi_bar is the (V, k) matrix of
    barycentric coordinates (the partition of unity), or None without a pou.
    Star containment holds by construction and is re-asserted here: the
    positive-support set of every vertex is a simplex containing each i with
    psi_i(v) > 0.
    """
    k = len(cover.sets)
    membership = [[] for _ in range(num_vertices)]
    for i, s in enumerate(cover.sets):
        for v in np.asarray(s):
            membership[v].append(i)
    simplices = set()
    for mem in membership:
        mem = tuple(sorted(mem))
        for r in range(1, len(mem) + 1):
            for sub in itertools.combinations(mem, r):
                simplices.add(frozenset(sub))
    dim = max((len(s) for s in simplices), default=0) - 1
    complex_ = NerveComplex(k, simplices, dim)
    psi_bar = None
    if pou is not None:
        psi_bar = pou.psi.T.copy()
        for v in range(num_vertices):
            support = frozenset(np.where(pou.psi[:, v] > 0)[0].tolist())
            if support and support not in simplices:
                raise CoverError("barycentric image leaves the nerve star")
    return complex_, psi_bar


def width0(field: MetricField):
    """width_0 = radius for connected spaces; flagged per-component otherwise."""
    return geodesy_radius(field)


def slicing_cover(field: MetricField, p: int, R: float,
                  radius_rounds: int = 3) -> Cover:
    """Cover by connected components of distance-annulus preimages.

    Intervals ((i - 2/3) R, (i + 2/3) R) around the distance field from p give
    multiplicity at most 2 by interval combinatorics.  Component radii are
    reported (certified upper bounds), with no claim that they stay below R.
    CoverError unless 0 < R < inf; GeodesyError (set_radius_upper) unless
    radius_rounds is an integer >= 0.
    """
    if not 0 < R < math.inf:  # NaN fails too
        raise CoverError(f"R must be positive and finite, got {R!r}")
    d = distance_field(field, [p])
    finite = np.isfinite(d)
    imax = int(np.floor(d[finite].max() / R + 2.0 / 3.0))
    sets, centers, radii = [], [], []
    g = field.graph()
    for i in range(imax + 1):
        lo, hi = (i - 2.0 / 3.0) * R, (i + 2.0 / 3.0) * R
        verts = np.where(finite & (d > lo) & (d < hi))[0]
        if len(verts) == 0:
            continue
        sub = g[verts][:, verts]
        ncomp, labels = connected_components(sub, directed=False)
        for c in range(ncomp):
            s = verts[labels == c]
            rad, center = set_radius_upper(field, s, rounds=radius_rounds)
            sets.append(s)
            centers.append(center)
            radii.append(rad)
    return Cover(sets, centers, radii)


def _edge_components(num_vertices: int, edges) -> tuple[int, np.ndarray]:
    """(count, labels) of the connected components of a vertex-pair list."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    m = sp.csr_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(num_vertices,) * 2)
    return connected_components(m, directed=False)


# ---------------------------------------------------------------------------
# 1-D Riemannian polyhedra (metric graphs)


@dataclass
class MetricGraph:
    """Weighted graph as a 1-D polyhedron: lengths live on edges."""

    num_vertices: int
    edges: list  # (u, v, length)
    _dist: np.ndarray = dataclass_field(default=None, init=False, repr=False)

    def distances(self) -> np.ndarray:
        """All-pairs distances, cached, from geodesy's one Dijkstra kernel and its checks."""
        if self._dist is None:  # sorted longest first, so of parallel edges the shortest stays
            shortest = dict(sorted((((min(a, b), max(a, b)), L) for a, b, L in self.edges),
                                   reverse=True))
            u, v = np.array(list(shortest), dtype=np.int64).reshape(-1, 2).T
            w = np.array(list(shortest.values()), dtype=float)
            m = sp.csr_matrix((np.r_[w, w], (np.r_[u, v], np.r_[v, u])),
                              shape=(self.num_vertices,) * 2)
            self._dist = _shortest_paths(m, np.arange(self.num_vertices))
        return self._dist

    def total_length(self) -> float:
        return float(sum(e[2] for e in self.edges))

    def ball_length(self, p: int, r: float) -> float:
        """1-volume (length) of the open ball around vertex p."""
        d = self.distances()[p]
        total = 0.0
        for (u, v, L) in self.edges:
            a, b = d[u], d[v]
            cover = max(0.0, min(r - a, L)) + max(0.0, min(r - b, L))
            total += min(L, cover)
        return total

    def volume_profile(self, r: float) -> float:
        return max(self.ball_length(p, r) for p in range(self.num_vertices))

    def vertex_radius(self) -> float:
        """min over vertices of eccentricity (includes edge interiors); inf
        when the graph is disconnected."""
        return self._least_eccentricity(np.arange(self.num_vertices), self.edges)

    def component_radii(self) -> list:
        ncomp, labels = _edge_components(self.num_vertices, [e[:2] for e in self.edges])
        return [self._least_eccentricity(np.where(labels == c)[0],
                                         [e for e in self.edges if labels[e[0]] == c])
                for c in range(ncomp)]

    def _least_eccentricity(self, verts, edges) -> float:
        """min over p in verts of the max distance to verts and to the points
        of edges.  The far point of an edge is interior when the midpoint
        formula (d(p,u) + d(p,v) + L) / 2 puts it inside the edge.
        """
        d = self.distances()
        best = np.inf
        for p in verts:
            ecc = d[p, verts].max()
            for (u, v, L) in edges:
                if np.isinf(d[p, u]):  # another component: ecc is inf already
                    continue
                t = (d[p, v] - d[p, u] + L) / 2.0
                if 0.0 < t < L:
                    ecc = max(ecc, d[p, u] + t)
            best = min(best, ecc)
        return float(best)


def star_graph(legs: int, leg_length: float, segments_per_leg: int = 8) -> MetricGraph:
    """Star-shaped 1-D polyhedron: `legs` intervals glued at a hub."""
    edges = []
    nv = 1
    seg = leg_length / segments_per_leg
    for _ in range(legs):
        prev = 0
        for _ in range(segments_per_leg):
            edges.append((prev, nv, seg))
            prev = nv
            nv += 1
    return MetricGraph(nv, edges)


def circle_graph(circumference: float, segments: int = 64) -> MetricGraph:
    seg = circumference / segments
    edges = [(i, (i + 1) % segments, seg) for i in range(segments)]
    return MetricGraph(segments, edges)
