"""The stencil structure that a grid owns, against the COO builds it replaced.

Each field's graph, lifted window and edge lengths are gathers into the
grid's CSR pattern, lifted entry order and displacement classes.  The
references below are the former per-field builds, kept as oracles.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriclab import besicovitch as B
from metriclab import fields as F
from metriclab import gallery
from metriclab import geodesy as geo
from metriclab import grid as G


def _edge_disp(grid):
    """Per edge, its chart displacement: lattice offset times spacing."""
    return grid.edge_offset * np.asarray(grid.spacing)


def _reference_edge_lengths(field):
    """Per-edge quadratic form of the mean endpoint tensor."""
    e, d = field.grid.edges, _edge_disp(field.grid)
    gbar = 0.5 * (field.tensors[e[:, 0]] + field.tensors[e[:, 1]])
    q = np.einsum("ei,eij,ej->e", d, gbar, d)
    return np.sqrt(np.maximum(q, 0.0))


def _reference_graph(field):
    """COO build of both edge directions."""
    e = field.grid.edges
    w = field.edge_lengths()
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    data = np.concatenate([w, w])
    csr = sp.csr_matrix((data, (rows, cols)), shape=(field.grid.num_vertices,) * 2)
    assert csr.nnz == len(data)  # the COO conversion summed no repeated pair
    return csr


def _reference_lifted_graph(field, nx, ny):
    """COO build over an nx-by-ny window of copies, copy c = i * ny + j, on a
    grid whose vertex map is the identity: an edge's lattice step from
    edges[e, 0] crosses wx seams along axis 0 and wy along axis 1."""
    g = field.grid
    V = g.num_vertices
    e = g.edges
    wt = field.edge_lengths()
    at = np.stack(np.unravel_index(e[:, 0], g.lattice_shape), axis=1)
    wx, wy = ((at + g.edge_offset) // np.asarray(g.lattice_shape)).T
    rows, cols, data = [], [], []
    for c in range(nx * ny):
        tx, ty = c // ny + wx, c % ny + wy
        ok = (tx >= 0) & (tx < nx) & (ty >= 0) & (ty < ny)
        src_ids = c * V + e[ok, 0]
        dst_ids = (tx[ok] * ny + ty[ok]) * V + e[ok, 1]
        rows += [src_ids, dst_ids]
        cols += [dst_ids, src_ids]
        data += [wt[ok], wt[ok]]
    nverts = nx * ny * V
    return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(nverts, nverts))


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)
    assert got.has_sorted_indices


_GRIDS = [("square", 9), ("torus2", 5), ("torus2", 12), ("cylinder", 5), ("cylinder", 7),
          ("hexagon:regular", 17), ("hexagon:tripod:0.46:0.12", 21), ("sphere2", 6),
          ("sphere2", 12), ("rp2", 16)]


def _fields(name, N):
    g = G.build_grid(G.topology_from_name(name), N, 3)
    if g.antipode_map is not None:
        rnd = F.round_sphere_metric(g, 1.0)
        u = 0.2 * np.cos(2 * np.pi * g.coords[:, 1]) ** 2
        return g, [rnd, F.conformal_rescale(rnd, u)]
    return g, [F.flat_metric(g), F.random_spd_metric(g, 3, (0.25, 4.0))]


@pytest.mark.parametrize("name,N", _GRIDS)
def test_graph_equals_the_coo_build(name, N):
    g, fs = _fields(name, N)
    for f in fs:
        _assert_same_csr(f.graph(), _reference_graph(f))
        assert np.shares_memory(f.graph().indices, g.stencil().indices)


def test_one_edge_joins_each_vertex_pair():
    for name, N in _GRIDS:
        g = G.build_grid(G.topology_from_name(name), N, 3)
        pairs = np.sort(g.edges, axis=1)
        assert len(np.unique(pairs, axis=0)) == len(pairs), (name, N)
        s, V = g.stencil(), g.num_vertices
        assert (np.diff(s.key) > 0).all()
        # so the keys are unique and the stable sort finds the default sort's permutation
        keys = g.edges.ravel() * V + g.edges[:, ::-1].ravel()
        order = np.argsort(keys)
        indptr = np.zeros(V + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys[order] // V, minlength=V), out=indptr[1:])
        assert np.array_equal(s.key, keys[order])
        assert np.array_equal(s.indptr, indptr)
        assert np.array_equal(s.indices, keys[order] % V)
        assert np.array_equal(s.edge, order >> 1)


def _induced_box(field, nx, ny, lo, shape):
    """The COO window's subgraph induced on the box of lattice points lo + (a, b)
    (which it must hold), relabelled row-major as _lifted_graph numbers them."""
    g = field.grid
    (n0, n1), V = g.lattice_shape, g.num_vertices
    x, y = np.meshgrid(*[l + np.arange(s) for l, s in zip(lo, shape)], indexing="ij")
    assert x.min() >= 0 and x.max() < nx * n0 and y.min() >= 0 and y.max() < ny * n1
    ids = (((x // n0) * ny + y // n1) * V + g.lattice_vid[x % n0, y % n1]).ravel()
    sub = _reference_lifted_graph(field, nx, ny)[ids][:, ids].tocsr()
    sub.sort_indices()
    return sub


@pytest.mark.parametrize("name,N", [("torus2", 5), ("torus2", 12), ("cylinder", 5),
                                    ("cylinder", 7)])
def test_lifted_windows_equal_the_coo_build(name, N):
    # boxes of lattice points: the whole window, boxes across copies, strips
    # one lattice line wide, and single points; the cylinder's bounded axis
    # is taken whole
    g, fs = _fields(name, N)
    if name == "torus2":
        nx, ny = 3, 3
        boxes = [((0, 0), (3 * N, 3 * N)), ((N - 2, 1), (N + 3, 2 * N)), ((1, N + 2), (2, N)),
                 ((2 * N - 1, 0), (N + 1, 1)), ((N, N), (1, 1)), ((0, 2), (3 * N, 5))]
    else:
        nx, ny = 5, 1
        boxes = [((0, 0), (5 * N, N)), ((N - 1, 0), (2, N)), ((2 * N + 1, 0), (N + 3, N)),
                 ((3, 0), (1, N))]
    for f in fs:
        for lo, shape in boxes:
            graph, vertex = geo._lifted_graph(f, lo, shape)
            _assert_same_csr(graph, _induced_box(f, nx, ny, lo, shape))
            x, y = np.meshgrid(*[l + np.arange(s) for l, s in zip(lo, shape)], indexing="ij")
            assert np.array_equal(vertex, g.lattice_vid[x % N, y % g.lattice_shape[1]].ravel())


def test_lifted_window_of_the_hexagonal_torus():
    # the box of the joint search at ub = 1; a box moved by whole copies has
    # the same graph, so its copy in a window of whole copies is the oracle
    g = G.build_grid(G.torus2(), 32, 3)
    f = F.constant_metric(g, [[1.0, 0.5], [0.5, 1.0]])
    base = geo._loop_base_vertices(g, (1, 0))
    searched = geo._orbit_representatives(f, base)
    lo, shape = geo._deck_box(f, searched, 1.0, float(f.edge_lengths().max()))
    assert lo[0] < 0 and lo[1] < 0
    _assert_same_csr(geo._lifted_graph(f, lo, shape)[0],
                     _induced_box(f, 2, 4, (lo[0] + 32, lo[1] + 32), shape))


def _two_pass_lifted_graph(field, lo, shape):
    """The former build of geo._lifted_graph, kept as its oracle: (indptr,
    indices, data, vertex map) from a counting pass and a filling pass, each
    over the stencil moves one at a time, in lexicographic order."""
    g = field.grid
    disp, index = g.displacement_classes()
    K, P = len(disp), math.prod(shape)
    offsets = np.rint(disp / g.spacing).astype(np.int64)
    moves = np.concatenate([offsets, -offsets])  # move K + j is class j backwards
    weight = np.full((g.num_vertices, 2 * K), np.nan)
    cls, w = index[:, 0] % K, field.edge_lengths()
    weight[g.edges[:, 0], cls], weight[g.edges[:, 1], K + cls] = w, w
    vertex = g.lattice_vid[np.ix_(*[(l + np.arange(s)) % n
                                    for l, s, n in zip(lo, shape, g.lattice_shape)])]
    ids = np.arange(P, dtype=np.int32).reshape(shape)
    order = np.lexsort(moves.T[::-1])

    def entries(j):  # the box points whose move j stays in the box, and its weights
        inside = tuple(slice(max(0, -o), s - max(0, o)) for o, s in zip(moves[j], shape))
        wt = weight[vertex[inside], j]
        return inside, wt, ~np.isnan(wt)

    pos = np.zeros(shape, dtype=np.int32)
    for j in order:
        inside, _, ok = entries(j)
        pos[inside] += ok
    indptr = np.zeros(P + 1, dtype=np.int32)
    np.cumsum(pos, out=indptr[1:])
    indices, data = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    pos.ravel()[:] = indptr[:-1]  # where each row's next entry goes
    for j in order:
        inside, wt, ok = entries(j)
        at = pos[inside][ok]
        indices[at] = ids[inside][ok] + moves[j] @ (shape[1], 1)
        data[at] = wt[ok]
        pos[inside] += ok
    return indptr, indices, data, vertex.ravel()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["torus2", "cylinder"]), N=st.integers(5, 9), spd=st.booleans(),
       slab=st.sampled_from([1, 7, 4096, 10 ** 6]),
       lo=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
       shape=st.tuples(st.integers(1, 30), st.integers(1, 30)))
@example(kind="torus2", N=5, spd=True, slab=1, lo=(7, -3), shape=(1, 1))  # one point
@example(kind="torus2", N=7, spd=False, slab=7, lo=(-4, 2), shape=(1, 30))  # one lattice line
@example(kind="torus2", N=6, spd=True, slab=7, lo=(-13, 0), shape=(27, 1))
@example(kind="cylinder", N=6, spd=True, slab=10 ** 6, lo=(-9, 0), shape=(25, 6))
@example(kind="cylinder", N=5, spd=True, slab=7, lo=(2, 0), shape=(1, 5))
def test_lifted_graph_equals_the_two_pass_build(kind, N, spd, slab, lo, shape):
    # a bounded axis (the cylinder's second) is taken whole, as _deck_box does;
    # slabs of 1 and 7 points, and one slab above P
    if kind == "cylinder":
        lo, shape = (lo[0], 0), (shape[0], N)
    g = G.build_grid(G.topology_from_name(kind), N, 3)
    f = F.random_spd_metric(g, N, (0.25, 4.0)) if spd else F.flat_metric(g)
    with mock.patch.object(geo, "_SLAB", slab):
        graph, vertex = geo._lifted_graph(f, list(lo), list(shape))
    for got, want in zip((graph.indptr, graph.indices, graph.data, vertex),
                         _two_pass_lifted_graph(f, lo, shape)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_lifted_graph_peaks_at_its_csr_mask_and_one_slab():
    # the hexagonal torus at N = 128, in the box around both (1, 0) base
    # lines at that class's stencil walk: 12.0 MB.  A single (P, 2K) float64
    # gather in place of the slabs peaks at 22.9 MB and fails
    f = F.constant_metric(G.build_grid(G.torus2(), 128, 3), [[1.0, 0.5], [0.5, 1.0]])
    g = f.grid
    base = geo._loop_base_vertices(g, (1, 0))
    lo, shape = geo._deck_box(f, base, geo._stencil_walk_length(f, base, (1, 0)),
                              float(f.edge_lengths().max()))
    P, K = math.prod(shape), len(g.displacement_classes()[0])
    assert P == 43_992
    tracemalloc.start()
    try:
        graph, vertex = geo._lifted_graph(f, lo, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    csr = graph.indptr.nbytes + graph.indices.nbytes + graph.data.nbytes
    table = g.num_vertices * 2 * K * 8 + vertex.nbytes  # per-vertex weights, vertex map
    slab = geo._SLAB * 2 * K * 8  # one (_SLAB, 2K) float64 or int64 array
    # the bool mask; a slab's weight gather and int64 targets, each with its
    # compressed copy
    assert peak <= csr + table + P * 2 * K + 4 * slab


def _copies_deck_lift(field, classes, base, ub, reach):
    """The former lift of the deck loops, kept as the oracle of the box: a COO
    window of the whole fundamental-domain copies that hold every vertex
    within (ub / 2 + reach) / sqrt(lambda_min) chart units of the base lines,
    plus one lattice spacing; copy vertex c V + v is grid vertex v, and each
    class's pairs are pairs of copies."""
    g = field.grid
    V = g.num_vertices
    r = (geo._padded(ub) / 2 + reach) / math.sqrt(field.lambda_min()) + max(g.spacing)
    across = 0 if classes[0][0] != 0 else 1
    k0, n = [0, 0], [1, 1]
    for k in range(2 if g.topology.kind == "torus2" else 1):
        top = g.spacing[k] * (1 if k == across else g.lattice_shape[k] - 1)
        k0[k] = math.floor(-r)
        n[k] = math.floor(top + r) - k0[k] + 1
    nx, ny = n
    isometries = [((nx, ny, V), [((i, j), (i - p, j - q))
                                 for i in range(max(0, p), min(nx, nx + p))
                                 for j in range(max(0, q), min(ny, ny + q))])
                  for p, q in classes]
    sources = (-k0[0] * ny - k0[1]) * V + base
    return _reference_lifted_graph(field, nx, ny), np.arange(nx * ny * V) % V, sources, isometries


def _loop_field(kind, N, seed):
    if kind == "cylinder":
        return F.random_spd_metric(G.build_grid(G.cylinder(), N, 3), seed, (0.25, 4.0))
    g = G.build_grid(G.torus2(), N, 3)
    if kind.startswith("bump"):
        cfg = gallery.ExperimentConfig(kind, "torus2", "conformal_bump", "systolic_ratio", [N],
                                       seed=seed, metric_params={"base": kind[5:],
                                                                 "amplitude": 0.25})
        return gallery.build_metric(cfg, g)
    if kind == "y-cosine":  # x-translations are exact: several sources per search, not all
        return F.conformal_metric(g, 0.3 * np.cos(2 * math.pi * g.coords[:, 1]))
    return F.constant_metric(g, {"sheared": [[1.0, 3.0], [3.0, 10.0]],
                                 "diag": np.diag([1e-2, 1.0])}[kind])


_LOOP_CASES = dict(kind=st.sampled_from(["bump-flat", "bump-hexagonal", "sheared", "diag",
                                         "y-cosine", "cylinder"]),
                   N=st.integers(8, 24), seed=st.integers(0, 10_000),
                   cls=st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2)]))


def _loop_key(w, f):
    assert w.check_length(f)
    return w.cls, w.base_vertex, w.length


@settings(max_examples=15, deadline=None)
@given(**_LOOP_CASES)
def test_box_loops_equal_the_copies_window(kind, N, seed, cls):
    # class, base vertex and length are ==, and both witnesses pass
    # check_length: for systole and for one class at its stencil walk.  A
    # joint search of the classes with a nonzero first winding gives ==
    # lengths, and for each class with a loop within ub, == first minimizing
    # sources and witness keys
    f = _loop_field(kind, N, seed)
    one = (cls[0] or cls[1]) if kind == "cylinder" else cls
    joint = [(1, 0), (2, 0)] if kind == "cylinder" else [(1, 0), (1, 1), (1, -1), (2, 1)]
    base = geo._loop_base_vertices(f.grid, (1, 0))
    ub = min(geo._stencil_walk_length(f, base, c) for c in joint)
    reach = float(f.edge_lengths().max())

    def searches():
        out = [_loop_key(geo.systole(f), f), _loop_key(geo.shortest_loop_in_class(f, one), f)]
        graph, vertex, sources, isometries = geo._deck_lift(f, joint, base, ub, reach)
        lengths, first, meet = geo._meet_search(graph, sources, isometries, ub, reach)
        for k, c in enumerate(joint):
            if lengths[k] < np.inf:
                to_w, back = geo._halves(graph, sources[first[k]], meet[k],
                                         geo._padded(ub) / 2 + reach)
                out.append(_loop_key(geo._loop_witness(f, c, base[first[k]], lengths[k],
                                                       vertex[to_w + back]), f))
        # the meet pairs are left out: the two lifts order their pairs
        # differently, so among tied meet points each may take another
        return out, lengths.tolist(), first[lengths < np.inf].tolist()

    box = searches()
    assert np.isfinite(box[1]).any()
    with mock.patch.object(geo, "_deck_lift", _copies_deck_lift):
        assert searches() == box


@settings(max_examples=15, deadline=None)
@given(**_LOOP_CASES)
@example(kind="y-cosine", N=9, seed=0, cls=(2, 1))  # tied meet points: the polyline can move
@example(kind="bump-flat", N=23, seed=0, cls=(1, 0))  # near ties: base vertex and an ulp can move
def test_loops_do_not_depend_on_the_search_order(kind, N, seed, cls):
    # class, base vertex, length and polyline bytes are == for systole and
    # one class, in order and in blocks of _CHUNK, and in reversed order in
    # blocks of one
    f = _loop_field(kind, N, seed)
    one = (cls[0] or cls[1]) if kind == "cylinder" else cls

    def searches():
        return [(w.cls, w.base_vertex, w.length, w.points.tobytes())
                for w in (geo.systole(f), geo.shortest_loop_in_class(f, one))]

    def reversed_order(graph, sources, value, ub, reach=None, bounds=None):
        if reach is not None:  # a loop search: reversed order, nothing pruned
            def bounds(block, vals, limit):
                return -1e300 * np.arange(1, len(sources) + 1)
        return real(graph, sources, value, ub, reach, bounds)

    scheduled, real = searches(), geo._loop_search
    with mock.patch.object(geo, "_loop_search", reversed_order), \
            mock.patch.object(geo, "_CHUNK", 1):
        assert searches() == scheduled


@pytest.mark.parametrize("name,N", _GRIDS)
def test_neighbors_and_edge_index_read_the_pattern(name, N):
    g = G.build_grid(G.topology_from_name(name), N, 3)
    e = g.edges
    for v in (0, g.num_vertices // 2, g.num_vertices - 1):
        want = np.unique(np.concatenate([e[e[:, 0] == v, 1], e[e[:, 1] == v, 0]]))
        s = g.stencil()
        assert np.array_equal(s.indices[s.indptr[v]:s.indptr[v + 1]], want)
    i = g.edge_index(e[:, 1], e[:, 0])
    assert np.array_equal(np.sort(e[i], axis=1), np.sort(e, axis=1))


def _scattered_classes(grid):
    """The former class table, kept as the oracle of Grid.displacement_classes:
    class offsets scattered from the E edge rows, form_index cast from int64."""
    offs = grid.edge_offset.astype(np.int64)
    key = np.zeros(len(offs), dtype=np.int64)
    for k in range(grid.n):
        key = key * 5 + offs[:, k] + 2
    present = np.bincount(key, minlength=5 ** grid.n) > 0
    cls = (np.cumsum(present) - 1)[key]
    class_offset = np.zeros((int(present.sum()), grid.n), dtype=np.int64)
    class_offset[cls] = offs
    form_index = (grid.edges * len(class_offset) + cls[:, None]).astype(np.int32)
    return class_offset * np.asarray(grid.spacing), form_index


def test_displacement_classes_hold_bit_equal_displacements():
    for name, N in _GRIDS + [("cube3", 6), ("cube4", 5), ("interval", 7)]:
        g = G.build_grid(G.topology_from_name(name), N, 3)
        disp, index = g.displacement_classes()
        for got, want in zip((disp, index), _scattered_classes(g)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        cls = index[:, 0] - g.edges[:, 0] * len(disp)
        assert np.array_equal(index[:, 1] - g.edges[:, 1] * len(disp), cls)
        assert np.array_equal(disp[cls], _edge_disp(g))
        assert len(np.unique(disp, axis=0)) == len(disp)


@pytest.mark.parametrize("bad", [3, -3])
def test_an_offset_outside_the_class_key_raises(bad):
    # the base-5 class key of an offset outside [-2, 2] aliases another class
    g = G.build_grid(G.square(), 6, 3)
    offset = g.edge_offset.copy()
    offset[3, 0] = bad
    grid = G.Grid(g.topology, g.resolution, g.stencil_order, g.coords, g.edges, offset,
                  g.cells, g.cell_corner_xy, g.cell_chart_vol, g.face_sets, g.spacing,
                  g.lattice_vid, g.lattice_shape, g.antipode_map, g.chart_degenerate,
                  g.quotient_volume_factor)
    with pytest.raises(G.GridError, match="offset"):
        F.flat_metric(grid).edge_lengths()


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(want), np.finfo(float).tiny))


def _cancellation(field):
    """Per edge, the sum of the absolute terms of the mean endpoint form over
    the form: 1 when no term cancels, at most n times the condition number."""
    e, d = field.grid.edges, _edge_disp(field.grid)
    a = np.abs(field.tensors)
    terms = sum(np.einsum("ei,eij,ej->e", np.abs(d), a[e[:, s]], np.abs(d)) for s in (0, 1))
    return 0.5 * terms / _reference_edge_lengths(field) ** 2


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["square", "torus2", "cylinder", "hexagon:regular", "cube3"]),
       data=st.data(), seed=st.integers(0, 2 ** 20), hi=st.sampled_from([1.0, 4.0, 16.0]))
def test_edge_lengths_within_four_ulp_of_the_mean_tensor_form(name, data, seed, hi):
    # 4 ulp where no term of the form cancels, widened by the cancellation:
    # eigenvalues in (1/4, 4) moved 2 of 4.8 million edges by 5 ulp
    top = G.topology_from_name(name)
    g = G.build_grid(top, data.draw(st.integers(5 if any(top.periodic) else 4, 12)), 3)
    f = F.random_spd_metric(g, seed, (1.0 / hi, hi))
    assert (_ulps(f.edge_lengths(), _reference_edge_lengths(f)) <= 4 * _cancellation(f)).all()


def _einsum_edge_lengths(field):
    """edge_lengths as it was with one einsum over the per-class forms."""
    disp, index = field.grid.displacement_classes()
    ends = np.einsum("ki,vij,kj->vk", disp, field.tensors, disp).ravel()[index]
    return np.sqrt(np.maximum(0.5 * (ends[:, 0] + ends[:, 1]), 0.0))


def _former_edge_lengths(field):
    """edge_lengths as it was before it read contiguous entry rows: one strided
    broadcast of the class displacements against the (V, n, n) tensors."""
    disp, index = field.grid.displacement_classes()
    ends = F._quadratic_forms(disp[None], field.tensors[:, None]).ravel()[index]
    return np.sqrt(np.maximum(0.5 * (ends[:, 0] + ends[:, 1]), 0.0))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name,N", [
    ("interval", 6), ("square", 6), ("square", 13), ("cylinder", 13), ("torus2", 6),
    ("torus2", 13), ("hexagon:regular", 13), ("hexagon:tripod:0.46:0.12", 21), ("cube3", 6),
    ("cube4", 4), ("sphere2", 14), ("rp2", 6), ("rp2", 14)])
def test_edge_lengths_are_bit_equal_to_the_einsum_oracle(name, N, order):
    g = G.build_grid(G.topology_from_name(name), N, order)
    if g.topology.kind in ("sphere2", "rp2"):
        u = 0.3 * np.cos(2 * np.pi * g.coords[:, 1]) ** 2  # antipodally even
        f = F.conformal_rescale(F.round_sphere_metric(g, 1.0), u)
    else:
        f = F.random_spd_metric(g, N, (0.25, 4.0))
    assert np.array_equal(f.edge_lengths(), _einsum_edge_lengths(f))
    assert np.array_equal(f.edge_lengths(), _former_edge_lengths(f))


def test_edge_lengths_peak_no_higher_than_the_former_kernel():
    g = G.build_grid(G.square(), 192, 3)
    tensors = F.random_spd_metric(g, 0, (0.25, 4.0)).tensors
    g.displacement_classes()
    peaks = []
    for lengths in (F.MetricField.edge_lengths, _former_edge_lengths):
        f = F.MetricField(g, tensors, validate=False)
        tracemalloc.start()
        try:
            lengths(f)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the entry rows are freed before the (V, K) table is gathered
    assert peaks[0] <= peaks[1]


def test_edge_lengths_of_a_constant_metric_are_translation_invariant():
    g = G.build_grid(G.torus2(), 16, 3)
    f = F.constant_metric(g, [[1.3, 0.3], [0.3, 0.9]])
    disp, index = g.displacement_classes()
    cls = index[:, 0] - g.edges[:, 0] * len(disp)
    w = f.edge_lengths()
    for k in range(len(disp)):
        assert len(np.unique(w[cls == k])) == 1


def _singular_cell_field(tensor):
    g = G.build_grid(G.square(), 9, 3)
    t = F.flat_metric(g).tensors.copy()
    for corner in g.cells[40]:
        t[corner] = tensor
    return F.MetricField(g, t, validate=False)


@pytest.mark.parametrize("tensor", [np.diag([1.0, 0.0]), np.array([[1.0, 2.0], [2.0, 1.0]])])
def test_a_cell_tensor_without_positive_determinant_makes_the_check_raise(tensor):
    f = _singular_cell_field(tensor)
    with pytest.raises(B.BesicovitchError, match="not positive definite"):
        B.verify_besicovitch(f)


def test_closed_form_cell_kernels_match_lapack():
    g = G.build_grid(G.square(), 24, 3)
    f = F.random_spd_metric(g, 5, (0.25, 4.0))
    t = f.cell_tensors()
    det = f.cell_det()
    assert np.allclose(det, np.linalg.det(t), rtol=1e-14, atol=0)
    g3 = G.build_grid(G.cube(3), 5, 2)
    t3 = F.random_spd_metric(g3, 5).cell_tensors()
    assert np.array_equal(F._det(t3), np.linalg.det(t3))


def _reference_cell_tensors(field):
    cells = field.grid.cells
    valid = cells >= 0
    t = field.tensors[np.where(valid, cells, 0)] * valid[:, :, None, None]
    return t.sum(axis=1) / valid.sum(axis=1)[:, None, None]


@pytest.mark.parametrize("name,N", [("square", 9), ("hexagon:tripod:0.46:0.12", 21),
                                    ("rp2", 16)])
def test_cell_tensors_equal_the_per_corner_gather(name, N):
    _, fs = _fields(name, N)
    for f in fs:
        assert np.array_equal(f.cell_tensors(), _reference_cell_tensors(f))
