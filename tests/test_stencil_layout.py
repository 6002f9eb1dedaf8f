"""The stencil structure that a grid owns, against the COO builds it replaced.

Each field's graph, lifted window and edge lengths are gathers into the
grid's CSR pattern, lifted entry order and displacement classes.  The
references below are the former per-field builds, kept as oracles.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import besicovitch as B
from metriclab import fields as F
from metriclab import geodesy as geo
from metriclab import grid as G


def _reference_edge_lengths(field):
    """Per-edge quadratic form of the mean endpoint tensor."""
    e, d = field.grid.edges, field.grid.edge_disp
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
    """COO build over an nx-by-ny window of copies, copy c = i * ny + j."""
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
        assert (np.diff(g.stencil().key) > 0).all()


@pytest.mark.parametrize("name,N", [("torus2", 5), ("torus2", 12), ("cylinder", 5),
                                    ("cylinder", 7)])
def test_lifted_windows_equal_the_coo_build(name, N):
    g, fs = _fields(name, N)
    windows = [(1, 1), (2, 3), (3, 2), (4, 1)] if name == "torus2" else [(1, 1), (3, 1), (5, 1)]
    for f in fs:
        for nx, ny in windows:
            _assert_same_csr(geo._lifted_graph(f, nx, ny), _reference_lifted_graph(f, nx, ny))


def test_lifted_window_of_the_hexagonal_torus():
    g = G.build_grid(G.torus2(), 32, 3)
    f = F.constant_metric(g, [[1.0, 0.5], [0.5, 1.0]])
    _assert_same_csr(geo._lifted_graph(f, 2, 3), _reference_lifted_graph(f, 2, 3))


@pytest.mark.parametrize("name,N", _GRIDS)
def test_neighbors_and_edge_index_read_the_pattern(name, N):
    g = G.build_grid(G.topology_from_name(name), N, 3)
    e = g.edges
    for v in (0, g.num_vertices // 2, g.num_vertices - 1):
        want = np.unique(np.concatenate([e[e[:, 0] == v, 1], e[e[:, 1] == v, 0]]))
        assert np.array_equal(g.neighbors(v), want)
    i = g.edge_index(e[:, 1], e[:, 0])
    assert np.array_equal(np.sort(e[i], axis=1), np.sort(e, axis=1))


def test_displacement_classes_hold_bit_equal_displacements():
    for name, N in _GRIDS:
        g = G.build_grid(G.topology_from_name(name), N, 3)
        disp, index = g.displacement_classes()
        cls = index[:, 0] - g.edges[:, 0] * len(disp)
        assert np.array_equal(index[:, 1] - g.edges[:, 1] * len(disp), cls)
        assert np.array_equal(disp[cls], g.edge_disp)
        assert len(np.unique(disp, axis=0)) == len(disp)


def test_a_class_with_unequal_displacements_raises():
    g = G.build_grid(G.square(), 6, 3)
    disp = g.edge_disp.copy()
    disp[3, 0] = np.nextafter(disp[3, 0], 1.0)
    bad = G.Grid(g.topology, g.resolution, g.stencil_order, g.coords, g.edges, disp,
                 g.edge_wrap, g.cells, g.cell_corner_xy, g.cell_chart_vol, g.face_sets,
                 g.spacing, g.lattice_vid, g.lattice_shape)
    with pytest.raises(G.GridError, match="displacement"):
        F.flat_metric(bad).edge_lengths()


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(want), np.finfo(float).tiny))


def _cancellation(field):
    """Per edge, the sum of the absolute terms of the mean endpoint form over
    the form: 1 when no term cancels, at most n times the condition number."""
    e, d = field.grid.edges, field.grid.edge_disp
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
    assert np.allclose(F._inv(t, det), np.linalg.inv(t), rtol=1e-13, atol=0)
    g3 = G.build_grid(G.cube(3), 5, 2)
    t3 = F.random_spd_metric(g3, 5).cell_tensors()
    assert np.array_equal(F._det(t3), np.linalg.det(t3))
    assert np.array_equal(F._inv(t3, F._det(t3)), np.linalg.inv(t3))


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
