import itertools

import numpy as np
import pytest

from metriclab import grid as G


def test_square_4_order1_counts():
    g = G.build_grid(G.square(), 4, 1)
    assert g.num_vertices == 16
    assert g.num_edges == 24


def test_torus_4_order1_counts_and_degrees():
    g = G.build_grid(G.torus2(), 4, 1)
    assert g.num_vertices == 16
    assert g.num_edges == 32
    assert set(g.degrees().tolist()) == {4}


def test_interior_degree_order3_matches_offset_enumeration():
    # oracle: enumerate the 16-neighbor offset set directly
    offsets = {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)}
    offsets |= {(s1 * a, s2 * b) for (a, b) in [(1, 2), (2, 1)] for s1 in (1, -1) for s2 in (1, -1)}
    assert len(offsets) == 16
    g = G.build_grid(G.square(), 64, 3)
    deg = g.degrees()
    h = 1.0 / 63
    interior = (np.abs(g.coords - 0.5) <= 0.5 - 2.5 * h).all(axis=1)
    assert set(deg[interior].tolist()) == {len(offsets)}


def test_stencil_offsets_are_half_sets():
    assert len(G.stencil_offsets(2, 1)) == 2
    assert len(G.stencil_offsets(2, 2)) == 4
    assert len(G.stencil_offsets(2, 3)) == 8
    full = np.concatenate([G.stencil_offsets(3, 3), -G.stencil_offsets(3, 3)])
    assert len(np.unique(full, axis=0)) == 26 + 24


def test_neighbor_symmetry_and_disp_antisymmetry():
    for top in (G.square(), G.torus2(), G.cylinder()):
        g = G.build_grid(top, 8, 3)
        seen = {}
        for (a, b), d in zip(map(tuple, g.edges), g.edge_disp):
            seen[(a, b)] = d
        for v in range(g.num_vertices):
            for w in g.neighbors(v):
                assert v in g.neighbors(int(w))
        # displacement of (v, w) is consistent with coords + wrap
        target = g.coords[g.edges[:, 1]] + g.edge_wrap - g.coords[g.edges[:, 0]]
        assert np.allclose(target, g.edge_disp, atol=1e-12)


def test_coords_inside_unit_box():
    for top in (G.square(), G.torus2(), G.sphere2(), G.hexagon()):
        g = G.build_grid(top, 8, 2)
        assert (g.coords >= -1e-12).all() and (g.coords <= 1 + 1e-12).all()


def test_face_vertices_square():
    g = G.build_grid(G.square(), 8, 1)
    fa = G.face_vertices(g, "A")
    assert len(fa) == 8
    assert np.allclose(g.coords[fa, 0], 0.0)


def test_face_vertices_cube3():
    g = G.build_grid(G.cube(3), 8, 1)
    fa = G.face_vertices(g, "A'")
    assert len(fa) == 64
    assert np.allclose(g.coords[fa, 0], 1.0)


def test_face_vertices_closed_topology_raises():
    g = G.build_grid(G.torus2(), 8, 1)
    with pytest.raises(G.GridError):
        G.face_vertices(g, "A")


def test_unknown_face_label_raises():
    g = G.build_grid(G.square(), 8, 1)
    with pytest.raises(G.GridError):
        G.face_vertices(g, "Z")


def test_opposite_faces_disjoint():
    for top in (G.square(), G.cube(3), G.hexagon()):
        g = G.build_grid(top, 12, 1)
        for fa, fb in top.face_pairs():
            a, b = G.face_vertices(g, fa), G.face_vertices(g, fb)
            assert len(np.intersect1d(a, b)) == 0


def test_deck_translate_torus():
    g = G.build_grid(G.torus2(), 16, 1)
    v = g.vertex_at((4, 8))
    assert np.allclose(G.deck_translate(g, v, (1, 0)), [1.25, 0.5])
    assert np.allclose(G.deck_translate(g, v, (0, 0)), g.coords[v])


def test_deck_translate_cylinder_and_errors():
    g = G.build_grid(G.cylinder(), 8, 1)
    v = g.vertex_at((0, 0))
    assert np.allclose(G.deck_translate(g, v, 2), g.coords[v] + [2.0, 0.0])
    gs = G.build_grid(G.square(), 8, 1)
    with pytest.raises(G.GridError):
        G.deck_translate(gs, 0, (1, 0))


def test_antipode_poles_and_equator():
    g = G.build_grid(G.sphere2(), 16, 1)
    south = np.where((g.coords[:, 1] == 0.0))[0][0]
    north = np.where((g.coords[:, 1] == 1.0))[0][0]
    assert G.antipode(g, south) == north
    eq = g.vertex_at((0, 8))
    aeq = G.antipode(g, eq)
    assert np.allclose(g.coords[aeq], [0.5, 0.5])


def test_antipode_involutive_exhaustive():
    g = G.build_grid(G.rp2(), 16, 2)
    a = g.antipode_map
    assert (a[a] == np.arange(g.num_vertices)).all()
    # latitude flips, longitude shifts by half a turn
    inner = ~g.chart_degenerate
    lat = g.coords[inner, 1]
    assert np.allclose(g.coords[a[inner], 1], 1.0 - lat, atol=1e-12)
    dlon = (g.coords[a[inner], 0] - g.coords[inner, 0]) % 1.0
    assert np.allclose(dlon, 0.5, atol=1e-12)


def test_antipode_requires_sphere():
    g = G.build_grid(G.torus2(), 8, 1)
    with pytest.raises(G.GridError):
        G.antipode(g, 0)


def test_build_errors():
    with pytest.raises(G.GridError):
        G.build_grid(G.square(), 3, 1)
    with pytest.raises(G.GridError):
        G.build_grid(G.square(), 8, 4)
    with pytest.raises(G.GridError):
        G.build_grid(G.sphere2(), 9, 1)
    with pytest.raises(G.GridError):
        G.build_grid(G.hexagon("tripod:0.3:0.002"), 8, 1)


@pytest.mark.parametrize("top", [G.torus2(), G.cylinder(), G.sphere2(), G.rp2()],
                         ids=lambda t: t.kind)
def test_order3_needs_five_points_on_a_periodic_axis(top):
    # on 4 points a knight step and its reverse would join one vertex pair
    with pytest.raises(G.GridError, match="at least 5"):
        G.build_grid(top, 4, 3)
    for order in (1, 2):
        g = G.build_grid(top, 4, order)
        pairs = np.sort(g.edges, axis=1)
        assert len(np.unique(pairs, axis=0)) == len(pairs)
    G.build_grid(G.square(), 4, 3)  # bounded axes keep the floor of 4


def test_hexagon_masks():
    g = G.build_grid(G.hexagon(), 64, 3)
    # regular hexagon inscribed with circumradius 1/2: area 3 sqrt(3) / 8
    assert g.cell_chart_vol.sum() == pytest.approx(3 * np.sqrt(3) / 8, rel=1e-9)
    assert set(g.face_sets) == {f"S{k}" for k in range(6)}
    assert all(len(v) > 0 for v in g.face_sets.values())
    t = G.build_grid(G.hexagon("tripod:0.46:0.024"), 128, 3)
    assert 0.02 < t.cell_chart_vol.sum() < 0.04
    assert all(len(t.face_sets[f"S{k}"]) > 0 for k in range(6))


def test_masked_vertices_carry_no_edges():
    g = G.build_grid(G.hexagon("tripod:0.46:0.024"), 96, 3)
    # every edge endpoint is an active (existing) vertex by construction;
    # and the mask keeps edges inside the domain: midpoints stay in the legs
    spec = G._parse_hexagon_mask("tripod:0.46:0.024")
    mids = 0.5 * (g.coords[g.edges[:, 0]] + g.coords[g.edges[:, 1]])
    assert G._mask_inside(mids, spec).all()


def test_topology_from_name_roundtrip():
    for name in ("interval", "square", "cube:3", "cube:4", "hexagon",
                 "hexagon:tripod:0.46:0.024", "cylinder", "torus2", "sphere2", "rp2"):
        top = G.topology_from_name(name)
        assert G.topology_from_name(top.descriptor()) == top
    with pytest.raises(G.GridError):
        G.topology_from_name("moebius")


def test_wrap_edges_cross_seam_with_correct_displacement():
    g = G.build_grid(G.torus2(), 8, 1)
    wrapped = np.abs(g.edge_wrap).sum(axis=1) > 0
    assert wrapped.any()
    # unwrapped target = coords[w] + wrap equals coords[v] + disp
    lhs = g.coords[g.edges[wrapped, 1]] + g.edge_wrap[wrapped]
    rhs = g.coords[g.edges[wrapped, 0]] + g.edge_disp[wrapped]
    assert np.allclose(lhs, rhs, atol=1e-12)
