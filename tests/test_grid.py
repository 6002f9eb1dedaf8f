import hashlib
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
    assert set(np.bincount(g.edges.ravel()).tolist()) == {4}


def test_interior_degree_order3_matches_offset_enumeration():
    # oracle: enumerate the 16-neighbor offset set directly
    offsets = {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)}
    offsets |= {(s1 * a, s2 * b) for (a, b) in [(1, 2), (2, 1)] for s1 in (1, -1) for s2 in (1, -1)}
    assert len(offsets) == 16
    g = G.build_grid(G.square(), 64, 3)
    deg = np.bincount(g.edges.ravel(), minlength=g.num_vertices)
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
        s = g.stencil()
        for v in range(g.num_vertices):
            for w in s.indices[s.indptr[v]:s.indptr[v + 1]]:
                assert v in s.indices[s.indptr[w]:s.indptr[w + 1]]
        # coords[v] + offset * spacing is coords[w] plus whole seam crossings,
        # none along a bounded axis
        jump = (g.coords[g.edges[:, 0]] + g.edge_offset * np.asarray(g.spacing)
                - g.coords[g.edges[:, 1]])
        assert np.allclose(jump, np.rint(jump), atol=1e-12)
        assert (np.rint(jump)[:, ~np.array(top.periodic)] == 0).all()


def test_coords_inside_unit_box():
    for top in (G.square(), G.torus2(), G.sphere2(), G.hexagon()):
        g = G.build_grid(top, 8, 2)
        assert (g.coords >= -1e-12).all() and (g.coords <= 1 + 1e-12).all()


@pytest.mark.parametrize("top, N", [(G.square(), 9), (G.hexagon("regular"), 16),
                                    (G.cube(3), 5), (G.sphere2(), 8)])
def test_axis_values_are_each_axis_distinct_coordinates_computed_once(top, N):
    g = G.build_grid(top, N, 1)
    axes = g.axis_values()
    assert axes is g.axis_values() and len(axes) == g.n
    for k, (values, inverse) in enumerate(axes):
        assert np.array_equal(values, np.unique(g.coords[:, k]))
        assert np.array_equal(values[inverse], g.coords[:, k])


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
    assert np.array_equal(G.deck_translate(g, v, [2]), G.deck_translate(g, v, 2))
    gs = G.build_grid(G.square(), 8, 1)
    with pytest.raises(G.GridError):
        G.deck_translate(gs, 0, (1, 0))


@pytest.mark.parametrize("kind,cls", [
    ("cylinder", (1, 5)), ("cylinder", (0, 5)), ("cylinder", 1.7), ("cylinder", []),
    ("cylinder", "1"), ("torus2", (1, 0, 7)), ("torus2", (1.5, 0)), ("torus2", (0.5, 0)),
    ("torus2", 1), ("torus2", np.array([[1, 0]]))])
def test_a_malformed_deck_class_is_refused(kind, cls):
    # torus2 takes two integers, the cylinder one, bare or in a 1-element
    # sequence; nothing is truncated or read in part
    g = G.build_grid(G.topology_from_name(kind), 8, 1)
    with pytest.raises(G.GridError, match="deck class"):
        G.deck_translate(g, 0, cls)


def test_deck_classes_of_numpy_integers_are_read_as_ints():
    g = G.build_grid(G.torus2(), 8, 1)
    # Python ints: a witness file prints its class with repr
    assert repr(G._deck_class("torus2", np.array([1, -2]))) == "(1, -2)"
    assert repr(G._deck_class("cylinder", np.int64(3))) == "(3, 0)"
    assert np.array_equal(G.deck_translate(g, 5, (np.int64(1), 0)), g.coords[5] + [1.0, 0.0])


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
    for name in ("moebius", "cube", "cube:x", "cube3:foo", "cube:5", "square:x", "rp2:"):
        with pytest.raises(G.GridError):
            G.topology_from_name(name)


def test_wrap_edges_cross_seam_with_correct_displacement():
    g = G.build_grid(G.torus2(), 8, 1)
    # the torus's vertex map is the identity: each edge steps from the
    # lattice index of edges[e, 0] by its offset, mod N
    step = np.stack(np.unravel_index(g.edges[:, 0], g.lattice_shape), axis=1) + g.edge_offset
    assert (step % 8 == np.stack(np.unravel_index(g.edges[:, 1], g.lattice_shape), axis=1)).all()
    wrap = step // 8
    wrapped = np.abs(wrap).sum(axis=1) > 0
    assert wrapped.any()
    # unwrapped target = coords[w] + wrap equals coords[v] + offset * spacing
    lhs = g.coords[g.edges[wrapped, 1]] + wrap[wrapped]
    rhs = g.coords[g.edges[wrapped, 0]] + g.edge_offset[wrapped] * np.asarray(g.spacing)
    assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# the grid layouts, pinned bit for bit

LAYOUT_ARRAYS = ("coords", "edges", "edge_offset", "cells", "cell_corner_xy", "cell_chart_vol",
                 "lattice_vid", "antipode_map")


def _layout_digest(kind, order, resolutions=None):
    """sha256 over the dtype, shape and bytes of every layout array and face
    set of the grids of one kind and stencil order at the given resolutions,
    by default N = 5, 8, 9 and 33 (cubes only up to 9), or over the refusal
    of a grid that cannot be built."""
    if resolutions is None:
        resolutions = (5, 8, 9) if kind.startswith("cube") else (5, 8, 9, 33)
    h = hashlib.sha256()
    for N in resolutions:
        try:
            g = G.build_grid(G.topology_from_name(kind), N, order)
        except G.GridError as err:
            h.update(f"{N} refused: {err}".encode())
            continue
        named = [(name, getattr(g, name)) for name in LAYOUT_ARRAYS]
        named += [(f"face {face}", g.face_sets[face]) for face in sorted(g.face_sets)]
        for name, a in named:
            if a is not None:
                h.update(f"{N} {name} {a.dtype.str} {a.shape}".encode())
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


LAYOUT_DIGESTS = {
    ("interval", 1): "4910552c50265b9fe6a0348ae9d5cf813e8f2c48db75922d462fe0e8cf606c35",
    ("interval", 2): "4910552c50265b9fe6a0348ae9d5cf813e8f2c48db75922d462fe0e8cf606c35",
    ("interval", 3): "4910552c50265b9fe6a0348ae9d5cf813e8f2c48db75922d462fe0e8cf606c35",
    ("square", 1): "ded9284d143dde4efb50f21776e92e9c257e7254870442262f4bada2fc7b4ffa",
    ("square", 2): "a2406589c9e4acd6735d38715dbffac9d1f16935e02dd30d941516ace640c0ed",
    ("square", 3): "bf154207cf2974dc9fd932de594da1ffc017f120b86b874333e4a1de42cf2250",
    ("cube3", 1): "69326c3befecb7b28a5b0c57ddd3997c926eaf19a8f303bf859a6675cd597a0a",
    ("cube3", 2): "2f3ffb5f1e1236d0de608a0d4d90e18c8e7c90e7cb0133efac9e4de21febb803",
    ("cube3", 3): "2859cfe6b31b4cee816c6b7096f95d5cd79b3039d9a2d25273b6ac6deed1cdf8",
    ("cube4", 1): "65cabc35af3b423d3d4afd189b5cf8d74d2e9c3a7ee400062ddf7bc08386b205",
    ("cube4", 2): "7446043093a3ffb58fafd07f241fe62fd0fd288e7acb75890003673ff61e71fe",
    ("cube4", 3): "c13b248ff3071dacf01c62c6bfd8fe1c307cf802373e343c2416ee0699d9cfcc",
    ("hexagon", 1): "c97eaaf06f066fd1af31951f99a58b18fbacaba38b7d19958242f7e80a379208",
    ("hexagon", 2): "36bf05f61bcd4a6fed8ea15ac9b4861821113b05ad2642a1b8feb6809a20362e",
    ("hexagon", 3): "77f2a9dd36daad79129a46acd12a8a346fb0a409465896e2d459aec9ffcf673b",
    ("hexagon:tripod:0.46:0.024", 1): "8c4d6499e072572b692f7b9b1616cf6727263e550609925cdafee24b175a93bb",
    ("hexagon:tripod:0.46:0.024", 2): "40fa3f024e251b8bb45fde56908aad714914fc3b633f94beec94fd0bc85d2b47",
    ("hexagon:tripod:0.46:0.024", 3): "38317bf758e7275f1fbe23cd0d8bf565d80a9994767a9c607998f6a506fe3950",
    ("cylinder", 1): "7de3d1c2c871e8ba1bbb83c0ca80db8c3142234800b80cf6c49b06af399dcb9b",
    ("cylinder", 2): "20e289c6191cd90148daa6f959c8fd4cfac071de78b863511c2ef15680ed77e0",
    ("cylinder", 3): "642367bcaff785fd87f2e1f9d37f83dadaf25a742bc0cbf93176c4b9af7b6d43",
    ("torus2", 1): "8caee1843cc064957c4ea1dae63bf9631528efa263f6bfdc2a30cd2f8baa3c17",
    ("torus2", 2): "70c44bf6837a8c90978d9d3de0907798d7eebe16cecbbbd8d3c576676d27622a",
    ("torus2", 3): "ec7344e292a461a0eda51e8c22424fd7ab6e0d03c8186492e0a65196bb91c897",
    ("sphere2", 1): "62a4e19ce690088bc515cfb4910b96419e969a6d33463c4460164aede143c613",
    ("sphere2", 2): "1b149e63c8d39873b3d40a08a7e8f09db5d09d52954d5532a082baa6dcdcd27e",
    ("sphere2", 3): "26c2af6d03ce34123fa1a19d56a24dfc7b7b1d22f9aea700b4f248300f1d5251",
    ("rp2", 1): "62a4e19ce690088bc515cfb4910b96419e969a6d33463c4460164aede143c613",
    ("rp2", 2): "1b149e63c8d39873b3d40a08a7e8f09db5d09d52954d5532a082baa6dcdcd27e",
    ("rp2", 3): "26c2af6d03ce34123fa1a19d56a24dfc7b7b1d22f9aea700b4f248300f1d5251",
}


@pytest.mark.parametrize("kind,order", sorted(LAYOUT_DIGESTS))
def test_grid_layouts_are_pinned(kind, order):
    assert _layout_digest(kind, order) == LAYOUT_DIGESTS[kind, order]


# The sphere refuses odd N, so LAYOUT_DIGESTS pins it at N = 8 alone; these
# pin it at two more even resolutions.
SPHERE_LAYOUT_DIGESTS = {
    ("sphere2", 1): "e9c27b297fd7d9f8519986d6101e86959fe249eb66b1540fc65999e603ae2358",
    ("sphere2", 2): "17a5d50cab7057ba7fc27a82cc812214f40e01d76847005c304df26db17feb8f",
    ("sphere2", 3): "0d998da166c5d65018a7dc8db931a018860977a40ce43466c659592352fca686",
    ("rp2", 1): "e9c27b297fd7d9f8519986d6101e86959fe249eb66b1540fc65999e603ae2358",
    ("rp2", 2): "17a5d50cab7057ba7fc27a82cc812214f40e01d76847005c304df26db17feb8f",
    ("rp2", 3): "0d998da166c5d65018a7dc8db931a018860977a40ce43466c659592352fca686",
}


@pytest.mark.parametrize("kind,order", sorted(SPHERE_LAYOUT_DIGESTS))
def test_sphere_layouts_at_even_resolutions_are_pinned(kind, order):
    assert _layout_digest(kind, order, (16, 34)) == SPHERE_LAYOUT_DIGESTS[kind, order]
