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
    for name in ("moebius", "cube", "cube:x", "cube3:foo", "cube:5", "square:x", "rp2:"):
        with pytest.raises(G.GridError):
            G.topology_from_name(name)


def test_wrap_edges_cross_seam_with_correct_displacement():
    g = G.build_grid(G.torus2(), 8, 1)
    wrapped = np.abs(g.edge_wrap).sum(axis=1) > 0
    assert wrapped.any()
    # unwrapped target = coords[w] + wrap equals coords[v] + disp
    lhs = g.coords[g.edges[wrapped, 1]] + g.edge_wrap[wrapped]
    rhs = g.coords[g.edges[wrapped, 0]] + g.edge_disp[wrapped]
    assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# the grid layouts, pinned bit for bit

LAYOUT_ARRAYS = ("coords", "edges", "edge_disp", "edge_wrap", "cells", "cell_corner_xy",
                 "cell_chart_vol", "lattice_vid", "antipode_map")


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
    ("interval", 1): "fe32ed930da15e5824c39485c46c20ea371081057314fb15bd11cd172ca21597",
    ("interval", 2): "fe32ed930da15e5824c39485c46c20ea371081057314fb15bd11cd172ca21597",
    ("interval", 3): "fe32ed930da15e5824c39485c46c20ea371081057314fb15bd11cd172ca21597",
    ("square", 1): "33449e3025e63029d8e4e15922af10f07cf5a06a6544d9e5db1790ce3ed624a3",
    ("square", 2): "38580668543eb1f3032035874960a4e2d96864322670cdfffaa64879d9c7136b",
    ("square", 3): "0776df4d867f1ad10aba66042ecc9745c67207c7aa5fae109b016b534a7919da",
    ("cube3", 1): "6f0aadb26327328b898ef0cc1ed730b7003317bb49401aeda2770b3cd18d7957",
    ("cube3", 2): "cb72e284461dd1df11c223fae635296d66e7d4befef4c9402553b1bd6afa58b2",
    ("cube3", 3): "95955c707732f5c7fbc12a34c89b6c5d931f136208d8f89278da77f657abc9a2",
    ("cube4", 1): "59d7db8e3ab48f38418153daadc1e2a5adb77221bac7efe7d845bb7572c47552",
    ("cube4", 2): "d28b93b5f072a5ffa64c3f32f1116a1e8f1bc259aec5af7190401bc577858cc4",
    ("cube4", 3): "2604acc68d67c717932515c59d85ca000ef5927ea57ce09e132def43ec432681",
    ("hexagon", 1): "42891dfc1d775325cdf63d4bcccd1958d002e051ed71c8bce952146452122acf",
    ("hexagon", 2): "45b58b2a4be695b20accfb856541f837868ec4b92fbd0b737f72b611b7c21fb2",
    ("hexagon", 3): "793ccd28fe5b38afc8eae5687e4b8a47a96c03f3f054aceeff48260a6be8ddbb",
    ("hexagon:tripod:0.46:0.024", 1): "b6435f4c443cf9b7cc178dd59d2a29c4c863f76e0bae598c1b8ae770e83ddac2",
    ("hexagon:tripod:0.46:0.024", 2): "f498e75b59ccf849a0b085c9681c94e04044f4af0e1be25c1480f1d1eebdffec",
    ("hexagon:tripod:0.46:0.024", 3): "ef26f3c46177de5e3c69b2ffc655ee5cc2d7df6ae1a1e639b7e3a78a30aada9e",
    ("cylinder", 1): "f0026177d2964ea86222cedf72aedc61da60af1671f785eced2f1f566da2e17d",
    ("cylinder", 2): "d14a393e4d29e0885d848f5cbd9b973b342cf5f7f3371dcb5c75d31ba52a844a",
    ("cylinder", 3): "3b8ac5a0a115f429b8b03631b59480c6869c0e64c2069dceaad4d1e147cd6946",
    ("torus2", 1): "e92886dd574572e3963b261ddfa77f7fd01bac3c7fe359127e2ba919cc7cf49f",
    ("torus2", 2): "c879eb25d381ac1671c4e4ae232bad50d17433478068dd1a03eec261053a0415",
    ("torus2", 3): "2c6f37a6a002ac3958b5fe5ec24aedee24ea074c4c7034e585889faa9da319ca",
    ("sphere2", 1): "c341fb401451e6a61d46ac444964fc5a8b4ba06f66a1e3cc65b4c8438c83dc60",
    ("sphere2", 2): "d7254e42725618528173108a3575a900882574bc0db4af5cbbdd8ccafb186b10",
    ("sphere2", 3): "217ac71861f7110febbad7bd54d8aa3eb5576298043337e1bc0c2fcdf4b09495",
    ("rp2", 1): "c341fb401451e6a61d46ac444964fc5a8b4ba06f66a1e3cc65b4c8438c83dc60",
    ("rp2", 2): "d7254e42725618528173108a3575a900882574bc0db4af5cbbdd8ccafb186b10",
    ("rp2", 3): "217ac71861f7110febbad7bd54d8aa3eb5576298043337e1bc0c2fcdf4b09495",
}


@pytest.mark.parametrize("kind,order", sorted(LAYOUT_DIGESTS))
def test_grid_layouts_are_pinned(kind, order):
    assert _layout_digest(kind, order) == LAYOUT_DIGESTS[kind, order]


# The sphere refuses odd N, so LAYOUT_DIGESTS pins it at N = 8 alone; these
# pin it at two more even resolutions.
SPHERE_LAYOUT_DIGESTS = {
    ("sphere2", 1): "c211b96dcdaf7afcbaccc2c588a5d687290bfd9e459b800c2ecad7f08a3c1c6c",
    ("sphere2", 2): "53383c22854f35eb6d3491f86f1f6a3c4b779448af2cb4c8144f15ce45218fd3",
    ("sphere2", 3): "7fd6f97459e536d9dfa999584f032477212560b9ee29e9a39db998d1eb8a6a71",
    ("rp2", 1): "c211b96dcdaf7afcbaccc2c588a5d687290bfd9e459b800c2ecad7f08a3c1c6c",
    ("rp2", 2): "53383c22854f35eb6d3491f86f1f6a3c4b779448af2cb4c8144f15ce45218fd3",
    ("rp2", 3): "7fd6f97459e536d9dfa999584f032477212560b9ee29e9a39db998d1eb8a6a71",
}


@pytest.mark.parametrize("kind,order", sorted(SPHERE_LAYOUT_DIGESTS))
def test_sphere_layouts_at_even_resolutions_are_pinned(kind, order):
    assert _layout_digest(kind, order, (16, 34)) == SPHERE_LAYOUT_DIGESTS[kind, order]
