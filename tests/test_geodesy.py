import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from metriclab import fields as F
from metriclab import geodesy as geo
from metriclab import grid as G
from metriclab import covers as C

HEX = np.array([[1.0, 0.5], [0.5, 1.0]])


def test_distance_to_face_is_coordinate_exact():
    g = G.build_grid(G.square(), 64, 3)
    f = F.flat_metric(g)
    d = geo.distance_field(f, G.face_vertices(g, "A"))
    assert np.allclose(d.dist, g.coords[:, 0], atol=1e-12)
    assert (d.dist[G.face_vertices(g, "A")] == 0).all()


def test_edge_relaxation_invariant():
    g = G.build_grid(G.torus2(), 24, 3)
    f = F.random_spd_metric(g, 5, (0.5, 2.0))
    d = geo.distance_field(f, [0])
    e, w = g.edges, f.edge_lengths()
    gap = d.dist[e[:, 1]] - d.dist[e[:, 0]]
    assert (np.abs(gap) <= w + 1e-12).all()


def test_corner_distance_within_stencil_distortion():
    g = G.build_grid(G.square(), 64, 3)
    f = F.flat_metric(g)
    d = geo.distance_field(f, [g.vertex_at((0, 0))])
    ratio = d.dist[g.vertex_at((63, 63))] / math.sqrt(2)
    assert 1.0 - 1e-12 <= ratio <= 1.028


def test_stencil_distortion_on_random_pairs():
    g = G.build_grid(G.square(), 48, 3)
    f = F.flat_metric(g)
    rng = np.random.default_rng(0)
    sources = rng.integers(0, g.num_vertices, size=100)
    D = geo.distance_matrix(f, sources)
    targets = rng.integers(0, g.num_vertices, size=100)
    graph = D[np.arange(100), targets]
    euclid = np.linalg.norm(g.coords[sources] - g.coords[targets], axis=1)
    keep = euclid > 0.05
    ratio = graph[keep] / euclid[keep]
    assert (ratio >= 1.0 - 1e-9).all()
    assert (ratio <= 1.028).all()


def test_sphere_pole_to_pole():
    g = G.build_grid(G.sphere2(), 64, 3)
    f = F.round_sphere_metric(g, 1.0)
    south = np.where(g.coords[:, 1] == 0.0)[0][0]
    north = np.where(g.coords[:, 1] == 1.0)[0][0]
    d = geo.distance_field(f, [south], quotient=False)
    assert d.dist[north] == pytest.approx(math.pi, rel=0.02)


def test_empty_sources_error():
    g = G.build_grid(G.square(), 8, 1)
    with pytest.raises(geo.GeodesyError):
        geo.distance_field(F.flat_metric(g), [])


def test_face_distance_values_and_symmetry():
    g = G.build_grid(G.square(), 32, 3)
    f = F.flat_metric(g)
    assert geo.face_distance(f, "A", "A'") == pytest.approx(1.0, abs=1e-12)
    f4 = F.constant_metric(g, [[4.0, 0.0], [0.0, 1.0]])
    assert geo.face_distance(f4, "A", "A'") == pytest.approx(2.0, abs=1e-12)
    assert abs(geo.face_distance(f4, "A", "A'") - geo.face_distance(f4, "A'", "A")) <= 1e-12
    with pytest.raises(G.GridError):
        geo.face_distance(f, "A", "B")


def test_shortest_loops_flat_and_hex():
    g = G.build_grid(G.torus2(), 64, 3)
    f = F.flat_metric(g)
    assert geo.shortest_loop_in_class(f, (1, 0)).length == pytest.approx(1.0, rel=0.01)
    assert geo.shortest_loop_in_class(f, (2, 0)).length == pytest.approx(2.0, rel=0.01)
    fh = F.constant_metric(g, HEX)
    v = np.array([1.0, -1.0])
    oracle = math.sqrt(v @ HEX @ v)
    assert geo.shortest_loop_in_class(fh, (1, -1)).length == pytest.approx(oracle, rel=1e-9)
    with pytest.raises(geo.GeodesyError):
        geo.shortest_loop_in_class(f, (0, 0))


def test_loop_witness_closes_and_length_matches():
    g = G.build_grid(G.torus2(), 32, 3)
    f = F.random_spd_metric(g, 11, (0.5, 2.0))
    w = geo.shortest_loop_in_class(f, (1, 0))
    assert np.allclose(w.points[-1] - w.points[0], [1.0, 0.0], atol=1e-12)
    assert w.check_length(f)


def test_systole_flat_hex_rp2():
    g = G.build_grid(G.torus2(), 64, 3)
    assert geo.systole(F.flat_metric(g)).length == pytest.approx(1.0, rel=0.01)
    wh = geo.systole(F.constant_metric(g, HEX))
    assert wh.length == pytest.approx(1.0, rel=1e-9)
    grp = G.build_grid(G.rp2(), 32, 3)
    wr = geo.systole(F.round_sphere_metric(grp, 1.0))
    assert wr.length == pytest.approx(math.pi, rel=0.02)
    assert wr.cls == "antipodal"
    gs = G.build_grid(G.square(), 8, 1)
    with pytest.raises(geo.GeodesyError):
        geo.systole(F.flat_metric(gs))


def test_cylinder_systole_and_iterate_monotonicity():
    g = G.build_grid(G.cylinder(), 32, 3)
    f = F.flat_metric(g)
    w1 = geo.systole(f)
    assert w1.length == pytest.approx(1.0, rel=0.01)
    w2 = geo.shortest_loop_in_class(f, 2)
    assert w2.length >= w1.length - 1e-12
    f2 = F.constant_metric(g, [[4.0, 0.0], [0.0, 1.0]])
    assert geo.systole(f2).length == pytest.approx(2.0, rel=0.01)


def test_systole_scaling_covariance():
    g = G.build_grid(G.torus2(), 24, 3)
    f = F.random_spd_metric(g, 4, (0.5, 2.0))
    base = geo.systole(f)
    scaled = geo.systole(f.scaled(2.25))
    assert scaled.length == pytest.approx(1.5 * base.length, rel=1e-9)
    assert scaled.cls == base.cls


def test_radius_interval_square_circle():
    gi = G.build_grid(G.interval(), 33, 1)
    ri = geo.radius(F.flat_metric(gi))
    assert ri.value == pytest.approx(0.5, abs=1e-12)
    assert gi.coords[ri.center, 0] == pytest.approx(0.5)
    gs = G.build_grid(G.square(), 33, 3)
    rs = geo.radius(F.flat_metric(gs))
    assert math.sqrt(2) / 2 - 1e-12 <= rs.value <= math.sqrt(2) / 2 * 1.028
    circle = C.circle_graph(1.0, 64)
    assert circle.vertex_radius() == pytest.approx(0.5, abs=1e-12)


def test_triangle_inequality_random_triples():
    g = G.build_grid(G.torus2(), 24, 3)
    f = F.random_spd_metric(g, 9, (0.25, 4.0))
    rng = np.random.default_rng(1)
    sources = rng.integers(0, g.num_vertices, size=50)
    D = geo.distance_matrix(f, sources)
    p = rng.integers(0, 50, size=10000)
    q = rng.integers(0, 50, size=10000)
    r = rng.integers(0, g.num_vertices, size=10000)
    lhs = D[p, r]
    rhs = D[p, sources[q]] + D[q, r]
    assert (lhs <= rhs + 1e-9).all()


def test_source_monotonicity():
    g = G.build_grid(G.square(), 24, 3)
    f = F.random_spd_metric(g, 2, (0.5, 2.0))
    small = geo.distance_field(f, [0]).dist
    large = geo.distance_field(f, [0, g.num_vertices // 2]).dist
    assert (large <= small + 1e-12).all()


def test_rp2_equivariance():
    g = G.build_grid(G.rp2(), 24, 3)
    f = F.round_sphere_metric(g, 1.0)
    anti = g.antipode_map
    for x in (2, 17, 101):
        dx = geo.distance_field(f, [x], quotient=False).dist
        dax = geo.distance_field(f, [int(anti[x])], quotient=False).dist
        assert np.allclose(dx[anti], dax, atol=1e-9)


def test_path_extraction_matches_distance():
    g = G.build_grid(G.square(), 24, 3)
    f = F.random_spd_metric(g, 8, (0.5, 2.0))
    d = geo.distance_field(f, [0])
    target = g.num_vertices - 1
    pts = d.path_to(target)
    assert F.polyline_length(f, pts) == pytest.approx(d.dist[target], abs=1e-10)


def test_radius_disconnected_is_flagged():
    # a needle-thin tripod mask leaves isolated leg fragments
    g = G.build_grid(G.hexagon("tripod:0.46:0.004"), 33, 3)
    f = F.MetricField(g, np.broadcast_to(np.eye(2), (g.num_vertices, 2, 2)).copy(),
                      validate=False)
    r = geo.radius(f)
    assert not r.connected
    assert len(r.per_component) >= 2
    assert r.value == pytest.approx(max(v for v, _ in r.per_component))


# ---------------------------------------------------------------------------
# radii: the cut-off searches against dense all-pairs oracles

def _dense_radius(f, quotient=True):
    g = f.grid
    D = geo.distance_matrix(f, np.arange(g.num_vertices))
    if quotient and g.topology.kind == "rp2":
        D = np.minimum(D, D[:, g.antipode_map])
    if not np.isinf(D).any():
        ecc = D.max(axis=1)
        return float(ecc.min()), int(np.argmin(ecc)), True, []
    _, labels = connected_components(f.graph(), directed=False)
    per = []
    for c in range(labels.max() + 1):
        verts = np.where(labels == c)[0]
        ecc = D[np.ix_(verts, verts)].max(axis=1)
        per.append((float(ecc.min()), int(verts[np.argmin(ecc)])))
    worst = (0.0, 0)
    for value, center in per:
        if value > worst[0]:
            worst = (value, center)
    return worst[0], worst[1], False, per


def _dense_set_radius_exact(f, subset):
    ecc = geo.distance_matrix(f, subset).max(axis=0)
    return float(ecc.min()), int(np.argmin(ecc))


def _dense_set_radius_upper(f, subset, rounds, within=None):
    subset = np.asarray(subset)
    d0 = geo.distance_matrix(f, subset[:1])[0]
    far = int(subset[np.argmax(d0[subset])])
    d1 = geo.distance_matrix(f, [far])[0]
    best = (float(d1[subset].max()), far)
    d2 = geo.distance_matrix(f, [int(subset[np.argmax(d1[subset])])])[0]
    scores = np.maximum(d1, d2)
    if within is not None:
        scores[np.setdiff1d(np.arange(len(scores)), within)] = np.inf
    for _ in range(rounds):
        c = int(np.argmin(scores))
        if not np.isfinite(scores[c]):
            break
        ecc = float(geo.distance_matrix(f, [c])[0][subset].max())
        if ecc < best[0]:
            best = (ecc, c)
        scores[c] = np.inf
    return best


def _tripod():
    g = G.build_grid(G.hexagon("tripod:0.46:0.004"), 33, 3)
    return F.MetricField(g, np.broadcast_to(np.eye(2), (g.num_vertices, 2, 2)).copy(),
                         validate=False)


RADIUS_FIELDS = {
    "flat-square": lambda: F.flat_metric(G.build_grid(G.square(), 17, 3)),
    "spd-square": lambda: F.random_spd_metric(G.build_grid(G.square(), 20, 3), 5, (0.5, 2.0)),
    "spd-torus": lambda: F.random_spd_metric(G.build_grid(G.torus2(), 16, 3), 7, (0.5, 2.0)),
    "round-rp2": lambda: F.round_sphere_metric(G.build_grid(G.rp2(), 16, 3), 1.0),
    "tripod": _tripod,
    "interval": lambda: F.flat_metric(G.build_grid(G.interval(), 33, 1)),
}


@pytest.mark.parametrize("name", sorted(RADIUS_FIELDS))
def test_radius_matches_dense_oracle(name):
    f = RADIUS_FIELDS[name]()
    for quotient in (True, False):
        r = geo.radius(f, quotient=quotient)
        assert (r.value, r.center, r.connected, r.per_component) == _dense_radius(f, quotient)
    assert r.connected == (name != "tripod")


@pytest.mark.parametrize("name", sorted(RADIUS_FIELDS))
def test_set_radii_match_dense_oracle(name):
    f = RADIUS_FIELDS[name]()
    V = f.grid.num_vertices
    rng = np.random.default_rng(3)
    subsets = [np.arange(min(V, 5)), rng.choice(V, 3, replace=False),
               rng.choice(V, min(V, 150), replace=False), np.arange(0, V, 7), np.array([V - 1])]
    for S in subsets:
        assert geo.set_radius_exact(f, S) == _dense_set_radius_exact(f, S)
        for rounds in (1, 4):
            assert geo.set_radius_upper(f, S, rounds) == _dense_set_radius_upper(f, S, rounds)
            assert (geo.set_radius_upper(f, S, rounds, within=S)
                    == _dense_set_radius_upper(f, S, rounds, within=S))
    with pytest.raises(geo.GeodesyError):
        geo.set_radius_exact(f, [])


def test_set_radius_upper_center_stays_within():
    g = G.build_grid(G.square(), 9, 3)
    f = F.flat_metric(g)
    a, b = g.vertex_at((0, 2)), g.vertex_at((2, 0))
    ecc, center = geo.set_radius_upper(f, [a, b], rounds=4, within=[a, b])
    assert center in (a, b)
    assert ecc == geo.distance_field(f, [center]).dist[[a, b]].max()


def test_radius_memory_is_bounded():
    import tracemalloc

    f = F.flat_metric(G.build_grid(G.square(), 48, 3))
    tracemalloc.start()
    try:
        r = geo.radius(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.value == pytest.approx(math.sqrt(2) / 2, rel=0.03)
    # one (64, V) block at a time peaks near 2.8 MiB; an all-pairs matrix took 46 MiB
    assert peak < 8 * 2 ** 20


@settings(max_examples=25, deadline=None)
@given(N=st.integers(5, 12), seed=st.integers(0, 10_000), data=st.data())
def test_set_radius_upper_bounds_exact_from_within(N, seed, data):
    g = G.build_grid(G.square(), N, 3)
    f = F.random_spd_metric(g, seed, (0.5, 2.0))
    S = data.draw(st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=20,
                           unique=True))
    rounds = data.draw(st.integers(1, 6))
    exact, _ = geo.set_radius_exact(f, S)
    upper, center = geo.set_radius_upper(f, S, rounds=rounds, within=S)
    assert exact <= upper
    assert center in S
    assert upper == geo.distance_field(f, [center]).dist[S].max()


# ---------------------------------------------------------------------------
# the loop engine: values pinned from the dense / dict-built implementation

def _rp2_bump(g):
    x, y = g.coords[:, 0], g.coords[:, 1]
    u = (0.15 * np.cos(4 * math.pi * x) * np.sin(math.pi * y) ** 2
         + 0.1 * np.cos(2 * math.pi * y))
    return F.conformal_rescale(F.round_sphere_metric(g, 1.0), u)


def _pinned_field(kind, N, metric):
    g = G.build_grid(G.topology_from_name(kind), N, 3)
    if metric == "flat":
        return F.flat_metric(g)
    if metric == "hex":
        return F.constant_metric(g, HEX)
    if metric == "spd":
        return F.random_spd_metric(g, 7 if kind == "torus2" else 3, (0.5, 2.0))
    if metric == "round":
        return F.round_sphere_metric(g, 1.0)
    return _rp2_bump(g)


# (kind, N, metric): [(class or None for the systole, length, class)]
PINNED_LOOPS = {
    ("torus2", 16, "flat"): [(None, 1.0, (0, 1)), ((1, -1), 1.4142135623730956, (1, -1)),
                             ((2, 1), 2.23606797749979, (2, 1))],
    ("torus2", 32, "flat"): [(None, 1.0, (0, 1)), ((1, -1), 1.4142135623730947, (1, -1)),
                             ((2, 1), 2.236067977499788, (2, 1))],
    ("torus2", 16, "hex"): [(None, 1.0, (0, 1)), ((1, 1), 1.7320508075688776, (1, 1)),
                            ((2, 1), 2.6457513110645907, (2, 1))],
    ("torus2", 32, "hex"): [(None, 1.0, (0, 1)), ((1, 1), 1.7320508075688765, (1, 1)),
                            ((2, 1), 2.6457513110645903, (2, 1))],
    ("torus2", 16, "spd"): [(None, 0.9928984214833244, (1, 0)),
                            ((0, 1), 0.9966160036264422, (0, 1)),
                            ((1, -1), 1.307788249366042, (1, -1)),
                            ((2, 1), 2.1840472518302825, (2, 1))],
    ("torus2", 32, "spd"): [(None, 0.9962892826612797, (1, 0)),
                            ((0, 1), 0.997018465880028, (0, 1)),
                            ((1, -1), 1.3057751541383913, (1, -1)),
                            ((2, 1), 2.183597290988225, (2, 1))],
    ("cylinder", 16, "spd"): [(None, 0.9982516955983567, 1), (2, 1.9965033911967134, 2)],
    ("rp2", 16, "round"): [(None, 3.141592653589793, "antipodal")],
    ("rp2", 24, "round"): [(None, 3.141592653589792, "antipodal")],
    ("rp2", 16, "bump"): [(None, 2.860987751012129, "antipodal")],
    ("rp2", 24, "bump"): [(None, 2.8597163036699986, "antipodal")],
}


@pytest.mark.parametrize("case", sorted(PINNED_LOOPS), ids=lambda c: "-".join(map(str, c)))
def test_loop_lengths_and_classes_are_pinned(case):
    f = _pinned_field(*case)
    for cls, length, want_cls in PINNED_LOOPS[case]:
        w = geo.systole(f) if cls is None else geo.shortest_loop_in_class(f, cls)
        assert w.cls == want_cls
        assert abs(w.length - length) <= 1e-12 * length
        assert w.check_length(f)


@pytest.mark.parametrize("kind,N", [("rp2", 16), ("rp2", 24), ("sphere2", 16)])
def test_min_antipodal_distance_matches_dense_oracle(kind, N):
    g = G.build_grid(G.topology_from_name(kind), N, 3)
    fields = [F.round_sphere_metric(g, 1.0 / math.pi)]
    if kind == "rp2":
        fields.append(_rp2_bump(g))
    for f in fields:
        half = np.where(g.coords[:, 1] <= 0.5 + 1e-12)[0]
        D = geo.distance_matrix(f, half)
        vals = D[np.arange(len(half)), g.antipode_map[half]]
        length, v = geo.min_antipodal_distance(f)
        assert length == vals.min()
        assert v == half[int(np.argmin(vals))]
    with pytest.raises(geo.GeodesyError):
        geo.min_antipodal_distance(F.flat_metric(G.build_grid(G.torus2(), 8, 3)))


def test_rp2_systole_memory_is_bounded():
    import tracemalloc

    f = F.round_sphere_metric(G.build_grid(G.rp2(), 64, 3), 1.0)
    tracemalloc.start()
    try:
        w = geo.systole(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.length == pytest.approx(math.pi, rel=0.02)
    assert peak < 16 * 2 ** 20


def test_rp2_path_through_pole_and_seam_matches_distance():
    g = G.build_grid(G.rp2(), 24, 3)
    f = F.round_sphere_metric(g, 1.0)
    south, north = 0, 1
    d = geo.distance_field(f, [south], quotient=False)
    pts = d.path_to(north)
    assert F.polyline_length(f, pts) == pytest.approx(d.dist[north], abs=1e-10)
    # from just left of the longitude seam to just right of it, at mid-latitude
    j = g.lattice_shape[1] // 3
    left, right = int(g.lattice_vid[-1, j]), int(g.lattice_vid[2, j])
    d = geo.distance_field(f, [left], quotient=False)
    pts = d.path_to(right)
    assert pts[-1, 0] > 1.0  # unwrapped across the seam
    assert F.polyline_length(f, pts) == pytest.approx(d.dist[right], abs=1e-10)


@pytest.mark.parametrize("top", [G.torus2(), G.cylinder()], ids=["torus2", "cylinder"])
def test_unwrap_uses_last_listed_edge_of_a_repeated_pair(top):
    g = G.build_grid(top, 4, 3)
    e, disp = g.edges, g.edge_disp
    oracle = {}
    for i in range(len(e)):
        a, b = int(e[i, 0]), int(e[i, 1])
        oracle[(a, b)] = disp[i]
        oracle[(b, a)] = -disp[i]
    pairs = np.sort(e, axis=1)
    assert len(np.unique(pairs, axis=0)) < len(pairs)  # repeated pairs occur at N = 4
    for (a, b), step in oracle.items():
        pts = geo._unwrap_chain(g, [a, b])
        assert (pts == [g.coords[a], g.coords[a] + step]).all()


@settings(max_examples=25, deadline=None)
@given(N=st.integers(6, 12), seed=st.integers(0, 10_000),
       cls=st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1),
                            (1, -2)]))
def test_witness_closes_in_its_class(N, seed, cls):
    g = G.build_grid(G.torus2(), N, 3)
    f = F.random_spd_metric(g, seed, (0.5, 2.0))
    w = geo.shortest_loop_in_class(f, cls)
    assert w.cls == cls
    assert np.allclose(w.points[-1] - w.points[0], cls, atol=1e-12)
    assert w.check_length(f)
