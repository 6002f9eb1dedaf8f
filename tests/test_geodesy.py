import inspect
import itertools
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, dijkstra

from metriclab import besicovitch as B
from metriclab import fields as F
from metriclab import gallery
from metriclab import geodesy as geo
from metriclab import grid as G
from metriclab import covers as C
from metriclab import measure as M
from metriclab import width as W

HEX = np.array([[1.0, 0.5], [0.5, 1.0]])


def _shortest_path_tree(field, sources):
    """Distances to the nearest source, and the unwrapped chart polyline of a
    shortest path to a vertex, built as the loop witnesses build theirs."""
    dist, pred, _ = geo._shortest_paths(field.graph(), sources, predecessors=True,
                                        min_only=True)
    return dist, lambda v: geo._unwrap_chain(field.grid, geo._chain(pred, v))


def test_distance_to_face_is_coordinate_exact():
    g = G.build_grid(G.square(), 64, 3)
    f = F.flat_metric(g)
    d = geo.distance_field(f, G.face_vertices(g, "A"))
    assert np.allclose(d, g.coords[:, 0], atol=1e-12)
    assert (d[G.face_vertices(g, "A")] == 0).all()


def test_edge_relaxation_invariant():
    g = G.build_grid(G.torus2(), 24, 3)
    f = F.random_spd_metric(g, 5, (0.5, 2.0))
    d = geo.distance_field(f, [0])
    e, w = g.edges, f.edge_lengths()
    gap = d[e[:, 1]] - d[e[:, 0]]
    assert (np.abs(gap) <= w + 1e-12).all()


def test_corner_distance_within_stencil_distortion():
    g = G.build_grid(G.square(), 64, 3)
    f = F.flat_metric(g)
    d = geo.distance_field(f, [g.vertex_at((0, 0))])
    ratio = d[g.vertex_at((63, 63))] / math.sqrt(2)
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
    assert d[north] == pytest.approx(math.pi, rel=0.02)


SOURCE_OPS = {
    "distance_field": geo.distance_field,
    "distance_matrix": geo.distance_matrix,
    "set_radius_exact": geo.set_radius_exact,
    "set_radius_upper": geo.set_radius_upper,
    "set_radius_upper(within)": lambda f, s: geo.set_radius_upper(f, [0, 1], within=s),
}


@pytest.mark.parametrize("op", sorted(SOURCE_OPS))
@pytest.mark.parametrize("kind", ["square", "rp2"])
@pytest.mark.parametrize("bad", ["-1", "V", "empty"])
def test_sources_outside_the_vertices_raise(op, kind, bad):
    # a negative source used to wrap around to vertex V - 1, silently
    g = G.build_grid(getattr(G, kind)(), 9 if kind == "square" else 8, 3)
    f = F.flat_metric(g) if kind == "square" else F.round_sphere_metric(g, 1.0)
    sources = {"-1": [-1], "V": [g.num_vertices], "empty": []}[bad]
    with pytest.raises(geo.GeodesyError, match="nonempty set of vertices"):
        SOURCE_OPS[op](f, sources)


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
    small = geo.distance_field(f, [0])
    large = geo.distance_field(f, [0, g.num_vertices // 2])
    assert (large <= small + 1e-12).all()


def test_rp2_equivariance():
    g = G.build_grid(G.rp2(), 24, 3)
    f = F.round_sphere_metric(g, 1.0)
    anti = g.antipode_map
    for x in (2, 17, 101):
        dx = geo.distance_field(f, [x], quotient=False)
        dax = geo.distance_field(f, [int(anti[x])], quotient=False)
        assert np.allclose(dx[anti], dax, atol=1e-9)


def test_path_extraction_matches_distance():
    g = G.build_grid(G.square(), 24, 3)
    f = F.random_spd_metric(g, 8, (0.5, 2.0))
    dist, path_to = _shortest_path_tree(f, [0])
    target = g.num_vertices - 1
    pts = path_to(target)
    assert F.polyline_length(f, pts) == pytest.approx(dist[target], abs=1e-10)


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
    # every vertex ties, so no source can be pruned
    "flat-torus": lambda: F.flat_metric(G.build_grid(G.torus2(), 16, 3)),
    "flat-square-odd": lambda: F.flat_metric(G.build_grid(G.square(), 33, 3)),
    # the antipode is an isometry only up to rounding at N = 24, and not at all
    # for the skewed field
    "bump-rp2": lambda: _rp2_bump(G.build_grid(G.rp2(), 24, 3)),
    "skewed-rp2": lambda: _skewed_rp2(),
}


def _skewed_rp2():
    f = F.round_sphere_metric(G.build_grid(G.rp2(), 16, 3), 1.0)
    return F.MetricField(f.grid, f.tensors * (1 + 0.5 * f.grid.coords[:, 1])[:, None, None],
                         validate=False)


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
    assert ecc == geo.distance_field(f, [center])[[a, b]].max()


def test_set_radius_upper_takes_its_center_from_within():
    # the farthest subset member, vertex 1, lies outside within
    f = F.flat_metric(G.build_grid(G.square(), 9, 3))
    ecc, center = geo.set_radius_upper(f, [0, 1], within=[80])
    assert center == 80
    assert ecc == geo.distance_field(f, [80])[[0, 1]].max()


@pytest.mark.parametrize("rounds", [-1, math.nan, 2.5])
def test_set_radius_upper_refuses_rounds_that_are_not_a_count(rounds):
    # -1 searched every vertex but one and returned a number; nan and 2.5 were a bare TypeError
    f = F.flat_metric(G.build_grid(G.square(), 8, 3))
    with pytest.raises(geo.GeodesyError, match="rounds must be an integer >= 0"):
        geo.set_radius_upper(f, [0, 1, 2], rounds=rounds)


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
    # at most one (64, V) block is alive: the peak is near 1.6 MiB; an all-pairs
    # matrix took 46 MiB
    assert peak < 8 * 2 ** 20


@settings(max_examples=25, deadline=None)
@given(N=st.integers(5, 12), seed=st.integers(0, 10_000),
       S=st.lists(st.integers(0, 143), min_size=1, max_size=20, unique=True),
       rounds=st.integers(1, 6))
@example(N=7, seed=169, S=[0, 25, 48, 1, 2, 3, 4, 5, 6, 43], rounds=1)
def test_set_radius_upper_bounds_exact_from_within(N, seed, S, rounds):
    g = G.build_grid(G.square(), N, 3)
    f = F.random_spd_metric(g, seed, (0.5, 2.0))
    S = list(dict.fromkeys(v % g.num_vertices for v in S))
    exact, _ = geo.set_radius_exact(f, S)
    upper, center = geo.set_radius_upper(f, S, rounds=rounds, within=S)
    assert center in S
    # set_radius_exact measures d(s, c), set_radius_upper d(c, s): compare the
    # exact radius with the center's eccentricity in the same direction, and
    # the two directions within the reversal slack
    toward = geo.distance_matrix(f, S)[:, center].max()
    assert exact <= toward
    assert abs(upper - toward) <= geo._reversal_slack(f.graph()) * toward
    assert upper == geo.distance_field(f, [center])[S].max()


def test_set_radii_of_a_subset_across_two_components():
    f = _tripod()
    _, labels = connected_components(f.graph(), directed=False)
    big = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    b = int(np.flatnonzero(labels != labels[big[0]])[0])
    for S in ([big[0], b], [big[0], b, *big[1::3]], [*big[1::2], b]):
        S = np.array(S)
        assert geo.set_radius_exact(f, S) == _dense_set_radius_exact(f, S)
        assert geo.set_radius_exact(f, S)[0] == np.inf
        for rounds in (1, 4):
            assert geo.set_radius_upper(f, S, rounds) == _dense_set_radius_upper(f, S, rounds)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["square", "torus2"]), seed=st.integers(0, 10_000),
       data=st.data())
def test_radii_match_dense_oracles_on_random_fields(kind, seed, data):
    g = G.build_grid(G.topology_from_name(kind),
                     data.draw(st.integers(4 if kind == "square" else 5, 11)), 3)
    f = F.random_spd_metric(g, seed, (0.5, 2.0))
    r = geo.radius(f)
    assert (r.value, r.center, r.connected, r.per_component) == _dense_radius(f)
    S = np.array(data.draw(st.lists(st.integers(0, g.num_vertices - 1), min_size=1,
                                    max_size=40)))
    rounds = data.draw(st.integers(1, 5))
    assert geo.set_radius_exact(f, S) == _dense_set_radius_exact(f, S)
    assert geo.set_radius_upper(f, S, rounds) == _dense_set_radius_upper(f, S, rounds)
    assert (geo.set_radius_upper(f, S, rounds, within=S)
            == _dense_set_radius_upper(f, S, rounds, within=S))


def _unshared_set_radius_upper(f, subset, rounds, within=None):
    """The former set_radius_upper, kept as the oracle of the shared rows: it
    searched the second row of its far pair again, cut off at the bound, even
    when that row was the first member's or the far member's."""
    subset = np.asarray(subset, dtype=np.int64)
    graph = f.graph()
    penalty = np.zeros(graph.shape[0])
    if within is not None:
        penalty[:] = np.inf
        penalty[within] = 0.0
    d0 = geo.distance_matrix(f, subset[:1])[0]
    far = int(subset[np.argmax(d0[subset])])
    d1 = geo.distance_matrix(f, [far])[0]
    best = (float(d1[subset].max()), far) if penalty[far] == 0 else (np.inf, -1)
    d2 = geo._shortest_paths(graph, subset[np.argmax(d1[subset])],
                             geo._widened(best[0], graph))[0]
    scores = np.maximum(d1, d2) + penalty
    cand = np.argsort(scores, kind="stable")[:rounds]
    cand = cand[np.isfinite(scores[cand])]
    ecc, i = geo._loop_search(graph, cand, lambda D, rows: D[:, subset].max(axis=1), best[0])
    return (ecc, int(cand[i])) if ecc < best[0] else best


def _dijkstra_calls(run):
    """run() and the set of sources of each scipy Dijkstra it made."""
    calls, real = [], geo.dijkstra

    def counting(*args, **kwargs):
        calls.append(set(np.atleast_1d(kwargs["indices"]).tolist()))
        return real(*args, **kwargs)

    with mock.patch.object(geo, "dijkstra", counting):
        out = run()
    return out, calls


def _new_rows(calls):
    """How many calls search a source that no earlier call searched: the
    searches a fresh row store still makes of a run whose cut-offs never
    rise, as those of the unshared set-radius search (full rows, then a
    bound widened by the reversal slack, then that bound padded)."""
    seen, new = set(), 0
    for sources in calls:
        new += not sources <= seen
        seen |= sources
    return new


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["square", "torus2", "rp2"]), seed=st.integers(0, 10_000),
       data=st.data())
def test_set_radius_upper_shares_rows_with_the_unshared_search(kind, seed, data):
    g = G.build_grid(G.topology_from_name(kind), 2 * data.draw(st.integers(3, 6)), 3)

    def fresh():  # each counted run starts with an empty row store
        return (F.round_sphere_metric(g, 1.0) if kind == "rp2"
                else F.random_spd_metric(g, seed, (0.5, 2.0)))

    V = g.num_vertices
    S = np.array(data.draw(st.lists(st.integers(0, V - 1), min_size=1, max_size=6)))
    rounds = data.draw(st.integers(1, 4))
    within = data.draw(st.sampled_from([None, "subset", "random"]))
    within = {None: None, "subset": S,
              "random": np.array(data.draw(st.lists(st.integers(0, V - 1), min_size=1,
                                                    max_size=8)))}[within]
    got, calls = _dijkstra_calls(lambda: geo.set_radius_upper(fresh(), S, rounds, within=within))
    want, unshared = _dijkstra_calls(lambda: _unshared_set_radius_upper(fresh(), S, rounds,
                                                                        within))
    assert got == want
    assert len(calls) == _new_rows(unshared) <= len(unshared)


def test_set_radius_upper_reuses_the_first_members_row():
    # the far pair of {a, b} is (b, a): the second row is a's, already searched
    g = G.build_grid(G.square(), 12, 3)
    for within in (None, [5, 40, 77]):
        got, calls = _dijkstra_calls(lambda: geo.set_radius_upper(
            F.random_spd_metric(g, 4, (0.5, 2.0)), [3, 100], 2, within))
        want, unshared = _dijkstra_calls(lambda: _unshared_set_radius_upper(
            F.random_spd_metric(g, 4, (0.5, 2.0)), [3, 100], 2, within))
        assert got == want and len(calls) == len(unshared) - 1


def test_a_repeated_set_radius_upper_runs_no_dijkstra():
    f = F.random_spd_metric(G.build_grid(G.square(), 12, 3), 4, (0.5, 2.0))
    S = [3, 100, 57]
    for within in (None, S):
        first, calls = _dijkstra_calls(lambda: geo.set_radius_upper(f, S, 4, within))
        again, repeat = _dijkstra_calls(lambda: geo.set_radius_upper(f, S, 4, within))
        assert again == first and repeat == []
    assert calls  # the first call with within searched the candidates in it


def test_the_row_store_keeps_its_bound_of_read_only_rows_least_recent_first():
    f = F.random_spd_metric(G.build_grid(G.square(), 12, 3), 4, (0.5, 2.0))
    graph, V = f.graph(), f.grid.num_vertices
    rows, calls = _dijkstra_calls(lambda: geo._rows(f, np.arange(20)))
    assert calls == [set(range(20))]  # more rows than the store holds, in one block
    assert np.array_equal(np.array(rows), geo._shortest_paths(graph, np.arange(20)))
    assert list(f._rows) == list(range(20 - geo._STORED_ROWS, 20))
    for v in (5, 20):
        geo._rows(f, [v])
    assert list(f._rows) == [*range(6, 20), 5, 20]
    for v in range(0, V, 7):
        geo.set_radius_upper(f, [v, V - 1 - v], 4)
        assert len(f._rows) <= geo._STORED_ROWS
    for cut, row in f._rows.values():
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0
    # a stored full row serves a lower cut-off as scipy returns it, and a
    # higher cut-off than a stored row's is searched again
    (full,) = geo._rows(f, [40])
    served, calls = _dijkstra_calls(lambda: geo._rows(f, [40], 0.3))
    assert calls == [] and np.array_equal(served[0], geo._shortest_paths(graph, 40, 0.3)[0])
    assert served[0].flags.writeable and not full.flags.writeable
    geo._rows(f, [41], 0.3)
    (row,), calls = _dijkstra_calls(lambda: geo._rows(f, [41]))
    assert calls == [{41}] and np.array_equal(row, geo._shortest_paths(graph, 41)[0])
    assert f._rows[41][0] == np.inf


def test_the_row_store_searches_whole_rows_through_distance_matrix():
    # geodesy.distance_matrix is a traced layer of the benchmark: whole rows
    # reach it, cut-off rows go to the kernel, and served rows to neither
    g = G.build_grid(G.square(), 9, 3)
    asked, real = [], geo.distance_matrix

    def counting(field, sources):
        asked.append(list(sources))
        return real(field, sources)

    with mock.patch.object(geo, "distance_matrix", counting):
        f = F.flat_metric(g)
        geo._rows(f, [4, 7], 0.5)
        geo._rows(f, [3, 4, 3])
        geo._rows(f, [3, 4], 0.5)
        assert asked == [[3, 4]]
        asked.clear()
        geo.set_radius_upper(F.flat_metric(g), [0, 5])
    assert asked == [[0], [5]]


def test_a_warm_row_store_still_refuses_sources_outside_the_vertices():
    f = F.flat_metric(G.build_grid(G.square(), 9, 3))
    V = f.grid.num_vertices
    geo.set_radius_upper(f, [0, V - 1], within=[0, V - 1])
    assert 0 in f._rows and V - 1 in f._rows
    for bad in ([-1], [V], [], [0, -1]):
        with pytest.raises(geo.GeodesyError, match="nonempty set of vertices"):
            geo._rows(f, bad)
    for bad in ([-1], [V]):
        with pytest.raises(geo.GeodesyError, match="nonempty set of vertices"):
            geo.set_radius_upper(f, bad)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["square", "torus2", "rp2"]), seed=st.integers(0, 10_000),
       data=st.data())
def test_set_radius_upper_calls_on_one_field_match_fresh_fields(kind, seed, data):
    g = G.build_grid(G.topology_from_name(kind), 2 * data.draw(st.integers(3, 5)), 3)

    def fresh():
        return (F.round_sphere_metric(g, 1.0) if kind == "rp2"
                else F.random_spd_metric(g, seed, (0.5, 2.0)))

    f, V = fresh(), g.num_vertices
    vertex = st.integers(0, V - 1)
    for _ in range(data.draw(st.integers(2, 8))):
        S = np.array(data.draw(st.lists(vertex, min_size=1, max_size=6)))
        rounds = data.draw(st.integers(1, 5))
        within = data.draw(st.sampled_from([None, S, np.array(data.draw(
            st.lists(vertex, min_size=1, max_size=8)))]))
        assert (geo.set_radius_upper(f, S, rounds, within=within)
                == _unshared_set_radius_upper(fresh(), S, rounds, within))
        v, limit = data.draw(vertex), data.draw(st.floats(0.0, 2.0))
        assert np.array_equal(geo._rows(f, [v], limit)[0],
                              geo._shortest_paths(f.graph(), v, limit)[0])
        assert len(f._rows) <= geo._STORED_ROWS


def _counting_dijkstra(monkeypatch):
    """Record (sources, limit) of every Dijkstra that geodesy runs."""
    calls = []
    real = geo.dijkstra

    def counting(graph, *args, **kwargs):
        calls.append((np.size(kwargs["indices"]), kwargs.get("limit", np.inf)))
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(geo, "dijkstra", counting)
    return calls


@pytest.mark.parametrize("N, most", [(48, 32), (128, 32)])
def test_radius_prunes_sources_on_the_flat_square(monkeypatch, N, most):
    # the search over every vertex ran all 2,304 (N = 48) or 16,384 sources
    f = F.flat_metric(G.build_grid(G.square(), N, 3))
    calls = _counting_dijkstra(monkeypatch)
    r = geo.radius(f)
    assert sum(n for n, _ in calls) <= most
    assert r.value == pytest.approx(math.sqrt(2) / 2, rel=0.03)


def test_radius_searches_every_source_when_all_tie(monkeypatch):
    f = F.flat_metric(G.build_grid(G.torus2(), 16, 3))
    calls = _counting_dijkstra(monkeypatch)
    r = geo.radius(f)
    assert sum(n for n, _ in calls) == f.grid.num_vertices
    assert max(n for n, _ in calls) == geo._CHUNK
    assert r.center == 0


def test_set_radius_exact_cuts_off_at_a_proven_bound(monkeypatch):
    g = G.build_grid(G.square(), 20, 3)
    f = F.random_spd_metric(g, 5, (0.5, 2.0))
    calls = _counting_dijkstra(monkeypatch)
    S = np.arange(0, f.grid.num_vertices, 5)
    assert geo.set_radius_exact(f, S) == _dense_set_radius_exact(f, S)
    assert any(n > 1 and limit < np.inf for n, limit in calls)
    calls.clear()
    # fresh fields, so that neither counted run reads rows stored by another
    geo.set_radius_exact(F.random_spd_metric(g, 5, (0.5, 2.0)), S[:2])
    exact_calls = calls[:]
    calls.clear()
    ecc, _ = geo.set_radius_upper(F.random_spd_metric(g, 5, (0.5, 2.0)), S[:2], rounds=1)
    # the searches of set_radius_upper, then both members in one search, cut
    # off at its bound widened by the reversal slack
    assert exact_calls == calls + [(2, geo._widened(ecc, f.graph()))]


KERNEL_OPS = {
    "distance_field": lambda sq, torus, rp2: geo.distance_field(sq, [0]),
    "distance_matrix": lambda sq, torus, rp2: geo.distance_matrix(sq, [0]),
    "radius": lambda sq, torus, rp2: geo.radius(sq),
    "set_radius_exact": lambda sq, torus, rp2: geo.set_radius_exact(sq, [0, 1]),
    "set_radius_upper": lambda sq, torus, rp2: geo.set_radius_upper(sq, [0, 1]),
    "systole-torus": lambda sq, torus, rp2: geo.systole(torus),
    "systole-rp2": lambda sq, torus, rp2: geo.systole(rp2),
    "min_antipodal_distance": lambda sq, torus, rp2: geo.min_antipodal_distance(rp2),
    "MetricGraph.distances": lambda sq, torus, rp2: C.circle_graph(1.0, 8).distances(),
}


@pytest.mark.parametrize("op", sorted(KERNEL_OPS))
def test_every_shortest_path_goes_through_the_one_kernel(monkeypatch, op):
    # with a zero block ceiling the kernel refuses every call; a direct call
    # of scipy's Dijkstra would be recorded
    sq = F.flat_metric(G.build_grid(G.square(), 9, 3))
    torus = F.flat_metric(G.build_grid(G.torus2(), 8, 3))
    rp2 = F.round_sphere_metric(G.build_grid(G.rp2(), 8, 3), 1.0)
    calls = _counting_dijkstra(monkeypatch)
    monkeypatch.setattr(geo, "_BLOCK_BYTES", 0)
    with pytest.raises(geo.GeodesyError, match="ceiling"):
        KERNEL_OPS[op](sq, torus, rp2)
    assert calls == []


def test_the_block_ceiling_bounds_distance_matrix_and_not_the_chunked_searches(monkeypatch):
    import tracemalloc

    f = F.random_spd_metric(G.build_grid(G.square(), 24, 3), 3, (0.5, 2.0))
    V = f.grid.num_vertices
    S = np.arange(0, V, 2)
    assert len(S) > geo._CHUNK
    exact, dense = _dense_set_radius_exact(f, S), _dense_radius(f)
    monkeypatch.setattr(geo, "_BLOCK_BYTES", geo._CHUNK * V * 8 + 1)  # one block fits
    tracemalloc.start()
    try:
        with pytest.raises(geo.GeodesyError, match=f"about {V * V * 8} bytes"):
            geo.distance_matrix(f, np.arange(V))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < geo._BLOCK_BYTES
    assert geo.set_radius_exact(f, S) == exact
    r = geo.radius(f)
    assert (r.value, r.center, r.connected, r.per_component) == dense


def test_loops_on_a_degenerate_metric_raise_a_geodesy_error():
    g = G.build_grid(G.torus2(), 12, 3)
    t = np.broadcast_to(np.eye(2), (g.num_vertices, 2, 2)).copy()
    t[5] = np.diag([1.0, 0.0])
    f = F.MetricField(g, t, validate=False)
    with pytest.raises(geo.GeodesyError, match="degenerate metric"):
        geo.systole(f)
    with pytest.raises(geo.GeodesyError, match="degenerate metric"):
        geo.shortest_loop_in_class(f, (1, 0))


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


def _oracle_antipodal(f):
    """d(v, antipode(v)) for each vertex v of the southern half, from
    full-radius Dijkstras, 64 sources at a time."""
    g = f.grid
    half = np.where(g.coords[:, 1] <= 0.5 + 1e-12)[0]
    return np.concatenate([
        geo.distance_matrix(f, rows)[np.arange(len(rows)), g.antipode_map[rows]]
        for rows in np.array_split(half, -(-len(half) // 64))])


@pytest.mark.parametrize("kind,N", [("rp2", 16), ("rp2", 24), ("sphere2", 16),
                                    ("sphere2", 48), ("rp2", 32)])
def test_min_antipodal_distance_matches_dense_oracle(kind, N):
    g = G.build_grid(G.topology_from_name(kind), N, 3)
    fields = [F.round_sphere_metric(g, 1.0 / math.pi)]
    if kind == "rp2":
        fields.append(_rp2_bump(g))
    for f in fields:
        vals = _oracle_antipodal(f)
        length, v = geo.min_antipodal_distance(f)
        assert abs(length - vals.min()) <= 1e-12 * vals.min()
        # v comes from the band; ties may pick another minimizer than the oracle's
        attained = geo.distance_field(f, [v], quotient=False)[g.antipode_map[v]]
        assert attained <= vals.min() * (1 + 1e-12)
        if kind == "rp2":
            w = geo.systole(f)
            assert (w.length, w.base_vertex) == (length, v)
    with pytest.raises(geo.GeodesyError):
        geo.min_antipodal_distance(F.flat_metric(G.build_grid(G.torus2(), 8, 3)))


def test_min_antipodal_distance_needs_an_isometric_antipode():
    g = G.build_grid(G.sphere2(), 16, 3)
    lopsided = F.conformal_rescale(F.round_sphere_metric(g, 1.0), 0.2 * g.coords[:, 1])
    with pytest.raises(geo.GeodesyError, match="isometry"):
        geo.min_antipodal_distance(lopsided)


def test_min_antipodal_distance_searches_the_band_only(monkeypatch):
    # one source per orbit of the band, and one more Dijkstra for the witness
    f = F.round_sphere_metric(G.build_grid(G.rp2(), 64, 3), 1.0)
    band = geo._loop_base_vertices(f.grid, (1, 0))
    calls = _counting_dijkstra(monkeypatch)
    geo.min_antipodal_distance(f)
    assert sum(n for n, _ in calls) == len(geo._orbit_representatives(f, band)) + 1


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
    dist, path_to = _shortest_path_tree(f, [south])
    pts = path_to(north)
    assert F.polyline_length(f, pts) == pytest.approx(dist[north], abs=1e-10)
    # from just left of the longitude seam to just right of it, at mid-latitude
    j = g.lattice_shape[1] // 3
    left, right = int(g.lattice_vid[-1, j]), int(g.lattice_vid[2, j])
    dist, path_to = _shortest_path_tree(f, [left])
    pts = path_to(right)
    assert pts[-1, 0] > 1.0  # unwrapped across the seam
    assert F.polyline_length(f, pts) == pytest.approx(dist[right], abs=1e-10)


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


def _assert_closes_at_the_antipode(f, w):
    # the polyline runs from a band vertex to its antipode's chart position:
    # longitude mod 1, and any longitude at a pole; min_antipodal_distance
    # reads its length and base vertex
    g = f.grid
    assert w.cls == "antipodal" and w.check_length(f)
    assert w.base_vertex in geo._loop_base_vertices(g, (1, 0))
    for point, v in [(w.points[0], w.base_vertex), (w.points[-1], g.antipode_map[w.base_vertex])]:
        assert point[1] == pytest.approx(g.coords[v, 1], abs=1e-12)
        if not g.chart_degenerate[v]:
            assert (point[0] - g.coords[v, 0] + 0.5) % 1.0 - 0.5 == pytest.approx(0, abs=1e-12)
    length, v = geo.min_antipodal_distance(f)
    assert (length, v) == (w.length, w.base_vertex)
    assert type(length) is float and type(v) is int


@pytest.mark.parametrize("bump", [False, True])
@pytest.mark.parametrize("N", range(8, 25, 2))
def test_rp2_witness_closes_at_the_antipode(N, bump):
    g = G.build_grid(G.rp2(), N, 3)
    f = _rp2_bump(g) if bump else F.round_sphere_metric(g, 1.0)
    _assert_closes_at_the_antipode(f, geo.systole(f))


@pytest.mark.parametrize("radius", [1.0, 1 / math.pi])
@pytest.mark.parametrize("N", range(8, 25, 2))
def test_sphere2_witness_closes_at_the_antipode(N, radius):
    f = F.round_sphere_metric(G.build_grid(G.sphere2(), N, 3), radius)
    _assert_closes_at_the_antipode(f, geo._antipodal_loop(f))


@pytest.mark.parametrize("kind,cls", [
    ("cylinder", (1, 5)), ("cylinder", 1.7), ("cylinder", []), ("torus2", (1, 0, 7)),
    ("torus2", (1.5, 0)), ("torus2", 1), ("rp2", (1, 0))])
def test_a_malformed_class_is_refused_not_truncated(kind, cls):
    g = G.build_grid(G.topology_from_name(kind), 8, 3)
    f = F.round_sphere_metric(g, 1.0) if kind == "rp2" else F.flat_metric(g)
    with pytest.raises(G.GridError, match="deck"):
        geo.shortest_loop_in_class(f, cls)


# ---------------------------------------------------------------------------
# the meet-in-the-middle loop engine against the full-radius pair search


def _oracle_class(f, cls, length):
    """Base vertices and d(v, v + cls) for each, from full-radius Dijkstras.

    The box spans the base lines, their translates by cls and
    length / (2 sqrt(lambda_min)) more, so it holds every loop of length
    <= length through a base vertex.
    """
    g = f.grid
    p, q = cls if g.topology.kind == "torus2" else (cls, 0)
    base = geo._loop_base_vertices(g, (p, q))
    m = length / (2 * math.sqrt(f.lambda_min())) + 2 * max(g.spacing)
    lo, shape, shift = [], [], (p * g.lattice_shape[0], q * g.lattice_shape[1])
    for axis, c in enumerate((p, q)):
        n = g.lattice_shape[axis]
        if axis == 1 and g.topology.kind == "cylinder":
            lo.append(0), shape.append(n)
            continue
        low = math.floor((min(0, c) + g.coords[base, axis].min() - m) * n)
        lo.append(low), shape.append(math.ceil((max(0, c) + g.coords[base, axis].max() + m) * n)
                                     - low + 1)
    lifted, _ = geo._lifted_graph(f, lo, shape)
    at = np.unravel_index(base, g.lattice_shape)
    src = np.ravel_multi_index([i - l for i, l in zip(at, lo)], shape)
    dst = np.ravel_multi_index([i + t - l for i, t, l in zip(at, shift, lo)], shape)
    vals = np.empty(len(base))
    for rows in np.array_split(np.arange(len(base)), -(-len(base) // 64)):
        D = dijkstra(lifted, indices=src[rows], limit=length * 1.001 + 1e-9)
        vals[rows] = D[np.arange(len(rows)), dst[rows]]
    return base, vals


def _assert_matches_oracle(f, cls):
    w = geo.shortest_loop_in_class(f, cls)
    base, vals = _oracle_class(f, cls, w.length)
    assert w.cls == cls
    assert abs(w.length - vals.min()) <= 1e-12 * vals.min()
    # the base vertex attains the minimum; ties may pick another than the oracle's
    assert vals[base == w.base_vertex][0] <= vals.min() * (1 + 1e-12)
    return vals.min()


def _bump_torus(N, seed, base):
    cfg = gallery.ExperimentConfig(f"bump-{base}", "torus2", "conformal_bump", "systolic_ratio",
                                   [N], seed=seed, metric_params={"base": base, "amplitude": 0.25})
    return gallery.build_metric(cfg, G.build_grid(G.torus2(), N, 3))


def _valley_torus(N):
    """A cheap valley that wanders across y = 1: its loops cross the base
    column near the top of the fundamental domain and leave it upwards."""
    g = G.build_grid(G.torus2(), N, 3)
    x, y = g.coords[:, 0], g.coords[:, 1]
    dy = (y - 0.97 - 0.06 * np.sin(2 * math.pi * x) + 0.5) % 1.0 - 0.5
    return F.conformal_metric(g, -0.6 * np.exp(-dy ** 2 / 0.003))


SHORT = [(1, 0), (0, 1), (1, -1), (1, 1)]
ORACLE_LOOPS = {
    ("torus2", 16, "flat"): SHORT + [(2, 1)],
    ("torus2", 32, "hex"): SHORT + [(2, 1), (1, -2)],
    ("torus2", 64, "hex"): [(1, 0), (0, 1), (1, -1)],
    ("torus2", 16, "spd"): SHORT + [(2, 1)],
    ("torus2", 32, "spd"): SHORT,
    ("cylinder", 16, "spd"): [1, 2],
    ("cylinder", 32, "spd"): [1, 2],
    ("bump-flat", 32, 0): SHORT,
    ("bump-flat", 32, 1): SHORT,
    ("bump-hexagonal", 32, 0): SHORT,
    ("bump-hexagonal", 32, 3): SHORT,
    ("valley", 32, None): SHORT,
}


@pytest.mark.parametrize("case", sorted(ORACLE_LOOPS, key=str), ids=lambda c: "-".join(map(str, c)))
def test_loop_engine_matches_full_radius_oracle(case):
    kind, N, metric = case
    if kind == "valley":
        f = _valley_torus(N)
    elif kind.startswith("bump"):
        f = _bump_torus(N, metric, kind[5:])
    else:
        f = _pinned_field(kind, N, metric)
    best = {cls: _assert_matches_oracle(f, cls) for cls in ORACLE_LOOPS[case]}
    if kind != "cylinder":
        w = geo.systole(f)
        least = min(best.values())
        assert abs(w.length - least) <= 1e-12 * least
        assert best[w.cls] <= least * (1 + 1e-12)


@settings(max_examples=15, deadline=None)
@given(N=st.integers(8, 16), seed=st.integers(0, 10_000),
       base=st.sampled_from(["flat", "hexagonal"]),
       cls=st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2)]))
def test_loop_engine_matches_oracle_on_bump_tori(N, seed, base, cls):
    _assert_matches_oracle(_bump_torus(N, seed, base), cls)


def _recorded_boxes(monkeypatch):
    """The vertex count of every box _lifted_graph builds."""
    boxes, real_lift = [], geo._lifted_graph
    monkeypatch.setattr(geo, "_lifted_graph", lambda field, lo, shape: boxes.append(
        math.prod(shape)) or real_lift(field, lo, shape))
    return boxes


def test_hexagonal_windows_at_N128_are_no_larger(monkeypatch):
    f = F.constant_metric(G.build_grid(G.torus2(), 128, 3), HEX)
    reach = float(f.edge_lengths().max())
    V = f.grid.num_vertices
    # copies of the former window, which spanned copy cls and the loop's
    # reach; it pinned (1, 0) and (1, -1) to 2 x 3 copies, 98,304 vertices.
    # A box around both base lines was 156 x 282 points, 43,992, and
    # one around the lone searched source is 155 x 155
    former = {(1, 0): 6, (0, 1): 6, (1, -1): 9, (1, 1): 25}
    pinned = {(1, 0): [155, 155], (0, 1): [155, 155], (1, -1): [155, 155]}
    for cls, copies in former.items():
        base = geo._loop_base_vertices(f.grid, cls)
        ub = geo._stencil_walk_length(f, base, cls)
        _, shape = geo._deck_box(f, geo._orbit_representatives(f, base), ub, reach)
        assert math.prod(shape) <= copies * V
        assert shape == pinned.get(cls, shape)
    boxes = _recorded_boxes(monkeypatch)
    geo.systole(f)
    assert boxes == [24_025, 24_025]


def test_stencil_walk_is_a_true_upper_bound():
    g = G.build_grid(G.torus2(), 16, 3)
    f = F.constant_metric(g, HEX)
    for cls in [(1, 0), (1, -1), (2, 1), (3, 1)]:
        ub = geo._stencil_walk_length(f, geo._loop_base_vertices(g, cls), cls)
        exact = math.sqrt(np.asarray(cls) @ HEX @ np.asarray(cls))
        assert ub >= geo.shortest_loop_in_class(f, cls).length
        assert ub == pytest.approx(exact, rel=0.2)
    gc = G.build_grid(G.cylinder(), 12, 3)
    fc = F.random_spd_metric(gc, 5, (0.5, 2.0))
    ub = geo._stencil_walk_length(fc, geo._loop_base_vertices(gc, (3, 0)), (3, 0))
    assert np.isfinite(ub) and ub >= geo.shortest_loop_in_class(fc, 3).length


WALK_FIELDS = {
    "hex-16": lambda: F.constant_metric(G.build_grid(G.torus2(), 16, 3), HEX),
    "spd-torus-12": lambda: F.random_spd_metric(G.build_grid(G.torus2(), 12, 3), 2, (0.5, 2.0)),
    "spd-torus-9-order1": lambda: F.random_spd_metric(G.build_grid(G.torus2(), 9, 1), 7,
                                                      (0.5, 2.0)),
    "spd-cylinder-12": lambda: F.random_spd_metric(G.build_grid(G.cylinder(), 12, 3), 5,
                                                   (0.5, 2.0)),
    "bump-flat-16": lambda: _bump_torus(16, 3, "flat"),
}
# repr-exact walk lengths; on the cylinder some (3, 0) walks leave the bounded axis
WALK_LENGTHS = {
    ("hex-16", (1, 0)): 1.0,
    ("hex-16", (0, 1)): 1.0,
    ("hex-16", (1, -1)): 1.0,
    ("hex-16", (2, 1)): 2.6457513110645907,
    ("hex-16", (3, 1)): 3.6457513110645916,
    ("spd-torus-12", (1, 1)): 1.33074169422657,
    ("spd-torus-12", (1, -2)): 2.0377510580566542,
    ("spd-torus-12", (3, 2)): 3.7525194895399276,
    ("spd-torus-9-order1", (1, 1)): 1.8589467881626272,
    ("spd-torus-9-order1", (2, -1)): 2.984142524159312,
    ("spd-cylinder-12", (1, 0)): 0.9982647053311592,
    ("spd-cylinder-12", (3, 0)): 3.729929496682138,
    ("bump-flat-16", (1, 0)): 1.0009895946121068,
    ("bump-flat-16", (2, 1)): 2.2504565409963906,
}


@pytest.mark.parametrize("name", sorted(WALK_FIELDS))
def test_stencil_walk_lengths_are_pinned(name):
    f = WALK_FIELDS[name]()
    for (field_name, cls), length in WALK_LENGTHS.items():
        if field_name == name:
            base = geo._loop_base_vertices(f.grid, cls)
            assert repr(geo._stencil_walk_length(f, base, cls)) == repr(length)


def _per_step_walk_length(field, base, cls) -> float:
    """The former geo._stencil_walk_length, kept as its oracle: the box of
    base lines moved by one _moved call per step."""
    g = field.grid
    half = G.stencil_offsets(g.n, g.stencil_order)
    moves = np.concatenate([half, -half])
    rest, split = np.asarray(cls, dtype=np.int64), []
    while rest.any():
        o = min(moves, key=lambda o: (((rest - o) ** 2).sum(), (o ** 2).sum(), tuple(o)))
        split.append(o)
        rest = rest - o
    shape, periodic = g.lattice_shape, g.topology.periodic
    box = [np.unique(i) for i in np.argwhere(g.lattice_vid >= 0)[base].T]
    moved, alive = np.zeros(g.n, dtype=np.int64), np.ones(len(base), dtype=bool)
    ends = [G._moved(shape, periodic, box, moved)[1]]
    for o in split * shape[0]:
        moved = moved + o
        kept, target = G._moved(shape, periodic, box, moved)
        alive &= kept
        ends.append(target)
    ends = g.lattice_vid.ravel()[np.array(ends)[:, alive]]
    steps = field.edge_lengths()[g.edge_index(ends[:-1], ends[1:])]
    return float(np.cumsum(steps, axis=0)[-1].min(initial=np.inf))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["torus2", "cylinder"]), N=st.integers(5, 12),
       order=st.sampled_from([1, 2, 3]), seed=st.integers(0, 10_000),
       cls=st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
@example(kind="cylinder", N=6, order=3, seed=0, cls=(0, 1))  # every walk leaves: inf
@example(kind="cylinder", N=12, order=3, seed=5, cls=(3, 0))  # some walks leave
def test_stencil_walks_equal_the_per_step_walks(kind, N, order, seed, cls):
    g = G.build_grid(G.topology_from_name(kind), N, order)
    f = F.random_spd_metric(g, seed, (0.5, 2.0))
    base = geo._loop_base_vertices(g, cls)
    got = geo._stencil_walk_length(f, base, cls)
    assert repr(got) == repr(_per_step_walk_length(f, base, cls))
    if kind == "cylinder" and cls[1]:  # N steps of |cls[1]| each cross the bounded axis
        assert got == math.inf


def test_witness_that_fails_its_length_check_raises(monkeypatch):
    f = F.round_sphere_metric(G.build_grid(G.rp2(), 16, 3), 1.0)
    real_unwrap = geo._unwrap_chain

    def shifted(grid, chain):
        pts = real_unwrap(grid, chain)
        pts[len(pts) // 2, 0] += 0.5 * grid.spacing[0]
        return pts

    monkeypatch.setattr(geo, "_unwrap_chain", shifted)
    with pytest.raises(geo.GeodesyError, match="length check"):
        geo.systole(f)

    ft = F.flat_metric(G.build_grid(G.torus2(), 16, 3))
    real_lift = geo._lifted_graph

    def shortened(*args):  # every edge of the box 10 % shorter than on the grid
        graph, vertex = real_lift(*args)
        return graph * 0.9, vertex

    monkeypatch.setattr(geo, "_lifted_graph", shortened)
    with pytest.raises(geo.GeodesyError, match="length check"):
        geo.systole(ft)


# ---------------------------------------------------------------------------
# paths through the poles


def test_paths_from_a_pole_keep_their_length():
    g = G.build_grid(G.rp2(), 24, 3)
    f = _rp2_bump(g)
    for pole in (0, 1):
        dist, path_to = _shortest_path_tree(f, [pole])
        for v in range(g.num_vertices):
            assert abs(F.polyline_length(f, path_to(v)) - dist[v]) <= 1e-12 * (1 + dist[v])


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["sphere2", "rp2"]), half_n=st.integers(4, 8),
       k=st.integers(1, 3), amp=st.floats(0.05, 0.4), phase=st.floats(0.0, 6.3),
       data=st.data())
def test_path_lengths_match_distances_with_longitude_dependent_metrics(kind, half_n, k, amp,
                                                                       phase, data):
    g = G.build_grid(G.topology_from_name(kind), 2 * half_n, 3)
    x, y = g.coords[:, 0], g.coords[:, 1]
    freq = 2 * k if kind == "rp2" else k  # even frequencies respect the antipodal map
    u = amp * np.cos(2 * math.pi * freq * x + phase) * np.sin(math.pi * y) ** 2
    f = F.conformal_rescale(F.round_sphere_metric(g, 1.0), u)
    src = data.draw(st.integers(0, g.num_vertices - 1))
    dist, path_to = _shortest_path_tree(f, [src])
    for v in range(g.num_vertices):
        assert abs(F.polyline_length(f, path_to(v)) - dist[v]) <= 1e-12 * (1 + dist[v])


# ---------------------------------------------------------------------------
# the torus class walk against the former windowed enumeration


def _window_classes(window):
    out = [(p, q) for p in range(window + 1) for q in range(-window, window + 1)
           if not (p == 0 and q <= 0) and math.gcd(p, abs(q)) == 1]
    return sorted(out, key=lambda c: (c[0] ** 2 + c[1] ** 2, c))


def _class_loop(f, c, upper):
    """The shortest loop in class c, or None when none lies within upper: a
    one-class search, pruned at the least of c's stencil walk and upper."""
    base = geo._loop_base_vertices(f.grid, c)
    return geo._deck_loop(f, [c], base, min(geo._stencil_walk_length(f, base, c), upper), None)


def _windowed_systole(f):
    """The former torus2 enumeration, kept as the oracle: square windows of
    classes, grown by one ring while a ring class's lower bound undercuts the
    best loop, with the inner classes searched again at each growth."""
    lam = math.sqrt(f.lambda_min())
    best = None
    window = 2
    while True:
        for c in _window_classes(window):
            if best is not None and lam * math.hypot(*c) >= best.length:
                continue
            w = _class_loop(f, c, np.inf if best is None else best.length)
            if w is not None and (best is None or w.length < best.length - 1e-15):
                best = w
        ring = [c for c in _window_classes(window + 1) if max(abs(c[0]), abs(c[1])) > window]
        if all(lam * math.hypot(*c) >= best.length for c in ring):
            return best
        window += 1


SHEARED = np.array([[1.0, 3.0], [3.0, 10.0]])
SYSTOLE_CASES = {
    "hex-32": lambda: F.constant_metric(G.build_grid(G.torus2(), 32, 3), HEX),
    "hex-64": lambda: F.constant_metric(G.build_grid(G.torus2(), 64, 3), HEX),
    "flat-32": lambda: F.flat_metric(G.build_grid(G.torus2(), 32, 3)),
    "sheared-1-3-10": lambda: F.constant_metric(G.build_grid(G.torus2(), 32, 3), SHEARED),
    "sheared-1-2-5": lambda: F.constant_metric(G.build_grid(G.torus2(), 32, 3),
                                               [[1.0, 2.0], [2.0, 5.0]]),
}
# the first four loewner-strictness bump tori
SYSTOLE_CASES.update({f"bump-{100 + k}": lambda k=k: _bump_torus(
    48, 100 + k, "hexagonal" if k % 2 else "flat") for k in range(4)})


@pytest.mark.parametrize("name", sorted(SYSTOLE_CASES))
def test_systole_matches_windowed_enumeration(name):
    f = SYSTOLE_CASES[name]()
    w, ref = geo.systole(f), _windowed_systole(f)
    assert (w.cls, w.base_vertex, w.length) == (ref.cls, ref.base_vertex, ref.length)
    assert np.array_equal(w.points, ref.points)


def _sequential_systole(f):
    """The torus2 class walk with one search per class, kept as the oracle of
    the joint search: classes in increasing |c|, each pruned at the shortest
    loop so far, until a class's lower bound reaches it."""
    lam = math.sqrt(f.lambda_min())
    best = None
    for c in geo._primitive_classes():
        if best is not None and lam * math.hypot(*c) >= best.length:
            return best
        w = _class_loop(f, c, np.inf if best is None else best.length)
        if w is not None and (best is None or w.length < best.length - 1e-15):
            best = w


def _assert_matches_sequential(f):
    w, ref = geo.systole(f), _sequential_systole(f)
    assert (w.cls, w.base_vertex) == (ref.cls, ref.base_vertex)
    assert abs(w.length - ref.length) <= 1e-12 * ref.length
    assert w.check_length(f)


CONSTANT_CASES = ["flat-32", "hex-32", "hex-64", "sheared-1-2-5", "sheared-1-3-10"]


@pytest.mark.parametrize("name", CONSTANT_CASES)
def test_joint_search_matches_the_sequential_walk_on_constant_tori(name):
    _assert_matches_sequential(SYSTOLE_CASES[name]())


@settings(max_examples=12, deadline=None)
@given(N=st.integers(16, 32), seed=st.integers(0, 10_000),
       base=st.sampled_from(["flat", "hexagonal"]))
def test_joint_search_matches_the_sequential_walk_on_bump_tori(N, seed, base):
    _assert_matches_sequential(_bump_torus(N, seed, base))


def _joint_calls(monkeypatch):
    """Record (classes, ub, tracemalloc peak) of every _deck_loop call."""
    import tracemalloc

    calls = []
    real = geo._deck_loop

    def traced(field, classes, base, ub, best):
        tracemalloc.start()
        try:
            return real(field, classes, base, ub, best)
        finally:
            calls.append((list(classes), ub, tracemalloc.get_traced_memory()[1]))
            tracemalloc.stop()

    monkeypatch.setattr(geo, "_deck_loop", traced)
    return calls


def test_systole_searches_each_class_once(monkeypatch):
    f = SYSTOLE_CASES["sheared-1-3-10"]()
    calls = _joint_calls(monkeypatch)

    def searched():
        out = [c for classes, _, _ in calls for c in classes]
        calls.clear()
        return out

    _windowed_systole(f)
    windowed = searched()
    assert (len(windowed), len(set(windowed))) == (20, 12)
    _sequential_systole(f)
    walked = searched()
    assert (len(walked), len(set(walked))) == (12, 12)
    geo.systole(f)
    # (0, 1) alone, then one joint search; every class is reduced once
    assert len(calls) == 2 and calls[0][0] == [(0, 1)]
    reduced = calls[0][0] + calls[1][0]
    assert len(reduced) == len(set(reduced))
    # the joint set runs in increasing |c| up to the first class whose bound
    # reaches ub, the least of the (0, 1) length and the joint classes'
    # walks; it holds the classes the sequential walk searched
    joint, ub = calls[1][0], calls[1][1]
    lam = math.sqrt(f.lambda_min())
    primitive = itertools.islice(geo._primitive_classes(), 1, None)
    assert joint == list(itertools.takewhile(lambda c: lam * math.hypot(*c) < ub, primitive))
    assert len(joint) == 11 and set(walked) <= set(reduced)


def _former_window(f, cls, ub):
    """Vertices of the former window: the whole copies that held every vertex
    within (ub / 2 + reach) / sqrt(lambda_min) of the base lines, plus one
    lattice spacing."""
    g = f.grid
    r = ((ub * (1 + 1e-12) + 1e-12) / 2 + float(f.edge_lengths().max())) / math.sqrt(
        f.lambda_min()) + max(g.spacing)
    across = 0 if cls[0] != 0 else 1
    tops = [g.spacing[k] * (1 if k == across else g.lattice_shape[k] - 1) for k in (0, 1)]
    return math.prod(math.floor(top + r) - math.floor(-r) + 1 for top in tops) * g.num_vertices


@pytest.mark.parametrize("name", ["bump-hexagonal-64", "sheared-1-3-10"])
def test_joint_window_and_memory_are_no_larger(monkeypatch, name):
    f = (_bump_torus(64, 1, "hexagonal") if name == "bump-hexagonal-64"
         else SYSTOLE_CASES[name]())
    g = f.grid
    L01 = geo.shortest_loop_in_class(f, (0, 1)).length
    boxes = _recorded_boxes(monkeypatch)
    calls = _joint_calls(monkeypatch)
    geo.systole(f)
    (_, ub01, _), (joint, ub, peak) = calls
    # one ub, the least of the (0, 1) walk and every joint class's walk,
    # bounds both searches
    first, base = geo._loop_base_vertices(g, (0, 1)), geo._loop_base_vertices(g, (1, 0))
    walk01 = geo._stencil_walk_length(f, first, (0, 1))
    assert ub01 == ub == min([walk01] + [geo._stencil_walk_length(f, base, c) for c in joint])
    # each box is no larger than the former window of its search: (0, 1) at
    # its own walk, and the joint classes at the least of the (1, 0) walk and
    # the (0, 1) length
    former = [_former_window(f, (0, 1), walk01),
              _former_window(f, (1, 0), min(geo._stencil_walk_length(f, base, (1, 0)), L01))]
    assert len(boxes) == 2 and boxes[0] <= former[0] and boxes[1] <= former[1]
    if name == "bump-hexagonal-64":
        assert former == [6 * 4096, 6 * 4096] and len(joint) == 3
        assert boxes == [15_680, 15_680]
    # pairs are reduced one at a time: the joint search peaks within half a
    # (64, P) block of the box's ceiling estimate (its CSR and one (64, P)
    # block), below the former bound, the former one-class search of (1, 0)
    # plus half a (64, V) block (22.8 MB and 17.7 MB)
    P = boxes[1]
    assert peak <= 16 * P * 12 + 4 * (P + 1) + 64 * P * 8 + 32 * P * 8


@pytest.mark.parametrize("name", ["hex-64", "bump-flat-32"])
def test_systole_holds_one_box_at_a_time(monkeypatch, name):
    # each search finds its orbits before it builds its box, since their
    # check copies the field's graph, and no earlier box is alive then
    f = SYSTOLE_CASES["hex-64"]() if name == "hex-64" else _bump_torus(32, 0, "flat")
    events, boxes = [], []
    real_lift, real_orbits = geo._lifted_graph, geo._orbit_representatives

    def lift(field, lo, shape):
        events.append(("box", sum(box() is not None for box in boxes)))
        graph, vertex = real_lift(field, lo, shape)
        boxes.append(weakref.ref(graph))
        return graph, vertex

    monkeypatch.setattr(geo, "_lifted_graph", lift)
    monkeypatch.setattr(geo, "_orbit_representatives",
                        lambda *a: events.append("orbits") or real_orbits(*a))
    w = geo.systole(f)
    assert w.check_length(f)
    assert events == ["orbits", ("box", 0)] * 2


def test_hexagonal_systole_memory_is_bounded():
    import tracemalloc

    # one 24,025-point box at a time, built with no copy of the field's graph
    # on top: the search peaked at 20.9 MiB with two boxes of 43,992 points
    f = F.constant_metric(G.build_grid(G.torus2(), 128, 3), HEX)
    f.graph()
    tracemalloc.start()
    try:
        w = geo.systole(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.cls == (0, 1) and w.length == 1.0
    assert peak <= 12 * 2 ** 20


def test_anisotropic_torus_boxes_are_sized_per_axis(monkeypatch):
    # diag(1e-4, 1): one ub, that of the (1, 0) walk, sizes both boxes; the
    # copies window of sqrt(lambda_min) held 4.1 million vertices at N = 16
    # and 48.2 million at N = 64
    f = F.constant_metric(G.build_grid(G.torus2(), 16, 3), np.diag([1e-4, 1.0]))
    boxes = _recorded_boxes(monkeypatch)
    w = geo.systole(f)
    assert w.cls == (1, 0) and w.length == pytest.approx(0.01, rel=1e-12) and w.check_length(f)
    assert len(boxes) == 2 and max(boxes) <= 12_000

    f = F.constant_metric(G.build_grid(G.torus2(), 64, 3), np.diag([1e-4, 1.0]))
    sized = []

    def sizes_only(field, classes, base, ub, best):  # size each box and search nothing
        lo, shape = geo._deck_box(field, geo._orbit_representatives(field, base), ub,
                                  float(field.edge_lengths().max()))
        sized.append(math.prod(shape))
        return best

    monkeypatch.setattr(geo, "_deck_loop", sizes_only)
    with pytest.raises(geo.GeodesyError, match="no noncontractible loop"):
        geo.systole(f)
    assert len(sized) == 2 and max(sized) <= 40_000


def test_a_box_above_the_ceiling_raises_before_any_scipy_call(monkeypatch):
    f = F.constant_metric(G.build_grid(G.torus2(), 16, 3), HEX)
    base = geo._loop_base_vertices(f.grid, (1, 0))
    lo, shape = geo._deck_box(f, geo._orbit_representatives(f, base), 1.0,
                              float(f.edge_lengths().max()))

    def called(*args, **kwargs):
        raise AssertionError("scipy was called")

    monkeypatch.setattr(geo, "csr_matrix", called)
    monkeypatch.setattr(geo, "dijkstra", called)
    monkeypatch.setattr(geo, "_BLOCK_BYTES", 100_000)
    with pytest.raises(geo.GeodesyError,
                       match=rf"lifted box of {math.prod(shape)} vertices needs about \d+ bytes"):
        geo._lifted_graph(f, lo, shape)
    with pytest.raises(geo.GeodesyError, match="lifted box"):
        geo.systole(f)


def test_class_without_a_loop_raises(monkeypatch):
    fc = F.flat_metric(G.build_grid(G.cylinder(), 8, 3))

    def nothing_within_ub(graph, sources, isometries, ub, reach):
        k = len(isometries)
        return np.full(k, np.inf), np.zeros(k, dtype=np.int64), np.zeros((k, 2), dtype=np.int64)

    monkeypatch.setattr(geo, "_meet_search", nothing_within_ub)
    with pytest.raises(geo.GeodesyError, match="no loop found"):
        geo.shortest_loop_in_class(fc, 1)


# ---------------------------------------------------------------------------
# the edge lookup behind _unwrap_chain


def _reference_edge_index(grid, a, b):
    """The former per-call lookup: argsort every edge key, then search."""
    e, V = grid.edges, grid.num_vertices
    keys = e.min(axis=1) * V + e.max(axis=1)
    order = np.argsort(keys, kind="stable")
    want = np.minimum(a, b) * V + np.maximum(a, b)
    i = order[np.searchsorted(keys[order], want, side="right") - 1]
    assert (keys[i] == want).all()
    return i


@pytest.mark.parametrize("kind,N", [("rp2", 24), ("sphere2", 16), ("torus2", 16),
                                    ("cylinder", 5)])
def test_edge_index_matches_the_per_call_lookup(kind, N):
    g = G.build_grid(G.topology_from_name(kind), N, 3)
    e = g.edges
    for a, b in ((e[:, 0], e[:, 1]), (e[:, 1], e[:, 0])):
        assert np.array_equal(g.edge_index(a, b), _reference_edge_index(g, a, b))
    s = g.stencil()
    far = next(v for v in range(1, g.num_vertices)
               if v not in s.indices[s.indptr[0]:s.indptr[1]])
    with pytest.raises(G.GridError):
        g.edge_index(np.array([0]), np.array([far]))
    for b in (-1, g.num_vertices):  # row * V + b would read the row before or after
        with pytest.raises(G.GridError):
            g.edge_index(np.array([1]), np.array([b]))


@pytest.mark.parametrize("kind", ["rp2", "sphere2", "torus2"])
def test_path_to_polylines_are_unchanged(kind, monkeypatch):
    g = G.build_grid(G.topology_from_name(kind), 16, 3)
    f = _rp2_bump(g) if kind != "torus2" else F.random_spd_metric(g, 2, (0.5, 2.0))
    _, path_to = _shortest_path_tree(f, [0, g.num_vertices // 3])
    paths = [path_to(v) for v in range(g.num_vertices)]
    monkeypatch.setattr(G.Grid, "edge_index", _reference_edge_index)
    for v, pts in enumerate(paths):
        assert np.array_equal(pts, path_to(v))


# ---------------------------------------------------------------------------
# one loop source per symmetry orbit, against the search of every source


def _every_source(field, base):
    return base


def _loop_outcomes(f, classes):
    """(cls, base vertex, length, points) of each class's shortest loop and of
    the systole (not on a cylinder); on sphere2, of the antipodal witness."""
    loops = [geo.shortest_loop_in_class(f, c) for c in classes]
    if f.grid.topology.kind == "sphere2":
        loops.append(geo._antipodal_loop(f))
    elif f.grid.topology.kind != "cylinder":
        loops.append(geo.systole(f))
    return [(w.cls, w.base_vertex, w.length, w.points) for w in loops]


def _assert_same_as_every_source(f, classes=()):
    got = _loop_outcomes(f, classes)
    with mock.patch.object(geo, "_orbit_representatives", _every_source):
        want = _loop_outcomes(f, classes)
    for a, b in zip(got, want, strict=True):
        assert a[:-1] == b[:-1]
        assert np.array_equal(a[-1], b[-1])


def _round(kind, N):
    return F.round_sphere_metric(G.build_grid(G.topology_from_name(kind), N, 3), 1.0)


ORBIT_CASES = {
    "flat-torus-16": (lambda: _pinned_field("torus2", 16, "flat"), SHORT + [(2, 1)]),
    "flat-torus-32": (lambda: _pinned_field("torus2", 32, "flat"), [(1, 0), (1, -1)]),
    "hex-torus-32": (lambda: _pinned_field("torus2", 32, "hex"), SHORT + [(2, 1)]),
    "hex-torus-64": (lambda: _pinned_field("torus2", 64, "hex"), [(1, -1)]),
    "sheared-torus-16": (lambda: F.constant_metric(G.build_grid(G.torus2(), 16, 3), SHEARED),
                         [(3, -1)]),
    "flat-cylinder-16": (lambda: F.flat_metric(G.build_grid(G.cylinder(), 16, 3)), [1, 2]),
    "flat-cylinder-64": (lambda: F.flat_metric(G.build_grid(G.cylinder(), 64, 3)), [1]),
    "bump-flat-32": (lambda: _bump_torus(32, 0, "flat"), SHORT),
    "bump-hexagonal-16": (lambda: _bump_torus(16, 3, "hexagonal"), SHORT),
    **{f"round-{kind}-{N}": (lambda kind=kind, N=N: _round(kind, N), [])
       for kind in ("rp2", "sphere2") for N in (16, 24, 32, 64)},
}


@pytest.mark.parametrize("name", sorted(ORBIT_CASES))
def test_orbit_sources_match_the_search_of_every_source(name):
    make, classes = ORBIT_CASES[name]
    _assert_same_as_every_source(make(), classes)


def _exact_axes(f):
    """Per chart axis, whether _orbit_representatives joins a lattice line
    along it (off the pole column of sphere2/rp2) into one orbit: whether it
    takes the unit lattice step along that axis as exact."""
    vid = f.grid.lattice_vid
    return tuple(len(geo._orbit_representatives(f, np.unique(line))) == 1
                 for line in (vid[:, 1], vid[1, :]))


def _oracle_exact_axes(f):
    """Per chart axis, whether the unit lattice step along it is periodic and
    maps every edge of the graph to an edge of bit-equal length."""
    g, vid = f.grid, f.grid.lattice_vid
    exact = []
    for k, periodic in enumerate(g.topology.periodic):
        step = np.empty(g.num_vertices, dtype=np.int64)
        step[vid] = np.roll(vid, -1, axis=k)  # lattice point i goes to i + e_k
        exact.append(periodic and geo._distortion(f.graph(), step) == 0)
    return tuple(exact)


def _assert_tensor_exact_is_oracle_exact(f):
    for tensor_exact, oracle_exact in zip(_exact_axes(f), _oracle_exact_axes(f), strict=True):
        assert oracle_exact or not tensor_exact


@pytest.mark.parametrize("name", sorted(ORBIT_CASES))
def test_tensor_and_graph_translation_tests_agree(name):
    f = ORBIT_CASES[name][0]()
    assert _exact_axes(f) == _oracle_exact_axes(f)


def _family_field(kind, N, family, seed, axis, ulp):
    """A field of one family on kind at N, with one tensor entry one ulp off
    when ulp: a constant (on sphere2/rp2 the round) metric, rescaled by a
    cosine of one chart axis or by a seeded bump, or a seeded random SPD
    field (on sphere2/rp2 the round metric)."""
    g = G.build_grid(G.topology_from_name(kind), N, 3)
    rng = np.random.default_rng(seed)
    sphere = kind in ("sphere2", "rp2")
    if family == "spd" and not sphere:
        f = F.random_spd_metric(g, seed, (0.5, 2.0))
    else:
        a, c = rng.uniform(0.5, 2.0, 2)
        f = F.round_sphere_metric(g) if sphere else F.constant_metric(g, [[a, 0.3], [0.3, c]])
        u = np.zeros(g.num_vertices)
        if family == "cosine":
            u = 0.3 * np.cos(2 * math.pi * g.coords[:, axis] + rng.uniform(0, 6.3))
        elif family == "bump":
            u = F._cosine_mixture(g, rng, 3, 0.2)
        if kind == "rp2":
            u = 0.5 * (u + u[g.antipode_map])  # invariant under the identification
        f = F.conformal_rescale(f, u)
    t = f.tensors.copy()
    if ulp:
        v = int(rng.integers(g.num_vertices))
        t[v, 0, 0] = np.nextafter(t[v, 0, 0], np.inf)
    return F.MetricField(g, t)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["torus2", "cylinder", "sphere2", "rp2"]),
       N=st.sampled_from([6, 8, 10, 12, 16]),
       family=st.sampled_from(["constant", "cosine", "bump", "spd"]),
       seed=st.integers(0, 2 ** 16), axis=st.integers(0, 1), ulp=st.booleans())
def test_a_tensor_exact_translation_is_a_graph_automorphism(kind, N, family, seed, axis, ulp):
    _assert_tensor_exact_is_oracle_exact(_family_field(kind, N, family, seed, axis, ulp))


def test_the_property_catches_a_test_that_always_says_exact(monkeypatch):
    f = _family_field("torus2", 8, "spd", 3, 0, False)
    _assert_tensor_exact_is_oracle_exact(f)
    monkeypatch.setattr(geo, "_orbit_representatives", lambda field, base: base[:1])
    with pytest.raises(AssertionError):
        _assert_tensor_exact_is_oracle_exact(f)


def _y_cosine_80():
    g = G.build_grid(G.torus2(), 80, 3)
    return F.conformal_metric(g, 0.3 * np.cos(2 * math.pi * (g.coords[:, 0] - 1 / 80)))


def test_orbit_sources_keep_the_cut_offs_of_the_search_of_every_source():
    # y-translations are exact: each base column is one orbit, sources 0 and
    # 80, searched in one block.  Source 80 wins; the search of every source
    # reaches it in its second block, cut off at the first block's best, and
    # the one block searches it at the first bound.  Only balanced meet pairs
    # count, so both meet its image at one vertex and give one witness.
    N = 80
    f = _y_cosine_80()
    base = geo._loop_base_vertices(f.grid, (1, 1))
    assert geo._orbit_representatives(f, base).tolist() == [0, N]
    w = geo.shortest_loop_in_class(f, (1, 1))
    with mock.patch.object(geo, "_orbit_representatives", _every_source):
        ref = geo.shortest_loop_in_class(f, (1, 1))
    assert w.base_vertex == ref.base_vertex == N
    assert w.length == ref.length
    assert np.array_equal(w.points, ref.points)


SEARCH_COUNTS = {  # case: (field, search, kernel calls, of which with predecessors)
    "hex-64-systole": (lambda: SYSTOLE_CASES["hex-64"](), geo.systole, 3, 1),
    "sheared-1-3-10-systole": (lambda: SYSTOLE_CASES["sheared-1-3-10"](), geo.systole, 3, 1),
    "bump-101-systole": (lambda: _bump_torus(48, 101, "hexagonal"), geo.systole, 6, 2),
    "bump-101-class-1-1": (lambda: _bump_torus(48, 101, "hexagonal"),
                           lambda f: geo.shortest_loop_in_class(f, (1, 1)), 3, 1),
    # both kept sources in one block: no block holds the place of a source
    # that is not searched
    "y-cosine-80-class-1-1": (_y_cosine_80, lambda f: geo.shortest_loop_in_class(f, (1, 1)),
                              2, 1),
    "round-rp2-64-systole": (lambda: _round("rp2", 64), geo.systole, 3, 1),
    # the search, and the witness that min_antipodal_distance now checks
    "round-sphere2-48-antipodal": (
        lambda: F.round_sphere_metric(G.build_grid(G.sphere2(), 48, 3), 1 / math.pi),
        geo.min_antipodal_distance, 2, 1),
}


@pytest.mark.parametrize("name", sorted(SEARCH_COUNTS))
def test_each_loop_search_runs_its_pinned_dijkstras(monkeypatch, name):
    # one witness Dijkstra, with predecessors, for each search whose leader
    # takes the lead, and no other search than the pruned walk's
    make, search, total, with_predecessors = SEARCH_COUNTS[name]
    f = make()
    calls, real = [], geo._shortest_paths

    def counting(*args, **kwargs):
        calls.append(kwargs.get("predecessors", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(geo, "_shortest_paths", counting)
    search(f)
    assert (len(calls), sum(calls)) == (total, with_predecessors)


def test_no_distance_field_asks_for_predecessors(monkeypatch):
    # only a loop witness walks a predecessor chain: face distances, coarea
    # levels and the set radii of a width certificate and its recheck read
    # distances alone
    asked, real = [], geo._shortest_paths
    signature = inspect.signature(real)

    def counting(*args, **kwargs):
        asked.append(signature.bind(*args, **kwargs).arguments.get("predecessors", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(geo, "_shortest_paths", counting)
    sq = F.random_spd_metric(G.build_grid(G.square(), 16, 3), 0, (0.5, 2.0))
    B.verify_besicovitch(sq)
    M.coarea_profile(sq, B.face_distance_map(sq)[0][:, 0])
    flat = F.flat_metric(G.build_grid(G.square(), 17, 3))
    W.validate_certificate(flat, W.width_upper_bound(flat, 0.45))
    assert asked and not any(asked)


def test_orbit_sources_are_counted(monkeypatch):
    calls = _counting_dijkstra(monkeypatch)
    checks = []
    real_distortion = geo._distortion
    monkeypatch.setattr(geo, "_distortion", lambda *a: checks.append(1) or real_distortion(*a))
    f = _pinned_field("torus2", 64, "hex")
    for cls in SHORT:
        calls.clear()
        geo.shortest_loop_in_class(f, cls)
        assert [n for n, _ in calls] == [1, 1]  # the search and the witness's chains
    assert _exact_axes(f) == (True, True)
    assert len(checks) == 0  # the tensors answer, and no graph is permuted
    f = _bump_torus(32, 0, "flat")
    for cls in [(1, 0), (0, 1)]:
        calls.clear()
        geo.shortest_loop_in_class(f, cls)
        assert sum(n for n, _ in calls) == len(geo._loop_base_vertices(f.grid, cls)) + 1
    assert _exact_axes(f) == (False, False)
    N = 64
    f = _round("rp2", N)
    calls.clear()
    geo.systole(f)
    assert sum(n for n, _ in calls) <= N + 2


@settings(max_examples=15, deadline=None)
@given(N=st.integers(6, 14), k=st.integers(1, 3), amp=st.floats(0.05, 0.5),
       phase=st.floats(0.0, 6.3))
def test_orbits_collapse_along_exact_axes_only(N, k, amp, phase):
    g = G.build_grid(G.torus2(), N, 3)
    f = F.conformal_metric(g, amp * np.cos(2 * math.pi * k * g.coords[:, 1] + phase))
    _assert_same_as_every_source(f, [(1, 0), (0, 1), (1, 1)])
    assert _exact_axes(f) == (True, False)
    # x-translations join the two base columns, and each base row into one orbit
    assert len(geo._orbit_representatives(f, geo._loop_base_vertices(g, (1, 0)))) == N
    assert len(geo._orbit_representatives(f, geo._loop_base_vertices(g, (0, 1)))) == 2


def test_a_tensor_entry_one_ulp_off_gets_no_reduction(monkeypatch):
    g = G.build_grid(G.torus2(), 16, 3)
    f = F.constant_metric(g, [[1.3, 0.3], [0.3, 0.9]])
    t = f.tensors.copy()
    t[37, 0, 0] = np.nextafter(t[37, 0, 0], 0.0)  # an ulp that reaches four edge lengths
    off = F.MetricField(g, t)
    moved = off.edge_lengths() != f.edge_lengths()
    assert moved.sum() == 4
    assert np.allclose(off.edge_lengths(), f.edge_lengths(), rtol=1e-15, atol=0)
    base = geo._loop_base_vertices(g, (1, 0))
    assert len(geo._orbit_representatives(f, base)) == 1
    assert np.array_equal(geo._orbit_representatives(off, base), base)
    assert _exact_axes(off) == (False, False)
    calls = _counting_dijkstra(monkeypatch)
    geo.shortest_loop_in_class(off, (1, 0))
    assert sum(n for n, _ in calls) == len(base) + 1
    _assert_same_as_every_source(off, [(1, 0), (0, 1)])


@pytest.mark.parametrize("kind", ["rp2", "sphere2"])
def test_round_metric_antipode_is_an_exact_isometry(kind):
    for N in (16, 24, 48, 64):
        g = G.build_grid(G.topology_from_name(kind), N, 3)
        f = F.round_sphere_metric(g, 1.0)
        # the tensors come from the integer lattice row, so antipodal rows are
        # bit-equal (the distortion read 1.8e-15 at N = 24 and 3.2e-15 at 48)
        assert geo._distortion(f.graph(), g.antipode_map) == 0
        if N in (16, 64):  # powers of two: the same tensors as from v - 1/2
            lat = math.pi * (g.coords[:, 1] - 0.5)
            assert np.array_equal(f.tensors[:, 0, 0], (2.0 * math.pi * np.cos(lat)) ** 2)
