"""Exact invariants of the distance engine, as hypothesis properties.

Both hold bit for bit in IEEE arithmetic, so they are asserted with == and
<=, never within a tolerance:

* a distance field is 1-Lipschitz along every edge: Dijkstra relaxed each
  edge with the same floating-point sum, so d[b] <= d[a] + w(a, b);
* scaling every tensor by 4^k scales every edge length by exactly 2^k (the
  square root of an exact power of 4), hence every distance, radius and
  systole by 2^k and every volume by 4^k, with the same centers, base
  vertices and classes; on the square, a Besicovitch report's spans d_i
  scale by 2^k and its volume by 4^k, with |jac|, row norms and verdict
  unchanged (not on cube3: LAPACK's det of 4^k t is not 64^k det t bit for
  bit there);
* on the round sphere2 and rp2 the antipode maps every edge to an edge of
  bit-equal length, so d(-u, -v) == d(u, v); on a conformal rescale that
  respects the antipode only up to rounding, the two agree within the
  antipode's distortion plus the reversal slack.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import besicovitch as B
from metriclab import fields as F
from metriclab import geodesy as geo
from metriclab import grid as G
from metriclab import measure as M


def _field(kind, N, seed):
    g = G.build_grid(G.topology_from_name(kind), N, 3)
    if g.antipode_map is None:
        return F.random_spd_metric(g, seed, (0.5, 2.0))
    # even longitude frequencies respect the antipodal map
    rng = np.random.default_rng(seed)
    x, y = g.coords[:, 0], g.coords[:, 1]
    u = (rng.uniform(-0.2, 0.2) * np.cos(4 * math.pi * x + rng.uniform(0, math.pi))
         * np.sin(math.pi * y) ** 2 + rng.uniform(-0.1, 0.1) * np.cos(2 * math.pi * y))
    return F.conformal_rescale(F.round_sphere_metric(g, 1.0), u)


def _resolution(kind):
    if kind in ("sphere2", "rp2"):
        return st.integers(3, 7).map(lambda half: 2 * half)
    return st.integers(4 if kind in ("square", "hexagon:regular") else 5, 12)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["square", "torus2", "cylinder", "hexagon:regular", "sphere2",
                             "rp2"]),
       seed=st.integers(0, 10_000), quotient=st.booleans(), data=st.data())
def test_distance_fields_are_1_lipschitz_on_every_edge(kind, seed, quotient, data):
    f = _field(kind, data.draw(_resolution(kind)), seed)
    g = f.grid
    sources = data.draw(st.lists(st.integers(0, g.num_vertices - 1), min_size=1, max_size=4))
    d = geo.distance_field(f, sources, quotient=quotient)
    a, b = d[g.edges[:, 0]], d[g.edges[:, 1]]
    w = f.edge_lengths()
    assert (b <= a + w).all() and (a <= b + w).all()


@settings(max_examples=64, deadline=None)
@given(kind=st.sampled_from(["torus2", "square", "rp2"]), seed=st.integers(0, 10_000),
       k=st.sampled_from([-3, -2, -1, 1, 2, 3]), data=st.data())
def test_scaling_the_tensors_by_a_power_of_four_scales_exactly(kind, seed, k, data):
    f = _field(kind, data.draw(_resolution(kind)), seed)
    s = f.scaled(4.0 ** k)
    unit = 2.0 ** k
    assert np.array_equal(s.edge_lengths(), unit * f.edge_lengths())
    sources = data.draw(st.lists(st.integers(0, f.grid.num_vertices - 1), min_size=1,
                                 max_size=3))
    assert np.array_equal(geo.distance_field(s, sources),
                          unit * geo.distance_field(f, sources))
    r, rs = geo.radius(f), geo.radius(s)
    assert (rs.value, rs.center) == (unit * r.value, r.center)
    assert M.volume(s) == 4.0 ** k * M.volume(f)
    if kind != "square":
        w, ws = geo.systole(f), geo.systole(s)
        assert (ws.length, ws.base_vertex, ws.cls) == (unit * w.length, w.base_vertex, w.cls)
    else:
        b, bs = B.verify_besicovitch(f), B.verify_besicovitch(s)
        assert (bs.d, bs.vol) == (tuple(unit * d for d in b.d), 4.0 ** k * b.vol)
        assert (bs.jac_max, bs.row_norm_max, bs.passed) == (b.jac_max, b.row_norm_max, b.passed)
        assert np.array_equal(bs.per_cell_jac, b.per_cell_jac)


@pytest.mark.parametrize("kind", ["sphere2", "rp2"])
@pytest.mark.parametrize("N", [8, 16, 24, 32])
def test_the_round_antipode_preserves_distances_exactly(kind, N):
    f = F.round_sphere_metric(G.build_grid(G.topology_from_name(kind), N, 3), 1.0)
    anti = f.grid.antipode_map
    assert geo._distortion(f.graph(), anti) == 0.0
    for u in range(0, f.grid.num_vertices, max(1, f.grid.num_vertices // 24)):
        d = geo.distance_field(f, [u], quotient=False)
        assert np.array_equal(d, geo.distance_field(f, [anti[u]], quotient=False)[anti])


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["sphere2", "rp2"]), seed=st.integers(0, 10_000), data=st.data())
def test_antipode_invariant_rescales_preserve_distances_within_their_distortion(kind, seed,
                                                                               data):
    f = _field(kind, data.draw(_resolution(kind)), seed)
    anti = f.grid.antipode_map
    graph = f.graph()
    tol = geo._distortion(graph, anti) + geo._reversal_slack(graph)
    u = data.draw(st.integers(0, f.grid.num_vertices - 1))
    d = geo.distance_field(f, [u], quotient=False)
    e = geo.distance_field(f, [anti[u]], quotient=False)[anti]
    assert (np.abs(d - e) <= tol * np.maximum(d, e)).all()
