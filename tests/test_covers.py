import math

import numpy as np
import pytest

from metriclab import covers as C
from metriclab import fields as F
from metriclab import geodesy as geo
from metriclab import grid as G


def strip_cover(grid, bounds):
    """Cover of axis-0 strips (lo, hi) given as fractions, wrap-aware."""
    sets = []
    x = grid.coords[:, 0]
    for lo, hi in bounds:
        if lo < hi:
            sets.append(np.where((x >= lo) & (x <= hi))[0])
        else:
            sets.append(np.where((x >= lo) | (x <= hi))[0])
    return C.Cover(sets, [0] * len(sets), [0.0] * len(sets))


def test_single_set_cover_gives_constant_one():
    g = G.build_grid(G.square(), 16, 2)
    f = F.flat_metric(g)
    cov = C.Cover([np.arange(g.num_vertices)], [0], [1.0])
    pou = C.partition_of_unity(f, cov)
    assert np.allclose(pou.psi, 1.0)


def test_two_strip_cover_invariants():
    g = G.build_grid(G.square(), 24, 3)
    f = F.flat_metric(g)
    cov = strip_cover(g, [(0.0, 0.6), (0.4, 1.0)])
    pou = C.partition_of_unity(f, cov)
    assert np.abs(pou.psi.sum(axis=0) - 1.0).max() <= 1e-12
    assert (pou.Phi > 0).all()
    for i, s in enumerate(cov.sets):
        members = np.zeros(g.num_vertices, dtype=bool)
        members[s] = True
        assert not np.any((pou.psi[i] > 0) & ~members)
        assert (pou.phi[i][~members] == 0).all()
        assert (pou.phi[i][members] > 0).all()


def test_cover_gap_raises():
    g = G.build_grid(G.square(), 16, 1)
    f = F.flat_metric(g)
    cov = strip_cover(g, [(0.0, 0.4), (0.6, 1.0)])
    with pytest.raises(C.CoverError):
        C.partition_of_unity(f, cov)


def test_random_cover_on_torus_invariants():
    g = G.build_grid(G.torus2(), 48, 3)
    f = F.random_spd_metric(g, 17, (0.5, 2.0))
    rng = np.random.default_rng(17)
    centers = rng.integers(0, g.num_vertices, size=6)
    D = geo.distance_matrix(f, centers)
    label = np.argmin(D, axis=0)
    sets = []
    for i in range(6):
        ball = np.where(D[i] <= np.quantile(D[i], 0.35))[0]
        sets.append(np.union1d(np.where(label == i)[0], ball))
    cov = C.Cover(sets, centers.tolist(), [0.0] * 6)
    pou = C.partition_of_unity(f, cov)
    assert np.abs(pou.psi.sum(axis=0) - 1.0).max() <= 1e-12
    e, w = g.edges, f.edge_lengths()
    for i in range(6):
        df = np.abs(pou.phi[i][e[:, 0]] - pou.phi[i][e[:, 1]])
        assert (df <= w + 1e-12).all()
    nerve, psibar = C.nerve(cov, g.num_vertices, pou)
    assert nerve.dimension == cov.multiplicity(g.num_vertices) - 1


def test_nerve_disjoint_and_no_triple():
    g = G.build_grid(G.square(), 16, 1)
    x = g.coords[:, 0]
    disjoint = C.Cover([np.where(x < 0.4)[0], np.where(x > 0.6)[0]], [0, 0], [0, 0])
    nerve, _ = C.nerve(disjoint, g.num_vertices)
    assert nerve.dimension == 0
    assert nerve.edges() == []

    strips = C.Cover([np.where(x <= 0.4)[0],
                      np.where((x >= 0.3) & (x <= 0.7))[0],
                      np.where(x >= 0.6)[0]], [0] * 3, [0.0] * 3)
    nerve2, _ = C.nerve(strips, g.num_vertices)
    assert nerve2.dimension == 1
    assert nerve2.edges() == [(0, 1), (1, 2)]
    assert not nerve2.has_simplex((0, 1, 2))


def test_width0_interval_square():
    gi = G.build_grid(G.interval(), 33, 1)
    assert C.width0(F.flat_metric(gi)).value == pytest.approx(0.5, abs=1e-12)
    gs = G.build_grid(G.square(), 33, 3)
    w0 = C.width0(F.flat_metric(gs)).value
    assert math.sqrt(2) / 2 - 1e-12 <= w0 <= math.sqrt(2) / 2 * 1.028


def test_one_dimensional_volume_profile_bounds_width():
    # stars and circles: VolPro(R) < R forces every component radius < R
    for legs in (3, 4, 5):
        for L in (0.1, 0.2, 0.35):
            graph = C.star_graph(legs, L, segments_per_leg=16)
            for R in (0.2, 0.5, 0.9, 1.3):
                if graph.volume_profile(R) < R:
                    assert graph.vertex_radius() < R
    circle = C.circle_graph(0.8, 64)
    for R in (0.5, 0.81, 1.0):
        if circle.volume_profile(R) < R:
            assert circle.vertex_radius() < R


def test_metric_graph_component_radii_of_a_disjoint_union():
    star, circle = C.star_graph(4, 0.3, 5), C.circle_graph(0.9, 11)
    shift = star.num_vertices
    union = C.MetricGraph(shift + circle.num_vertices + 1,  # plus one isolated vertex
                          star.edges + [(u + shift, v + shift, L) for u, v, L in circle.edges])
    with np.errstate(invalid="ignore"):
        assert union.vertex_radius() == np.inf
    assert union.component_radii() == [star.vertex_radius(), circle.vertex_radius(), 0.0]
    assert star.vertex_radius() == pytest.approx(0.3)
    assert circle.vertex_radius() == pytest.approx(0.45)


@pytest.mark.filterwarnings("error")
def test_vertex_radius_of_a_disconnected_graph_warns_nothing():
    star, circle = C.star_graph(3, 0.5, 4), C.circle_graph(1.0, 8)
    shift = star.num_vertices
    union = C.MetricGraph(shift + circle.num_vertices,
                          star.edges + [(u + shift, v + shift, L) for u, v, L in circle.edges])
    assert union.vertex_radius() == np.inf


def test_slicing_cover_interval():
    g = G.build_grid(G.interval(), 33, 1)
    f = F.flat_metric(g)
    cov = C.slicing_cover(f, g.vertex_at((0,)), 0.4)
    assert cov.multiplicity(g.num_vertices) <= 2
    assert cov.covers_everything(g.num_vertices)


def test_slicing_cover_square_corner():
    g = G.build_grid(G.square(), 33, 3)
    f = F.flat_metric(g)
    cov = C.slicing_cover(f, g.vertex_at((0, 0)), 0.3)
    counts = cov.membership_counts(g.num_vertices)
    assert counts.max() <= 2
    assert counts.min() >= 1
    nerve, _ = C.nerve(cov, g.num_vertices)
    assert nerve.dimension <= 1
    assert all(r > 0 for r in cov.radii)


def test_slicing_cover_radii_not_bounded_by_R():
    # a thin long cylinder: annuli wrap all the way around, so component
    # radii stay near half the circumference however small R is
    g = G.build_grid(G.cylinder(), 48, 3)
    f = F.constant_metric(g, [[4.0, 0.0], [0.0, 0.04]])  # circumference 2, height 0.2
    p = g.vertex_at((0, 0))
    R = 0.1
    cov = C.slicing_cover(f, p, R)
    assert cov.multiplicity(g.num_vertices) <= 2
    assert max(cov.radii) > R


def test_partition_requires_union():
    g = G.build_grid(G.square(), 12, 1)
    f = F.flat_metric(g)
    cov = C.Cover([np.arange(10)], [0], [0.0])
    with pytest.raises(C.CoverError):
        C.partition_of_unity(f, cov)
