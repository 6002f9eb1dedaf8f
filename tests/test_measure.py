import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import fields as F
from metriclab import geodesy as geo
from metriclab import grid as G
from metriclab import measure as M
from metriclab import width as W

HEX = np.array([[1.0, 0.5], [0.5, 1.0]])


def test_volume_flat_and_hexagonal_exact():
    g = G.build_grid(G.square(), 32, 3)
    assert M.volume(F.flat_metric(g)) == pytest.approx(1.0, abs=1e-12)
    gt = G.build_grid(G.torus2(), 32, 3)
    assert M.volume(F.constant_metric(gt, HEX)) == pytest.approx(
        math.sqrt(3) / 2, abs=1e-12)


def test_volume_sphere_within_one_percent():
    g = G.build_grid(G.sphere2(), 64, 3)
    assert M.volume(F.round_sphere_metric(g, 1.0)) == pytest.approx(4 * math.pi, rel=0.01)


def test_volume_scaling_covariance():
    g = G.build_grid(G.torus2(), 16, 2)
    f = F.random_spd_metric(g, 6, (0.5, 2.0))
    assert M.volume(f.scaled(2.25)) == pytest.approx(2.25 * M.volume(f), rel=1e-9)


def test_region_volume_additivity_exact():
    g = G.build_grid(G.square(), 24, 3)
    f = F.random_spd_metric(g, 12, (0.5, 2.0))
    mask = np.sin(17.0 * np.arange(g.num_vertices)) > 0
    total = M.region_volume(f, mask) + M.region_volume(f, ~mask)
    assert total == pytest.approx(M.volume(f), abs=1e-12)


def test_ball_volume_zero_disk_and_total():
    # inscribed-cell quadrature plus stencil inflation eats ~1.4 h/r + 2.6%,
    # so the 5% disk check needs h small against r
    g = G.build_grid(G.square(), 257, 3)
    f = F.flat_metric(g)
    c = g.vertex_at((128, 128))
    assert M.ball_volume(f, c, 0.0) == 0.0
    r = 0.3
    assert M.ball_volume(f, c, r) == pytest.approx(math.pi * r * r, rel=0.05)
    rad = geo.radius(F.flat_metric(G.build_grid(G.square(), 33, 3)))
    g33 = G.build_grid(G.square(), 33, 3)
    f33 = F.flat_metric(g33)
    assert M.ball_volume(f33, rad.center, rad.value * (1 + 1e-9)) == pytest.approx(
        1.0, abs=1e-12)


def test_ball_volume_monotone():
    g = G.build_grid(G.square(), 33, 3)
    f = F.random_spd_metric(g, 3, (0.5, 2.0))
    d = geo.distance_field(f, [g.vertex_at((16, 16))])
    vols = [M.ball_volume(f, g.vertex_at((16, 16)), r, dist=d)
            for r in np.linspace(0, 1.5, 12)]
    assert all(b >= a - 1e-15 for a, b in zip(vols, vols[1:]))


def test_level_set_flat_square():
    g = G.build_grid(G.square(), 64, 3)
    f = F.flat_metric(g)
    d = geo.distance_field(f, G.face_vertices(g, "A"))
    assert M.level_set_measure(f, d, 0.5) == pytest.approx(1.0, rel=0.01)


def test_level_set_sphere_equator():
    g = G.build_grid(G.sphere2(), 64, 3)
    f = F.round_sphere_metric(g, 1.0)
    north = np.where(g.coords[:, 1] == 1.0)[0][0]
    d = geo.distance_field(f, [north], quotient=False)
    assert M.level_set_measure(f, d, math.pi / 2) == pytest.approx(2 * math.pi, rel=0.02)


def test_level_set_out_of_range_warns_and_zero():
    g = G.build_grid(G.square(), 16, 1)
    f = F.flat_metric(g)
    d = geo.distance_field(f, G.face_vertices(g, "A"))
    with pytest.warns(UserWarning):
        assert M.level_set_measure(f, d, -0.5) == 0.0


def test_level_set_refuses_a_nan_level():
    # it returned 0.0 with no warning
    g = G.build_grid(G.square(), 16, 1)
    with pytest.raises(M.MeasureError, match="level t is NaN"):
        M.level_set_measure(F.flat_metric(g), g.coords[:, 0], math.nan)


def test_level_set_refuses_a_function_without_a_finite_value():
    # it was numpy's bare "zero-size array" ValueError
    g = G.build_grid(G.square(), 8, 3)
    with pytest.raises(M.MeasureError, match="no finite value"):
        M.level_set_measure(F.flat_metric(g), np.full(g.num_vertices, np.inf), 0.5)


@pytest.mark.parametrize("center_sample", [math.nan, 2.5, 0])
def test_volume_profile_refuses_a_center_sample_that_is_not_a_count(center_sample):
    # nan and 2.5 were a TypeError from np.linspace
    f = F.flat_metric(G.build_grid(G.square(), 8, 3))
    with pytest.raises(M.MeasureError, match="center_sample must be an integer >= 1"):
        M.volume_profile(f, [0.1], center_sample=center_sample)


def test_coarea_flat_square_fubini():
    g = G.build_grid(G.square(), 64, 3)
    f = F.flat_metric(g)
    d = geo.distance_field(f, G.face_vertices(g, "A"))
    prof = M.coarea_profile(f, d, 256)
    assert prof.total == pytest.approx(prof.volume, rel=0.01)
    assert (prof.a >= 0).all()
    assert (np.diff(prof.t_grid) > 0).all()


def test_coarea_constant_function():
    g = G.build_grid(G.square(), 16, 2)
    f = F.flat_metric(g)
    prof = M.coarea_profile(f, np.zeros(g.num_vertices))
    assert prof.total == 0.0
    assert prof.volume == pytest.approx(1.0, abs=1e-12)


def test_ball_volume_refuses_a_nan_radius():
    f = F.flat_metric(G.build_grid(G.square(), 8, 3))
    with pytest.raises(M.MeasureError, match="r must be nonnegative"):
        M.ball_volume(f, 0, math.nan)
    assert M.ball_volume(f, 0, math.inf) == M.volume(f)


@pytest.mark.parametrize("t_count", [1, 0, -5, 2.5, 3.0])
def test_coarea_refuses_fewer_than_two_levels(t_count):
    # one level reported a total of 0 and a defect of the whole volume; none
    # divided by zero; 2.5 built three levels, the last at max f, and a total
    # of 0.6 against a volume of 1
    g = G.build_grid(G.square(), 16, 3)
    f = F.flat_metric(g)
    d = geo.distance_field(f, G.face_vertices(g, "A"))
    with pytest.raises(M.MeasureError, match="t_count must be at least 2"):
        M.coarea_profile(f, d, t_count)
    assert M.coarea_profile(f, d, 2).total > 0
    assert len(M.coarea_profile(f, d, np.int64(3)).t_grid) == 3


def test_coarea_rejects_non_lipschitz():
    g = G.build_grid(G.square(), 16, 2)
    f = F.flat_metric(g)
    with pytest.raises(M.MeasureError):
        M.coarea_profile(f, 2.0 * g.coords[:, 0])


def test_coarea_inequality_one_sided():
    g = G.build_grid(G.torus2(), 32, 3)
    f = F.random_spd_metric(g, 21, (0.5, 2.0))
    d = geo.distance_field(f, [0])
    prof = M.coarea_profile(f, d, 128)
    assert prof.total <= prof.volume * 1.02


def test_cylinder_coarea_levels_at_least_circumference():
    g = G.build_grid(G.cylinder(), 48, 3)
    f = F.flat_metric(g)
    d = geo.distance_field(f, G.face_vertices(g, "B"))
    prof = M.coarea_profile(f, d, 128)
    inner = (prof.t_grid > 0.05) & (prof.t_grid < 0.95)
    assert prof.a[inner].min() >= 1.0 - 1e-9
    assert prof.total >= 1.0 - 0.01


def _per_level(f, fvals, levels, cell_mask=None):
    """Oracle: one marching-squares pass per level."""
    return np.array([M._marching_segments(f, fvals, t, cell_mask).lengths.sum()
                     for t in levels])


def _cases_seen(f, fvals, levels, cell_mask=None):
    """Marching-squares codes that occur over the ladder."""
    _, corners, _ = M._full_cells(f, cell_mask)
    inside = fvals[corners][None, :, :] - np.asarray(levels)[:, None, None] > 0
    return set(np.unique((inside * np.array([1, 2, 4, 8])).sum(axis=2)).tolist())


def test_marching_segments_match_pinned_outputs():
    # digest of every LevelSegments array, taken from the per-level
    # implementation that predates the shared segment core (re-pinned over
    # the arrays that remain once the unread crossed-edge keys were dropped)
    g = G.build_grid(G.torus2(), 16, 3)
    f = F.random_spd_metric(g, 3, (0.5, 2.0))
    fv = np.random.default_rng(0).random(g.num_vertices)
    h = hashlib.sha256()
    for t in (0.25, 0.5, float(fv[7]), 0.75):
        s = M._marching_segments(f, fv, t)
        for a in (s.cells, s.points_a, s.points_b, s.lengths):
            h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest()[:16] == "b3b3d4124fe3aa58"


@pytest.mark.parametrize("name", ["flat torus", "hexagonal torus", "spd square",
                                  "spd cylinder", "round sphere", "spd hexagon",
                                  "masked spd torus"])
def test_ladder_lengths_equal_per_level_passes(name):
    rng = np.random.default_rng(4)
    top, metric = {
        "flat torus": (G.torus2(), F.flat_metric),
        "hexagonal torus": (G.torus2(), lambda g: F.constant_metric(g, HEX)),
        "spd square": (G.square(), lambda g: F.random_spd_metric(g, 7, (0.5, 2.0))),
        "spd cylinder": (G.cylinder(), lambda g: F.random_spd_metric(g, 8, (0.5, 2.0))),
        "round sphere": (G.sphere2(), F.round_sphere_metric),
        "spd hexagon": (G.hexagon(), lambda g: F.random_spd_metric(g, 5, (0.5, 2.0))),
        "masked spd torus": (G.torus2(), lambda g: F.random_spd_metric(g, 9, (0.5, 2.0))),
    }[name]
    g = G.build_grid(top, 20, 3)
    f = metric(g)
    mask = rng.random(len(g.cells)) < 0.6 if name.startswith("masked") else None
    seen = set()
    for fvals in (geo.distance_field(f, [g.num_vertices // 3], quotient=False),
                  rng.random(g.num_vertices)):
        # levels equal to vertex values, unsorted and repeated, plus a sweep
        levels = np.concatenate([fvals[rng.integers(0, g.num_vertices, 30)],
                                 np.linspace(fvals.min() - 0.1, fvals.max() + 0.1, 60)])
        got = M.ladder_lengths(f, fvals, levels, cell_mask=mask)
        assert np.array_equal(got, _per_level(f, fvals, levels, mask))
        seen |= _cases_seen(f, fvals, levels, mask)
    assert {5, 10} <= seen  # both saddle codes are exercised


def test_ladder_lengths_blocks_do_not_change_lengths(monkeypatch):
    g = G.build_grid(G.square(), 24, 3)
    f = F.random_spd_metric(g, 2, (0.5, 2.0))
    fvals = geo.distance_field(f, [0])
    levels = np.linspace(0.0, fvals.max(), 200)
    want = M.ladder_lengths(f, fvals, levels)
    for pairs in (1, 7, 100):
        monkeypatch.setattr(M, "_LADDER_BLOCK_PAIRS", pairs)
        assert np.array_equal(M.ladder_lengths(f, fvals, levels), want)
    assert np.array_equal(want, _per_level(f, fvals, levels))


def test_ladder_lengths_empty_ladder_and_3d_grid():
    g = G.build_grid(G.square(), 8, 1)
    f = F.flat_metric(g)
    assert M.ladder_lengths(f, g.coords[:, 0], []).shape == (0,)
    g3 = G.build_grid(G.cube(3), 4, 1)
    with pytest.raises(M.MeasureError):
        M.ladder_lengths(F.flat_metric(g3), np.zeros(g3.num_vertices), [0.5])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), top=st.sampled_from(["square", "torus2", "cylinder"]),
       quantized=st.booleans(), masked=st.booleans(), data=st.data())
def test_ladder_lengths_property(seed, top, quantized, masked, data):
    rng = np.random.default_rng(seed)
    N = data.draw(st.integers(4 if top == "square" else 5, 10))
    g = G.build_grid(getattr(G, top)(), N, 3)
    f = F.random_spd_metric(g, seed, (0.5, 2.0))
    fvals = rng.random(g.num_vertices)
    if quantized:  # ties between corners and levels
        fvals = np.round(4 * fvals) / 4
    levels = np.concatenate([rng.choice(fvals, 5), rng.uniform(-0.1, 1.1, 10),
                             np.round(4 * rng.random(5)) / 4])
    mask = rng.random(len(g.cells)) < 0.5 if masked else None
    got = M.ladder_lengths(f, fvals, levels, cell_mask=mask)
    assert np.array_equal(got, _per_level(f, fvals, levels, mask))


def _reference_segments(tensors, corners, xy, s):
    """Oracle: the segment core as it was before flat indices.  corners (P, 4),
    xy (P, 4, 2) and s (P, 4) are gathered per row, and each crossing blends
    a (S, 2, 2) stack of tensors."""
    inside = s > 0.0
    case = (inside * np.array([1, 2, 4, 8])).sum(axis=1)
    saddle = np.where((case == 5) | (case == 10))[0]
    avg_in = s[saddle].mean(axis=1) > 0
    case[saddle] = np.where(avg_in != (case[saddle] == 10), 16, 17)
    pairs = M._CASE_EDGES[case]
    rows, slot = np.nonzero(pairs[:, :, 0] >= 0)
    ea, eb = pairs[rows, slot, 0], pairs[rows, slot, 1]

    def crossing(j):
        a, b = j, M._NEXT[j]
        sa, sb = s[rows, a], s[rows, b]
        alpha = sa / (sa - sb)
        xa = xy[rows, a]
        pt = xa + alpha[:, None] * (xy[rows, b] - xa)
        ten = ((1 - alpha)[:, None, None] * tensors[corners[rows, a]]
               + alpha[:, None, None] * tensors[corners[rows, b]])
        return pt, ten

    pa, ta = crossing(ea)
    pb, tb = crossing(eb)
    q = F._quadratic_forms(pb - pa, 0.5 * (ta + tb))
    return rows, pa, pb, np.sqrt(np.maximum(q, 0.0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       top=st.sampled_from(["square", "torus2", "cylinder", "hexagon", "sphere2"]),
       quantized=st.booleans(), masked=st.booleans(), data=st.data())
def test_segment_core_equals_the_stack_blend_oracle(seed, top, quantized, masked, data):
    rng = np.random.default_rng(seed)
    if top == "sphere2":
        g = G.build_grid(G.sphere2(), data.draw(st.sampled_from([6, 8, 10])), 3)
        f = F.round_sphere_metric(g)
    else:
        g = G.build_grid(getattr(G, top)(), data.draw(st.integers(5, 10)), 3)
        f = F.random_spd_metric(g, seed, (0.5, 2.0))
    fvals = rng.random(g.num_vertices)
    if quantized:  # ties between corners and levels, and more saddles
        fvals = np.round(4 * fvals) / 4
    mask = rng.random(len(g.cells)) < 0.5 if masked else None
    cid, corners, xcols = M._full_cells(f, mask)
    xy = g.cell_corner_xy[cid][:, M._CCW, :]
    # rows as a ladder passes them: cells repeated, in any order, each at a level
    cell = rng.integers(0, max(len(cid), 1), 3 * len(cid))
    levels = np.concatenate([rng.choice(fvals, 5), rng.uniform(-0.1, 1.1, 5),
                             np.round(4 * rng.random(5)) / 4])
    s = fvals[corners][cell] - rng.choice(levels, len(cell))[:, None]
    got = M._segments(M._tensor_columns(f), corners, xcols, s, cell)
    want = _reference_segments(f.tensors, corners[cell], xy[cell], s)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


def _ladder_peak(N):
    """tracemalloc peak of one 256-level ladder of a distance row on the SPD square."""
    g = G.build_grid(G.square(), N, 3)
    f = F.random_spd_metric(g, 1, (0.5, 2.0))
    fvals = geo.distance_field(f, [0])
    levels = np.linspace(0.0, fvals.max(), 258)[1:-1]
    M.ladder_lengths(f, fvals, levels)
    tracemalloc.start()
    try:
        M.ladder_lengths(f, fvals, levels)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ladder_memory_grows_at_most_as_v_to_the_five_fourths():
    # V grows about 4-fold from N = 64 to N = 128; blocks of pairs bound the rest
    assert _ladder_peak(128) <= 4 ** 1.25 * _ladder_peak(64)


def test_lengths_call_no_einsum(monkeypatch):
    g = G.build_grid(G.square(), 17, 3)
    f = F.flat_metric(g)
    d = geo.distance_field(f, G.face_vertices(g, "A"))

    def einsum(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", einsum)
    assert M.coarea_profile(f, d, 32).total == pytest.approx(1.0, rel=0.05)
    assert len(W.separating_cut(f, 0.5).curves) >= 1
    assert F.polyline_length(f, [[0.0, 0.0], [0.1, 0.1]]) == pytest.approx(0.1 * math.sqrt(2))


def test_volume_profile_small_disk():
    g = G.build_grid(G.square(), 257, 3)
    f = F.flat_metric(g)
    table = M.volume_profile(f, [0.1], center_sample=16)
    # interior centers dominate; boundary centers give less
    assert table.volpro[0] == pytest.approx(math.pi * 0.01, rel=0.10)
    assert table.sampled


def test_volume_profile_monotone_and_total():
    g = G.build_grid(G.square(), 33, 3)
    f = F.flat_metric(g)
    r = geo.radius(f)
    table = M.volume_profile(f, [0.1, 0.3, 0.6, r.value * 1.01, 2.0], center_sample=32)
    assert (np.diff(table.volpro) >= -1e-15).all()
    assert table.volpro[-1] == pytest.approx(M.volume(f), abs=1e-12)
    assert (table.volpro <= M.volume(f) + 1e-12).all()


def test_hausdorff_conversion_constants():
    # oracle: unit-ball volumes 2, pi, 4 pi / 3, pi^2 / 2 divided by 2^n
    assert M.hausdorff_conversion(1) == 1.0
    assert M.hausdorff_conversion(2) == math.pi / 4
    assert M.hausdorff_conversion(3) == (4 * math.pi / 3) / 8
    assert M.hausdorff_conversion(4) == (math.pi ** 2 / 2) / 16
    with pytest.raises(M.MeasureError):
        M.hausdorff_conversion(5)


def test_rp2_measures_are_half_of_cover():
    g = G.build_grid(G.rp2(), 32, 3)
    f = F.round_sphere_metric(g, 1.0)
    gs = G.build_grid(G.sphere2(), 32, 3)
    fs = F.round_sphere_metric(gs, 1.0)
    assert M.volume(f) == pytest.approx(M.volume(fs) / 2, rel=1e-12)
