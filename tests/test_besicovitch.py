import math
import tracemalloc

import numpy as np
import pytest

from metriclab import besicovitch as B
from metriclab import fields as F
from metriclab import geodesy as geo
from metriclab import grid as G
from metriclab import measure as M


def test_flat_square_equality_case():
    g = G.build_grid(G.square(), 64, 3)
    f = F.flat_metric(g)
    rep = B.verify_besicovitch(f)
    assert rep.d[0] == pytest.approx(1.0, abs=1e-12)
    assert rep.d[1] == pytest.approx(1.0, abs=1e-12)
    assert rep.vol == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.slack) <= 1e-12
    assert rep.jac_max == pytest.approx(1.0, abs=1e-9)
    assert rep.degree_ok and rep.degree_checked
    assert rep.passed
    assert rep.flatness <= 1e-24


def test_flat_map_is_identity_chart():
    g = G.build_grid(G.square(), 32, 3)
    fmap, d = B.face_distance_map(F.flat_metric(g))
    assert np.allclose(fmap, g.coords, atol=1e-12)
    assert d == pytest.approx((1.0, 1.0), abs=1e-12)


def test_stretched_map_and_flatness():
    g = G.build_grid(G.square(), 32, 3)
    f = F.constant_metric(g, [[4.0, 0.0], [0.0, 1.0]])
    fmap, d = B.face_distance_map(f)
    assert d == pytest.approx((2.0, 1.0), abs=1e-12)
    assert np.allclose(fmap, g.coords * np.array([2.0, 1.0]), atol=1e-12)
    rep = B.verify_besicovitch(f)
    assert rep.passed
    assert rep.flatness <= 1e-24


def test_face_containment_exact_and_lipschitz():
    g = G.build_grid(G.square(), 48, 3)
    f = F.random_spd_metric(g, 13, (0.25, 4.0))
    fmap, d = B.face_distance_map(f)
    assert B.check_face_containment(f, fmap, d)
    e, w = g.edges, f.edge_lengths()
    for i in range(2):
        df = np.abs(fmap[e[:, 0], i] - fmap[e[:, 1], i])
        assert (df <= w + 1e-12).all()


def test_hadamard_consistency():
    g = G.build_grid(G.square(), 48, 3)
    f = F.random_spd_metric(g, 14, (0.25, 4.0))
    fmap, _ = B.face_distance_map(f)
    jac_max, per_cell, row_max = B.jacobian_bound_check(f, fmap)
    assert per_cell.max() == pytest.approx(jac_max)
    assert row_max >= 1.0 - 1e-9  # distance rows saturate the unit bound


def test_degree_flat_one_and_zero_map():
    g = G.build_grid(G.square(), 32, 3)
    fmap, d = B.face_distance_map(F.flat_metric(g))
    assert B.boundary_degree(fmap, g, d) == 1
    assert B.boundary_degree(np.zeros((g.num_vertices, 2)), g, (1.0, 1.0)) == 0


def test_degree_random_fields_always_one():
    g = G.build_grid(G.square(), 32, 3)
    for seed in range(1, 21):
        f = F.random_spd_metric(g, seed, (0.25, 4.0))
        fmap, d = B.face_distance_map(f)
        assert B.boundary_degree(fmap, g, d) == 1


class _Indexed(np.ndarray):
    """An array that records every index it is read with."""

    def __getitem__(self, item):
        self.reads.append(item)
        return np.asarray(self)[item]


@pytest.mark.parametrize("name,N", [("square", 48), ("cube3", 6)])
def test_jacobian_gathers_no_cells_when_every_cell_is_full(name, N):
    g = G.build_grid(G.topology_from_name(name), N, 3)
    f = F.random_spd_metric(g, 3, (0.5, 2.0))
    fmap, _ = B.face_distance_map(f)
    f.cell_tensors(), f.cell_det()  # cached before the arrays are watched
    want = B.jacobian_bound_check(f, fmap)
    assert len(g.full_cells) == len(g.cells)
    for attr in ("cells", "cell_corner_xy", "_cell_tensors", "_cell_det"):
        owner = f if attr.startswith("_") else g
        watched = getattr(owner, attr).view(_Indexed)
        watched.reads = []
        setattr(owner, attr, watched)
    got = B.jacobian_bound_check(f, fmap)
    for attr in ("cells", "cell_corner_xy", "_cell_tensors", "_cell_det"):
        reads = getattr(f if attr.startswith("_") else g, attr).reads
        assert reads == [slice(None)], attr
    assert got[0] == want[0] and got[2] == want[2] and np.array_equal(got[1], want[1])


def test_jacobian_small_for_conformal_fields_and_shrinks():
    vals = []
    for N in (48, 96):
        g = G.build_grid(G.square(), N, 3)
        u = 0.3 * np.sin(2 * math.pi * g.coords[:, 0]) * np.cos(2 * math.pi * g.coords[:, 1])
        f = F.conformal_metric(g, u)
        fmap, _ = B.face_distance_map(f)
        jac_max, _, _ = B.jacobian_bound_check(f, fmap)
        vals.append(jac_max)
        assert jac_max <= 1.05
    assert vals[1] <= vals[0] + 0.01


def test_jacobian_anisotropic_envelope():
    # shadow-wedge inflation: persistent, bounded by the measured envelope
    g = G.build_grid(G.square(), 128, 3)
    f = F.random_spd_metric(g, 7, (0.25, 4.0))
    rep = B.verify_besicovitch(f)
    assert rep.jac_max <= 1.10
    assert rep.passed


def test_random_fields_pass():
    g = G.build_grid(G.square(), 48, 3)
    for seed in range(1, 11):
        rep = B.verify_besicovitch(F.random_spd_metric(g, seed, (0.25, 4.0)))
        assert rep.passed
        assert rep.slack >= -0.01 * rep.product


def test_pass_is_scale_invariant():
    g = G.build_grid(G.square(), 32, 3)
    f = F.random_spd_metric(g, 5, (0.5, 2.0))
    rep = B.verify_besicovitch(f)
    rep_scaled = B.verify_besicovitch(f.scaled(2.25))
    assert rep.passed == rep_scaled.passed
    assert rep_scaled.slack == pytest.approx(2.25 * rep.slack, rel=1e-9, abs=1e-12)


def test_equality_flatness_diagnostic():
    g = G.build_grid(G.square(), 32, 3)
    u = 0.4 * np.exp(-30 * ((g.coords - 0.5) ** 2).sum(axis=1))
    f = F.conformal_metric(g, u)
    rep = B.verify_besicovitch(f)
    assert rep.slack > 0
    assert rep.flatness > 0


def test_hexagon_is_not_cube_like():
    g = G.build_grid(G.hexagon(), 32, 3)
    f = F.MetricField(g, np.broadcast_to(np.eye(2), (g.num_vertices, 2, 2)).copy(),
                      validate=False)
    with pytest.raises(B.BesicovitchError):
        B.verify_besicovitch(f)


def test_cube3_flat():
    g = G.build_grid(G.cube(3), 8, 2)
    rep = B.verify_besicovitch(F.flat_metric(g))
    assert rep.d == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    assert rep.vol == pytest.approx(1.0, abs=1e-12)
    assert rep.degree_ok and rep.degree_checked
    assert rep.jac_max == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_cube4_flat_degree_skipped():
    g = G.build_grid(G.cube(4), 5, 1)
    rep = B.verify_besicovitch(F.flat_metric(g))
    assert not rep.degree_checked
    assert rep.degree_ok  # exact face containment stands in
    assert rep.vol == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


def test_jac_histogram_shape():
    g = G.build_grid(G.square(), 24, 3)
    rep = B.verify_besicovitch(F.flat_metric(g))
    edges, counts = rep.jac_histogram()
    assert len(edges) == 17 and len(counts) == 16
    assert counts.sum() == len(rep.per_cell_jac)


def test_cylinder_check_cases():
    g = G.build_grid(G.cylinder(), 96, 3)
    flat = B.cylinder_check(F.flat_metric(g))
    assert flat.applicable and flat.hypothesis_ok
    assert flat.area == pytest.approx(1.0, abs=1e-12)
    assert flat.coarea_total >= 0.99
    assert flat.min_interior_level >= 0.99
    assert flat.passed

    wide = B.cylinder_check(F.constant_metric(g, [[4.0, 0.0], [0.0, 1.0]]))
    assert wide.applicable and wide.passed
    assert wide.area == pytest.approx(2.0, abs=1e-12)

    short = B.cylinder_check(F.constant_metric(g, [[1.0, 0.0], [0.0, 0.25]]))
    assert not short.applicable
    assert short.boundary_distance == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -0.01])
def test_tolerances_are_finite_numbers_at_least_zero(tol):
    # on the flat cylinder scaled by 0.25 the boundary distance and systole
    # are 0.5: tol = inf made it applicable and passed, and rel_tol = nan
    # turned every verdict into a FAIL
    cyl = F.flat_metric(G.build_grid(G.cylinder(), 24, 3)).scaled(0.25)
    with pytest.raises(B.BesicovitchError, match="tol must be a finite number >= 0"):
        B.cylinder_check(cyl, tol)
    sq = F.flat_metric(G.build_grid(G.square(), 8, 3))
    with pytest.raises(B.BesicovitchError, match="rel_tol must be a finite number >= 0"):
        B.verify_besicovitch(sq, tol)
    assert B.verify_besicovitch(sq, 0).passed and not B.cylinder_check(cyl, 0).applicable


def test_cylinder_check_runs_one_distance_field_from_the_bottom(monkeypatch):
    g = G.build_grid(G.cylinder(), 32, 3)
    field = F.constant_metric(g, [[4.0, 0.0], [0.0, 1.0]])
    bottom = G.face_vertices(g, "B")
    ref = geo.face_distance(field, "B", "B'")
    calls, distance_field = [], geo.distance_field

    def counted(field, sources, quotient=True):
        calls.append(np.array_equal(sources, bottom))
        return distance_field(field, sources, quotient)

    for module in (B, geo):
        monkeypatch.setattr(module, "distance_field", counted)
    rep = B.cylinder_check(field)
    assert calls == [True]
    assert rep.boundary_distance == ref


def _oracle_inv(t, det):
    """Inverses of a stack of n x n matrices with determinants det: for n = 2
    the closed form that jacobian_bound_check inlines, else LAPACK's."""
    if t.shape[-1] != 2:
        return np.linalg.inv(t)
    out = np.empty_like(t)
    out[:, 0, 0] = t[:, 1, 1] / det
    out[:, 0, 1] = -t[:, 0, 1] / det
    out[:, 1, 0] = -t[:, 1, 0] / det
    out[:, 1, 1] = t[:, 0, 0] / det
    return out


def _einsum_jacobian_bound_check(field, fmap):
    """jacobian_bound_check as it was with .mean corner means and a
    three-operand einsum for the row norms: the oracle."""
    g, n = field.grid, field.grid.n
    full = (g.cells >= 0).all(axis=1)
    corners, xy = g.cells[full], g.cell_corner_xy[full]
    fvals = fmap[corners]
    J = np.empty((len(corners), n, n))
    for k in range(n):
        hi = [b for b in range(2 ** n) if (b >> k) & 1]
        lo = [b for b in range(2 ** n) if not (b >> k) & 1]
        hk = xy[:, 1 << k, k] - xy[:, 0, k]
        J[:, :, k] = (fvals[:, hi, :].mean(axis=1) - fvals[:, lo, :].mean(axis=1)) / hk[:, None]
    det_g = field.cell_det()[full]
    jac = np.abs(F._det(J)) / np.sqrt(det_g)
    ginv = _oracle_inv(field.cell_tensors()[full], det_g)
    row_norms = np.sqrt(np.maximum(np.einsum("cik,ckl,cil->ci", J, ginv, J), 0.0))
    return float(jac.max()), jac, float(row_norms.max())


def _former_jacobian_bound_check(field, fmap):
    """jacobian_bound_check as it was before it read per-cell rows: on
    (C, 2^n, n) corner values and (C, n, n) stacks."""
    g, n = field.grid, field.grid.n
    full = slice(None) if len(g.full_cells) == len(g.cells) else g.full_cells
    corners, xy = g.cells[full], g.cell_corner_xy[full]
    fvals = fmap[corners]  # (C, 2^n, n)
    J = np.empty((len(corners), n, n))
    for k in range(n):
        hi, lo = ([fvals[:, b] for b in range(2 ** n) if (b >> k) & 1 == side] for side in (1, 0))
        hk = xy[:, 1 << k, k] - xy[:, 0, k]
        J[:, :, k] = (sum(hi[1:], hi[0]) / len(hi) - sum(lo[1:], lo[0]) / len(lo)) / hk[:, None]
    gbar = field.cell_tensors()[full]
    det_g = field.cell_det()[full]
    bad = ~(det_g > 0)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise B.BesicovitchError(f"cell tensor {gbar[k].tolist()} has determinant {det_g[k]!r}: "
                                 "the metric is not positive definite there")
    jac = np.abs(F._det(J)) / np.sqrt(det_g)
    ginv = _oracle_inv(gbar, det_g)
    row_sq = sum(sum((J[:, :, k] * ginv[:, k, l, None]) * J[:, :, l] for l in range(n))
                 for k in range(n))
    row_norms = np.sqrt(np.maximum(row_sq, 0.0))
    hadamard = row_norms.prod(axis=1)
    if np.any(jac > hadamard + 1e-9):
        raise B.BesicovitchError("Hadamard bound violated; degenerate cell tensor upstream")
    return float(jac.max()), jac, float(row_norms.max())


@pytest.mark.parametrize("N", [5, 17, 192])
def test_jacobian_is_bit_equal_to_the_einsum_oracle(N):
    g = G.build_grid(G.square(), N, 3)
    for seed in (0, 1, 19):
        f = F.random_spd_metric(g, seed, (0.25, 4.0))
        fmap, _ = B.face_distance_map(f)
        jac_max, per_cell, row_max = B.jacobian_bound_check(f, fmap)
        for oracle in (_einsum_jacobian_bound_check, _former_jacobian_bound_check):
            ref_max, ref_cells, ref_row = oracle(f, fmap)
            assert (jac_max, row_max) == (ref_max, ref_row)
            assert np.array_equal(per_cell, ref_cells)


@pytest.mark.parametrize("kind,N", [("cube3", 6), ("cube4", 4)])
def test_jacobian_matches_the_einsum_oracle_for_n_above_2(kind, N):
    # einsum sums the n^2 terms of a row in one run for n >= 3, not k by k
    # as it does for n = 2: the row norms agree to a few ulps, |jac| exactly;
    # the former kernel summed k by k, as the current one does, and agrees exactly
    g = G.build_grid(G.cube(int(kind[-1])), N, 1)
    f = F.random_spd_metric(g, 6, (0.5, 2.0))
    fmap, _ = B.face_distance_map(f)
    jac_max, per_cell, row_max = B.jacobian_bound_check(f, fmap)
    ref_max, ref_cells, ref_row = _einsum_jacobian_bound_check(f, fmap)
    assert jac_max == ref_max and np.array_equal(per_cell, ref_cells)
    assert row_max == pytest.approx(ref_row, rel=8 * np.finfo(float).eps)
    ref_max, ref_cells, ref_row = _former_jacobian_bound_check(f, fmap)
    assert (jac_max, row_max) == (ref_max, ref_row)
    assert np.array_equal(per_cell, ref_cells)


def test_jacobian_peak_no_higher_than_the_former_kernel():
    g = G.build_grid(G.square(), 192, 3)
    tensors = F.random_spd_metric(g, 0, (0.25, 4.0)).tensors
    fmap, _ = B.face_distance_map(F.MetricField(g, tensors, validate=False))
    peaks = []
    for check in (B.jacobian_bound_check, _former_jacobian_bound_check):
        f = F.MetricField(g, tensors, validate=False)
        f.cell_det()  # read by both kernels: not measured
        tracemalloc.start()
        try:
            check(f, fmap)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the gathered corner values, as large as the former (C, 2^n, n) array, are
    # freed once J is formed: kept alive, they left the peak 30 kB below the former
    corner_values = len(g.cells) * 2 ** g.n * g.n * 8
    assert peaks[0] <= peaks[1] - corner_values // 2


def test_besicovitch_on_a_validated_field_calls_no_eigvalsh_or_einsum(monkeypatch):
    g = G.build_grid(G.square(), 32, 3)
    tensors = F.random_spd_metric(g, 4, (0.25, 4.0)).tensors
    calls = []
    for name, module in (("eigvalsh", np.linalg), ("einsum", np)):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, name=name, real=real, **kw: calls.append(name) or real(*a, **kw))
    assert B.verify_besicovitch(F.MetricField(g, tensors)).passed
    assert calls == []
