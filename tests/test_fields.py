import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metriclab import fields as F
from metriclab import gallery as gal
from metriclab import geodesy as geo
from metriclab import grid as G
from metriclab import io as mio
from metriclab import measure as M

HEX = np.array([[1.0, 0.5], [0.5, 1.0]])


def lattice_shortest_vector(gram, window=3):
    """Brute-force oracle: min g-norm over nonzero integer classes."""
    best = math.inf
    for p, q in itertools.product(range(-window, window + 1), repeat=2):
        if p == 0 and q == 0:
            continue
        v = np.array([p, q], dtype=float)
        best = min(best, math.sqrt(v @ gram @ v))
    return best


def test_flat_metric_basics():
    g = G.build_grid(G.square(), 32, 3)
    f = F.flat_metric(g)
    assert M.volume(f) == pytest.approx(1.0, abs=1e-12)
    v, w = g.vertex_at((0, 0)), g.vertex_at((1, 0))
    assert f.edge_lengths()[g.edge_index(v, w)] == pytest.approx(1 / 31, abs=1e-15)


def test_flat_torus_systole_matches_lattice_oracle():
    g = G.build_grid(G.torus2(), 32, 3)
    f = F.flat_metric(g)
    oracle = lattice_shortest_vector(np.eye(2))
    assert geo.systole(f).length == pytest.approx(oracle, rel=1e-9)


def test_constant_metric_hexagonal():
    g = G.build_grid(G.torus2(), 32, 3)
    f = F.constant_metric(g, HEX)
    assert M.volume(f) == pytest.approx(math.sqrt(np.linalg.det(HEX)), abs=1e-12)
    assert geo.systole(f).length == pytest.approx(lattice_shortest_vector(HEX), rel=1e-9)


def test_constant_identity_equals_flat():
    g = G.build_grid(G.square(), 8, 2)
    assert np.allclose(F.constant_metric(g, np.eye(2)).tensors,
                       F.flat_metric(g).tensors)


def test_constant_metric_rejects_non_spd():
    g = G.build_grid(G.square(), 8, 1)
    with pytest.raises(F.FieldError):
        F.constant_metric(g, [[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(F.FieldError):
        F.constant_metric(g, [[1.0, 0.5], [0.4, 1.0]])


def test_conformal_metric_cases():
    g = G.build_grid(G.square(), 24, 3)
    assert np.allclose(F.conformal_metric(g, np.zeros(g.num_vertices)).tensors,
                       F.flat_metric(g).tensors)
    f2 = F.conformal_metric(g, np.full(g.num_vertices, math.log(2.0)))
    assert M.volume(f2) == pytest.approx(4.0, abs=1e-12)
    assert geo.face_distance(f2, "A", "A'") == pytest.approx(2.0, rel=1e-12)


def test_conformal_bump_increases_volume():
    g = G.build_grid(G.torus2(), 24, 2)
    r2 = ((g.coords - 0.5) ** 2).sum(axis=1)
    u = np.exp(-20 * r2)  # nonnegative bump
    f = F.conformal_metric(g, u)
    assert M.volume(f) > 1.0


def test_round_sphere_volume_and_antipodal_distance():
    g = G.build_grid(G.sphere2(), 64, 3)
    f = F.round_sphere_metric(g, 1.0)
    assert M.volume(f) == pytest.approx(4 * math.pi, rel=0.01)
    south = np.where(g.coords[:, 1] == 0.0)[0][0]
    north = np.where(g.coords[:, 1] == 1.0)[0][0]
    d = geo.distance_field(f, [south], quotient=False)
    assert d[north] == pytest.approx(math.pi, rel=0.02)


def test_round_rp2_sys_and_volume():
    g = G.build_grid(G.rp2(), 32, 3)
    f = F.round_sphere_metric(g, 1.0)
    assert M.volume(f) == pytest.approx(2 * math.pi, rel=0.01)
    assert geo.systole(f).length == pytest.approx(math.pi, rel=0.02)


def test_round_sphere_wrong_topology():
    g = G.build_grid(G.square(), 8, 1)
    with pytest.raises(F.FieldError):
        F.round_sphere_metric(g, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_scalar_parameters_outside_their_domain_raise(bad):
    # NaN and inf passed the former sign checks and built non-finite tensors
    torus = G.build_grid(G.torus2(), 6, 3)
    with pytest.raises(F.FieldError, match="scale factor must be positive and finite"):
        F.flat_metric(torus).scaled(bad)
    with pytest.raises(F.FieldError, match="radius must be positive and finite"):
        F.round_sphere_metric(G.build_grid(G.rp2(), 6, 3), bad)
    for eig_range in [(0.5, bad), (bad, 2.0)]:
        with pytest.raises(F.FieldError, match="eig_range must satisfy"):
            F.random_spd_metric(torus, 0, eig_range)


def test_random_spd_determinism_and_degenerate_range():
    g = G.build_grid(G.square(), 12, 2)
    a = F.random_spd_metric(g, 7, (0.25, 4.0))
    b = F.random_spd_metric(g, 7, (0.25, 4.0))
    assert (a.tensors == b.tensors).all()
    flat = F.random_spd_metric(g, 1, (1.0, 1.0))
    assert np.allclose(flat.tensors, F.flat_metric(g).tensors, atol=1e-12)


def test_random_spd_eigenvalue_bounds_over_many_seeds():
    g = G.build_grid(G.torus2(), 8, 1)
    lo, hi = 0.25, 4.0
    worst_lo, worst_hi = math.inf, 0.0
    for seed in range(1000):
        t = F.random_spd_metric(g, seed, (lo, hi)).tensors
        ev = np.linalg.eigvalsh(t)
        worst_lo = min(worst_lo, ev.min())
        worst_hi = max(worst_hi, ev.max())
    assert worst_lo >= lo - 1e-9
    assert worst_hi <= hi + 1e-9


# ---------------------------------------------------------------------------
# seeded builders against their per-vertex-cosine forms


def _einsum_random_spd_metric(grid, seed, eig_range):
    """random_spd_metric as it was, with per-vertex cosines and one einsum: the oracle."""
    lo, hi = eig_range
    rng = np.random.default_rng(seed)
    n = grid.n
    xy = grid.coords

    def trig_field():
        out = np.zeros(grid.num_vertices)
        for _ in range(4):
            freq = rng.integers(1, 3, size=n)
            phase = rng.uniform(0, 2 * math.pi, size=n)
            amp = 0.45 * rng.normal()
            term = amp * np.ones(grid.num_vertices)
            for k in range(n):
                term = term * np.cos(2 * math.pi * freq[k] * xy[:, k] + phase[k])
            out += term
        return out

    log_lo, log_hi = math.log(lo), math.log(hi)
    lams = []
    for _ in range(n):
        s = trig_field()
        lams.append(np.exp(log_lo + (log_hi - log_lo) * 0.5 * (1.0 + np.sin(s))))
    if n == 1:
        return np.array(lams[0])[:, None, None]
    theta = trig_field()
    c, s = np.cos(theta), np.sin(theta)
    rot = np.broadcast_to(np.eye(n), (grid.num_vertices, n, n)).copy()
    rot[:, 0, 0], rot[:, 0, 1] = c, -s
    rot[:, 1, 0], rot[:, 1, 1] = s, c
    lam = np.stack(lams, axis=1)
    t = np.einsum("vij,vj,vkj->vik", rot, lam, rot)
    return 0.5 * (t + np.swapaxes(t, 1, 2))


def _loop_bump_metric(grid, seed, base):
    """gallery._bump_metric as it was, with per-vertex cosines: the oracle."""
    rng = np.random.default_rng(int(seed))
    xy = grid.coords
    u = np.zeros(grid.num_vertices)
    for _ in range(3):
        fr = rng.integers(1, 3, size=2)
        ph = rng.uniform(0, 2 * math.pi, size=2)
        u += rng.normal() * np.cos(2 * math.pi * fr[0] * xy[:, 0] + ph[0]) * np.cos(
            2 * math.pi * fr[1] * xy[:, 1] + ph[1])
    u = 0.25 * u / max(np.abs(u).max(), 1e-12)
    flat = F.constant_metric(grid, gal.HEX_GRAM) if base == "hexagonal" else F.flat_metric(grid)
    return F.conformal_rescale(flat, u - u.mean()).tensors


_SPD_GRIDS = [("square", 2, 5), ("square", 3, 65), ("square", 3, 192), ("cylinder", 3, 17),
              ("cylinder", 3, 40), ("torus2", 3, 16), ("torus2", 3, 48), ("hexagon", 3, 33),
              ("hexagon", 3, 64), (f"hexagon:{gal.TRIPOD_MASK}", 3, 96), ("interval", 3, 9),
              ("interval", 3, 50), ("cube3", 1, 6), ("cube3", 2, 9), ("cube4", 1, 4),
              ("cube4", 1, 5)]


def _topology(name):
    return G.cube(int(name[-1])) if name.startswith("cube") else G.topology_from_name(name)


@pytest.mark.parametrize("name, order, N", _SPD_GRIDS)
def test_random_spd_is_bit_equal_to_the_einsum_oracle(name, order, N):
    g = G.build_grid(_topology(name), N, order)
    for seed in (0, 1, 7, 100, 2 ** 31 + 5):
        for eigs in ((0.25, 4.0), (0.5, 2.0)):
            expected = _einsum_random_spd_metric(g, seed, eigs)
            assert np.array_equal(F.random_spd_metric(g, seed, eigs).tensors, expected)


@pytest.mark.parametrize("base", ["flat", "hexagonal"])
@pytest.mark.parametrize("N", [48, 64, 96])
def test_bump_metric_is_bit_equal_to_the_loop_oracle(base, N):
    g = G.build_grid(G.torus2(), N, 3)
    for seed in (0, 1, *range(100, 120)):
        expected = _loop_bump_metric(g, seed, base)
        assert np.array_equal(gal._bump_metric(g, seed, base).tensors, expected)


@pytest.mark.parametrize("name, order, N", [("square", 3, 64), ("hexagon", 3, 48),
                                            ("interval", 3, 30), ("cube3", 1, 8)])
def test_seeded_builders_call_no_einsum_and_one_cosine_per_axis_value(monkeypatch, name,
                                                                     order, N):
    """A mixture of T terms evaluates at most T * (sum of the axes' distinct
    coordinates) cosines; random_spd_metric adds one per vertex for its rotation
    angle when n >= 2."""
    g = G.build_grid(_topology(name), N, order)
    axis_values = sum(len(np.unique(g.coords[:, k])) for k in range(g.n))
    cos, evaluated = np.cos, []

    def einsum(*args, **kwargs):
        raise AssertionError("np.einsum called")

    def counting_cos(x, *args, **kwargs):
        evaluated.append(np.size(x))
        return cos(x, *args, **kwargs)

    monkeypatch.setattr(np, "einsum", einsum)
    monkeypatch.setattr(np, "cos", counting_cos)
    F.random_spd_metric(g, 3, (0.25, 4.0))
    mixtures = g.n + (g.n > 1)
    assert sum(evaluated) <= 4 * mixtures * axis_values + (g.num_vertices if g.n > 1 else 0)
    if g.n == 2:
        evaluated.clear()
        gal._bump_metric(g, 3)
        assert 0 < sum(evaluated) <= 3 * axis_values


def test_random_spd_invalid_range_and_topology():
    g = G.build_grid(G.square(), 8, 1)
    with pytest.raises(F.FieldError):
        F.random_spd_metric(g, 1, (0.0, 1.0))
    gs = G.build_grid(G.sphere2(), 8, 1)
    with pytest.raises(F.FieldError):
        F.random_spd_metric(gs, 1, (0.5, 2.0))


def test_piecewise_metric():
    g = G.build_grid(G.square(), 32, 2)
    g1 = F.constant_metric(g, 4.0 * np.eye(2))
    g2 = F.flat_metric(g)
    everywhere = np.ones(g.num_vertices, dtype=bool)
    assert np.allclose(F.piecewise_metric(g, everywhere, g1, g2).tensors, g1.tensors)
    disk = np.linalg.norm(g.coords - 0.5, axis=1) < 0.3
    f = F.piecewise_metric(g, disk, g1, g2)
    # oracle: volume = 4 * (disk corner-fraction area) + 1 * (rest)
    disk_area = M.region_volume(g2, disk)
    assert M.volume(f) == pytest.approx(4 * disk_area + (1 - disk_area), rel=1e-9)


def test_gadograph_inequality_piecewise_inflation():
    g = G.build_grid(G.square(), 48, 3)
    disk = np.linalg.norm(g.coords - 0.5, axis=1) < 0.3
    for inside_tensor in (4.0 * np.eye(2), np.array([[4.0, 0.0], [0.0, 1.0]])):
        f = F.piecewise_metric(g, disk, F.constant_metric(g, inside_tensor),
                               F.flat_metric(g))
        assert M.region_volume(f, disk) >= M.region_volume(F.flat_metric(g), disk) - 1e-12


def test_edge_length_conformal_between_endpoint_bounds():
    g = G.build_grid(G.square(), 16, 1)
    u = 0.5 * np.sin(2 * math.pi * g.coords[:, 0]) * np.cos(math.pi * g.coords[:, 1])
    f = F.conformal_metric(g, u)
    v, w = g.vertex_at((3, 4)), g.vertex_at((4, 4))
    length = f.edge_lengths()[g.edge_index(v, w)]
    h = 1 / 15
    lo = h * min(math.exp(u[v]), math.exp(u[w]))
    hi = h * max(math.exp(u[v]), math.exp(u[w]))
    assert lo - 1e-15 <= length <= hi + 1e-15
    # dense quadrature oracle along the segment
    ts = np.linspace(0, 1, 2001)
    pts = g.coords[v] + ts[:, None] * (g.coords[w] - g.coords[v])
    ue = 0.5 * np.sin(2 * math.pi * pts[:, 0]) * np.cos(math.pi * pts[:, 1])
    oracle = np.trapezoid(np.exp(ue) * h, ts)
    assert abs(length - oracle) <= (hi - lo) + 1e-12


def test_graph_gathers_its_weights_without_a_copy_of_the_edge_index():
    import tracemalloc

    g = G.build_grid(G.square(), 96, 3)
    s = g.stencil()
    f = F.random_spd_metric(g, 1, (0.5, 2.0))
    w = f.edge_lengths()
    tracemalloc.start()
    try:
        graph = f.graph()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(graph.data, np.take(w, s.edge))
    # the weights themselves and the CSR's small arrays; np.take first cast the
    # int32 edge index to a second array of the weights' size
    assert peak < 1.25 * graph.data.nbytes


def test_edge_length_requires_edge():
    g = G.build_grid(G.square(), 8, 1)
    with pytest.raises(G.GridError):
        g.edge_index(g.vertex_at((0, 0)), g.vertex_at((5, 5)))


def test_polyline_diagonal_and_empty():
    g = G.build_grid(G.square(), 32, 3)
    f = F.flat_metric(g)
    t = np.linspace(0.0, 1.0, 64)
    pts = np.stack([t, t], axis=1)
    assert F.polyline_length(f, pts) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert F.polyline_length(f, np.empty((0, 2))) == 0.0
    assert F.polyline_length(f, pts[:1]) == 0.0


def test_polyline_equator_circumference():
    g = G.build_grid(G.sphere2(), 32, 3)
    f = F.round_sphere_metric(g, 1.0)
    u = np.linspace(0.0, 1.0, 257)
    eq = np.stack([u, np.full_like(u, 0.5)], axis=1)
    assert F.polyline_length(f, eq) == pytest.approx(2 * math.pi, rel=1e-3)


def test_polyline_concat_additivity_exact():
    g = G.build_grid(G.square(), 16, 3)
    u = 0.3 * np.sin(2 * math.pi * g.coords[:, 0])
    f = F.conformal_metric(g, u)
    t1 = np.linspace(0.0, 0.5, 17)
    t2 = np.linspace(0.5, 1.0, 17)
    p1 = np.stack([t1, t1], axis=1)
    p2 = np.stack([t2, t2], axis=1)
    whole = np.concatenate([p1, p2[1:]])
    assert F.polyline_length(f, whole) == pytest.approx(
        F.polyline_length(f, p1) + F.polyline_length(f, p2), abs=0.0)


def test_polyline_malformed():
    g = G.build_grid(G.square(), 32, 3)
    f = F.flat_metric(g)
    with pytest.raises(F.FieldError):
        F.polyline_length(f, np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_scaling_covariance():
    g = G.build_grid(G.torus2(), 16, 3)
    f = F.random_spd_metric(g, 3, (0.5, 2.0))
    c2 = 2.25
    fs = f.scaled(c2)
    assert np.allclose(fs.edge_lengths(), math.sqrt(c2) * f.edge_lengths(), rtol=1e-9)
    assert M.volume(fs) == pytest.approx(c2 * M.volume(f), rel=1e-9)


def test_rp2_quotient_invariance_checks():
    g = G.build_grid(G.rp2(), 16, 2)
    base = F.round_sphere_metric(g, 1.0)
    anti = g.antipode_map
    flip = np.diag([1.0, -1.0])
    assert np.allclose(base.tensors[anti], flip @ base.tensors @ flip, atol=1e-12)
    u_even = np.cos(2 * math.pi * g.coords[:, 1])  # lat -> 1 - lat leaves it fixed
    F.conformal_rescale(base, u_even - u_even.mean())
    with pytest.raises(F.FieldError):
        F.conformal_rescale(base, g.coords[:, 1].copy())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_conformal_rescale_rejects_a_non_finite_u(bad):
    f = F.flat_metric(G.build_grid(G.square(), 5, 1))
    u = np.zeros(f.grid.num_vertices)
    u[0] = bad
    with pytest.raises(F.FieldError, match="finite"):
        F.conformal_rescale(f, u)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([2, 3]), rows=st.integers(1, 17), data=st.data())
def test_quadratic_forms_do_not_depend_on_the_batch(n, rows, data):
    """A batch's forms are bit-equal to its rows' forms taken one at a time,
    and to einsum's on two or more rows (a lone row einsum groups otherwise)."""
    vals = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    d = np.array(data.draw(st.lists(vals, min_size=rows * n, max_size=rows * n))).reshape(rows, n)
    a = np.array(data.draw(st.lists(vals, min_size=rows * n * n, max_size=rows * n * n)))
    a = a.reshape(rows, n, n)
    t = a + np.swapaxes(a, 1, 2)
    q = F._quadratic_forms(d, t)
    assert np.array_equal(q, np.concatenate([F._quadratic_forms(d[k:k + 1], t[k:k + 1])
                                             for k in range(rows)]))
    if rows >= 2:
        assert np.array_equal(q, np.einsum("si,sij,sj->s", d, t, d))


def test_spd_validation():
    g = G.build_grid(G.square(), 8, 1)
    t = np.broadcast_to(np.eye(2), (g.num_vertices, 2, 2)).copy()
    t[5] = [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(F.FieldError):
        F.MetricField(g, t)


def test_a_validated_field_computes_its_eigenvalues_once(monkeypatch):
    g = G.build_grid(G.torus2(), 16, 3)
    t = F.conformal_metric(g, 0.2 * np.sin(2 * np.pi * g.coords[:, 0])).tensors
    real = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or real(a))
    f = F.MetricField(g, t)
    assert calls == []  # validation computes no eigenvalue
    lo = f.lambda_min()
    assert calls == [g.num_vertices]
    hi = f.lambda_max()
    geo.systole(f)  # the loop engine's chart windows read lambda_min
    assert calls == [g.num_vertices]
    raw = F.MetricField(g, t, validate=False)
    assert (raw.lambda_max(), raw.lambda_min()) == (hi, lo)  # the same call: bit-equal
    assert calls == [g.num_vertices] * 2


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal", "pole"])
def test_non_finite_tensors_are_rejected(tmp_path, bad, where):
    if where == "pole":  # chart-degenerate vertices are checked for finiteness too
        f = F.round_sphere_metric(G.build_grid(G.sphere2(), 8, 1), 1.0)
        v, i, j = int(np.flatnonzero(f.grid.chart_degenerate)[0]), 1, 1
    else:
        f = F.flat_metric(G.build_grid(G.square(), 5, 1))
        v, i, j = 7, 0, (0 if where == "diagonal" else 1)
    t = f.tensors.copy()
    t[v, i, j] = t[v, j, i] = bad
    with pytest.raises(F.FieldError, match="finite"):
        F.MetricField(f.grid, t)
    if where != "pole":
        with pytest.raises(F.FieldError, match="finite"):
            F.constant_metric(f.grid, t[v])
    mio.write_field(F.MetricField(f.grid, t, validate=False), tmp_path / "field.txt")
    with pytest.raises(F.FieldError, match="finite"):
        mio.read_field(tmp_path / "field.txt")


@pytest.mark.parametrize("upper,lower,ok", [
    (0.3, 0.3 * (1 + 9e-6), True), (0.3, 0.3 * (1 + 2e-5), False),
    (1.0, 1.0 + 1.00001e-5, False),  # within 1e-5 of the larger entry, not of the smaller
    (0.0, 1e-12, True), (0.0, 3e-12, False)])
def test_symmetry_is_checked_by_the_allclose_rule(upper, lower, ok):
    g = G.build_grid(G.square(), 5, 1)
    t = np.broadcast_to(2 * np.eye(2), (g.num_vertices, 2, 2)).copy()
    t[4, 0, 1], t[4, 1, 0] = upper, lower
    for s in (t, np.swapaxes(t, 1, 2)):  # either triangle may hold the larger entry
        assert np.allclose(s, np.swapaxes(s, 1, 2), atol=1e-12) == ok
        if ok:
            F.MetricField(g, s)
        else:
            with pytest.raises(F.FieldError, match="symmetric"):
                F.MetricField(g, s)


SYLVESTER_MARGIN = 1e-6  # every eigenvalue at least this far from 0, relative to the largest


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), data=st.data())
def test_sylvester_agrees_with_the_least_eigenvalue(n, data):
    """Sylvester's verdict is eigvalsh(t).min() > 0 when no eigenvalue lies
    within SYLVESTER_MARGIN * max |eigenvalue| of 0.  The margin is on every
    eigenvalue, not only the least: an indefinite 3 x 3 tensor with another
    eigenvalue near 0 can have a 2 x 2 leading minor of rounding size, whose
    computed sign says nothing."""
    entries = data.draw(st.lists(st.floats(-10, 10), min_size=n * n, max_size=n * n))
    a = np.array(entries).reshape(n, n)
    t = 0.5 * (a + a.T)
    ev = np.linalg.eigvalsh(t)
    scale = np.abs(ev).max()
    assume(scale > 0 and np.abs(ev).min() > SYLVESTER_MARGIN * scale)
    g = G.build_grid({1: G.interval(), 2: G.square(), 3: G.cube(3)}[n], 4, 1)
    tensors = np.broadcast_to(np.eye(n), (g.num_vertices, n, n)).copy()
    tensors[-1] = t
    if ev.min() > 0:
        F.MetricField(g, tensors)
    else:
        with pytest.raises(F.FieldError, match="positive definite"):
            F.MetricField(g, tensors)


def test_sylvester_accepts_tiny_positive_definite_tensors():
    """A minor of tiny entries underflows to 0 unless the tensor is scaled first."""
    for n, top in ((2, G.square()), (3, G.cube(3))):
        g = G.build_grid(top, 4, 1)
        F.MetricField(g, np.broadcast_to(6.049871914279354e-287 * np.eye(n),
                                         (g.num_vertices, n, n)).copy())
        with pytest.raises(F.FieldError, match="positive definite"):
            F.MetricField(g, np.zeros((g.num_vertices, n, n)))


# ---------------------------------------------------------------------------
# interpolation at the ends of a bounded axis


def _reference_tensor_at(field, points):
    """tensor_at as it was before bounded coordinates were clamped: the
    oracle for points inside the domain."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    g = field.grid
    n, shape = g.n, g.lattice_shape
    x = pts / np.asarray(g.spacing)
    base = np.floor(x).astype(np.int64)
    frac = x - base
    for k in range(n):
        if g.topology.periodic[k]:
            base[:, k] %= shape[k]
        else:
            hi = base[:, k] >= shape[k] - 1
            base[:, k] = np.clip(base[:, k], 0, shape[k] - 2)
            frac[:, k] = np.where(hi, 1.0, frac[:, k])
    out = np.zeros((len(pts), n, n))
    wsum = np.zeros(len(pts))
    for bit in range(2 ** n):
        idx = base.copy()
        wgt = np.ones(len(pts))
        for k in range(n):
            if (bit >> k) & 1:
                idx[:, k] += 1
                if g.topology.periodic[k]:
                    idx[:, k] %= shape[k]
                wgt *= frac[:, k]
            else:
                wgt *= 1.0 - frac[:, k]
        vid = g.lattice_vid[tuple(idx.T)]
        ok = vid >= 0
        wgt = np.where(ok, wgt, 0.0)
        out += wgt[:, None, None] * field.tensors[np.where(ok, vid, 0)]
        wsum += wgt
    return out / wsum[:, None, None]


def test_tensor_at_just_below_a_bounded_axis_reads_the_boundary_row():
    g = G.build_grid(G.sphere2(), 24, 3)
    f = F.round_sphere_metric(g, 1.0)
    below, at = f.tensor_at([[0.3, -1e-17], [0.3, 0.0]])
    assert np.array_equal(below, at)
    assert below[0, 0] < 1e-30  # the pole's degenerate tensor, not row 1's 0.673
    g = G.build_grid(G.square(), 9, 3)
    f = F.random_spd_metric(g, 3, (0.5, 2.0))
    for inside, outside in (([0.4, 0.0], [0.4, -1e-17]), ([0.0, 0.4], [-1e-17, 0.4]),
                            ([0.4, 1.0], [0.4, 1.0 + 1e-15])):
        assert np.array_equal(f.tensor_at(outside), f.tensor_at(inside))


_INTERP_FIELDS = {
    "square": lambda: F.random_spd_metric(G.build_grid(G.square(), 9, 3), 3, (0.5, 2.0)),
    "cylinder": lambda: F.random_spd_metric(G.build_grid(G.cylinder(), 8, 3), 4, (0.5, 2.0)),
    "torus2": lambda: F.random_spd_metric(G.build_grid(G.torus2(), 8, 3), 5, (0.5, 2.0)),
    "cube3": lambda: F.random_spd_metric(G.build_grid(G.cube(3), 5, 1), 6, (0.5, 2.0)),
    "sphere2": lambda: F.round_sphere_metric(G.build_grid(G.sphere2(), 12, 3), 1.0),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(_INTERP_FIELDS)), data=st.data())
def test_tensor_at_is_unchanged_inside_the_domain(name, data):
    f = _INTERP_FIELDS[name]()
    g = f.grid
    coord = [st.floats(-2.0, 3.0) if g.topology.periodic[k] else st.floats(0.0, 1.0)
             for k in range(g.n)]
    pts = np.array(data.draw(st.lists(st.tuples(*coord), min_size=1, max_size=8)))
    assert np.array_equal(f.tensor_at(pts), _reference_tensor_at(f, pts))
