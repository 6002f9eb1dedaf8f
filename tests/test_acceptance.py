"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from metriclab import besicovitch as B
from metriclab import covers as C
from metriclab import fields as F
from metriclab import gallery as gal
from metriclab import geodesy as geo
from metriclab import grid as G
from metriclab import measure as M
from metriclab import width as W

HEX = np.array([[1.0, 0.5], [0.5, 1.0]])
LOEWNER = math.sqrt(2.0) / 3.0 ** 0.25
PU = math.sqrt(math.pi / 2.0)


def _report(k, text):
    print(f"ACCEPTANCE {k:02d} PASS: {text}")


def test_criterion_01_besicovitch_flat_equality():
    t0 = time.perf_counter()
    g = G.build_grid(G.square(), 64, 3)
    f = F.flat_metric(g)
    rep = B.verify_besicovitch(f)
    elapsed = time.perf_counter() - t0
    assert rep.d[0] == pytest.approx(1.0, abs=1e-12)
    assert rep.d[1] == pytest.approx(1.0, abs=1e-12)
    assert rep.vol == pytest.approx(1.0, abs=1e-12)
    h = 1.0 / 63
    cells_ok = (g.cells >= 0).all(axis=1)
    centers = g.cell_corner_xy[cells_ok].mean(axis=1)
    interior = (np.abs(centers - 0.5) < 0.5 - 1.5 * h).all(axis=1)
    assert np.abs(rep.per_cell_jac[interior] - 1.0).max() <= 1e-9
    assert rep.degree_ok and rep.degree_checked
    assert rep.passed
    assert elapsed < 1.0
    _report(1, f"flat square equality case: d={rep.d}, vol={rep.vol:.12f}, "
               f"jac_max={rep.jac_max:.12f}, degree 1, {elapsed:.2f}s < 1s")


def test_criterion_02_besicovitch_random_sweep():
    t0 = time.perf_counter()
    g = G.build_grid(G.square(), 96, 3)
    worst = math.inf
    for seed in range(1, 101):
        f = F.random_spd_metric(g, seed, (0.25, 4.0))
        rep = B.verify_besicovitch(f, rel_tol=0.01)
        assert rep.passed, f"seed {seed} failed: slack={rep.slack}"
        assert rep.slack >= -0.01 * rep.product
        worst = min(worst, rep.slack / rep.product)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(2, f"100 random SPD metrics at N=96 all PASS; worst slack/product "
               f"{worst:+.4f}; {elapsed:.1f}s < 120s")


def test_criterion_03_hexagon_no_lower_bound():
    g = G.build_grid(G.hexagon(gal.TRIPOD_MASK), 192, 3)
    f = F.flat_metric(g).scaled(gal.TRIPOD_SCALE2)
    dists = [geo.face_distance(f, f"S{k}", f"S{k + 3}") for k in range(3)]
    area = M.volume(f)
    assert all(d >= 1.0 for d in dists)
    assert area <= 0.2
    _report(3, f"thin hexagon: opposite-side distances {[round(d, 3) for d in dists]} "
               f"all >= 1 while area {area:.4f} <= 0.2")


def test_criterion_04_cylinder_optimal_bound():
    g = G.build_grid(G.cylinder(), 96, 3)
    f = F.flat_metric(g)
    rep = B.cylinder_check(f, tol=0.01)
    assert rep.applicable and rep.hypothesis_ok
    assert rep.area == pytest.approx(1.0, abs=1e-12)
    assert 0.99 <= rep.coarea_total <= 1.01
    assert rep.min_interior_level >= 0.99
    assert rep.passed
    _report(4, f"flat cylinder: coarea total {rep.coarea_total:.4f} in [0.99, 1.01], "
               f"min interior level {rep.min_interior_level:.4f} >= 0.99, area exact 1")


def test_criterion_05_loewner_constant():
    errors = []
    t128 = None
    for N in (32, 64, 128):
        t0 = time.perf_counter()
        g = G.build_grid(G.torus2(), N, 3)
        f = F.constant_metric(g, HEX)
        ratio = geo.systole(f).length / math.sqrt(M.volume(f))
        dt = time.perf_counter() - t0
        if N == 128:
            t128 = dt
        errors.append(abs(ratio - LOEWNER) / LOEWNER)
    assert errors[-1] <= 0.02
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert t128 < 60.0
    _report(5, f"hexagonal torus ratio -> {LOEWNER:.5f}; rel errors {errors} "
               f"nonincreasing, final <= 2%; N=128 run {t128:.1f}s < 60s")


def test_criterion_06_pu_constant():
    g = G.build_grid(G.rp2(), 64, 3)
    f = F.round_sphere_metric(g, 1.0)
    sys_ = geo.systole(f).length
    vol = M.volume(f)
    ratio = sys_ / math.sqrt(vol)
    assert sys_ == pytest.approx(math.pi, rel=0.02)
    assert vol == pytest.approx(2 * math.pi, rel=0.01)
    assert ratio == pytest.approx(PU, rel=0.02)
    _report(6, f"round rp2: sys {sys_:.5f} ~ pi, vol {vol:.5f} ~ 2 pi, "
               f"ratio {ratio:.5f} ~ {PU:.5f}")


def test_criterion_07_loewner_strictness():
    g = G.build_grid(G.torus2(), 48, 3)
    bound = 2.0 / math.sqrt(3.0)
    ratios = []
    for k in range(20):
        base = "hexagonal" if k % 2 else "flat"
        cfg = gal.ExperimentConfig("bumps", "torus2", "conformal_bump", "volume",
                                   [48], seed=100 + k,
                                   metric_params={"base": base, "amplitude": 0.25},
                                   operation_params={"reference": 1.0})
        f = gal.build_metric(cfg, g)
        ratios.append(geo.systole(f).length ** 2 / M.volume(f))
    assert all(r <= bound + 0.02 for r in ratios)
    hex_ratio = geo.systole(F.constant_metric(g, HEX)).length ** 2 / M.volume(
        F.constant_metric(g, HEX))
    assert hex_ratio == pytest.approx(bound, rel=0.02)
    assert max(ratios) <= hex_ratio + 1e-9
    _report(7, f"20 bump tori: max sys^2/vol {max(ratios):.4f} <= {bound:.4f} + 0.02; "
               f"equality only at the hexagonal case ({hex_ratio:.4f})")


def test_criterion_08_coarea_equality_distance_function():
    g = G.build_grid(G.square(), 64, 3)
    f = F.flat_metric(g)
    d = geo.distance_field(f, G.face_vertices(g, "A"))
    prof = M.coarea_profile(f, d, 256)
    assert prof.total == pytest.approx(prof.volume, rel=0.01)
    _report(8, f"flat square coarea total {prof.total:.5f} matches vol "
               f"{prof.volume:.5f} within 1%")


def test_criterion_09_hausdorff_constants():
    expected = {1: 1.0, 2: math.pi / 4, 3: math.pi / 6, 4: math.pi ** 2 / 32}
    for n, ref in expected.items():
        assert M.hausdorff_conversion(n) == ref
    _report(9, "volume/Hausdorff conversion constants exact for n = 1..4")


def test_criterion_10_width_certificate_square():
    g = G.build_grid(G.square(), 65, 3)
    f = F.flat_metric(g)
    cert = W.width_upper_bound(f, 0.55)
    assert cert.valid
    assert cert.multiplicity <= 2
    ok, reasons = W.validate_certificate(f, cert)
    assert ok, reasons
    bad = W.width_upper_bound(f, 0.2, budget=12)
    assert not bad.valid
    _report(10, f"unit square: valid certificate at R=0.55 (multiplicity "
                f"{cert.multiplicity}, revalidated); honest failure at R=0.2")


def test_criterion_11_width_volume_theorem():
    msgs = []
    for name, tensors in (("flat", None), ("hexagonal", HEX)):
        g = G.build_grid(G.torus2(), 48, 3)
        f = F.flat_metric(g) if tensors is None else F.constant_metric(g, tensors)
        rep = W.check_width_volume(f)
        assert rep.certificate.valid
        ok, reasons = W.validate_certificate(f, rep.certificate)
        assert ok, reasons
        cut = W.separating_cut(f, 0.5)
        assert cut.valid
        vp = M.volume_profile(f, [cut.r1], center_sample=64).volpro[0]
        for c in cut.curves:
            vp = max(vp, M.ball_volume(f, c.center, cut.r1))
        bound = vp / (cut.r1 - cut.r0)
        for c in cut.curves:
            assert c.length <= bound * 1.05
        msgs.append(f"{name}: R*={rep.R_star:.3f} certified, "
                    f"{len(cut.curves)} forced cuts <= VolPro bound {bound:.3f}")
    _report(11, "; ".join(msgs))


def test_criterion_12_systolic_cross_checks():
    rows = []
    g48 = G.build_grid(G.torus2(), 48, 3)
    metrics = [
        ("flat-torus", F.flat_metric(g48)),
        ("hexagonal-torus", F.constant_metric(g48, HEX)),
    ]
    cfg = gal.ExperimentConfig("bump", "torus2", "conformal_bump", "volume", [48],
                               seed=101, metric_params={"base": "hexagonal"},
                               operation_params={"reference": 1.0})
    metrics.append(("bump-torus", gal.build_metric(cfg, g48)))
    grp = G.build_grid(G.rp2(), 32, 3)
    metrics.append(("round-rp2", F.round_sphere_metric(grp, 1.0)))
    for name, f in metrics:
        certs = []
        if f.grid.topology.kind == "torus2":
            certs.append(W.check_width_volume(f).certificate)
        rep = W.check_sys_width(f, certs)
        assert rep.ok_4n, name
        for (Rc, ok6, _) in rep.cert_rows:
            assert ok6, (name, Rc)
        rows.append(f"{name}: sys {rep.sys:.3f} <= {rep.bound_4n:.3f}")
    _report(12, "; ".join(rows))


def test_criterion_13_involution_bound():
    g = G.build_grid(G.sphere2(), 48, 3)
    f = F.round_sphere_metric(g, 1.0 / math.pi)
    anti = g.antipode_map
    half = np.where(g.coords[:, 1] <= 0.5 + 1e-12)[0]
    D = geo.distance_matrix(f, half)
    sep = float(D[np.arange(len(half)), anti[half]].min())
    assert geo.min_antipodal_distance(f)[0] == sep
    area = M.volume(f)
    assert sep == pytest.approx(1.0, rel=0.02)
    assert area >= 0.5
    assert area == pytest.approx(4.0 / math.pi, rel=0.02)
    _report(13, f"involution sphere: min d(x, ix) = {sep:.4f}, area {area:.4f} >= 1/2 "
                f"(informational: conjectured sharp constant 4/pi = {4 / math.pi:.4f})")


def test_criterion_14_invariant_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    suites = []
    gt = G.build_grid(G.torus2(), 32, 3)
    suites.append(F.random_spd_metric(gt, 23, (0.5, 2.0)))
    gs = G.build_grid(G.square(), 33, 3)
    suites.append(F.flat_metric(gs))
    gc = G.build_grid(G.cylinder(), 32, 3)
    suites.append(F.flat_metric(gc))

    for f in suites:
        g = f.grid
        # partition of unity from a two-ball cover
        centers = [0, g.num_vertices // 2]
        D = geo.distance_matrix(f, centers)
        half = np.quantile(D.min(axis=0), 0.8)
        sets = [np.where(D[i] <= D[1 - i] + half)[0] for i in range(2)]
        cov = C.Cover(sets, centers, [0.0, 0.0])
        pou = C.partition_of_unity(f, cov)
        assert np.abs(pou.psi.sum(axis=0) - 1.0).max() <= 1e-12
        for i, s in enumerate(cov.sets):
            members = np.zeros(g.num_vertices, dtype=bool)
            members[s] = True
            assert not np.any((pou.psi[i] > 0) & ~members)
        nerve, _ = C.nerve(cov, g.num_vertices, pou)
        assert nerve.dimension == cov.multiplicity(g.num_vertices) - 1

        scov = C.slicing_cover(f, 0, 0.35, radius_rounds=1)
        assert scov.membership_counts(g.num_vertices).max() <= 2

        sources = rng.integers(0, g.num_vertices, size=40)
        Dm = geo.distance_matrix(f, sources)
        p = rng.integers(0, 40, size=10000)
        q = rng.integers(0, 40, size=10000)
        r = rng.integers(0, g.num_vertices, size=10000)
        assert (Dm[p, r] <= Dm[p, sources[q]] + Dm[q, r] + 1e-9).all()

        c2 = 1.69
        assert M.volume(f.scaled(c2)) == pytest.approx(c2 * M.volume(f), rel=1e-9)
        fs = f.scaled(c2)
        assert np.allclose(fs.edge_lengths(), math.sqrt(c2) * f.edge_lengths(),
                           rtol=1e-9)
        if g.topology.kind in ("torus2", "cylinder"):
            assert geo.systole(fs).length == pytest.approx(
                math.sqrt(c2) * geo.systole(f).length, rel=1e-9)

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(14, f"invariant suites green on {len(suites)} gallery metrics "
                f"in {elapsed:.1f}s < 300s")
