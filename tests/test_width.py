import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriclab import fields as F
from metriclab import geodesy as geo
from metriclab import grid as G
from metriclab import io as mio
from metriclab import measure as M
from metriclab import width as W
from metriclab.covers import Cover

HEX = np.array([[1.0, 0.5], [0.5, 1.0]])


@pytest.fixture(scope="module")
def square65():
    g = G.build_grid(G.square(), 65, 3)
    return F.flat_metric(g)


@pytest.fixture(scope="module")
def torus48_flat():
    g = G.build_grid(G.torus2(), 48, 3)
    return F.flat_metric(g)


def test_no_cut_needed_when_R_exceeds_radius(square65):
    cut = W.separating_cut(square65, 0.8, 0.4, 0.8)
    assert cut.valid
    assert len(cut.curves) == 0
    assert len(cut.components) == 1
    assert cut.total_length == 0.0


def test_square_R08_band_pigeonhole(square65):
    # vol / (r1 - r0) = 1 / 0.4 = 2.5 bounds every cut length
    cut = W.separating_cut(square65, 0.8, 0.4, 0.8)
    assert len(cut.curves) <= 2
    for c in cut.curves:
        assert c.length <= 2.5 * 1.05


def test_flat_torus_R09_no_cuts(torus48_flat):
    cut = W.separating_cut(torus48_flat, 0.9, 0.4, 0.8)
    assert cut.valid and len(cut.curves) == 0


def test_forced_cut_on_torus_bounds_and_radii(torus48_flat):
    cut = W.separating_cut(torus48_flat, 0.5)
    assert cut.valid
    assert len(cut.curves) >= 1
    for c in cut.curves:
        assert c.length <= c.ball_bound * 1.05
    for comp, (rad, center) in zip(cut.components, cut.component_radii):
        d = geo.distance_field(torus48_flat, [int(center)], quotient=False)
        assert d[comp].max() == pytest.approx(rad, abs=1e-12)
        assert rad < 0.5


@pytest.mark.parametrize("R, needed", [(0.55, 1), (0.45, 7)])
def test_separating_cut_succeeds_on_its_last_allowed_cut(R, needed):
    f = F.flat_metric(G.build_grid(G.square(), 33, 3))
    assert W.separating_cut(f, R).iterations == needed
    short = W.separating_cut(f, R, budget=needed - 1)
    assert not short.valid and short.reasons == [f"iteration budget {needed - 1} exhausted"]
    cut = W.separating_cut(f, R, budget=needed)
    assert cut.valid and cut.iterations == needed and cut.reasons == []
    assert max(rad for rad, _ in cut.component_radii) < R


@pytest.mark.parametrize("budget", [-1, 2.5])
def test_separating_cut_refuses_a_budget_that_is_not_a_count(budget):
    # both ran the 42 cuts of no budget (flat square N = 33, R = 0.2)
    f = F.flat_metric(G.build_grid(G.square(), 33, 3))
    with pytest.raises(W.WidthError, match="budget must be an integer >= 0"):
        W.separating_cut(f, 0.2, budget=budget)
    with pytest.raises(W.WidthError, match="budget must be an integer >= 0"):
        W.width_upper_bound(f, 0.2, budget=budget)
    cut = W.separating_cut(f, 0.2, budget=0)
    assert not cut.valid and cut.iterations == 0
    assert cut.reasons == ["iteration budget 0 exhausted"]


def test_separating_cut_validates_band(square65):
    with pytest.raises(W.WidthError):
        W.separating_cut(square65, 0.5, 0.6, 0.4)
    with pytest.raises(W.WidthError):
        W.separating_cut(square65, -1.0)


def test_width_certificate_valid_at_055(square65):
    cert = W.width_upper_bound(square65, 0.55)
    assert cert.valid
    assert cert.multiplicity <= 2
    assert all(r < 0.55 for r in cert.cover.radii)
    ok, reasons = W.validate_certificate(square65, cert)
    assert ok, reasons


def test_width_honest_failure_at_02(square65):
    cert = W.width_upper_bound(square65, 0.2, budget=12)
    assert not cert.valid
    assert cert.reasons


def test_certificate_tampering_detected(square65):
    cert = W.width_upper_bound(square65, 0.55)
    ok, _ = W.validate_certificate(square65, cert)
    assert ok
    cert.R = 0.3  # claims radii below 0.3 that the sets do not satisfy
    ok2, reasons = W.validate_certificate(square65, cert)
    assert not ok2
    assert any("radius" in r for r in reasons)


def test_certificate_with_a_false_width_index_or_stored_radius_is_rejected(square65):
    cert = W.width_upper_bound(square65, 0.55)
    assert cert.n_width == 1 and cert.multiplicity == 2
    ok, reasons = W.validate_certificate(square65, replace(cert, n_width=0))
    assert not ok and any("n_width" in r for r in reasons)
    radii = [0.01] + list(cert.cover.radii[1:])
    low = replace(cert, cover=Cover(cert.cover.sets, cert.cover.centers, radii))
    ok, reasons = W.validate_certificate(square65, low)
    assert not ok and any("stored radius" in r for r in reasons)
    far = replace(cert, cover=Cover(cert.cover.sets, [square65.grid.num_vertices]
                                    + list(cert.cover.centers[1:]), cert.cover.radii))
    ok, reasons = W.validate_certificate(square65, far)
    assert not ok and any("outside" in r for r in reasons)


@pytest.fixture(scope="module")
def small_certificate():
    f = F.flat_metric(G.build_grid(G.square(), 9, 3))
    cert = W.width_upper_bound(f, 0.6)
    assert cert.valid and len(cert.cover.sets) > 1
    return f, mio.certificate_text(cert, f.grid, "field.txt")


def _claim_holds(field, cert):
    """The certificate's claim recomputed from scratch: a cover of the whole
    field, of the stated multiplicity, by sets whose radius about the stated
    center is below R and not above the stated radius, certifying width_n."""
    V = field.grid.num_vertices
    count = np.zeros(V, dtype=np.int64)
    for s, c, r in zip(cert.cover.sets, cert.cover.centers, cert.cover.radii):
        s = np.unique(s)
        if not 0 <= c < V or (len(s) and not 0 <= s[0] <= s[-1] < V):
            return False
        count[s] += 1
        ecc = geo.distance_field(field, [c], quotient=False)[s].max(initial=0.0)
        if not (ecc < cert.R and ecc <= geo._widened(r, field.graph())):
            return False
    m = int(count.max())
    return (cert.valid and cert.field_hash == W.field_hash(field) and count.min() >= 1
            and m == cert.multiplicity and cert.n_width >= max(m - 1, 1))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["replace", "insert", "delete"]),
       char=st.sampled_from(list("0123456789.-+,=[]# \nefinatrux")))
def test_a_one_character_edit_never_yields_a_false_certificate(small_certificate, data,
                                                                kind, char):
    field, text = small_certificate
    i = data.draw(st.integers(0, len(text) - (kind != "insert")))
    edited = text[:i] + ("" if kind == "delete" else char) + text[i + (kind != "insert"):]
    try:
        _, _, cert = mio.parse_certificate(edited)
    except (ValueError, KeyError):
        return
    ok, _ = W.validate_certificate(field, cert)
    assert not ok or _claim_holds(field, cert)


def test_certificate_hash_mismatch(square65):
    cert = W.width_upper_bound(square65, 0.9)
    other = F.constant_metric(square65.grid, [[2.0, 0.0], [0.0, 1.0]])
    ok, reasons = W.validate_certificate(other, cert)
    assert not ok
    assert any("hash" in r for r in reasons)


def test_retry_ladder_monotone(square65):
    got_valid = False
    for R in (0.55, 0.7, 0.9, 1.2):
        cert = W.width_upper_bound(square65, R)
        if got_valid:
            assert cert.valid
        got_valid = got_valid or cert.valid
    assert got_valid


def test_width_volume_flat_and_hexagonal():
    for tensors in (None, HEX):
        g = G.build_grid(G.torus2(), 48, 3)
        f = F.flat_metric(g) if tensors is None else F.constant_metric(g, tensors)
        rep = W.check_width_volume(f)
        assert rep.R_star == pytest.approx(2 * math.sqrt(rep.vol), rel=1e-12)
        assert rep.certificate.valid
        assert rep.success
        ok, reasons = W.validate_certificate(f, rep.certificate)
        assert ok, reasons


def test_width_volume_trivial_single_set(square65):
    rep = W.check_width_volume(square65)
    assert rep.certificate.valid
    assert rep.certificate.multiplicity == 1
    assert len(rep.certificate.cover.sets) == 1


def test_sys_width_cross_checks(torus48_flat):
    rep = W.check_sys_width(torus48_flat,
                            [W.check_width_volume(torus48_flat).certificate])
    assert rep.ok_4n
    assert rep.sys == pytest.approx(1.0, rel=0.01)
    assert rep.bound_4n == pytest.approx(8.0, rel=0.01)
    assert rep.cert_rows and all(ok6 for (_, ok6, _) in rep.cert_rows)

    g = G.build_grid(G.torus2(), 48, 3)
    fh = F.constant_metric(g, HEX)
    reph = W.check_sys_width(fh)
    assert reph.ok_4n
    assert reph.bound_4n == pytest.approx(8.0 * (math.sqrt(3) / 2) ** 0.5, rel=0.01)

    grp = G.build_grid(G.rp2(), 32, 3)
    frp = F.round_sphere_metric(grp, 1.0)
    repr_ = W.check_sys_width(frp)
    assert repr_.ok_4n
    assert repr_.bound_4n == pytest.approx(8.0 * math.sqrt(2 * math.pi), rel=0.01)


def test_forced_cut_lengths_against_volume_profile(torus48_flat):
    cut = W.separating_cut(torus48_flat, 0.5)
    vp = M.volume_profile(torus48_flat, [cut.r1], center_sample=64).volpro[0]
    for c in cut.curves:
        vp = max(vp, M.ball_volume(torus48_flat, c.center, cut.r1))
    bound = vp / (cut.r1 - cut.r0)
    for c in cut.curves:
        assert c.length <= bound * 1.05


def test_field_hash_stability(square65):
    h1 = W.field_hash(square65)
    h2 = W.field_hash(F.flat_metric(square65.grid))
    assert h1 == h2
    h3 = W.field_hash(square65.scaled(4.0))
    assert h3 != h1


def _digest(ids):
    return hashlib.sha256(np.ascontiguousarray(ids, dtype="<i8").tobytes()).hexdigest()[:16]


# separating_cut outputs of the one-pass-per-level implementation: chosen
# levels (exact), lengths, and a digest of each curve's removed edge ids
PINNED_CUTS = {
    "square65 R=0.55": dict(
        iterations=1, reasons=[], levels=[0.5494628906250001],
        lengths=[1.703181619923892], removed=["be3840df82303fe3"]),
    "square65 R=0.2 budget 12": dict(
        iterations=12, reasons=["iteration budget 12 exhausted"],
        levels=[0.10019531250000001] * 12,
        lengths=[0.6227337942477336, 0.4028324521391741, 0.3985174934655366,
                 0.39851749346553667, 0.39851749346553667, 0.3985174934655366,
                 0.3985174934655366, 0.28674439766732324, 0.2888971755808901,
                 0.1912577542548822, 0.20325651511937148, 0.2011037372058046],
        removed=["8ee4333bc07eb9e6", "70a654e413471f6a", "60f9c3ec46b430b2",
                 "8077ff3cf834f8c4", "132b79f98115dbad", "ab6a663b43523626",
                 "cbbca8fd13d7850c", "148ed1996e36cb52", "d9f7c7b0e362b859",
                 "d0dd52568e2a722f", "bb6a5a01ae6fe608", "9066ac7fc6a9e0cd"]),
    "torus48 R=0.5": dict(
        iterations=3, reasons=[], levels=[0.25048828125, 0.25048828125, 0.49951171875],
        lengths=[1.5581606649890567, 1.0404541908694454, 1.5246593910273523],
        removed=["24871a84646b21de", "fab804dfc0447cc6", "c6ee9439a5ad6e79"]),
}


@pytest.mark.parametrize("name", list(PINNED_CUTS))
def test_separating_cut_matches_pinned_outputs(name, square65, torus48_flat):
    field, kwargs = {
        "square65 R=0.55": (square65, dict(R=0.55)),
        "square65 R=0.2 budget 12": (square65, dict(R=0.2, budget=12)),
        "torus48 R=0.5": (torus48_flat, dict(R=0.5)),
    }[name]
    want = PINNED_CUTS[name]
    cut = W.separating_cut(field, **kwargs)
    assert cut.iterations == want["iterations"]
    assert cut.reasons == want["reasons"]
    assert [c.level for c in cut.curves] == want["levels"]
    assert [c.length for c in cut.curves] == pytest.approx(want["lengths"], abs=1e-12)
    assert [_digest(c.removed_edges) for c in cut.curves] == want["removed"]


def test_ladder_nudge_and_straddle_counts_match_per_level_tests():
    rng = np.random.default_rng(1)
    r0, r1, count = 0.3, 0.6, 64
    step = (r1 - r0) / count
    plain = r0 + step * (np.arange(count) + 0.5)
    # component values on, just off and far from the levels
    fcomp = np.concatenate([plain[::5], plain[1::7] + 5e-14, plain[2::9] - 2e-13,
                            rng.uniform(0, 1, 200)])
    levels = W._ladder(fcomp, r0, r1, count)
    want = [t + step * 1e-6 if np.abs(fcomp - t).min() < 1e-13 else t for t in plain]
    assert levels.tolist() == want
    assert (levels != plain).sum() == len(set(range(0, count, 5)) | set(range(1, count, 7)))

    fu = np.concatenate([rng.uniform(0.2, 0.7, 300), levels[:10], [0.4, 0.45]])
    fv = np.concatenate([rng.uniform(0.2, 0.7, 300), levels[5:15], [0.4, 0.45]])
    counts = W._straddle_counts(fu, fv, levels)
    assert counts.tolist() == [int(((fu - t) * (fv - t) < 0).sum()) for t in levels]


def test_separating_cut_ladder_memory_is_bounded():
    # blocks of the level ladder keep the cut's peak (4.5 MB) near that of
    # one marching-squares pass per level (4.3 MB); an unblocked ladder
    # reaches 10.2 MB here
    f = F.flat_metric(G.build_grid(G.square(), 65, 3))
    f.graph()
    tracemalloc.start()
    try:
        W.separating_cut(f, 0.2, budget=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# scipy Dijkstra calls and source rows of width_upper_bound on a fresh flat
# square.  The field's row store serves the rows that the set radii search
# again and the cut centers' rows; without it the search made the first
# counts in the comments.  Each cut-ring group's rows are searched once and
# shared with its thickened set; searched again for that set, they made the
# second counts.  The invalid case fails on a group's radius, found before
# any thickening, so it searches as before.
WIDTH_SEARCH_COUNTS = {  # case: (N, R, valid, calls, source rows)
    "square33 R=0.55": (33, 0.55, True, 39, 536),   # 58 calls, 796 rows; 43, 780
    "square17 R=0.45": (17, 0.45, False, 78, 555),  # 109 calls, 595 rows; 78, 555
}


@pytest.mark.parametrize("name", sorted(WIDTH_SEARCH_COUNTS))
def test_width_upper_bound_runs_its_pinned_dijkstras(monkeypatch, name):
    N, R, valid, total, rows = WIDTH_SEARCH_COUNTS[name]
    f = F.flat_metric(G.build_grid(G.square(), N, 3))
    calls, real = [], geo.dijkstra

    def counting(*args, **kwargs):
        calls.append(np.size(kwargs["indices"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(geo, "dijkstra", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cert = W.width_upper_bound(f, R)
    assert cert.valid == valid
    assert (len(calls), sum(calls)) == (total, rows)


def _reference_group_radii(field, group, others, R):
    """Oracle: a cut-ring group and its thickening measured apart by
    set_radius_exact, as before their rows were shared."""
    rad, center = geo.set_radius_exact(field, group)
    thick = group
    if others:
        d = geo.distance_field(field, group, quotient=False)
        sep = min(float(d[o].min()) for o in others)
        r_x = min(sep / 10.0, max(0.0, (R - rad) / 2.0))
        if r_x > 0:
            thick = np.where(d < r_x)[0]
    return (rad, center, thick) + geo.set_radius_exact(field, thick)


# the thickened set's radius exceeds the group's bound ub in both examples, so
# the cut-off needs its sep / 10 term
@example(seed=0, top="square", N=31, R=0.585, flat=True)
@example(seed=19, top="cylinder", N=28, R=0.591, flat=False)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), top=st.sampled_from(["square", "cylinder"]),
       N=st.integers(25, 37), R=st.floats(0.3, 0.6), flat=st.booleans())
def test_group_radii_equal_separate_exact_radii(seed, top, N, R, flat):
    def field():
        g = G.build_grid(getattr(G, top)(), N, 3)
        return F.flat_metric(g) if flat else F.random_spd_metric(g, seed, (0.5, 2.0))

    f, fresh = field(), field()
    groups = W._curve_ring_groups(f, W.separating_cut(f, R, budget=8))
    for gi, grp in enumerate(groups):
        others = groups[:gi] + groups[gi + 1:]
        # at R' = ub the group's cut-off is ub alone, and it thickens when rad < ub
        for R_ in (R, geo.set_radius_upper(fresh, grp, rounds=1)[0]):
            got = W._group_radii(f, grp, others, R_)
            want = _reference_group_radii(fresh, grp, others, R_)
            assert got[:2] == want[:2] and got[3:] == want[3:]
            assert np.array_equal(got[2], want[2])
