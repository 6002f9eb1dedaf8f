"""The text writers and run codecs of metriclab.io against their former
element-by-element versions, kept here as oracles: every output must match
byte for byte, on inputs that the pinned goldens do not cover."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriclab import besicovitch as B
from metriclab import fields as F
from metriclab import geodesy as geo
from metriclab import grid as G
from metriclab import io as mio
from metriclab import width as W
from metriclab.covers import Cover

fmt = mio.fmt


def _field_table(field):
    g = field.grid
    n = g.n
    cols = ["index"] + [f"x{k}" for k in range(n)]
    for i in range(n):
        for j in range(i, n):
            cols.append(f"g{i}{j}")
    out = ["# " + " ".join(cols)]
    for v in range(g.num_vertices):
        row = [str(v)] + [fmt(c) for c in g.coords[v]]
        for i in range(n):
            for j in range(i, n):
                row.append(fmt(field.tensors[v, i, j]))
        out.append(" ".join(row))
    return "\n".join(out) + "\n"


def _witness_text(witness, grid):
    out = [f"# class = {witness.cls}",
           f"# length = {fmt(witness.length)}",
           "# " + " ".join([f"x{k}" for k in range(grid.n)]
                           + [f"wrap{k}" for k in range(grid.n)])]
    for p in witness.points:
        wraps = [int(math.floor(p[k])) if grid.topology.periodic[k] else 0
                 for k in range(grid.n)]
        coords = [p[k] - wraps[k] for k in range(grid.n)]
        out.append(" ".join([fmt(c) for c in coords] + [str(w) for w in wraps]))
    return "\n".join(out) + "\n"


def _besicovitch_text(report):
    lines = ["[besicovitch]"]
    for i, di in enumerate(report.d):
        lines.append(f"d{i} = {fmt(di)}")
    for key in ("vol", "product", "slack", "jac_max", "row_norm_max", "flatness"):
        lines.append(f"{key} = {fmt(getattr(report, key))}")
    for key in ("jac_ok", "degree_ok", "degree_checked", "face_containment_ok", "passed"):
        lines.append(f"{key} = {str(getattr(report, key)).lower()}")
    lines.append(f"rel_tol = {fmt(report.rel_tol)}")
    edges, counts = report.jac_histogram()
    lines.append("")
    lines.append("[jac_histogram]")
    lines.append("# bin_lo bin_hi count")
    for k in range(len(counts)):
        lines.append(f"{fmt(edges[k])} {fmt(edges[k + 1])} {int(counts[k])}")
    return "\n".join(lines) + "\n"


def _encode_runs(indices):
    idx = np.sort(np.asarray(indices, dtype=np.int64))
    if len(idx) == 0:
        return ""
    parts = []
    start = prev = int(idx[0])
    for v in idx[1:]:
        v = int(v)
        if v == prev + 1:
            prev = v
            continue
        parts.append(f"{start}-{prev}" if prev > start else str(start))
        start = prev = v
    parts.append(f"{start}-{prev}" if prev > start else str(start))
    return ",".join(parts)


def _certificate_text(cert, grid, field_path=""):
    top = grid.topology
    lines = [f"[domain]\nkind = {top.kind}\nresolution = {grid.resolution}\n"
             f"stencil_order = {grid.stencil_order}\nmask = {top.mask_name}", ""]
    lines.append("[field]")
    lines.append(f"path = {field_path}")
    lines.append(f"hash = {cert.field_hash}")
    lines.append("")
    lines.append("[certificate]")
    lines.append(f"n_width = {cert.n_width}")
    lines.append(f"R = {fmt(cert.R)}")
    lines.append(f"r0 = {fmt(cert.r0)}")
    lines.append(f"r1 = {fmt(cert.r1)}")
    lines.append(f"multiplicity = {cert.multiplicity}")
    lines.append(f"valid = {str(cert.valid).lower()}")
    lines.append(f"reasons = {'; '.join(cert.reasons)}")
    lines.append(f"num_sets = {len(cert.cover.sets)}")
    for i, (s, c, r) in enumerate(zip(cert.cover.sets, cert.cover.centers,
                                      cert.cover.radii)):
        lines.append("")
        lines.append(f"[set {i}]")
        lines.append(f"center = {int(c)}")
        lines.append(f"radius = {fmt(r)}")
        lines.append(f"vertices = {_encode_runs(s)}")
    return "\n".join(lines) + "\n"


def _grid(name, N):
    return G.build_grid(G.topology_from_name(name), N, 3)


FIELDS = {
    "interval": lambda: F.random_spd_metric(_grid("interval", 9), 1, (0.5, 2.0)),
    "cube3": lambda: F.random_spd_metric(_grid("cube3", 5), 2, (0.5, 2.0)),
    "rp2": lambda: F.round_sphere_metric(_grid("rp2", 8)),
    "tripod": lambda: F.random_spd_metric(_grid("hexagon:tripod:0.46:0.024", 48), 3, (0.5, 2.0)),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_field_table_matches_the_former_writer(name):
    field = FIELDS[name]()
    assert mio.field_table(field) == _field_table(field)


def test_field_table_writes_signed_zeros_and_extremes():
    g = _grid("square", 4)
    f = F.flat_metric(g)
    f.tensors[0, 0, 1] = f.tensors[0, 1, 0] = -0.0
    f.tensors[1, 1, 1] = 5e-324
    f.tensors[2, 0, 0] = 1.7976931348623157e308
    f.tensors[3, 0, 1] = f.tensors[3, 1, 0] = 0.1
    assert mio.field_table(f) == _field_table(f)


def _witnesses():
    torus = _grid("torus2", 8)
    loop = geo.systole(F.constant_metric(torus, [[1.0, 0.3], [0.3, 2.0]]))
    # unwrapped coordinates below zero, on integers, at -0.0 and past one
    moved = geo.LoopWitness(loop.cls, loop.base_vertex,
                            loop.points - np.array([2.0, 1.0]), loop.length)
    edges = geo.LoopWitness((1, 0), 0, np.array([[-0.0, -1.0], [-1e-17, 1.0],
                                                [2.999999999999999, -3.5]]), 1.0)
    rp2 = _grid("rp2", 8)
    cyl = _grid("cylinder", 8)
    return [(loop, torus), (moved, torus), (edges, torus),
            (geo.systole(F.round_sphere_metric(rp2)), rp2),
            (geo.systole(F.random_spd_metric(cyl, 4, (0.5, 2.0))), cyl),
            (geo.LoopWitness((0, 1), 0, np.empty((0, 2)), 0.0), torus)]


def test_witness_text_matches_the_former_writer():
    for witness, grid in _witnesses():
        assert mio.witness_text(witness, grid) == _witness_text(witness, grid)
    assert any((w.points < 0).any() for w, _ in _witnesses())


@pytest.mark.parametrize("name", ["interval", "cube3"])
def test_besicovitch_text_matches_the_former_writer(name):
    rep = B.verify_besicovitch(FIELDS[name]())
    assert mio.besicovitch_text(rep) == _besicovitch_text(rep)


def test_besicovitch_text_of_a_failed_report():
    rep = B.BesicovitchReport(
        d=(0.5, float("nan")), vol=0.25, product=float("inf"), slack=-0.0, jac_max=3.0,
        jac_ok=False, row_norm_max=1e-300, degree_ok=False, degree_checked=False,
        face_containment_ok=False, passed=False, rel_tol=1e-9,
        per_cell_jac=np.array([0.0, 0.5, 3.0, 3.0]))
    assert mio.besicovitch_text(rep) == _besicovitch_text(rep)


def _certificates():
    g = _grid("square", 17)
    f = F.random_spd_metric(g, 5, (0.5, 2.0))
    valid, refused = W.width_upper_bound(f, 0.6), W.width_upper_bound(f, 0.5)
    invalid = W.WidthCertificate(n_width=1, R=0.25, cover=Cover([], [], []), valid=False,
                                 reasons=[], multiplicity=0, field_hash="")
    odd = W.WidthCertificate(
        n_width=2, R=1.5, cover=Cover([np.array([7, 3, 3, 4, 0]), np.array([], dtype=np.int64)],
                                      [np.int64(3), 0], [0.5, float("inf")]),
        valid=False, reasons=["one", "two"], multiplicity=3, field_hash="ab",
        r0=-0.0, r1=1e300)
    return g, [valid, refused, invalid, odd]


def test_certificate_text_matches_the_former_writer():
    g, certs = _certificates()
    assert len(certs[0].cover.sets) > 1 and certs[1].reasons and not certs[2].reasons
    assert math.isnan(certs[2].r0) and math.isnan(certs[2].r1)
    for cert in certs:
        for path in ("", "some dir/field.txt"):
            assert mio.certificate_text(cert, g, path) == _certificate_text(cert, g, path)
    tripod = FIELDS["tripod"]().grid
    assert mio.certificate_text(certs[2], tripod) == _certificate_text(certs[2], tripod)


def test_profile_text_writes_one_row_per_level():
    xs, ys = np.array([0.0, 0.5, -0.0]), [1e-320, 2.0, float("nan")]
    want = "# t a\n" + "".join(f"{fmt(x)} {fmt(y)}\n" for x, y in zip(xs, ys))
    assert mio.profile_text(xs, ys) == want
    assert mio.profile_text([], []) == "# t a\n"


ids = st.lists(st.integers(0, 60), max_size=40) | st.lists(st.integers(0, 2**40), max_size=8)


@settings(max_examples=200, deadline=None)
@given(ids)
@example([])
@example([5])
@example([3, 3, 4, 2, 2, 9, 8, 8])
def test_runs_round_trip_to_the_sorted_ids(xs):
    x = np.asarray(xs, dtype=np.int64)
    text = mio.encode_runs(x)
    assert text == _encode_runs(x)
    back = mio.decode_runs(text)
    assert back.dtype == np.int64 and np.array_equal(back, np.sort(x))


@pytest.mark.parametrize("text", ["1,", "3-", "-3", "1-2-3", "a", "5-3"])
def test_decode_runs_refuses_a_malformed_run(text):
    with pytest.raises(ValueError):
        mio.decode_runs(text)
