import contextlib
import inspect
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclab import besicovitch as B
from metriclab import cli
from metriclab import fields as F
from metriclab import gallery as gal
from metriclab import geodesy as geo
from metriclab import grid as G
from metriclab import io as mio
from metriclab import width as W


def test_field_roundtrip(tmp_path):
    g = G.build_grid(G.torus2(), 12, 2)
    f = F.random_spd_metric(g, 3, (0.5, 2.0))
    path = tmp_path / "field.txt"
    mio.write_field(f, path)
    back = mio.read_field(path)
    assert back.grid.topology == g.topology
    assert back.grid.resolution == g.resolution
    assert (back.tensors == f.tensors).all()  # %.17g round-trips float64
    assert W.field_hash(back) == W.field_hash(f)
    path.write_text(path.read_text().replace("[domain]", "# [domain]"))
    with pytest.raises(G.GridError, match=r"\[domain\]"):
        mio.read_field(path)


@pytest.mark.parametrize("edit", ["repeated", "negative", "too large", "short", "long", "moved"])
def test_read_field_rejects_bad_rows(tmp_path, edit):
    g = G.build_grid(G.square(), 5, 3)
    mio.write_field(F.flat_metric(g), tmp_path / "field.txt")
    lines = (tmp_path / "field.txt").read_text().splitlines()
    first = lines.index("# index x0 x1 g00 g01 g11") + 1  # row of vertex 0
    row = lines[first + 24].split()
    if edit == "repeated":  # row 0 copied over row 7, which is then missing
        lines[first + 7] = lines[first]
    elif edit in ("negative", "too large"):  # row 24's index moved out of range
        row[0] = "-1" if edit == "negative" else "25"
        lines[first + 24] = " ".join(row)
    elif edit == "moved":  # row 3 moved from (0, 0.75) to (0.9, 0.1)
        assert lines[first + 3].split()[:3] == ["3", "0", "0.75"]
        lines[first + 3] = " ".join(["3", "0.9", "0.1", *lines[first + 3].split()[3:]])
    else:  # row 24 loses its last tensor entry, or gains one more
        lines[first + 24] = " ".join(row[:-1] if edit == "short" else row + ["7"])
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(G.GridError, match="row"):
        mio.read_field(tmp_path / "bad.txt")


def test_degenerate_field_file_gives_no_certificate(tmp_path, capsys):
    g = G.build_grid(G.square(), 33, 3)
    cert = W.width_upper_bound(F.flat_metric(g), 0.6)
    zero = F.MetricField(g, np.zeros((g.num_vertices, 2, 2)), validate=False)
    mio.write_field(zero, tmp_path / "zero.txt")
    text = mio.certificate_text(cert, g, "zero.txt")
    text = text.replace(f"R = {mio.fmt(cert.R)}", "R = 1e-06")
    (tmp_path / "cert.txt").write_text(text.replace(cert.field_hash, W.field_hash(zero)))
    # every edge of the zero field has length 0, so every set radius is below R
    rc = cli.main(["validate-certificate", str(tmp_path / "cert.txt")])
    out, err = capsys.readouterr()
    assert rc != 0
    assert "certificate OK" not in out
    assert "positive definite" in err
    with pytest.raises(F.FieldError, match="positive definite"):
        mio.read_field(tmp_path / "zero.txt")


def test_read_field_checks_the_antipodal_identification(tmp_path):
    g = G.build_grid(G.rp2(), 16, 3)
    f = F.round_sphere_metric(g, 1.0)
    mio.write_field(f, tmp_path / "round.txt")
    assert (mio.read_field(tmp_path / "round.txt").tensors == f.tensors).all()
    lopsided = F.MetricField(g, np.exp(0.4 * g.coords[:, 1])[:, None, None] * f.tensors,
                             validate=False)
    mio.write_field(lopsided, tmp_path / "lopsided.txt")
    with pytest.raises(F.FieldError, match="antipodal"):
        mio.read_field(tmp_path / "lopsided.txt")


def test_run_encoding_roundtrip():
    idx = np.array([0, 1, 2, 3, 7, 9, 10, 11, 40])
    text = mio.encode_runs(idx)
    assert text == "0-3,7,9-11,40"
    assert (mio.decode_runs(text) == idx).all()
    assert len(mio.decode_runs("")) == 0


def test_witness_text_contains_wraps():
    g = G.build_grid(G.torus2(), 16, 3)
    f = F.flat_metric(g)
    w = geo.systole(f)
    text = mio.witness_text(w, g)
    assert "class" in text and "length" in text
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert len(rows) == len(w.points)


def test_certificate_roundtrip_and_cli_validation(tmp_path, capsys):
    g = G.build_grid(G.square(), 33, 3)
    f = F.flat_metric(g)
    cert = W.width_upper_bound(f, 0.6)
    assert cert.valid
    field_path = tmp_path / "field.txt"
    cert_path = tmp_path / "cert.txt"
    mio.write_field(f, field_path)
    with open(cert_path, "w", newline="\n") as fh:
        fh.write(mio.certificate_text(cert, g, "field.txt"))
    domain_lines, fpath, parsed = mio.parse_certificate(cert_path.read_text())
    assert fpath == "field.txt"
    assert parsed.R == cert.R
    assert parsed.multiplicity == cert.multiplicity
    assert all((a == b).all() for a, b in zip(parsed.cover.sets, cert.cover.sets))
    rc = cli.main(["validate-certificate", str(cert_path)])
    assert rc == 0
    # tamper: shrink R below the measured radii
    text = cert_path.read_text().replace(f"R = {mio.fmt(cert.R)}", "R = 0.1")
    (tmp_path / "bad.txt").write_text(text)
    assert cli.main(["validate-certificate", str(tmp_path / "bad.txt")]) == 1
    assert cli.main(["validate-certificate", str(tmp_path / "nothere.txt")]) == 2
    # a malformed field file is a parse error too, not an execution error
    text = field_path.read_text()
    assert "[domain]" in text
    (tmp_path / "broken.txt").write_text(text.replace("[domain]", "[domian]"))
    capsys.readouterr()
    assert cli.main(["validate-certificate", str(cert_path),
                     "--field", str(tmp_path / "broken.txt")]) == 2
    assert "parse error" in capsys.readouterr().err
    # so is a malformed domain descriptor
    (tmp_path / "cube.txt").write_text(text.replace("kind = square", "kind = cube"))
    assert cli.main(["validate-certificate", str(cert_path),
                     "--field", str(tmp_path / "cube.txt")]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def width_certificate(tmp_path_factory):
    """(directory, text) of the certificate of the flat square at N = 33 and
    R = 0.55, which validates next to the field file that it names."""
    out = tmp_path_factory.mktemp("certificate")
    g = G.build_grid(G.square(), 33, 3)
    f = F.flat_metric(g)
    mio.write_field(f, out / "field.txt")
    text = mio.certificate_text(W.width_upper_bound(f, 0.55), g, "field.txt")
    (out / "cert.txt").write_text(text)
    assert cli.main(["validate-certificate", str(out / "cert.txt")]) == 0
    return out, text


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_duplicated_certificate_line_is_a_parse_error(width_certificate, data):
    # the former line reader restarted a repeated section and kept the last of two
    # keys, so a certificate with any one line duplicated validated (exit 0)
    out, text = width_certificate
    lines = text.splitlines()
    k = data.draw(st.sampled_from([k for k, ln in enumerate(lines)
                                   if ln.strip() and not ln.startswith("#")]))
    (out / "dup.txt").write_text("\n".join(lines[:k + 1] + lines[k:]) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["validate-certificate", str(out / "dup.txt")]) == 2, lines[k]
    assert "parse error" in err.getvalue()


@pytest.mark.parametrize("edit", ["set beyond num_sets", "certificate key", "extra section",
                                  "domain key", "field key", "set key"])
def test_an_unknown_certificate_section_or_key_is_a_parse_error(width_certificate, edit):
    # the reader took only the sections and keys it knew: each of these
    # certificates validated (exit 0)
    out, text = width_certificate
    nsets = int(text.split("num_sets = ")[1].split()[0])
    first_set = text[text.index("[set 0]"):].split("\n\n")[0].strip()
    section, line = {"certificate key": ("certificate", "bogus = 1"),
                     "domain key": ("domain", "bogus = 1"),
                     "field key": ("field", "bogus = 1"),
                     "set key": ("set 0", "bogus = 1")}.get(edit, (None, None))
    if section is not None:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    elif edit == "extra section":
        text += "[extra]\nkey = 1\n"
    else:
        text += "\n" + first_set.replace("[set 0]", f"[set {nsets}]") + "\n"
    with pytest.raises(ValueError, match="unknown"):
        mio.parse_certificate(text)
    (out / "unknown.txt").write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["validate-certificate", str(out / "unknown.txt")]) == 2
    assert "parse error" in err.getvalue() and "unknown" in err.getvalue()


def test_an_unknown_domain_key_of_a_field_file_is_refused(tmp_path):
    g = G.build_grid(G.square(), 5, 3)
    mio.write_field(F.flat_metric(g), tmp_path / "field.txt")
    text = (tmp_path / "field.txt").read_text()
    (tmp_path / "field.txt").write_text(text.replace("[domain]\n", "[domain]\nbogus = 1\n"))
    with pytest.raises(G.GridError, match=r"unknown \[domain\] key bogus"):
        mio.read_field(tmp_path / "field.txt")
    with pytest.raises(G.GridError, match=r"unknown \[domain\] key bogus"):
        mio.grid_from_descriptor({"kind": "square", "resolution": "5", "bogus": "1"})


def test_report_rows_and_verdicts():
    row = mio.make_row("e", 8, "q", 1.005, 1.0, "paper", 0.01)
    assert row.verdict == "PASS"
    assert mio.make_row("e", 8, "q", 1.02, 1.0, "paper", 0.01).verdict == "FAIL"
    assert mio.make_row("e", 8, "q", 0.5, 1.0, "paper", 0.01, mode="le").verdict == "PASS"
    assert mio.make_row("e", 8, "q", 0.5, 1.0, "paper", 0.01, mode="ge").verdict == "FAIL"
    assert mio.make_row("e", 8, "q", 9.9, 1.0, "x", 0.0, mode="info").verdict == "INFO"
    csv = mio.report_csv([row])
    assert csv.splitlines()[0] == mio.REPORT_HEADER
    assert csv.endswith("\n") and "\r" not in csv


def test_readme_config_example_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "cfg.ini"
    path.write_text(readme.split("```ini\n")[1].split("```")[0])
    config = gal.config_from_sections(mio.parse_config(path))
    assert config.experiment_id == "my-loewner"
    assert config.domain == "torus2"
    assert config.metric == "hexagonal"
    assert config.resolutions == [32, 64, 128]
    assert config.operation == "systolic_ratio"
    assert config.operation_params == {"reference": 1.0745699318235355,
                                       "sys_reference": 1.0, "provenance": "paper"}


def test_experiment_config_invariants():
    with pytest.raises(gal.GalleryError):
        gal.ExperimentConfig("x", "square", "flat", "volume", [32, 32])
    with pytest.raises(gal.GalleryError):
        gal.ExperimentConfig("x", "square", "flat", "volume", [64, 32])
    with pytest.raises(gal.GalleryError):
        gal.ExperimentConfig("x", "square", "random_spd", "volume", [32])
    gal.ExperimentConfig("x", "square", "random_spd", "volume", [32], seed=1)


def test_gallery_list_is_stable():
    names = [it.experiment_id for it in gal.gallery()]
    assert len(names) >= 12
    assert names == sorted(set(names), key=names.index)  # no duplicates
    expected = [
        "besicovitch-flat", "besicovitch-anisotropic", "besicovitch-random-sweep",
        "hexagon-thin", "cylinder-coarea", "coarea-flat-square",
        "loewner-hexagonal", "loewner-strictness", "pu-rp2", "involution-sphere",
        "gadograph-disk", "width-square", "width-volume-tori-flat",
        "width-volume-tori-hexagonal", "sys-width-flat-torus", "sys-width-rp2",
        "sphere-volume", "flat-torus-systole",
    ]
    assert names == expected


def test_cli_run_deterministic_reports(tmp_path):
    # a volume item, a loop item (witness files) and a certificate item
    items = {"sphere-volume": [], "loewner-hexagonal": ["loewner-hexagonal-N128-witness.txt"],
             "width-square": ["width-square-N65-certificate.txt"]}
    for item, artifacts in items.items():
        out1 = tmp_path / item / "a"
        out2 = tmp_path / item / "b"
        rc1 = cli.main(["run", "--gallery", item, "--out", str(out1)])
        rc2 = cli.main(["run", "--gallery", item, "--out", str(out2)])
        assert rc1 == 0 and rc2 == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert set(artifacts + [f"{item}.csv"]) <= set(names)
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert (out1 / f"{item}.csv").read_bytes().decode().count("\r") == 0


def test_cli_config_and_exit_codes(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[domain]\nkind = torus2\nstencil_order = 3\n\n"
        "[metric]\nbuilder = hexagonal\n\n"
        "[experiment]\nid = my-loewner\noperation = systolic_ratio\n"
        "resolutions = 16,32\nreference = 1.0745699318235355\n"
        "sys_reference = 1.0\nprovenance = paper\n"
    )
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "my-loewner.csv").exists()
    assert cli.main(["run", "--config", str(tmp_path / "missing.ini"),
                     "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[domain]\nkind = torus2\n\n[experiment]\noperation = nope\n")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_config_keys_keep_their_case(tmp_path):
    cfg = tmp_path / "forced.ini"
    cfg.write_text(
        "[domain]\nkind = torus2\n\n[metric]\nbuilder = flat\n\n"
        "[experiment]\nid = forced\noperation = width_volume\nresolutions = 24\n"
        "force_R = 0.5\n"
    )
    assert mio.parse_config(cfg)["experiment"]["force_R"] == "0.5"
    cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    quantities = [ln.split(",")[2] for ln in (tmp_path / "forced.csv").read_text().splitlines()]
    assert {"forced_cut_valid", "max_cut_length_vs_pigeonhole"} <= set(quantities)


_TORUS = "[domain]\nkind = torus2\n\n[metric]\nbuilder = flat\n\n"
_SPHERE = "[domain]\nkind = sphere2\n\n[metric]\nbuilder = round_sphere\n\n"


@pytest.mark.parametrize("text, key", [
    (_TORUS + "[experiment]\noperation = width_volume\nresolutions = 16\nforce_r = 0.5\n",
     "force_r"),
    ("[domain]\nkind = torus2\n\n[metric]\nbuilder = flat\nradius = 0.3\n\n"
     "[experiment]\noperation = sys_width\nresolutions = 16\n", "radius"),
    (_TORUS + "[experimnt]\nid = x\n\n[experiment]\noperation = sys_width\n"
     "resolutions = 16\n", "experimnt"),
    ("[domain]\nkind = torus2\nresolution = 99\n\n"
     "[experiment]\noperation = sys_width\nresolutions = 16\n", "resolution"),
    ("[domain]\nkind = rp2\n\n[metric]\nbuilder = round_sphere\n\n"
     "[experiment]\noperation = pu\nresolutions = 16\ntolerances = systole=0.1\n", "systole"),
    (_SPHERE + "[experiment]\noperation = volume\nresolutions = 16\n"
     "reference = 12.566370614359172\ntolerances = volume 0.5\n", "volume 0.5"),
    ("[domain]\nkind = torus3\n\n[experiment]\noperation = sys_width\nresolutions = 16\n",
     "torus3"),
], ids=["operation-key", "builder-key", "section", "domain-key", "unread-tolerance",
        "tolerance-without-equals", "domain-kind"])
def test_undeclared_config_items_are_refused(tmp_path, capsys, text, key):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not list(tmp_path.glob("*.csv"))


_DISK = "[domain]\nkind = square\n\n[metric]\nbuilder = piecewise_disk\n\n"


@pytest.mark.parametrize("radius", [math.nan, -0.1, math.inf, 5.0])
def test_gadograph_refuses_a_disk_without_boundary_probes(tmp_path, capsys, radius):
    # nan and -0.1 reported PASS on both rows: no probe, and a region volume of 0 against 0
    item = gal.ExperimentConfig("d", "square", "piecewise_disk", "gadograph", [16],
                                operation_params={"radius": radius})
    with pytest.raises(gal.GalleryError, match="disk"):
        gal.run_config(item)
    cfg = tmp_path / "disk.ini"
    cfg.write_text(_DISK + f"[experiment]\noperation = gadograph\nresolutions = 16\n"
                           f"radius = {radius}\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("params", [{"radius": math.nan}, {"radius": -0.1},
                                    {"radius": math.inf}, {"center": (math.nan, 0.5)},
                                    {"center": (0.5, math.inf)}, {"center": (0.5,)}])
def test_the_disk_builder_refuses_a_disk_that_is_not_one(params):
    item = gal.ExperimentConfig("d", "square", "piecewise_disk", "volume", [16],
                                metric_params=params, operation_params={"reference": 1.0})
    with pytest.raises(gal.GalleryError, match="a disk needs"):
        gal.run_config(item)
    assert gal._METRICS["piecewise_disk"](G.build_grid(G.square(), 16, 3), None, radius=5.0)


@pytest.mark.parametrize("value", [math.inf, math.nan, -0.01])
def test_a_tolerance_override_is_a_finite_number_at_least_zero(monkeypatch, tmp_path, capsys,
                                                               value):
    # volume = inf made a volume of 1 PASS against a reference of 5
    with pytest.raises(gal.GalleryError, match="tolerance volume"):
        gal.ExperimentConfig("v", "square", "flat", "volume", [16],
                             operation_params={"reference": 5.0},
                             tolerance_overrides={"volume": value})
    built = []
    monkeypatch.setattr(gal, "build_grid", lambda *args: built.append(args))
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[domain]\nkind = square\n\n[experiment]\noperation = volume\n"
                   f"resolutions = 16\nreference = 5.0\ntolerances = volume={value}\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "volume" in err
    assert built == []


def test_a_zero_tolerance_override_is_accepted():
    item = gal.ExperimentConfig("v", "square", "flat", "volume", [16],
                                operation_params={"reference": 5.0},
                                tolerance_overrides={"volume": 0})
    (row,) = gal.run_config(item)
    assert row.verdict == "FAIL"


# one small run of each operation, with keys that reach every tolerance it reads
_SMALL_RUNS = {
    "volume": ("sphere2", "round_sphere", 16, {"reference": 4 * math.pi}),
    "systolic_ratio": ("torus2", "flat", 16, {"reference": 1.0}),
    "besicovitch": ("square", "flat", 16, {"vol_reference": 1.0}),
    "besicovitch_sweep": ("square", "flat", 16, {"count": 1}),
    "hexagon_faces": ("hexagon", "flat", 24, {}),
    "cylinder": ("cylinder", "flat", 24, {}),
    "coarea": ("square", "flat", 16, {}),
    "pu": ("rp2", "round_sphere", 16, {}),
    "involution": ("sphere2", "round_sphere", 16, {}),
    "gadograph": ("square", "piecewise_disk", 16, {}),
    "loewner_bumps": ("torus2", "hexagonal", 16, {"count": 1}),
    "width_square": ("square", "flat", 33, {"r_valid": 0.6, "r_invalid": 0.3, "budget": 8}),
    "width_volume": ("torus2", "flat", 16, {"force_R": 0.5}),
    "sys_width": ("torus2", "flat", 16, {}),
}


def test_small_runs_cover_every_operation():
    assert set(_SMALL_RUNS) == set(gal._OPERATIONS)


@pytest.mark.parametrize("operation", sorted(_SMALL_RUNS))
def test_operations_read_the_tolerances_they_declare(monkeypatch, operation):
    read = set()
    tol = gal.ExperimentConfig.tol

    def spy(config, name):
        read.add(name)
        return tol(config, name)

    monkeypatch.setattr(gal.ExperimentConfig, "tol", spy)
    domain, metric, N, params = _SMALL_RUNS[operation]
    gal.run_config(gal.ExperimentConfig("x", domain, metric, operation, [N], seed=1,
                                        operation_params=params))
    assert read == set(gal._OPERATIONS[operation][1])


@pytest.mark.parametrize("d_reference", [(1.0,), (1.0, 1.0, 1.0)])
def test_besicovitch_refuses_a_d_reference_of_another_length(d_reference):
    item = gal.ExperimentConfig("b", "square", "flat", "besicovitch", [16],
                                operation_params={"d_reference": d_reference})
    with pytest.raises(gal.GalleryError, match="d_reference has"):
        gal.run_config(item)


def test_readme_tables_list_every_declared_key_and_tolerance():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {line.split("`")[1]: line.split(" | ")[1:]
            for line in readme.splitlines() if line.startswith("| `")}
    tables = [(gal._METRICS, lambda fn: fn), (gal._OPERATIONS, lambda entry: entry[0])]
    for table, function in tables:
        for name, entry in table.items():
            keys = list(inspect.signature(function(entry)).parameters)[2:]
            assert [k for k in keys if f"`{k}" not in rows[name][0]] == [], name
    for name, (_, tolerances) in gal._OPERATIONS.items():
        listed = rows[name][1].strip(" |").split(", ")
        assert listed == ([f"`{t}`" for t in tolerances] or ["none"]), name


@pytest.mark.parametrize("text", [
    "kind = torus2\n",                                            # no section header
    "[domain]\nkind = torus2\n[domain]\nkind = square\n",       # a repeated section
    "[domain]\nkind = torus2\nstencil_order\n",                 # a line without =
], ids=["no-header", "repeated-section", "no-equals"])
def test_a_malformed_config_is_a_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text + "\n[experiment]\noperation = volume\n")
    with pytest.raises(ValueError):
        mio.parse_config(cfg)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_resolution_zero_is_not_ignored(tmp_path):
    with pytest.raises(G.GridError, match="resolution"):
        gal.run_config(gal.gallery_item("flat-torus-systole"), resolution=0)
    assert cli.main(["run", "--gallery", "flat-torus-systole", "--out", str(tmp_path),
                     "--resolution", "0"]) != 0


def test_cli_failing_verdict_exit_code(tmp_path):
    cfg = tmp_path / "wrong.ini"
    cfg.write_text(
        "[domain]\nkind = torus2\n\n[metric]\nbuilder = flat\n\n"
        "[experiment]\nid = wrong-ref\noperation = systolic_ratio\n"
        "resolutions = 16\nreference = 0.5\nsys_reference = 1.0\n"
    )
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_cli_execution_error_exit_code(tmp_path):
    cfg = tmp_path / "broken.ini"
    cfg.write_text(
        "[domain]\nkind = torus2\n\n[metric]\nbuilder = round_sphere\n\n"
        "[experiment]\nid = broken\noperation = volume\nresolutions = 16\n"
        "reference = 1.0\n"
    )
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_a_missing_required_key_exits_2_before_any_grid_is_built(tmp_path, capsys,
                                                                  monkeypatch):
    def build_grid(*args, **kwargs):
        raise AssertionError("build_grid called")

    monkeypatch.setattr(gal, "build_grid", build_grid)
    # an operation key, and a builder key (that one exited 3 once the grid was built)
    for name, text, key in [
            ("no-reference", "[domain]\nkind = sphere2\n\n[metric]\nbuilder = round_sphere\n\n"
             "[experiment]\nid = no-reference\noperation = volume\nresolutions = 16\n",
             "reference"),
            ("no-g", "[domain]\nkind = square\n\n[metric]\nbuilder = constant\n\n"
             "[experiment]\nid = no-g\noperation = volume\nresolutions = 16\n"
             "reference = 1.0\n", "'g'")]:
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2, name
        err = capsys.readouterr().err
        assert "config error" in err and key in err, err
    with pytest.raises(gal.GalleryError, match="reference"):
        gal.refine(gal.ExperimentConfig("v", "sphere2", "round_sphere", "volume",
                                        [8, 16, 32]), "volume")


def test_cli_rejects_threads_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--gallery", "flat-torus-systole", "--threads", "4"])
    assert exc.value.code == 2


def test_cli_figure_error_is_an_execution_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("no figure")

    monkeypatch.setattr(mio, "svg_heatmap", broken)
    assert cli.main(["run", "--gallery", "flat-torus-systole", "--out", str(tmp_path),
                     "--resolution", "16", "--figures"]) == 3


def test_seeded_operations_require_a_seed(tmp_path):
    for metric, op in (("conformal_bump", "volume"), ("flat", "besicovitch_sweep"),
                       ("hexagonal", "loewner_bumps")):
        with pytest.raises(gal.GalleryError, match="requires a seed"):
            gal.ExperimentConfig("x", "torus2", metric, op, [16])
    cfg = tmp_path / "bumps.ini"
    cfg.write_text(
        "[domain]\nkind = torus2\n\n[metric]\nbuilder = hexagonal\n\n"
        "[experiment]\nid = bumps\noperation = loewner_bumps\nresolutions = 16\n"
        "count = 1\n"
    )
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path),
                     "--seed", "3"]) in (0, 1)


def test_besicovitch_sweep_uses_the_config_seed():
    item = gal.ExperimentConfig("sweep", "square", "flat", "besicovitch_sweep", [16],
                                seed=5, operation_params={"count": 2})
    rows = gal.run_config(item)
    g = G.build_grid(G.square(), 16, 3)
    reps = [B.verify_besicovitch(F.random_spd_metric(g, s, (0.25, 4.0))) for s in (5, 6)]
    worst = [r for r in rows if r.quantity == "worst_slack_over_product"][0]
    assert worst.computed == min(r.slack / r.product for r in reps)


def test_run_emits_witness_and_certificate_artifacts(tmp_path):
    rc = cli.main(["run", "--gallery", "flat-torus-systole", "--resolution", "16",
                   "--out", str(tmp_path)])
    assert rc == 0
    wit = tmp_path / "flat-torus-systole-N16-witness.txt"
    assert wit.exists() and "class" in wit.read_text()

    cfg = tmp_path / "width.ini"
    cfg.write_text(
        "[domain]\nkind = square\n\n[metric]\nbuilder = flat\n\n"
        "[experiment]\nid = width-small\noperation = width_square\n"
        "resolutions = 33\nr_valid = 0.6\nr_invalid = 0.3\nbudget = 8\n"
    )
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    cert_path = tmp_path / "width-small-N33-certificate.txt"
    assert cert_path.exists()
    assert cli.main(["validate-certificate", str(cert_path)]) == 0


def test_cli_resolution_and_figures(tmp_path):
    rc = cli.main(["run", "--gallery", "flat-torus-systole", "--out", str(tmp_path),
                   "--resolution", "16", "--figures"])
    assert rc == 0
    svgs = list(tmp_path.glob("*.svg"))
    assert svgs
    assert svgs[0].read_text().startswith("<svg")


def test_cli_refine_order(tmp_path, capsys):
    rc = cli.main(["refine", "--gallery", "sphere-volume", "--quantity", "volume"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "resolution,computed,error,order"
    orders = [ln.split(",")[-1] for ln in out[2:]]
    assert any(o != "n/a" and 1.2 <= float(o) <= 3.0 for o in orders)


@pytest.mark.parametrize("flag", [["--out", "d"], ["--resolution", "24"], ["--figures"]])
def test_refine_rejects_the_flags_only_run_uses(flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["refine", "--gallery", "sphere-volume", "--quantity", "volume", *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["run"], ["refine", "--quantity", "worst_slack_over_product"]])
def test_seed_flag_overrides_a_gallery_items_seed(command):
    argv = [*command, "--gallery", "besicovitch-random-sweep"]
    parse = cli.build_parser().parse_args
    assert cli._load_config(parse(argv)).seed == 1
    assert cli._load_config(parse([*argv, "--seed", "7"])).seed == 7


def test_refine_handles_exact_sequences():
    item = gal.gallery_item("flat-torus-systole")
    table = gal.refine(item, "systole")
    # errors are zero at every resolution: orders stay n/a, no crash
    assert all(err <= 1e-12 for (_, _, err, _) in table)
    assert all(order != order for (_, _, _, order) in table)


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "metriclab.cli", "gallery"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "loewner-hexagonal" in proc.stdout


def test_besicovitch_report_text():
    g = G.build_grid(G.square(), 24, 3)
    from metriclab import besicovitch as B
    rep = B.verify_besicovitch(F.flat_metric(g))
    text = mio.besicovitch_text(rep)
    assert "[besicovitch]" in text and "[jac_histogram]" in text
    assert "passed = true" in text
    assert len([ln for ln in text.splitlines() if ln and ln[0].isdigit() or ln.startswith("0")]) >= 16
