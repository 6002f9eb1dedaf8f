"""Canonical experiments, the experiment runner, and refinement studies.

Every acceptance-style computation is packaged as a named gallery item: a
domain descriptor, a metric builder, an operation, resolutions, and reference
values with provenance tags.  An operation measures one field and returns its
rows, each (quantity, computed, reference, provenance, tolerance[, mode]),
plus the figures to write.  The runner executes an item at each resolution,
turns the rows into ReportRows (PASS/FAIL/INFO), writes artifacts and optional
SVG figures, and is fully deterministic for a fixed config and seed.
"""

from __future__ import annotations

import inspect
import math
import numbers
import os
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import besicovitch as B
from . import fields as F
from . import geodesy as geo
from . import io as mio
from . import measure as M
from . import width as W
from .grid import build_grid, face_vertices, topology_from_name

LOEWNER = math.sqrt(2.0) / 3.0 ** 0.25          # optimal torus systolic ratio
PU = math.sqrt(math.pi / 2.0)                    # optimal rp2 systolic ratio
HEX_GRAM = ((1.0, 0.5), (0.5, 1.0))
SPD_EIGS = (0.25, 4.0)                           # eigenvalue range of random SPD fields
DISK = ((0.5, 0.5), 0.3)                         # centre and radius of the piecewise disk

TRIPOD_MASK = "tripod:0.46:0.024"
TRIPOD_SCALE2 = 5.76  # conformal factor c^2; c = 2.4 sized to push distances past 1

# every tolerance an operation reads, with its default; a config overrides them by name
_TOLERANCES = {"volume": 0.01, "systole": 0.02, "systolic_ratio": 0.02, "slack": 0.01,
               "face_distance": 0.01, "cylinder": 0.01, "coarea": 0.01,
               "coarea_defect": 0.02, "loewner": 0.02}
_SEEDED = {"random_spd", "conformal_bump", "besicovitch_sweep", "loewner_bumps"}


class GalleryError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Its metric and operation keys are the builder's and the operation's keyword
    parameters; any other key, or a tolerance the operation does not read, is refused."""
    experiment_id: str
    domain: str
    metric: str
    operation: str
    resolutions: list
    stencil_order: int = 3
    metric_params: dict = dataclass_field(default_factory=dict)
    operation_params: dict = dataclass_field(default_factory=dict)
    seed: int = None
    tolerance_overrides: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        res = list(self.resolutions)
        if any(b <= a for a, b in zip(res, res[1:])):
            raise GalleryError("resolutions must be strictly increasing")
        topology_from_name(self.domain)  # GridError, a config error, for a bad domain
        op, tolerances = _OPERATIONS.get(self.operation, (None, ()))
        for kind, name, fn, params in (
                ("metric builder", self.metric, _METRICS.get(self.metric), self.metric_params),
                ("operation", self.operation, op, self.operation_params)):
            if fn is None:
                raise GalleryError(f"unknown {kind} {name!r}")
            _bind(kind, name, inspect.signature(fn).bind_partial, params)
            if name in _SEEDED and self.seed is None:
                raise GalleryError(f"{kind} {name!r} requires a seed")
        unread = ", ".join(sorted(set(self.tolerance_overrides) - set(tolerances)))
        if unread:
            raise GalleryError(f"operation {self.operation!r} reads no tolerance {unread}")
        for name, value in self.tolerance_overrides.items():
            if not (isinstance(value, numbers.Real) and 0 <= value < math.inf):
                raise GalleryError(f"tolerance {name} = {value!r}: must be a finite number >= 0")

    def tol(self, name: str) -> float:
        return float(self.tolerance_overrides.get(name, _TOLERANCES[name]))


def _bind(kind, name, bind, params):
    """A signature's bind or bind_partial of (None, None, **params), or GalleryError."""
    try:
        bind(None, None, **params)
    except TypeError as exc:
        raise GalleryError(f"{kind} {name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# metric builders; each is (grid, seed, **its keys)


def _bump_metric(grid, seed, base="flat", amplitude=0.25):
    """Conformal bump of the flat or hexagonal torus: a seeded sum of three
    cosine products, scaled to the amplitude and centred."""
    u = F._cosine_mixture(grid, np.random.default_rng(int(seed)), 3, 1.0)
    u = float(amplitude) * u / max(np.abs(u).max(), 1e-12)
    flat = F.constant_metric(grid, HEX_GRAM) if base == "hexagonal" else F.flat_metric(grid)
    return F.conformal_rescale(flat, u - u.mean())


def _disk(grid, center, radius):
    """(distance of each vertex from the centre, radius), or GalleryError
    unless the centre is a finite chart point and the radius finite and > 0."""
    center, radius = np.asarray(center, dtype=float), float(radius)
    if center.shape != (grid.n,) or not np.isfinite(center).all() or not 0 < radius < np.inf:
        raise GalleryError(f"a disk needs a finite centre of {grid.n} coordinates and a finite "
                           f"radius > 0, got {center.tolist()} and {radius!r}")
    return np.linalg.norm(grid.coords - center, axis=1), radius


def _piecewise_disk(grid, seed, center=DISK[0], radius=DISK[1],
                    g_inside=((4.0, 0.0), (0.0, 4.0))):
    r, radius = _disk(grid, center, radius)
    inside = r < radius
    return F.piecewise_metric(grid, inside, F.constant_metric(grid, np.asarray(g_inside)),
                              F.flat_metric(grid))


# the F.* functions are looked up at call time, so a wrapper set on them applies
_METRICS = {
    "flat": lambda grid, seed: F.flat_metric(grid),
    "constant": lambda grid, seed, g: F.constant_metric(
        grid, np.asarray(g, dtype=float).reshape(grid.n, grid.n)),
    "hexagonal": lambda grid, seed: F.constant_metric(grid, np.asarray(HEX_GRAM)),
    "round_sphere": lambda grid, seed, radius=1.0: F.round_sphere_metric(grid, float(radius)),
    "random_spd": lambda grid, seed, eig_lo=SPD_EIGS[0], eig_hi=SPD_EIGS[1]:
        F.random_spd_metric(grid, int(seed), (float(eig_lo), float(eig_hi))),
    "conformal_bump": _bump_metric,
    "scaled_flat": lambda grid, seed, factor=1.0: F.flat_metric(grid).scaled(float(factor)),
    "piecewise_disk": _piecewise_disk,
}


def build_metric(config: ExperimentConfig, grid) -> F.MetricField:
    return _METRICS[config.metric](grid, config.seed, **config.metric_params)


# ---------------------------------------------------------------------------
# operations; each is (config, field, **its keys) and returns (rows, figures)


def _op_volume(config, field, reference, provenance="derived"):
    return [("volume", M.volume(field), float(reference), provenance, config.tol("volume"))], {}


def _op_systolic_ratio(config, field, reference, sys_reference=None, provenance="paper"):
    w = geo.systole(field)
    ratio = w.length / math.sqrt(M.volume(field))
    rows = [
        ("systole", w.length, float(w.length if sys_reference is None else sys_reference),
         "derived", config.tol("systole")),
        ("systolic_ratio", ratio, float(reference), provenance, config.tol("systolic_ratio")),
    ]
    return rows, {"loops": [(w.points, "#ffffff")], "witness": w}


def _op_besicovitch(config, field, d_reference=None, vol_reference=None):
    rel_tol = config.tol("slack")
    rep = B.verify_besicovitch(field, rel_tol=rel_tol)
    d_reference = rep.d if d_reference is None else np.atleast_1d(d_reference)
    if len(d_reference) != len(rep.d):
        raise GalleryError(f"d_reference has {len(d_reference)} entries; "
                           f"the domain has {len(rep.d)} face distances")
    rows = [
        ("slack_over_product", rep.slack / max(rep.product, 1e-300), 0.0, "derived",
         rel_tol, "ge"),
        ("degree", 1.0 if rep.degree_ok else 0.0, 1.0, "derived", 0.0),
        ("verdict_pass", 1.0 if rep.passed else 0.0, 1.0, "derived", 0.0),
        ("jac_max", rep.jac_max, 1.0, "derived", 0.0, "info"),
    ]
    for i, (dref, di) in enumerate(zip(d_reference, rep.d)):
        rows.append((f"d{i}", di, float(dref), "derived", config.tol("face_distance")))
    if vol_reference is not None:
        rows.append(("vol", rep.vol, float(vol_reference), "derived", config.tol("volume")))
    return rows, {"report": mio.besicovitch_text(rep)}


def _op_besicovitch_sweep(config, field, count=20, eig_lo=SPD_EIGS[0], eig_hi=SPD_EIGS[1]):
    count = int(count)
    rel_tol = config.tol("slack")
    worst = math.inf
    npass = 0
    for seed in range(int(config.seed), int(config.seed) + count):
        f = F.random_spd_metric(field.grid, seed, (float(eig_lo), float(eig_hi)))
        rep = B.verify_besicovitch(f, rel_tol=rel_tol)
        worst = min(worst, rep.slack / rep.product)
        npass += rep.passed
    rows = [
        ("sweep_all_pass", float(npass), float(count), "derived", 0.0),
        ("worst_slack_over_product", worst, 0.0, "derived", rel_tol, "ge"),
    ]
    return rows, {}


def _op_hexagon_faces(config, field):
    rows = []
    for k in range(3):
        d = geo.face_distance(field, f"S{k}", f"S{k + 3}")
        rows.append((f"pair_distance_S{k}_S{k + 3}", d, 1.0, "derived", 0.0, "ge"))
    area = M.volume(field)
    rows.append(("area", area, 0.2, "derived", 0.0, "le"))
    return rows, {}


def _op_cylinder(config, field, area_reference=1.0):
    rep = B.cylinder_check(field, tol=config.tol("cylinder"))
    rows = [
        ("hypothesis_ok", float(rep.hypothesis_ok), 1.0, "derived", 0.0),
        ("area", rep.area, float(area_reference), "paper", config.tol("volume")),
        ("coarea_total", rep.coarea_total, 1.0, "paper", config.tol("coarea"), "ge"),
        ("min_interior_level", rep.min_interior_level, 1.0, "paper", config.tol("coarea"), "ge"),
    ]
    return rows, {}


def _op_coarea(config, field, face="A", t_count=256):
    f = geo.distance_field(field, face_vertices(field.grid, face))
    prof = M.coarea_profile(field, f, int(t_count))
    rows = [
        ("coarea_total", prof.total, prof.volume, "derived", config.tol("coarea")),
        ("coarea_defect_nonneg", prof.defect, 0.0, "derived", config.tol("coarea_defect"), "ge"),
    ]
    return rows, {"profile": mio.profile_text(prof.t_grid, prof.a)}


def _op_pu(config, field):
    w = geo.systole(field)
    vol = M.volume(field)
    ratio = w.length / math.sqrt(vol)
    rows = [
        ("systole", w.length, math.pi, "derived", 0.02),
        ("volume", vol, 2 * math.pi, "derived", 0.01),
        ("systolic_ratio", ratio, PU, "paper", 0.02),
    ]
    return rows, {}


def _op_involution(config, field):
    sep, _ = geo.min_antipodal_distance(field)
    area = M.volume(field)
    rows = [
        ("min_antipodal_distance", sep, 1.0, "derived", 0.02),
        ("area_lower_half", area, 0.5, "paper", 0.0, "ge"),
        ("area_vs_conjectured_4_over_pi", area, 4 / math.pi, "paper", 0.02, "info"),
    ]
    return rows, {}


def _op_gadograph(config, field, center=DISK[0], radius=DISK[1]):
    coords = field.grid.coords
    r, radius = _disk(field.grid, center, radius)
    inside = r < radius
    boundary = np.where(inside & (r > radius - 2.5 * max(field.grid.spacing)))[0]
    if len(boundary) == 0:  # no probe: boundary_hypothesis would hold vacuously
        raise GalleryError(f"the boundary band of the disk of radius {radius!r} holds no vertex")
    vol_g = M.region_volume(field, inside)
    vol_e = M.region_volume(F.flat_metric(field.grid), inside)
    probes = boundary[:: max(1, len(boundary) // 8)][:8]
    hyp_ok = True
    for q in probes:
        d = geo.distance_field(field, [int(q)])
        eu = np.linalg.norm(coords[boundary] - coords[q], axis=1)
        hyp_ok &= bool((d[boundary] >= eu - 1e-9).all())
    rows = [
        ("boundary_hypothesis", float(hyp_ok), 1.0, "derived", 0.0),
        ("region_volume_vs_euclidean", vol_g, vol_e, "paper", 0.0, "ge"),
    ]
    return rows, {}


def _op_loewner_bumps(config, field, count=20):
    bound = 2.0 / math.sqrt(3.0)
    tol = config.tol("loewner")
    worst = 0.0
    for k in range(int(count)):
        f = _bump_metric(field.grid, int(config.seed) + k, "hexagonal" if k % 2 else "flat")
        w = geo.systole(f)
        ratio = w.length ** 2 / M.volume(f)
        worst = max(worst, ratio)
    hexratio = geo.systole(field).length ** 2 / M.volume(field)
    rows = [
        ("max_sys2_over_vol", worst, bound, "paper", tol, "le"),
        ("hexagonal_equality_case", hexratio, bound, "paper", tol),
    ]
    return rows, {}


def _op_width_square(config, field, r_valid=0.55, r_invalid=0.2, budget=24):
    R_ok, R_bad = float(r_valid), float(r_invalid)
    cert = W.width_upper_bound(field, R_ok)
    ok, _ = W.validate_certificate(field, cert)
    bad = W.width_upper_bound(field, R_bad, budget=int(budget))
    rows = [
        (f"certificate_valid_at_{R_ok}", float(cert.valid and ok), 1.0, "derived", 0.0),
        ("certificate_multiplicity", float(cert.multiplicity), 2.0, "derived", 0.0, "le"),
        (f"honest_failure_at_{R_bad}", float(not bad.valid), 1.0, "derived", 0.0),
    ]
    figures = {"certificate": cert}
    if cert.curves:
        figures["curves"] = [(c.points, "#000000") for c in cert.curves]
    return rows, figures


def _op_width_volume(config, field, force_R=None):
    rep = W.check_width_volume(field)
    rows = [
        ("width_volume_certificate",
         float(rep.certificate.valid or rep.slack_certificate.valid), 1.0, "paper", 0.0),
        ("R_star", rep.R_star, 2 * math.sqrt(rep.vol), "paper", 1e-12),
    ]
    if force_R is not None:
        cut = W.separating_cut(field, float(force_R))
        volpro = M.volume_profile(field, [cut.r1], center_sample=64)
        # each ball_bound is vol(B(center, r1)) / (r1 - r0): the max commutes with the division
        bound = max([volpro.volpro[0] / (cut.r1 - cut.r0)] + [c.ball_bound for c in cut.curves])
        worst = max((c.length for c in cut.curves), default=0.0)
        rows += [("forced_cut_valid", float(cut.valid), 1.0, "derived", 0.0),
                 ("max_cut_length_vs_pigeonhole", worst, bound, "paper", 0.05, "le")]
    return rows, {}


def _op_sys_width(config, field):
    certs = []
    if field.grid.topology.kind == "torus2":
        certs.append(W.check_width_volume(field).certificate)
    rep = W.check_sys_width(field, certs)
    rows = [("sys_le_4n_volroot", rep.sys, rep.bound_4n, "paper", 0.0, "le")]
    for (Rc, _, _) in rep.cert_rows:
        rows += [("sys_le_6R_cert", rep.sys, 6.0 * Rc, "paper", 0.0, "le"),
                 ("sys_vs_4R_cert", rep.sys, 4.0 * Rc, "paper", 0.0, "info")]
    return rows, {}


# each operation with the names of the tolerances it reads
_OPERATIONS = {
    "volume": (_op_volume, ("volume",)),
    "systolic_ratio": (_op_systolic_ratio, ("systole", "systolic_ratio")),
    "besicovitch": (_op_besicovitch, ("slack", "face_distance", "volume")),
    "besicovitch_sweep": (_op_besicovitch_sweep, ("slack",)),
    "hexagon_faces": (_op_hexagon_faces, ()),
    "cylinder": (_op_cylinder, ("cylinder", "volume", "coarea")),
    "coarea": (_op_coarea, ("coarea", "coarea_defect")),
    "pu": (_op_pu, ()),
    "involution": (_op_involution, ()),
    "gadograph": (_op_gadograph, ()),
    "loewner_bumps": (_op_loewner_bumps, ("loewner",)),
    "width_square": (_op_width_square, ()),
    "width_volume": (_op_width_volume, ()),
    "sys_width": (_op_sys_width, ()),
}


# ---------------------------------------------------------------------------
# runner


def run_config(config: ExperimentConfig, out_dir=None, resolution=None, figures=False):
    """Execute an experiment at each resolution; returns all ReportRows.

    Deterministic for fixed config (its seed included).  A missing required
    builder or operation key raises GalleryError before any grid is built.
    """
    operation = _OPERATIONS[config.operation][0]
    _bind("metric builder", config.metric, inspect.signature(_METRICS[config.metric]).bind,
          config.metric_params)
    _bind("operation", config.operation, inspect.signature(operation).bind,
          config.operation_params)
    resolutions = config.resolutions if resolution is None else [int(resolution)]
    top = topology_from_name(config.domain)
    all_rows = []
    for N in resolutions:
        grid = build_grid(top, N, config.stencil_order)
        field = build_metric(config, grid)
        rows, figs = operation(config, field, **config.operation_params)
        all_rows += [mio.make_row(config.experiment_id, N, *row) for row in rows]
        if out_dir is not None:
            _write_artifacts(config, field, N, figs, out_dir, figures)
    if out_dir is not None:
        _write_text(os.path.join(str(out_dir), f"{config.experiment_id}.csv"),
                    mio.report_csv(all_rows))
    return all_rows


def _write_text(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_artifacts(config, field, N, figs, out_dir, figures):
    base = os.path.join(str(out_dir), f"{config.experiment_id}-N{N}")
    if "report" in figs:
        _write_text(base + "-besicovitch.txt", figs["report"])
    if "profile" in figs:
        _write_text(base + "-profile.txt", figs["profile"])
    if "witness" in figs:
        _write_text(base + "-witness.txt", mio.witness_text(figs["witness"], field.grid))
    if "certificate" in figs:
        mio.write_field(field, base + "-field.txt")
        _write_text(base + "-certificate.txt", mio.certificate_text(
            figs["certificate"], field.grid, os.path.basename(base + "-field.txt")))
    if figures and field.grid.n == 2 and field.grid.topology.kind != "rp2":
        vals = geo.distance_field(field, [0], quotient=False)
        overlays = figs.get("curves", []) + figs.get("loops", [])
        _write_text(base + ".svg", mio.svg_heatmap(field.grid, vals, curves=overlays))


def refine(config: ExperimentConfig, quantity: str):
    """Richardson-style empirical convergence order against the reference value.

    Returns rows of (resolution, computed, error, order); order is nan where
    the error sequence is non-monotone or vanishes.
    """
    if len(config.resolutions) < 3:
        raise GalleryError("refinement needs at least 3 resolutions")
    rows = run_config(config)
    table = []
    for N in config.resolutions:
        match = [r for r in rows if r.resolution == N and r.quantity == quantity]
        if not match:
            raise GalleryError(f"quantity {quantity!r} not produced at N = {N}")
        r = match[0]
        err = abs(r.computed - r.reference)
        table.append([N, r.computed, err, float("nan")])
    for k in range(1, len(table)):
        e0, e1 = table[k - 1][2], table[k][2]
        if e0 > e1 > 0:
            table[k][3] = math.log(e0 / e1) / math.log(table[k][0] / table[k - 1][0])
    return table


# ---------------------------------------------------------------------------
# the canonical gallery


def gallery() -> list:
    """Deterministic list of named canonical experiments."""
    items = [
        ExperimentConfig("besicovitch-flat", "square", "flat", "besicovitch",
                         [32, 64], operation_params={"d_reference": (1.0, 1.0),
                                                     "vol_reference": 1.0}),
        ExperimentConfig("besicovitch-anisotropic", "square", "constant", "besicovitch",
                         [48], metric_params={"g": ((4.0, 0.0), (0.0, 1.0))},
                         operation_params={"d_reference": (2.0, 1.0), "vol_reference": 2.0}),
        ExperimentConfig("besicovitch-random-sweep", "square", "flat", "besicovitch_sweep",
                         [64], seed=1),
        ExperimentConfig("hexagon-thin", f"hexagon:{TRIPOD_MASK}", "scaled_flat",
                         "hexagon_faces", [192],
                         metric_params={"factor": TRIPOD_SCALE2}),
        ExperimentConfig("cylinder-coarea", "cylinder", "flat", "cylinder", [96]),
        ExperimentConfig("coarea-flat-square", "square", "flat", "coarea", [64]),
        ExperimentConfig("loewner-hexagonal", "torus2", "hexagonal", "systolic_ratio",
                         [32, 64, 128], operation_params={"reference": LOEWNER,
                                                          "sys_reference": 1.0}),
        ExperimentConfig("loewner-strictness", "torus2", "hexagonal", "loewner_bumps",
                         [48], seed=100),
        ExperimentConfig("pu-rp2", "rp2", "round_sphere", "pu", [64]),
        ExperimentConfig("involution-sphere", "sphere2", "round_sphere", "involution",
                         [48], metric_params={"radius": 1.0 / math.pi}),
        ExperimentConfig("gadograph-disk", "square", "piecewise_disk", "gadograph", [64]),
        ExperimentConfig("width-square", "square", "flat", "width_square", [65]),
        ExperimentConfig("width-volume-tori-flat", "torus2", "flat", "width_volume",
                         [48], operation_params={"force_R": 0.5}),
        ExperimentConfig("width-volume-tori-hexagonal", "torus2", "hexagonal",
                         "width_volume", [48], operation_params={"force_R": 0.5}),
        ExperimentConfig("sys-width-flat-torus", "torus2", "flat", "sys_width", [48]),
        ExperimentConfig("sys-width-rp2", "rp2", "round_sphere", "sys_width", [48]),
        ExperimentConfig("sphere-volume", "sphere2", "round_sphere", "volume", [24, 48, 96],
                         operation_params={"reference": 4 * math.pi}),
        ExperimentConfig("flat-torus-systole", "torus2", "flat", "systolic_ratio",
                         [16, 32, 64], operation_params={"reference": 1.0, "sys_reference": 1.0,
                                                         "provenance": "derived"}),
    ]
    return items


def gallery_item(name: str) -> ExperimentConfig:
    for item in gallery():
        if item.experiment_id == name:
            return item
    raise GalleryError(f"unknown gallery item {name!r}")


def config_from_sections(sections: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed INI sections."""
    dom = sections.get("domain", {})
    met = sections.get("metric", {})
    exp = sections.get("experiment", {})
    unknown = [f"section [{s}]" for s in sections if s not in ("domain", "metric", "experiment")]
    unknown += [f"[domain] key {k}" for k in dom if k not in ("kind", "mask", "stencil_order")]
    if unknown:
        raise GalleryError(f"unknown {', '.join(unknown)}")
    if "kind" not in dom or "operation" not in exp:
        raise GalleryError("config needs [domain] kind and [experiment] operation")
    metric_params = {k: _parse_value(v) for k, v in met.items() if k != "builder"}
    op_params = {k: _parse_value(v) for k, v in exp.items()
                 if k not in ("id", "operation", "resolutions", "seed", "tolerances")}
    parts = [p.split("=") for p in exp.get("tolerances", "").split(",") if p.strip()]
    if any(len(p) != 2 for p in parts):
        raise GalleryError(f"tolerances = {exp['tolerances']}: each entry must be name=value")
    return ExperimentConfig(
        experiment_id=exp.get("id", "experiment"),
        domain=dom["kind"] if not dom.get("mask") else f"{dom['kind']}:{dom['mask']}",
        metric=met.get("builder", "flat"),
        operation=exp["operation"],
        resolutions=[int(x) for x in str(exp.get("resolutions", "32")).split(",")],
        stencil_order=int(dom.get("stencil_order", 3)),
        metric_params=metric_params,
        operation_params=op_params,
        seed=int(exp["seed"]) if "seed" in exp else None,
        tolerance_overrides={k.strip(): float(v) for k, v in parts},
    )


def _parse_value(text):
    text = str(text).strip()
    if ";" in text or ("," in text):
        rows = [r for r in text.split(";") if r.strip()]
        vals = [[float(x) for x in r.split(",") if x.strip()] for r in rows]
        return vals if len(vals) > 1 else vals[0]
    try:
        return float(text)
    except ValueError:
        return text
