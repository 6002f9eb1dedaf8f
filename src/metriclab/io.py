"""Plain-text serialization: fields, witnesses, profiles, certificates, reports.

Formats are deliberately simple and diffable:

* domain descriptors and certificates: flat key = value lines in [section] blocks,
* metric fields: one row per vertex (index, chart coordinates, upper-triangle
  tensor entries), 17 significant digits,
* witness loops and profiles: small tabular text files,
* experiment reports: comma-separated with a header row, LF endings,
* optional figures: self-contained SVG (heatmap cells plus polylines).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .covers import Cover
from .fields import MetricField
from .grid import Grid, GridError, build_grid, topology_from_name
from .width import WidthCertificate

FMT = "%.17g"


def fmt(x) -> str:
    return FMT % float(x)


# ---------------------------------------------------------------------------
# domain + field


def domain_text(grid: Grid) -> str:
    top = grid.topology
    return (f"[domain]\nkind = {top.kind}\nresolution = {grid.resolution}\n"
            f"stencil_order = {grid.stencil_order}\nmask = {top.mask_name}\n")


def _sections(lines) -> dict:
    """{section: {key: value}} from [name] headers and key = value lines.  A
    repeated header starts its section afresh; blank lines, # lines and lines
    before the first header are skipped; a line splits at its first =."""
    sections, current = {}, None
    for ln in lines:
        s = ln.strip()
        if s.startswith("[") and s.endswith("]"):
            current = sections[s[1:-1]] = {}
        elif current is not None and s and not s.startswith("#"):
            k, _, v = s.partition("=")
            current[k.strip()] = v.strip()
    return sections


def grid_from_descriptor(domain: dict) -> Grid:
    kind = domain["kind"]
    if domain.get("mask"):
        kind = f"{kind}:{domain['mask']}"
    return build_grid(topology_from_name(kind), int(domain["resolution"]),
                      int(domain.get("stencil_order", 3)))


def field_table(field: MetricField) -> str:
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


def write_field(field: MetricField, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(domain_text(field.grid))
        fh.write("[tensors]\n")
        fh.write(field_table(field))


def read_field(path) -> MetricField:
    """The field of a write_field file.  GridError if the [domain] or
    [tensors] header is missing, or unless the rows hold each vertex of the
    grid once, at its chart coordinates (%.17g reads back exactly)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    try:
        split = lines.index("[tensors]")
    except ValueError:
        raise GridError("field file is missing the [tensors] section")
    domain = _sections(lines[:split]).get("domain")
    if domain is None:
        raise GridError("field file is missing the [domain] section")
    grid = grid_from_descriptor(domain)
    n = grid.n
    ncols = 1 + n + n * (n + 1) // 2
    rows = np.empty((grid.num_vertices, ncols - 1))
    seen = np.zeros(grid.num_vertices, dtype=bool)
    for ln in lines[split + 1:]:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != ncols:
            raise GridError(f"field file row {ln!r} has {len(parts)} columns, "
                            f"expected {ncols}")
        v = int(parts[0])
        if not 0 <= v < grid.num_vertices or seen[v]:
            raise GridError(f"field file row index {v} is outside 0..{grid.num_vertices - 1} "
                            "or repeated")
        seen[v] = True
        rows[v] = [float(x) for x in parts[1:]]
    if not seen.all():
        raise GridError(f"field file has {seen.sum()} rows, expected {grid.num_vertices}")
    moved = np.flatnonzero((rows[:, :n] != grid.coords).any(axis=1))
    if len(moved):
        v = moved[0]
        raise GridError(f"field file row {v} is at {rows[v, :n].tolist()}, "
                        f"not at vertex {v}'s coordinates {grid.coords[v].tolist()}")
    tensors = np.empty((grid.num_vertices, n, n))
    i, j = np.triu_indices(n)
    tensors[:, i, j] = tensors[:, j, i] = rows[:, n:]
    return MetricField(grid, tensors)


# ---------------------------------------------------------------------------
# witnesses and profiles


def witness_text(witness, grid: Grid) -> str:
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


def profile_text(xs, ys) -> str:
    out = ["# t a"]
    for x, y in zip(xs, ys):
        out.append(f"{fmt(x)} {fmt(y)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# besicovitch report


def besicovitch_text(report) -> str:
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


# ---------------------------------------------------------------------------
# vertex runs + certificates


def encode_runs(indices) -> str:
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


def decode_runs(text: str) -> np.ndarray:
    out = []
    text = text.strip()
    if not text:
        return np.empty(0, dtype=np.int64)
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return np.asarray(out, dtype=np.int64)


def certificate_text(cert, grid: Grid, field_path: str = "") -> str:
    lines = [domain_text(grid).rstrip("\n"), ""]
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
        lines.append(f"vertices = {encode_runs(s)}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str):
    """Returns (domain, field_path, WidthCertificate): domain is the [domain]
    section as a dict, and the field hash is the certificate's field_hash."""
    sections = _sections(text.splitlines())
    cert_kv, field_kv = sections.get("certificate", {}), sections.get("field", {})
    nsets = int(cert_kv.get("num_sets", 0))
    sets, centers, radii = [], [], []
    for i in range(nsets):
        kv = sections[f"set {i}"]
        sets.append(decode_runs(kv["vertices"]))
        centers.append(int(kv["center"]))
        radii.append(float(kv["radius"]))
    cert = WidthCertificate(
        n_width=int(cert_kv["n_width"]), R=float(cert_kv["R"]),
        cover=Cover(sets, centers, radii),
        valid=cert_kv.get("valid", "false") == "true",
        reasons=[r for r in cert_kv.get("reasons", "").split("; ") if r],
        multiplicity=int(cert_kv["multiplicity"]),
        field_hash=field_kv.get("hash", ""),
        r0=float(cert_kv.get("r0", "nan")), r1=float(cert_kv.get("r1", "nan")),
    )
    return sections.get("domain", {}), field_kv.get("path", ""), cert


# ---------------------------------------------------------------------------
# experiment reports


@dataclass
class ReportRow:
    experiment: str
    resolution: int
    quantity: str
    computed: float
    reference: float
    provenance: str
    rel_error: float
    verdict: str  # PASS | FAIL | INFO


REPORT_HEADER = "experiment,resolution,quantity,computed,reference,provenance,rel_error,verdict"


def report_csv(rows) -> str:
    out = [REPORT_HEADER]
    for r in rows:
        out.append(",".join([
            r.experiment, str(r.resolution), r.quantity, fmt(r.computed),
            fmt(r.reference), r.provenance, fmt(r.rel_error), r.verdict,
        ]))
    return "\n".join(out) + "\n"


def make_row(experiment, resolution, quantity, computed, reference, provenance,
             tolerance, mode="abs") -> ReportRow:
    scale = abs(reference) if reference != 0 else 1.0
    rel = (computed - reference) / scale
    if mode == "abs":
        ok = abs(rel) <= tolerance
    elif mode == "ge":
        ok = rel >= -tolerance
    elif mode == "le":
        ok = rel <= tolerance
    elif mode == "info":
        ok = None
    else:
        raise ValueError(f"unknown verdict mode {mode!r}")
    verdict = "INFO" if ok is None else ("PASS" if ok else "FAIL")
    return ReportRow(experiment, resolution, quantity, computed, reference,
                     provenance, rel, verdict)


# ---------------------------------------------------------------------------
# config files (flat INI, one nesting level)


def parse_config(path):
    """{section: {key: value}} of a config file.  Keys keep their case (force_R
    is not force_r); ValueError for a file configparser cannot read, such as
    one without a header, with a repeated section or with a line without =."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    try:
        if not cp.read(path):
            raise FileNotFoundError(path)
        return {sec: dict(cp.items(sec)) for sec in cp.sections()}
    except configparser.Error as exc:
        raise ValueError(f"malformed config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# figures (plain SVG)


def _color(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    r = int(255 * min(1.0, 0.2 + 1.2 * v))
    g = int(255 * min(1.0, 1.4 * v * (1.0 - 0.4 * v)))
    b = int(255 * max(0.0, 0.9 - 1.1 * v))
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_heatmap(grid: Grid, values, curves=()) -> str:
    """Vertex-value heatmap with optional polyline overlays (chart space)."""
    size = 480  # pixels, both ways
    vals = np.asarray(values, dtype=float)
    finite = np.isfinite(vals)
    lo, hi = vals[finite].min(), vals[finite].max()
    span = hi - lo if hi > lo else 1.0
    h = min(grid.spacing)
    px = size * h
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    for v in range(grid.num_vertices):
        if not finite[v]:
            continue
        x, y = grid.coords[v][0], grid.coords[v][-1] if grid.n > 1 else 0.5
        c = _color((vals[v] - lo) / span)
        parts.append(f'<rect x="{size * x - px / 2:.1f}" y="{size * (1 - y) - px / 2:.1f}" '
                     f'width="{px:.1f}" height="{px:.1f}" fill="{c}"/>')
    for pts, color in curves:
        chain = " ".join(f"{size * p[0]:.1f},{size * (1 - p[-1]):.1f}" for p in pts)
        parts.append(f'<polyline points="{chain}" fill="none" stroke="{color}" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts)
