"""Plain-text serialization: fields, witnesses, profiles, certificates, reports.

Formats are deliberately simple and diffable:

* configs, domain descriptors and certificates: flat key = value lines in
  [section] blocks, all read by one strict reader (_sections),
* metric fields: one row per vertex (index, chart coordinates, upper-triangle
  tensor entries), 17 significant digits,
* witness loops and profiles: small tabular text files,
* experiment reports: comma-separated with a header row, LF endings,
* optional figures: self-contained SVG (heatmap cells plus polylines).
"""

from __future__ import annotations

import configparser
import warnings
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


def _section(name: str, items: dict) -> str:
    """A [name] block of key = value lines, each ending in a newline."""
    return "".join([f"[{name}]\n"] + [f"{k} = {v}\n" for k, v in items.items()])


def domain_text(grid: Grid) -> str:
    top = grid.topology
    return _section("domain", {"kind": top.kind, "resolution": grid.resolution,
                               "stencil_order": grid.stencil_order, "mask": top.mask_name})


def _sections(text: str, source) -> dict:
    """{section: {key: value}} of [name] blocks of key = value lines; the one
    reader of configs, certificates and field headers.  Keys keep their case
    (force_R is not force_r) and a % is a plain character.  ValueError, naming
    the source and line, for a line before the first header, a repeated
    section or key, or a line without = or :."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text, str(source))
    except configparser.Error as exc:
        raise ValueError(" ".join(str(exc).split())) from exc
    return {sec: dict(cp.items(sec)) for sec in cp.sections()}


def grid_from_descriptor(domain: dict) -> Grid:
    kind = domain["kind"]
    if domain.get("mask"):
        kind = f"{kind}:{domain['mask']}"
    return build_grid(topology_from_name(kind), int(domain["resolution"]),
                      int(domain.get("stencil_order", 3)))


def field_table(field: MetricField) -> str:
    g = field.grid
    i, j = np.triu_indices(g.n)
    cols = ["index"] + [f"x{k}" for k in range(g.n)] + [f"g{a}{b}" for a, b in zip(i, j)]
    row = "%d " + " ".join([FMT] * (g.n + len(i)))
    table = np.column_stack([g.coords, field.tensors[:, i, j]])
    return "\n".join(["# " + " ".join(cols)]
                     + [row % (v, *r.tolist()) for v, r in enumerate(table)]) + "\n"


def write_field(field: MetricField, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(domain_text(field.grid))
        fh.write("[tensors]\n")
        fh.write(field_table(field))


def read_field(path) -> MetricField:
    """The field of a write_field file.  GridError if its [domain] block is
    missing or malformed, if its [tensors] line is missing, or unless the
    table below that line holds each vertex of the grid once, at its chart
    coordinates (%.17g reads back exactly)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    try:
        split = lines.index("[tensors]")
    except ValueError:
        raise GridError("field file is missing the [tensors] section")
    try:
        domain = _sections("\n".join(lines[:split]), path)["domain"]
    except (KeyError, ValueError) as exc:
        raise GridError(f"field file has no readable [domain] section: {exc}") from exc
    grid = grid_from_descriptor(domain)
    n, V = grid.n, grid.num_vertices
    i, j = np.triu_indices(n)
    with warnings.catch_warnings():  # a table of no rows is refused below
        warnings.simplefilter("ignore", UserWarning)
        try:
            table = np.loadtxt(lines[split + 1:], ndmin=2)
        except ValueError as exc:
            raise GridError(f"field file rows: {exc}") from exc
    table = table[np.argsort(table[:, 0])]
    if not np.array_equal(table[:, 0], np.arange(V)):
        raise GridError(f"field file has {len(table)} rows, not one indexed by each of 0..{V - 1}")
    if table.shape[1] != 1 + n + len(i):
        raise GridError(f"field file rows have {table.shape[1]} columns, expected {1 + n + len(i)}")
    coords = table[:, 1:n + 1]
    moved = np.flatnonzero((coords != grid.coords).any(axis=1))
    if len(moved):
        v = moved[0]
        raise GridError(f"field file row {v} is at {coords[v].tolist()}, "
                        f"not at vertex {v}'s coordinates {grid.coords[v].tolist()}")
    tensors = np.empty((V, n, n))
    tensors[:, i, j] = tensors[:, j, i] = table[:, n + 1:]
    return MetricField(grid, tensors)


# ---------------------------------------------------------------------------
# witnesses and profiles


def witness_text(witness, grid: Grid) -> str:
    n = grid.n
    points = np.asarray(witness.points, dtype=float)
    wraps = np.where(grid.topology.periodic, np.floor(points), 0).astype(np.int64)
    head = " ".join([f"x{k}" for k in range(n)] + [f"wrap{k}" for k in range(n)])
    row = " ".join([FMT] * n + ["%d"] * n)
    return "\n".join([f"# class = {witness.cls}", f"# length = {fmt(witness.length)}", "# " + head]
                     + [row % (*p, *w) for p, w in zip(points - wraps, wraps)]) + "\n"


def profile_text(xs, ys) -> str:
    return "\n".join(["# t a"] + [f"{fmt(x)} {fmt(y)}" for x, y in zip(xs, ys)]) + "\n"


# ---------------------------------------------------------------------------
# besicovitch report


def besicovitch_text(report) -> str:
    items = {f"d{i}": fmt(di) for i, di in enumerate(report.d)}
    for key in ("vol", "product", "slack", "jac_max", "row_norm_max", "flatness"):
        items[key] = fmt(getattr(report, key))
    for key in ("jac_ok", "degree_ok", "degree_checked", "face_containment_ok", "passed"):
        items[key] = str(getattr(report, key)).lower()
    items["rel_tol"] = fmt(report.rel_tol)
    edges, counts = report.jac_histogram()
    bins = [f"{fmt(a)} {fmt(b)} {c}" for a, b, c in zip(edges, edges[1:], counts)]
    return "\n".join([_section("besicovitch", items), "[jac_histogram]",
                      "# bin_lo bin_hi count", *bins]) + "\n"


# ---------------------------------------------------------------------------
# vertex runs + certificates


def encode_runs(indices) -> str:
    idx = np.sort(np.asarray(indices, dtype=np.int64))
    if len(idx) == 0:
        return ""
    starts = np.r_[0, np.flatnonzero(np.diff(idx) != 1) + 1]
    runs = zip(idx[starts].tolist(), idx[np.r_[starts[1:], len(idx)] - 1].tolist())
    return ",".join(f"{a}-{b}" if b > a else str(a) for a, b in runs)


def decode_runs(text: str) -> np.ndarray:
    text = text.strip()
    if not text:
        return np.empty(0, dtype=np.int64)
    runs = [(int(a), int(b if sep else a))
            for a, sep, b in (part.partition("-") for part in text.split(","))]
    if any(b < a for a, b in runs):
        raise ValueError(f"descending run in {text!r}")
    return np.concatenate([np.arange(a, b + 1, dtype=np.int64) for a, b in runs])


def certificate_text(cert, grid: Grid, field_path: str = "") -> str:
    cover = cert.cover
    return "\n".join([
        domain_text(grid),
        _section("field", {"path": field_path, "hash": cert.field_hash}),
        _section("certificate", {
            "n_width": cert.n_width, "R": fmt(cert.R), "r0": fmt(cert.r0), "r1": fmt(cert.r1),
            "multiplicity": cert.multiplicity, "valid": str(cert.valid).lower(),
            "reasons": "; ".join(cert.reasons), "num_sets": len(cover.sets)}),
        *(_section(f"set {i}", {"center": int(c), "radius": fmt(r), "vertices": encode_runs(s)})
          for i, (s, c, r) in enumerate(zip(cover.sets, cover.centers, cover.radii)))])


def parse_certificate(text: str):
    """Returns (domain, field_path, WidthCertificate): domain is the [domain]
    section as a dict, and the field hash is the certificate's field_hash."""
    sections = _sections(text, "certificate")
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
    """{section: {key: value}} of a config file, read by _sections; OSError
    for a file that cannot be opened."""
    with open(path) as fh:
        return _sections(fh.read(), path)


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
