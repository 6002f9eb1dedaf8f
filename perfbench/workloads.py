"""The benchmark's workloads: inputs made from a seed, one pass, and its checks.

A workload is a list of operations. An operation is one gallery item run
through `gallery.run_config` (as `metriclab run` does it) or one direct call
of a public library function. A pass runs every operation once; set-up (the
imports and `make_inputs`) happens before the first pass and is not part of
it. Each pass builds its grids and metric fields afresh, so no cache of an
earlier pass is reused.

An operation fails if it raises, if one of its report rows has a FAIL
verdict, if an independent recheck of its output fails, or if its output
differs from the one pinned in expected.json: verdicts, flags and counts
exactly, floats within `REL_TOL` relative.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from metriclab import besicovitch, fields, gallery, geodesy, grid, io, measure, width

REL_TOL = 1e-12

SPD_COUNT = 20          # random SPD fields per field-sweep pass
SPD_N = 192
SPD_EIGS = (0.25, 4.0)  # the eigenvalue range of the gallery's random sweep
BUMP_N = 64
COAREA_N = 128
RADIUS_N = 48

WORKLOADS = ("loop-systole", "width-ladder", "field-sweep")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    record: Callable[[object], dict]         # output compared with the pinned one
    recheck: Callable[[object], list]        # independent checks; problems found
    seeded: bool = False                     # its input depends on the seed


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int) -> dict:
    """Everything the program receives, made from the seed alone."""
    if workload == "loop-systole":
        g = grid.build_grid(grid.torus2(), BUMP_N, 3)
        bumps = {}
        for s, base in ((seed, "flat"), (seed + 1, "hexagonal")):
            cfg = gallery.ExperimentConfig(
                f"bump-{base}", "torus2", "conformal_bump", "systolic_ratio", [BUMP_N],
                seed=s, metric_params={"base": base, "amplitude": 0.25})
            bumps[base] = gallery.build_metric(cfg, g).tensors
        return {"hexagonal": gallery.gallery_item("loewner-hexagonal"),
                "rp2": gallery.gallery_item("pu-rp2"), "bumps": bumps}
    if workload == "width-ladder":
        return {"width": gallery.gallery_item("width-square")}
    if workload == "field-sweep":
        g = grid.build_grid(grid.square(), SPD_N, 3)
        spd = [fields.random_spd_metric(g, SPD_COUNT * seed + k, SPD_EIGS).tensors
               for k in range(SPD_COUNT)]
        return {"spd": spd, "coarea": gallery.gallery_item("coarea-flat-square")}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations


def build_ops(workload: str, inputs: dict, out_dir: str) -> list:
    """The operations of one pass; artifacts go to out_dir."""
    if workload == "loop-systole":
        return _loop_ops(inputs, out_dir)
    if workload == "width-ladder":
        return _width_ops(inputs, out_dir)
    if workload == "field-sweep":
        return _field_ops(inputs, out_dir)
    raise ValueError(f"unknown workload {workload!r}")


def _rows_record(rows) -> dict:
    return {"rows": [[r.resolution, r.quantity, float(r.computed), r.verdict] for r in rows]}


def _failed_rows(rows) -> list:
    return [f"{r.experiment} N={r.resolution} {r.quantity} verdict FAIL"
            for r in rows if r.verdict == "FAIL"]


def _gallery_op(config, out_dir, recheck=None, resolution=None) -> Op:
    def check(rows):
        return _failed_rows(rows) + (recheck(rows) if recheck else [])

    return Op(config.experiment_id,
              lambda: gallery.run_config(config, out_dir=out_dir, resolution=resolution),
              _rows_record, check)


def _loop_check(witness, field) -> list:
    problems = []
    if not witness.check_length(field):
        problems.append("witness polyline length differs from the reported length")
    closing = witness.points[-1] - witness.points[0]
    if not np.allclose(closing, np.asarray(witness.cls, dtype=float), atol=1e-9):
        problems.append(f"witness does not close up in class {witness.cls}")
    floor = math.sqrt(field.lambda_min()) * math.hypot(*witness.cls)
    if not witness.length >= floor * (1 - 1e-9):
        problems.append("systole is below the lambda_min lower bound")
    return problems


def _read_witness(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cls = tuple(int(x) for x in lines[0].split("=", 1)[1].strip(" ()").split(","))
    length = float(lines[1].split("=", 1)[1])
    pts = np.array([[float(x) for x in ln.split()] for ln in lines[3:] if ln.strip()])
    n = pts.shape[1] // 2
    return cls, length, pts[:, :n] + pts[:, n:]


def _witness_files_check(config, out_dir):
    """Recheck the loop witness that run_config wrote for each resolution."""
    def check(rows):
        problems = []
        for N in config.resolutions:
            cls, length, pts = _read_witness(
                os.path.join(out_dir, f"{config.experiment_id}-N{N}-witness.txt"))
            field = gallery.build_metric(config, grid.build_grid(
                grid.topology_from_name(config.domain), N, config.stencil_order))
            witness = geodesy.LoopWitness(cls, 0, pts, length)
            problems += [f"N={N}: {p}" for p in _loop_check(witness, field)]
            sys_row = [r for r in rows if r.resolution == N and r.quantity == "systole"]
            if not sys_row or abs(sys_row[0].computed - length) > REL_TOL * length:
                problems.append(f"N={N}: witness file length differs from the report")
        return problems
    return check


def _loop_ops(inputs, out_dir):
    hexagonal = inputs["hexagonal"]
    ops = [_gallery_op(hexagonal, out_dir, _witness_files_check(hexagonal, out_dir)),
           _gallery_op(inputs["rp2"], out_dir)]
    shared = {}

    def bump_systole(base):
        if "grid" not in shared:
            shared["grid"] = grid.build_grid(grid.torus2(), BUMP_N, 3)
        field = fields.MetricField(shared["grid"], inputs["bumps"][base])
        return field, geodesy.systole(field)

    for base in ("flat", "hexagonal"):
        ops.append(Op(f"bump-{base}", lambda base=base: bump_systole(base),
                      lambda out: {"length": float(out[1].length)},
                      lambda out: _loop_check(out[1], out[0]), seeded=True))
    return ops


def _width_ops(inputs, out_dir):
    config = inputs["width"]
    cert_path = os.path.join(out_dir, f"{config.experiment_id}-N{config.resolutions[0]}"
                                      "-certificate.txt")
    state = {}

    def read_certificate():
        with open(cert_path) as fh:
            _, field_path, cert = io.parse_certificate(fh.read())
        state["field_path"] = os.path.join(out_dir, field_path)
        state["cert"] = cert
        return cert

    def read_field():
        state["field"] = io.read_field(state["field_path"])
        return state["field"]

    def files_written(rows):
        return [] if os.path.exists(cert_path) else ["no certificate file written"]

    def cert_check(cert):
        problems = [] if cert.valid else ["certificate read back is marked invalid"]
        return problems + [f"certificate reason: {r}" for r in cert.reasons]

    return [
        _gallery_op(config, out_dir, files_written),
        Op("read-certificate", read_certificate,
           lambda c: {"valid": bool(c.valid), "multiplicity": int(c.multiplicity),
                      "num_sets": len(c.cover.sets), "R": float(c.R)}, cert_check),
        Op("read-field", read_field,
           lambda f: {"vertices": int(f.grid.num_vertices)},
           lambda f: [] if width.field_hash(f) == state["cert"].field_hash
           else ["field read back does not match the certificate hash"]),
        Op("validate-certificate",
           lambda: width.validate_certificate(state["field"], state["cert"]),
           lambda out: {"ok": bool(out[0])},
           lambda out: [f"recheck: {r}" for r in out[1]]),
    ]


def _field_ops(inputs, out_dir):
    shared = {}

    def verify(k):
        if "grid" not in shared:
            shared["grid"] = grid.build_grid(grid.square(), SPD_N, 3)
        return besicovitch.verify_besicovitch(fields.MetricField(shared["grid"],
                                                                 inputs["spd"][k]))

    def spd_check(rep):
        problems = [] if rep.passed else ["Besicovitch verdict FAIL"]
        return problems + ([] if rep.degree_ok else ["boundary degree is not 1"])

    ops = [Op(f"spd-{k:02d}", lambda k=k: verify(k),
              lambda rep: {"passed": bool(rep.passed), "d": [float(x) for x in rep.d],
                           "vol": float(rep.vol), "jac_max": float(rep.jac_max)},
              spd_check, seeded=True)
           for k in range(SPD_COUNT)]
    ops.append(_gallery_op(inputs["coarea"], out_dir, resolution=COAREA_N))

    def radius():
        return geodesy.radius(fields.flat_metric(
            grid.build_grid(grid.square(), RADIUS_N, 3)))

    ops.append(Op("radius-flat-square", radius, lambda r: {"value": float(r.value)},
                  lambda r: [] if r.connected and 0 < r.value < math.inf
                  else ["radius is not finite on a connected square"]))
    return ops


# ---------------------------------------------------------------------------
# running and checking


def run_ops(ops, tracer=None) -> list:
    """Run every operation once: (op, output, error text or None) per op.

    With a tracer, each operation is one top-level span named op.<name>.
    """
    done = []
    for op in ops:
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.span("op." + op.name):
                    out = op.run()
            done.append((op, out, None))
        except Exception as exc:  # a raising operation is a failed operation
            done.append((op, None, f"raised {type(exc).__name__}: {exc}"))
    return done


def compare(got, want, where="") -> list:
    """Differences between an output record and its pinned record."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got} "
                    f"!= {sorted(want)}"]
        return [d for k in want for d in compare(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [d for i, (a, b) in enumerate(zip(got, want))
                for d in compare(a, b, f"{where}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
            return []
        return [f"{where}: {got!r} differs from pinned {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != pinned {want!r}"]
    return []


def pinned_for(expected: dict, workload: str, seed: int):
    """The pinned records that apply to this seed, and whether the seed is pinned.

    Seeded operations of an unpinned seed are checked by their rechecks only.
    """
    table = expected[workload]
    seeded = table["seeds"].get(str(seed))
    records = dict(table["fixed"])
    records.update(seeded or {})
    return records, seeded is not None or not table["seeds"]


def check(done, pinned) -> list:
    """One (op name, problems) entry per operation run; no problems means it passed.

    pinned=None skips the comparison with pinned outputs (used when pinning).
    """
    result = []
    for op, out, error in done:
        if error is not None:
            result.append((op.name, [error]))
            continue
        try:
            problems = list(op.recheck(out))
            record = op.record(out)
        except Exception as exc:  # a recheck that cannot run is a failed check
            result.append((op.name, [f"check raised {type(exc).__name__}: {exc}"]))
            continue
        if pinned is None:
            pass
        elif op.name in pinned:
            problems += compare(record, pinned[op.name], op.name)
        elif not op.seeded:
            problems.append("no pinned output for this operation")
        result.append((op.name, problems))
    return result
