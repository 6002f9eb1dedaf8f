"""Command-line front end: run experiments, list the gallery, refine, validate.

Exit codes: 0 all verdicts PASS, 1 some verdict FAIL, 2 config/parse error,
3 execution error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import gallery as gal
from . import io as mio
from .width import validate_certificate


def _add_experiment(p):
    p.add_argument("--config", help="experiment config file (INI)")
    p.add_argument("--gallery", dest="gallery_name", help="named gallery experiment")
    p.add_argument("--seed", type=int, help="override the config seed")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="metriclab",
        description="Discrete metric geometry laboratory: distances, volumes, "
                    "systoles, Besicovitch and width certificates on gridded "
                    "metric tensors.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config or gallery item")
    _add_experiment(run)
    run.add_argument("--out", default=".", help="output directory for reports")
    run.add_argument("--resolution", type=int, help="override: run only this resolution")
    run.add_argument("--figures", action="store_true", help="emit SVG figures")

    sub.add_parser("gallery", help="list the canonical experiments")

    ref = sub.add_parser("refine", help="convergence study for one quantity")
    _add_experiment(ref)
    ref.add_argument("--quantity", required=True, help="report quantity to track")

    val = sub.add_parser("validate-certificate", help="recheck a width certificate")
    val.add_argument("certificate", help="certificate file")
    val.add_argument("--field", help="field file override (default: path in certificate)")
    return ap


def _load_config(args):
    if args.config:
        sections = mio.parse_config(args.config)
        if args.seed is not None:  # a seed the config lacks can come from --seed
            sections.setdefault("experiment", {})["seed"] = str(args.seed)
        return gal.config_from_sections(sections)
    if args.gallery_name:
        config = gal.gallery_item(args.gallery_name)
        return config if args.seed is None else replace(config, seed=args.seed)
    raise gal.GalleryError("provide --config PATH or --gallery NAME")


def _cmd_run(args, config) -> int:
    os.makedirs(args.out, exist_ok=True)
    try:
        rows = gal.run_config(config, out_dir=args.out, resolution=args.resolution,
                              figures=args.figures)
    except gal.GalleryError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"execution error: {exc}", file=sys.stderr)
        return 3
    for r in rows:
        print(f"{r.experiment} N={r.resolution} {r.quantity}: {r.computed:.10g} "
              f"(ref {r.reference:.10g}, rel {r.rel_error:+.3e}) {r.verdict}")
    return 0 if all(r.verdict != "FAIL" for r in rows) else 1


def _cmd_gallery() -> int:
    for item in gal.gallery():
        res = ",".join(str(n) for n in item.resolutions)
        print(f"{item.experiment_id:32s} domain={item.domain:28s} "
              f"metric={item.metric:16s} op={item.operation:18s} N={res}")
    return 0


def _cmd_refine(args, config) -> int:
    try:
        table = gal.refine(config, args.quantity)
    except gal.GalleryError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"execution error: {exc}", file=sys.stderr)
        return 3
    print("resolution,computed,error,order")
    for (N, val, err, order) in table:
        otxt = "n/a" if order != order else f"{order:.3f}"
        print(f"{N},{mio.fmt(val)},{mio.fmt(err)},{otxt}")
    return 0


def _cmd_validate(args) -> int:
    try:
        with open(args.certificate) as fh:
            text = fh.read()
        _, field_path, cert = mio.parse_certificate(text)
        path = args.field or field_path
        if not os.path.isabs(path):
            path = os.path.join(os.path.dirname(os.path.abspath(args.certificate)), path)
        field = mio.read_field(path)
    except (OSError, KeyError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    try:
        ok, reasons = validate_certificate(field, cert)
    except Exception as exc:
        print(f"execution error: {exc}", file=sys.stderr)
        return 3
    if ok:
        print(f"certificate OK: width_{cert.n_width} < {cert.R:.10g} "
              f"(multiplicity {cert.multiplicity}, {len(cert.cover.sets)} sets)")
        return 0
    print("certificate INVALID:")
    for r in reasons:
        print(f"  - {r}")
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "gallery":
        return _cmd_gallery()
    if args.command == "validate-certificate":
        return _cmd_validate(args)
    try:
        config = _load_config(args)
    except (gal.GalleryError, OSError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "run":
        return _cmd_run(args, config)
    return _cmd_refine(args, config)


if __name__ == "__main__":
    sys.exit(main())
