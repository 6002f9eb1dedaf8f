"""Pinned outputs of the 18 gallery items, and the code that makes and reads them.

The golden files live next to this module:

* csv/<item>.csv: each item's report, as the gallery writes it;
* artifacts.json: for each witness loop its class and length, and for every
  other artifact (profiles, Besicovitch reports, the certificate and its
  field file) its sha256.

tests/test_golden.py runs the gallery once and compares it with these files:
verdicts exactly, numbers within GOLDEN_RTOL (relative), witnesses by class,
length and check_length, other artifacts by digest.  Regenerating the files
is a deliberate change of pinned results, made only with

    PYTHONPATH=src python -m tests.golden --regenerate

from the repository root, and recorded with its reason and every moved value.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from metriclab import gallery as gal
from metriclab.geodesy import LoopWitness
from metriclab.grid import build_grid, topology_from_name

GOLDEN_DIR = Path(__file__).resolve().parent
GOLDEN_RTOL = 1e-12
WITNESS_NAME = re.compile(r"(?P<item>.+)-N(?P<N>\d+)-witness\.txt$")


def run_gallery(out_dir) -> None:
    """Run every gallery item in this process, writing reports and artifacts."""
    for item in gal.gallery():
        gal.run_config(item, out_dir=out_dir)


def read_witness(path):
    """(class text, length, points) of a witness file (io.witness_text)."""
    lines = Path(path).read_text().splitlines()
    cls = lines[0].removeprefix("# class = ")
    length = float(lines[1].removeprefix("# length = "))
    rows = np.array([[float(x) for x in line.split()] for line in lines[3:]])
    n = rows.shape[1] // 2
    return cls, length, rows[:, :n] + rows[:, n:]


def witness_field(name: str):
    """The metric field that the witness file `name` was measured on."""
    m = WITNESS_NAME.match(name)
    config = gal.gallery_item(m["item"])
    grid = build_grid(topology_from_name(config.domain), int(m["N"]), config.stencil_order)
    return gal.build_metric(config, grid)


def witness_checks(path) -> bool:
    """The witness polyline has its recorded length (LoopWitness.check_length)."""
    cls, length, points = read_witness(path)
    return LoopWitness(cls, -1, points, length).check_length(witness_field(Path(path).name))


def summarize(out_dir) -> dict:
    """Golden entries of the artifacts (every file but the CSVs) in out_dir."""
    out = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.suffix == ".csv":
            continue
        if WITNESS_NAME.match(path.name):
            cls, length, _ = read_witness(path)
            out[path.name] = {"class": cls, "length": length}
        else:
            out[path.name] = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    return out


def load_artifacts() -> dict:
    return json.loads((GOLDEN_DIR / "artifacts.json").read_text())


def regenerate(out_dir) -> None:
    """Run the gallery into out_dir and replace the golden files with its output."""
    run_gallery(out_dir)
    for path in Path(out_dir).iterdir():
        if WITNESS_NAME.match(path.name) and not witness_checks(path):
            raise SystemExit(f"{path.name} fails its length check; nothing regenerated")
    csv_dir = GOLDEN_DIR / "csv"
    csv_dir.mkdir(exist_ok=True)
    for old in csv_dir.glob("*.csv"):
        old.unlink()
    for path in sorted(Path(out_dir).glob("*.csv")):
        (csv_dir / path.name).write_bytes(path.read_bytes())
    (GOLDEN_DIR / "artifacts.json").write_text(
        json.dumps(summarize(out_dir), indent=1, sort_keys=True) + "\n")
