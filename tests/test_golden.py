"""The gallery against its pinned goldens (tests/golden): every report row,
witness loop and artifact of the 18 items, from one run of the gallery."""

import hashlib
import math

import pytest

import golden
from metriclab import gallery as gal
from metriclab import io as mio

ITEMS = [item.experiment_id for item in gal.gallery()]
ARTIFACTS = golden.load_artifacts()


@pytest.fixture(scope="session")
def gallery_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("gallery")
    golden.run_gallery(out)
    return out


def _rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == mio.REPORT_HEADER
    return [line.split(",") for line in lines[1:]]


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def test_gallery_writes_the_pinned_files(gallery_out):
    names = sorted(p.name for p in gallery_out.iterdir())
    assert names == sorted([f"{item}.csv" for item in ITEMS] + list(ARTIFACTS))


@pytest.mark.parametrize("item", ITEMS)
def test_report_rows_match_golden(gallery_out, item):
    got = _rows(gallery_out / f"{item}.csv")
    want = _rows(golden.GOLDEN_DIR / "csv" / f"{item}.csv")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        # experiment, resolution, quantity, provenance and verdict exactly
        assert g[:3] + g[5:6] + g[7:] == w[:3] + w[5:6] + w[7:], (g, w)
        computed, reference, rel_error = (float(x) for x in g[3:5] + g[6:7])
        assert _close(computed, float(w[3]), golden.GOLDEN_RTOL), (g, w)
        assert _close(reference, float(w[4]), golden.GOLDEN_RTOL), (g, w)
        # rel_error is relative already: it may move by the computed value's drift
        assert _close(rel_error, float(w[6]), 0.0) or abs(
            rel_error - float(w[6])) <= golden.GOLDEN_RTOL, (g, w)


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_artifact_matches_golden(gallery_out, name):
    want = ARTIFACTS[name]
    path = gallery_out / name
    if "sha256" in want:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want["sha256"]
        return
    cls, length, _ = golden.read_witness(path)
    assert cls == want["class"]
    assert _close(length, want["length"], golden.GOLDEN_RTOL)
    assert golden.witness_checks(path)
