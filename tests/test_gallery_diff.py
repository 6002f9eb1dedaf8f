"""tools/gallery_diff.py finds the files that differ between two trees; no gallery runs here."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "gallery_diff.py"


def _tool():
    spec = importlib.util.spec_from_file_location("gallery_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_one_differing_byte_and_one_missing_file_are_listed(tmp_path):
    files = {"item/a.csv": b"x,1.0\n", "item/b.svg": b"<svg/>" * 1000, "c.txt": b""}
    a = _tree(tmp_path / "a", files)
    b = _tree(tmp_path / "b", files)
    differing = _tool().differing
    assert differing(a, b) == []
    data = bytearray(files["item/b.svg"])
    data[4321] ^= 1
    (b / "item" / "b.svg").write_bytes(bytes(data))
    assert differing(a, b) == ["item/b.svg"]
    (a / "item" / "only-a.txt").write_bytes(b"1")
    assert differing(a, b) == ["item/b.svg", "item/only-a.txt"]
    assert differing(b, a) == ["item/b.svg", "item/only-a.txt"]
