"""Regenerate the gallery goldens: PYTHONPATH=src python -m tests.golden --regenerate"""

import argparse
import tempfile

from . import regenerate

parser = argparse.ArgumentParser(prog="python -m tests.golden", description=__doc__)
parser.add_argument("--regenerate", action="store_true", required=True,
                    help="run the gallery and overwrite tests/golden with its output")
parser.parse_args()
with tempfile.TemporaryDirectory() as tmp:
    regenerate(tmp)
print("regenerated tests/golden; record the reason and every moved value in CHANGES.md")
