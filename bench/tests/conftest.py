"""Make ``bench`` and the program under test importable for these tests.

Run them with ``python3 -m pytest bench/tests`` from the repo root; the
repo's own suite (``testpaths = ["tests"]``) does not collect them.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
