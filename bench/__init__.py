"""The repo's benchmark: build, sim-query and serve, end to end and per layer.

Run one workload the way the driver does::

    python3 -m bench --workload scale_single --seed 2009 --seconds 20 --trace 0

or every workload, with a per-run table and an output file::

    python3 -m bench --seed 2009 --out runs.json

``BENCHMARK.json`` at the repo root names the workloads and metrics;
``bench/README.md`` says why each was chosen and how they interact.
Everything here measures the program from outside, through its public
functions; nothing under ``src/`` knows the benchmark exists.
"""

import json
from pathlib import Path
from typing import Any, Dict

#: The checkout root (the directory holding ``bench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the program under test lives; prepended to ``sys.path`` by the
#: entry points so the driver needs no ``PYTHONPATH``.
SRC = ROOT / "src"


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads, metrics, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
