"""Digest the revival measure's trace distances, for before/after diffs.

For each model of a fixed list it runs ``witnesses._revival_distances`` from
this checkout's ``src/`` on the model's default pairs and revival grid, and
prints the sha256 of the (pairs x times) array's bytes.  The field sector
takes the first 40 times of its grid: two chunks of 27 and 13 times, about
0.3 s instead of 3.5 s for the whole grid.  A header names the Python and
numpy versions.  Running it on two checkouts and diffing the outputs shows
whether a change moved any bit of the distances the revival estimate
integrates:

    python tools/revival_digests.py > after.txt
    diff before.txt after.txt

``tools/revival_digests.txt`` is its output on the current code, and
``tests/test_revival_digests.py`` checks the distances against it.  A change
that moves a line on purpose regenerates the file:

    python tools/revival_digests.py > tools/revival_digests.txt
"""
from __future__ import annotations

import hashlib
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from kraus_witness.models import (  # noqa: E402
    CKDephase,
    JCMPhoton,
    JCMQubit,
    ModelSpec,
    YEMarkov,
    YENonMarkov,
)
from kraus_witness.witnesses import (  # noqa: E402
    _revival_distances,
    default_blp_grid,
    default_blp_pairs,
)

# (label, model, number of leading grid times or None for the whole grid)
INPUTS: list[tuple[str, ModelSpec, int | None]] = [
    ("ck", CKDephase(), None),
    ("ck t0=1", CKDephase(t0=1.0), None),
    ("jcm-qubit", JCMQubit(), None),
    ("ye-markov", YEMarkov(), None),
    ("ye-nonmarkov", YENonMarkov(), None),
    ("jcm-photon grid[:40]", JCMPhoton(), 40),
]


def digest(label: str, spec: ModelSpec, times: int | None) -> str:
    """The sha256 of one input's distances, with its label."""
    grid = default_blp_grid(spec)[:times]
    distances = _revival_distances(spec, grid, default_blp_pairs(spec))
    return f"{hashlib.sha256(distances.tobytes()).hexdigest()}  {label}"


def header() -> str:
    """First line of the output: the versions the digests were taken with."""
    return f"# python {platform.python_version()} numpy {np.__version__}"


def run() -> None:
    print(header(), flush=True)
    for label, spec, times in INPUTS:
        print(digest(label, spec, times), flush=True)


if __name__ == "__main__":
    run()
