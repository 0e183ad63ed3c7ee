"""Golden revival digests: every input of tools/revival_digests.py still
gives the trace distances recorded in tools/revival_digests.txt, bit for bit."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_tool():
    spec = importlib.util.spec_from_file_location("revival_digests", TOOLS / "revival_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_revival_distances_match_golden_digests():
    tool = _load_tool()
    golden = (TOOLS / "revival_digests.txt").read_text(encoding="utf-8").splitlines()
    # bits of eigenvalue sums are only comparable on the recorded versions
    assert golden[0] == tool.header(), (
        f"golden digests were taken with {golden[0]!r}, this run is {tool.header()!r}; "
        "regenerate tools/revival_digests.txt on the parent commit with these versions"
    )
    lines = [tool.digest(*case) for case in tool.INPUTS]
    recorded = golden[1:]
    assert len(lines) == len(recorded), f"{len(lines)} inputs, {len(recorded)} recorded digests"
    moved = [f"recorded {old}\n  now      {new}" for old, new in zip(recorded, lines) if old != new]
    assert not moved, "revival distances moved:\n" + "\n".join(moved)
