"""Golden revival digests: every input of tools/revival_digests.py still
gives the trace distances recorded in tools/revival_digests.txt, bit for bit."""
from __future__ import annotations

from golden import assert_unmoved, load_tool, recorded_digests


def test_revival_distances_match_golden_digests():
    tool = load_tool("revival_digests")
    recorded = recorded_digests(tool, "revival_digests")
    lines = [tool.digest(*case) for case in tool.INPUTS]
    assert_unmoved(recorded, lines, "inputs", "revival distances moved")
