"""Golden CLI digests: every command of tools/cli_digests.py still prints,
writes and exits exactly as recorded in tools/cli_digests.txt."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_tool():
    spec = importlib.util.spec_from_file_location("cli_digests", TOOLS / "cli_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_output_matches_golden_digests(tmp_path):
    tool = _load_tool()
    golden = (TOOLS / "cli_digests.txt").read_text(encoding="utf-8").splitlines()
    # digests of text output and CSVs are only comparable on the recorded versions
    assert golden[0] == tool.header(), (
        f"golden digests were taken with {golden[0]!r}, this run is {tool.header()!r}; "
        "regenerate tools/cli_digests.txt on the parent commit with these versions"
    )
    with tool.pinned(tmp_path):
        lines = [tool.digest(argv, takes_out) for argv, takes_out in tool.COMMANDS]
    recorded = golden[1:]
    assert len(lines) == len(recorded), (
        f"{len(tool.COMMANDS)} commands, {len(recorded)} recorded digests"
    )
    moved = [
        f"{' '.join(argv)}\n  recorded {old}\n  now      {new}"
        for (argv, _), old, new in zip(tool.COMMANDS, recorded, lines)
        if old != new
    ]
    assert not moved, "CLI output moved for:\n" + "\n".join(moved)
