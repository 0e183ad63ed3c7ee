"""Golden CLI digests: every command of tools/cli_digests.py still prints,
writes and exits exactly as recorded in tools/cli_digests.txt."""
from __future__ import annotations

import importlib.util
import sys
import warnings
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_tool(tools=TOOLS):
    spec = importlib.util.spec_from_file_location("cli_digests", tools / "cli_digests.py")
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


def test_warning_digests_alike_in_two_checkouts(tmp_path, monkeypatch):
    # a second checkout of the tool, at another root
    other = tmp_path / "other" / "tools"
    other.mkdir(parents=True)
    (other / "cli_digests.py").write_bytes((TOOLS / "cli_digests.py").read_bytes())
    monkeypatch.setattr(sys, "path", list(sys.path))
    tools = [_load_tool(), _load_tool(other)]
    assert tools[0].ROOT != tools[1].ROOT

    lines = []
    for tool in tools:
        source = tool.ROOT / "src" / "kraus_witness" / "witnesses.py"

        def warns(argv, source=source):
            # a warning's text quotes the absolute path of its source file
            sys.stderr.write(warnings.formatwarning(
                "overflow encountered in add", RuntimeWarning, str(source), 142,
                line="later = ts + lags",
            ))
            return 0

        monkeypatch.setattr(tool, "main", warns)
        with tool.pinned(tmp_path):
            lines.append(tool.digest(["witness"], False))
    assert lines[0] == lines[1]
