"""Golden CLI digests: every command of tools/cli_digests.py still prints,
writes and exits exactly as recorded in tools/cli_digests.txt."""
from __future__ import annotations

import sys
import warnings

from golden import TOOLS, assert_unmoved, load_tool, recorded_digests


def test_cli_output_matches_golden_digests(tmp_path):
    tool = load_tool("cli_digests")
    recorded = recorded_digests(tool, "cli_digests")
    with tool.pinned(tmp_path):
        lines = [tool.digest(argv, takes_out) for argv, takes_out in tool.COMMANDS]
    labels = [f"{' '.join(argv)}\n  " for argv, _ in tool.COMMANDS]
    assert_unmoved(recorded, lines, "commands", "CLI output moved for", labels)


def test_warning_digests_alike_in_two_checkouts(tmp_path, monkeypatch):
    # a second checkout of the tool, at another root
    other = tmp_path / "other" / "tools"
    other.mkdir(parents=True)
    (other / "cli_digests.py").write_bytes((TOOLS / "cli_digests.py").read_bytes())
    monkeypatch.setattr(sys, "path", list(sys.path))
    tools = [load_tool("cli_digests"), load_tool("cli_digests", other)]
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
