"""Golden digest files under tools/: loading the tool that writes one, and
comparing a run with what it recorded.

A golden file's first line is the tool's header (the versions its digests
were taken with) and every other line one recorded digest, in input order.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str, tools: Path = TOOLS):
    """tools/<name>.py as a module of that name."""
    spec = importlib.util.spec_from_file_location(name, tools / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def recorded_digests(tool, name: str) -> list[str]:
    """The digests of tools/<name>.txt, once its header is this run's."""
    golden = (TOOLS / f"{name}.txt").read_text(encoding="utf-8").splitlines()
    # digests are only comparable on the recorded versions
    assert golden[0] == tool.header(), (
        f"golden digests were taken with {golden[0]!r}, this run is {tool.header()!r}; "
        f"regenerate tools/{name}.txt on the parent commit with these versions"
    )
    return golden[1:]


def assert_unmoved(recorded: list[str], lines: list[str], inputs: str, title: str,
                   labels: list[str] | None = None) -> None:
    """Every line equals its recorded digest; a moved one is listed under
    ``title`` after its label, if any."""
    assert len(lines) == len(recorded), f"{len(lines)} {inputs}, {len(recorded)} recorded digests"
    moved = [
        f"{label}recorded {old}\n  now      {new}"
        for label, old, new in zip(labels or [""] * len(lines), recorded, lines)
        if old != new
    ]
    assert not moved, f"{title}:\n" + "\n".join(moved)
