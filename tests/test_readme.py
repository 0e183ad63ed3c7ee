"""README's table of floors, clamps and windows against the code: every row
whose `where` cell names one module constant states that constant's value."""
from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = "| value | what it decides | where |"
# one backticked module.CONSTANT, and nothing else, in the `where` cell
CONSTANT = re.compile(r"`(\w+)\.(_?[A-Z][A-Z0-9_]*)`")
LEADING_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _table_rows():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER) + 2  # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        # an escaped \| inside a cell is not a column break
        rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


def test_named_constants_equal_their_stated_values():
    checked = []
    for value, _, where in _table_rows():
        named = CONSTANT.fullmatch(where)
        if named is None:
            # a row naming a function needs a probe on each side of its boundary
            continue
        module, name = named.groups()
        stated = float(LEADING_NUMBER.match(value).group())
        actual = getattr(importlib.import_module(f"kraus_witness.{module}"), name)
        checked.append((f"{module}.{name}", actual, stated))
    assert len(checked) == 11, [name for name, _, _ in checked]
    wrong = [f"{name} = {actual!r}, README says {stated!r}"
             for name, actual, stated in checked if actual != stated]
    assert not wrong, "\n".join(wrong)
