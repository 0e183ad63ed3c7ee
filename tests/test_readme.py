"""README against the code: every row of the table of floors, clamps and
windows whose `where` cell names one module constant states that constant's
value, and every number measured in "Known failing checks" is what the code
gives, at the precision README quotes it."""
from __future__ import annotations

import importlib
import math
import re
from pathlib import Path

from kraus_witness import CKDephase, JCMQubit, blp_measure, make_grid, scan_G

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


def _known_failing_checks():
    """That README section as one line, its line breaks read as spaces."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Known failing checks", 1)[1].split("\n## ", 1)[0]
    return " ".join(section.split())


def _at_precision(value, quoted):
    """``value`` written as ``quoted`` is: as many digits after the point, in
    the same notation."""
    notation = "e" if "e" in quoted else "f"
    digits = len(quoted.partition("e")[0].partition(".")[2])
    return f"{value:.{digits}{notation}}"


NUMBER = r"(-?\d+\.\d+(?:e[-+]?\d+)?)"
# the numbers README quotes, in the words around them
QUOTED = re.compile(
    rf"Measured minimum over the grid: {NUMBER} .*"
    rf"Measured minimum: {NUMBER}\. .*"
    rf"\(values {NUMBER} and {NUMBER} against"
)
# what the code gives for each, in order
MEASURED = (
    # the vacuum exchange and the revival scans, as in c06 and c07
    lambda: scan_G(JCMQubit(), make_grid(0.0, 10.0, 0.01), 10.0).min_value,
    lambda: scan_G(CKDephase(), make_grid(0.0, 2.0 * math.pi, 0.005), math.pi / 6.0).min_value,
    # default revival estimates on the same two models, as in c11
    lambda: blp_measure(JCMQubit()).value,
    lambda: blp_measure(CKDephase()).value,
)


def test_measured_values_are_quoted_at_their_precision():
    quoted = QUOTED.search(_known_failing_checks()).groups()
    got = tuple(_at_precision(measure(), text) for measure, text in zip(MEASURED, quoted))
    assert got == quoted
