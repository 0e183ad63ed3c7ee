"""README against the code: every row of the table of floors, clamps and
windows whose `where` cell names one module constant states that constant's
value, every row that names a function decides as stated on each side of its
boundary, and every number measured in "Known failing checks" is what the
code gives, at the precision README quotes it."""
from __future__ import annotations

import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from kraus_witness import (
    CKDephase,
    FidelityOvershoot,
    GridTooCoarse,
    InvalidChannel,
    InvalidInitialState,
    JCMQubit,
    KrausChannel,
    NotHermitian,
    NotPSD,
    TraceNotOne,
    blp_measure,
    cli,
    fidelities,
    linalg,
    make_grid,
    scan_G,
    semigroup_defect,
    small_time_exponents,
    validate_cptp,
)

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


def _passes(call, error):
    """Whether ``call()`` returns, False if it raises ``error``."""
    try:
        call()
    except error:
        return False
    return True


def _fidelity_with(*spectrum):
    """F(I, diag(spectrum)) at d = 3, through the Jacobi route: M is the diagonal."""
    return fidelities(np.eye(3)[None], np.diag(spectrum)[None].astype(complex))[0]


def _validate_exit(defect):
    """``validate``'s exit code when every sampled completeness defect is ``defect``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "completeness_defects", lambda kraus, times, valid_dim: np.full(len(times), defect))
        return cli.main(["validate", "--model", "ck"])


def _fitted_as_vanishing(ratio):
    """Whether the probe fits K1 by its norm when ||K1(0)||_F is ``ratio``
    times 1e-12 max_k ||K_k(0)||_F, here 1e-12 ||2 I||_F."""
    def family(t):
        return KrausChannel(np.array([2.0 * np.eye(2), ratio * 2e-12 * np.eye(2) + t * np.eye(2)[::-1]]))

    return not small_time_exponents(family).fits[1].constant_at_zero


def _state(*entries):
    return np.array(entries, dtype=complex).reshape(1, 2, 2)


def _grid_with_last_step(stretch):
    """200 unit steps, the last one 1 + ``stretch`` long."""
    grid = np.arange(200.0)
    grid[-1] += stretch
    return grid


# each row that names a function, by its value and where cells: checks of
# (whether the rule lets x through, x inside the boundary, x outside it)
BOUNDARIES = {
    ("1e-10", "`linalg._inner_floor`"): [
        (lambda x: _passes(lambda: _fidelity_with(0.5, x, 0.0), NotPSD), -0.9e-10, -1.1e-10),
    ],
    ("1e-13 · max(1, λ_max)", "`linalg._inner_floor`"): [
        # lambda_max = 1/2, so the floor is 1e-13; a zeroed eigenvalue adds nothing
        (lambda x: _fidelity_with(0.5, x, 0.0) == _fidelity_with(0.5, 0.0, 0.0), 0.9e-13, 1.1e-13),
    ],
    ("1e-9", "`linalg._clamp_overshoot`"): [
        (lambda x: _passes(lambda: _fidelity_with(1.0 + x, 0.0, 0.0), FidelityOvershoot), 0.9e-9, 1.1e-9),
    ],
    ("tol = 1e-10", "`tol` of `validate_densities`"): [
        (lambda x: _passes(lambda: linalg.validate_densities(_state(0.5, 0, 0, 0.5 + x)), TraceNotOne), 0.9e-10, 1.1e-10),
        (lambda x: _passes(lambda: linalg.validate_densities(_state(0.5, x, 0, 0.5)), NotHermitian), 0.9e-12, 1.1e-12),
        (lambda x: _passes(lambda: linalg.validate_densities(_state(1.0 - x, 0, 0, x)), NotPSD), -0.9e-10, -1.1e-10),
    ],
    ("tol/2 > n² · 1e-15 · (1 + max\\|S_ii\\|)", "`linalg._ldl_certified`"): [
        # n = 2 and max|S_ii| = 1/2 put the rounding bound at 6e-15
        (lambda margin: linalg._ldl_certified(0.5 * np.eye(2)[None], margin)[0], 6.1e-15, 5.9e-15),
    ],
    ("1e-10", "`tol` of `validate_cptp`, `cli.cmd_validate`"): [
        (lambda x: _passes(lambda: validate_cptp(KrausChannel(math.sqrt(1.0 + x) * np.eye(2)[None])),
                           InvalidChannel), 0.9e-10, 1.1e-10),
        (lambda x: _validate_exit(x) == 0, 0.9e-10, 1.1e-10),
    ],
    ("1e-8", "`channels.semigroup_defect`"): [
        (lambda x: _passes(lambda: semigroup_defect(lambda t: KrausChannel(np.eye(2)[None]),
                                                    _state(0.5, 0, 0, 0.5 + x)[0], 1.0, 1.0),
                           TraceNotOne), 0.9e-8, 1.1e-8),
    ],
    ("1e-9", "`make_grid`, `blp_measure`"): [
        # 10 - x steps of 1 still make 11 points within the slack
        (lambda x: len(make_grid(0.0, 10.0 - x, 1.0)) == 11, 0.9e-9, 1.1e-9),
        (lambda x: _passes(lambda: blp_measure(CKDephase(), _grid_with_last_step(x), pairs=[]), GridTooCoarse),
         0.9e-9, 1.1e-9),
    ],
    ("1e-12", "`CKDephase.__post_init__`"): [
        (lambda x: _passes(lambda: CKDephase(rho11=0.5 + x, rho22=0.5, rho12=0.0), InvalidInitialState),
         0.9e-12, 1.1e-12),
        # the determinant 1/4 - |rho12|^2 is -x
        (lambda x: _passes(lambda: CKDephase(rho12=math.sqrt(0.25 + x)), InvalidInitialState), 0.9e-12, 1.1e-12),
    ],
    ("1e-12 · max(1, ‖K_k(0)‖)", "`probes.small_time_exponents`"): [
        (_fitted_as_vanishing, 0.9, 1.1),
    ],
}


def test_every_function_row_has_boundary_checks():
    rows = [(value, where) for value, _, where in _table_rows() if CONSTANT.fullmatch(where) is None]
    assert sorted(rows) == sorted(BOUNDARIES)


@pytest.mark.parametrize("row", list(BOUNDARIES), ids=[f"{where} {value}" for value, where in BOUNDARIES])
def test_function_rows_decide_as_stated_on_each_side(row):
    wrong = [(inside, outside) for holds, inside, outside in BOUNDARIES[row]
             if (holds(inside), holds(outside)) != (True, False)]
    assert not wrong


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
