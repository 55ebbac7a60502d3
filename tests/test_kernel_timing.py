"""demos/kernel_timing.py, each section run once at its smallest sizes.

A section raises if its own checks fail (equal bits of the two plan
layouts, the oracle energies' recorded hex at each of two tile sizes);
every time it prints must be a finite number.
"""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "demos" / "kernel_timing.py"
SMALLEST = {
    "plan": {"cases": ((200, 10),), "shape_n": 40, "reps": 1},
    "step": {"sizes": ((4, 3, 1.0),), "reps": 1},
    "oracle": {"sizes": (3,), "exponents": (1.0,), "reps": 1, "blocks": (1 << 13, 1 << 16)},
    "check": {"sizes": (3500,), "exponents": (1.0,), "vertices": (24,), "shape_n": 40, "reps": 1},
}
ROWS = {"plan": 4, "step": 8, "oracle": 4, "check": 4}  # table rows printed at those sizes


@pytest.fixture(scope="module")
def kernel_timing():
    spec = importlib.util.spec_from_file_location("kernel_timing", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


@pytest.mark.parametrize("section", ["plan", "step", "oracle", "check"])
def test_section_runs_its_checks_and_prints_finite_times(kernel_timing, capsys, section):
    kernel_timing.SECTIONS[section](**SMALLEST[section])
    header, *rows = capsys.readouterr().out.splitlines()
    table = [row for row in rows if not row.startswith(("gate:", "culled slower:"))]
    assert len(table) == ROWS[section]
    for row in table:
        numbers = [x for x in map(_number, row.split()) if x is not None]
        assert numbers and all(math.isfinite(x) for x in numbers), row
