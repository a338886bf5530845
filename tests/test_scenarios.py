"""Every row of the CLI scenario table, run through ``python -m caveprobe``
on this checkout's src/, one test per row."""

import re
import sys
from pathlib import Path

import pytest

import scenarios

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def failed():
    # rows compare reports with earlier rows, so the table runs once, whole;
    # each row runs in a directory of its own, so src/ goes on the path absolute
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC))
        return dict(scenarios.run([sys.executable, "-m", "caveprobe"]))


def row_id(row: scenarios.Row) -> str:
    return re.sub(r"\W+", "_", row.name.lower()).strip("_")


def test_row_ids_are_distinct():
    assert len({row_id(row) for row in scenarios.ROWS}) == len(scenarios.ROWS)


@pytest.mark.parametrize("row", scenarios.ROWS, ids=row_id)
def test_scenario_passes(row, failed):
    assert row.name not in failed, failed.get(row.name)
