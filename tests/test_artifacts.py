"""The tracked artifacts of every subcommand but the sweep are reproduced
byte for byte.

Uses the per-run comparison of scripts/check_artifacts.py; the Carleman
sweep (about 11 s) is left to that script.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_artifacts.py"
_spec = importlib.util.spec_from_file_location("check_artifacts", SCRIPT)
check_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_artifacts)

FAST_RUNS = [run for run in check_artifacts.RUNS
             if run[0] != "carleman-sweep"]


@pytest.mark.parametrize("run", FAST_RUNS, ids=[run[0] for run in FAST_RUNS])
def test_tracked_artifacts_are_byte_identical(run):
    assert len(FAST_RUNS) == 5
    assert check_artifacts.compare_run(*run) == []
