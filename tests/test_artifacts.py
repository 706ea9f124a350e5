"""The tracked artifacts of every subcommand are reproduced byte for byte.

Uses the per-run comparison of scripts/check_artifacts.py, one test per
subcommand, which also fails on any file a run writes beyond its list;
the Carleman sweep is the slowest (about 1.7 s at the reference CPU speed
of perfbench/run.py).  The script's BLAS core names are checked to be
readable, and its numeric comparison to report a perturbation it is
given.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_artifacts.py"
_spec = importlib.util.spec_from_file_location("check_artifacts", SCRIPT)
check_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_artifacts)

RUNS = check_artifacts.RUNS


@pytest.mark.parametrize("run", RUNS, ids=[run[0] for run in RUNS])
def test_tracked_artifacts_are_byte_identical(run):
    assert len(RUNS) == 6
    assert check_artifacts.compare_run(*run) == []


def test_unlisted_file_is_reported(monkeypatch, capsys):
    main = check_artifacts.cli.main

    def main_and_stray(argv):
        code = main(argv)
        out = Path(argv[argv.index("--output-dir") + 1])
        (out / "sub").mkdir()
        (out / "sub" / "stray.bin").write_bytes(b"x")
        return code

    monkeypatch.setattr(check_artifacts, "cli",
                        SimpleNamespace(main=main_and_stray))
    run = next(run for run in RUNS if run[0] == "geometry-check")
    assert check_artifacts.compare_run(*run) == ["sub/stray.bin"]
    assert "\nEXTRA sub/stray.bin\n" in capsys.readouterr().out


def test_blas_cores_are_named():
    for package, symbol in check_artifacts.BLAS:
        assert check_artifacts.blas_core(package, symbol)
    assert check_artifacts.blas_cores().startswith("numpy ")
    assert check_artifacts.blas_core("numpy", "no_such_symbol") == "unknown"
    assert check_artifacts.blas_core("no_such_package", "x") == "unknown"


def test_worst_relative_change_of_a_perturbed_copy(tmp_path):
    ref = check_artifacts.ROOT / "out" / "default" / "invert.json"
    data = ref.read_bytes()
    key = b'"final_misfit": '
    number = check_artifacts.NUMBER.match(data, data.index(key) + len(key))
    perturbed = repr(float(number.group()) * (1.0 + 1e-9)).encode()
    new = tmp_path / "invert.json"
    new.write_bytes(data[:number.start()] + perturbed + data[number.end():])
    worst = check_artifacts.worst_relative_change(ref, new)
    assert worst == pytest.approx(1e-9, rel=1e-3)
    new.write_bytes(data.replace(key, b'"final_misfit_x": '))
    assert check_artifacts.worst_relative_change(ref, new) is None
    assert check_artifacts.worst_relative_change(ref, tmp_path / "none") is None
