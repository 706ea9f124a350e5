#!/usr/bin/env python3
"""Rerun the subcommands behind the tracked artifacts and compare bytes.

Each subcommand runs on its shipped config into a fresh temporary
directory; every artifact it writes must equal the tracked copy under
out/ byte for byte, and it must write nothing else.  Prints the OpenBLAS
core that numpy's and scipy's bundled libraries run, since the bytes hold
on one core only, then one line per artifact (the cores again on a
DIFFERS line, with the worst relative change over the two files' numeric
tokens, or 'layout differs' when the tokens do not pair up) and an EXTRA
line per file the run wrote that is not in its list, and exits 1 if any
artifact differs, is missing or is extra, 0 otherwise.  The numeric
change is a printout only; the verdict is byte identity.  Takes no
arguments:

    PYTHONPATH=src python3 scripts/check_artifacts.py
"""

import ctypes
import filecmp
import importlib.util
import re
import sys
import tempfile
from pathlib import Path

from carleman_lab import cli

ROOT = Path(__file__).resolve().parents[1]

# (subcommand, config, tracked directory, artifacts)
RUNS = (
    ("carleman-sweep", "configs/carleman.ini", "out/carleman",
     ("carleman_rows.csv", "carleman_table.csv", "carleman_summary.json",
      "carleman_ratios.svg")),
    ("invert", "configs/default.ini", "out/default",
     ("invert.json", "invert.csv")),
    ("stability", "configs/default.ini", "out/default",
     ("stability_records.csv", "stability_summary.json",
      "stability_scatter.svg")),
    ("geometry-check", "configs/default.ini", "out/default",
     ("geometry_check.json",)),
    ("weight-verify", "configs/default.ini", "out/default",
     ("weight_verify.json",)),
    ("solve-forward", "configs/default.ini", "out/default",
     ("forward_trace.csv", "forward_summary.json")),
)

# (package, exported function naming the core) of each bundled OpenBLAS
BLAS = (("numpy", "scipy_openblas_get_corename64_"),
        ("scipy", "scipy_openblas_get_corename"))


def blas_core(package, symbol) -> str:
    """The core named by symbol in the OpenBLAS under <package>.libs, or
    'unknown' if the package, the library or the symbol is missing."""
    spec = importlib.util.find_spec(package)
    if spec is None or spec.origin is None:
        return "unknown"
    libs = Path(spec.origin).parents[1] / f"{package}.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            corename = getattr(ctypes.CDLL(str(lib)), symbol)
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def blas_cores() -> str:
    return ", ".join(f"{package} {blas_core(package, symbol)}"
                     for package, symbol in BLAS)


# a decimal number, with optional sign, fraction and exponent
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def worst_relative_change(ref: Path, new: Path):
    """max |a - b| / max(|a|, |b|) over the numeric tokens of two files that
    agree outside their numbers, or None if either file is missing or the
    text between the numbers, or the count of numbers, differs."""
    if not (ref.is_file() and new.is_file()):
        return None
    ref_bytes, new_bytes = ref.read_bytes(), new.read_bytes()
    if NUMBER.split(ref_bytes) != NUMBER.split(new_bytes):
        return None
    worst = 0.0
    for a, b in zip(map(float, NUMBER.findall(ref_bytes)),
                    map(float, NUMBER.findall(new_bytes))):
        if a != b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def compare_run(subcommand, config, tracked, names) -> list:
    """Run subcommand on config into a fresh temporary directory and
    return the artifacts among names that differ from their tracked copy
    or are missing, then the files the run wrote that names does not list
    ([subcommand] if it exits non-zero); prints one line per artifact and
    per extra file."""
    with tempfile.TemporaryDirectory() as tmp:
        code = cli.main([subcommand, "--config", str(ROOT / config),
                         "--output-dir", tmp])
        if code != 0:
            print(f"FAILED {subcommand} exited {code}")
            return [subcommand]
        bad = []
        for name in names:
            ref = ROOT / tracked / name
            new = Path(tmp) / name
            same = (ref.is_file() and new.is_file()
                    and filecmp.cmp(ref, new, shallow=False))
            if same:
                print(f"same {tracked}/{name}")
            else:
                worst = worst_relative_change(ref, new)
                change = ("layout differs" if worst is None
                          else f"worst relative change {worst:.2e}")
                print(f"DIFFERS {tracked}/{name} ({change}; "
                      f"blas: {blas_cores()})")
                bad.append(f"{tracked}/{name}")
        written = sorted(path.relative_to(tmp).as_posix()
                         for path in Path(tmp).rglob("*") if path.is_file())
        for name in written:
            if name not in names:
                print(f"EXTRA {name}")
                bad.append(name)
        return bad


def main() -> int:
    print(f"blas: {blas_cores()}")
    bad = [name for run in RUNS for name in compare_run(*run)]
    if bad:
        print("artifacts differ or are extra: " + ", ".join(bad))
        return 1
    print("all artifacts byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
