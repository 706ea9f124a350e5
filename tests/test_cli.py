"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import contextlib
import io
import json
import re
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carleman_lab import carleman_check as cc
from carleman_lab import cli
from carleman_lab import config as cfgmod
from carleman_lab import geometry as geo
from carleman_lab import inverse as inv
from carleman_lab import pde_solver as pde
from carleman_lab import weight as wt

DEFAULT_INI = Path(__file__).resolve().parents[1] / "configs" / "default.ini"


TMPL = """
[geometry]
outer = rect -1.0 1.0 -1.0 1.0
interface = {interface}
x0 = 0.0 0.0
x1 = -0.3 0.0
x2 = 0.3 0.0

[physics]
a1 = {a1}
a2 = {a2}
p = {p}
y0 = {y0}
h = initial
T = 0.1
nx = 9
dt = 0.05

[carleman]
s = {s}
lambda = 1
M2 = {M2}
n_fields = 2
n_half = 4
seed = 0

[inverse]
beta = 1e-6
max_iter = 2
n_perturbations = 3
amplitudes = 1e-2 1e-1
seed = 7
noise = 0.0
q0 = constant 1.3
r_lower = {r_lower}

[output]
directory = {directory}
formats = csv json svg
"""

DEFAULTS = dict(
    interface="disk 0.5", a1="2.0", a2="1.0", p="sine 1.0 0.4",
    y0="cosine 2.0 0.5", s="10 20", M2="1.0", r_lower="0.5",
    directory="outrel",
)


def write_cfg(tmp_path, name="exp.ini", **overrides):
    values = dict(DEFAULTS)
    values.update(overrides)
    path = tmp_path / name
    path.write_text(TMPL.format(**values))
    return path


# (field path, line in TMPL, non-finite replacement)
NON_FINITE = [
    ("physics.T", "T = 0.1", "T = inf"),
    ("physics.a1", "a1 = 2.0", "a1 = inf"),
    ("inverse.beta", "beta = 1e-6", "beta = nan"),
    ("inverse.noise", "noise = 0.0", "noise = inf"),
    ("carleman.s", "s = 10 20", "s = 10 nan"),
    ("physics.p", "p = sine 1.0 0.4", "p = constant inf"),
    ("physics.y0", "y0 = cosine 2.0 0.5", "y0 = cosine nan 0.5"),
    ("inverse.q0", "q0 = constant 1.3", "q0 = constant inf"),
    ("geometry.outer", "outer = rect -1.0 1.0 -1.0 1.0",
     "outer = rect -1.0 inf -1.0 1.0"),
]


def load_json(path):
    return json.loads(path.read_text())


def snapshot(directory):
    """{relative path: bytes} of every file under directory."""
    return {path.relative_to(directory).as_posix(): path.read_bytes()
            for path in directory.rglob("*") if path.is_file()}


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_flags_parse(self):
        args = cli.build_parser().parse_args(
            ["stability", "--config", "x.ini", "--seed", "3", "--n", "5"]
        )
        assert args.subcommand == "stability"
        assert args.seed == 3 and args.n == 5


class TestErrorPaths:
    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["geometry-check", "--config", str(tmp_path / "no.ini")])
        assert code == 2
        assert "file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("unreadable, reason", [
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b"\xff\xfe[geometry]\n"), "utf-8"),
    ], ids=["directory", "not-utf8"])
    def test_unreadable_config_names_the_flag(self, tmp_path, capsys,
                                              unreadable, reason):
        path = tmp_path / "exp.ini"
        unreadable(path)
        code = cli.main(["geometry-check", "--config", str(path),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --config: cannot read {path}: ")
        assert reason in err

    @pytest.mark.parametrize("subcommand, how, key", [
        ("geometry-check", "flag", "--output-dir"),
        ("solve-forward", "flag", "--output-dir"),
        ("geometry-check", "config", "output.directory"),
        ("geometry-check", "env", "output.directory"),
        # the exit-3 path writes certification_failure.json
        ("weight-verify", "flag", "--output-dir"),
    ])
    def test_unwritable_output_directory_names_its_source(
            self, tmp_path, capsys, monkeypatch, subcommand, how, key):
        blocker = tmp_path / "blocker"  # a file where a directory belongs
        blocker.write_text("kept\n")
        overrides = {"directory": str(blocker)} if how == "config" else {}
        if subcommand == "weight-verify":
            overrides.update(a1="1.0", a2="2.0")  # fails H2
        cfg = write_cfg(tmp_path, **overrides)
        argv = [subcommand, "--config", str(cfg)]
        if how == "flag":
            argv += ["--output-dir", str(blocker)]
        if how == "env":
            monkeypatch.setenv(cli.ENV_OUTPUT, str(blocker))
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: cannot write into {blocker}" in err
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker",
                                                               "exp.ini"]

    def test_schema_error_carries_field_path(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(TMPL.format(**DEFAULTS).replace("T = 0.1\n", ""))
        code = cli.main(["geometry-check", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: physics.T")

    @pytest.mark.parametrize("key, old, new", NON_FINITE,
                             ids=[case[0] for case in NON_FINITE])
    def test_non_finite_number_names_its_key(self, tmp_path, capsys,
                                             key, old, new):
        path = tmp_path / "bad.ini"
        text = TMPL.format(**DEFAULTS)
        assert f"\n{old}\n" in text
        path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
        code = cli.main(["invert", "--config", str(path),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}:")

    @pytest.mark.parametrize("subcommand", ["invert", "stability"])
    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_invalid_q_bound_names_its_key(self, tmp_path, capsys,
                                           subcommand, value):
        cfg = write_cfg(tmp_path, r_lower=f"0.5\nq_bound = {value}")
        code = cli.main([subcommand, "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: inverse.q_bound:")

    @pytest.mark.parametrize("subcommand, section, key, value, named", [
        ("invert", "inverse", "r_lower", "5", "inverse.r_lower"),
        ("stability", "inverse", "r_lower", "5", "inverse.r_lower"),
        ("invert", "inverse", "q_bound", "0.5", "inverse.q0"),
        # y0's rim, held at every time, is the one Dirichlet rule
        ("geometry-check", "physics", "h", "zero", "physics.h"),
        ("weight-verify", "physics", "h", "zero", "physics.h"),
        ("solve-forward", "physics", "h", "zero", "physics.h"),
        ("carleman-sweep", "physics", "h", "zero", "physics.h"),
        ("invert", "physics", "h", "zero", "physics.h"),
        ("stability", "physics", "h", "zero", "physics.h"),
        ("weight-verify", "carleman", "cutoff", "0.2 0.6", "carleman.cutoff"),
        ("weight-verify", "geometry", "x0", "-1 0.0", "geometry.x0"),
        ("carleman-sweep", "geometry", "x1", "-1 0.0", "geometry.x1"),
        ("carleman-sweep", "geometry", "x2", "0.3 -1", "geometry.x2"),
        # equal centres: each is inside, the pair is degenerate
        ("carleman-sweep", "geometry", "x1", "0.3 0.0", "geometry.x2"),
        # outside the magnitude domain, so no state, trace, relative error
        # or face coefficient is formed from them
        ("invert", "physics", "y0", "constant 1e300", "physics.y0"),
        ("stability", "physics", "y0", "constant 1e300", "physics.y0"),
        ("solve-forward", "physics", "y0", "constant 1e300", "physics.y0"),
        ("invert", "physics", "p", "constant 1e300", "physics.p"),
        ("invert", "inverse", "q0", "constant 1e300", "inverse.q0"),
        ("solve-forward", "physics", "a1", "1e300", "physics.a1"),
        ("invert", "physics", "a2", "1e300", "physics.a2"),
        ("stability", "physics", "a1", "1e300", "physics.a1"),
        ("weight-verify", "physics", "a2", "1e300", "physics.a2"),
        # tau^3 = (delta_t (2 T - delta_t))^-3 overflows at the clamp
        ("carleman-sweep", "carleman", "delta_t", "5e-324", "carleman.delta_t"),
        ("carleman-sweep", "carleman", "delta_t", "1e-300", "carleman.delta_t"),
    ])
    def test_geometry_dependent_errors_name_their_key(
            self, tmp_path, capsys, subcommand, section, key, value, named):
        # the config error is the first line of stderr: no numpy warning
        # comes before it
        path = tmp_path / "bad.ini"
        path.write_text(set_key(TMPL.format(**DEFAULTS), section, key, value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([subcommand, "--config", str(path),
                             "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {named}: ")

    @pytest.mark.parametrize(
        "subcommand", ["solve-forward", "carleman-sweep", "invert", "stability"]
    )
    def test_inconsistent_ny_names_its_key(self, tmp_path, capsys, subcommand):
        # nx = 33 on [-1, 1]^2 sets the spacing 1/16, which needs ny = 33
        path = tmp_path / "bad.ini"
        path.write_text(set_key(DEFAULT_INI.read_text(), "physics", "ny", "20"))
        code = cli.main([subcommand, "--config", str(path),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: physics.ny: grid spacing must be square")

    def test_overflowing_initial_gradient_names_y0(self, tmp_path, capsys):
        # with p = 0 a constant y0 is stationary: the clean trace, the data
        # and the misfit would be finite, but the gradient at q0 would
        # overflow (its infinite norm once made the stop floor inf and the
        # descent "converged" at the initial guess); y0 = 1e150 is outside
        # the magnitude domain
        cfg = write_cfg(tmp_path, p="constant 0", y0="constant 1e150")
        out = tmp_path / "out"
        code = cli.main(["invert", "--config", str(cfg), "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: physics.y0: '1e150' is outside the magnitude domain ")
        assert not out.exists()

    def test_overflowing_initial_gradient_names_the_coefficient(
            self, tmp_path, capsys):
        # the gradient scales like a^2 |y0|^2, and a2 = 1e150 is outside
        # the magnitude domain: the coefficient is named, not the state,
        # and no numpy warning comes before the message
        cfg = write_cfg(tmp_path, a2="1e150")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["invert", "--config", str(cfg),
                             "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: physics.a2: '1e150' is outside the magnitude domain ")
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["invert", "stability"])
    def test_overflowing_trace_difference_names_y0(self, tmp_path, capsys,
                                                   subcommand):
        # with p = 0 a constant y0 is stationary, so the clean trace is 0
        # and finite, while the misfit and every trace distance overflow
        cfg = write_cfg(tmp_path, p="constant 0", y0="constant 1e160")
        code = cli.main([subcommand, "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: physics.y0: ")

    def test_zero_initial_state_is_rejected_before_any_write(self, tmp_path,
                                                             capsys):
        # the forward drift is relative to the initial L2 norm
        cfg = write_cfg(tmp_path, y0="constant 0")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["solve-forward", "--config", str(cfg),
                             "--output-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: physics.y0: ")
        assert not out.exists()

    @pytest.mark.parametrize("subcommand",
                             ["solve-forward", "invert", "stability"])
    def test_field_over_the_size_bound_names_the_time_step(
            self, tmp_path, capsys, monkeypatch, subcommand):
        # at dt = 0.025 the field is 5 levels x 9 x 9 nodes x 16 bytes =
        # 6480 bytes, and at the fewest levels, 3, it is 3888 bytes; the
        # bound is lowered, so nothing large is ever allocated
        def no_solve(*args, **kwargs):
            raise AssertionError("the forward solve ran")

        monkeypatch.setattr(cli, "MAX_FIELD_BYTES", 6479)
        monkeypatch.setattr(pde, "solve_forward", no_solve)
        monkeypatch.setattr(inv, "solve_forward", no_solve)
        path = tmp_path / "exp.ini"
        path.write_text(set_key(TMPL.format(**DEFAULTS), "physics", "dt", "0.025"))
        out = tmp_path / "out"
        code = cli.main([subcommand, "--config", str(path),
                         "--output-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: physics.dt: ")
        assert not out.exists()

    @pytest.mark.parametrize("ny", [None, "9"])
    @pytest.mark.parametrize("subcommand", ["solve-forward", "carleman-sweep",
                                            "invert", "stability"])
    def test_stack_over_the_bound_at_the_fewest_levels_names_the_grid(
            self, tmp_path, capsys, monkeypatch, subcommand, ny):
        # the template's forward field has the fewest levels T/dt allows, 3,
        # and 3 x 9 x 9 x 16 = 3888 bytes; a suite field has at least 5
        monkeypatch.setattr(cli, "MAX_FIELD_BYTES", 3887)
        text = TMPL.format(**DEFAULTS)
        if ny:
            text = set_key(text, "physics", "ny", ny)
        path = tmp_path / "exp.ini"
        path.write_text(text)
        out = tmp_path / "out"
        code = cli.main([subcommand, "--config", str(path),
                         "--output-dir", str(out)])
        assert code == 2
        key = "physics.ny" if ny else "physics.nx"
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["solve-forward", "carleman-sweep",
                                            "invert", "stability"])
    def test_huge_grid_names_nx(self, tmp_path, capsys, subcommand):
        # 3 levels of 100000 x 100000 nodes (5 for a suite field) need at
        # least 480 GB; the grid, not the time step or the suite size, is
        # what is too large
        path = tmp_path / "exp.ini"
        path.write_text(set_key(TMPL.format(**DEFAULTS), "physics", "nx", "100000"))
        code = cli.main([subcommand, "--config", str(path),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: physics.nx: the field stack needs ")

    def test_field_at_the_size_bound_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_FIELD_BYTES", 3888)
        cfg = write_cfg(tmp_path)
        assert cli.main(["solve-forward", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out")]) == 0

    def test_time_stencil_is_not_bounded_apart_from_the_field(
            self, tmp_path, capsys, monkeypatch):
        # at dt = 0.001 the forward field is 101 levels x 9 x 9 nodes x 16
        # bytes = 130896 bytes; the misfit gradient's time stencil, once two
        # dense 101 x 101 matrices of 163216 bytes, has 3 entries a level
        monkeypatch.setattr(cli, "MAX_FIELD_BYTES", 150000)
        path = tmp_path / "exp.ini"
        path.write_text(set_key(TMPL.format(**DEFAULTS), "physics", "dt", "0.001"))
        args = ["invert", "--config", str(path), "--output-dir"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(args + [str(tmp_path / "out")]) == 0
        monkeypatch.setattr(cli, "MAX_FIELD_BYTES", 130895)
        out = tmp_path / "over"
        assert cli.main(args + [str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: physics.dt: the field stack needs 130896 bytes")
        assert not out.exists()

    def test_suite_field_over_the_size_bound_names_n_half(self, tmp_path, capsys,
                                                          monkeypatch):
        # each suite field is 2 x 4 + 1 levels x 9 x 9 nodes x 16 bytes =
        # 11664 bytes; the bound is lowered, so nothing large is allocated
        def no_suite(*args, **kwargs):
            raise AssertionError("the test suite was built")

        monkeypatch.setattr(cli, "MAX_FIELD_BYTES", 11663)
        monkeypatch.setattr(cc, "build_test_suite", no_suite)
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["carleman-sweep", "--config", str(cfg),
                         "--output-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: carleman.n_half: ")
        assert not out.exists()

    def test_suite_over_the_size_bound_names_n_fields(self, tmp_path, capsys,
                                                       monkeypatch):
        # the walk holds each of the 2 fields' slab with its halo, here all
        # 9 levels: 2 x 9 x 9 x 9 x 16 bytes = 23328 bytes
        def no_suite(*args, **kwargs):
            raise AssertionError("the test suite was built")

        monkeypatch.setattr(cli, "MAX_FIELD_BYTES", 23327)
        monkeypatch.setattr(cc, "build_test_suite", no_suite)
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["carleman-sweep", "--config", str(cfg),
                         "--output-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error: carleman.n_fields: ")
        assert not out.exists()

    def test_suite_field_at_the_size_bound_runs(self, tmp_path, monkeypatch):
        # at the bound of the larger stack, the 2 fields' slabs
        monkeypatch.setattr(cli, "MAX_FIELD_BYTES", 23328)
        cfg = write_cfg(tmp_path)
        assert cli.main(["carleman-sweep", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("how", ["key", "flag"])
    def test_huge_suite_names_n_fields(self, tmp_path, capsys, how):
        # 10^8 fields' slabs need 1.2 TB; --n sets n_fields too
        text = TMPL.format(**DEFAULTS)
        flags = ["--n", "100000000"] if how == "flag" else []
        if how == "key":
            text = set_key(text, "carleman", "n_fields", "100000000")
        path = tmp_path / "exp.ini"
        path.write_text(text)
        code = cli.main(["carleman-sweep", "--config", str(path),
                         "--output-dir", str(tmp_path / "out"), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: carleman.n_fields: ")

    @pytest.mark.parametrize("how", ["key", "flag"])
    def test_huge_sweep_names_n_perturbations(self, tmp_path, capsys,
                                              monkeypatch, how):
        # 10^9 log-spaced amplitudes alone take 8 GB; --n sets the size
        # past the table, so stability checks it before any allocation
        def no_instance(cfg):
            raise AssertionError("the instance was built")

        monkeypatch.setattr(cli, "_build_instance", no_instance)
        text = TMPL.format(**DEFAULTS)
        flags = ["--n", "1000000000"] if how == "flag" else []
        if how == "key":
            text = set_key(text, "inverse", "n_perturbations", "1000000000")
        path = tmp_path / "exp.ini"
        path.write_text(text)
        out = tmp_path / "out"
        code = cli.main(["stability", "--config", str(path),
                         "--output-dir", str(out), *flags])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: inverse.n_perturbations: must be <= 100000, "
            "got 1000000000\n")
        assert not out.exists()

    def test_blamed_keys_are_table_rows(self):
        paths = {key.path for key in cfgmod.KEYS}
        assert set(cli.BLAMED_KEYS) == {"lambda", "s", "delta_t", "a2"}
        assert set(cli.BLAMED_KEYS.values()) <= paths

    def test_overflowing_p1_factor_names_lambda_before_any_field(
            self, tmp_path, capsys, monkeypatch):
        # e^{lambda psi_sup} = e^{659} is finite, but P1's potential squares
        # it: the sweep once wrote lhs nan, ratio 0 and exited 0
        def no_fields(suite):
            raise AssertionError("a test field was built")

        monkeypatch.setattr(cc, "_suite_fields", no_fields)
        path = tmp_path / "bad.ini"
        path.write_text(set_key(TMPL.format(**DEFAULTS), "carleman", "lambda", "15"))
        out = tmp_path / "out"
        code = cli.main(["carleman-sweep", "--config", str(path),
                         "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: carleman.lambda: overflow at ")
        assert "e^(2 lambda psi_sup) = inf" in err
        assert not out.exists()

    def test_overflowing_theta_cubed_names_lambda_before_any_field(
            self, tmp_path, capsys, monkeypatch):
        # at lambda = 6 to 8, e^{2 lambda psi_sup} is finite but the norm's
        # weight theta^3 overflows at the clamp; it once warned and built
        # every field before the report check fired
        def no_fields(suite):
            raise AssertionError("a test field was built")

        monkeypatch.setattr(cc, "_suite_fields", no_fields)
        for lam in ("6", "7", "8"):
            path = tmp_path / "bad.ini"
            path.write_text(
                set_key(TMPL.format(**DEFAULTS), "carleman", "lambda", lam))
            out = tmp_path / "out"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(["carleman-sweep", "--config", str(path),
                                 "--output-dir", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: carleman.lambda: overflow at ")
            assert "theta^3 there = inf" in err
            assert not out.exists()

    def test_non_finite_estimate_names_lambda(self, tmp_path, capsys,
                                              monkeypatch):
        # at lambda = 6, e^{2 lambda psi_sup} is finite but the norm's
        # weight theta^3 overflows at the clamp: with the fit's own check
        # taken out, the report check catches it as the backstop
        def unchecked(psi_sup, s, lam, T, *, delta_t=None):
            return wt.CarlemanParams(
                s=s, lam=lam, alpha=1.05 * float(np.exp(lam * psi_sup)), T=T,
                delta_t=T / 64.0 if delta_t is None else delta_t,
                psi_sup=psi_sup)

        monkeypatch.setattr(cc, "params_from_sup", unchecked)
        path = tmp_path / "bad.ini"
        path.write_text(set_key(TMPL.format(**DEFAULTS), "carleman", "lambda", "6"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.main(["carleman-sweep", "--config", str(path),
                             "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: carleman.lambda: the estimate at ")
        assert "is not finite" in err

    def test_negative_n_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code = cli.main(["stability", "--config", str(cfg), "--n", "-2"])
        assert code == 2
        assert "--n" in capsys.readouterr().err

    def test_library_valueerror_maps_to_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, y0="cosine 0.4 0.1")  # |y0| < r_lower
        out = tmp_path / "out"
        code = cli.main(["invert", "--config", str(cfg),
                         "--output-dir", str(out)])
        assert code == 2
        assert "config error:" in capsys.readouterr().err


class TestGeometryCheck:
    def test_disk_curvature_and_artifact(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["geometry-check", "--config", str(cfg),
                         "--output-dir", str(out)])
        assert code == 0
        assert "geometry-check:" in capsys.readouterr().out
        doc = load_json(out / "geometry_check.json")
        assert abs(doc["min_curvature"] - 2.0) < 1e-8  # disk radius 0.5
        assert doc["ok"] is True
        assert doc["_meta"]["subcommand"] == "geometry-check"

    def test_nonconvex_interface_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, interface="fourier 0.5 7:0.04")
        out = tmp_path / "out"
        code = cli.main(["geometry-check", "--config", str(cfg),
                         "--output-dir", str(out)])
        assert code == 3
        assert "certification failure" in capsys.readouterr().err
        doc = load_json(out / "certification_failure.json")
        assert doc["report"]["ok"] is False


class TestWeightVerify:
    def test_valid_weight_passes(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["weight-verify", "--config", str(cfg),
                         "--output-dir", str(out)])
        assert code == 0
        doc = load_json(out / "weight_verify.json")
        assert doc["all_ok"] is True
        assert all(rec["ok"] for rec in doc["records"].values())

    def test_wrong_jump_fails_h2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, a1="1.0", a2="2.0")
        out = tmp_path / "out"
        code = cli.main(["weight-verify", "--config", str(cfg),
                         "--output-dir", str(out)])
        assert code == 3
        assert "certification failure" in capsys.readouterr().err
        doc = load_json(out / "certification_failure.json")
        records = doc["report"]["records"]
        assert records["H2"]["ok"] is False
        assert records["H2"]["margin"] < 0.0


class TestSolveForward:
    def test_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["solve-forward", "--config", str(cfg),
                         "--output-dir", str(out)]) == 0
        assert capsys.readouterr().out.startswith("solve-forward: steps=2 ")
        assert load_json(out / "forward_summary.json")["n_steps"] == 2
        trace = (out / "forward_trace.csv").read_bytes()
        assert trace.startswith(b"# config_hash=")
        assert sorted(snapshot(out)) == ["forward_summary.json",
                                         "forward_trace.csv"]

    def test_underflowing_coefficients_run(self, tmp_path, capsys):
        # every face coefficient underflows to 0, so k_int is all zeros on
        # its pattern; the column order comes from I - (i/2) k_int, which
        # is never singular
        text = DEFAULT_INI.read_text()
        for key in ("a1", "a2"):
            text = set_key(text, "physics", key, "5e-324")
        path = tmp_path / "tiny.ini"
        path.write_text(text)
        assert cli.main(["solve-forward", "--config", str(path),
                         "--output-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("solve-forward: steps=32 ")

    def test_coefficient_classified_once(self, tmp_path, monkeypatch):
        # the solve and the trace share one CoefficientOnGrid
        calls = []
        classify = geo.DomainLayout.classify

        def counted(self, pts):
            calls.append(len(pts))
            return classify(self, pts)

        monkeypatch.setattr(geo.DomainLayout, "classify", counted)
        cfg = write_cfg(tmp_path)
        assert cli.main(["solve-forward", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out")]) == 0
        assert calls == [9 * 9]


class TestRerun:
    @pytest.mark.parametrize("subcommand", list(cli.HANDLERS))
    def test_rerun_rewrites_the_same_bytes(self, tmp_path, subcommand):
        # a second run into the same directory leaves the same files
        cfg = write_cfg(tmp_path)
        argv = [subcommand, "--config", str(cfg),
                "--output-dir", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        first = snapshot(tmp_path / "out")
        assert first
        assert cli.main(argv) == 0
        assert snapshot(tmp_path / "out") == first


# the artifacts each subcommand writes with every format listed
ARTIFACTS = {
    "geometry-check": ("geometry_check.json",),
    "weight-verify": ("weight_verify.json",),
    "solve-forward": ("forward_trace.csv", "forward_summary.json"),
    "carleman-sweep": ("carleman_rows.csv", "carleman_table.csv",
                       "carleman_summary.json", "carleman_ratios.svg"),
    "invert": ("invert.json", "invert.csv"),
    "stability": ("stability_records.csv", "stability_summary.json",
                  "stability_scatter.svg"),
}


class TestFormats:
    def test_every_subcommand_lists_its_artifacts(self):
        assert list(ARTIFACTS) == list(cli.HANDLERS)

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    @pytest.mark.parametrize("subcommand", list(cli.HANDLERS))
    def test_one_format_writes_exactly_its_artifacts(self, tmp_path, subcommand,
                                                     fmt):
        path = tmp_path / "exp.ini"
        path.write_text(set_key(TMPL.format(**DEFAULTS), "output", "formats", fmt))
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([subcommand, "--config", str(path),
                             "--output-dir", str(out)])
        assert code == 0
        assert sorted(snapshot(out)) == sorted(
            name for name in ARTIFACTS[subcommand] if name.endswith(f".{fmt}"))

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    @pytest.mark.parametrize("subcommand, overrides", [
        ("geometry-check", {"interface": "fourier 0.5 7:0.04"}),
        ("weight-verify", {"a1": "1.0", "a2": "2.0"}),
        ("carleman-sweep", {"a1": "1.0", "a2": "2.0"}),
    ])
    def test_certification_failure_is_written_whatever_the_formats(
            self, tmp_path, subcommand, overrides, fmt):
        values = dict(DEFAULTS, **overrides)
        path = tmp_path / "exp.ini"
        path.write_text(set_key(TMPL.format(**values), "output", "formats", fmt))
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([subcommand, "--config", str(path),
                             "--output-dir", str(out)])
        assert code == 3
        written = set(snapshot(out))
        assert "certification_failure.json" in written
        # beside it, only the subcommand's own artifacts of that format
        assert written - {"certification_failure.json"} <= {
            name for name in ARTIFACTS[subcommand] if name.endswith(f".{fmt}")}


class TestOutputResolution:
    def test_env_root_anchors_relative_directory(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, directory="nested/out")
        root = tmp_path / "root"
        monkeypatch.setenv(cli.ENV_OUTPUT, str(root))
        assert cli.main(["geometry-check", "--config", str(cfg)]) == 0
        assert (root / "nested/out/geometry_check.json").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "envroot"))
        out = tmp_path / "flagged"
        assert cli.main(["geometry-check", "--config", str(cfg),
                         "--output-dir", str(out)]) == 0
        assert (out / "geometry_check.json").exists()
        assert not (tmp_path / "envroot").exists()

    def test_absolute_config_directory_ignores_env(self, tmp_path, monkeypatch):
        target = tmp_path / "absolute"
        cfg = write_cfg(tmp_path, directory=str(target))
        monkeypatch.setenv(cli.ENV_OUTPUT, str(tmp_path / "envroot"))
        assert cli.main(["geometry-check", "--config", str(cfg)]) == 0
        assert (target / "geometry_check.json").exists()


class TestCarlemanSweep:
    def test_small_sweep_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, a1="0.1", a2="0.05", M2="0.05")
        out = tmp_path / "out"
        code = cli.main(["carleman-sweep", "--config", str(cfg),
                         "--output-dir", str(out)])
        assert code == 0
        assert "carleman-sweep:" in capsys.readouterr().out
        doc = load_json(out / "carleman_summary.json")
        assert doc["n_fields"] == 2
        assert doc["sup_ratio"] >= 0.0
        assert isinstance(doc["stabilized"], bool)
        assert doc["q_inf"] > 0.0
        assert set(doc["certificates"]) == {"w1", "w2"}
        header = (out / "carleman_rows.csv").read_text().splitlines()[4]
        assert header == "field_id,s,lambda,lhs,rhs_residual,rhs_boundary,ratio"
        svg = (out / "carleman_ratios.svg").read_text()
        ET.fromstring(svg[svg.index("<svg"):])

    def test_one_flux_assembly_per_sweep(self, tmp_path, monkeypatch):
        # the suite's solves and the estimate share one CoefficientOnGrid
        calls = []
        assemble = pde._assemble_flux_matrix

        def counted(grid, coeff):
            calls.append(grid)
            return assemble(grid, coeff)

        monkeypatch.setattr(pde, "_assemble_flux_matrix", counted)
        cfg = write_cfg(tmp_path, a1="0.1", a2="0.05", M2="0.05")
        code = cli.main(["carleman-sweep", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert len(calls) == 1

    def test_pair_centre_at_the_interface_centre(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(set_key(TMPL.format(**DEFAULTS), "geometry", "x1", "0 0.0"))
        code = cli.main(["carleman-sweep", "--config", str(path),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert "carleman-sweep: fields=2" in capsys.readouterr().out

    def test_the_suite_is_walked_once_with_every_field_mirrored(
            self, tmp_path, monkeypatch):
        # at the template's T = 0.1 and n_half = 4, np.linspace's levels
        # and the march's dt k round apart; the suite has the march's
        # levels as its one exactly antisymmetric axis and is walked once
        walks = []
        walk = cc._walk

        def recorded(fields, *args):
            walks.append(fields)
            return walk(fields, *args)

        monkeypatch.setattr(cc, "_walk", recorded)
        code = cli.main(["carleman-sweep", "--config", str(write_cfg(tmp_path)),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert len(walks) == 1
        fields = walks[0]
        assert len(fields) == 2
        times = fields[0].times
        assert np.array_equal(times[::-1], -times)
        for fld in fields:
            assert np.array_equal(fld.times, times)
            assert fld.phase is not None

    def test_long_horizon_sweep_exits_0(self, tmp_path, capsys):
        # at T = 1e6 the march's last level (t_max / 23) 23 rounds 1.16e-10
        # past the clamp t_max = T - delta_t, beyond an absolute 1e-12
        text = TMPL.format(**DEFAULTS)
        for section, key, value in (("physics", "T", "1000000"),
                                    ("physics", "dt", "500000"),
                                    ("carleman", "n_half", "23")):
            text = set_key(text, section, key, value)
        path = tmp_path / "exp.ini"
        path.write_text(text)
        code = cli.main(["carleman-sweep", "--config", str(path),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert "carleman-sweep: fields=2" in capsys.readouterr().out

    def test_wrong_jump_sign_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path, a1="0.05", a2="0.1", M2="0.05")
        out = tmp_path / "out"
        code = cli.main(["carleman-sweep", "--config", str(cfg),
                         "--output-dir", str(out)])
        assert code == 3
        doc = load_json(out / "certification_failure.json")
        assert doc["report"]["a1"] == 0.05


class TestInvert:
    def test_invert_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["invert", "--config", str(cfg),
                         "--output-dir", str(out)])
        assert code == 0
        assert "invert:" in capsys.readouterr().out
        doc = load_json(out / "invert.json")
        assert doc["iterations"] >= 0
        assert isinstance(doc["stalled"], bool)
        assert doc["final_misfit"] <= doc["initial_misfit"]
        rows = (out / "invert.csv").read_text().splitlines()
        assert rows[4].count(",") == 8  # one data row, nine columns


class TestStability:
    def test_deterministic_and_seed_sensitive(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        for out in (out_a, out_b):
            assert cli.main(["stability", "--config", str(cfg),
                             "--output-dir", str(out)]) == 0
        records_a = (out_a / "stability_records.csv").read_bytes()
        assert records_a == (out_b / "stability_records.csv").read_bytes()
        summary_a = (out_a / "stability_summary.json").read_bytes()
        assert summary_a == (out_b / "stability_summary.json").read_bytes()

        assert cli.main(["stability", "--config", str(cfg), "--seed", "9",
                         "--output-dir", str(out_c)]) == 0
        assert records_a != (out_c / "stability_records.csv").read_bytes()

    def test_n_override_controls_record_count(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["stability", "--config", str(cfg), "--n", "2",
                         "--output-dir", str(out)]) == 0
        lines = (out / "stability_records.csv").read_text().splitlines()
        assert len(lines) == 4 + 1 + 2  # meta comments, header, two records
        svg = (out / "stability_scatter.svg").read_text()
        ET.fromstring(svg[svg.index("<svg"):])

    def test_scatter_draws_the_sweeps_own_fit(self, tmp_path, monkeypatch):
        # the sweep's line in ln, on log10 axes: the same slope and the
        # intercept divided by ln 10
        drawn, swept = {}, []
        scatter, sweep = cli.svgplot.scatter, inv.stability_sweep

        def spy_scatter(*args, **kwargs):
            drawn.update(kwargs)
            return scatter(*args, **kwargs)

        def spy_sweep(*args, **kwargs):
            swept.append(sweep(*args, **kwargs))
            return swept[-1]

        monkeypatch.setattr(cli.svgplot, "scatter", spy_scatter)
        monkeypatch.setattr(inv, "stability_sweep", spy_sweep)
        cfg = write_cfg(tmp_path)
        assert cli.main(["stability", "--config", str(cfg),
                         "--output-dir", str(tmp_path / "out")]) == 0
        result = swept[0]
        assert np.isfinite(result.loglog_slope)
        assert drawn["fit_slope"] == result.loglog_slope
        assert drawn["fit_intercept"] == result.loglog_intercept / np.log(10.0)

    def test_clipped_records_report_no_slope(self, tmp_path, capsys):
        # q_bound = 0 clips every perturbed potential to zero, so all
        # records coincide and there is no line to fit through them
        cfg = write_cfg(tmp_path, r_lower="0.5\nq_bound = 0")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["stability", "--config", str(cfg),
                             "--output-dir", str(out)])
        assert code == 0
        assert caught == []
        assert "slope=nan" in capsys.readouterr().out
        rows = (out / "stability_records.csv").read_text().splitlines()[5:]
        assert len(rows) == 3 and len({r.split(",", 1)[1] for r in rows}) == 1
        assert load_json(out / "stability_summary.json")["loglog_slope"] == "nan"
        svg = (out / "stability_scatter.svg").read_text()
        assert "<polyline" not in svg and "slope" not in svg

    @pytest.mark.parametrize("keys, flags, named", [
        # every trace distance is 0: the potential's change is below what
        # the trace resolves, at p = 0 for tiny amplitudes; a coefficient
        # that once hid every amplitude up to the template's 0.1 is now
        # outside the magnitude domain
        ({("physics", "p"): "constant 0",
          ("inverse", "amplitudes"): "1e-150 1e-150"}, [], "inverse.amplitudes"),
        ({("physics", "a1"): "1e150", ("physics", "a2"): "1e150"}, [],
         "physics.a1"),
        # every perturbation underflows, so none moves the potential
        ({("inverse", "amplitudes"): "1e-300 1e-300"}, [], "inverse.amplitudes"),
        ({("inverse", "n_perturbations"): "0"}, [], "inverse.n_perturbations"),
        ({}, ["--n", "0"], "inverse.n_perturbations"),
    ], ids=["zero-p-tiny-amplitudes", "huge-coefficients", "underflow",
            "no-perturbation", "n-flag-0"])
    def test_degenerate_sweep_names_a_key(self, tmp_path, capsys, keys, flags,
                                          named):
        text = TMPL.format(**DEFAULTS)
        for (section, key), value in keys.items():
            text = set_key(text, section, key, value)
        path = tmp_path / "exp.ini"
        path.write_text(text)
        out = tmp_path / "out"
        code = cli.main(["stability", "--config", str(path),
                         "--output-dir", str(out), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {named}: ")
        assert not out.exists()

    def test_negative_control_reports_uncertified(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, a1="1.0", a2="2.0")
        out = tmp_path / "out"
        code = cli.main(["stability", "--config", str(cfg),
                         "--output-dir", str(out)])
        assert code == 0  # sweep still runs; certification is reported
        assert "certified=False" in capsys.readouterr().out
        doc = load_json(out / "stability_summary.json")
        assert doc["certified"] is False
        assert doc["hypothesis_report"]["records"]["H2"]["ok"] is False


# hostile input: one key of the table (or a flag) set to drawn tokens,
# in place of its value in the template or, for a key the template leaves
# out, of its base value here
HOSTILE_TOKENS = ("nan", "inf", "-inf", "-1", "-0.5", "0", "junk", "1:x",
                  "1e300", "1e-300")
TEMPLATE_VALUES = {
    f"{section}.{line.split(' = ')[0]}": line.split(" = ")[1]
    for section, body in re.findall(r"\[(\w+)\]\n([^[]*)", TMPL.format(**DEFAULTS))
    for line in body.strip().splitlines()
    if " = " in line
}
BASE_VALUES = {"physics.ny": "9", "carleman.delta_t": "0.0015625",
               "carleman.cutoff": "0.1 0.2", "carleman.n_grid": "192",
               "inverse.q_bound": "10"}
NOT_FUZZED = {"output.directory"}  # a drawn path could point anywhere
FUZZED_KEYS = [
    (key.section, key.name, {**TEMPLATE_VALUES, **BASE_VALUES}.get(key.path))
    for key in cfgmod.KEYS if key.path not in NOT_FUZZED
]
FLAGS = [("", "--seed", ""), ("", "--n", "")]


def set_key(text, section, key, value):
    """text with section.key set to value, replacing or adding the line."""
    head, sep, rest = text.partition(f"[{section}]\n")
    lines = rest.split("\n")
    for i, line in enumerate(lines):
        if line.startswith(f"{key} = "):
            lines[i] = f"{key} = {value}"
            break
    else:
        lines.insert(0, f"{key} = {value}")
    return head + sep + "\n".join(lines)


@st.composite
def mutations(draw):
    section, key, value = draw(st.sampled_from(FUZZED_KEYS + FLAGS))
    if not section:  # flags take integers, anything else is a usage error
        return section, key, draw(st.sampled_from(("-1", "0", "-7")))
    tokens = value.split()
    if len(tokens) > 1 and draw(st.booleans()):
        return section, key, " ".join(reversed(tokens))
    i = draw(st.integers(0, len(tokens) - 1))
    tokens[i] = draw(st.sampled_from(HOSTILE_TOKENS))
    return section, key, " ".join(tokens)


class TestHostileInput:
    def test_every_table_key_has_a_base_value(self):
        missing = [(section, key) for section, key, value in FUZZED_KEYS
                   if value is None]
        assert missing == []
        assert not set(BASE_VALUES) & set(TEMPLATE_VALUES)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(mutation=mutations())
    @example(mutation=("carleman", "seed", "-1"))
    @example(mutation=("inverse", "seed", "-1"))
    @example(mutation=("", "--seed", "-1"))
    @example(mutation=("carleman", "cutoff", "0.5 0.2"))
    @example(mutation=("carleman", "cutoff", "0.2 0.6"))  # ball leaves the disk
    @example(mutation=("inverse", "amplitudes", "0 1e-1"))
    @example(mutation=("inverse", "r_lower", "5"))
    @example(mutation=("inverse", "q_bound", "0.5"))  # below q0 = constant 1.3
    @example(mutation=("geometry", "outer", "disk 0.0 0.0 2.0"))
    @example(mutation=("geometry", "x1", "0.3 0.0"))  # equal to x2
    @example(mutation=("geometry", "x1", "0 0.0"))  # the interface centre
    @example(mutation=("geometry", "x1", "-1 0.0"))  # outside the disk
    @example(mutation=("physics", "h", "zero"))
    @example(mutation=("carleman", "s", "1e300"))  # over the magnitude bound
    @example(mutation=("carleman", "lambda", "1e3"))  # e^{lambda psi_sup} overflows
    @example(mutation=("geometry", "x1", "-0.49 0"))  # psi_sup 5596 near the interface
    @example(mutation=("physics", "y0", "constant 1e300"))  # no state is formed
    @example(mutation=("carleman", "lambda", "15"))  # e^{2 lambda psi_sup} overflows
    @example(mutation=("carleman", "lambda", "7"))  # theta^3 overflows at the clamp
    @example(mutation=("physics", "a1", "1e300"))  # no weight or flux is built
    @example(mutation=("physics", "a2", "1e300"))  # nor the offset M1
    @example(mutation=("carleman", "n_grid", "100000"))  # the psi scan: 820 GB
    @example(mutation=("carleman", "n_fields", "100000000"))  # the suite's slabs
    @example(mutation=("physics", "nx", "100000"))  # the grid, at any T/dt
    @example(mutation=("inverse", "n_perturbations", "0"))  # no record
    @example(mutation=("inverse", "n_perturbations", "1000000000"))  # 8 GB
    @example(mutation=("", "--n", "1000000000"))
    @example(mutation=("", "--n", "0"))
    # at the magnitude bound and just above it, and at the smallest outer
    # side and just below each lower bound
    @example(mutation=("physics", "a1", "1e6"))
    @example(mutation=("physics", "a1", "1.000001e6"))
    @example(mutation=("physics", "y0", "cosine 2.0 1e6"))
    @example(mutation=("physics", "y0", "cosine 2.0 1.000001e6"))
    @example(mutation=("inverse", "noise", "1e6"))
    @example(mutation=("physics", "T", "1.000001e6"))
    @example(mutation=("geometry", "outer", "rect -1.0 1.0 -5e-7 5e-7"))
    @example(mutation=("geometry", "outer", "rect -1.0 1.0 -4.99e-7 4.99e-7"))
    @example(mutation=("physics", "dt", "9.99999e-7"))
    def test_every_subcommand_exits_cleanly_naming_the_key(self, mutation):
        section, key, value = mutation
        text = TMPL.format(**DEFAULTS)
        flags = [key, value] if not section else []
        if section:
            text = set_key(text, section, key, value)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "exp.ini"
            path.write_text(text)
            for sub in cli.HANDLERS:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = cli.main([sub, "--config", str(path), "--output-dir",
                                     str(Path(tmp) / sub), *flags])
                assert code in (0, 2, 3), (sub, mutation)
                if code == 0 and sub == "stability":
                    summary = load_json(Path(tmp) / sub / "stability_summary.json")
                    # a non-finite float is written as a string
                    assert isinstance(summary["empirical_C"], float), mutation
                if code == 2:
                    assert re.match(
                        r"config error: ([a-z]+\.\w+|--[a-z]+): ", err.getvalue()
                    ), (sub, mutation, err.getvalue())



def non_finite_numbers(directory):
    """(file, token) for each number in a JSON or CSV artifact under
    directory that is not finite; JSON writes such a float as a string."""
    found = []

    def walk(name, obj):
        if isinstance(obj, dict):
            for value in obj.values():
                walk(name, value)
        elif isinstance(obj, list):
            for value in obj:
                walk(name, value)
        elif isinstance(obj, str) and obj in ("nan", "inf", "-inf"):
            found.append((name, obj))

    for path in sorted(directory.glob("*.json")):
        walk(path.name, load_json(path))
    for path in sorted(directory.glob("*.csv")):
        for line in path.read_text().splitlines():
            if not line.startswith("#"):
                found += [(path.name, token) for token in line.split(",")
                          if token.lower().lstrip("-") in ("nan", "inf")]
    return found


def run_clean(text, subcommands=tuple(cli.HANDLERS)):
    """{subcommand: (exit code, stderr)} of each run on the config text,
    with warnings raised as errors; asserts that each exit 0 leaves only
    finite numbers in its artifacts and that each exit 2 or 3 names a
    key."""
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.ini"
        path.write_text(text)
        for sub in subcommands:
            out, err = Path(tmp) / sub, io.StringIO()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = cli.main([sub, "--config", str(path),
                                     "--output-dir", str(out)])
            assert code in (0, 2, 3), sub
            if code == 0:
                assert non_finite_numbers(out) == [], sub
            elif code == 2:
                assert re.match(r"config error: [a-z]+\.\w+: ", err.getvalue()), \
                    (sub, err.getvalue())
            else:
                assert load_json(out / "certification_failure.json"), sub
            codes[sub] = (code, err.getvalue())
    return codes


# the template shrunk to the smallest outer side and the smallest time step
SMALLEST = {("geometry", "outer"): "rect -5e-7 5e-7 -5e-7 5e-7",
            ("geometry", "interface"): "disk 2.5e-7",
            ("geometry", "x1"): "-1.5e-7 0.0", ("geometry", "x2"): "1.5e-7 0.0",
            ("physics", "T"): "2e-6", ("physics", "dt"): "1e-6",
            ("carleman", "delta_t"): "3.125e-8"}
BASES = {"template": {}, "smallest": SMALLEST}


def config_text(keys):
    text = TMPL.format(**DEFAULTS)
    for (section, key), value in keys.items():
        text = set_key(text, section, key, value)
    return text


def bounded_tokens():
    """(section, key, value, i) for each token i of a fuzzed value that the
    magnitude bound applies to: set to twice the bound, it is refused."""
    rows = {key.path: key for key in cfgmod.KEYS}
    found = []
    for section, key, value in FUZZED_KEYS:
        tokens = value.split()
        for i in range(len(tokens)):
            over = " ".join(tokens[:i] + [repr(2 * cfgmod.MAGNITUDE_MAX)]
                            + tokens[i + 1:])
            try:
                rows[f"{section}.{key}"].parse(over, "x.y")
            except cfgmod.ConfigError as exc:
                if "magnitude domain" in str(exc):
                    found.append((section, key, value, i))
    return found


CORNERS = [(base, section, key, value, i, sign)
           for base in BASES for section, key, value, i in bounded_tokens()
           for sign in (1.0, -1.0)]

# every physical magnitude at once at its bound, a2 at it or at 1 (the
# certified jump sign), and r_lower at the template's, below min |y0|
JOINT = {("physics", "a1"): "1e6", ("physics", "a2"): "{a2}",
         ("physics", "p"): "sine {v} {v}", ("physics", "y0"): "cosine {v} {v}",
         ("inverse", "q0"): "constant {v}", ("inverse", "noise"): "1e6",
         ("inverse", "beta"): "1e6", ("inverse", "amplitudes"): "1e6 1e6",
         ("carleman", "s"): "1e6 1e6", ("carleman", "M2"): "1e6"}


class TestMagnitudeDomain:
    def test_every_real_key_is_bounded(self):
        # the corners below reach every real token of the template
        assert {(section, key) for section, key, _, _ in bounded_tokens()} >= {
            ("geometry", "outer"), ("geometry", "interface"), ("physics", "a1"),
            ("physics", "a2"), ("physics", "p"), ("physics", "y0"),
            ("physics", "T"), ("physics", "dt"), ("inverse", "noise"),
            ("inverse", "q0"), ("carleman", "s"), ("carleman", "lambda")}

    @pytest.mark.parametrize(
        "base, section, key, value, i, sign", CORNERS,
        ids=[f"{c[0]}-{c[1]}.{c[2]}-{c[4]}-{'plus' if c[5] > 0 else 'minus'}"
             for c in CORNERS])
    def test_corner_runs_clean(self, base, section, key, value, i, sign):
        tokens = BASES[base].get((section, key), value).split()
        tokens[i] = repr(sign * cfgmod.MAGNITUDE_MAX)
        run_clean(config_text({**BASES[base], (section, key): " ".join(tokens)}))

    @pytest.mark.parametrize("base", list(BASES))
    @pytest.mark.parametrize("v", ["1e6", "-1e6"])
    @pytest.mark.parametrize("a2", ["1e6", "1"])
    @pytest.mark.parametrize("horizon", [None, ("1e6", "5e5")])
    def test_joint_corner_runs_clean(self, base, v, a2, horizon):
        keys = {**BASES[base],
                **{k: f.format(v=v, a2=a2) for k, f in JOINT.items()}}
        if horizon:
            keys[("physics", "T")], keys[("physics", "dt")] = horizon
            keys[("carleman", "delta_t")] = "1e4"
        run_clean(config_text(keys))

    @pytest.mark.parametrize("key, at_bound, below", [
        (("geometry", "interface"), "disk 1e-12", "disk 1e-300"),
        (("geometry", "interface"), "fourier 1e-12 2:1e-13",
         "fourier 1e-300 2:1e-301"),
        (("physics", "p"), "gaussian 1 1 0 0 1e-12", "gaussian 1 1 0 0 0"),
        (("physics", "y0"), "imag gaussian 2 1 0 0 -1e-12",
         "imag gaussian 2 1 0 0 0"),
        (("inverse", "q0"), "gaussian 1 1 0 0 1e-12", "gaussian 1 1 0 0 0"),
        (("carleman", "cutoff"), "0.2 0.200000000001", "1e-200 2e-200"),
    ], ids=["disk-radius", "fourier-radius", "p-width", "y0-width", "q0-width",
            "cutoff-gap"])
    def test_length_below_its_bound_names_its_key(self, key, at_bound, below):
        # below the bound, each once made numpy warn as r^2, the width^2 or
        # the gap^2 rounded to 0; at it, every subcommand runs clean
        run_clean(config_text({key: at_bound}))
        for sub, (code, err) in run_clean(config_text({key: below})).items():
            assert code == 2, sub
            assert err.startswith(f"config error: {'.'.join(key)}: "), (sub, err)

    @pytest.mark.parametrize("subcommands, keys, named", [
        (("solve-forward", "invert", "stability"),
         {("geometry", "outer"): "rect -1e-200 1e-200 -1e-200 1e-200",
          ("geometry", "interface"): "disk 5e-201"}, "geometry.outer"),
        (("solve-forward", "invert", "stability"),
         {("geometry", "outer"): "rect -1e200 1e200 -1e200 1e200",
          ("geometry", "interface"): "disk 5e199"}, "geometry.outer"),
        (("invert",), {("physics", "T"): "1e300", ("physics", "dt"): "5e299"},
         "physics.T"),
        (("invert",), {("inverse", "noise"): "1e300"}, "inverse.noise"),
        (("carleman-sweep",), {("physics", "p"): "constant 1e300"}, "physics.p"),
        (("carleman-sweep",), {("physics", "a1"): "1e100",
                               ("physics", "a2"): "1e99"}, "physics.a1"),
    ], ids=["tiny-geometry", "huge-geometry", "huge-T", "huge-noise",
            "huge-p-sweep", "huge-coefficients-sweep"])
    def test_escape_names_its_key(self, subcommands, keys, named):
        # each once ended in a traceback, named another key, or exited 0
        # with a degenerate number
        for sub, (code, err) in run_clean(config_text(keys), subcommands).items():
            assert code == 2, sub
            assert err.startswith(f"config error: {named}: "), (sub, err)
