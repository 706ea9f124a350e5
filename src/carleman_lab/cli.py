"""Command-line orchestration of the canonical experiments.

Subcommands: geometry-check, weight-verify, solve-forward,
carleman-sweep, invert, stability.  Each reads one INI config (see
config.py for the schema), writes deterministic artifacts into the
output directory, and prints a one-line summary.

Exit codes: 0 success, 2 schema violation (message carries the
section.key path), a --config file that cannot be read, or an output
directory that cannot be written (message names --config, --output-dir
or output.directory), 3 certification failure (the hypothesis report is
printed and written alongside).

The output root can be set with the CARLEMAN_LAB_OUTPUT environment
variable: relative output directories from the config are created under
it.  An explicit --output-dir bypasses both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import carleman_check as cc
from . import config as cfgmod
from . import geometry as geo
from . import inverse as inv
from . import outputs
from . import pde_solver as pde
from . import svgplot
from . import weight as wt
from .config import ConfigError

ENV_OUTPUT = "CARLEMAN_LAB_OUTPUT"

# The config key of each parameter a ParamsOverflow can blame.
BLAMED_KEYS = {key.name: key.path for key in cfgmod.KEYS
               if key.name in ("lambda", "s", "delta_t", "a2")}

# Bound on the bytes of one field stack, levels x nx x ny complex values
# (physics.dt, carleman.n_half, carleman.n_fields), checked before it is
# allocated.
MAX_FIELD_BYTES = 2**30

# The stability theory assumes the state is H1 in time with values in
# L-infinity; no grid-level test certifies that, so smooth config data
# stands in as a proxy and the gap is recorded in the run metadata.
REGULARITY_NOTE = (
    "smooth data proxy: H1-in-time, L-infinity-in-space regularity of the "
    "state is assumed, not certified on the grid"
)


class CertificationFailure(Exception):
    """Internal: a required hypothesis certificate did not hold."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


def resolve_output_dir(cfg, cli_dir) -> Path:
    if cli_dir:
        return Path(cli_dir)
    configured = Path(cfg.output.directory)
    root = os.environ.get(ENV_OUTPUT)
    if root and not configured.is_absolute():
        return Path(root) / configured
    return configured


def _check_field_size(cfg, grid, levels, fewest, key):
    """A ConfigError unless a stack of levels x nx x ny complex values fits
    MAX_FIELD_BYTES.  It names key, which sets levels, unless the stack is
    over the bound even at key's fewest levels: then it names the grid
    key, physics.ny when it is set, else physics.nx."""
    nodes = grid.nx * grid.ny
    if fewest * nodes * 16 > MAX_FIELD_BYTES:
        key = "physics.nx" if cfg.physics.ny is None else "physics.ny"
    size = levels * nodes * 16
    if size > MAX_FIELD_BYTES:
        raise ConfigError(f"{key}: the field stack needs {size} bytes, "
                          f"over the bound of {MAX_FIELD_BYTES}")


def _check_forward_size(cfg, grid):
    """The forward field has T/dt + 1 levels, at least 3."""
    _check_field_size(cfg, grid, cfg.physics.n_steps + 1, 3, "physics.dt")


def _build_instance(cfg):
    grid = cfgmod.build_grid(cfg)
    _check_forward_size(cfg, grid)
    coeff = cfgmod.build_coefficient(cfg, grid.layout)
    p = cfgmod.real_profile(cfg.physics.p, grid)
    y0 = cfgmod.complex_profile(cfg.physics.y0, grid)
    try:
        return inv.make_instance(
            grid, coeff, p, y0, cfg.physics.T, cfg.physics.n_steps,
            noise_level=cfg.inverse.noise, seed=cfg.inverse.seed,
            r_lower=cfg.inverse.r_lower, q_bound=cfg.inverse.q_bound,
        )
    except inv.InitialStateTooSmall as exc:
        raise ConfigError(f"inverse.r_lower: {exc}") from None


def _write(cfg, out_dir: Path, subcommand: str, artifacts: dict, **meta) -> None:
    """Write, under one meta stamp, each artifact of artifacts (a file name
    mapped to its content) whose suffix output.formats lists: a csv is
    (columns, rows), a json its payload, an svg its document."""
    stamp = outputs.make_meta(cfgmod.config_hash(cfg), subcommand, **meta)
    for name, content in artifacts.items():
        fmt = name.rpartition(".")[2]
        if fmt in cfg.output.formats:
            args = content if fmt == "csv" else (content,)
            # looked up per call, so a wrapper bound over a writer (the
            # benchmark's tracer) sees every write
            getattr(outputs, f"write_{fmt}")(out_dir / name, stamp, *args)


# --------------------------------------------------------------------------
# subcommand handlers; each returns the exit status


def run_geometry_check(cfg, out_dir: Path) -> int:
    layout = cfgmod.build_layout(cfg)
    min_curv, ok = geo.certify_strong_convexity(layout.interface)
    payload = {
        "min_curvature": float(min_curv),
        "ok": bool(ok),
        "clearance": float(layout.clearance),
        "n_samples": int(layout.interface.n_samples),
    }
    _write(cfg, out_dir, "geometry-check", {"geometry_check.json": payload})
    print(f"geometry-check: min_curvature={min_curv:.6g} ok={ok}")
    if not ok:
        raise CertificationFailure("interface is not strongly convex", payload)
    return 0


def run_weight_verify(cfg, out_dir: Path) -> int:
    layout = cfgmod.build_layout(cfg)
    a1, a2 = cfg.physics.a1, cfg.physics.a2
    try:
        w = wt.build_weight(
            layout, cfg.geometry.x0, a1, a2,
            M2=wt.certifiable_m2(cfg.carleman.M2, a1, a2),
            cutoff_radii=cfg.carleman.cutoff,
            enforce_jump_sign=False,
        )
    except wt.CutoffError as exc:
        raise ConfigError(f"carleman.cutoff: {exc}") from None
    except geo.GeometryError as exc:
        raise ConfigError(f"geometry.x0: {exc}") from None
    report = wt.verify_hypotheses(w)
    payload = report.as_dict()
    _write(cfg, out_dir, "weight-verify", {"weight_verify.json": payload})
    worst = min(payload["records"].values(), key=lambda r: r["margin"])
    print(
        f"weight-verify: all_ok={payload['all_ok']} "
        f"worst_margin={worst['margin']:.6g}"
    )
    if not report.all_ok:
        raise CertificationFailure("weight hypotheses failed", payload)
    return 0


def run_solve_forward(cfg, out_dir: Path) -> int:
    grid = cfgmod.build_grid(cfg)
    _check_forward_size(cfg, grid)
    coeff = pde.CoefficientOnGrid(
        cfgmod.build_coefficient(cfg, grid.layout), grid
    )
    p = cfgmod.real_profile(cfg.physics.p, grid)
    y0 = cfgmod.complex_profile(cfg.physics.y0, grid)
    norm0 = grid.l2_norm(y0)
    if norm0 == 0.0:
        raise ConfigError("physics.y0: the initial state's L2 norm is 0, "
                          "so the relative drift is undefined")
    field = pde.solve_forward(
        grid, coeff, p, y0, 0.0, cfg.physics.T, cfg.physics.n_steps,
        boundary=inv._rim_data(grid, y0),
    )
    trace = pde.neumann_trace(field, coeff)
    trace_h1l2 = pde.h1l2_boundary_norm(trace)

    norms = np.array([grid.l2_norm(field.values[n]) for n in range(field.nt)])
    drift = float(np.max(np.abs(norms - norms[0])) / norms[0])
    trace_l2 = np.sqrt((np.abs(trace.values) ** 2) @ trace.weights)

    columns = ("t", "solution_l2", "trace_l2")
    rows = [tuple(map(float, row)) for row in zip(field.times, norms, trace_l2)]
    _write(cfg, out_dir, "solve-forward", {
        "forward_trace.csv": (columns, rows),
        "forward_summary.json": {
            "n_steps": cfg.physics.n_steps,
            "l2_drift": drift,
            "final_l2": float(norms[-1]),
            "trace_h1l2": trace_h1l2,
        },
    })
    print(f"solve-forward: steps={cfg.physics.n_steps} drift={drift:.3e}")
    return 0


def run_carleman_sweep(cfg, out_dir: Path) -> int:
    grid = cfgmod.build_grid(cfg)
    # a suite field has 2 n_half + 1 levels, at least 5; the walk holds
    # every field's slab with its halo at once
    levels = 2 * cfg.carleman.n_half + 1
    _check_field_size(cfg, grid, levels, 5, "carleman.n_half")
    window = min(cc.SLAB + 2, levels)
    _check_field_size(cfg, grid, cfg.carleman.n_fields * window, window,
                      "carleman.n_fields")
    q = cfgmod.real_profile(cfg.physics.p, grid)

    for key in ("x1", "x2"):
        try:
            wt._check_center(grid.layout.interface, getattr(cfg.geometry, key))
        except geo.GeometryError as exc:
            raise ConfigError(f"geometry.{key}: {exc}") from None
    try:
        pair = wt.build_epsilon_pair(
            grid.layout, cfg.geometry.x1, cfg.geometry.x2,
            cfg.physics.a1, cfg.physics.a2, M2=cfg.carleman.M2,
        )
    except wt.JumpSignError as exc:
        raise CertificationFailure(str(exc), {
            "error": str(exc),
            "a1": cfg.physics.a1,
            "a2": cfg.physics.a2,
        }) from None
    except geo.GeometryError as exc:
        # each centre is inside on its own, so what failed (distinct
        # centres, ball fit, domination) depends on both; x2 is named as
        # the centre placed against x1
        raise ConfigError(f"geometry.x2: {exc}") from None
    reports = {}
    for name, w in (("w1", pair.w1), ("w2", pair.w2)):
        report = wt.verify_hypotheses(w)
        reports[name] = report.as_dict()
        if not report.all_ok:
            raise CertificationFailure(
                f"weight {name} failed certification", reports[name]
            )

    n_solved = (cfg.carleman.n_fields + 1) // 2
    n_manufactured = cfg.carleman.n_fields - n_solved
    # the suite's solves and the estimate share one flux matrix
    on_grid = cc.PairOnGrid(pair, grid)
    fields = cc.build_test_suite(
        grid, on_grid.coeff, q, cfg.physics.T,
        delta_t=cfg.carleman.delta_t, n_steps=cfg.carleman.n_half,
        seed=cfg.carleman.seed, n_solved=n_solved,
        n_manufactured=n_manufactured,
    )
    try:
        sweep = cc.constant_sweep(
            fields, cfg.carleman.s, cfg.carleman.lam, on_grid,
            n_grid=cfg.carleman.n_grid,
        )
    except cc.NonFiniteReport as exc:
        # a weight factor e^(k lambda psi) tau^k overflowed at a node
        raise ConfigError(f"carleman.lambda: {exc}") from None

    row_columns = ("field_id", "s", "lambda", "lhs", "rhs_residual",
                   "rhs_boundary", "ratio")
    table_columns = ("s", "lambda", "max_ratio")
    series = []
    for lam in sorted({r["lambda"] for r in sweep.table}):
        pts = sorted(
            (r["s"], r["max_ratio"]) for r in sweep.table if r["lambda"] == lam
        )
        series.append((
            f"lambda={lam:g}", [p[0] for p in pts], [p[1] for p in pts]
        ))
    _write(cfg, out_dir, "carleman-sweep", {
        "carleman_rows.csv": (
            row_columns,
            [tuple(r[c] for c in row_columns) for r in sweep.rows]),
        "carleman_table.csv": (
            table_columns,
            [tuple(r[c] for c in table_columns) for r in sweep.table]),
        "carleman_summary.json": {
            "sup_ratio": sweep.sup_ratio,
            "stabilized": sweep.stabilized,
            "q_inf": sweep.q_inf,
            "tail_bound": sweep.tail_bound,
            "n_fields": len(fields),
            "certificates": reports,
        },
        "carleman_ratios.svg": svgplot.lines(
            series, xlabel="s", ylabel="max ratio lhs/rhs",
            title="Carleman ratio across the sweep"),
    }, seed=cfg.carleman.seed)
    print(
        f"carleman-sweep: fields={len(fields)} sup_ratio={sweep.sup_ratio:.6g} "
        f"stabilized={sweep.stabilized}"
    )
    return 0


def run_invert(cfg, out_dir: Path) -> int:
    instance = _build_instance(cfg)
    q0 = cfgmod.real_profile(cfg.inverse.q0, instance.grid)
    try:
        inv._check_q(q0, instance)
    except ValueError as exc:
        raise ConfigError(f"inverse.q0: {exc}") from None
    result = inv.reconstruct(
        instance, q0, beta=cfg.inverse.beta, max_iter=cfg.inverse.max_iter
    )
    payload = result.as_dict()
    payload["regularity_note"] = REGULARITY_NOTE
    columns = ("iterations", "initial_misfit", "final_misfit", "beta",
               "relative_error", "grad_norm", "converged", "stop_reason",
               "stalled")
    _write(cfg, out_dir, "invert", {
        "invert.json": payload,
        "invert.csv": (columns, [tuple(payload[c] for c in columns)]),
    }, seed=cfg.inverse.seed)
    print(
        f"invert: iterations={result.iterations} "
        f"relative_error={result.relative_error:.4g} "
        f"stop={result.stop_reason!r}"
    )
    return 0


def run_stability(cfg, out_dir: Path) -> int:
    # --n sets the sweep size past the table's bound on the key
    n = cfg.inverse.n_perturbations
    if n > cfgmod.N_PERTURBATIONS_MAX:
        raise ConfigError(f"inverse.n_perturbations: must be <= "
                          f"{cfgmod.N_PERTURBATIONS_MAX}, got {n}")
    instance = _build_instance(cfg)
    try:
        sweep = inv.stability_sweep(
            instance, n_perturbations=n,
            amplitude_range=cfg.inverse.amplitudes, seed=cfg.inverse.seed,
        )
    except inv.DegenerateSweep as exc:
        # with perturbations drawn, the amplitudes are what moved the
        # potential too little, or too little for the trace to see
        key = "inverse.n_perturbations" if n == 0 else "inverse.amplitudes"
        raise ConfigError(f"{key}: {exc}") from None
    columns = ("amplitude", "potential_distance", "trace_distance", "ratio")
    payload = sweep.summary()
    payload["hypothesis_report"] = sweep.hypothesis_report.as_dict()
    payload["regularity_note"] = REGULARITY_NOTE
    slope = intercept = None
    if np.isfinite(sweep.loglog_slope):  # the sweep's ln line on log10 axes
        slope, intercept = sweep.loglog_slope, sweep.loglog_intercept / np.log(10.0)
    label = "certified" if sweep.certified else "uncertified"
    _write(cfg, out_dir, "stability", {
        "stability_records.csv": (
            columns,
            [tuple(getattr(r, c) for c in columns) for r in sweep.records]),
        "stability_summary.json": payload,
        "stability_scatter.svg": svgplot.scatter(
            [r.trace_distance for r in sweep.records],
            [r.potential_distance for r in sweep.records],
            xlabel="trace distance (H1 in time, L2 on the rim)",
            ylabel="potential distance (L2)",
            title=f"Stability sweep ({label})",
            fit_slope=slope, fit_intercept=intercept,
        ),
    }, seed=cfg.inverse.seed)
    print(
        f"stability: n={len(sweep.records)} empirical_C={sweep.empirical_C:.6g} "
        f"slope={sweep.loglog_slope:.3f} certified={sweep.certified}"
    )
    return 0


HANDLERS = {
    "geometry-check": run_geometry_check,
    "weight-verify": run_weight_verify,
    "solve-forward": run_solve_forward,
    "carleman-sweep": run_carleman_sweep,
    "invert": run_invert,
    "stability": run_stability,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carleman-lab",
        description="Carleman weight certification, transmission "
                    "Schrodinger solves, and inverse-potential experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--output-dir", default=None,
                       help="override the output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seeds in the config")
        p.add_argument("--n", type=int, default=None,
                       help="override the ensemble size (fields or "
                            "perturbations)")
    return parser


def _config_error(message: str) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return 2


def _run(subcommand: str, cfg, out_dir: Path) -> int:
    try:
        return HANDLERS[subcommand](cfg, out_dir)
    except wt.ParamsOverflow as exc:
        return _config_error(f"{BLAMED_KEYS[exc.name]}: {exc}")
    except (ConfigError, ValueError, geo.GeometryError, pde.SolverError) as exc:
        return _config_error(str(exc))
    except CertificationFailure as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        print(json.dumps(outputs.jsonable(exc.report), sort_keys=True,
                         indent=2), file=sys.stderr)
        outputs.write_json(
            out_dir / "certification_failure.json",
            outputs.make_meta(cfgmod.config_hash(cfg), subcommand),
            {"failure": str(exc), "report": exc.report},
        )
        return 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = cfgmod.load_config(args.config)
        cfg = cfgmod.apply_overrides(cfg, seed=args.seed, n=args.n)
    except (OSError, UnicodeDecodeError) as exc:
        reason = ("file not found" if isinstance(exc, FileNotFoundError)
                  else getattr(exc, "strerror", None) or exc)
        return _config_error(f"--config: cannot read {args.config}: {reason}")
    except ConfigError as exc:
        return _config_error(str(exc))

    out_dir = resolve_output_dir(cfg, args.output_dir)
    try:
        return _run(args.subcommand, cfg, out_dir)
    except OSError as exc:
        # a subcommand's only I/O is writing its artifacts into out_dir
        key = "--output-dir" if args.output_dir else "output.directory"
        return _config_error(f"{key}: cannot write into {out_dir}: "
                             f"{exc.strerror or exc}")


if __name__ == "__main__":
    sys.exit(main())
