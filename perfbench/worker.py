"""One benchmark process: a single carleman-lab CLI call, or the scaling series.

Usage (run.py starts it with PYTHONPATH pointing at the package sources):

    python3 perfbench/worker.py --result R.json --mode plain -- <cli args>
    python3 perfbench/worker.py --result R.json --mode trace \
        --spans S.npz -- <cli args>

Modes:
  plain    run ``cli.main`` and time the subcommand handler
  probe    run ``cli.main`` with the handler replaced by a no-op, so only
           start-up, the ``carleman_lab.cli`` import and config loading run
  trace    like plain, with every layer wrapped by tracer.Tracer; the
           per-layer metrics are added to the result and the spans are
           written to the --spans file
  scaling  time one forward solve and one misfit gradient at nx = 33, 65
           and 129 on the physics of the given config (no CLI call)

The result file holds CLOCK_MONOTONIC timestamps, so the parent can take
the set-up time from its own launch timestamp, and the peak RSS.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

SCALING_NX = (33, 65, 129)
SCALING_REPEATS = 3


def _run_cli(mode: str, argv: list[str], result: dict):
    """Run cli.main(argv) in this process; returns (exit code, tracer)."""
    t_import = time.monotonic()
    from carleman_lab import cli
    result["import_s"] = time.monotonic() - t_import

    tracer = None
    subcommand = argv[0]
    handler = cli.HANDLERS[subcommand]
    if mode == "probe":
        def handler(cfg, out_dir):
            return 0
    elif mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        handler = tracer.wrap(f"cli.{subcommand}", handler)

    def timed(cfg, out_dir):
        result["handler_start"] = time.monotonic()
        try:
            return handler(cfg, out_dir)
        finally:
            result["handler_end"] = time.monotonic()

    cli.HANDLERS[subcommand] = timed
    rc = cli.main(argv)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        layers = tracer.summarize()
        layers["cli.import_s"] = result["import_s"]
        result["layers"] = layers
    return rc, tracer


def _scaling(config_path: str, result: dict) -> int:
    """Forward-solve and misfit-gradient cost against grid size."""
    import dataclasses

    from carleman_lab import config as cfgmod
    from carleman_lab import inverse as inv
    from carleman_lab import pde_solver as pde
    from tracer import lu_fill_nnz

    base = cfgmod.load_config(config_path)
    metrics = {}
    for nx in SCALING_NX:
        cfg = dataclasses.replace(
            base, physics=dataclasses.replace(base.physics, nx=nx, ny=None))
        grid = cfgmod.build_grid(cfg)
        coeff = cfgmod.build_coefficient(cfg, grid.layout)
        p = cfgmod.real_profile(cfg.physics.p, grid)
        y0 = cfgmod.complex_profile(cfg.physics.y0, grid)
        T, n_steps = cfg.physics.T, cfg.physics.n_steps
        instance = inv.make_instance(grid, coeff, p, y0, T, n_steps,
                                     r_lower=cfg.inverse.r_lower)
        q0 = cfgmod.real_profile(cfg.inverse.q0, grid)
        fwd, grad = [], []
        for _ in range(SCALING_REPEATS):
            t0 = time.perf_counter()
            pde.solve_forward(grid, coeff, p, y0, 0.0, T, n_steps,
                              boundary=instance.boundary)
            t1 = time.perf_counter()
            inv.misfit_and_gradient(q0, instance, cfg.inverse.beta, q0)
            t2 = time.perf_counter()
            fwd.append(t1 - t0)
            grad.append(t2 - t1)
        nnz = lu_fill_nnz(pde.SchrodingerOperator(grid, coeff, p, T / n_steps))
        metrics[f"scaling.forward_solve.s.nx{nx}"] = statistics.median(fwd)
        metrics[f"scaling.misfit_grad.s.nx{nx}"] = statistics.median(grad)
        metrics[f"scaling.lu_fill_nnz.nx{nx}"] = nnz[1] if nnz else 0
    result["layers"] = metrics
    return 0


def main(args: list[str]) -> int:
    split = args.index("--")
    opts, argv = args[:split], args[split + 1:]
    result_path = opts[opts.index("--result") + 1]
    mode = opts[opts.index("--mode") + 1]
    result = {"mode": mode}
    tracer = None
    if mode == "scaling":
        rc = _scaling(argv[0], result)
    else:
        rc, tracer = _run_cli(mode, argv, result)
    result["rc"] = rc
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(opts[opts.index("--spans") + 1])
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
