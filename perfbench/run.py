"""carleman-lab benchmark: three CLI workloads, timed end to end or traced.

    python3 perfbench/run.py --workload {sweep,invert,stability-fine} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (the package is imported from ``src/``).
Every CLI call runs in a fresh process (perfbench/worker.py) with BLAS and
OpenMP pinned to one thread, writes into a fresh temporary directory under
``.perfbench_tmp/`` and has its artifacts checked.  The loop is closed:
one process, one experiment at a time.

``--seed N`` is passed to the CLI as ``--seed N``; without it the seeds
shipped in the configs are used.  ``invert`` does not depend on the seed
while the config's ``inverse.noise`` is 0.

With ``--trace 0`` the run repeats the workload for about ``--seconds``
seconds after SETUP_PROBES set-up-only calls, and reports medians:

  setup_s      launch of the process until ``carleman_lab.cli`` is imported
               and the config is loaded (median over every call of the run)
  wall_s       the subcommand handler: config loaded to artifacts written
  peak_rss_mb  peak resident memory of one workload process

Both times are given at a fixed reference CPU speed.  Every workload process
runs pinned to one CPU, beside calibrate.py, which times a small fixed
kernel on that CPU every 40 ms.  A measured interval is multiplied by the
mean over its kernel samples of REF_KERNEL_S / kernel time, the CPU's mean
speed relative to the reference, so that the load other tenants put on a
shared host, which changes one CPU's speed by tens of percent within
seconds, cancels out.  The summary line also gives the raw
medians and the host's median slow-down against the reference.

With ``--trace 1`` it makes one run with every layer traced (tracer.py),
one untraced run before and one after it (for ``trace_overhead``) and one
grid-scaling run, and reports PER_LAYER.  The traced run's spans are kept
in ``.perfbench_tmp/<workload>-spans.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a readable summary that also gives the failure rate and, for invert,
the reconstruction's relative error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_DIR = ".perfbench_tmp"

# Set-up-only calls made before the timed repetitions of an untraced run.
SETUP_PROBES = 3
# Reported times are rescaled to a CPU on which one run of calibrate.py's
# kernel takes this long (0.9 to 1.5 ms on a 2-vCPU Intel Xeon KVM guest,
# depending on the load of the host).
REF_KERNEL_S = 1.0e-3
# Fewest kernel samples an interval is normalised with.
MIN_KERNEL_SAMPLES = 5
# Each run ends within this many seconds, whatever --seconds says.
RUN_DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Acceptance criterion 6 pins the sweep's sup ratio at the shipped seed.
SWEEP_SUP_PIN = 38624.666633
SWEEP_SUP_REL = 0.10
# invert on configs/default.ini reaches this relative L2 error; a run that
# ends more than INVERT_ERROR_SLACK above it has traded accuracy for time.
INVERT_ERROR_PIN = 0.07357
INVERT_ERROR_SLACK = 0.02
STABILITY_SLOPE = (0.8, 1.2)
STABILITY_FINE_NX = 129

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("config.load_s", "s"), ("cli.import_s", "s"),
    ("geometry.classify.count", "count"), ("geometry.classify.s", "s"),
    ("weight.eval.count", "count"), ("weight.eval.s", "s"),
    ("weight.verify.count", "count"), ("weight.verify.s", "s"),
    ("weight.fit_params.count", "count"), ("weight.fit_params.s", "s"),
    ("weight.pair.s", "s"),
    ("pde_solver.flux_assembly.count", "count"),
    ("pde_solver.flux_assembly.s", "s"),
    ("pde_solver.lu_factor.count", "count"), ("pde_solver.lu_factor.s", "s"),
    ("pde_solver.lu_fill_nnz", "count"),
    ("pde_solver.lu_solve_bytes_computed", "B"),
    ("pde_solver.cn_step.count", "count"), ("pde_solver.cn_step.s", "s"),
    ("pde_solver.forward_solve.count", "count"),
    ("pde_solver.forward_solve.s", "s"),
    ("pde_solver.trace_operator.count", "count"),
    ("pde_solver.trace_operator.s", "s"),
    ("pde_solver.neumann_trace.count", "count"),
    ("pde_solver.neumann_trace.s", "s"),
    ("carleman_check.ratio.count", "count"),
    ("carleman_check.ratio.ms_p50", "ms"),
    ("carleman_check.ratio.ms_tail", "ms"),
    ("carleman_check.ratio.tail_pct", "%"),
    ("carleman_check.conjugation.s", "s"), ("carleman_check.p1.s", "s"),
    ("carleman_check.p2.s", "s"), ("carleman_check.weighted_norm.s", "s"),
    ("carleman_check.residual.s", "s"),
    ("carleman_check.boundary_term.s", "s"),
    ("carleman_check.suite_build.s", "s"),
    ("carleman_check.np_gradient.count", "count"),
    ("inverse.iterations", "count"),
    ("inverse.misfit.count", "count"), ("inverse.misfit.s", "s"),
    ("inverse.misfit_grad.count", "count"), ("inverse.misfit_grad.s", "s"),
    ("inverse.adjoint.s", "s"),
    ("inverse.accept_ratio", "1"), ("inverse.solves_per_iter", "1"),
    ("inverse.iters_to_plateau", "count"),
    ("inverse.trace_distance.count", "count"),
    ("inverse.trace_distance.ms_p50", "ms"),
    ("inverse.trace_distance.ms_tail", "ms"),
    ("inverse.trace_distance.tail_pct", "%"),
    ("inverse.instance.count", "count"), ("inverse.instance.s", "s"),
    ("outputs.write.count", "count"), ("outputs.write.s", "s"),
    ("outputs.write.bytes", "B"),
    ("layer.cli.s", "s"), ("layer.geometry.s", "s"), ("layer.weight.s", "s"),
    ("layer.pde_solver.s", "s"), ("layer.carleman_check.s", "s"),
    ("layer.inverse.s", "s"), ("layer.config.s", "s"),
    ("layer.outputs.s", "s"),
    ("run.traced_wall_s", "s"), ("trace_overhead", "1"),
) + tuple(
    (f"scaling.{what}.nx{nx}", unit)
    for what, unit in (("forward_solve.s", "s"), ("misfit_grad.s", "s"),
                       ("lu_fill_nnz", "count"))
    for nx in (33, 65, 129)
)


class CheckFailed(Exception):
    """A workload's artifacts do not show a correct run."""


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def check_sweep(out: Path, cfg: configparser.ConfigParser, shipped: bool) -> dict:
    car = cfg["carleman"]
    expected = (int(car["n_fields"]) * len(car["s"].split())
                * len(car["lambda"].split()))
    ratios = [float(r["ratio"]) for r in _rows(out / "carleman_rows.csv")]
    _require(len(ratios) == expected, f"{len(ratios)} rows, want {expected}")
    _require(all(math.isfinite(r) for r in ratios), "non-finite ratio")
    summary = _json(out / "carleman_summary.json")
    sup = summary["sup_ratio"]
    _require(isinstance(sup, float) and sup == max(ratios),
             f"sup_ratio {sup} is not the largest row ratio")
    if shipped:
        _require(summary["stabilized"] is True, "sweep not stabilized")
        _require(abs(sup / SWEEP_SUP_PIN - 1.0) <= SWEEP_SUP_REL,
                 f"sup_ratio {sup} outside the criterion-6 pin")
    return {"sup_ratio": sup, "stabilized": summary["stabilized"]}


def check_invert(out: Path, cfg: configparser.ConfigParser, shipped: bool) -> dict:
    res = _json(out / "invert.json")
    _require(res["stalled"] is False, "reconstruction stalled")
    _require(res["final_misfit"] <= res["initial_misfit"],
             "final misfit above the initial misfit")
    err = res["relative_error"]
    _require(isinstance(err, float) and math.isfinite(err),
             f"relative error {err!r} is not finite")
    _require(err <= INVERT_ERROR_PIN * (1.0 + INVERT_ERROR_SLACK),
             f"relative error {err} above {INVERT_ERROR_PIN} by more than "
             f"{INVERT_ERROR_SLACK:.0%}")
    return {"rel_error": err, "iterations": res["iterations"]}


def check_stability(out: Path, cfg: configparser.ConfigParser, shipped: bool) -> dict:
    want = int(cfg["inverse"]["n_perturbations"])
    rows = _rows(out / "stability_records.csv")
    _require(len(rows) == want, f"{len(rows)} records, want {want}")
    _require(all(math.isfinite(float(r["ratio"])) for r in rows),
             "non-finite stability ratio")
    summary = _json(out / "stability_summary.json")
    _require(summary["n_records"] == want, "summary record count")
    _require(summary["certified"] is True, "instance not certified")
    slope = summary["loglog_slope"]
    lo, hi = STABILITY_SLOPE
    _require(isinstance(slope, float) and lo <= slope <= hi,
             f"log-log slope {slope!r} outside [{lo}, {hi}]")
    return {"slope": slope}


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: str
    check: Callable
    seed_section: str          # config section that holds the shipped seed
    nx: Optional[int] = None   # grid override written to a generated config

    def write_config(self, run_dir: Path) -> tuple[Path, configparser.ConfigParser]:
        """The config this run uses: the shipped one, or a copy with nx set."""
        cfg = configparser.ConfigParser()
        cfg.optionxform = str   # keys such as physics.T are case-sensitive
        src = ROOT / self.config
        cfg.read(src)
        if self.nx is None:
            return src, cfg
        cfg["physics"]["nx"] = str(self.nx)
        path = run_dir / f"nx{self.nx}.ini"
        with open(path, "w") as fh:
            cfg.write(fh)
        return path, cfg


# stability-fine is not among the gated workloads in BENCHMARK.json: its
# large SuperLU factorisations slow down more than calibrate.py's kernel
# when the host is busy, so its normalised wall_s still spreads by about
# 0.11 of the median across runs.  It stays runnable, and traced, here.
WORKLOADS = {wl.name: wl for wl in (
    Workload("sweep", "carleman-sweep", "configs/carleman.ini", check_sweep,
             "carleman"),
    Workload("invert", "invert", "configs/default.ini", check_invert,
             "inverse"),
    Workload("stability-fine", "stability", "configs/default.ini",
             check_stability, "inverse", nx=STABILITY_FINE_NX),
)}


def cpu_speed(samples: list, start: float, end: float) -> float:
    """Mean CPU speed, relative to the reference, over [start, end].

    Samples are evenly spaced in time, so the mean of their speeds is the
    speed averaged over the interval.  A kernel run that the workload
    interrupts reads as a near-zero speed, which moves the mean little.
    An interval with fewer than MIN_KERNEL_SAMPLES samples uses the
    MIN_KERNEL_SAMPLES taken nearest to it."""
    inside = [k for t, k in samples if start <= t <= end]
    if len(inside) < MIN_KERNEL_SAMPLES:
        mid = 0.5 * (start + end)
        nearest = sorted(samples, key=lambda s: abs(s[0] - mid))
        inside = [k for _, k in nearest[:MIN_KERNEL_SAMPLES]]
    return statistics.fmean(REF_KERNEL_S / k for k in inside)


class Runner:
    """Starts worker processes for one benchmark run and checks them."""

    def __init__(self, workload: Workload, seed, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.results: list[tuple[dict, bool]] = []
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.raw_setup_s: list[float] = []
        self.raw_wall_s: list[float] = []
        self.slowdown: list[float] = []
        self.rss_mb: list[float] = []
        self.details: list[dict] = []
        self.samples: list = []
        self.calibrator = None
        # the workload processes and the calibrator share one CPU
        self.cpu = max(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env.update(THREAD_ENV)
        self.env.pop("CARLEMAN_LAB_OUTPUT", None)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.tmp_root = ROOT / TMP_DIR
        self.tmp_root.mkdir(exist_ok=True)
        self.samples_path = self.tmp_root / f"calibrate-{os.getpid()}.json"

    def _pin(self):
        os.sched_setaffinity(0, {self.cpu})

    def start_calibrator(self):
        self.calibrator = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py"),
             "--out", str(self.samples_path)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            preexec_fn=self._pin)
        if self.calibrator.stdout.readline().strip() != b"ready":
            raise RuntimeError("calibrate.py did not start")

    def stop_calibrator(self):
        """Stop calibrate.py (if running) and load its samples."""
        proc, self.calibrator = self.calibrator, None
        if proc is None:
            return
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        if self.samples_path.exists():
            self.samples = _json(self.samples_path)
            self.samples_path.unlink()

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """An interval's length at the reference CPU speed."""
        return seconds * cpu_speed(self.samples, start, end)

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def call(self, mode: str):
        """One worker process; returns its result dict or None on failure."""
        self.attempted += 1
        run_dir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=self.tmp_root))
        try:
            result = self._call(mode, run_dir)
        except CheckFailed as exc:
            print(f"perfbench: {mode} run failed its check: {exc}",
                  file=sys.stderr)
            result = None
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if result is None:
            self.failed += 1
        return result

    def _call(self, mode: str, run_dir: Path):
        wl = self.workload
        config, cfg = wl.write_config(run_dir)
        out = run_dir / "out"
        result_path = run_dir / "result.json"
        if mode == "scaling":
            cli_args = [str(config)]
        else:
            cli_args = [wl.subcommand, "--config", str(config),
                        "--output-dir", str(out)]
            if self.seed is not None:
                cli_args += ["--seed", str(self.seed)]
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--result", str(result_path), "--mode", mode]
        if mode == "trace":
            cmd += ["--spans", str(self.tmp_root / f"{wl.name}-spans.npz")]
        cmd += ["--", *cli_args]
        log_path = run_dir / "log.txt"
        with open(log_path, "w") as log:
            launched = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT,
                                    preexec_fn=self._pin)
            try:
                rc = proc.wait(timeout=max(self.time_left(), 1.0))
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if rc is None:
            raise CheckFailed("timed out")
        if rc != 0 or not result_path.exists():
            tail = log_path.read_text()[-2000:]
            raise CheckFailed(f"exit code {rc}\n{tail}")
        result = _json(result_path)
        if mode == "scaling":
            return result
        result["launched"] = launched
        result["setup_s"] = result["handler_start"] - launched
        result["wall_s"] = result["handler_end"] - result["handler_start"]
        if mode != "probe":
            shipped = (self.seed is None
                       or self.seed == int(cfg[wl.seed_section]["seed"]))
            result["check"] = wl.check(out, cfg, shipped)
        return result

    def record(self, result, timed: bool):
        if result is not None:
            self.results.append((result, timed))

    def wall(self, result: dict) -> float:
        """The handler's wall time at the reference CPU speed."""
        return self.normalise(result["wall_s"], result["handler_start"],
                              result["handler_end"])

    def tally(self):
        """Normalise the recorded calls with the calibrator's samples."""
        for result, timed in self.results:
            self.raw_setup_s.append(result["setup_s"])
            self.setup_s.append(self.normalise(
                result["setup_s"], result["launched"],
                result["handler_start"]))
            if timed:
                self.raw_wall_s.append(result["wall_s"])
                self.wall_s.append(self.wall(result))
                self.slowdown.append(result["wall_s"] / self.wall_s[-1])
                self.rss_mb.append(result["maxrss_kb"] / 1024.0)
                self.details.append(result["check"])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _median(xs):
    return statistics.median(xs) if xs else None


def run_timed(runner: Runner, seconds: float):
    for _ in range(SETUP_PROBES):
        runner.record(runner.call("probe"), timed=False)
    start = time.monotonic()
    durations = []
    while True:
        t0 = time.monotonic()
        result = runner.call("plain")
        runner.record(result, timed=True)
        if result is None:
            break
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        typical = statistics.median(durations)
        # start another repetition only if at most half of it runs past
        # --seconds and it can finish before the run's deadline
        if (elapsed + 0.5 * typical > seconds
                or runner.time_left() < 2.0 * typical):
            break


def timed_metrics(runner: Runner) -> dict:
    return {
        "setup_s": _metric(_median(runner.setup_s), "s"),
        "wall_s": _metric(_median(runner.wall_s), "s"),
        "peak_rss_mb": _metric(_median(runner.rss_mb), "MB"),
    }


def run_traced(runner: Runner) -> tuple:
    # untraced runs on both sides of the traced one, for the overhead
    plain = [runner.call("plain")]
    traced = runner.call("trace")
    plain.append(runner.call("plain"))
    scaling = runner.call("scaling")
    for result in plain:
        runner.record(result, timed=True)
    return traced, scaling


def traced_metrics(runner: Runner, traced, scaling) -> dict:
    layers = {}
    if traced is not None:
        layers.update(traced["layers"])
        layers["run.traced_wall_s"] = traced["wall_s"]
        if runner.wall_s:
            # both sides at the reference CPU speed
            layers["trace_overhead"] = (runner.wall(traced)
                                        / statistics.median(runner.wall_s) - 1.0)
    if scaling is not None:
        layers.update(scaling["layers"])
    return {name: _metric(layers.get(name), unit) for name, unit in PER_LAYER}


def _summary(name: str, runner: Runner, metrics: dict) -> str:
    parts = [f"{name}:"]
    for key, m in metrics.items():
        if key in dict(END_TO_END) and m["value"] is not None:
            parts.append(f"{key}={m['value']:.4f} {m['unit']}")
    if runner.raw_wall_s:
        parts.append(f"raw_setup_s={_median(runner.raw_setup_s):.4f} s "
                     f"raw_wall_s={_median(runner.raw_wall_s):.4f} s "
                     f"slowdown={_median(runner.slowdown):.3f} "
                     f"reps={len(runner.wall_s)}")
    rate = runner.failed / runner.attempted if runner.attempted else 0.0
    parts.append(f"failure_rate={rate:.4g} ({runner.failed}/{runner.attempted})")
    errs = [d["rel_error"] for d in runner.details if "rel_error" in d]
    if errs:
        parts.append(f"rel_error={statistics.median(errs):.6g} 1")
    return " ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="passed to the CLI as --seed (default: the "
                             "seeds shipped in the configs)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    # turn SIGTERM into SystemExit so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    wl = WORKLOADS[args.workload]
    needed = [ROOT / "src" / "carleman_lab" / "cli.py", ROOT / wl.config]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a carleman-lab checkout, missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2

    runner = Runner(wl, args.seed, deadline)
    try:
        runner.start_calibrator()
        if args.trace:
            traced, scaling = run_traced(runner)
        else:
            run_timed(runner, args.seconds)
    finally:
        runner.stop_calibrator()
        try:
            runner.tmp_root.rmdir()
        except OSError:
            pass
    runner.tally()
    if args.trace:
        metrics = traced_metrics(runner, traced, scaling)
    else:
        metrics = timed_metrics(runner)
    print(_summary(args.workload, runner, metrics))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
