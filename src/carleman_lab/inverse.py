"""One-measurement inverse potential problem on the transmission grid.

Given the conormal boundary trace of one forward solution, recover the
potential.  The module provides

  * instance construction with the data invariants checked up front
    (initial state bounded away from zero and real or purely imaginary,
    optional seeded trace noise); the Dirichlet data is y0's rim, held at
    every time,
  * a trace misfit with Tikhonov term, its exact discrete adjoint-state
    gradient, and ``reconstruct``, scipy's L-BFGS-B on that pair,
  * ``stability_sweep``: seeded smooth perturbations of the potential,
    the ratio of potential distance to trace distance for each, and a
    certificate tying the sweep to the weight hypotheses.

The gradient is the derivative of the implemented discrete functional,
not a discretization of a continuous formula: the Crank-Nicolson
recursion (I - i dt/2 A) y^{n+1} = (I + i dt/2 A) y^n + lift is
differentiated exactly, so adjoint and finite differences agree to
rounding.  With A real symmetric, the adjoint recursion
(I + i dt/2 A) lam^n = rho^n + (I - i dt/2 A) lam^{n+1} is the conjugate
of the forward recursion: mu = conj(lam) runs the forward march
backwards, on conj(rho), with the same factorization.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, minimize

from .pde_solver import (
    BoundaryTrace,
    CoefficientOnGrid,
    Grid2D,
    SchrodingerOperator,
    h1l2_boundary_norm,
    neumann_trace,
    solve_forward,
)
from .weight import (
    PiecewiseCoefficient,
    build_weight,
    certifiable_m2,
    verify_hypotheses,
)


class InitialStateTooSmall(ValueError):
    """min |y0| over the grid falls below the required lower bound r_lower."""


class DegenerateSweep(ValueError):
    """The stability sweep has no finite constant to report: it kept no
    record, or a perturbation moved the potential but not the trace."""


class StalledReconstruction(Exception):
    """Descent could not make progress; returned (not raised) with the
    partial result attached."""

    def __init__(self, message: str, result: "ReconstructionResult",
                 diagnostics: dict):
        super().__init__(message)
        self.result = result
        self.diagnostics = diagnostics


# --------------------------------------------------------------------------
# problem instances


@dataclass(frozen=True, eq=False)
class InverseProblemInstance:
    """One synthetic measurement: geometry, true potential, and its trace.

    on_grid holds the flux and trace stencils of coeff on grid, built once
    for every solve on the instance.
    """

    grid: Grid2D
    coeff: PiecewiseCoefficient
    p_true: np.ndarray
    y0: np.ndarray
    boundary: Callable
    T: float
    n_steps: int
    data: BoundaryTrace
    clean_data: BoundaryTrace
    q_bound: float
    on_grid: CoefficientOnGrid

    @cached_property
    def time_stencil(self) -> tuple:
        """(D, tau) of _time_stencil on the levels of every solve on the
        instance, those of its data."""
        return _time_stencil(self.data.times)


def _rim_data(grid: Grid2D, y0: np.ndarray) -> Callable:
    """Dirichlet data holding the rim values of the (ny, nx) state y0 at
    every time."""
    rim = y0.ravel()[grid.boundary_ids]

    def boundary(pts, t):
        return rim

    return boundary


def make_instance(
    grid: Grid2D,
    coeff: PiecewiseCoefficient,
    p,
    y0,
    T: float,
    n_steps: int,
    *,
    noise_level: float = 0.0,
    seed: int = 0,
    r_lower: float = 0.5,
    q_bound: float = np.inf,
) -> InverseProblemInstance:
    """Solve the forward problem for the true potential, with y0's rim
    held as Dirichlet data, and package the measured conormal trace (with
    optional seeded complex Gaussian noise).

    Invariants checked here: min |y0| >= r_lower > 0 (else
    InitialStateTooSmall), and y0 real or purely imaginary.
    """
    if not r_lower > 0.0:
        raise ValueError("r_lower must be positive")
    if n_steps < 2:
        raise ValueError("need at least 2 time steps for a usable trace")
    p_full = grid.sample(p)
    y0_full = grid.sample(y0, complex)

    lo = float(np.min(np.abs(y0_full)))
    if lo < r_lower:
        raise InitialStateTooSmall(
            f"initial state must satisfy min|y0| >= {r_lower}, got {lo:.3e}"
        )
    re = float(np.max(np.abs(y0_full.real)))
    im = float(np.max(np.abs(y0_full.imag)))
    if im > 1e-12 * max(re, 1.0) and re > 1e-12 * max(im, 1.0):
        raise ValueError("initial state must be real or purely imaginary")

    boundary = _rim_data(grid, y0_full)
    on_grid = CoefficientOnGrid(coeff, grid)
    field = solve_forward(grid, on_grid, p_full, y0_full, 0.0, T, n_steps,
                          boundary=boundary)
    clean = neumann_trace(field, on_grid)
    data = clean
    if noise_level > 0.0:
        rng = np.random.default_rng(seed)
        scale = noise_level * float(np.sqrt(np.mean(np.abs(clean.values) ** 2)))
        noise = (rng.standard_normal(clean.values.shape)
                 + 1j * rng.standard_normal(clean.values.shape)) / np.sqrt(2.0)
        data = dataclasses.replace(clean, values=clean.values + scale * noise)

    return InverseProblemInstance(
        grid=grid, coeff=coeff, p_true=p_full, y0=y0_full, boundary=boundary,
        T=float(T), n_steps=int(n_steps), data=data, clean_data=clean,
        q_bound=float(q_bound), on_grid=on_grid,
    )


# --------------------------------------------------------------------------
# misfit and its exact discrete gradient


def _check_q(q, instance: InverseProblemInstance) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape != instance.grid.shape:
        raise ValueError(
            f"potential must have grid shape {instance.grid.shape}, got {q.shape}"
        )
    if not np.all(np.isfinite(q)):
        raise ValueError("potential contains non-finite entries")
    sup = float(np.max(np.abs(q)))
    if sup > instance.q_bound * (1.0 + 1e-12):
        raise ValueError(
            f"potential sup-norm {sup:.3e} exceeds the instance bound "
            f"{instance.q_bound:.3e}"
        )
    return q


def _forward(q: np.ndarray, instance: InverseProblemInstance):
    """(operator, field, trace) of the forward solve at a checked q."""
    on_grid = instance.on_grid
    op = SchrodingerOperator(instance.grid, on_grid, q,
                             instance.T / instance.n_steps)
    field = solve_forward(
        instance.grid, on_grid, q, instance.y0, 0.0, instance.T,
        instance.n_steps, boundary=instance.boundary, operator=op,
    )
    return op, field, neumann_trace(field, on_grid)


def _data_misfit(trace: BoundaryTrace, data: BoundaryTrace) -> float:
    """0.5 ||trace - data||^2."""
    diff = dataclasses.replace(trace, values=trace.values - data.values)
    return 0.5 * h1l2_boundary_norm(diff) ** 2


def _regularizer(q, q_ref, beta, h):
    if beta == 0.0:
        return 0.0
    d = q - q_ref
    return 0.5 * beta * h * h * float(np.sum(d * d))


def misfit(q, instance: InverseProblemInstance, beta: float = 0.0,
           q_ref=None) -> float:
    """0.5 ||a2 dnu y(q) - d||^2 in discrete H1(0,T; L2 boundary) plus
    0.5 beta ||q - q_ref||^2 in discrete L2 over the grid."""
    q = _check_q(q, instance)
    ref = np.zeros(instance.grid.shape) if q_ref is None else np.asarray(q_ref, float)
    _, _, tr = _forward(q, instance)
    return _data_misfit(tr, instance.data) + _regularizer(
        q, ref, beta, instance.grid.h
    )


def _time_stencil(times: np.ndarray) -> tuple:
    """(D, tau): the time derivative and quadrature of h1l2_boundary_norm
    as maps of a stack of levels, for three or more times.  D is the
    sparse matrix of np.gradient(., times, axis=0, edge_order=2), three
    entries a row, and tau the trapezoid weights, np.trapezoid(f, times,
    axis=0) = tau @ f."""
    nt = times.size
    # row i's entries sit in columns first[i] to first[i] + 2, one in each
    # class mod 3, so np.gradient of the three indicators of j % 3 == k
    # gives each entry, with the bits np.gradient forms it with
    first = np.clip(np.arange(nt) - 1, 0, nt - 3)
    cols = first[:, None] + np.arange(3)
    combs = (np.arange(nt)[:, None] % 3 == np.arange(3)).astype(float)
    band = np.gradient(combs, times, axis=0, edge_order=2)
    D = sparse.csr_matrix(
        (np.take_along_axis(band, cols % 3, axis=1).ravel(), cols.ravel(),
         np.arange(0, 3 * nt + 1, 3)), shape=(nt, nt))
    half = np.diff(times) / 2.0
    tau = np.zeros(nt)
    tau[1:] += half
    tau[:-1] += half
    return D, tau


def misfit_and_gradient(q, instance: InverseProblemInstance,
                        beta: float = 0.0, q_ref=None):
    """Return (value, gradient) of the misfit at q.

    One forward solve and one adjoint solve sharing a single LU
    factorization.  The gradient is with respect to the nodal values of q
    under the discrete L2 pairing sum_j grad_j delta_j (plain sum, so it
    feeds finite-difference checks directly).
    """
    q = _check_q(q, instance)
    grid = instance.grid
    ref = np.zeros(grid.shape) if q_ref is None else np.asarray(q_ref, float)
    dt = instance.T / instance.n_steps
    op, field, tr = _forward(q, instance)
    value = _data_misfit(tr, instance.data) + _regularizer(q, ref, beta, grid.h)

    # derivative of the trace functional with respect to each time slice;
    # D and tau are the time stencil and quadrature of h1l2_boundary_norm
    # on the trace's own times
    residual = tr.values - instance.data.values          # (nt, nb)
    D, tau = instance.time_stencil
    rdot = D @ residual
    z = tau[:, None] * residual + D.T @ (tau[:, None] * rdot)
    z = z * tr.weights[None, :]
    rho = (instance.on_grid.trace_interior.T @ z.T).T    # (nt, n_interior)

    # adjoint march: M lam^n = rho^n + P lam^{n+1} for n = N, ..., 1 from
    # lam^{N+1} = 0.  M = conj(P), so mu = conj(lam) solves P mu^n =
    # conj(rho^n) + M mu^{n+1}: the forward step mu^n = P^{-1} (2 mu^{n+1}
    # + conj(rho^n)) - mu^{n+1} (P + M = 2I).  Each step's term
    # 0.5 dt Re(i mu^n (y^{n-1} + y^n)) is formed in the buffers, one
    # operation at a time
    y_int = field.interior()                             # (nt, n_interior)
    n_int = y_int.shape[1]
    grad_int = np.zeros(n_int)
    term, pair = np.empty(n_int, complex), np.empty(n_int, complex)
    real = np.empty(n_int)
    half_dt = 0.5 * dt
    np.conjugate(rho, out=rho)
    mus = op.march(np.zeros(n_int, dtype=complex), rho[:0:-1])
    for n, mu in zip(range(instance.n_steps, 0, -1), mus):
        np.multiply(1j, mu, out=term)
        np.multiply(term, np.add(y_int[n - 1], y_int[n], out=pair), out=term)
        grad_int += np.multiply(half_dt, term.real, out=real)

    grad = np.real(grid.scatter_interior(grad_int))
    if beta != 0.0:
        grad = grad + beta * grid.h**2 * (q - ref)
    return value, grad


# --------------------------------------------------------------------------
# reconstruction

GRAD_RTOL = 1e-4  # stop once |grad| <= GRAD_RTOL * |grad| at the initial guess


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of the descent; final_misfit <= initial_misfit always."""

    q_hat: np.ndarray
    iterations: int
    initial_misfit: float
    final_misfit: float
    beta: float
    relative_error: float
    grad_norm: float
    converged: bool
    stop_reason: str

    def as_dict(self):
        return {
            "iterations": int(self.iterations),
            "initial_misfit": float(self.initial_misfit),
            "final_misfit": float(self.final_misfit),
            "beta": float(self.beta),
            "relative_error": float(self.relative_error),
            "grad_norm": float(self.grad_norm),
            "converged": bool(self.converged),
            "stop_reason": self.stop_reason,
        }


def _relative_error(q, instance: InverseProblemInstance) -> float:
    """|q - p_true| / |p_true|, or |q| when p_true = 0."""
    denom = float(np.linalg.norm(instance.p_true))
    num = float(np.linalg.norm(q - instance.p_true))
    return num / denom if denom else num


def reconstruct(
    instance: InverseProblemInstance,
    q0,
    beta: float = 1e-6,
    max_iter: int = 100,
):
    """Minimise the misfit from q0 with scipy's L-BFGS-B; the Tikhonov
    term pulls towards q0.

    The objective is the misfit divided by its value at q0, so the
    iterates do not depend on the scale of the data; a finite
    instance.q_bound becomes box bounds.  Stops when |grad| has fallen to
    GRAD_RTOL times its value at q0, or after max_iter iterations
    ("iteration limit"); any other convergence L-BFGS-B reports gives its
    own message as stop_reason.  Returns a ReconstructionResult, or a
    StalledReconstruction instance (an Exception, returned rather than
    raised) when the line search fails; the partial result at the last
    accepted iterate rides along in its .result attribute.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    q = _check_q(q0, instance).copy()
    ref = q.copy()
    shape = instance.grid.shape

    last = None  # (x, value, grad) at the last evaluated potential

    def evaluate(x):
        # scipy asks again for q0 after the scaling evaluation below, and
        # the callback for the point the line search has just accepted:
        # both are served from last
        nonlocal last
        if last is None or last[0].tobytes() != x.tobytes():
            last = (x.copy(),) + misfit_and_gradient(x.reshape(shape), instance,
                                                     beta, ref)
        return last

    accepted = evaluate(q.ravel())
    initial = accepted[1]
    floor = GRAD_RTOL * float(np.linalg.norm(accepted[2]))

    def converged():
        _, value, grad = accepted
        return value == 0.0 or float(np.linalg.norm(grad)) <= floor

    def result(iterations, reason, ok):
        x, value, grad = accepted
        return ReconstructionResult(
            q_hat=x.reshape(shape), iterations=iterations,
            initial_misfit=initial, final_misfit=value, beta=beta,
            relative_error=_relative_error(x.reshape(shape), instance),
            grad_norm=float(np.linalg.norm(grad)), converged=ok,
            stop_reason=reason,
        )

    if converged():
        return result(0, "gradient below tolerance at the initial guess", True)
    if max_iter == 0:
        return result(0, "iteration limit", False)

    def fun(x):
        _, value, grad = evaluate(x)
        return value / initial, grad.ravel() / initial

    def callback(intermediate_result):
        nonlocal accepted
        accepted = evaluate(intermediate_result.x)
        if converged():
            raise StopIteration

    # ftol = gtol = 0 leave the callback's GRAD_RTOL test as the only stop
    bound = instance.q_bound
    res = minimize(
        fun, q.ravel(), jac=True, method="L-BFGS-B", callback=callback,
        bounds=Bounds(-bound, bound) if np.isfinite(bound) else None,
        options={"maxiter": max_iter, "ftol": 0.0, "gtol": 0.0},
    )
    # when q_bound = 0 fixes every node, scipy returns at q0 with neither
    # an iteration count nor a status
    nit, status = res.get("nit", 0), res.get("status", 0)
    if converged():
        return result(nit, "gradient below tolerance", True)
    if status == 1:
        return result(nit, "iteration limit", False)
    if status == 0:
        return result(nit, res.message, True)
    partial = result(nit, "line search failed", False)
    return StalledReconstruction(
        "no step satisfied the descent condition",
        partial,
        {
            "grad_norm": partial.grad_norm,
            "misfit": partial.final_misfit,
            "iteration": partial.iterations,
            "message": res.message,
        },
    )


# --------------------------------------------------------------------------
# stability sweep


@dataclass(frozen=True)
class StabilityRecord:
    """One perturbation: distances and their stability ratio."""

    amplitude: float
    potential_distance: float
    trace_distance: float
    ratio: float


@dataclass(frozen=True, eq=False)
class StabilitySweepResult:
    """loglog_slope and loglog_intercept are the least-squares line
    ln(potential distance) = slope ln(trace distance) + intercept."""

    records: list
    empirical_C: float
    loglog_slope: float
    loglog_intercept: float
    certified: bool
    hypothesis_report: object

    def summary(self):
        return {
            "empirical_C": float(self.empirical_C),
            "loglog_slope": float(self.loglog_slope),
            "certified": bool(self.certified),
            "n_records": len(self.records),
        }


def trace_distance(instance: InverseProblemInstance, q) -> float:
    """Discrete H1(0,T; L2 boundary) distance between the conormal trace
    of y(q) and the noiseless trace of the true potential."""
    q = _check_q(q, instance)
    _, _, tr = _forward(q, instance)
    diff = dataclasses.replace(tr, values=tr.values - instance.clean_data.values)
    return h1l2_boundary_norm(diff)


def potential_distance(instance: InverseProblemInstance, q) -> float:
    """Discrete L2(Omega) distance between q and the true potential."""
    q = np.asarray(q, dtype=float)
    return instance.grid.l2_norm(q - instance.p_true)


def smooth_perturbation(grid: Grid2D, amplitude: float, rng) -> np.ndarray:
    """Seeded smooth real field with sup norm equal to amplitude: a few
    Gaussian bumps plus low Fourier modes (all C2 and then some)."""
    if amplitude == 0.0:
        return np.zeros(grid.shape)
    pts = grid.points
    x, y = pts[..., 0], pts[..., 1]
    xmin, xmax, ymin, ymax = grid.layout.outer.bounds
    ext = min(xmax - xmin, ymax - ymin)
    out = np.zeros(grid.shape)
    for _ in range(2):
        cx = rng.uniform(xmin + 0.2 * ext, xmax - 0.2 * ext)
        cy = rng.uniform(ymin + 0.2 * ext, ymax - 0.2 * ext)
        w = rng.uniform(0.15, 0.35) * ext
        out += rng.normal() * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / w**2)
    for _ in range(2):
        kx = rng.integers(1, 3)
        ky = rng.integers(1, 3)
        phase_x = rng.uniform(0.0, 2.0 * np.pi)
        phase_y = rng.uniform(0.0, 2.0 * np.pi)
        out += 0.5 * rng.normal() * np.cos(
            np.pi * kx * (x - xmin) / (xmax - xmin) + phase_x
        ) * np.cos(np.pi * ky * (y - ymin) / (ymax - ymin) + phase_y)
    sup = float(np.max(np.abs(out)))
    if sup == 0.0:
        return np.zeros(grid.shape)
    return amplitude * out / sup


def certify_instance(instance: InverseProblemInstance):
    """Build the weight for the instance geometry and run the hypothesis
    certifier.  Returns (certified, report).  The jump sign check is left
    to the certifier itself so a wrong-way coefficient produces a report
    with a negative H2 margin instead of an exception."""
    a1, a2 = instance.coeff.a1, instance.coeff.a2
    layout = instance.grid.layout
    w = build_weight(layout, layout.interface.center, a1, a2,
                     M2=certifiable_m2(1.0, a1, a2), enforce_jump_sign=False)
    report = verify_hypotheses(w)
    return bool(report.all_ok), report


def stability_sweep(
    instance: InverseProblemInstance,
    n_perturbations: int = 30,
    amplitude_range: tuple = (1e-3, 1e-1),
    seed: int = 7,
) -> StabilitySweepResult:
    """Perturb the true potential with seeded smooth fields at log-spaced
    amplitudes, record (potential distance, trace distance, ratio) for
    each, and report the empirical stability constant max ratio together
    with the hypothesis certificate for the instance geometry.

    A perturbation that leaves the potential unchanged is skipped (both
    distances vanish, the ratio is undefined).  Perturbed potentials are
    clipped to the instance sup-norm bound when one is configured.  A
    record whose ratio is not finite (the trace distance is 0, or the
    ratio overflows) raises DegenerateSweep, and so does a sweep that
    keeps no record.  The log-log slope and intercept are nan when the
    records have fewer than two distinct trace distances (a tight bound
    can clip every perturbation to one potential): no line is fitted to
    a single point.
    """
    if n_perturbations < 0:
        raise ValueError("n_perturbations must be nonnegative")
    lo, hi = float(amplitude_range[0]), float(amplitude_range[1])
    if lo < 0.0 or hi < 0.0:
        raise ValueError("amplitudes must be nonnegative")
    if n_perturbations == 0:
        amps = np.array([])
    elif lo == hi:
        amps = np.full(n_perturbations, lo)
    else:
        if lo == 0.0 or hi == 0.0:
            raise ValueError("log-spaced amplitudes need positive endpoints")
        amps = np.geomspace(lo, hi, n_perturbations)

    rng = np.random.default_rng(seed)
    records = []
    for amp in amps:
        delta = smooth_perturbation(instance.grid, float(amp), rng)
        q = instance.p_true + delta
        if np.isfinite(instance.q_bound):
            q = np.clip(q, -instance.q_bound, instance.q_bound)
        pot = potential_distance(instance, q)
        if pot == 0.0:
            continue
        tr = trace_distance(instance, q)
        with np.errstate(divide="ignore", over="ignore"):
            ratio = float(np.float64(pot) / tr)
        if not np.isfinite(ratio):
            raise DegenerateSweep(
                f"the perturbation of amplitude {amp:g} moves the potential by "
                f"{pot:.6g} and the trace by {tr:.6g}, so their ratio is not finite"
            )
        records.append(StabilityRecord(
            amplitude=float(amp), potential_distance=pot,
            trace_distance=tr, ratio=ratio,
        ))
    if not records:
        raise DegenerateSweep(
            f"none of the {n_perturbations} perturbations moves the potential, "
            "so the sweep has no record"
        )

    certified, report = certify_instance(instance)

    slope = intercept = float("nan")
    if len({r.trace_distance for r in records}) >= 2:
        slope, intercept = map(float, np.polyfit(
            np.log([r.trace_distance for r in records]),
            np.log([r.potential_distance for r in records]),
            1,
        ))

    return StabilitySweepResult(
        records=records, empirical_C=max(r.ratio for r in records),
        loglog_slope=slope,
        loglog_intercept=intercept, certified=certified,
        hypothesis_report=report,
    )
