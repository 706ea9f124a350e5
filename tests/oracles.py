"""Reference routines that only tests call.

Each is an independent check on the program: an exact Hessian of the
gauge, the phi weight evaluated point by point, an operator's matrices
and the MMD factor of its own P, the forward march with an interior
source (manufactured solutions and the linearized equation), the
transmission flux mismatch at the interface, the algebraic
initial-condition inversion, and the Carleman test fields held whole (the
odd-conjugate time reflection of a solution, and a suite's fields).  None
of them is run by a subcommand, so they live here rather than in the
package.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from carleman_lab.geometry import RadialInterface, _crossings, _gauge_data, _off_center
from carleman_lab.pde_solver import (
    ArrayLike,
    Coefficient,
    ExtensionError,
    Grid2D,
    SchrodingerOperator,
    SolverError,
    SpaceTimeField,
    _levels,
    solve_forward,
)
from carleman_lab.weight import (
    CarlemanParams,
    PiecewiseCoefficient,
    TransmissionWeight,
    _time_factor,
)


# --------------------------------------------------------------------------
# geometry and weight


def gauge_hessian(interface: RadialInterface, x):
    """Cartesian Hessian of mu^2 at x, shape (..., 2, 2)."""
    return _off_center(_gauge_data(interface, x, order=2)).hess_mu2


def eval_phi(weight: TransmissionWeight, params: CarlemanParams, x, t):
    return (params.alpha - np.exp(params.lam * weight.psi(x))) * _time_factor(
        params, t
    )


# --------------------------------------------------------------------------
# solver


def cayley_matrices(op: SchrodingerOperator):
    """(A, P, M) of op: A = k_int + diag(potential) on the interior nodes,
    P = I - (i dt/2) A and M = I + (i dt/2) A, each formed by scipy's
    sparse add, identity and scale, with P and M in CSC."""
    p_int = op.grid.gather_interior(op.potential)
    a = (op.k_int + sparse.diags(p_int)).tocsr()
    eye = sparse.identity(a.shape[0], format="csr")
    half = (0.5j * op.dt) * a
    return a, (eye - half).tocsc(), (eye + half).tocsc()


def own_factor(op: SchrodingerOperator):
    """A fresh SuperLU factor of op's own P in the MMD_AT_PLUS_A order,
    with the supernode options of the operator's factor: a panel of one
    column, and fundamental supernodes relaxed up to 4 columns."""
    return splu(cayley_matrices(op)[1], permc_spec="MMD_AT_PLUS_A",
                panel_size=1, relax=4)


def solve_with_source(
    grid: Grid2D,
    coeff: Coefficient,
    potential: ArrayLike,
    y0: ArrayLike,
    t0: float,
    t1: float,
    n_steps: int,
    source,
    boundary=None,
) -> SpaceTimeField:
    """solve_forward for i dy/dt + div(a grad y) + p y = g: the same march,
    with the interior source g(pts, t) joining each step's boundary term."""
    dt = (t1 - t0) / n_steps
    op = SchrodingerOperator(grid, coeff, potential, dt)
    times = t0 + dt * np.arange(n_steps + 1)
    h = _levels(boundary, grid.boundary_points, times)
    g = _levels(source, grid.points.reshape(-1, 2)[grid.interior_ids], times)
    c = ((0.5j * op.dt) * (op.k_bnd @ (h[n] + h[n + 1]) - (g[n] + g[n + 1]))
         for n in range(n_steps))
    values = np.empty((n_steps + 1,) + grid.shape, dtype=complex)
    values.reshape(n_steps + 1, -1)[:, grid.boundary_ids] = h
    inner = values[:, 1:-1, 1:-1]
    inner[0] = grid.sample(y0, complex)[1:-1, 1:-1]
    for n, u in enumerate(op.march(inner[0].ravel(), c), 1):
        inner[n] = u.reshape(inner.shape[1:])
    return SpaceTimeField(grid=grid, times=times, values=values)


def solve_linearized(
    grid: Grid2D,
    coeff: Coefficient,
    potential: ArrayLike,
    f: ArrayLike,
    r,
    t0: float,
    t1: float,
    n_steps: int,
) -> SpaceTimeField:
    """Zero-data solve with separable source f(x) R(x, t).

    This is the equation satisfied by the first-order difference of two
    forward solutions whose potentials differ by f.
    """
    f_int = grid.gather_interior(grid.sample(f, complex))

    def source(int_pts, t):
        return f_int * np.asarray(r(int_pts, t), dtype=complex)

    return solve_with_source(
        grid, coeff, potential, np.zeros(grid.shape, dtype=complex),
        t0, t1, n_steps, source,
    )


def _lagrange_d1(xs3, fs3, x):
    """Derivative at x of the quadratic through (xs3, fs3)."""
    x0, x1, x2 = xs3
    f0, f1, f2 = fs3
    return (
        f0 * (2 * x - x1 - x2) / ((x0 - x1) * (x0 - x2))
        + f1 * (2 * x - x0 - x2) / ((x1 - x0) * (x1 - x2))
        + f2 * (2 * x - x0 - x1) / ((x2 - x0) * (x2 - x1))
    )


def interface_flux_jump(grid: Grid2D, coeff: PiecewiseCoefficient,
                        u_slice: np.ndarray) -> float:
    """Median conormal mismatch a1 du/dx|_in - a2 du/dx|_out at interface
    crossings of horizontal grid lines; a convergence diagnostic for the
    transmission conditions."""
    u = np.asarray(u_slice)
    if u.shape != grid.shape:
        raise SolverError("slice shape does not match the grid")
    side = grid.layout.classify(grid.points.reshape(-1, 2)).reshape(grid.shape)
    # a label flip between columns i and i+1 with three like labels on
    # each side, so both one-sided stencils stay on their own side
    same = side[:, :-1] == side[:, 1:]
    clean = (same[:, :-4] & same[:, 1:-3] & ~same[:, 2:-2]
             & same[:, 3:-1] & same[:, 4:])
    rows, cols = np.nonzero(clean)
    cols = cols + 2
    x_left = grid.xs[cols]
    xc = x_left + _crossings(grid.layout.interface,
                             np.stack((x_left, grid.ys[rows]), axis=-1),
                             (1.0, 0.0), grid.h)
    found = np.isfinite(xc)
    rows, cols, xc = rows[found], cols[found], xc[found]
    stencil = cols[:, None] + np.arange(-2, 4)
    xs6, us6 = grid.xs[stencil].T, u[rows[:, None], stencil].T
    a_left = coeff.on_side(side[rows, cols])
    a_right = coeff.on_side(side[rows, cols + 1])
    jumps = np.abs(a_left * _lagrange_d1(xs6[:3], us6[:3], xc)
                   - a_right * _lagrange_d1(xs6[3:], us6[3:], xc))
    if jumps.size == 0:
        raise SolverError("no usable interface crossings on the grid")
    return float(np.median(jumps))


# --------------------------------------------------------------------------
# initial-condition inversion


class SingularR0(Exception):
    """The known factor R(0) comes too close to zero to divide by."""


def bk_recover_f(v0: np.ndarray, R0: np.ndarray) -> np.ndarray:
    """Recover the real source factor from v(0) = -i f R(0).

    Raises SingularR0 when min |R0| < 0.5, the lower bound the stability
    argument needs on the known factor.
    """
    R0 = np.asarray(R0)
    lo = float(np.min(np.abs(R0)))
    if lo < 0.5:
        raise SingularR0(f"min |R(0)| = {lo:.3e} is below the required bound 0.5")
    return np.real(1j * np.asarray(v0, dtype=complex) / R0)


# --------------------------------------------------------------------------
# Carleman test fields


def _check_extension(start: np.ndarray, scale: float):
    """The guard of the odd-conjugate reflection v(-t) = -conj v(t) of a
    solution from [0, T] onto [-T, T], which a solution whose t = 0
    modulator is real satisfies: Re v(0) = 0, start being v(0), to within
    1e-12 of scale, the field's largest modulus."""
    mismatch = float(np.max(np.abs(start.real)))
    if mismatch > 1e-12 * (scale or 1.0):
        raise ExtensionError(
            f"odd-conjugate extension needs Re v(0) = 0, got {mismatch:.3e}"
        )


def extend_time(field: SpaceTimeField) -> SpaceTimeField:
    """Reflect a solution from [0, T] onto [-T, T] by the odd-conjugate rule
    v(-t) = -conj v(t), which a solution whose t = 0 modulator is real
    satisfies; needs Re v(0) = 0.  The sweep's marched block reads its
    solved fields' negative times by this rule."""
    if abs(field.times[0]) > 1e-12:
        raise ExtensionError("extension requires a field starting at t = 0")
    _check_extension(field.values[0], float(np.max(np.abs(field.values))))
    mirrored = -np.conj(field.values[-1:0:-1])
    times = np.concatenate([-field.times[-1:0:-1], field.times])
    values = np.concatenate([mirrored, field.values], axis=0)
    return SpaceTimeField(grid=field.grid, times=times, values=values)


def suite_fields(suite):
    """Each field of a FieldSuite, held whole, in suite order, on the
    suite's time axis: the forward solution from each initial state,
    extended to negative times, then env(t) profile(x) for each separable
    pair."""
    n_steps = (suite.times.size - 1) // 2
    for y0 in suite.initial_states:
        extended = extend_time(solve_forward(
            suite.grid, None, None, y0, 0.0, float(suite.times[-1]), n_steps,
            operator=suite.operator,
        ))
        # solve_forward's levels, (times[-1] / n) k, may round apart from
        # the suite's dt k; the values do not depend on them
        yield SpaceTimeField(grid=suite.grid, times=suite.times,
                             values=extended.values)
    for env, profile in suite.separable:
        yield SpaceTimeField(grid=suite.grid, times=suite.times,
                             values=env[:, None, None] * profile[None, :, :])
