"""Finite-volume Crank-Nicolson solver for the transmission Schrodinger equation.

Conventions.  The equation solved is

    i dy/dt + div(a grad y) + p y = g      on the rectangle, t in (t0, t1),
    y = h on the outer boundary,            y(t0) = y0,

with a piecewise-constant a (one value inside the interface, one outside)
and a real potential p.  Space is discretised on a uniform square grid with
five-point fluxes; the face coefficient between two nodes is the harmonic
mean of the nodal values, which keeps the discrete flux continuous across
the coefficient jump.  Time stepping is the Cayley form of Crank-Nicolson:
the one-step map is exactly unitary when g = 0 and h = 0, so the L2 mass
is conserved to rounding.

The matrix I - (i dt / 2) A is factored once; its conjugate transpose is
I + (i dt / 2) A, so adjoint solves reuse the same factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .geometry import DomainLayout, _crossings
from .weight import PiecewiseCoefficient


class SolverError(Exception):
    """Generic discretisation failure."""


class InvalidStep(SolverError):
    """Bad time interval or step count."""


class InvalidTrace(SolverError):
    """A boundary trace needs at least three time levels."""


class ExtensionError(SolverError):
    """Time extension applied to incompatible data at t = 0."""


ArrayLike = Union[np.ndarray, Callable]


@dataclass(frozen=True)
class Grid2D:
    """Uniform square-spacing tensor grid over the outer rectangle."""

    layout: DomainLayout
    xs: np.ndarray
    ys: np.ndarray
    h: float

    @staticmethod
    def from_layout(layout: DomainLayout, nx: int, ny: Optional[int] = None) -> "Grid2D":
        if nx < 5:
            raise SolverError("need at least 5 nodes per direction")
        xmin, xmax, ymin, ymax = layout.outer.bounds
        h = (xmax - xmin) / (nx - 1)
        if ny is None:
            ny = int(round((ymax - ymin) / h)) + 1
        if ny < 5:
            raise SolverError("need at least 5 nodes per direction")
        hy = (ymax - ymin) / (ny - 1)
        if abs(hy - h) > 1e-9 * h:
            raise SolverError(
                f"grid spacing must be square, got dx={h:.6e} dy={hy:.6e}"
            )
        xs = np.linspace(xmin, xmax, nx)
        ys = np.linspace(ymin, ymax, ny)
        return Grid2D(layout=layout, xs=xs, ys=ys, h=float(h))

    @property
    def nx(self) -> int:
        return self.xs.size

    @property
    def ny(self) -> int:
        return self.ys.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @cached_property
    def points(self) -> np.ndarray:
        """All nodes, shape (ny, nx, 2)."""
        gx, gy = np.meshgrid(self.xs, self.ys)
        return np.stack([gx, gy], axis=-1)

    @cached_property
    def interior_mask(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=bool)
        m[1:-1, 1:-1] = True
        return m

    @cached_property
    def interior_ids(self) -> np.ndarray:
        return np.flatnonzero(self.interior_mask.ravel())

    @cached_property
    def boundary_ids(self) -> np.ndarray:
        """Perimeter order: bottom, right side, top reversed, left side down."""
        nx, ny = self.nx, self.ny
        ids = np.arange(nx * ny).reshape(self.shape)
        walk = [ids[0, :], ids[1:-1, -1], ids[-1, ::-1], ids[-2:0:-1, 0]]
        return np.concatenate(walk)

    @cached_property
    def boundary_normals(self) -> np.ndarray:
        """Outward unit normals matching boundary_ids; corners get diagonals."""
        nx, ny = self.nx, self.ny
        nrm = np.zeros((2 * nx + 2 * ny - 4, 2))
        nrm[:nx] = (0.0, -1.0)
        nrm[nx : nx + ny - 2] = (1.0, 0.0)
        nrm[nx + ny - 2 : 2 * nx + ny - 2] = (0.0, 1.0)
        nrm[2 * nx + ny - 2 :] = (-1.0, 0.0)
        flat_pts = self.points.reshape(-1, 2)[self.boundary_ids]
        xmin, xmax, ymin, ymax = self.layout.outer.bounds
        on_x = (np.abs(flat_pts[:, 0] - xmin) < 1e-12) | (
            np.abs(flat_pts[:, 0] - xmax) < 1e-12
        )
        on_y = (np.abs(flat_pts[:, 1] - ymin) < 1e-12) | (
            np.abs(flat_pts[:, 1] - ymax) < 1e-12
        )
        corner = on_x & on_y
        sx = np.where(np.abs(flat_pts[:, 0] - xmin) < 1e-12, -1.0, 1.0)
        sy = np.where(np.abs(flat_pts[:, 1] - ymin) < 1e-12, -1.0, 1.0)
        inv = 1.0 / np.sqrt(2.0)
        nrm[corner] = np.column_stack([sx[corner] * inv, sy[corner] * inv])
        return nrm

    @cached_property
    def boundary_points(self) -> np.ndarray:
        return self.points.reshape(-1, 2)[self.boundary_ids]

    @cached_property
    def boundary_weights(self) -> np.ndarray:
        """Quadrature weights h of the boundary nodes, matching boundary_ids."""
        return np.full(self.boundary_ids.size, self.h)

    @cached_property
    def cell_weights(self) -> np.ndarray:
        """Tensor trapezoid quadrature weights, shape (ny, nx)."""
        wx = np.ones(self.nx)
        wx[0] = wx[-1] = 0.5
        wy = np.ones(self.ny)
        wy[0] = wy[-1] = 0.5
        return self.h * self.h * np.outer(wy, wx)

    def sample(self, data: ArrayLike, dtype=float) -> np.ndarray:
        """data at every node as a (ny, nx) array of dtype.

        A callable is passed the (N, 2) node points and must return one
        value per node; a scalar fills the grid; an array must have the
        grid shape or one value per node in flattened order.
        """
        out = np.asarray(
            data(self.points.reshape(-1, 2)) if callable(data) else data,
            dtype=dtype,
        )
        if out.ndim == 0:
            return np.full(self.shape, out)
        if out.shape not in (self.shape, (self.nx * self.ny,)):
            raise SolverError(
                f"profile shape {out.shape} does not match grid {self.shape}"
            )
        return out.reshape(self.shape)

    def gather_interior(self, u_full: np.ndarray) -> np.ndarray:
        return u_full.reshape(-1)[self.interior_ids]

    def scatter_interior(self, u_int: np.ndarray, boundary=0.0) -> np.ndarray:
        out = np.zeros(self.nx * self.ny, dtype=complex)
        out[self.interior_ids] = u_int
        if np.ndim(boundary) > 0 or boundary != 0.0:
            out[self.boundary_ids] = boundary
        return out.reshape(self.shape)

    def l2_norm(self, u_full: np.ndarray) -> float:
        """Discrete L2 norm h ||u||_2 over all nodes."""
        return float(self.h * np.linalg.norm(np.asarray(u_full).ravel()))


_FACES = (("east", (0, 1)), ("west", (0, -1)), ("north", (1, 0)), ("south", (-1, 0)))


def face_coefficients(grid: Grid2D, coeff: Coefficient) -> dict:
    """Harmonic-mean coefficients on the four faces of each interior node.

    Returned arrays have shape (ny - 2, nx - 2); keys are 'east', 'west',
    'north', 'south'.  Where both adjacent nodes lie on the same side of
    the interface the face value equals that side's coefficient exactly.
    These are the face values of the flux matrix.
    """
    a = CoefficientOnGrid.of(coeff, grid).at_nodes.reshape(grid.shape)
    c = a[1:-1, 1:-1]
    out = {}
    for key, (dj, di) in _FACES:
        q = a[1 + dj : a.shape[0] - 1 + dj, 1 + di : a.shape[1] - 1 + di]
        out[key] = 2.0 * c * q / (c + q)
    return out


def _assemble_flux_matrix(grid: Grid2D, coeff: Coefficient):
    """Sparse div(a grad .) over all nodes, rows only for interior nodes."""
    ny, nx = grid.shape
    faces = face_coefficients(grid, coeff)
    ids = np.arange(nx * ny).reshape(ny, nx)
    rows_2d = ids[1:-1, 1:-1]
    inv_h2 = 1.0 / grid.h**2
    rows, cols, vals = [], [], []
    diag = np.zeros(rows_2d.shape)
    for key, (dj, di) in _FACES:
        a_face = faces[key]
        rows.append(rows_2d.ravel())
        cols.append((rows_2d + dj * nx + di).ravel())
        vals.append((a_face * inv_h2).ravel())
        diag -= a_face * inv_h2
    rows.append(rows_2d.ravel())
    cols.append(rows_2d.ravel())
    vals.append(diag.ravel())
    n = nx * ny
    full = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    k_int = full[grid.interior_ids][:, grid.interior_ids]
    k_bnd = full[grid.interior_ids][:, grid.boundary_ids]
    return k_int.tocsr(), k_bnd.tocsr()


class _OnGrid:
    """Field-independent data of one object on one grid, built on first use.

    Instances belong to the caller that creates them; ``of`` reuses one
    built for the same grid object and builds a fresh one otherwise, so
    data built for one grid is never served for another.
    """

    def __init__(self, source, grid: Grid2D):
        self.source = source
        self.grid = grid

    @classmethod
    def of(cls, obj, grid: Grid2D):
        if isinstance(obj, cls):
            if obj.grid is grid:
                return obj
            obj = obj.source
        return cls(obj, grid)


class CoefficientOnGrid(_OnGrid):
    """The coefficient a at the nodes, its flux stencils (k_int, k_bnd) and
    the boundary trace operator C; both stencils read a from at_nodes, so
    it is classified once per grid.  node_flux, the flux stencils numbered
    by node for the Carleman operators, is built on its first use.

    SchrodingerOperator, the solves and neumann_trace take this form in
    place of the plain coefficient; built once and passed along, it makes
    the stencils once per grid instead of once per solve.  Nothing here
    depends on the potential.
    """

    @cached_property
    def at_nodes(self) -> np.ndarray:
        return self.source.at(self.grid.points.reshape(-1, 2))

    @cached_property
    def flux(self) -> tuple:
        return _assemble_flux_matrix(self.grid, self)

    @cached_property
    def node_flux(self) -> tuple:
        """flux's (k_int, k_bnd) with rows and columns numbered by node, so
        each takes the values at every node and gives 0 on boundary rows.
        Each row keeps its entries in flux's order, so a product sums them
        in the same order."""
        grid = self.grid
        n = grid.nx * grid.ny

        def by_node(k, col_ids):
            counts = np.zeros(n + 1, dtype=np.int64)
            counts[grid.interior_ids + 1] = np.diff(k.indptr)
            indptr = np.cumsum(counts)
            return sparse.csr_matrix(
                (k.data, col_ids[k.indices], indptr), shape=(n, n)
            )

        k_int, k_bnd = self.flux
        return by_node(k_int, grid.interior_ids), by_node(k_bnd, grid.boundary_ids)

    @cached_property
    def trace(self) -> sparse.csr_matrix:
        return trace_operator(self.grid, self)


Coefficient = Union[PiecewiseCoefficient, CoefficientOnGrid]


class SchrodingerOperator:
    """Spatial operator plus the factored Cayley step for a fixed dt.

    apply_plus / apply_minus are v -> (I -+ (i dt / 2) A) v on interior
    vectors; solve_plus inverts the minus-branch matrix via the stored LU
    and solve_minus inverts its conjugate transpose with the same LU.
    """

    def __init__(self, grid: Grid2D, coeff: Coefficient,
                 potential: ArrayLike, dt: float):
        if dt <= 0.0:
            raise InvalidStep("dt must be positive")
        on_grid = CoefficientOnGrid.of(coeff, grid)
        self.grid = grid
        self.dt = float(dt)
        self.potential = grid.sample(potential)
        self.k_int, self.k_bnd = on_grid.flux
        p_int = grid.gather_interior(self.potential)
        self.a_matrix = (self.k_int + sparse.diags(p_int)).tocsr()
        n = self.a_matrix.shape[0]
        plus = sparse.identity(n, format="csr") - (0.5j * dt) * self.a_matrix
        self._lu = splu(plus.tocsc())

    def apply_plus(self, v: np.ndarray) -> np.ndarray:
        return v - (0.5j * self.dt) * (self.a_matrix @ v)

    def apply_minus(self, v: np.ndarray) -> np.ndarray:
        return v + (0.5j * self.dt) * (self.a_matrix @ v)

    def solve_plus(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=complex))

    def solve_minus(self, b: np.ndarray) -> np.ndarray:
        # (I + (i dt/2) A) = conj(I - (i dt/2) A) for real symmetric A
        return np.conj(self._lu.solve(np.conj(np.asarray(b, dtype=complex))))

    def step(self, u_int: np.ndarray, g_sum_int: np.ndarray,
             h_sum_bnd: np.ndarray) -> np.ndarray:
        """One Crank-Nicolson step; sums are value(t_n) + value(t_{n+1})."""
        rhs = self.apply_minus(u_int)
        rhs = rhs + (0.5j * self.dt) * (self.k_bnd @ h_sum_bnd - g_sum_int)
        return self.solve_plus(rhs)


@dataclass(frozen=True)
class SpaceTimeField:
    """Solution snapshot stack: values[n] is the full grid at times[n]."""

    grid: Grid2D
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.times.size,) + self.grid.shape:
            raise SolverError("field values must have shape (nt, ny, nx)")

    @property
    def nt(self) -> int:
        return self.times.size

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def dt(self) -> float:
        steps = np.diff(self.times)
        if steps.size and abs(steps.max() - steps.min()) > 1e-10 * abs(steps[0]):
            raise SolverError("field time axis is not uniform")
        return float(steps[0]) if steps.size else 0.0

    def interior(self) -> np.ndarray:
        return self.values.reshape(self.nt, -1)[:, self.grid.interior_ids]


def solve_forward(
    grid: Grid2D,
    coeff: Coefficient,
    potential: ArrayLike,
    y0: ArrayLike,
    t0: float,
    t1: float,
    n_steps: int,
    source: Optional[Callable] = None,
    boundary: Optional[Callable] = None,
    operator: Optional[SchrodingerOperator] = None,
) -> SpaceTimeField:
    """March the Dirichlet problem from t0 to t1 with n_steps CN steps."""
    if n_steps < 1:
        raise InvalidStep("need at least one time step")
    if not t1 > t0:
        raise InvalidStep("need t1 > t0")
    dt = (t1 - t0) / n_steps
    op = operator if operator is not None else SchrodingerOperator(
        grid, coeff, potential, dt
    )
    if abs(op.dt - dt) > 1e-12 * dt:
        raise InvalidStep("operator dt does not match the requested step")
    times = t0 + dt * np.arange(n_steps + 1)
    int_pts = grid.points.reshape(-1, 2)[grid.interior_ids]
    bnd_pts = grid.boundary_points
    u0_full = grid.sample(y0, complex)

    def g_at(t):
        if source is None:
            return np.zeros(int_pts.shape[0], dtype=complex)
        return np.asarray(source(int_pts, t), dtype=complex)

    def h_at(t):
        if boundary is None:
            return np.zeros(bnd_pts.shape[0], dtype=complex)
        return np.asarray(boundary(bnd_pts, t), dtype=complex)

    values = np.empty((n_steps + 1,) + grid.shape, dtype=complex)
    u_int = grid.gather_interior(u0_full)
    h_n = h_at(times[0])
    g_n = g_at(times[0])
    values[0] = grid.scatter_interior(u_int, boundary=h_n)
    for n in range(n_steps):
        h_np1 = h_at(times[n + 1])
        g_np1 = g_at(times[n + 1])
        u_int = op.step(u_int, g_n + g_np1, h_n + h_np1)
        values[n + 1] = grid.scatter_interior(u_int, boundary=h_np1)
        h_n, g_n = h_np1, g_np1
    return SpaceTimeField(grid=grid, times=times, values=values)


def solve_linearized(
    grid: Grid2D,
    coeff: Coefficient,
    potential: ArrayLike,
    f: ArrayLike,
    r: Callable,
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

    return solve_forward(
        grid, coeff, potential, np.zeros(grid.shape, dtype=complex),
        t0, t1, n_steps, source=source,
    )


def extend_time(field: SpaceTimeField) -> SpaceTimeField:
    """Reflect a solution from [0, T] onto [-T, T] by the odd-conjugate rule
    v(-t) = -conj v(t), which a solution whose t = 0 modulator is real
    satisfies; needs Re v(0) = 0."""
    if abs(field.t0) > 1e-12:
        raise ExtensionError("extension requires a field starting at t = 0")
    scale = float(np.max(np.abs(field.values))) or 1.0
    mismatch = float(np.max(np.abs(field.values[0].real)))
    if mismatch > 1e-12 * scale:
        raise ExtensionError(
            f"odd-conjugate extension needs Re v(0) = 0, got {mismatch:.3e}"
        )
    mirrored = -np.conj(field.values[-1:0:-1])
    times = np.concatenate([-field.times[-1:0:-1], field.times])
    values = np.concatenate([mirrored, field.values], axis=0)
    return SpaceTimeField(grid=field.grid, times=times, values=values)


@dataclass(frozen=True)
class BoundaryTrace:
    """Conormal trace samples a dnu(u) at the boundary nodes over time,
    with their quadrature weights."""

    weights: np.ndarray
    times: np.ndarray
    values: np.ndarray

    @property
    def nt(self) -> int:
        return self.times.size


def trace_operator(grid: Grid2D, coeff: Coefficient):
    """Sparse map from a full grid slice to a dnu(u) at boundary nodes.

    One-sided three-point (second order) stencils per axis; corner nodes
    combine both axes along the diagonal normal.  Returns the sparse C
    with trace = C @ u.ravel(), rows in boundary_ids order.
    """
    ny, nx = grid.shape
    b_ids = grid.boundary_ids
    normals = grid.boundary_normals
    a_b = CoefficientOnGrid.of(coeff, grid).at_nodes[b_ids]
    inv2h = 1.0 / (2.0 * grid.h)
    k = np.arange(b_ids.size)
    j_of, i_of = np.divmod(b_ids, nx)
    rows, cols, vals = [], [], []
    for axis, pos, stride in ((0, i_of, 1), (1, j_of, nx)):
        sel = np.abs(normals[:, axis]) > 1e-14
        # one-sided into the domain; the step doubles as the orientation
        # factor of the derivative along the normal
        step = np.where(pos[sel] == 0, 1, -1)
        for m, cval in enumerate((-3.0, 4.0, -1.0)):
            rows.append(k[sel])
            cols.append(b_ids[sel] + step * (m * stride))
            vals.append(a_b[sel] * normals[sel, axis] * step * cval * inv2h)
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(b_ids.size, nx * ny),
    ).tocsr()


def neumann_trace(field: SpaceTimeField, coeff: Coefficient) -> BoundaryTrace:
    if field.nt < 3:
        raise InvalidTrace("trace extraction needs at least 3 time levels")
    C = CoefficientOnGrid.of(coeff, field.grid).trace
    flat = field.values.reshape(field.nt, -1)
    return BoundaryTrace(
        weights=field.grid.boundary_weights, times=field.times.copy(),
        values=(C @ flat.T).T,
    )


def h1l2_boundary_norm(trace: BoundaryTrace) -> float:
    """Norm combining the trace and its time derivative:
    sqrt( int_t sum_b w_b (|g|^2 + |dg/dt|^2) )."""
    if trace.nt < 3:
        raise InvalidTrace("the H1-in-time norm needs at least 3 time levels")
    g = trace.values
    dg = np.gradient(g, trace.times, axis=0, edge_order=2)
    density = (np.abs(g) ** 2 + np.abs(dg) ** 2) @ trace.weights
    return float(np.sqrt(np.trapezoid(density, trace.times)))


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
