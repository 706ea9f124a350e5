"""Finite-volume Crank-Nicolson solver for the transmission Schrodinger equation.

Conventions.  The equation solved is

    i dy/dt + div(a grad y) + p y = 0      on the rectangle, t in (t0, t1),
    y = h on the outer boundary,            y(t0) = y0,

with a piecewise-constant a (one value inside the interface, one outside)
and a real potential p.  Space is discretised on a uniform square grid with
five-point fluxes; the face coefficient between two nodes is the harmonic
mean of the nodal values, which keeps the discrete flux continuous across
the coefficient jump.  Time stepping is the Cayley form of Crank-Nicolson:
the one-step map is exactly unitary when h = 0, so the L2 mass
is conserved to rounding.

The matrix P = I - (i dt / 2) A is factored once per potential.  Its
pattern is the flux stencil's, whatever the potential and dt, so the
column order is found once per CoefficientOnGrid, by SuperLU's minimum
degree MMD_AT_PLUS_A ordering (about 35 % less fill than COLAMD here),
and every P is written straight into that column order and factored in
the NATURAL one, which gives the factors of P's own MMD factor, to the
bit, without an ordering pass.  This is SuperLU's SamePattern reuse,
which scipy does not expose.  Every factor takes a panel of one column
(panel_size=1) and relaxes fundamental supernodes up to 4 columns
(relax=4): scipy's defaults, 20 and 10, are sized for large matrices,
and on this five-point stencil in its MMD order the narrow panel
factors 35 to 40 % faster and solves 5 to 15 % faster (nx = 33 and 48,
one BLAS thread), with the same fill.  relax must stay at 4 or above:
at 3 or below, a P whose pivoting adds fill (A's diagonal cancelled at
a large dt) gets a NATURAL factor whose fill differs from its own MMD
factor's.  As P + M = 2I with
M = I + (i dt / 2) A, a step P^{-1} (M u + c) = P^{-1} (2u + c) - u
needs no product with A.  A is real symmetric, so P is complex
symmetric, P = P^T to the bit, and every step is one transpose solve
(trans="T") with the factor of P's columns in the grid's order: it takes
the right-hand side in that order and gives the solution in the natural
one, with no gather.  On one column it is also the fastest of SuperLU's
three solves: 43.7 us against 52.4 us for trans="N" and 50.0 us for
trans="H" at nx = 33 (111 us, 134 us and 129 us at nx = 48), one BLAS
thread on a 2-vCPU x86-64 host.  On a k-column block it is not: SuperLU
takes a transpose solve's block column by column, so the sweep's
five-column march of 64 steps takes 41-45 ms against 35-37 ms for "N" at
nx = 48.  The transpose solve is kept there because it gives each column
of a block the bits of its one-column march on every BLAS kernel
(carleman_check module notes, Streaming).  M = P^H = conj(P), so the
adjoint step M^{-1} (2 lam + rho) - lam is the conjugate of the same
step on conj(lam) and conj(rho): the adjoint marches mu = conj(lam)
through step, on conj(rho).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .geometry import DomainLayout
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
        value per node; an array must have the grid shape or one value per
        node in flattened order.
        """
        out = np.asarray(
            data(self.points.reshape(-1, 2)) if callable(data) else data,
            dtype=dtype,
        )
        if out.shape not in (self.shape, (self.nx * self.ny,)):
            raise SolverError(
                f"profile shape {out.shape} does not match grid {self.shape}"
            )
        return out.reshape(self.shape)

    def gather_interior(self, u_full: np.ndarray) -> np.ndarray:
        return u_full.reshape(-1)[self.interior_ids]

    def scatter_interior(self, u_int: np.ndarray) -> np.ndarray:
        out = np.zeros(self.nx * self.ny, dtype=complex)
        out[self.interior_ids] = u_int
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


def _assemble_flux_matrix(grid: Grid2D, coeff: Coefficient) -> sparse.csr_matrix:
    """Sparse div(a grad .) numbered by node: a row at each interior node
    and empty rows at the boundary nodes."""
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
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()


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
    """The coefficient a at the nodes, its flux stencil and the boundary
    trace operator C; both read a from at_nodes, so it is classified once
    per grid.  node_flux is the one flux stencil, numbered by node; flux
    slices its interior rows into the solver's (k_int, k_bnd).

    SchrodingerOperator, the solves and neumann_trace take this form in
    place of the plain coefficient; built once and passed along, it makes
    the stencils once per grid, and the column order of P once, instead
    of once per solve.  Nothing here depends on the potential.
    """

    @cached_property
    def at_nodes(self) -> np.ndarray:
        return self.source.at(self.grid.points.reshape(-1, 2))

    @cached_property
    def node_flux(self) -> sparse.csr_matrix:
        """div(a grad .) from the values at every node to every node, 0 at
        the boundary nodes."""
        return _assemble_flux_matrix(self.grid, self)

    @cached_property
    def flux(self) -> tuple:
        """(k_int, k_bnd): node_flux's interior rows on the interior and on
        the boundary columns."""
        rows = self.node_flux[self.grid.interior_ids]
        return rows[:, self.grid.interior_ids], rows[:, self.grid.boundary_ids]

    @cached_property
    def rim_rows(self) -> tuple:
        """(near, k_bnd[near]): the interior rows next to the rim, the only
        rows k_bnd fills, and k_bnd on them."""
        k_bnd = self.flux[1]
        near = np.flatnonzero(np.diff(k_bnd.indptr))
        return near, k_bnd[near]

    @cached_property
    def trace(self) -> sparse.csr_matrix:
        return trace_operator(self.grid, self)

    @cached_property
    def trace_interior(self) -> sparse.csr_matrix:
        """trace's columns at the interior nodes."""
        return self.trace[:, self.grid.interior_ids]

    @cached_property
    def _cayley(self) -> tuple:
        """(layout, order): P's pattern with its columns in the grid's one
        order, laid out once (see _lay_out), and that order, argsort of
        the column permutation perm_c.

        The order is that of one MMD_AT_PLUS_A factor of I - (i / 2)
        k_int, which is on P's pattern and never singular: k_int is real
        symmetric, so its eigenvalues are 1 - i lambda / 2.  The order
        depends on the pattern only, so a NATURAL factor of any P written
        in it has the bits of that P's own MMD factor taken with the same
        supernode options, panel_size=1 and relax=4 (see the module
        notes); they do not change perm_c, and this factor takes them
        too, so every factor here is taken alike.
        """
        k = self.flux[0].tocsc()
        n = k.shape[1]
        unit = _write_p(_lay_out(k, np.arange(n)), np.zeros(n), 1.0)
        order = np.argsort(splu(unit, permc_spec="MMD_AT_PLUS_A", panel_size=1,
                                relax=4).perm_c)
        return _lay_out(k, order), order


def _lay_out(k: sparse.csc_matrix, order: np.ndarray) -> tuple:
    """k's values with its columns in order, the positions and nodes of
    its diagonal, I's values, and a complex buffer matrix on that
    pattern."""
    k = k[:, order]
    diag = np.flatnonzero(k.indices == np.repeat(order, np.diff(k.indptr)))
    eye = np.zeros(k.nnz)
    eye[diag] = 1.0
    buffer = sparse.csc_matrix(
        (np.empty(k.nnz, dtype=complex), k.indices, k.indptr), shape=k.shape)
    return k.data, diag, k.indices[diag], eye, buffer


def _write_p(layout: tuple, q_int: np.ndarray, dt: float) -> sparse.csc_matrix:
    """P = I - (i dt / 2)(k_int + diag q_int) in layout's buffer, each
    entry formed as scipy's identity, scale and add chain forms it, so P
    has the same bits.  The buffer is free for the next P once splu
    returns, as a factor keeps its own L and U."""
    k_data, diag, diag_ids, eye, buffer = layout
    a = k_data.copy()
    a[diag] += q_int[diag_ids]
    np.multiply(a, 0.5j * dt, out=buffer.data)
    np.subtract(eye, buffer.data, out=buffer.data)
    return buffer


Coefficient = Union[PiecewiseCoefficient, CoefficientOnGrid]


class SchrodingerOperator:
    """Spatial operator A = k_int + diag(potential) and the Cayley step
    for a fixed dt: _lu is the NATURAL factor of P = I - (i dt / 2) A with
    its columns in the grid's order."""

    def __init__(self, grid: Grid2D, coeff: Coefficient,
                 potential: ArrayLike, dt: float):
        if dt <= 0.0:
            raise InvalidStep("dt must be positive")
        on_grid = CoefficientOnGrid.of(coeff, grid)
        self.grid = grid
        self.dt = float(dt)
        self.potential = grid.sample(potential)
        self.k_int, self.k_bnd = on_grid.flux
        self.rim_rows = on_grid.rim_rows
        layout, self._order = on_grid._cayley
        p = _write_p(layout, grid.gather_interior(self.potential), self.dt)
        self._lu = splu(p, permc_spec="NATURAL", panel_size=1, relax=4)

    def step(self, x: np.ndarray, c: np.ndarray) -> np.ndarray:
        """One Cayley step x+ = P^{-1} (2x + c) - x = P^{-1} (M x + c).  As
        P = P^T, P^{-1} b is the transpose solve of the factor of P's
        columns in _order, with b taken in that order (module notes)."""
        return self._lu.solve((2.0 * x + c)[self._order], trans="T") - x

    def march(self, x: np.ndarray, c):
        """Yield the state after each step from x; step n is driven by c[n]."""
        for c_n in c:
            x = self.step(x, c_n)
            yield x


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
    h = _levels(boundary, grid.boundary_points, times)
    c = _lifts(op, h)
    values = np.empty((n_steps + 1,) + grid.shape, dtype=complex)
    values.reshape(n_steps + 1, -1)[:, grid.boundary_ids] = h
    inner = values[:, 1:-1, 1:-1]
    inner[0] = grid.sample(y0, complex)[1:-1, 1:-1]
    for n, u in enumerate(op.march(inner[0].ravel(), c), 1):
        inner[n] = u.reshape(inner.shape[1:])
    return SpaceTimeField(grid=grid, times=times, values=values)


def _lifts(op: SchrodingerOperator, h: np.ndarray):
    """Yield the boundary term (i dt / 2) k_bnd (h[n] + h[n + 1]) of each
    of op's steps, taken for every step in one product on op.rim_rows, the
    only rows k_bnd fills; each has the bits of its own step's product."""
    near, rows = op.rim_rows
    lift = (0.5j * op.dt) * (rows @ np.ascontiguousarray((h[:-1] + h[1:]).T))
    for column in lift.T:
        c = np.zeros(op.k_bnd.shape[0], dtype=complex)
        c[near] = column
        yield c


def _levels(data: Optional[Callable], pts, times) -> np.ndarray:
    """data(pts, t) at each of times, an (nt, len(pts)) stack; with no data,
    a read-only stack of zeros that holds one value."""
    if data is None:
        return np.broadcast_to(0j, (times.size, len(pts)))
    return np.array([data(pts, t) for t in times], dtype=complex)


def time_step(times: np.ndarray) -> float:
    """The step of a uniform time axis, 0 for a single level; raises
    SolverError when the axis is not uniform."""
    steps = np.diff(times)
    if steps.size and abs(steps.max() - steps.min()) > 1e-10 * abs(steps[0]):
        raise SolverError("field time axis is not uniform")
    return float(steps[0]) if steps.size else 0.0


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
