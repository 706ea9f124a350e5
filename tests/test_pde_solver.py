"""Tests for the transmission Schrodinger solver.

Oracles:
  * exact plane wave exp(i(k.x - |k|^2 t)) on constant coefficients,
  * a manufactured transmission field G(psi) e(t) built from the weight
    module, whose conormal flux is continuous across the interface by
    construction (source computed analytically per side),
  * exact discrete algebra: the difference of two forward solves satisfies
    the discrete linearized equation with f = p - q, R = y(p),
  * quadratic fields for the one-sided trace stencils,
  * closed-form time integrals for the boundary norms.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from carleman_lab import config as cfgmod
from carleman_lab import geometry as geo
from carleman_lab import pde_solver as pde
from carleman_lab import weight as wt

import oracles


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# the column counts of the marched blocks checked against their columns
BLOCK_WIDTHS = (2, 5, 8)


def make_layout(half=1.0, radius=0.5, n=64):
    return geo.DomainLayout(
        geo.RectangularDomain(-half, half, -half, half),
        geo.disk_interface(radius, n=n),
    )


def config_operator(name):
    """The operator of a shipped config's physics block."""
    cfg = cfgmod.load_config(CONFIGS / name)
    grid = cfgmod.build_grid(cfg)
    coeff = cfgmod.build_coefficient(cfg, grid.layout)
    p = cfgmod.real_profile(cfg.physics.p, grid)
    return pde.SchrodingerOperator(grid, coeff, p,
                                   cfg.physics.T / cfg.physics.n_steps)


def bump_ic(pts, center=(0.0, 0.0), width=0.35):
    r2 = (pts[..., 0] - center[0]) ** 2 + (pts[..., 1] - center[1]) ** 2
    return np.exp(-r2 / width**2).astype(complex)


class TestGrid:
    def test_square_spacing(self):
        g = pde.Grid2D.from_layout(make_layout(), 21)
        assert g.nx == 21 and g.ny == 21
        assert g.h == pytest.approx(0.1)
        assert g.points.shape == (21, 21, 2)

    def test_rectangular_domain_gets_matching_ny(self):
        layout = geo.DomainLayout(
            geo.RectangularDomain(-2.0, 2.0, -1.0, 1.0),
            geo.disk_interface(0.5, n=64),
        )
        g = pde.Grid2D.from_layout(layout, 41)
        assert g.h == pytest.approx(0.1)
        assert g.ny == 21

    def test_incommensurate_spacing_rejected(self):
        layout = geo.DomainLayout(
            geo.RectangularDomain(-1.0, 1.0, -0.975, 0.975),
            geo.disk_interface(0.5, n=64),
        )
        with pytest.raises(pde.SolverError):
            pde.Grid2D.from_layout(layout, 21)

    def test_too_few_nodes(self):
        with pytest.raises(pde.SolverError):
            pde.Grid2D.from_layout(make_layout(), 3)

    def test_node_partition(self):
        g = pde.Grid2D.from_layout(make_layout(), 11)
        assert g.interior_ids.size == 9 * 9
        assert g.boundary_ids.size == 4 * 11 - 4
        assert np.intersect1d(g.interior_ids, g.boundary_ids).size == 0
        assert g.interior_ids.size + g.boundary_ids.size == 121

    def test_boundary_walk_order_and_normals(self):
        g = pde.Grid2D.from_layout(make_layout(), 11)
        pts = g.boundary_points
        nrm = g.boundary_normals
        assert np.allclose(pts[0], (-1.0, -1.0))  # walk starts bottom-left
        assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0)
        # corner normals are diagonal, edge normals axis-aligned
        corners = (np.abs(np.abs(pts[:, 0]) - 1.0) < 1e-12) & (
            np.abs(np.abs(pts[:, 1]) - 1.0) < 1e-12
        )
        assert corners.sum() == 4
        assert np.allclose(np.abs(nrm[corners]), 1.0 / np.sqrt(2.0))
        inv = 1.0 / np.sqrt(2.0)
        assert np.allclose(nrm[0], (-inv, -inv))
        edge = ~corners
        assert np.allclose(np.abs(nrm[edge]).max(axis=1), 1.0)

    def test_gather_scatter_roundtrip(self):
        g = pde.Grid2D.from_layout(make_layout(), 11)
        rng = np.random.default_rng(0)
        u = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        back = g.scatter_interior(g.gather_interior(u))
        assert np.allclose(back[1:-1, 1:-1], u[1:-1, 1:-1])
        assert np.allclose(back[0], 0.0) and np.allclose(back[:, -1], 0.0)

    def test_sample_forms(self):
        g = pde.Grid2D.from_layout(make_layout(), 11)
        seen = []

        def f(pts):
            seen.append(pts.shape)
            return pts[:, 0] - 2.0 * pts[:, 1]

        want = g.points[..., 0] - 2.0 * g.points[..., 1]
        assert np.array_equal(g.sample(f), want)
        assert seen == [(121, 2)]  # callables get the flattened nodes
        assert np.array_equal(g.sample(want.ravel()), want)
        # a scalar is no profile: a constant is passed as a grid-shaped array
        for bad in (1.5, np.zeros(7), np.zeros((11, 10)), lambda pts: np.zeros(3)):
            with pytest.raises(pde.SolverError):
                g.sample(bad)

    def test_cell_weights_integrate_constants_exactly(self):
        g = pde.Grid2D.from_layout(make_layout(), 11)
        assert g.cell_weights is g.cell_weights  # built once per grid
        assert g.cell_weights.shape == g.shape
        assert float(np.sum(g.cell_weights)) == pytest.approx(4.0, rel=1e-14)


class TestFaceCoefficients:
    def test_harmonic_faces(self):
        layout = make_layout(half=1.0, radius=0.5)
        g = pde.Grid2D.from_layout(layout, 41)
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
        faces = pde.face_coefficients(g, coeff)
        a = coeff.at(g.points.reshape(-1, 2)).reshape(g.shape)
        inner = a[1:-1, 1:-1]
        for key, (dj, di) in (
            ("east", (0, 1)), ("west", (0, -1)),
            ("north", (1, 0)), ("south", (-1, 0)),
        ):
            nb = a[1 + dj : a.shape[0] - 1 + dj, 1 + di : a.shape[1] - 1 + di]
            same1 = (inner == 2.0) & (nb == 2.0)
            same2 = (inner == 1.0) & (nb == 1.0)
            mixed = ~(same1 | same2)
            assert np.all(faces[key][same1] == 2.0)
            assert np.all(faces[key][same2] == 1.0)
            assert np.allclose(faces[key][mixed], 4.0 / 3.0)
            assert np.all(faces[key] > 0.0)
        assert mixed.any()


class TestOperator:
    def setup_method(self):
        self.layout = make_layout()
        self.grid = pde.Grid2D.from_layout(self.layout, 21)
        self.coeff = wt.PiecewiseCoefficient(2.0, 1.0, self.layout)
        pts = self.grid.points
        self.potential = np.cos(pts[..., 0]) * np.sin(pts[..., 1])
        self.op = pde.SchrodingerOperator(
            self.grid, self.coeff, self.potential, dt=0.01
        )

    def test_matrix_symmetric(self):
        # exact symmetry: P = I - (i dt/2) A equals its transpose, so a step
        # is a transpose solve, and M = I + (i dt/2) A equals conj(P), so
        # the adjoint is the conjugate march; both only for real symmetric A
        ops = [self.op] + [config_operator(name)
                           for name in ("default.ini", "carleman.ini")]
        for op in ops:
            a = oracles.cayley_matrices(op)[0]
            assert np.isrealobj(a.data)
            assert (a != a.T).nnz == 0

    def test_cayley_pair_identities(self):
        rng = np.random.default_rng(1)
        n = self.grid.interior_ids.size
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        _, plus, minus = oracles.cayley_matrices(self.op)
        assert (plus != plus.T).nnz == 0 and (minus != plus.conj()).nnz == 0
        # step(0, b) is P^{-1} b, and conj(step(0, conj b)) is M^{-1} b
        assert np.allclose(self.op.step(0, plus @ v), v)
        assert np.allclose(np.conj(self.op.step(0, np.conj(minus @ v))), v)

    def test_adjoint_identity(self):
        # (I - (i dt/2) A)^{-H} = (I + (i dt/2) A)^{-1} for real symmetric A,
        # the conjugate march of the step
        rng = np.random.default_rng(2)
        n = self.grid.interior_ids.size
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = np.vdot(self.op.step(0, u), v)
        rhs = np.vdot(u, np.conj(self.op.step(0, np.conj(v))))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_step_matches_textbook_form(self):
        # step's u+ = P^{-1}(2u + c) - u against u+ = P^{-1}(M u + c)
        rng = np.random.default_rng(3)
        n = self.grid.interior_ids.size
        nb = self.grid.boundary_ids.size
        u, g = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
        h = rng.normal(size=nb) + 1j * rng.normal(size=nb)
        _, _, minus = oracles.cayley_matrices(self.op)
        c = 0.5j * self.op.dt * (self.op.k_bnd @ h - g)
        ref = self.op.step(0, minus @ u + c)
        got = self.op.step(u, c)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", BLOCK_WIDTHS)
    def test_block_march_equals_each_column_bit_for_bit(self, k):
        # the sweep marches its solved fields as one (n_int, k) block: each
        # column must have the bits of its own one-column march
        assert block_march_mismatches(self.op, k) == []

    @pytest.mark.parametrize("core", ["Haswell", "Prescott"])
    def test_block_march_keeps_column_bits_on_other_blas_kernels(self, core):
        """The same check in a fresh process under OPENBLAS_CORETYPE=core,
        which picks the BLAS kernels that SuperLU's solves call.
        Where the variable has no effect (another BLAS, an OpenBLAS built
        without DYNAMIC_ARCH), this repeats the check above."""
        paths = [str(Path(pde.__file__).parents[1]), str(Path(__file__).parent)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, OPENBLAS_CORETYPE=core,
                   PYTHONPATH=os.pathsep.join(paths))
        script = "import test_pde_solver as t; print(t.block_march_report())"
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == f"{4 * sum(BLOCK_WIDTHS)} []"

    def test_lu_fill_below_colamd(self):
        # the stored factor's minimum-degree ordering against SuperLU's
        # default COLAMD on the same matrix; a ratio, since the counts
        # depend on the SuperLU version
        op = config_operator("default.ini")
        colamd = splu(oracles.cayley_matrices(op)[1])
        fill = op._lu.L.nnz + op._lu.U.nnz
        assert fill <= 0.7 * (colamd.L.nnz + colamd.U.nnz)

    def test_on_grid_coefficient_shares_stencils_and_bits(self):
        on_grid = pde.CoefficientOnGrid(self.coeff, self.grid)
        ops = [pde.SchrodingerOperator(self.grid, on_grid, self.potential, 0.01)
               for _ in range(2)]
        assert ops[0].k_int is ops[1].k_int is on_grid.flux[0]
        assert ops[0].rim_rows is ops[1].rim_rows is on_grid.rim_rows
        y0 = bump_ic(self.grid.points).astype(complex)
        fields = [
            pde.solve_forward(self.grid, c, self.potential, y0, 0.0, 0.04, 4)
            for c in (self.coeff, on_grid)
        ]
        assert np.array_equal(fields[0].values, fields[1].values)
        traces = [pde.neumann_trace(fields[1], c) for c in (self.coeff, on_grid)]
        assert np.array_equal(traces[0].values, traces[1].values)
        # a form built for another grid is rebuilt, never served
        other = pde.Grid2D.from_layout(self.layout, 17)
        assert pde.CoefficientOnGrid.of(on_grid, other).grid is other

    def test_validation(self):
        with pytest.raises(pde.InvalidStep):
            pde.SchrodingerOperator(self.grid, self.coeff, self.potential, dt=0.0)
        with pytest.raises(pde.SolverError):
            pde.SchrodingerOperator(self.grid, self.coeff, np.zeros(7), dt=0.01)


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def block_march_mismatches(op, k) -> list:
    """(column, step) of every column and step of a four-step march of a
    random (n_int, k) block, signed zeros included, whose bits differ
    from the column's own one-column march."""
    rng = np.random.default_rng(k)
    n = op.grid.interior_ids.size
    x = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    c = rng.normal(size=(4, n, k)) + 1j * rng.normal(size=(4, n, k))
    x[0] = -0.0
    c[:, 1] = 0.0
    block = list(op.march(x, c))
    assert len(block) == 4 and block[0].shape == (n, k)
    return [(j, step)
            for j in range(k)
            for step, (got, want) in enumerate(zip(
                block, op.march(x[:, j].copy(), c[:, :, j].copy())))
            if not same_bits(got[:, j], want)]


def block_march_report() -> str:
    """The number of column-step checks of block_march_mismatches over
    BLOCK_WIDTHS on TestOperator's operator, then the list of the
    (k, column, step) of each that fails."""
    case = TestOperator()
    case.setup_method()
    bad = [(k,) + m for k in BLOCK_WIDTHS for m in block_march_mismatches(case.op, k)]
    return f"{4 * sum(BLOCK_WIDTHS)} {bad}"


class TestNumericOnlyOperators:
    """Operators built on one CoefficientOnGrid take the column order the
    grid found once and skip the ordering pass: each must still solve
    with the bits of a fresh MMD factor of its own P."""

    def setup_method(self):
        layout = make_layout()
        self.grid = pde.Grid2D.from_layout(layout, 21)
        self.on_grid = pde.CoefficientOnGrid(
            wt.PiecewiseCoefficient(2.0, 1.0, layout), self.grid)

    def potentials(self):
        rng = np.random.default_rng(8)
        pts = self.grid.points
        return [
            np.cos(pts[..., 0]) * np.sin(pts[..., 1]),
            50.0 * rng.normal(size=self.grid.shape),
            # cancels every diagonal entry of A, which scipy's sparse add drops
            -self.grid.scatter_interior(self.on_grid.flux[0].diagonal()).real,
            np.zeros(self.grid.shape),
        ]

    def test_later_operators_solve_with_the_bits_of_their_own_mmd_factor(
            self, monkeypatch):
        specs = []
        factor = pde.splu

        def counted(matrix, permc_spec, **kw):
            specs.append(permc_spec)
            return factor(matrix, permc_spec=permc_spec, **kw)

        monkeypatch.setattr(pde, "splu", counted)
        potentials = self.potentials()
        cases = [(dt, k) for dt in (0.01, 0.07) for k in range(len(potentials))]
        ops = [pde.SchrodingerOperator(self.grid, self.on_grid, potentials[k], dt)
               for dt, k in cases]
        assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * len(ops)
        # every operator is stepped after the last one was built, so each
        # factor but the last has seen the shared buffer rewritten
        rng = np.random.default_rng(9)
        n = self.grid.interior_ids.size
        fill = ops[0]._lu.L.nnz + ops[0]._lu.U.nnz
        for case, op in zip(cases, ops):
            own = oracles.own_factor(op)
            assert op._lu.L.nnz + op._lu.U.nnz == own.L.nnz + own.U.nnz
            # with A's diagonal cancelled, P's diagonal stops dominating at
            # the larger dt, and row pivoting adds fill to P's own factor
            if case != (0.07, 2):
                assert op._lu.L.nnz + op._lu.U.nnz == fill, case
            for shape in ((n,), (n, 5)):
                x, c = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                        for _ in range(2))
                want = own.solve(2.0 * x + c, trans="T") - x
                assert same_bits(op.step(x, c), want), (case, shape)

    def test_no_factor_outlives_its_user(self, monkeypatch):
        # the grid keeps a copy of the ordering factor's column permutation;
        # SuperLU's perm_c is a view that would keep the factor alive
        factors = []
        factor = pde.splu

        def kept(matrix, permc_spec, **kw):
            factors.append(factor(matrix, permc_spec=permc_spec, **kw))
            return factors[-1]

        monkeypatch.setattr(pde, "splu", kept)
        op = pde.SchrodingerOperator(self.grid, self.on_grid,
                                     np.zeros(self.grid.shape), 0.01)
        assert len(factors) == 2 and factors[1] is op._lu
        del op
        for lu in factors:
            assert sys.getrefcount(lu) == 3  # the list, lu and the argument


class TestForwardSolve:
    def test_zero_data_zero_solution(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 17)
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
        f = pde.solve_forward(
            grid, coeff, np.zeros(grid.shape), np.zeros(grid.shape, complex),
            0.0, 1.0, 8,
        )
        assert np.all(f.values == 0.0)

    def test_mass_conservation(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 41)
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
        pts = grid.points
        potential = 0.7 * np.cos(2 * pts[..., 0] + pts[..., 1])
        y0 = bump_ic(pts)
        field = pde.solve_forward(grid, coeff, potential, y0, 0.0, 1.0, 50)
        mass = np.array([grid.l2_norm(field.values[n]) for n in range(field.nt)])
        assert np.max(np.abs(mass - mass[0])) / mass[0] < 1e-10

    def test_linearity(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 17)
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
        y0 = bump_ic(grid.points)
        f1 = pde.solve_forward(grid, coeff, np.zeros(grid.shape), y0, 0.0, 0.5, 10)
        f2 = pde.solve_forward(
            grid, coeff, np.zeros(grid.shape), 2.0 * y0, 0.0, 0.5, 10
        )
        assert np.allclose(f2.values, 2.0 * f1.values, atol=1e-12)

    def test_plane_wave_convergence(self):
        k = np.array([2.0, 1.0])
        om = float(k @ k)

        def exact(pts, t):
            return np.exp(1j * (pts[..., 0] * k[0] + pts[..., 1] * k[1] - om * t))

        errors = []
        for nx, steps in ((17, 10), (33, 20)):
            layout = make_layout()
            grid = pde.Grid2D.from_layout(layout, nx)
            coeff = wt.PiecewiseCoefficient(1.0, 1.0, layout)  # no jump
            field = pde.solve_forward(
                grid, coeff, np.zeros(grid.shape),
                lambda pts: exact(pts, 0.0),
                0.0, 0.2, steps,
                boundary=lambda pts, t: exact(pts, t),
            )
            err = grid.l2_norm(field.values[-1] - exact(grid.points, 0.2))
            errors.append(err / grid.l2_norm(exact(grid.points, 0.2)))
        order = np.log2(errors[0] / errors[1])
        assert order >= 1.8, f"observed order {order:.2f}, errors {errors}"

    def test_invalid_steps(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 17)
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
        z = np.zeros(grid.shape, complex)
        with pytest.raises(pde.InvalidStep):
            pde.solve_forward(grid, coeff, np.zeros(grid.shape), z, 0.0, 1.0, 0)
        with pytest.raises(pde.InvalidStep):
            pde.solve_forward(grid, coeff, np.zeros(grid.shape), z, 1.0, 0.5, 4)
        op = pde.SchrodingerOperator(grid, coeff, np.zeros(grid.shape), dt=0.5)
        with pytest.raises(pde.InvalidStep):
            pde.solve_forward(
                grid, coeff, np.zeros(grid.shape), z, 0.0, 1.0, 100, operator=op
            )

    @pytest.mark.parametrize("with_data", [False, True],
                             ids=["no-data", "time-dependent-data"])
    def test_march_matches_a_per_step_loop_bit_for_bit(self, with_data):
        # no config can drive a time-dependent rim; the reference forms c
        # per step, solves with the LU (trans "T", as P = P^T) and scatters
        # each step into a zeroed full-grid slice
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 17)
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
        pts = grid.points
        potential = 0.7 * np.cos(2 * pts[..., 0] + pts[..., 1])
        y0 = bump_ic(pts)

        def boundary(bpts, t):
            return (1.0 + 0.3 * t) * np.exp(1j * t) * np.cos(bpts[:, 0])

        data = dict(boundary=boundary) if with_data else {}
        n_steps, t1 = 12, 0.3
        op = pde.SchrodingerOperator(grid, coeff, potential, t1 / n_steps)
        field = pde.solve_forward(grid, coeff, potential, y0, 0.0, t1,
                                  n_steps, operator=op, **data)

        bnd_pts = grid.boundary_points

        def h_at(t):
            if not with_data:
                return np.zeros(bnd_pts.shape[0], dtype=complex)
            return np.asarray(boundary(bnd_pts, t), dtype=complex)

        def scatter(u_int, rim):
            out = np.zeros(grid.nx * grid.ny, dtype=complex)
            out[grid.interior_ids] = u_int
            out[grid.boundary_ids] = rim
            return out.reshape(grid.shape)

        times = field.times
        lu = oracles.own_factor(op)
        u = grid.sample(y0, complex).ravel()[grid.interior_ids]
        h_n = h_at(times[0])
        ref = [scatter(u, h_n)]
        for n in range(n_steps):
            h_np1 = h_at(times[n + 1])
            c = (0.5j * op.dt) * (op.k_bnd @ (h_n + h_np1))
            u = lu.solve(2.0 * u + c, trans="T") - u
            ref.append(scatter(u, h_np1))
            h_n = h_np1
        assert np.array_equal(field.values, np.array(ref))


def transmission_setup(nx):
    layout = geo.DomainLayout(
        geo.RectangularDomain(-1.6, 1.6, -1.6, 1.6),
        geo.disk_interface(1.0, n=64),
    )
    grid = pde.Grid2D.from_layout(layout, nx)
    coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
    w = wt.build_weight(layout, (0.0, 0.0), 2.0, 1.0, M2=1.0)
    return layout, grid, coeff, w


def transmission_exact_and_source(w, coeff):
    """Y = psi^2 e^{-it}: continuous with continuous conormal flux."""

    def exact(pts, t):
        return w.psi(pts) ** 2 * np.exp(-1j * t)

    def source(pts, t):
        psi, gpsi, hpsi = w.jet(pts, order=2)
        lpsi = hpsi[..., 0, 0] + hpsi[..., 1, 1]
        a = coeff.at(pts)
        spatial = a * (2.0 * np.sum(gpsi**2, axis=-1) + 2.0 * psi * lpsi)
        return np.exp(-1j * t) * (psi**2 + spatial)

    return exact, source


class TestTransmissionManufactured:
    def run_case(self, nx, steps):
        layout, grid, coeff, w = transmission_setup(nx)
        exact, source = transmission_exact_and_source(w, coeff)
        field = oracles.solve_with_source(
            grid, coeff, np.zeros(grid.shape),
            lambda pts: exact(pts, 0.0),
            0.0, 0.3, steps,
            source,
            boundary=lambda pts, t: exact(pts, t),
        )
        ref = exact(grid.points, 0.3)
        err = grid.l2_norm(field.values[-1] - ref) / grid.l2_norm(ref)
        return err, field, grid, coeff

    def test_convergence_across_interface(self):
        # the local order oscillates with how the interface cuts the grid,
        # so measure the mean rate over two octaves of refinement
        e1, *_ = self.run_case(21, 15)
        e3, *_ = self.run_case(81, 60)
        order = np.log2(e1 / e3) / 2.0
        assert order >= 0.9, f"observed mean order {order:.2f} ({e1:.2e} -> {e3:.2e})"

    def test_flux_jump_diagnostic_on_exact_field(self):
        jumps = []
        for nx in (31, 61):
            layout, grid, coeff, w = transmission_setup(nx)
            exact, _ = transmission_exact_and_source(w, coeff)
            u = exact(grid.points, 0.0)
            jumps.append(oracles.interface_flux_jump(grid, coeff, u))
        assert jumps[1] < jumps[0] / 2.5  # second-order stencils on smooth sides

    def test_flux_jump_decreases_for_solved_field(self):
        _, f1, g1, c1 = self.run_case(21, 15)
        _, f2, g2, c2 = self.run_case(41, 30)
        j1 = oracles.interface_flux_jump(g1, c1, f1.values[-1])
        j2 = oracles.interface_flux_jump(g2, c2, f2.values[-1])
        assert j2 < j1 / 1.4

    def test_flux_jump_needs_clean_crossings(self):
        layout, grid, coeff, _ = transmission_setup(21)
        tiny = pde.Grid2D.from_layout(layout, 5)
        with pytest.raises(pde.SolverError):
            oracles.interface_flux_jump(tiny, coeff, np.ones(tiny.shape))


class TestLinearized:
    def setup_method(self):
        self.layout = make_layout()
        self.grid = pde.Grid2D.from_layout(self.layout, 25)
        self.coeff = wt.PiecewiseCoefficient(2.0, 1.0, self.layout)
        pts = self.grid.points
        self.p_true = 1.0 + 0.5 * np.cos(pts[..., 0]) * np.cos(pts[..., 1])
        self.y0 = 2.0 + bump_ic(pts).real  # bounded away from zero
        self.T, self.steps = 0.4, 20

    def field_lookup(self, field):
        dt = pde.time_step(field.times)

        def r(pts, t):
            n = int(round((t - field.times[0]) / dt))
            flat = field.values[n].reshape(-1)
            return flat[self.grid.interior_ids]

        return r

    def test_zero_f_zero_solution(self):
        u = oracles.solve_linearized(
            self.grid, self.coeff, self.p_true, np.zeros(self.grid.shape),
            lambda pts, t: np.ones(pts.shape[0]), 0.0, self.T, self.steps,
        )
        assert np.all(u.values == 0.0)

    def test_linear_in_f(self):
        pts = self.grid.points
        f = bump_ic(pts, center=(0.2, 0.1)).real

        def r(p, t):
            return np.exp(-1j * t) * np.ones(p.shape[0])

        u1 = oracles.solve_linearized(
            self.grid, self.coeff, self.p_true, f, r, 0.0, self.T, self.steps
        )
        u2 = oracles.solve_linearized(
            self.grid, self.coeff, self.p_true, 2.0 * f, r, 0.0, self.T, self.steps
        )
        assert np.allclose(u2.values, 2.0 * u1.values, atol=1e-12)

    def test_exact_discrete_difference_identity(self):
        # y(q) - y(p) satisfies the discrete linearized equation with
        # potential q, f = p - q, R = y(p): equality to solver roundoff
        pts = self.grid.points
        f = 0.05 * bump_ic(pts, center=(0.1, -0.2)).real
        q = self.p_true - f
        y_p = pde.solve_forward(
            self.grid, self.coeff, self.p_true, self.y0, 0.0, self.T, self.steps
        )
        y_q = pde.solve_forward(
            self.grid, self.coeff, q, self.y0, 0.0, self.T, self.steps
        )
        u = oracles.solve_linearized(
            self.grid, self.coeff, q, f, self.field_lookup(y_p),
            0.0, self.T, self.steps,
        )
        diff = y_q.values - y_p.values
        assert np.max(np.abs(diff - u.values)) < 1e-10

    def test_linearization_error_quadratic_in_f(self):
        # with the base potential in the operator the mismatch is O(|f|^2)
        pts = self.grid.points
        gaps = []
        for amp in (0.2, 0.1):
            f = amp * bump_ic(pts, center=(0.1, -0.2)).real
            q = self.p_true - f
            y_p = pde.solve_forward(
                self.grid, self.coeff, self.p_true, self.y0,
                0.0, self.T, self.steps,
            )
            y_q = pde.solve_forward(
                self.grid, self.coeff, q, self.y0, 0.0, self.T, self.steps
            )
            u = oracles.solve_linearized(
                self.grid, self.coeff, self.p_true, f, self.field_lookup(y_p),
                0.0, self.T, self.steps,
            )
            gaps.append(np.max(np.abs((y_q.values - y_p.values) - u.values)))
        ratio = gaps[0] / gaps[1]
        assert 3.2 < ratio < 4.8, f"quadratic remainder ratio {ratio:.2f}"


class TestTimeDerivative:
    # f is built from the three smoothest discrete eigenmodes so that the
    # whole evolution stays spectrally resolved: Crank-Nicolson phase errors
    # on modes with |lambda| dt >> 1 would otherwise swamp the dt^2 rate.
    def setup_method(self):
        self.layout = make_layout()
        self.grid = pde.Grid2D.from_layout(self.layout, 25)
        self.coeff = wt.PiecewiseCoefficient(2.0, 1.0, self.layout)
        pts = self.grid.points
        self.q = 1.0 + 0.3 * np.sin(pts[..., 0] + pts[..., 1])
        op = pde.SchrodingerOperator(self.grid, self.coeff, self.q, 0.1)
        evals, evecs = np.linalg.eigh(oracles.cayley_matrices(op)[0].toarray())
        sel = np.argsort(-evals)[:3]
        f_int = evecs[:, sel] @ np.array([1.0, 0.7, 0.4])
        self.f = self.grid.scatter_interior(f_int).real
        self.r0 = np.full(self.grid.shape, 2.0)

    def r(self, pts, t):
        return 2.0 * np.exp(-1j * 0.8 * t) * np.ones(pts.shape[:-1])

    def r_prime(self, pts, t):
        return -0.8j * self.r(pts, t)

    def test_matches_derivative_of_linearized_at_second_order(self):
        # d/dt of the linearized field solves the same equation with
        # source f R' and initial value -i f R(0)
        f_int = self.grid.gather_interior(self.f)
        mism = []
        for steps in (20, 40):
            v = oracles.solve_with_source(
                self.grid, self.coeff, self.q, -1j * self.f * self.r0,
                0.0, 0.4, steps,
                lambda pts, t: f_int * self.r_prime(pts, t),
            )
            u = oracles.solve_linearized(
                self.grid, self.coeff, self.q, self.f, self.r,
                0.0, 0.4, steps,
            )
            du = (u.values[2:] - u.values[:-2]) / (2.0 * pde.time_step(u.times))
            gap = np.max(np.abs(v.values[1:-1] - du))
            mism.append(gap / np.max(np.abs(v.values)))
        ratio = mism[0] / mism[1]
        assert 3.0 < ratio < 5.5, f"dt-order ratio {ratio:.2f} ({mism})"


class TestExtendTime:
    def make_field(self, profile):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 9)
        times = np.linspace(0.0, 1.0, 6)
        base = bump_ic(grid.points).real
        values = np.stack([profile(t) * base for t in times]).astype(complex)
        return pde.SpaceTimeField(grid=grid, times=times, values=values)

    def test_real_r0_solution_is_even_for_imaginary_profile(self):
        fld = self.make_field(lambda t: 1j * (1.0 + t))
        ext = oracles.extend_time(fld)
        assert ext.nt == 11
        assert np.allclose(ext.times, np.linspace(-1.0, 1.0, 11))
        # v(t) = i g(t) with g real extends to i g(-t): even in t
        assert np.allclose(ext.values[0], ext.values[-1])
        assert np.allclose(ext.values[:5], ext.values[:5:-1])
        # restriction recovers the original
        assert np.allclose(ext.values[5:], fld.values)

    def test_real_r0_solution_rule(self):
        fld = self.make_field(lambda t: 1j * np.exp(0.3 * t))
        ext = oracles.extend_time(fld)
        for k in range(1, 6):
            assert np.allclose(ext.values[5 - k], -np.conj(ext.values[5 + k]))

    def test_inconsistent_t0_data_rejected(self):
        fld = self.make_field(lambda t: 1.0 + t)  # real at t = 0
        with pytest.raises(pde.ExtensionError):
            oracles.extend_time(fld)

    def test_zero_field(self):
        fld = self.make_field(lambda t: 0.0)
        ext = oracles.extend_time(fld)
        assert np.all(ext.values == 0.0)

    def test_must_start_at_zero(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 9)
        times = np.linspace(0.5, 1.0, 4)
        values = np.zeros((4,) + grid.shape, complex)
        fld = pde.SpaceTimeField(grid=grid, times=times, values=values)
        with pytest.raises(pde.ExtensionError):
            oracles.extend_time(fld)


class TestNeumannTrace:
    def quadratic_field(self, grid, nt=3):
        pts = grid.points
        u = pts[..., 0] ** 2 + 3.0 * pts[..., 1] ** 2 - pts[..., 0] * pts[..., 1]
        times = np.linspace(0.0, 1.0, nt)
        values = np.stack([u.astype(complex)] * nt)
        return pde.SpaceTimeField(grid=grid, times=times, values=values)

    def test_exact_for_quadratics(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 17)
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
        field = self.quadratic_field(grid)
        tr = pde.neumann_trace(field, coeff)
        pts, nrm = grid.boundary_points, grid.boundary_normals
        gx = 2.0 * pts[:, 0] - pts[:, 1]
        gy = 6.0 * pts[:, 1] - pts[:, 0]
        expect = 1.0 * (nrm[:, 0] * gx + nrm[:, 1] * gy)  # a2 = 1 on the boundary
        for n in range(tr.nt):
            assert np.allclose(tr.values[n], expect, atol=1e-10)

    def test_constant_field_zero_trace(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 17)
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
        values = np.ones((3,) + grid.shape, complex)
        field = pde.SpaceTimeField(
            grid=grid, times=np.linspace(0, 1, 3), values=values
        )
        tr = pde.neumann_trace(field, coeff)
        assert np.allclose(tr.values, 0.0, atol=1e-12)

    def test_weights_sum_to_perimeter(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 17)
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
        tr = pde.neumann_trace(self.quadratic_field(grid), coeff)
        assert tr.weights.sum() == pytest.approx(8.0)

    def test_conjugation(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 17)
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
        times = np.linspace(0, 1, 3)
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(3,) + grid.shape) + 1j * rng.normal(
            size=(3,) + grid.shape
        )
        f1 = pde.SpaceTimeField(grid=grid, times=times, values=vals)
        f2 = pde.SpaceTimeField(grid=grid, times=times, values=np.conj(vals))
        t1 = pde.neumann_trace(f1, coeff)
        t2 = pde.neumann_trace(f2, coeff)
        assert np.allclose(t2.values, np.conj(t1.values))

    def test_needs_three_levels(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 17)
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
        values = np.ones((2,) + grid.shape, complex)
        field = pde.SpaceTimeField(
            grid=grid, times=np.linspace(0, 1, 2), values=values
        )
        with pytest.raises(pde.InvalidTrace):
            pde.neumann_trace(field, coeff)


class TestBoundaryNorms:
    def make_trace(self, g_of_t, nt=201, T=1.0):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 17)
        times = np.linspace(0.0, T, nt)
        values = np.stack(
            [np.full(grid.boundary_ids.size, g_of_t(t), dtype=complex)
             for t in times]
        )
        return pde.BoundaryTrace(
            weights=grid.boundary_weights, times=times, values=values
        )

    def test_constant_closed_form(self):
        tr = self.make_trace(lambda t: 1.0, nt=11)
        # perimeter 8, horizon 1, g' = 0
        assert pde.h1l2_boundary_norm(tr) == pytest.approx(np.sqrt(8.0))

    def test_sine_closed_form(self):
        om, T = 3.0, 1.0
        tr = self.make_trace(lambda t: np.sin(om * t), nt=201, T=T)
        i_sin = T / 2 - np.sin(2 * om * T) / (4 * om)
        i_cos = T / 2 + np.sin(2 * om * T) / (4 * om)
        expect = np.sqrt(8.0 * (i_sin + om**2 * i_cos))
        assert pde.h1l2_boundary_norm(tr) == pytest.approx(expect, rel=1e-3)

    def test_homogeneity(self):
        tr = self.make_trace(lambda t: np.sin(2 * t) + 0.3, nt=41)
        scaled = pde.BoundaryTrace(
            weights=tr.weights,
            times=tr.times, values=-2.5j * tr.values,
        )
        assert pde.h1l2_boundary_norm(scaled) == pytest.approx(
            2.5 * pde.h1l2_boundary_norm(tr), rel=1e-12
        )

    def test_needs_three_levels(self):
        tr = self.make_trace(lambda t: 1.0, nt=11)
        short = pde.BoundaryTrace(
            weights=tr.weights,
            times=tr.times[:2], values=tr.values[:2],
        )
        with pytest.raises(pde.InvalidTrace):
            pde.h1l2_boundary_norm(short)


class TestSpaceTimeField:
    def test_shape_validation(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 9)
        with pytest.raises(pde.SolverError):
            pde.SpaceTimeField(
                grid=grid, times=np.linspace(0, 1, 4),
                values=np.zeros((3,) + grid.shape, complex),
            )

    def test_nonuniform_times_rejected_by_time_step(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 9)
        with pytest.raises(pde.SolverError):
            pde.time_step(np.array([0.0, 0.1, 0.3]))
        assert pde.time_step(np.linspace(0.0, 1.0, 5)) == 0.25
        assert pde.time_step(np.zeros(1)) == 0.0


if __name__ == "__main__":
    pytest.main(["--capture=no", __file__])
