"""Tests for the inverse-problem module.

Oracles:
  * algebraic identity of the initial-condition inversion (exact to
    rounding) plus a solver pipeline whose error floor must decrease
    under refinement;
  * central finite differences for the adjoint-state gradient along
    seeded random directions;
  * scaling/linearity structure of the stability sweep (slope near one on
    log-log axes, local linearity of the measurement map).
"""

import contextlib
import dataclasses
import io
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from carleman_lab import carleman_check as cc
from carleman_lab import cli
from carleman_lab import config as cfgmod
from carleman_lab import geometry as geo
from carleman_lab import inverse as inv
from carleman_lab import pde_solver as pde
from carleman_lab import weight as wt

import oracles


DEFAULT_INI = Path(__file__).resolve().parents[1] / "configs" / "default.ini"


def make_layout(half=1.0, radius=0.5, n=64):
    outer = geo.RectangularDomain(-half, half, -half, half)
    return geo.DomainLayout(outer, geo.disk_interface(radius, n=n))


def make_instance(nx=17, n_steps=12, T=0.5, a1=2.0, a2=1.0, noise=0.0, seed=0,
                  imaginary=False, q_bound=np.inf):
    layout = make_layout()
    grid = pde.Grid2D.from_layout(layout, nx)
    coeff = wt.PiecewiseCoefficient(a1, a2, layout)
    pts = grid.points
    p = 1.0 + 0.4 * np.sin(pts[..., 0]) * np.cos(pts[..., 1])
    y0 = (2.0 + 0.5 * np.cos(np.pi * pts[..., 0] / 2.0)).astype(complex)
    if imaginary:
        y0 = 1j * y0
    return inv.make_instance(
        grid, coeff, p, y0, T, n_steps,
        noise_level=noise, seed=seed, q_bound=q_bound,
    )


def smooth_direction(grid, seed):
    rng = np.random.default_rng(seed)
    pts = grid.points
    out = np.zeros(grid.shape)
    for _ in range(3):
        c = rng.uniform(-0.6, 0.6, 2)
        w = rng.uniform(0.25, 0.5)
        out += rng.normal() * np.exp(
            -((pts[..., 0] - c[0]) ** 2 + (pts[..., 1] - c[1]) ** 2) / w**2
        )
    return out / np.max(np.abs(out))


class TestInstance:
    def test_records_fields(self):
        inst = make_instance()
        assert inst.data.values.shape[0] == inst.n_steps + 1

    def test_callable_profile_is_sampled_like_its_array(self):
        # one sampler serves make_instance, SchrodingerOperator and L v:
        # a callable profile gives the array it describes on every path
        inst = make_instance()
        grid, coeff = inst.grid, inst.coeff

        def p(pts):
            assert pts.shape == (grid.nx * grid.ny, 2)
            return 1.0 + 0.4 * np.sin(pts[:, 0]) * np.cos(pts[:, 1])

        def y0(pts):
            return (2.0 + 0.5 * np.cos(np.pi * pts[:, 0] / 2.0)).astype(complex)

        from_callable = inv.make_instance(grid, coeff, p, y0, inst.T, inst.n_steps)
        assert np.array_equal(from_callable.p_true, inst.p_true)
        assert np.array_equal(from_callable.y0, inst.y0)
        assert np.array_equal(from_callable.data.values, inst.data.values)
        op = pde.SchrodingerOperator(grid, coeff, p, 0.01)
        assert np.array_equal(op.potential, inst.p_true)
        fld = pde.solve_forward(grid, coeff, inst.p_true, inst.y0, 0.0, inst.T,
                                inst.n_steps, boundary=inst.boundary)
        lv = cc.apply_transmission_operator(fld, coeff, p).values
        assert np.array_equal(
            lv, cc.apply_transmission_operator(fld, coeff, inst.p_true).values
        )

    def test_profile_of_wrong_shape_is_a_solver_error(self):
        inst = make_instance()
        with pytest.raises(pde.SolverError):
            inv.make_instance(inst.grid, inst.coeff, np.ones(5), inst.y0,
                              inst.T, inst.n_steps)

    def test_default_dirichlet_data_holds_the_rim_of_y0(self):
        inst = make_instance()
        rim = inst.y0.ravel()[inst.grid.boundary_ids]
        for t in (0.0, 0.5 * inst.T, inst.T):
            assert np.array_equal(inst.boundary(inst.grid.boundary_points, t), rim)

    def test_noiseless_data_matches_forward_trace(self):
        inst = make_instance()
        fld = pde.solve_forward(
            inst.grid, inst.coeff, inst.p_true, inst.y0, 0.0, inst.T,
            inst.n_steps, boundary=inst.boundary,
        )
        tr = pde.neumann_trace(fld, inst.coeff)
        np.testing.assert_allclose(inst.data.values, tr.values, atol=1e-14)

    def test_lower_bound_enforced(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 9)
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
        pts = grid.points
        bad_y0 = pts[..., 0].astype(complex)  # crosses zero
        with pytest.raises(inv.InitialStateTooSmall):
            inv.make_instance(grid, coeff, np.ones(grid.shape), bad_y0, 0.4, 6)

    def test_mixed_complex_y0_rejected(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 9)
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
        y0 = (1.0 + 1.0j) * np.full(grid.shape, 2.0)
        with pytest.raises(ValueError):
            inv.make_instance(grid, coeff, np.ones(grid.shape), y0, 0.4, 6)

    def test_imaginary_y0_accepted(self):
        inst = make_instance(imaginary=True)
        assert not inst.y0.real.any() and inst.y0.imag.all()
        assert np.all(np.isfinite(inst.data.values))

    def test_noise_is_seeded_and_scaled(self):
        a = make_instance(noise=0.01, seed=5)
        b = make_instance(noise=0.01, seed=5)
        c = make_instance(noise=0.01, seed=6)
        clean = make_instance()
        np.testing.assert_array_equal(a.data.values, b.data.values)
        assert not np.array_equal(a.data.values, c.data.values)
        rms = np.sqrt(np.mean(np.abs(clean.data.values) ** 2))
        noise_rms = np.sqrt(np.mean(np.abs(a.data.values - clean.data.values) ** 2))
        assert noise_rms == pytest.approx(0.01 * rms, rel=0.35)


class TestBKRecovery:
    def test_exact_algebra(self):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 15)
        pts = grid.points
        f = np.sin(pts[..., 0]) * np.cos(2.0 * pts[..., 1])
        r0 = 2.0 + 0.3 * np.cos(pts[..., 1])
        v0 = -1j * f * r0
        got = oracles.bk_recover_f(v0, r0)
        np.testing.assert_allclose(got, f, atol=1e-12)

    def test_zero_maps_to_zero(self):
        r0 = np.full((7, 7), 1.5)
        got = oracles.bk_recover_f(np.zeros((7, 7), dtype=complex), r0)
        assert np.all(got == 0.0)

    def test_singular_r0_raises(self):
        r0 = np.full((5, 5), 0.4)
        with pytest.raises(oracles.SingularR0):
            oracles.bk_recover_f(np.zeros((5, 5), dtype=complex), r0)

    def test_time_derivative_pipeline_is_exact_at_t0(self):
        # the time-derivative field starts at v(0) = -i f R(0)
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, 17)
        pts = grid.points
        f = np.exp(-((pts[..., 0] - 0.1) ** 2 + pts[..., 1] ** 2) / 0.16)
        r0 = np.full(grid.shape, 2.0)
        np.testing.assert_array_equal(oracles.bk_recover_f(-1j * f * r0, r0), f)

    def test_linearized_pipeline_floor_decreases(self):
        # reconstruct v(0) from the one-sided derivative of the solved
        # linearized trajectory; the floor is discretization error
        errs = []
        for nx, steps in ((17, 16), (25, 32)):
            layout = make_layout()
            grid = pde.Grid2D.from_layout(layout, nx)
            coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
            pts = grid.points
            q = 1.0 + 0.2 * np.sin(pts[..., 0] + pts[..., 1])
            f = np.exp(-((pts[..., 0] - 0.1) ** 2 + pts[..., 1] ** 2) / 0.2)
            r0 = np.full(grid.shape, 2.0)

            def r(p, t):
                return 2.0 * np.exp(-1.2j * t) * np.ones(p.shape[:-1])

            u = oracles.solve_linearized(grid, coeff, q, f, r, 0.0, 0.4, steps)
            dt = pde.time_step(u.times)
            v0_hat = (4.0 * u.values[1] - u.values[2]) / (2.0 * dt)
            f_hat = oracles.bk_recover_f(v0_hat, r0)
            mask = np.abs(f) > 1e-3
            errs.append(
                float(np.linalg.norm((f_hat - f)[mask]) / np.linalg.norm(f[mask]))
            )
        assert errs[1] < errs[0] / 1.5, f"floor did not decrease: {errs}"
        assert errs[0] < 0.1


class TestMisfit:
    def test_truth_fits_data_exactly(self):
        inst = make_instance()
        assert inv.misfit(inst.p_true, inst) == pytest.approx(0.0, abs=1e-20)

    def test_regularizer_zero_at_reference(self):
        inst = make_instance()
        val = inv.misfit(inst.p_true, inst, beta=0.5, q_ref=inst.p_true)
        assert val == pytest.approx(0.0, abs=1e-20)

    def test_regularizer_value(self):
        inst = make_instance()
        q = inst.p_true + 0.1
        base = inv.misfit(q, inst)
        reg = inv.misfit(q, inst, beta=2.0, q_ref=inst.p_true)
        n_nodes = inst.grid.nx * inst.grid.ny
        expected = base + 0.5 * 2.0 * inst.grid.h**2 * 0.01 * n_nodes
        assert reg == pytest.approx(expected, rel=1e-12)

    def test_continuity(self):
        inst = make_instance()
        base = inv.misfit(inst.p_true, inst)
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            worst = 0.0
            for k in range(5):
                d = smooth_direction(inst.grid, 100 + k)
                worst = max(worst, abs(inv.misfit(inst.p_true + eps * d, inst) - base))
            gaps.append(worst)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_bound_enforced(self):
        inst = make_instance(q_bound=3.0)
        with pytest.raises(ValueError):
            inv.misfit(np.full(inst.grid.shape, 4.0), inst)


class TestGradient:
    @pytest.mark.parametrize("beta", [0.0, 1e-3])
    def test_matches_central_differences(self, beta):
        inst = make_instance(nx=15, n_steps=10)
        q = inst.p_true + 0.3 * smooth_direction(inst.grid, 42)
        q_ref = np.zeros(inst.grid.shape)
        _, grad = inv.misfit_and_gradient(q, inst, beta=beta, q_ref=q_ref)
        step = 1e-5
        for k in range(5):
            d = smooth_direction(inst.grid, 7 + k)
            plus = inv.misfit(q + step * d, inst, beta=beta, q_ref=q_ref)
            minus = inv.misfit(q - step * d, inst, beta=beta, q_ref=q_ref)
            fd = (plus - minus) / (2.0 * step)
            an = float(np.sum(grad * d))
            assert an == pytest.approx(fd, rel=1e-3), f"direction {k}"

    @pytest.mark.parametrize("nt", [3, 4, 5, 33])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_time_stencil_is_the_dense_one(self, nt, uniform):
        # the banded D and its transpose against the dense matrices the
        # gradient once formed from the identity, on random residuals
        rng = np.random.default_rng(nt)
        times = (0.1 + 0.5 / (nt - 1) * np.arange(nt) if uniform
                 else np.cumsum(rng.uniform(0.5, 1.5, nt)))
        eye = np.eye(nt)
        dense = np.gradient(eye, times, axis=0, edge_order=2)
        D, tau = inv._time_stencil(times)
        assert D.nnz == 3 * nt
        assert np.array_equal(D.toarray(), dense)
        assert np.array_equal(tau, np.trapezoid(eye, times, axis=0))
        r = rng.normal(size=(nt, 7)) + 1j * rng.normal(size=(nt, 7))
        for got, want in ((D @ r, dense @ r), (D.T @ r, dense.T @ r),
                          (D @ r, np.gradient(r, times, axis=0, edge_order=2))):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_adjoint_march_matches_a_per_step_loop_bit_for_bit(self):
        # a time-dependent rim, which no config can drive, set on the
        # instance (its data stays that of the held rim); the reference
        # forms rho as misfit_and_gradient does and marches the adjoint
        # with the LU's trans "H" solve, one step at a time
        base = make_instance(nx=15, n_steps=10)
        grid = base.grid
        rim = base.y0.ravel()[grid.boundary_ids]
        inst = dataclasses.replace(
            base, boundary=lambda pts, t: (1.0 + t) * np.exp(-2j * t) * rim,
        )
        q = inst.p_true + 0.3 * smooth_direction(grid, 42)
        _, grad = inv.misfit_and_gradient(q, inst)

        op, field, tr = inv._forward(q, inst)
        residual = tr.values - inst.data.values
        D, tau = inv._time_stencil(tr.times)
        rdot = D @ residual
        z = tau[:, None] * residual + D.T @ (tau[:, None] * rdot)
        z = z * tr.weights[None, :]
        rho = (inst.on_grid.trace[:, grid.interior_ids].T @ z.T).T
        y_int = field.interior()
        dt = inst.T / inst.n_steps
        grad_int = np.zeros(y_int.shape[1])
        lam_next = np.zeros(y_int.shape[1], dtype=complex)
        lu = oracles.own_factor(op)
        for n in range(inst.n_steps, 0, -1):
            lam = lu.solve(rho[n] + 2.0 * lam_next, trans="H") - lam_next
            grad_int += 0.5 * dt * np.real(
                1j * np.conj(lam) * (y_int[n - 1] + y_int[n])
            )
            lam_next = lam
        assert np.array_equal(grad, np.real(grid.scatter_interior(grad_int)))

    def test_gradient_invariants_are_built_once_per_instance(self):
        # the time stencil of every solve's trace and the interior columns
        # of the trace operator depend on the instance only
        inst = make_instance(nx=15, n_steps=10)
        _, _, tr = inv._forward(inst.p_true, inst)
        D, tau = inst.time_stencil
        want_D, want_tau = inv._time_stencil(tr.times)
        assert np.array_equal(D.toarray(), want_D.toarray())
        assert np.array_equal(tau, want_tau)
        inv.misfit_and_gradient(inst.p_true, inst)
        assert inst.time_stencil[0] is D
        c_int = inst.on_grid.trace_interior
        assert (c_int != inst.on_grid.trace[:, inst.grid.interior_ids]).nnz == 0
        inv.misfit_and_gradient(inst.p_true, inst)
        assert inst.on_grid.trace_interior is c_int

    def test_misfit_value_consistency(self):
        inst = make_instance(nx=15, n_steps=10)
        q = inst.p_true + 0.2 * smooth_direction(inst.grid, 3)
        val, _ = inv.misfit_and_gradient(q, inst, beta=1e-2, q_ref=inst.p_true)
        assert val == pytest.approx(
            inv.misfit(q, inst, beta=1e-2, q_ref=inst.p_true), rel=1e-14
        )


class TestReconstruct:
    def test_zero_gap_converges_immediately(self):
        inst = make_instance()
        res = inv.reconstruct(inst, inst.p_true, beta=0.0, max_iter=20)
        assert isinstance(res, inv.ReconstructionResult)
        assert res.iterations == 0
        assert res.final_misfit == pytest.approx(0.0, abs=1e-18)

    def test_planted_bump_recovered(self):
        inst = make_instance(nx=17, n_steps=16, T=0.5)
        pts = inst.grid.points
        bump = 0.35 * np.exp(-((pts[..., 0] + 0.1) ** 2 + pts[..., 1] ** 2) / 0.18)
        q0 = inst.p_true - bump
        res = inv.reconstruct(inst, q0, beta=1e-6, max_iter=60)
        assert isinstance(res, inv.ReconstructionResult)
        assert res.final_misfit <= res.initial_misfit
        err0 = np.linalg.norm(q0 - inst.p_true) / np.linalg.norm(inst.p_true)
        assert res.relative_error < 0.5 * err0
        assert res.iterations <= 60

    def test_stall_is_returned_not_raised(self, monkeypatch):
        # the misfit is lowest at the start and higher at every other
        # point, while the gradient claims descent along -1: no trial step
        # of the line search lowers the misfit, whatever the arithmetic
        def nowhere_lower(q, instance, beta, ref):
            return (1.0 if np.array_equal(q, ref) else 2.0), np.ones_like(q)

        monkeypatch.setattr(inv, "misfit_and_gradient", nowhere_lower)
        inst = make_instance()
        q0 = inst.p_true + 0.2
        res = inv.reconstruct(inst, q0, beta=0.0, max_iter=5)
        assert isinstance(res, inv.ReconstructionResult)
        assert res.stalled and not res.converged
        assert res.iterations == 0
        assert res.stop_reason.startswith("line search failed (ABNORMAL")
        assert res.final_misfit <= res.initial_misfit
        assert res.as_dict()["stalled"] is True

    def test_bounded_iterates_stay_in_the_box(self, monkeypatch):
        # the true potential reaches 1.34, so the bound is active
        inst = make_instance(q_bound=1.2)
        assert np.max(inst.p_true) > 1.2
        sups = []
        true_pair = inv.misfit_and_gradient

        def recorded(q, *args, **kwargs):
            sups.append(float(np.max(np.abs(q))))
            return true_pair(q, *args, **kwargs)

        monkeypatch.setattr(inv, "misfit_and_gradient", recorded)
        res = inv.reconstruct(inst, np.full(inst.grid.shape, 1.0), beta=1e-6,
                              max_iter=10)
        assert isinstance(res, inv.ReconstructionResult)
        assert len(sups) > res.iterations > 0
        assert max(sups) <= 1.2
        assert np.max(np.abs(res.q_hat)) <= 1.2
        assert res.final_misfit <= res.initial_misfit

    def test_zero_iterations_return_the_start(self):
        inst = make_instance()
        q0 = inst.p_true + 0.2
        res = inv.reconstruct(inst, q0, beta=1e-6, max_iter=0)
        assert res.iterations == 0
        assert res.stop_reason == "iteration limit"
        assert np.array_equal(res.q_hat, q0)

    def test_zero_bound_returns_the_only_admissible_potential(self):
        # q_bound = 0 fixes every node at 0: there is nothing to iterate on
        inst = make_instance(q_bound=0.0)
        res = inv.reconstruct(inst, np.zeros(inst.grid.shape), beta=1e-6,
                              max_iter=5)
        assert isinstance(res, inv.ReconstructionResult)
        assert res.iterations == 0
        assert not np.any(res.q_hat)
        assert res.final_misfit == res.initial_misfit

    def test_noise_degrades_gracefully(self):
        # 1% trace noise should push the recovered potential to the noise
        # floor (stability constant times noise size), not blow it up
        errors = {}
        for noise in (0.0, 0.01):
            inst = make_instance(nx=17, n_steps=16, T=0.5, noise=noise, seed=9)
            pts = inst.grid.points
            bump = 0.3 * np.exp(-((pts[..., 0] + 0.1) ** 2 + pts[..., 1] ** 2) / 0.18)
            q0 = inst.p_true - bump
            res = inv.reconstruct(inst, q0, beta=1e-5, max_iter=40)
            assert res.final_misfit <= res.initial_misfit
            errors[noise] = res.relative_error
        assert errors[0.0] <= 0.01
        assert errors[0.01] <= 0.12

    @staticmethod
    def default_run(y0_scale=1.0, beta_scale=1.0):
        # the invert subcommand on configs/default.ini, optionally with y0
        # and beta scaled
        cfg = cfgmod.load_config(DEFAULT_INI)
        inst = cli._build_instance(cfg)
        if y0_scale != 1.0:
            inst = inv.make_instance(
                inst.grid, inst.coeff, inst.p_true, y0_scale * inst.y0,
                inst.T, inst.n_steps, r_lower=cfg.inverse.r_lower,
            )
        q0 = cfgmod.real_profile(cfg.inverse.q0, inst.grid)
        return inv.reconstruct(inst, q0, beta=beta_scale * cfg.inverse.beta,
                               max_iter=cfg.inverse.max_iter)

    def test_default_config_stops_at_the_error_floor(self):
        res = self.default_run()
        assert res.stop_reason == "gradient below tolerance"
        assert res.converged
        assert res.iterations <= 25
        assert abs(res.relative_error - 0.073574) <= 1e-5

    def test_stop_is_relative_to_the_initial_gradient(self):
        # y0 x2 and beta x4 scale misfit and gradient by exactly 4, so the
        # iterates match bit for bit and only an absolute floor would move
        # the stop
        base = self.default_run()
        scaled = self.default_run(y0_scale=2.0, beta_scale=4.0)
        assert scaled.initial_misfit == 4.0 * base.initial_misfit
        assert scaled.stop_reason == base.stop_reason == "gradient below tolerance"
        assert scaled.iterations == base.iterations
        assert scaled.relative_error == base.relative_error


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestSolveReuse:
    """Stencils are built once per instance, and each evaluation in
    reconstruct factors one operator and frees it before it returns."""

    def test_stencils_built_once_per_instance(self, monkeypatch):
        flux = count_calls(monkeypatch, pde, "_assemble_flux_matrix")
        trace = count_calls(monkeypatch, pde, "trace_operator")
        inst = make_instance()
        res = inv.reconstruct(inst, inst.p_true - 0.2, beta=1e-6, max_iter=4)
        assert res.iterations == 4
        assert len(flux) == 1 and len(trace) == 1

    def test_one_operator_per_evaluation(self, monkeypatch):
        inst = make_instance()
        ops = count_calls(monkeypatch, pde.SchrodingerOperator, "__init__")
        evals = count_calls(monkeypatch, inv, "misfit_and_gradient")
        res = inv.reconstruct(inst, inst.p_true - 0.2, beta=1e-6, max_iter=8)
        assert res.iterations == 8
        assert len(evals) > res.iterations
        assert len(ops) == len(evals)

    def test_invert_orders_the_columns_once(self, monkeypatch, tmp_path):
        # the grid's columns are ordered by minimum degree once, and every
        # operator, the instance's forward solve's first, factors P in that
        # order; no operator factors twice
        calls = []
        factor = pde.splu

        def counted(matrix, permc_spec, **kw):
            calls.append((permc_spec, kw))
            return factor(matrix, permc_spec=permc_spec, **kw)

        monkeypatch.setattr(pde, "splu", counted)
        ops = count_calls(monkeypatch, pde.SchrodingerOperator, "__init__")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["invert", "--config", str(DEFAULT_INI),
                             "--output-dir", str(tmp_path)])
        assert code == 0
        assert len(ops) > 2
        specs, options = zip(*calls)
        assert specs == ("MMD_AT_PLUS_A",) + ("NATURAL",) * len(ops)
        # every numeric factor takes the supernode options of the own MMD
        # factor that the bit-for-bit tests compare its solves with
        monkeypatch.setattr(oracles, "splu", counted)
        inst = make_instance()
        oracles.own_factor(pde.SchrodingerOperator(
            inst.grid, inst.on_grid, inst.p_true, inst.T / inst.n_steps))
        own = calls[-1][1]
        assert {"panel_size", "relax"} <= own.keys()
        assert all(kw == own for kw in options[1:])

    def test_no_operator_alive_after_an_evaluation(self, monkeypatch):
        # the LU lives outside Python's heap: one kept past its evaluation
        # would be alive next to the next factorization
        inst = make_instance()
        ops = []
        init = pde.SchrodingerOperator.__init__

        def tracked(self, *args, **kwargs):
            ops.append(weakref.ref(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(pde.SchrodingerOperator, "__init__", tracked)
        true_pair = inv.misfit_and_gradient
        alive = []

        def checked(*args, **kwargs):
            out = true_pair(*args, **kwargs)
            alive.append(sum(ref() is not None for ref in ops))
            return out

        monkeypatch.setattr(inv, "misfit_and_gradient", checked)
        res = inv.reconstruct(inst, inst.p_true - 0.2, beta=1e-6, max_iter=8)
        assert len(alive) == len(ops) > res.iterations
        assert alive == [0] * len(alive)


class TestStability:
    def test_clipped_records_give_no_slope(self):
        inst = make_instance(nx=13, n_steps=8, q_bound=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = inv.stability_sweep(inst, n_perturbations=3, seed=3)
        assert len({r.trace_distance for r in out.records}) == 1
        assert np.isnan(out.loglog_slope)

    def test_sweep_structure_and_slope(self):
        inst = make_instance(nx=17, n_steps=12)
        out = inv.stability_sweep(
            inst, n_perturbations=10, amplitude_range=(1e-3, 1e-1), seed=7
        )
        assert len(out.records) == 10
        ratios = np.array([r.ratio for r in out.records])
        assert np.all(np.isfinite(ratios))
        assert np.all(ratios > 0.0)
        assert out.empirical_C == pytest.approx(float(ratios.max()))
        assert out.empirical_C <= 10.0 * float(np.median(ratios))
        assert 0.8 <= out.loglog_slope <= 1.2
        assert out.certified is True

    def test_reproducible_from_seed(self):
        inst = make_instance(nx=13, n_steps=8)
        a = inv.stability_sweep(inst, n_perturbations=4, seed=3)
        b = inv.stability_sweep(inst, n_perturbations=4, seed=3)
        for ra, rb in zip(a.records, b.records):
            assert ra.potential_distance == rb.potential_distance
            assert ra.trace_distance == rb.trace_distance

    def test_zero_amplitude_records_skipped(self):
        # every record is skipped, and a sweep with no record has no constant
        inst = make_instance(nx=13, n_steps=8)
        with pytest.raises(inv.DegenerateSweep, match="has no record"):
            inv.stability_sweep(
                inst, n_perturbations=3, amplitude_range=(0.0, 0.0), seed=1
            )

    def test_no_perturbation_has_no_record(self):
        inst = make_instance(nx=13, n_steps=8)
        with pytest.raises(inv.DegenerateSweep, match="none of the 0 "):
            inv.stability_sweep(inst, n_perturbations=0, seed=1)

    @pytest.mark.parametrize("trace", [0.0, 5e-324])
    def test_non_finite_ratio_is_degenerate(self, monkeypatch, trace):
        # a potential change the trace does not see, or sees too little
        # for the ratio to be a double, gives no stability constant
        inst = make_instance(nx=13, n_steps=8)
        monkeypatch.setattr(inv, "trace_distance", lambda instance, q: trace)
        with pytest.raises(inv.DegenerateSweep, match="ratio is not finite"):
            inv.stability_sweep(inst, n_perturbations=3, seed=1)

    def test_local_linearity_of_measurement(self):
        inst = make_instance(nx=17, n_steps=12)
        rng = np.random.default_rng(11)
        delta = 1e-3 * smooth_direction(inst.grid, 21)
        d1 = inv.trace_distance(inst, inst.p_true + delta)
        d2 = inv.trace_distance(inst, inst.p_true + 2.0 * delta)
        assert d2 / d1 == pytest.approx(2.0, rel=0.1)

    def test_negative_control_uncertified(self):
        inst = make_instance(a1=1.0, a2=2.0)
        out = inv.stability_sweep(inst, n_perturbations=3, seed=2)
        assert out.certified is False
        assert out.hypothesis_report.records["H2"].ok is False
        assert len(out.records) == 3  # the pipeline still runs


class TestCertification:
    def test_valid_instance_certifies(self):
        inst = make_instance()
        certified, report = inv.certify_instance(inst)
        assert certified is True
        assert report.all_ok

    def test_certificate_reports_h2_failure(self):
        inst = make_instance(a1=1.0, a2=2.0)
        certified, report = inv.certify_instance(inst)
        assert certified is False
        assert not report.records["H2"].ok
        assert report.records["H2"].margin < 0.0
