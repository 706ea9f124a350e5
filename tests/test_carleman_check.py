"""Tests for the Carleman-estimate evaluation module.

Oracles used here:
  * a separable closed-form factorization of the weighted norm on a
    constant-psi stand-in weight (the implementation integrates the full
    space-time arrays, the oracle multiplies 1-D factors);
  * the conjugation identity evaluated by two independent routes,
    multiply-conjugate-apply-operator versus the analytic split operators,
    which must agree to discretization order;
  * exact quadratic homogeneity of every report component.
"""

import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman_lab import carleman_check as cc
from carleman_lab import config as cfgmod
from carleman_lab import geometry as geo
from carleman_lab import pde_solver as pde
from carleman_lab import weight as wt

import oracles

TWO_PI = 2.0 * np.pi
CARLEMAN_INI = Path(__file__).resolve().parents[1] / "configs" / "carleman.ini"


def small_layout(half=1.3, radius=1.0, n=64):
    outer = geo.RectangularDomain(-half, half, -half, half)
    return geo.DomainLayout(outer, geo.disk_interface(radius, n=n))


def small_problem(nx=21, s=20.0, lam=2.0, T=1.0, a1=0.2, a2=0.1, M2=0.1):
    layout = small_layout()
    grid = pde.Grid2D.from_layout(layout, nx)
    coeff = wt.PiecewiseCoefficient(a1, a2, layout)
    pair = wt.build_epsilon_pair(layout, (-0.12, 0.0), (0.12, 0.0), a1, a2, M2=M2)
    params = wt.params_from_sup(wt.psi_grid_max((pair.w1, pair.w2)), s, lam, T)
    return layout, grid, coeff, pair, params


def clamped_times(params, n_half):
    t_max = params.T - params.delta_t
    return np.linspace(-t_max, t_max, 2 * n_half + 1)


def boundary_taper(grid, margin=0.25):
    xmin, xmax, ymin, ymax = grid.layout.outer.bounds
    pts = grid.points

    def edge(d):
        u = np.clip(d / margin, 0.0, 1.0)
        return u**3 * (10.0 - 15.0 * u + 6.0 * u**2)

    return (
        edge(pts[..., 0] - xmin)
        * edge(xmax - pts[..., 0])
        * edge(pts[..., 1] - ymin)
        * edge(ymax - pts[..., 1])
    )


def time_bump(times, t0):
    """C-infinity envelope, exactly zero for |t| >= t0."""
    out = np.zeros_like(times)
    inside = np.abs(times) < t0
    u = times[inside] / t0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u**2))
    return out


def bump_envelope_field(grid, params, center, width, omega, n_half=16, amp=1.0):
    times = clamped_times(params, n_half)
    pts = grid.points
    r2 = (pts[..., 0] - center[0]) ** 2 + (pts[..., 1] - center[1]) ** 2
    profile = amp * np.exp(-r2 / width**2) * boundary_taper(grid)
    env = time_bump(times, 0.55 * times[-1]) * np.exp(1j * omega * times)
    values = env[:, None, None] * profile[None, :, :]
    return pde.SpaceTimeField(grid=grid, times=times, values=values.astype(complex))


def solved_clamped_field(grid, coeff, q, params, n_half=16, seed=3):
    rng = np.random.default_rng(seed)
    pts = grid.points
    c = rng.uniform(-0.25, 0.25, 2)
    r2 = (pts[..., 0] - c[0]) ** 2 + (pts[..., 1] - c[1]) ** 2
    y0 = 1j * np.exp(-r2 / 0.35**2)
    t_max = params.T - params.delta_t
    fwd = pde.solve_forward(grid, coeff, q, y0, 0.0, t_max, n_half)
    return oracles.extend_time(fwd)


def phi_of(weight, params, coeff, grid, times):
    """weight's phi factors over times, for operators with coefficient coeff."""
    return cc._Phi.of(cc.WeightOnGrid(weight, grid), params,
                      pde.CoefficientOnGrid(coeff, grid), times)


def factors(weight, params, coeff, grid, times):
    return cc._conjugation_factors(phi_of(weight, params, coeff, grid, times), 0.0)


def P1(v, weight, params, coeff):
    """P1 v over the whole stack."""
    factors = cc._Factors.of(phi_of(weight, params, coeff, v.grid, v.times), v.times)
    dvdt = cc._time_derivative(v.values, pde.time_step(v.times))
    return cc.apply_P1(v.values, dvdt, factors)


def P2(v, weight, params, coeff):
    """P2 v over the whole stack."""
    factors = cc._Factors.of(phi_of(weight, params, coeff, v.grid, v.times), v.times)
    grad = cc._spatial_gradient(v.values, v.grid.h)
    return cc.apply_P2(v.values, grad, factors)


def read_levels(v):
    """v's values as a walk reads them: read(lo, hi) is levels lo..hi-1."""
    return lambda lo, hi: v.values[lo:hi]


def mirror_phase(v):
    return oracles.mirror_phase(v.times, read_levels(v))


def time_support(v):
    return oracles.time_support(v.nt, read_levels(v))


def norm_sq(v, weight, params, coeff):
    return cc.weighted_norm_sq(v, phi_of(weight, params, coeff, v.grid, v.times))


class ConstPsi:
    """Duck-typed stand-in weight with spatially constant psi."""

    def __init__(self, value):
        self.value = float(value)

    def jet(self, pts, order=0):
        shape = np.asarray(pts, dtype=float).shape[:-1]
        return wt.WeightJet(
            np.full(shape, self.value),
            np.zeros(shape + (2,)) if order >= 1 else None,
            np.zeros(shape + (2, 2)) if order >= 2 else None,
        )


class TestConjugate:
    def test_s_zero_is_identity(self):
        layout, grid, coeff, pair, base = small_problem()
        params = dataclasses.replace(base, s=0.0)
        fac = factors(pair.w1, params, coeff, grid, clamped_times(params, 6))
        assert np.all(fac == 1.0)

    def test_multiply_back_recovers_field(self):
        layout, grid, coeff, pair, base = small_problem(s=2.0)
        v = bump_envelope_field(grid, base, (0.3, -0.2), 0.4, 2.0, n_half=8)
        wvals = v.values * factors(pair.w1, base, coeff, grid, v.times)
        pts = grid.points.reshape(-1, 2)
        for n, t in enumerate(v.times):
            phi = oracles.eval_phi(pair.w1, base, pts, t).reshape(grid.shape)
            w = wvals[n]
            live = np.abs(w) > 1e-200
            if not live.any():
                continue
            back = w[live] * np.exp(base.s * phi[live])
            ref = v.values[n][live]
            assert np.allclose(back, ref, rtol=1e-12, atol=1e-300)

    def test_large_s_flushes_clamp_slices(self):
        layout = geo.DomainLayout(
            geo.RectangularDomain(-1.6, 1.6, -1.6, 1.6), geo.disk_interface(1.0, n=64)
        )
        grid = pde.Grid2D.from_layout(layout, 21)
        w1 = wt.build_weight(layout, (0.05, 0.0), 2.0, 1.0, M2=1.0)
        params = wt.params_from_sup(wt.psi_grid_max((w1,)), 20.0, 2.0, 1.0)
        times = clamped_times(params, 8)
        fac = factors(w1, params, w1.coeff, grid, times)
        assert np.all(fac[0] < 1e-100)
        assert np.all(fac[-1] < 1e-100)
        # far below the flush threshold the stored value is exactly zero
        assert np.all(fac[0] == 0.0)

    def test_never_signals_on_undersized_alpha(self):
        # alpha fitted to a psi sup below the grid's maximum: phi < 0 at
        # the nodes where psi exceeds it
        layout, grid, coeff, pair, base = small_problem()
        low = wt.psi_grid_max((pair.w1, pair.w2)) - 2.0
        bad = wt.params_from_sup(low, 4.0, base.lam, base.T)
        assert bad.alpha < np.exp(base.lam * cc.WeightOnGrid(pair.w1, grid).psi).max()
        times = clamped_times(bad, 4)
        fac = factors(pair.w1, bad, coeff, grid, times)  # must not raise
        assert np.all(np.isfinite(fac))


class TestSplitOperators:
    def test_zero_field_maps_to_zero(self):
        layout, grid, coeff, pair, params = small_problem()
        times = clamped_times(params, 5)
        zero = pde.SpaceTimeField(
            grid=grid,
            times=times,
            values=np.zeros((times.size,) + grid.shape, dtype=complex),
        )
        p1 = P1(zero, pair.w1, params, coeff)
        p2 = P2(zero, pair.w1, params, coeff)
        assert np.all(p1 == 0.0)
        assert np.all(p2 == 0.0)

    def test_s_zero_kills_P2_and_reduces_P1(self):
        layout, grid, coeff, pair, base = small_problem()
        params = dataclasses.replace(base, s=0.0)
        v = bump_envelope_field(grid, params, (-0.3, 0.2), 0.35, 1.5, n_half=8)
        p2 = P2(v, pair.w1, params, coeff)
        assert np.all(p2 == 0.0)
        p1 = P1(v, pair.w1, params, coeff)
        free = cc.apply_transmission_operator(v, coeff, np.zeros(grid.shape))
        np.testing.assert_allclose(p1, free.values, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "center,width",
        [((0.15, -0.1), 0.28), ((-0.2, 0.15), 0.25), ((0.0, 0.25), 0.3)],
    )
    def test_conjugation_identity_refines(self, center, width):
        # two independent routes: e^{-s phi} L(e^{s phi} w) versus
        # P1 w + P2 w + q w with analytic phi factors
        errs = []
        for nx, n_half in ((17, 16), (33, 32)):
            layout, grid, coeff, pair, params = small_problem(nx=nx, s=1.0, lam=1.0)
            pts = grid.points
            q = 0.8 + 0.3 * np.cos(pts[..., 0]) * np.sin(pts[..., 1])
            w = bump_envelope_field(grid, params, center, width, 2.0, n_half=n_half)
            direct = conjugated_operator_by_hand(w, pair.w1, params, coeff, q)
            split = (
                P1(w, pair.w1, params, coeff)
                + P2(w, pair.w1, params, coeff)
                + q[None, :, :] * w.values
            )
            num = space_time_l2(grid, w.times, direct - split)
            den = space_time_l2(grid, w.times, w.values)
            errs.append(num / den)
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.0, f"identity order {order:.2f} ({errs})"

    def test_stacked_evaluation_equals_slice_by_slice(self):
        # P2 and the weighted norm act on the whole time stack at once; the
        # per-time-slice loop below performs the same arithmetic, so the
        # results must agree bit for bit
        layout, grid, coeff, pair, params = small_problem()
        v = bump_envelope_field(grid, params, (0.2, -0.1), 0.4, 1.5, n_half=6)
        w, s, lam = pair.w1, params.s, params.lam
        pts = grid.points.reshape(-1, 2)
        psi, gpsi, hpsi = w.jet(pts, order=2)
        e_lp = np.exp(lam * psi).reshape(grid.shape)
        gpsi = gpsi.reshape(grid.shape + (2,))
        g2 = gpsi[..., 0] ** 2 + gpsi[..., 1] ** 2
        lap = (hpsi[..., 0, 0] + hpsi[..., 1, 1]).reshape(grid.shape)
        a = coeff.at(pts).reshape(grid.shape)
        div_ab = -a * lam * e_lp * (lam * g2 + lap)
        cell = grid.cell_weights
        tau = wt._time_factor(params, v.times)
        p2 = np.empty_like(v.values)
        dens = np.empty((2, v.nt))
        for n, wn in enumerate(v.values):
            wy, wx = np.gradient(wn, grid.h, edge_order=2)
            transport = (-lam * e_lp * gpsi[..., 0]) * wx + (
                -lam * e_lp * gpsi[..., 1]
            ) * wy
            p2[n] = (
                1j * s * (2.0 * v.times[n] * tau[n] ** 2) * (params.alpha - e_lp) * wn
                + 2.0 * s * tau[n] * a * transport
                + s * tau[n] * div_ab * wn
            )
            theta = e_lp * tau[n]
            dens[0, n] = np.sum(cell * theta**3 * (wn.real**2 + wn.imag**2))
            dens[1, n] = np.sum(
                cell * theta * (wx.real**2 + wx.imag**2 + wy.real**2 + wy.imag**2)
            )
        assert np.array_equal(P2(v, w, params, coeff), p2)
        norm = (
            s**3 * lam**4 * np.trapezoid(dens[0], v.times)
            + s * lam * np.trapezoid(dens[1], v.times)
        )
        assert norm_sq(v, w, params, coeff) == float(norm)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_residual_equals_its_formula_bit_for_bit(self, dtype):
        # L v is built in place in one buffer; the operations and their
        # order are those of the one-expression formula below
        layout, grid, coeff, pair, params = small_problem(nx=13)
        times = clamped_times(params, 4)
        rng = np.random.default_rng(5)
        values = rng.standard_normal((times.size,) + grid.shape).astype(dtype)
        if dtype is complex:
            values += 1j * rng.standard_normal(values.shape)
        q = 0.3 + grid.points[..., 0]
        got = cc.apply_transmission_operator(
            pde.SpaceTimeField(grid=grid, times=times, values=values), coeff, q
        ).values
        dvdt = np.gradient(values, times[1] - times[0], axis=0, edge_order=2)
        want = (
            1j * dvdt
            + cc._apply_flux(pde.CoefficientOnGrid(coeff, grid), values)
            + q[None, :, :] * values
        )
        assert np.array_equal(got, want)

    def test_residual_takes_a_complex_potential(self):
        layout, grid, coeff, pair, params = small_problem(nx=13)
        v = bump_envelope_field(grid, params, (0.2, -0.1), 0.4, 1.5, n_half=4)
        q_re = 0.3 + grid.points[..., 0]
        q_im = 0.2 * grid.points[..., 1]
        got = cc.apply_transmission_operator(v, coeff, q_re + 1j * q_im).values
        want = cc.apply_transmission_operator(v, coeff, q_re).values
        want += 1j * q_im[None, :, :] * v.values
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    def test_P1_equals_its_formula_bit_for_bit(self):
        # P1 is the Schrodinger stack of L v with the potential
        # s^2 a |grad phi|^2, built in place; the operations and their order
        # are those of the one-expression formula below
        layout, grid, coeff, pair, params = small_problem(nx=13)
        v = bump_envelope_field(grid, params, (0.2, -0.1), 0.4, 1.5, n_half=6)
        w, s, lam = pair.w1, params.s, params.lam
        pts = grid.points.reshape(-1, 2)
        psi, gpsi, _ = w.jet(pts, order=1)
        grad_sq = np.einsum("ij,ij->i", gpsi, gpsi)
        e_lp = np.exp(lam * psi)
        space = (s**2 * lam**2 * coeff.at(pts) * e_lp**2 * grad_sq).reshape(
            grid.shape
        )
        tau = wt._time_factor(params, v.times)
        dwdt = np.gradient(v.values, pde.time_step(v.times), axis=0, edge_order=2)
        want = (
            1j * dwdt
            + cc._apply_flux(pde.CoefficientOnGrid(coeff, grid), v.values)
            + space[None, :, :] * (tau**2)[:, None, None] * v.values
        )
        assert np.array_equal(P1(v, w, params, coeff), want)


def space_time_l2(grid, times, values):
    dt = times[1] - times[0]
    per_slice = np.sum(np.abs(values) ** 2, axis=(1, 2)) * grid.h**2
    return float(np.sqrt(np.trapezoid(per_slice, dx=dt)))


def conjugated_operator_by_hand(w, weight, params, coeff, q):
    """Test-side route: multiply by e^{s phi}, apply L, multiply back."""
    grid = w.grid
    pts = grid.points.reshape(-1, 2)
    lifted = np.empty_like(w.values)
    for n, t in enumerate(w.times):
        phi = oracles.eval_phi(weight, params, pts, t).reshape(grid.shape)
        lifted[n] = w.values[n] * np.exp(params.s * phi)
    lifted_field = pde.SpaceTimeField(grid=grid, times=w.times, values=lifted)
    image = cc.apply_transmission_operator(lifted_field, coeff, q)
    out = np.empty_like(image.values)
    for n, t in enumerate(w.times):
        phi = oracles.eval_phi(weight, params, pts, t).reshape(grid.shape)
        out[n] = image.values[n] * np.exp(-params.s * phi)
    return out


class TestWeightedNorm:
    def test_zero_field(self):
        layout, grid, coeff, pair, params = small_problem()
        times = clamped_times(params, 5)
        zero = pde.SpaceTimeField(
            grid=grid,
            times=times,
            values=np.zeros((times.size,) + grid.shape, dtype=complex),
        )
        assert norm_sq(zero, pair.w1, params, coeff) == 0.0

    def test_separable_oracle_constant_field(self):
        layout, grid, coeff, pair, params = small_problem(s=3.0, lam=1.5)
        psi0 = 0.7
        duck = ConstPsi(psi0)
        times = clamped_times(params, 20)
        value = 0.8 - 0.6j
        const = pde.SpaceTimeField(
            grid=grid,
            times=times,
            values=np.full((times.size,) + grid.shape, value, dtype=complex),
        )
        got = norm_sq(const, duck, params, coeff)
        xmin, xmax, ymin, ymax = layout.outer.bounds
        area = (xmax - xmin) * (ymax - ymin)
        tau = 1.0 / ((params.T - times) * (params.T + times))
        term1 = (
            params.s**3
            * params.lam**4
            * np.exp(3.0 * params.lam * psi0)
            * abs(value) ** 2
            * area
            * np.trapezoid(tau**3, times)
        )
        assert got == pytest.approx(term1, rel=1e-8)

    def test_separable_oracle_product_field(self):
        layout, grid, coeff, pair, params = small_problem(s=2.0, lam=1.0)
        psi0 = 0.4
        duck = ConstPsi(psi0)
        times = clamped_times(params, 16)
        pts = grid.points
        g = np.sin(1.3 * pts[..., 0]) * np.cos(0.7 * pts[..., 1])
        env = np.cos(0.9 * times) + 0.5j * np.sin(0.4 * times)
        field = pde.SpaceTimeField(
            grid=grid,
            times=times,
            values=(env[:, None, None] * g[None, :, :]).astype(complex),
        )
        got = norm_sq(field, duck, params, coeff)
        # 1-D factors computed independently
        h = grid.h
        wx = np.ones(grid.nx)
        wx[0] = wx[-1] = 0.5
        wy = np.ones(grid.ny)
        wy[0] = wy[-1] = 0.5
        cell = h * h * np.outer(wy, wx)
        mass_g = np.sum(cell * np.abs(g) ** 2)
        gy, gx = np.gradient(g, h, edge_order=2)
        mass_dg = np.sum(cell * (np.abs(gx) ** 2 + np.abs(gy) ** 2))
        tau = 1.0 / ((params.T - times) * (params.T + times))
        e2 = np.abs(env) ** 2
        term1 = (
            params.s**3
            * params.lam**4
            * np.exp(3.0 * params.lam * psi0)
            * mass_g
            * np.trapezoid(tau**3 * e2, times)
        )
        term2 = (
            params.s
            * params.lam
            * np.exp(params.lam * psi0)
            * mass_dg
            * np.trapezoid(tau * e2, times)
        )
        assert got == pytest.approx(term1 + term2, rel=1e-8)

    @settings(max_examples=10, deadline=None)
    @given(
        re=st.floats(-3.0, 3.0, allow_nan=False),
        im=st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_quadratic_homogeneity(self, re, im):
        layout, grid, coeff, pair, params = small_problem(nx=13)
        v = bump_envelope_field(grid, params, (0.2, -0.1), 0.4, 1.0, n_half=4)
        c = re + 1j * im
        scaled = pde.SpaceTimeField(grid=grid, times=v.times, values=c * v.values)
        base = norm_sq(v, pair.w1, params, coeff)
        got = norm_sq(scaled, pair.w1, params, coeff)
        assert got == pytest.approx(abs(c) ** 2 * base, rel=1e-10, abs=1e-12)


class TestRatioReport:
    def test_zero_field_gives_zero_report(self):
        layout, grid, coeff, pair, params = small_problem()
        times = clamped_times(params, 6)
        zero = pde.SpaceTimeField(
            grid=grid,
            times=times,
            values=np.zeros((times.size,) + grid.shape, dtype=complex),
        )
        rep = cc.carleman_ratio(zero, pair, params, np.zeros(grid.shape),
                                **oracles.walk_facts(zero))
        assert rep.lhs == rep.rhs_residual == rep.rhs_boundary == 0.0
        assert rep.ratio == 0.0

    def test_quadratic_scaling_leaves_ratio_unchanged(self):
        layout, grid, coeff, pair, params = small_problem(nx=17, s=10.0, lam=1.0)
        pts = grid.points
        q = 0.5 + 0.2 * np.sin(pts[..., 0] * pts[..., 1])
        v = bump_envelope_field(grid, params, (0.25, 0.0), 0.35, 1.2, n_half=8)
        doubled = pde.SpaceTimeField(
            grid=grid, times=v.times, values=2.0 * v.values
        )
        r1 = cc.carleman_ratio(v, pair, params, q, **oracles.walk_facts(v))
        r2 = cc.carleman_ratio(doubled, pair, params, q,
                               **oracles.walk_facts(doubled))
        assert r2.lhs == pytest.approx(4.0 * r1.lhs, rel=1e-10)
        assert r2.rhs_residual == pytest.approx(4.0 * r1.rhs_residual, rel=1e-10)
        assert r2.rhs_boundary == pytest.approx(4.0 * r1.rhs_boundary, rel=1e-10)
        assert r2.ratio == pytest.approx(r1.ratio, rel=1e-10)

    def test_solved_field_ratio_finite_positive(self):
        layout, grid, coeff, pair, params = small_problem(nx=21, s=20.0, lam=2.0)
        pts = grid.points
        q = 0.4 + 0.1 * np.cos(pts[..., 0])
        v = solved_clamped_field(grid, coeff, q, params, n_half=16)
        rep = cc.carleman_ratio(v, pair, params, q, **oracles.walk_facts(v))
        assert np.isfinite(rep.ratio)
        assert rep.ratio > 0.0
        assert rep.lhs > 0.0
        assert rep.rhs_residual + rep.rhs_boundary > 0.0

    def test_report_assembly_guards_inequality(self):
        with pytest.raises(cc.InequalityViolation):
            cc.assemble_report(1.0, 0.0, 0.0, 10.0, 1.0)
        rep = cc.assemble_report(0.0, 0.0, 0.0, 10.0, 1.0)
        assert rep.ratio == 0.0
        rep = cc.assemble_report(2.0, 1.0, 1.0, 10.0, 1.0)
        assert rep.ratio == pytest.approx(1.0)

    @pytest.mark.parametrize("components", [
        (np.nan, 0.0, 0.0), (np.inf, 1.0, 1.0), (1.0, np.inf, 0.0),
        (1.0, 1.0, -np.inf), (0.0, 0.0, np.nan),
    ])
    def test_report_assembly_rejects_a_non_finite_component(self, components):
        # a nan left side once read as ratio 0
        with pytest.raises(cc.NonFiniteReport):
            cc.assemble_report(*components, 10.0, 1.0)


def whole_stack_ratio(v, pair, params, q):
    """Oracle: the whole-stack evaluation that carleman_ratio streams.

    Every operator acts on the full (nt, ny, nx) conjugated stack and each
    term is integrated in time as soon as it is reduced in space.
    """
    grid, times, nt = v.grid, v.times, v.nt
    on_grid = cc.PairOnGrid(pair, grid)
    coeff = on_grid.coeff
    lv = cc.apply_transmission_operator(v, coeff, q)
    shift = 0.0
    if params.s != 0.0:
        beta_min = min(
            float((params.alpha - np.exp(params.lam * w.psi)).min())
            for w in on_grid.weights
        )
        beta_min = min(
            beta_min, params.alpha - float(np.exp(params.lam * params.psi_sup))
        )
        shift = params.s * max(beta_min, 0.0) / (params.T * params.T)

    def l2_sq(values):
        integrand = values.real**2 + values.imag**2
        integrand *= grid.cell_weights
        return float(np.trapezoid(np.sum(integrand, axis=(1, 2)), times))

    lhs = rhs_residual = rhs_boundary = 0.0
    for wgt in on_grid.weights:
        phi = cc._Phi.of(wgt, params, coeff, times)
        fac = cc._conjugation_factors(phi, shift)
        w = pde.SpaceTimeField(grid=grid, times=times, values=v.values * fac)
        factors = cc._Factors.of(phi, times)
        dwdt = cc._time_derivative(w.values, pde.time_step(times))
        lhs += l2_sq(cc.apply_P1(w.values, dwdt, factors))
        norm = cc.weighted_norm_sq(w, phi)
        grad = cc._spatial_gradient(w.values, grid.h)
        lhs += l2_sq(cc.apply_P2(w.values, grad, factors))
        lhs += norm
        rhs_residual += l2_sq(lv.values * fac)
        mask, psi_plus = wgt.sigma
        if mask.any():
            flux = (coeff.trace @ w.values.reshape(nt, -1).T)[mask]
            flux = np.ascontiguousarray(flux.T)
            e_lp = np.exp(params.lam * psi_plus)
            per_t = (
                (flux.real**2 + flux.imag**2)
                * (e_lp * grid.boundary_weights[mask])[None, :]
            ).sum(axis=1) * wt._time_factor(params, times)
            rhs_boundary += float(params.s * params.lam * np.trapezoid(per_t, times))
    return cc.assemble_report(lhs, rhs_residual, rhs_boundary, params.s, params.lam)


def manufactured_field(grid, times, center=(0.2, -0.1), width=0.4, omega=1.5,
                       reach=0.55):
    """A bump profile times e^{i omega t} and an envelope that is exactly 0
    for |t| >= reach * times[-1]."""
    pts = grid.points
    r2 = (pts[..., 0] - center[0]) ** 2 + (pts[..., 1] - center[1]) ** 2
    profile = np.exp(-r2 / width**2) * boundary_taper(grid)
    env = time_bump(times, reach * times[-1]) * np.exp(1j * omega * times)
    values = env[:, None, None] * profile[None, :, :]
    return pde.SpaceTimeField(grid=grid, times=times, values=values.astype(complex))


class TestStreamedRatio:
    NT = (3, 4, cc.SLAB + 1, cc.SLAB + 2, 2 * cc.SLAB + 3, 129)

    @pytest.mark.parametrize("nt", NT)
    def test_streaming_equals_the_whole_stack_bit_for_bit(self, nt):
        layout, grid, coeff, pair, params = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        t_max = params.T - params.delta_t
        times = np.linspace(-t_max, t_max, nt)
        y0 = 1j * np.exp(-(grid.points[..., 0] ** 2 + grid.points[..., 1] ** 2) / 0.12)
        solved = pde.solve_forward(grid, coeff, q, y0, -t_max, t_max, nt - 1)
        for v in (solved, manufactured_field(grid, times)):
            got = cc.carleman_ratio(v, pair, params, q, **oracles.walk_facts(v))
            want = whole_stack_ratio(v, pair, params, q)
            assert got.rhs_boundary > 0.0
            assert got.lhs == want.lhs
            assert got.rhs_residual == want.rhs_residual
            assert got.rhs_boundary == want.rhs_boundary
            assert got.ratio == want.ratio

    def test_s_zero_leaves_the_residual_alone(self):
        # at s = 0 with q = 0 the conjugation factors are 1, P2, the norm and
        # the boundary term vanish, and P1 w is L v: the sides are equal
        layout, grid, coeff, pair, base = small_problem(nx=13)
        params = dataclasses.replace(base, s=0.0)
        q = np.zeros(grid.shape)
        t_max = params.T - params.delta_t
        times = np.linspace(-t_max, t_max, 81)
        assert len(cc._slabs(0, times.size)) >= 3
        y0 = 1j * np.exp(-(grid.points[..., 0] ** 2 + grid.points[..., 1] ** 2) / 0.12)
        solved = pde.solve_forward(grid, coeff, q, y0, -t_max, t_max, times.size - 1)
        for v in (solved, manufactured_field(grid, times)):
            rep = cc.carleman_ratio(v, pair, params, q, **oracles.walk_facts(v))
            assert rep.lhs > 0.0
            assert rep.lhs == rep.rhs_residual
            assert rep.rhs_boundary == 0.0
            assert rep.ratio == 1.0

    def test_slabs_cover_the_levels_once(self):
        for nt in self.NT:
            slabs = cc._slabs(0, nt)
            assert slabs[0][0] == 0 and slabs[-1][1] == nt
            assert all(a[1] == b[0] for a, b in zip(slabs, slabs[1:]))
            assert all(3 <= stop - start <= cc.SLAB + 2 for start, stop in slabs)
        assert len(cc._slabs(0, 2 * cc.SLAB + 3)) == 3

    @pytest.mark.parametrize("nx", (13, 48))
    def test_slab_densities_equal_the_whole_stack_rows(self, nx):
        # streaming and mirroring are bit-identical to the whole stack only
        # while every level of a planned slab is reduced as it is in the
        # whole-stack call (module notes, Kernels); a reduction whose result
        # depends on the level's place fails here, naming the density
        layout, grid, coeff, pair, params = small_problem(nx=nx)
        rng = np.random.default_rng(8)
        shape = (129,) + grid.shape
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        t_max = params.T - params.delta_t
        for nt in (3, 4, 5, 33, 34, 65, 66, 67, 129):
            values = stack[:nt]
            phi = phi_of(pair.w1, params, coeff, grid, np.linspace(-t_max, t_max, nt))
            assert phi.space.weight.sigma[0].any()
            l2 = cc._l2_density(grid, values)
            boundary = cc._boundary_term(values, phi)
            mirrored, lower = cc._plan(nt)
            for a, b in mirrored + lower:
                got = cc._l2_density(grid, values[a:b])
                assert np.array_equal(got, l2[a:b]), ("_l2_density", nt, a, b)
                got = cc._boundary_term(values[a:b], phi.slab(a, b))
                assert np.array_equal(got, boundary[a:b]), (
                    "_boundary_term", nt, a, b,
                )

    def test_time_factor_once_per_weight_per_call(self, monkeypatch):
        layout, grid, coeff, pair, params = small_problem(nx=13)
        v = bump_envelope_field(grid, params, (0.2, -0.1), 0.4, 1.5, n_half=40)
        q = np.zeros(grid.shape)
        calls = []
        time_factor = cc._time_factor

        def counted(p, t):
            calls.append(len(t))
            return time_factor(p, t)

        monkeypatch.setattr(cc, "_time_factor", counted)
        on_grid = cc.PairOnGrid(pair, grid)
        for _ in range(2):
            calls.clear()
            cc.carleman_ratio(v, on_grid, params, q, **oracles.walk_facts(v))
            assert len(calls) <= len(on_grid.weights)

    def test_every_call_peaks_below_two_stacks(self):
        # the sweep's shape: (129, 48, 48); the whole-stack evaluation
        # peaks at about 5.5 complex stacks.  L v is built slab by slab, so
        # the first call, which also builds the grid data, is bound as well
        layout = geo.DomainLayout(
            geo.RectangularDomain(-1.1, 1.1, -1.1, 1.1), geo.disk_interface(1.0, n=64)
        )
        grid = pde.Grid2D.from_layout(layout, 48)
        pair = wt.build_epsilon_pair(
            layout, (-0.12, 0.0), (0.12, 0.0), 0.1, 0.05, M2=0.05
        )
        params = wt.params_from_sup(
            wt.psi_grid_max((pair.w1, pair.w2)), 80.0, 2.0, 1.0
        )
        v = bump_envelope_field(grid, params, (0.2, -0.1), 0.4, 1.5, n_half=64)
        assert v.values.shape == (129, 48, 48)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        on_grid = cc.PairOnGrid(pair, grid)
        facts = oracles.walk_facts(v)
        reports = []
        for call in ("cold", "warm"):
            tracemalloc.start()
            try:
                reports.append(cc.carleman_ratio(v, on_grid, params, q, **facts))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2 * v.values.nbytes, call
        assert reports[0] == reports[1]


def extended_field(grid, coeff, q, params, nt):
    """A solved field on [0, t_max] with (nt - 1) // 2 steps, reflected onto
    [-t_max, t_max] by extend_time: nt levels, odd-conjugate about t = 0."""
    t_max = params.T - params.delta_t
    y0 = 1j * np.exp(-(grid.points[..., 0] ** 2 + grid.points[..., 1] ** 2) / 0.12)
    fwd = pde.solve_forward(grid, coeff, q, y0, 0.0, t_max, (nt - 1) // 2)
    return oracles.extend_time(fwd)


def odd_conjugate_field(grid, params, nt, seed=4, growth=1.0):
    """A hand-built field with v(-t) = -conj v(t) exactly on exactly
    antisymmetric times; nt is even, so no level sits at t = 0.  Its
    amplitude grows by growth per level towards both ends."""
    m = nt // 2
    dt = 2.0 * (params.T - params.delta_t) / nt
    t_pos = (np.arange(m) + 0.5) * dt
    times = np.concatenate([-t_pos[::-1], t_pos])
    rng = np.random.default_rng(seed)
    taper = boundary_taper(grid)
    upper = (
        rng.standard_normal((m,) + grid.shape)
        + 1j * rng.standard_normal((m,) + grid.shape)
    ) * taper
    upper *= (growth ** np.arange(1 - m, 1))[:, None, None]
    values = np.concatenate([-np.conj(upper[::-1]), upper])
    return pde.SpaceTimeField(grid=grid, times=times, values=values)


def assert_same_report(got, want):
    assert got.lhs == want.lhs
    assert got.rhs_residual == want.rhs_residual
    assert got.rhs_boundary == want.rhs_boundary
    assert got.ratio == want.ratio


def sweep_suite():
    """configs/carleman.ini's grid, coefficient, q and test-field suite."""
    cfg = cfgmod.load_config(CARLEMAN_INI)
    grid = cfgmod.build_grid(cfg)
    coeff = cfgmod.build_coefficient(cfg, grid.layout)
    q = cfgmod.real_profile(cfg.physics.p, grid)
    n_solved = (cfg.carleman.n_fields + 1) // 2
    suite = cc.build_test_suite(
        grid, coeff, q, cfg.physics.T, delta_t=cfg.carleman.delta_t,
        n_steps=cfg.carleman.n_half, seed=cfg.carleman.seed,
        n_solved=n_solved, n_manufactured=cfg.carleman.n_fields - n_solved,
    )
    return grid, coeff, q, suite


class TestMirroredRatio:
    # at s = 0 the conjugation factors are 1, so no level flushes and the
    # end levels, whose one-sided d/dt is not the mirror of each other's,
    # weigh in the sums
    def params_and_zero(self, params):
        zero = dataclasses.replace(params, s=0.0)
        return (params, zero)

    @pytest.mark.parametrize("nt", (3, 5, 2 * cc.SLAB + 1, 2 * cc.SLAB + 3, 129))
    def test_extended_field_equals_the_whole_stack_bit_for_bit(self, nt):
        layout, grid, coeff, pair, base = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        v = extended_field(grid, coeff, q, base, nt)
        assert v.nt == nt
        on_grid = cc.PairOnGrid(pair, grid)
        assert mirror_phase(v) == -1
        facts = oracles.walk_facts(v)
        assert cc.carleman_ratio(v, on_grid, base, q, **facts).rhs_boundary > 0.0
        for params in self.params_and_zero(base):
            got = cc.carleman_ratio(v, on_grid, params, q, **facts)
            assert_same_report(got, whole_stack_ratio(v, pair, params, q))

    @pytest.mark.parametrize("growth", (1.0, 4.0))
    @pytest.mark.parametrize("nt", (4, 2 * cc.SLAB + 2))
    def test_even_level_count_equals_the_whole_stack_bit_for_bit(self, nt, growth):
        # with growth 4 the levels at the ends, which the head slab and the
        # last slab evaluate, carry nearly all of every sum
        layout, grid, coeff, pair, base = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        v = odd_conjugate_field(grid, base, nt, growth=growth)
        on_grid = cc.PairOnGrid(pair, grid)
        assert mirror_phase(v) == -1
        facts = oracles.walk_facts(v)
        for params in self.params_and_zero(base):
            got = cc.carleman_ratio(v, on_grid, params, q, **facts)
            assert got.lhs > 0.0
            assert_same_report(got, whole_stack_ratio(v, pair, params, q))

    def count_levels(self, monkeypatch):
        """Levels each _conjugation_factors call is given, in call order."""
        levels = []
        factors = cc._conjugation_factors

        def counted(phi, log_shift):
            levels.append(len(phi.tau))
            return factors(phi, log_shift)

        monkeypatch.setattr(cc, "_conjugation_factors", counted)
        return levels

    def test_mirror_conjugates_about_half_the_levels(self, monkeypatch):
        layout, grid, coeff, pair, params = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        v = extended_field(grid, coeff, q, params, 129)
        on_grid = cc.PairOnGrid(pair, grid)
        levels = self.count_levels(monkeypatch)
        cc.carleman_ratio(v, on_grid, params, q, **oracles.walk_facts(v))
        # slab by slab, once per weight: the eight slabs of 64..128 with
        # their halos (10 each: 64..71, ..., 112..119 and 120..128), then the
        # head slab 0..1 and its halo level (3); the full path also
        # conjugates the slabs of 2..63, downwards (8 for 58..63, 10 each)
        assert levels == [10] * 16 + [3, 3]

    def test_symmetry_check_allocates_slabs_only(self):
        layout, grid, coeff, pair, params = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        v = extended_field(grid, coeff, q, params, 129)
        tracemalloc.start()
        try:
            assert mirror_phase(v) == -1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # below one real stack, let alone the complex one -conj(values) makes
        assert peak < v.values.nbytes // 2

    def test_broken_symmetry_takes_the_full_path(self, monkeypatch):
        layout, grid, coeff, pair, params = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        v = extended_field(grid, coeff, q, params, 129)
        values = v.values.copy()
        values[40, 6, 5] = np.nextafter(values[40, 6, 5].real, np.inf) + 1j * (
            values[40, 6, 5].imag
        )
        times = v.times.copy()
        times[20] = np.nextafter(times[20], 0.0)
        cases = (
            ("one ulp at one node", v.times, values),
            ("times not antisymmetric", times, v.values),
        )
        levels = self.count_levels(monkeypatch)
        for name, tms, vals in cases:
            fld = pde.SpaceTimeField(grid=grid, times=tms, values=vals)
            on_grid = cc.PairOnGrid(pair, grid)
            assert mirror_phase(fld) is None, name
            levels.clear()
            got = cc.carleman_ratio(fld, on_grid, params, q,
                                    **oracles.walk_facts(fld))
            assert levels == [10] * 16 + [3, 3] + [8, 8] + [10] * 14, name
            assert_same_report(got, whole_stack_ratio(fld, pair, params, q))

    def test_every_solved_field_of_the_sweep_suite_is_mirrored(self):
        # the march mirrors every solved field by construction, c = -1
        # exactly; the manufactured fields, bump(t) e^{i (omega t +
        # phase)}, hold the symmetry up to the unit phase e^{2 i phase},
        # to rounding
        grid, coeff, q, suite = sweep_suite()
        n_solved = len(suite.initial_states)
        assert not np.iscomplexobj(q)
        held = list(oracles.suite_fields(suite))
        phases = [mirror_phase(fld) for fld in held]
        assert phases[:n_solved] == [-1] * n_solved
        for c in phases[n_solved:]:
            assert c is not None
            assert abs(abs(c) - 1.0) <= oracles.MIRROR_ULPS * np.finfo(float).eps
            assert abs(c.imag) > 1e-3
        # the walk's fields, the solved ones marched as one block, read in
        # the walk's order, slab by slab with their halos, the values of
        # the fields held whole and take their mirror verdicts and live
        # levels
        walked = cc._suite_fields(suite)
        nt = suite.times.size
        mirrored, _ = cc._plan(nt)
        for start, stop in mirrored:
            lo, hi = max(start - 1, 0), min(stop + 1, nt)
            for k, (fld, whole) in enumerate(zip(walked, held)):
                assert np.array_equal(fld.read(lo, hi), whole.values[lo:hi]), k
        assert [fld.mirrored for fld in walked] == [
            c is not None for c in phases
        ]
        assert [fld.live for fld in walked] == [
            cc._live_levels(fld.nt, time_support(fld)) for fld in held
        ]

    @pytest.mark.parametrize("shipped", [True, False])
    def test_walked_suite_facts_equal_the_stack_detector(self, shipped,
                                                         monkeypatch):
        # the suite declares each field's mirror verdict and live levels:
        # they equal the detector's verdict on the field held whole, and
        # carleman_check runs no detector, so building the walk's fields
        # marches no step and builds no level of a separable field
        if shipped:
            grid, coeff, q, suite = sweep_suite()
        else:
            layout, grid, coeff, pair, params = small_problem(nx=13)
            q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
            suite = small_suite(grid, coeff, q, params, n_steps=20, n_solved=2,
                                n_manufactured=4, seed=11)
        want = [oracles.walk_facts(fld) for fld in oracles.suite_fields(suite)]
        steps, profile_reads = [], []
        march = pde.SchrodingerOperator.march

        def counted(self, x, c):
            for state in march(self, x, c):
                steps.append(1)
                yield state

        class Logged(np.ndarray):
            def __getitem__(self, index):
                profile_reads.append(index)
                return np.asarray(self)[index]

        monkeypatch.setattr(pde.SchrodingerOperator, "march", counted)
        suite = dataclasses.replace(suite, separable=[
            (env, profile.view(Logged)) for env, profile in suite.separable
        ])
        walked = cc._suite_fields(suite)
        assert not steps and not profile_reads
        assert [{"mirrored": fld.mirrored, "live": fld.live}
                for fld in walked] == want
        for name in ("_mirror_phase", "_time_support", "MIRROR_ULPS"):
            assert not hasattr(cc, name), name
        # the logs see the reads: each field is built only when read
        nt = suite.times.size
        for fld in walked:
            fld.read(nt - 3, nt)
        assert len(steps) == nt // 2
        assert len(profile_reads) == len(suite.separable)

    def test_a_marched_column_reads_alike_however_often_it_is_read(self):
        # the block serves every read of the range it built last: columns
        # read in reverse order, and one read twice, on each range of the
        # walk's plan, give the values of the fields held whole
        layout, grid, coeff, pair, params = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        suite = cc.build_test_suite(grid, coeff, q, params.T, n_steps=20, seed=11)
        n_solved = len(suite.initial_states)
        walked = cc._suite_fields(suite)[:n_solved]
        held = list(oracles.suite_fields(suite))[:n_solved]
        nt = suite.times.size
        mirrored, _ = cc._plan(nt)
        assert len(mirrored) > 2
        for start, stop in mirrored:
            lo, hi = max(start - 1, 0), min(stop + 1, nt)
            for k in [*range(n_solved)][::-1] + [0]:
                assert np.array_equal(walked[k].read(lo, hi),
                                      held[k].values[lo:hi]), (start, k)

    def test_even_conjugate_field_equals_the_whole_stack_bit_for_bit(self):
        # the tests' manufactured field is exactly even-conjugate: c = +1
        layout, grid, coeff, pair, base = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        t_max = base.T - base.delta_t
        v = manufactured_field(grid, np.linspace(-t_max, t_max, 129))
        assert mirror_phase(v) == 1
        on_grid = cc.PairOnGrid(pair, grid)
        facts = oracles.walk_facts(v)
        for params in self.params_and_zero(base):
            got = cc.carleman_ratio(v, on_grid, params, q, **facts)
            assert got.lhs > 0.0
            assert_same_report(got, whole_stack_ratio(v, pair, params, q))

    def phase_fields(self):
        """(name, v, pair, params list, q): fields that hold the mirror
        symmetry with a non-real phase, to rounding."""
        layout, grid, coeff, pair, base = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        t_max = base.T - base.delta_t
        v = manufactured_field(grid, np.linspace(-t_max, t_max, 129), reach=0.6)
        turned = pde.SpaceTimeField(grid=grid, times=v.times,
                                    values=v.values * np.exp(0.7j))
        yield "e^{0.7 i} manufactured", turned, pair, self.params_and_zero(base), q
        grid, coeff, q, suite = sweep_suite()
        cfg = cfgmod.load_config(CARLEMAN_INI)
        pair = wt.build_epsilon_pair(
            grid.layout, cfg.geometry.x1, cfg.geometry.x2, cfg.physics.a1,
            cfg.physics.a2, M2=cfg.carleman.M2,
        )
        psi_sup = wt.psi_grid_max((pair.w1, pair.w2), cfg.carleman.n_grid)
        params = [
            wt.params_from_sup(psi_sup, s, lam, cfg.physics.T,
                               delta_t=cfg.carleman.delta_t)
            for s in (cfg.carleman.s[0], cfg.carleman.s[-1])
            for lam in cfg.carleman.lam
        ]
        field = next(itertools.islice(oracles.suite_fields(suite),
                                      len(suite.initial_states), None))
        yield "sweep suite's first manufactured", field, pair, params, q

    def test_phase_mirror_matches_the_whole_stack_to_rounding(self, monkeypatch):
        levels = self.count_levels(monkeypatch)
        for name, v, pair, params_list, q in self.phase_fields():
            tracemalloc.start()
            try:
                c = mirror_phase(v)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert c is not None and abs(c.imag) > 0.1, name
            # the inexact comparison is made slab by slab too
            assert peak < v.values.nbytes // 2, name
            on_grid = cc.PairOnGrid(pair, v.grid)
            levels.clear()
            got = cc.carleman_ratios(v, on_grid, params_list, q,
                                     **oracles.walk_facts(v))
            # levels 25..103 are live: slab by slab, once per weight and
            # params, the five slabs of 64..103 are conjugated with their
            # halos, where the full path also conjugates six slabs of 18..63
            assert v.nt == 129 and time_support(v) == (26, 102), name
            per_slab = 2 * len(params_list)
            assert levels == [10] * (5 * per_slab), name
            for rep, params in zip(got, params_list):
                want = whole_stack_ratio(v, pair, params, q)
                assert rep.lhs > 0.0, name
                for key in ("lhs", "rhs_residual", "rhs_boundary", "ratio"):
                    assert getattr(rep, key) == pytest.approx(
                        getattr(want, key), rel=1e-14, abs=0.0
                    ), (name, key, params.s, params.lam)

    def test_reports_do_not_depend_on_the_slab_size(self, monkeypatch):
        # mirroring starts at level nt // 2 whatever SLAB is: the sweep
        # suite's manufactured fields, whose phase c is off +-1, so that
        # their mirrored densities match the computed ones to rounding
        # only, give the same bits at every slab size.  Anchored at the
        # slabs that reach past the middle, levels 60..63 were computed at
        # SLAB = 12 and moved the rows of the first and last of them
        grid, coeff, q, suite = sweep_suite()
        *_, pair, params_list, _ = next(
            case for case in self.phase_fields()
            if case[0] == "sweep suite's first manufactured"
        )
        fields = list(oracles.suite_fields(suite))[len(suite.initial_states):]
        on_grid = cc.PairOnGrid(pair, grid)
        want = [cc.carleman_ratios(v, on_grid, params_list, q,
                                   **oracles.walk_facts(v)) for v in fields]
        for slab in (3, 8, 12, 32):
            monkeypatch.setattr(cc, "SLAB", slab)
            for k, v in enumerate(fields):
                got = cc.carleman_ratios(v, on_grid, params_list, q,
                                         **oracles.walk_facts(v))
                assert got == want[k], (slab, k)

    def test_phase_broken_above_the_tolerance_takes_the_full_path(
            self, monkeypatch):
        levels = self.count_levels(monkeypatch)
        for name, v, pair, params_list, q in self.phase_fields():
            values = v.values.copy()
            bound = oracles.MIRROR_ULPS * np.finfo(float).eps * np.abs(values).max()
            ny, nx = v.grid.shape
            values[40, ny // 2, nx // 2] += 4 * bound
            fld = pde.SpaceTimeField(grid=v.grid, times=v.times, values=values)
            assert mirror_phase(fld) is None, name
            on_grid = cc.PairOnGrid(pair, v.grid)
            levels.clear()
            got = cc.carleman_ratios(fld, on_grid, params_list, q,
                                     **oracles.walk_facts(fld))
            per_slab = 2 * len(params_list)
            assert levels == [
                n for n in (10,) * 5 + (8,) + (10,) * 5 for _ in range(per_slab)
            ], name
            for rep, params in zip(got, params_list):
                assert_same_report(rep, whole_stack_ratio(fld, pair, params, q))

    def test_a_phase_off_the_unit_circle_is_no_mirror(self):
        layout, grid, coeff, pair, base = small_problem(nx=13)
        t_max = base.T - base.delta_t
        times = np.linspace(-t_max, t_max, 129)
        turned = manufactured_field(grid, times).values * np.exp(0.7j)
        growing = odd_conjugate_field(grid, base, 2 * cc.SLAB + 2, growth=4.0)
        cases = (
            # one half scaled: the peak moves into it, off the level t = 0
            ("later half x 2", times, turned, slice(65, None), 2.0),
            ("earlier half x 2", times, turned, slice(None, 64), 2.0),
            # the peak sits at an end level
            ("later half x (1 + 1e-9)", growing.times, growing.values,
             slice(cc.SLAB + 1, None), 1.0 + 1e-9),
        )
        for name, tms, values, half, scale in cases:
            unscaled = pde.SpaceTimeField(grid=grid, times=tms, values=values)
            assert mirror_phase(unscaled) is not None, name
            scaled = values.copy()
            scaled[half] *= scale
            at = np.unravel_index(np.argmax(np.abs(scaled)), scaled.shape)
            mirror = (scaled.shape[0] - 1 - at[0],) + at[1:]
            c = scaled[mirror] / np.conj(scaled[at])
            assert abs(abs(c) - 1.0) > 1e-10, name
            fld = pde.SpaceTimeField(grid=grid, times=tms, values=scaled)
            assert mirror_phase(fld) is None, name


def supported_field(grid, times, support, seed=5):
    """Random tapered values on the levels support = (first, last), exactly
    0 on every other level; support None gives the zero field."""
    shape = (times.size,) + grid.shape
    values = np.zeros(shape, dtype=complex)
    if support is not None:
        first, last = support
        rng = np.random.default_rng(seed)
        n = last + 1 - first
        values[first : last + 1] = (
            rng.standard_normal((n,) + grid.shape)
            + 1j * rng.standard_normal((n,) + grid.shape)
        ) * boundary_taper(grid)
    return pde.SpaceTimeField(grid=grid, times=times, values=values)


def support_cases(nt):
    """Supports whose edges fall inside a slab, on a slab start (and one
    level either side of it), within 2 levels of either end, single
    levels, and None for the zero field."""
    cases = {(0, nt - 1), (1, nt - 2), (2, nt - 3), (3, nt - 4)}
    cases |= {(k, k) for k in (0, 1, 2, nt // 2, nt - 3, nt - 2, nt - 1)}
    for start, _ in cc._slabs(0, nt)[1:]:
        for edge in (start - 1, start, start + 1):
            cases |= {(edge, nt - 1), (0, edge), (edge, nt - 1 - edge)}
        cases.add((start // 2 + 1, start + 3))
    valid = sorted(
        (first, last) for first, last in cases if 0 <= first <= last < nt
    )
    return valid + [None]


class TestSupportedRatio:
    # at s = 0 the conjugation factors are 1, so no level flushes and the
    # levels at the ends of the time axis weigh in the sums
    def params_and_zero(self, params):
        zero = dataclasses.replace(params, s=0.0)
        return (params, zero)

    @pytest.mark.parametrize("nt", (3, 5, 2 * cc.SLAB + 3, 129))
    def test_compact_support_equals_the_whole_stack_bit_for_bit(self, nt):
        layout, grid, coeff, pair, base = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        t_max = base.T - base.delta_t
        times = np.linspace(-t_max, t_max, nt)
        on_grid = cc.PairOnGrid(pair, grid)
        for support in support_cases(nt):
            v = supported_field(grid, times, support)
            assert time_support(v) == support
            facts = oracles.walk_facts(v)
            for params in self.params_and_zero(base):
                got = cc.carleman_ratio(v, on_grid, params, q, **facts)
                assert_same_report(got, whole_stack_ratio(v, pair, params, q))
                if support is None:
                    assert got.lhs == got.rhs_residual == got.rhs_boundary == 0.0
                    assert got.ratio == 0.0
                elif params.s == 0.0:
                    assert got.lhs > 0.0, support

    def test_mirrored_compact_support_equals_the_whole_stack(self):
        layout, grid, coeff, pair, base = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        full = odd_conjugate_field(grid, base, 2 * cc.SLAB + 2)
        nt = full.nt
        for k in (1, 3, cc.HEAD, cc.HEAD + 2, cc.SLAB - 1):
            values = full.values.copy()
            values[:k] = 0.0
            values[nt - k :] = 0.0
            v = pde.SpaceTimeField(grid=grid, times=full.times, values=values)
            on_grid = cc.PairOnGrid(pair, grid)
            assert mirror_phase(v) == -1
            assert time_support(v) == (k, nt - 1 - k)
            facts = oracles.walk_facts(v)
            for params in self.params_and_zero(base):
                got = cc.carleman_ratio(v, on_grid, params, q, **facts)
                assert got.lhs > 0.0
                assert_same_report(got, whole_stack_ratio(v, pair, params, q))

    @pytest.mark.parametrize("nx", (13, 48))
    def test_padded_reductions_equal_the_slab_rows(self, nx):
        # every sub-range of a slab, one level included, is reduced level by
        # level as the whole slab is (module notes, Kernels)
        layout, grid, coeff, pair, params = small_problem(nx=nx)
        rng = np.random.default_rng(9)
        n = cc.SLAB
        shape = (n,) + grid.shape
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        t_max = params.T - params.delta_t
        phi = phi_of(pair.w1, params, coeff, grid, np.linspace(-t_max, t_max, n))
        l2 = cc._l2_density(grid, values)
        boundary = cc._boundary_term(values, phi)
        for a in range(n):
            for b in range(a + 1, n + 1):
                got = cc._l2_density(grid, values[a:b])
                assert np.array_equal(got, l2[a:b]), ("_l2_density", a, b)
                got = cc._boundary_term(values[a:b], phi.slab(a, b))
                assert np.array_equal(got, boundary[a:b]), ("_boundary_term", a, b)

    def test_live_levels_follow_the_time_stencil(self):
        assert cc._live_levels(129, None) == (0, 0)
        assert cc._live_levels(129, (26, 102)) == (25, 104)
        # level 0 reads levels 0..2, level nt-1 reads nt-3..nt-1
        assert cc._live_levels(129, (2, 126)) == (0, 129)
        assert cc._live_levels(129, (3, 125)) == (2, 127)
        assert cc._live_levels(3, (1, 1)) == (0, 3)

    def test_manufactured_field_conjugates_its_support_only(self, monkeypatch):
        # the sweep's envelope: 0 for |t| >= 0.6 t_max
        layout, grid, coeff, pair, params = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        t_max = params.T - params.delta_t
        v = manufactured_field(grid, np.linspace(-t_max, t_max, 129), reach=0.6)
        on_grid = cc.PairOnGrid(pair, grid)
        assert time_support(v) == (26, 102)
        levels = []
        factors = cc._conjugation_factors

        def counted(phi, log_shift):
            levels.append(len(phi.tau))
            return factors(phi, log_shift)

        monkeypatch.setattr(cc, "_conjugation_factors", counted)
        got = cc.carleman_ratio(v, on_grid, params, q, **oracles.walk_facts(v))
        # levels 25..103 can have nonzero densities, and the field is
        # even-conjugate, so the mirror evaluates the live slabs from the
        # middle up: the five slabs of 64..103, 10 levels each with their
        # halos, once per weight; the unmirrored path adds six slabs of
        # 18..63 and the full path the other eight slabs too
        assert mirror_phase(v) == 1
        assert levels == [10] * 10
        assert_same_report(got, whole_stack_ratio(v, pair, params, q))



# finite values whose quotients and products exercise the sign of zero,
# subnormal results and magnitudes near overflow
SPECIAL = np.array([0.0, -0.0, 1.5, -1.5, 0.1, -7.0, 1e300, -1e300, 9e299,
                    5e-324, -5e-324, 2.2e-308, -3e-310])


def special_stack(rng, shape, dtype):
    """Values drawn from SPECIAL and a normal spread, exact -0 included."""
    def draw():
        return np.where(rng.random(shape) < 0.5, rng.choice(SPECIAL, shape),
                        rng.standard_normal(shape))
    if dtype is float:
        return draw()
    out = np.empty(shape, dtype=complex)
    out.real = draw()
    out.imag = draw()
    return out


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                          np.ascontiguousarray(want).view(np.int64))


def manufactured_report_hex():
    """float.hex of lhs, rhs_residual and rhs_boundary of carleman_ratios
    on a 129-level manufactured field at nx = 13."""
    layout, grid, coeff, pair, params = small_problem(nx=13)
    q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
    t_max = params.T - params.delta_t
    v = manufactured_field(grid, np.linspace(-t_max, t_max, 129))
    rep = cc.carleman_ratios(v, pair, [params], q, **oracles.walk_facts(v))[0]
    return [x.hex() for x in (rep.lhs, rep.rhs_residual, rep.rhs_boundary)]


class TestKernels:
    # the library routines are the oracles: np.gradient for the stencil
    # (a numpy whose complex division rounds otherwise fails here) and
    # scipy's per-level sparse products for the flux

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("length", [3, 34, 129])
    def test_derivative_equals_np_gradient_bit_for_bit(self, dtype, axis, length):
        rng = np.random.default_rng(10 * axis + length)
        shape = [4, 5, 6]
        shape[axis] = length
        values = special_stack(rng, tuple(shape), dtype)
        # a whole axis of a C-contiguous stack takes its central
        # differences in one pass over the flattened stack, and the end
        # stencils overwrite every seam where it crosses a row or a level
        assert values.flags.c_contiguous
        # the sweep's dt and h, 2h = 1 and 2h > 1 (the quotient may round
        # a nonzero to 0 there, and the division is kept)
        for h in (1.0 / 64.0, 2.2 / 47.0, 0.5, 3.0):
            want = np.gradient(values, h, axis=axis, edge_order=2)
            got = cc._derivative(values, h, axis)
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), h

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_strided_fallback_on_a_non_contiguous_view(self, dtype):
        # no flat pass over a view whose flat order is not its memory's
        rng = np.random.default_rng(13)
        values = special_stack(rng, (5, 34, 7), dtype)[:, :, ::-1]
        assert not values.flags.c_contiguous
        for axis in (0, 1, 2):
            for h in (1.0 / 64.0, 2.2 / 47.0, 3.0):
                want = np.gradient(values, h, axis=axis, edge_order=2)
                assert_same_bits(cc._derivative(values, h, axis), want)

    @pytest.mark.parametrize("nt", [2 * cc.SLAB + 3, 129])
    def test_time_derivative_of_each_slab_as_the_walk_takes_it(self, nt):
        # each planned slab read with its one-level halo, d/dt at the
        # slab's levels only: the whole stack's at those levels
        rng = np.random.default_rng(nt)
        values = special_stack(rng, (nt, 5, 6), complex)
        dt = 1.0 / 64.0
        want = np.gradient(values, dt, axis=0, edge_order=2)
        mirrored, lower = cc._plan(nt)
        for start, stop in mirrored + lower:
            lo, hi = max(start - 1, 0), min(stop + 1, nt)
            core = slice(start - lo, stop - lo)
            got = cc._derivative(values[lo:hi], dt, 0, core)
            assert_same_bits(got, want[start:stop])

    def test_stack_derivatives_call_the_stencil_per_axis(self):
        rng = np.random.default_rng(11)
        values = special_stack(rng, (5, 6, 7), complex)
        dt, h = 1.0 / 64.0, 0.05
        want = np.gradient(values, dt, axis=0, edge_order=2)
        assert np.array_equal(cc._time_derivative(values, dt).view(np.int64),
                              want.view(np.int64))
        got = cc._spatial_gradient(values, h)
        want = np.gradient(values, h, axis=(1, 2), edge_order=2)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_two_levels_raise_as_np_gradient_does(self, axis):
        shape = [4, 4, 4]
        shape[axis] = 2
        values = np.ones(shape, dtype=complex)
        with pytest.raises(ValueError):
            np.gradient(values, 0.1, axis=axis, edge_order=2)
        with pytest.raises(ValueError):
            cc._derivative(values, 0.1, axis)

    def test_report_does_not_depend_on_the_blas_kernel(self):
        """A fresh process under OPENBLAS_CORETYPE=Prescott gives the same
        bits: no density takes a BLAS reduction.  Where the variable has no
        effect (another BLAS, an OpenBLAS built without DYNAMIC_ARCH), both
        sides run one kernel and this passes trivially."""
        paths = [str(Path(cc.__file__).parents[1]), str(Path(__file__).parent)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
                   PYTHONPATH=os.pathsep.join(paths))
        script = "import test_carleman_check as t; print(*t.manufactured_report_hex())"
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == manufactured_report_hex()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_flux_equals_the_per_level_sparse_products(self, dtype):
        layout, grid, coeff, pair, params = small_problem(nx=21)
        on_grid = pde.CoefficientOnGrid(coeff, grid)
        rng = np.random.default_rng(12)
        values = rng.standard_normal((7,) + grid.shape).astype(dtype)
        if dtype is complex:
            values += 1j * rng.standard_normal(values.shape)
        values[2] = 0.0
        values[3, :, :4] = -0.0
        got = cc._apply_flux(on_grid, values)
        want = np.array([on_grid.node_flux @ level
                         for level in values.reshape(7, -1)])
        assert got.dtype == values.dtype
        assert np.array_equal(got.reshape(7, -1), want)

        # on a zero rim, +0 or -0 node by node, the one product has the bits
        # of the solver's split k_int @ interior + k_bnd @ rim
        ii, bi = grid.interior_ids, grid.boundary_ids
        flat = values.reshape(7, -1)
        flat[:, bi] *= 0.0
        rim_signs = np.signbit(flat[:, bi].real)
        assert rim_signs.any() and not rim_signs.all()
        got = np.ascontiguousarray(cc._apply_flux(on_grid, values).reshape(7, -1))
        k_int, k_bnd = on_grid.flux
        want = np.zeros_like(flat)
        for k, level in enumerate(flat):
            want[k, ii] = k_int @ level[ii] + k_bnd @ level[bi]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestGroupedRatio:
    def params_grid(self, base, pair):
        """2 lambda x 2 s fitted to the pair's psi sup, and one more lambda
        at a longer horizon T."""
        psi_sup = wt.psi_grid_max((pair.w1, pair.w2))
        grid = [wt.params_from_sup(psi_sup, s, lam, base.T)
                for lam in (1.5, 2.0) for s in (10.0, 20.0)]
        return grid + [wt.params_from_sup(psi_sup, 20.0, 2.0, 1.25 * base.T)]

    def fields(self, grid, coeff, q, base):
        t_max = base.T - base.delta_t
        # on 67 levels linspace is not exactly antisymmetric, so the
        # supported field is not mirrored
        times = np.linspace(-t_max, t_max, 67)
        y0 = 1j * np.exp(-(grid.points[..., 0] ** 2 + grid.points[..., 1] ** 2) / 0.12)
        return {
            "mirrored": extended_field(grid, coeff, q, base, 67),
            "supported": manufactured_field(grid, times),
            "plain": pde.solve_forward(grid, coeff, q, y0, -t_max, t_max,
                                       times.size - 1),
        }

    def test_each_report_equals_the_whole_stack(self, monkeypatch):
        layout, grid, coeff, pair, base = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        params_list = self.params_grid(base, pair)
        built = []
        theta_weights = cc._theta_weights

        def counted(phi):
            built.append(len(phi.tau))
            return theta_weights(phi)

        monkeypatch.setattr(cc, "_theta_weights", counted)
        on_grid = cc.PairOnGrid(pair, grid)
        # the levels of each slab evaluated, per weight: the slabs of
        # 33..66, the head 0..1, then downwards the slabs of 2..32 that an
        # unmirrored field evaluates; the supported field's live levels are
        # 14..52
        levels = {
            "mirrored": [8, 8, 8, 10, 2],
            "supported": [8, 8, 8, 7, 8, 8],
            "plain": [8, 8, 8, 10, 2, 7, 8, 8, 8],
        }
        for name, v in self.fields(grid, coeff, q, base).items():
            assert (mirror_phase(v) is not None) == (name == "mirrored")
            built.clear()
            got = cc.carleman_ratios(v, on_grid, params_list, q,
                                     **oracles.walk_facts(v))
            # once per evaluated slab and weight for each of lambda 1.5 and
            # 2.0 at T and 2.0 at 1.25 T, for the 4 + 1 params
            assert built == [n for n in levels[name] for _ in range(2 * 3)]
            assert len(got) == len(params_list)
            for rep, params in zip(got, params_list):
                assert rep.rhs_boundary > 0.0, name
                assert rep == whole_stack_ratio(v, pair, params, q), (name, params)


def small_suite(grid, coeff, q, params, n_steps, n_solved, n_manufactured,
                seed=1):
    """build_test_suite on the clamped interval of params."""
    return cc.build_test_suite(
        grid, coeff, q, params.T, delta_t=params.delta_t, n_steps=n_steps,
        seed=seed, n_solved=n_solved, n_manufactured=n_manufactured,
    )


class TestSweep:
    def zero_suite(self):
        """A suite whose one field, solved from the zero state, is 0."""
        layout, grid, coeff, pair, params = small_problem()
        q = np.zeros(grid.shape)
        suite = small_suite(grid, coeff, q, params, 6, 1, 0)
        suite = dataclasses.replace(
            suite, initial_states=[np.zeros(grid.shape, dtype=complex)])
        return suite, cc.PairOnGrid(pair, grid)

    def test_single_zero_field(self):
        suite, on_grid = self.zero_suite()
        out = cc.constant_sweep(suite, [10.0, 20.0], [1.0], on_grid)
        assert len(out.rows) == 2
        assert all(row["ratio"] == 0.0 for row in out.rows)
        assert out.sup_ratio == 0.0

    def test_all_flushed_sweep_is_not_stabilized(self):
        # every ratio is 0, so the upper-half sups do not change, but a
        # sweep that measured nothing has not stabilized
        suite, on_grid = self.zero_suite()
        out = cc.constant_sweep(suite, [10.0, 20.0, 40.0, 80.0], [1.0], on_grid)
        assert out.sup_ratio == 0.0
        assert out.stabilized is False

    def test_small_sweep_structure(self):
        layout, grid, coeff, pair, params = small_problem(nx=17)
        pts = grid.points
        q = 0.3 + 0.1 * np.sin(pts[..., 0])
        suite = small_suite(grid, coeff, q, params, 8, 1, 2)
        out = cc.constant_sweep(suite, [10.0, 20.0], [1.0, 2.0],
                                cc.PairOnGrid(pair, grid))
        assert len(out.rows) == len(suite) * 4
        assert len(out.table) == 4
        for entry in out.table:
            matching = [
                r["ratio"]
                for r in out.rows
                if r["s"] == entry["s"] and r["lambda"] == entry["lambda"]
            ]
            assert entry["max_ratio"] == pytest.approx(max(matching))
        assert out.sup_ratio == pytest.approx(
            max(e["max_ratio"] for e in out.table)
        )
        assert out.q_inf == pytest.approx(float(np.max(np.abs(q))))
        assert isinstance(out.stabilized, bool)
        assert np.isfinite(out.sup_ratio)

    def sweep_inputs(self, nx, M2):
        layout, grid, coeff, pair, params = small_problem(nx=nx, M2=M2)
        pts = grid.points
        q = 0.3 + 0.1 * np.sin(pts[..., 0])
        suite = small_suite(grid, coeff, q, params, 6, 1, 1, seed=2)
        return suite, cc.PairOnGrid(pair, grid), q, params.T

    def test_psi_is_scanned_once_per_weight(self, monkeypatch):
        # every (s, lambda) is fitted to one psi scan of each weight
        suite, on_grid, _, _ = self.sweep_inputs(nx=13, M2=0.1)
        n_grid = 40
        sizes = []
        psi = wt.TransmissionWeight.psi

        def counted(self, pts):
            sizes.append(len(pts))
            return psi(self, pts)

        monkeypatch.setattr(wt.TransmissionWeight, "psi", counted)
        cc.constant_sweep(suite, [10.0, 20.0], [1.0, 2.0], on_grid, n_grid=n_grid)
        assert sizes.count(n_grid**2) == 2

    def test_rows_equal_standalone_ratios_in_s_lambda_field_order(self):
        suite, on_grid, q, T = self.sweep_inputs(nx=13, M2=0.1)
        pair = on_grid.source
        s_values, lam_values = [10.0, 20.0], [1.5]
        out = cc.constant_sweep(suite, s_values, lam_values, on_grid)
        held = list(oracles.suite_fields(suite))
        expected = []
        for s in s_values:
            for lam in lam_values:
                params = wt.params_from_sup(
                    wt.psi_grid_max((pair.w1, pair.w2)), s, lam, T,
                    delta_t=T / 64.0,
                )
                for fid, fld in enumerate(held):
                    rep = cc.carleman_ratio(fld, pair, params, q,
                                            **oracles.walk_facts(fld))
                    expected.append({
                        "field_id": fid, "s": s, "lambda": lam,
                        "lhs": rep.lhs, "rhs_residual": rep.rhs_residual,
                        "rhs_boundary": rep.rhs_boundary, "ratio": rep.ratio,
                    })
        assert [(r["s"], r["field_id"]) for r in out.rows] == [
            (10.0, 0), (10.0, 1), (20.0, 0), (20.0, 1)
        ]
        assert all(r["rhs_boundary"] > 0.0 for r in out.rows)
        assert out.rows == expected

    def test_sweep_peaks_below_three_and_a_half_field_stacks(self):
        # the sweep's ten (129, 48, 48) fields: the slab-major walk holds
        # each field's slab, its L v and the marched block's last levels,
        # never a whole field, and peaks near 3.2 stacks; streamed field by
        # field, the sweep peaked at 3.6 (17.3 MB).  The call also builds
        # the pair's grid data and scans psi
        grid, coeff, q, suite = sweep_suite()
        cfg = cfgmod.load_config(CARLEMAN_INI)
        pair = wt.build_epsilon_pair(
            grid.layout, cfg.geometry.x1, cfg.geometry.x2, cfg.physics.a1,
            cfg.physics.a2, M2=cfg.carleman.M2,
        )
        stack = suite.times.size * grid.nx * grid.ny * np.dtype(complex).itemsize
        assert len(suite) == 10 and stack == 129 * 48 * 48 * 16
        tracemalloc.start()
        try:
            out = cc.constant_sweep(
                suite, cfg.carleman.s, cfg.carleman.lam, cc.PairOnGrid(pair, grid),
                n_grid=cfg.carleman.n_grid,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f"{out.sup_ratio:.6g}" == "38624.7"
        assert peak < 3.5 * stack

    def test_a_suite_sweeps_as_its_fields_held_whole(self):
        # the walk's marched block and slab-built separable fields against
        # the same fields held whole, bit for bit; a solved field whose
        # Re v(0) is not exactly 0 has no exact mirror and raises
        layout, grid, coeff, pair, params = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        suite = cc.build_test_suite(grid, coeff, q, params.T, n_steps=12, seed=11)
        on_grid = cc.PairOnGrid(pair, grid)
        s_values, lam_values = [10.0, 20.0], [1.5]

        def sweep(fields):
            return cc.constant_sweep(fields, s_values, lam_values, on_grid)

        psi_sup = wt.psi_grid_max((pair.w1, pair.w2))
        params_list = [wt.params_from_sup(psi_sup, s, lam, params.T)
                       for s in s_values for lam in lam_values]
        held = [cc.carleman_ratios(fld, on_grid, params_list, q,
                                   **oracles.walk_facts(fld))
                for fld in oracles.suite_fields(suite)]
        want = [
            {"field_id": fid, **reports[k].as_dict()}
            for k in range(len(params_list)) for fid, reports in enumerate(held)
        ]
        assert len(want) == 2 * len(suite) == 20
        assert sweep(suite).rows == want
        for nudge in (1e-20, 1e-3):
            broken = dataclasses.replace(
                suite, initial_states=[suite.initial_states[0] + nudge])
            with pytest.raises(pde.ExtensionError):
                sweep(broken)

    @pytest.mark.parametrize("divisor", [16.0, 128.0])
    def test_a_sweep_fits_at_its_suite_clamp(self, divisor):
        # every other sweep here runs at the default clamp T / 64; at T / 16
        # and T / 128 the rows are the standalone ratios at the suite's own
        # clamp, and q_inf is the suite's potential
        layout, grid, coeff, pair, base = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        T = base.T
        suite = cc.build_test_suite(grid, coeff, q, T, delta_t=T / divisor,
                                    n_steps=8, seed=5, n_solved=1,
                                    n_manufactured=2)
        assert (suite.T, suite.delta_t) == (T, T / divisor)
        s_values, lam_values = [10.0, 20.0], [1.5]
        out = cc.constant_sweep(suite, s_values, lam_values,
                                cc.PairOnGrid(pair, grid))
        psi_sup = wt.psi_grid_max((pair.w1, pair.w2))
        params_list = [
            wt.params_from_sup(psi_sup, s, lam, T, delta_t=T / divisor)
            for s in s_values for lam in lam_values
        ]
        held = list(oracles.suite_fields(suite))
        want = [
            {"field_id": fid, **cc.carleman_ratio(
                fld, pair, params, q, **oracles.walk_facts(fld)).as_dict()}
            for params in params_list for fid, fld in enumerate(held)
        ]
        assert all(row["rhs_boundary"] > 0.0 for row in out.rows)
        assert out.rows == want
        assert out.tail_bound == max(cc.clamp_tail_bound(p) for p in params_list)
        assert out.q_inf == float(np.max(np.abs(suite.operator.potential)))
        assert out.q_inf == float(np.max(np.abs(q)))

    def run_sweep(self, nx, M2):
        fields, on_grid, _, _ = self.sweep_inputs(nx=nx, M2=M2)
        return cc.constant_sweep(fields, [10.0, 20.0], [1.5], on_grid).rows

    def test_back_to_back_sweeps_equal_each_sweep_alone(self):
        # each sweep has its own grid and weight pair: nothing built for one
        # sweep may be served to the next, also once the objects of the
        # previous sweep are freed and their ids reused
        alone_b = self.run_sweep(17, 0.2)
        first_a = self.run_sweep(13, 0.1)
        then_b = self.run_sweep(17, 0.2)
        then_a = self.run_sweep(13, 0.1)
        assert then_b == alone_b
        assert then_a == first_a
        assert first_a != alone_b


class TestSuiteBuilder:
    def test_default_suite_layout(self):
        layout, grid, coeff, pair, params = small_problem(nx=17)
        pts = grid.points
        q = 0.3 + 0.1 * np.sin(pts[..., 0])
        fields = cc.build_test_suite(
            grid, coeff, q, params.T, delta_t=params.delta_t, n_steps=8, seed=7
        )
        assert len(fields) == 10
        t_ref = None
        for k, f in enumerate(oracles.suite_fields(fields)):
            if t_ref is None:
                t_ref = f.times
            np.testing.assert_allclose(f.times, t_ref)
            # discrete analogue of Z: zero Dirichlet trace
            edge = np.concatenate(
                [
                    np.abs(f.values[:, 0, :]).ravel(),
                    np.abs(f.values[:, -1, :]).ravel(),
                    np.abs(f.values[:, :, 0]).ravel(),
                    np.abs(f.values[:, :, -1]).ravel(),
                ]
            )
            assert edge.max() < 1e-8
            # the first five are solved fields carrying the extension symmetry
            if k < 5:
                np.testing.assert_allclose(
                    f.values[0], -np.conj(f.values[-1]), atol=1e-12
                )
        assert k == 9

    def test_every_sweep_field_is_exactly_zero_on_the_rim(self):
        # _apply_flux's one product reads the rim columns: on the sweep's
        # fields they hold +-0 only, so it has the solver's bits (module
        # notes, Kernels)
        grid, coeff, q, suite = sweep_suite()
        walked = cc._suite_fields(suite)
        assert len(walked) == len(suite) == 10
        assert len(suite.initial_states) == 5 and len(suite.separable) == 5
        for k, fld in enumerate(walked):
            nt = fld.times.size
            rim = fld.read(0, nt).reshape(nt, -1)[:, grid.boundary_ids]
            assert rim.shape == (2 * 64 + 1, grid.boundary_ids.size), k
            assert not rim.any(), k

    def test_every_pass_builds_the_same_fields(self):
        layout, grid, coeff, pair, params = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        suite = cc.build_test_suite(grid, coeff, q, params.T, n_steps=6, seed=11)
        assert len(suite) == 10
        first, second = cc._suite_fields(suite), cc._suite_fields(suite)
        assert len(first) == len(second) == 10
        for a, b in zip(first, second):
            assert a is not b
            assert np.array_equal(a.times, b.times)
            nt = a.times.size
            assert np.array_equal(a.read(0, nt), b.read(0, nt))

    def test_a_sweep_keeps_nothing_of_its_fields(self):
        # the suite holds its draws, and the pair grid data only: once a
        # sweep has returned, nothing built from a field is left
        layout, grid, coeff, pair, params = small_problem(nx=13)
        q = 0.3 + 0.1 * np.sin(grid.points[..., 0])
        suite = cc.build_test_suite(grid, coeff, q, params.T, n_steps=6, seed=11)
        on_grid = cc.PairOnGrid(pair, grid)

        def sweep():
            return cc.constant_sweep(suite, [10.0, 20.0], [1.5], on_grid)

        want = sweep()  # builds the pair's grid data
        tracemalloc.start()
        try:
            same = sweep() == want
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same
        # below one slab of one field's levels
        assert kept < cc.SLAB * grid.nx * grid.ny * np.dtype(complex).itemsize

    def test_seed_reproducibility(self):
        layout, grid, coeff, pair, params = small_problem(nx=13)
        q = np.zeros(grid.shape)
        a = cc.build_test_suite(grid, coeff, q, params.T, n_steps=6, seed=11)
        b = cc.build_test_suite(grid, coeff, q, params.T, n_steps=6, seed=11)
        for fa, fb in zip(oracles.suite_fields(a), oracles.suite_fields(b)):
            np.testing.assert_array_equal(fa.values, fb.values)
