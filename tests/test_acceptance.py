"""Acceptance gate: one test per criterion, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  Regression constants (the Carleman sup, the BK
floor) were measured on the shipped configurations and are re-verified
on every run within the stated windows.
"""

import time

import numpy as np
import pytest

from carleman_lab import carleman_check as cc
from carleman_lab import geometry as geo
from carleman_lab import inverse as inv
from carleman_lab import pde_solver as pde
from carleman_lab import weight as wt

import oracles


# pinned regression values, measured once on the shipped configurations
CARLEMAN_SUP_PIN = 38624.666633  # sweep sup on configs/carleman.ini
BK_FLOOR_PIN = 0.0357            # relative BK error at the 32-cell grid


def make_layout(half=1.0, radius=0.5, n=64):
    return geo.DomainLayout(geo.RectangularDomain(-half, half, -half, half),
                            geo.disk_interface(radius, n=n))


def make_instance(nx, n_steps, T=0.5):
    layout = make_layout()
    grid = pde.Grid2D.from_layout(layout, nx)
    coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
    pts = grid.points
    p = 1.0 + 0.4 * np.sin(pts[..., 0]) * np.cos(pts[..., 1])
    y0 = (2.0 + 0.5 * np.cos(np.pi * pts[..., 0] / 2.0)).astype(complex)
    return inv.make_instance(grid, coeff, p, y0, T, n_steps)


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


def test_criterion_1_geometry_exactness():
    start = time.monotonic()
    for radius in (1.0, 0.5):
        iface = geo.disk_interface(radius, n=256)
        min_curv, ok = geo.certify_strong_convexity(iface)
        assert ok
        assert min_curv == pytest.approx(1.0 / radius, abs=1e-8)

        rng = np.random.default_rng(11)
        pts = rng.uniform(-0.6 * radius, 0.6 * radius, (64, 2))
        hess = oracles.gauge_hessian(iface, pts)
        target = (2.0 / radius**2) * np.eye(2)
        assert np.max(np.abs(hess - target[None])) < 1e-10
    assert time.monotonic() - start < 1.0


def test_criterion_2_hypothesis_certification():
    start = time.monotonic()
    interfaces = (
        geo.disk_interface(0.5, n=256),
        geo.fourier_interface(0.5, harmonics=((3, 0.02),), n=256),
        geo.fourier_interface(0.5, harmonics=((3, 0.03), (4, 0.01)), n=256),
    )
    for iface in interfaces:
        layout = geo.DomainLayout(geo.RectangularDomain(-1, 1, -1, 1), iface)
        w = wt.build_weight(layout, (0.0, 0.0), 2.0, 1.0, M2=1.0)
        report = wt.verify_hypotheses(w)
        assert report.all_ok
        assert all(rec.margin > 0.0 for rec in report.records.values())

    # reversed jump: (H2) must fail with the predicted margin -2(a2-a1)/R
    layout = make_layout()
    w_bad = wt.build_weight(layout, (0.0, 0.0), 1.0, 2.0, M2=2.0,
                            enforce_jump_sign=False)
    report = wt.verify_hypotheses(w_bad)
    assert not report.all_ok
    assert not report.records["H2"].ok
    predicted = -2.0 * (2.0 - 1.0) / 0.5
    assert report.records["H2"].margin == pytest.approx(predicted, abs=1e-6)
    assert time.monotonic() - start < 10.0


def test_criterion_3_epsilon_pair_formula():
    layout = geo.DomainLayout(geo.RectangularDomain(-1.6, 1.6, -1.6, 1.6),
                              geo.disk_interface(1.0, n=256))
    pair = wt.build_epsilon_pair(
        layout, (-0.3, 0.0), (0.3, 0.0),
        2.0, 1.0, M2=1.0,
    )
    d, alpha, big_d = 0.3, 0.7, 1.3
    predicted = 0.9 * min(d * alpha / big_d, d * alpha / big_d)
    assert pair.eps == pytest.approx(predicted, abs=1e-10)
    assert pair.d == pytest.approx(d, abs=1e-12)
    assert pair.alpha1 == pytest.approx(alpha, abs=1e-9)
    assert pair.D2 == pytest.approx(big_d, abs=1e-9)
    assert pair.h5_margin_1 > 0.0
    assert pair.h5_margin_2 > 0.0


def test_criterion_4_solver_convergence_and_conservation():
    start = time.monotonic()

    # plane wave on a constant coefficient under (h, dt) halving
    k = np.array([2.0, 1.0])
    om = float(k @ k)

    def exact(pts, t):
        return np.exp(1j * (pts[..., 0] * k[0] + pts[..., 1] * k[1] - om * t))

    errors = []
    for nx, steps in ((17, 10), (33, 20)):
        layout = make_layout()
        grid = pde.Grid2D.from_layout(layout, nx)
        coeff = wt.PiecewiseCoefficient(1.0, 1.0, layout)
        field = pde.solve_forward(
            grid, coeff, np.zeros(grid.shape),
            lambda pts: exact(pts, 0.0),
            0.0, 0.2, steps,
            boundary=lambda pts, t: exact(pts, t),
        )
        ref = exact(grid.points, 0.2)
        errors.append(grid.l2_norm(field.values[-1] - ref) / grid.l2_norm(ref))
    order = np.log2(errors[0] / errors[1])
    assert order >= 1.8, f"plane wave order {order:.2f} ({errors})"

    # discrete L2 conservation with zero Dirichlet data on a 64-cell grid
    layout = make_layout()
    grid = pde.Grid2D.from_layout(layout, 65)
    coeff = wt.PiecewiseCoefficient(2.0, 1.0, layout)
    pts = grid.points
    y0 = np.exp(-(pts[..., 0] ** 2 + pts[..., 1] ** 2) / 0.35**2) * (
        1.0 - pts[..., 0] ** 2
    ) * (1.0 - pts[..., 1] ** 2)
    potential = 0.7 * np.cos(2 * pts[..., 0] + pts[..., 1])
    field = pde.solve_forward(grid, coeff, potential, y0.astype(complex),
                              0.0, 0.5, 32)
    mass = np.array([grid.l2_norm(field.values[n]) for n in range(field.nt)])
    drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    assert drift <= 1e-6, f"conservation drift {drift:.2e}"

    # interface flux jump decreases under refinement
    def transmission_case(nx, steps):
        lay = geo.DomainLayout(geo.RectangularDomain(-1.6, 1.6, -1.6, 1.6),
                               geo.disk_interface(1.0, n=64))
        g = pde.Grid2D.from_layout(lay, nx)
        cf = wt.PiecewiseCoefficient(2.0, 1.0, lay)
        w = wt.build_weight(lay, (0.0, 0.0), 2.0, 1.0, M2=1.0)

        def ex(p, t):
            return w.psi(p) ** 2 * np.exp(-1j * t)

        def src(p, t):
            a = cf.at(p)
            _, g, h = w.jet(p, order=2)
            spatial = a * (2.0 * np.sum(g ** 2, axis=-1)
                           + 2.0 * w.psi(p) * (h[..., 0, 0] + h[..., 1, 1]))
            return np.exp(-1j * t) * (w.psi(p) ** 2 + spatial)

        fld = oracles.solve_with_source(
            g, cf, np.zeros(g.shape), lambda p: ex(p, 0.0), 0.0, 0.3, steps,
            src, boundary=lambda p, t: ex(p, t),
        )
        return oracles.interface_flux_jump(g, cf, fld.values[-1])

    j_coarse = transmission_case(21, 15)
    j_fine = transmission_case(41, 30)
    assert j_fine < j_coarse / 1.4, f"flux jump {j_coarse:.3e} -> {j_fine:.3e}"
    assert time.monotonic() - start < 120.0


def test_criterion_5_conjugation_identity():
    def small_problem(nx):
        layout = geo.DomainLayout(
            geo.RectangularDomain(-1.3, 1.3, -1.3, 1.3),
            geo.disk_interface(1.0, n=64),
        )
        grid = pde.Grid2D.from_layout(layout, nx)
        coeff = wt.PiecewiseCoefficient(0.2, 0.1, layout)
        pair = wt.build_epsilon_pair(layout, (-0.12, 0.0), (0.12, 0.0),
                                     0.2, 0.1, M2=0.1)
        params = wt.params_from_sup(wt.psi_grid_max((pair.w1, pair.w2)),
                                    1.0, 1.0, 1.0)
        return grid, coeff, pair.w1, params

    def taper(grid, margin=0.25):
        xmin, xmax, ymin, ymax = grid.layout.outer.bounds
        pts = grid.points

        def edge(d):
            u = np.clip(d / margin, 0.0, 1.0)
            return u**3 * (10.0 - 15.0 * u + 6.0 * u**2)

        return (edge(pts[..., 0] - xmin) * edge(xmax - pts[..., 0])
                * edge(pts[..., 1] - ymin) * edge(ymax - pts[..., 1]))

    def manufactured(grid, params, center, width, n_half):
        t_max = params.T - params.delta_t
        times = np.linspace(-t_max, t_max, 2 * n_half + 1)
        pts = grid.points
        r2 = ((pts[..., 0] - center[0]) ** 2 + (pts[..., 1] - center[1]) ** 2)
        profile = np.exp(-r2 / width**2) * taper(grid)
        env = np.exp(-(times / (0.6 * t_max)) ** 2) * np.exp(2j * times)
        values = env[:, None, None] * profile[None]
        return pde.SpaceTimeField(grid=grid, times=times,
                                  values=values.astype(complex))

    def two_route_error(nx, n_half, center, width):
        grid, coeff, w1, params = small_problem(nx)
        pts_flat = grid.points.reshape(-1, 2)
        q = 0.8 + 0.3 * np.cos(grid.points[..., 0]) * np.sin(grid.points[..., 1])
        w = manufactured(grid, params, center, width, n_half)
        lifted = np.empty_like(w.values)
        for n, t in enumerate(w.times):
            phi = oracles.eval_phi(w1, params, pts_flat, t).reshape(grid.shape)
            lifted[n] = w.values[n] * np.exp(params.s * phi)
        image = cc.apply_transmission_operator(
            pde.SpaceTimeField(grid=grid, times=w.times, values=lifted),
            coeff, q,
        )
        direct = np.empty_like(image.values)
        for n, t in enumerate(w.times):
            phi = oracles.eval_phi(w1, params, pts_flat, t).reshape(grid.shape)
            direct[n] = image.values[n] * np.exp(-params.s * phi)
        phi = cc._Phi.of(cc.WeightOnGrid(w1, grid), params,
                         pde.CoefficientOnGrid(coeff, grid), w.times)
        dwdt = cc._time_derivative(w.values, pde.time_step(w.times))
        grad = cc._spatial_gradient(w.values, grid.h)
        factors = cc._Factors.of(phi, w.times)
        split = (cc.apply_P1(w.values, dwdt, factors)
                 + cc.apply_P2(w.values, grad, factors)
                 + q[None] * w.values)
        dt = w.times[1] - w.times[0]

        def st_norm(vals):
            per = np.sum(np.abs(vals) ** 2, axis=(1, 2)) * grid.h**2
            return float(np.sqrt(np.trapezoid(per, dx=dt)))

        return st_norm(direct - split) / st_norm(w.values)

    fields = [((0.15, -0.1), 0.28), ((-0.2, 0.15), 0.25), ((0.0, 0.25), 0.3)]
    for center, width in fields:
        coarse = two_route_error(17, 16, center, width)
        fine = two_route_error(33, 32, center, width)
        order = np.log2(coarse / fine)
        assert order >= 1.0, f"identity order {order:.2f} at {center}"


def test_criterion_6_carleman_inequality_sweep():
    # mirrors configs/carleman.ini exactly
    start = time.monotonic()
    layout = geo.DomainLayout(geo.RectangularDomain(-1.1, 1.1, -1.1, 1.1),
                              geo.disk_interface(1.0, n=256))
    grid = pde.Grid2D.from_layout(layout, 48)
    coeff = wt.PiecewiseCoefficient(0.1, 0.05, layout)
    pts = grid.points
    q = 1.0 + 0.3 * np.sin(pts[..., 0]) * np.cos(pts[..., 1])
    pair = wt.build_epsilon_pair(layout, (-0.12, 0.0), (0.12, 0.0),
                                 0.1, 0.05, M2=0.05)
    fields = cc.build_test_suite(grid, coeff, q, 1.0, n_steps=64, seed=21,
                                 n_solved=5, n_manufactured=5)
    assert len(fields) >= 10
    sweep = cc.constant_sweep(fields, (10.0, 20.0, 40.0, 80.0), (1.0, 2.0),
                              cc.PairOnGrid(pair, grid))

    ratios = [row["ratio"] for row in sweep.rows]
    assert all(np.isfinite(r) for r in ratios)
    assert sweep.sup_ratio > 0.0

    sups = {}
    for row in sweep.table:
        sups[row["s"]] = max(sups.get(row["s"], 0.0), row["max_ratio"])
    seq = [sups[s] for s in (10.0, 20.0, 40.0, 80.0)]
    top_change = abs(seq[3] - seq[2]) / seq[2]
    assert top_change < 0.10, f"sup over top half moved {100 * top_change:.1f}%"
    assert sweep.stabilized
    assert seq[1] >= seq[2] >= seq[3], f"sup not non-increasing: {seq}"

    # the recorded sup is a regression bound, re-verified on every run
    assert sweep.sup_ratio == pytest.approx(CARLEMAN_SUP_PIN, rel=0.10)
    assert time.monotonic() - start < 600.0


def test_criterion_7_bk_initial_condition_oracle():
    errs = []
    for nx, steps in ((17, 16), (33, 32)):
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
        v0_hat = (4.0 * u.values[1] - u.values[2]) / (2.0 * pde.time_step(u.times))
        f_hat = oracles.bk_recover_f(v0_hat, r0)
        mask = np.abs(f) > 1e-3
        errs.append(float(np.linalg.norm((f_hat - f)[mask])
                          / np.linalg.norm(f[mask])))
    assert errs[1] < errs[0], f"BK floor did not decrease: {errs}"
    assert errs[1] <= BK_FLOOR_PIN * 1.05, f"BK floor regressed: {errs[1]:.4f}"


def test_criterion_8_lipschitz_stability():
    start = time.monotonic()
    inst = make_instance(nx=33, n_steps=16)
    sweep = inv.stability_sweep(inst, n_perturbations=30,
                                amplitude_range=(1e-3, 1e-1), seed=7)
    assert len(sweep.records) == 30
    ratios = np.array([rec.ratio for rec in sweep.records])
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)
    assert np.isfinite(sweep.empirical_C)
    assert np.max(ratios) <= 10.0 * np.median(ratios)
    assert 0.8 <= sweep.loglog_slope <= 1.2, f"slope {sweep.loglog_slope:.3f}"
    assert sweep.certified
    assert time.monotonic() - start < 900.0


def test_criterion_9_gradient_and_reconstruction():
    # adjoint gradient against central differences, five directions
    inst = make_instance(nx=15, n_steps=10)
    q = inst.p_true + 0.3 * smooth_direction(inst.grid, 42)
    _, grad = inv.misfit_and_gradient(q, inst, beta=0.0)
    step = 1e-5
    for k in range(5):
        d = smooth_direction(inst.grid, 7 + k)
        fd = (inv.misfit(q + step * d, inst) - inv.misfit(q - step * d, inst))
        fd /= 2.0 * step
        an = float(np.sum(grad * d))
        assert an == pytest.approx(fd, rel=1e-3), f"direction {k}"

    # noiseless planted bump at the 32-cell grid, at most 100 iterations
    inst = make_instance(nx=33, n_steps=16)
    pts = inst.grid.points
    bump = 0.35 * np.exp(-((pts[..., 0] + 0.1) ** 2 + pts[..., 1] ** 2) / 0.18)
    q0 = inst.p_true - bump
    result = inv.reconstruct(inst, q0, beta=1e-6, max_iter=100)
    assert not result.stalled
    assert result.iterations <= 100
    assert result.relative_error <= 0.05, (
        f"reconstruction error {result.relative_error:.4f}"
    )
