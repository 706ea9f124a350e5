"""Tests for the piecewise Carleman weight module.

Oracles used here:
  * explicit closed forms on a disk interface (gauge r/R, constant Hessian),
  * central finite differences of psi for the gradient and of the gradient
    for the Hessian on a generic oval with an offset center,
  * exact distance extrema 1 -+ |p| for a unit circle about an interior point,
  * hand-computed interface quantities: value a2 + M1, conormal cancellation,
    one-sided slope sum 2 (a2 - a1) / R.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carleman_lab import carleman_check as cc
from carleman_lab import geometry as geo
from carleman_lab import pde_solver as pde
from carleman_lab import weight as wt

import oracles


def unit_disk_layout(half_width=2.0, n=64):
    return geo.DomainLayout(
        geo.RectangularDomain(-half_width, half_width, -half_width, half_width),
        geo.disk_interface(1.0, n=n),
    )


def oval_interface(c2=0.1, c3=0.05, n=256):
    th = geo.TWO_PI * np.arange(n) / n
    rho = 1.0 + c2 * np.cos(2 * th) + c3 * np.cos(3 * th)
    return geo.build_radial_interface(np.column_stack([th, rho]))


def oval_layout(c2=0.1, c3=0.05):
    return geo.DomainLayout(
        geo.RectangularDomain(-2.0, 2.0, -2.0, 2.0), oval_interface(c2, c3)
    )


def count_classify(monkeypatch):
    """Record the point count of every DomainLayout.classify call."""
    calls = []
    classify = geo.DomainLayout.classify

    def counted(self, pts):
        calls.append(len(pts))
        return classify(self, pts)

    monkeypatch.setattr(geo.DomainLayout, "classify", counted)
    return calls


def count_gauge_data(monkeypatch):
    """Record (order, number of points) of every gauge evaluation the
    weight module makes."""
    calls = []
    gauge_data = wt._gauge_data

    def counted(interface, x, center=None, order=0):
        calls.append((order, np.shape(x)[:-1]))
        return gauge_data(interface, x, center, order)

    monkeypatch.setattr(wt, "_gauge_data", counted)
    return calls


class TestPiecewiseCoefficient:
    def test_side_values(self):
        coeff = wt.PiecewiseCoefficient(2.0, 1.0, unit_disk_layout())
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [1.5, 0.0], [0.0, -1.8]])
        assert np.allclose(coeff.at(pts), [2.0, 2.0, 1.0, 1.0])
        # the weight takes the coefficient of the opposite side
        w = wt.build_weight(coeff.layout, (0.0, 0.0), 2.0, 1.0)
        assert np.allclose(w._abar(w.side_of(pts)), [1.0, 1.0, 2.0, 2.0])

    def test_positivity_required(self):
        layout = unit_disk_layout()
        with pytest.raises(ValueError):
            wt.PiecewiseCoefficient(-1.0, 1.0, layout)
        with pytest.raises(ValueError):
            wt.PiecewiseCoefficient(1.0, 0.0, layout)


class TestCutoff:
    def test_plateau_values(self):
        c = wt.Cutoff(0.2, 0.5)
        assert c.jet(0.1)[0] == 0.0
        assert c.jet(0.0)[0] == 0.0
        assert c.jet(0.5)[0] == 1.0
        assert c.jet(2.0)[0] == 1.0
        assert c.jet(0.1, 1)[1] == 0.0 and c.jet(0.9, 1)[1] == 0.0
        assert c.jet(0.1, 2)[2] == 0.0 and c.jet(0.9, 2)[2] == 0.0

    def test_c2_matching_at_ends(self):
        # value, slope and curvature continuous where the ramp meets the plateaus
        c = wt.Cutoff(0.2, 0.5)
        for r, v in ((0.2, 0.0), (0.5, 1.0)):
            assert c.jet(r)[0] == pytest.approx(v, abs=1e-15)
            assert c.jet(r, 1)[1] == pytest.approx(0.0, abs=1e-15)
            assert c.jet(r, 2)[2] == pytest.approx(0.0, abs=1e-15)

    def test_derivatives_match_finite_differences(self):
        c = wt.Cutoff(0.2, 0.5)
        rs = np.linspace(0.22, 0.48, 9)
        h = 1e-6
        fd1 = (c.jet(rs + h)[0] - c.jet(rs - h)[0]) / (2 * h)
        fd2 = (c.jet(rs + h, 1)[1] - c.jet(rs - h, 1)[1]) / (2 * h)
        assert np.allclose(c.jet(rs, 1)[1], fd1, atol=1e-7)
        assert np.allclose(c.jet(rs, 2)[2], fd2, atol=1e-6)

    def test_monotone_ramp(self):
        c = wt.Cutoff(0.2, 0.5)
        rs = np.linspace(0.0, 0.7, 200)
        vals = c.jet(rs)[0]
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_bad_radii(self):
        with pytest.raises(geo.GeometryError):
            wt.Cutoff(0.5, 0.2)
        with pytest.raises(geo.GeometryError):
            wt.Cutoff(0.0, 0.2)


class TestDiskWeightValues:
    """Closed-form checks on the unit disk with the weight centered at 0."""

    def setup_method(self):
        self.layout = unit_disk_layout()
        self.w = wt.build_weight(self.layout, (0.0, 0.0), 2.0, 1.0, M2=1.0)

    def test_offsets_and_interface_value(self):
        assert self.w.M2 == 1.0
        assert self.w.M1 == pytest.approx(2.0)  # M2 + (a1 - a2)
        assert self.w.interface_value == pytest.approx(3.0)  # a2 + M1 = a1 + M2

    def test_interface_continuity(self):
        th = np.linspace(0.0, geo.TWO_PI, 64, endpoint=False)
        pts = np.column_stack([np.cos(th), np.sin(th)])
        psi1 = self.w.jet(pts, 1).psi
        psi2 = self.w.jet(pts, 2).psi
        assert np.allclose(psi1, 3.0, atol=1e-12)
        assert np.allclose(psi2, 3.0, atol=1e-12)

    def test_radial_profiles(self):
        # outside the cutoff ball eta = 1 and psi_j = abar_j r^2 + M_j
        rs = np.array([0.3, 0.6, 0.9, 1.2, 1.7])
        pts = np.column_stack([rs, np.zeros_like(rs)])
        assert np.allclose(self.w.jet(pts, 1).psi, 1.0 * rs**2 + 2.0, atol=1e-12)
        assert np.allclose(self.w.jet(pts, 2).psi, 2.0 * rs**2 + 1.0, atol=1e-12)

    def test_dispatch_picks_correct_side(self):
        pts = np.array([[0.5, 0.0], [1.5, 0.0]])
        vals = self.w.psi(pts)
        assert vals[0] == pytest.approx(1.0 * 0.25 + 2.0)
        assert vals[1] == pytest.approx(2.0 * 2.25 + 1.0)

    def test_dead_zone(self):
        # default cutoff radii are (0.125, 0.25) for a unit disk
        assert self.w.cutoff.r_inner == pytest.approx(0.125)
        assert self.w.cutoff.r_outer == pytest.approx(0.25)
        inner = np.array([[0.0, 0.0], [0.05, 0.05], [0.0, -0.12]])
        assert np.allclose(self.w.psi(inner), self.w.M1)
        assert np.allclose(self.w.jet(inner, order=1).grad, 0.0)
        assert np.allclose(self.w.jet(inner, order=2).hessian, 0.0)

    def test_disk_gradient_and_hessian(self):
        rs = np.array([0.4, 0.8, 1.4])
        pts = np.column_stack([rs / np.sqrt(2.0), rs / np.sqrt(2.0)])
        er = pts / rs[:, None]
        g1 = self.w.jet(pts, 1, order=1).grad
        assert np.allclose(g1, (1.0 * 2.0 * rs)[:, None] * er, atol=1e-12)
        h2 = self.w.jet(pts, 2, order=2).hessian
        assert np.allclose(h2, 2.0 * 2.0 * np.eye(2), atol=1e-12)

    def test_laplacian_is_hessian_trace(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.8, 1.8, size=(40, 2))
        h = self.w.jet(pts, order=2).hessian
        # WeightOnGrid reads nothing of its grid but the points
        lap = cc.WeightOnGrid(self.w, SimpleNamespace(points=pts)).laplacian
        assert np.allclose(lap, h[..., 0, 0] + h[..., 1, 1])

    def test_grid_shaped_input(self):
        xs = np.linspace(-1.5, 1.5, 7)
        grid = np.stack(np.meshgrid(xs, xs), axis=-1)
        assert self.w.psi(grid).shape == (7, 7)
        assert self.w.jet(grid, order=1).grad.shape == (7, 7, 2)
        assert self.w.jet(grid, order=2).hessian.shape == (7, 7, 2, 2)
        flat = grid.reshape(-1, 2)
        assert np.allclose(self.w.psi(grid).reshape(-1), self.w.psi(flat))


class TestOvalWeightDerivatives:
    """Finite-difference oracles on a generic oval with an offset center."""

    def setup_method(self):
        self.w = wt.build_weight(
            oval_layout(), (0.15, -0.1), 2.0, 1.0, M2=0.5,
            cutoff_radii=(0.2, 0.45),
        )

    def sample_points(self, n=60):
        rng = np.random.default_rng(11)
        pts = []
        while len(pts) < n:
            cand = rng.uniform(-1.9, 1.9, size=2)
            r = np.hypot(cand[0] - 0.15, cand[1] + 0.1)
            if 0.05 < r:
                pts.append(cand)
        return np.asarray(pts)

    def test_gradient_matches_fd(self):
        pts = self.sample_points()
        h = 1e-6
        for side in (1, 2):
            g = self.w.jet(pts, side, order=1).grad
            for k in range(2):
                dp = np.zeros(2)
                dp[k] = h
                fd = (
                    self.w.jet(pts + dp, side).psi
                    - self.w.jet(pts - dp, side).psi
                ) / (2 * h)
                assert np.allclose(g[:, k], fd, atol=2e-6), f"side {side} axis {k}"

    def test_hessian_matches_fd_of_gradient(self):
        pts = self.sample_points()
        h = 1e-6
        for side in (1, 2):
            hess = self.w.jet(pts, side, order=2).hessian
            for k in range(2):
                dp = np.zeros(2)
                dp[k] = h
                fd = (
                    self.w.jet(pts + dp, side, order=1).grad
                    - self.w.jet(pts - dp, side, order=1).grad
                ) / (2 * h)
                assert np.allclose(hess[:, :, k], fd, atol=5e-6), (
                    f"side {side} axis {k}"
                )

    def mixed_points(self):
        # center (0.15, -0.1), a dead-zone point and a ramp point lie inside
        # the cutoff ball of radius 0.45; the samples cover both sides
        ball = np.array([[0.15, -0.1], [0.25, -0.1], [0.15, 0.2]])
        pts = np.vstack([self.sample_points(), ball])
        assert set(np.unique(self.w.side_of(pts))) == {1, 2}
        return pts

    def test_evaluators_equal_their_side_branch_exactly(self):
        pts = self.mixed_points()
        side = self.w.side_of(pts)
        full = self.w.jet(pts, order=2)
        for lab in (1, 2):
            branch = self.w.jet(pts, lab, order=2)
            mask = side == lab
            for name, got, want in zip(full._fields, full, branch):
                assert np.array_equal(got[mask], want[mask]), (name, lab)

    def test_lower_orders_equal_the_order_two_fields_exactly(self):
        pts = self.mixed_points()
        full = self.w.jet(pts, order=2)
        psi, grad, hess = self.w.jet(pts, order=0)
        assert np.array_equal(psi, full.psi)
        assert grad is None and hess is None
        psi, grad, hess = self.w.jet(pts, order=1)
        assert np.array_equal(psi, full.psi)
        assert np.array_equal(grad, full.grad)
        assert hess is None

    def test_stacked_labels_give_each_side_exactly(self):
        # labels of shape (2, 1) evaluate both branches at every point
        pts = self.mixed_points()
        both = self.w.jet(pts, np.array([[1], [2]]), order=2)
        for k, lab in enumerate((1, 2)):
            branch = self.w.jet(pts, lab, order=2)
            for name, got, want in zip(both._fields, both, branch):
                assert np.array_equal(got[k], want), (name, lab)

    def test_hessian_symmetry(self):
        pts = self.sample_points()
        hess = self.w.jet(pts, order=2).hessian
        assert np.allclose(hess, np.swapaxes(hess, -1, -2))

    def test_interface_value_constant_despite_offset_center(self):
        th = np.linspace(0.0, geo.TWO_PI, 200, endpoint=False)
        iface = oval_interface()
        pts = iface.point(th)
        psi1 = self.w.jet(pts, 1).psi
        assert np.max(np.abs(psi1 - self.w.interface_value)) < 1e-7


class TestBuildWeight:
    def test_jump_sign_enforced(self):
        layout = unit_disk_layout()
        with pytest.raises(wt.JumpSignError):
            wt.build_weight(layout, (0.0, 0.0), 1.0, 2.0)
        w = wt.build_weight(
            layout, (0.0, 0.0), 1.0, 2.0, M2=1.5, enforce_jump_sign=False
        )
        assert w.M1 == pytest.approx(w.M2 + (1.0 - 2.0))

    def test_offsets_must_stay_positive(self):
        layout = unit_disk_layout()
        with pytest.raises(ValueError):
            wt.build_weight(layout, (0.0, 0.0), 2.0, 1.0, M2=-0.5)
        with pytest.raises(ValueError):
            # M1 = M2 + (a1 - a2) = -0.5
            wt.build_weight(
                layout, (0.0, 0.0), 1.0, 2.0, M2=0.5, enforce_jump_sign=False
            )

    def test_center_must_be_inside(self):
        layout = unit_disk_layout()
        with pytest.raises(geo.GeometryError):
            wt.build_weight(layout, (1.5, 0.0), 2.0, 1.0)
        with pytest.raises(geo.GeometryError):
            wt.build_weight(layout, (1.0, 0.0), 2.0, 1.0)  # on the interface

    def test_cutoff_ball_must_fit(self):
        layout = unit_disk_layout()
        with pytest.raises(geo.GeometryError):
            wt.build_weight(layout, (0.0, 0.0), 2.0, 1.0, cutoff_radii=(0.5, 1.1))
        with pytest.raises(geo.GeometryError):
            wt.build_weight(layout, (0.0, 0.0), 2.0, 1.0, cutoff_radii=(0.5, 0.2))

    def test_coefficients_must_be_positive(self):
        with pytest.raises(ValueError):
            wt.build_weight(unit_disk_layout(), (0.0, 0.0), -2.0, 1.0)


class TestTimeWeights:
    def setup_method(self):
        self.w = wt.build_weight(unit_disk_layout(), (0.0, 0.0), 2.0, 1.0)
        self.params = wt.params_from_sup(
            wt.psi_grid_max((self.w,)), s=10.0, lam=1.0, T=1.0
        )

    def test_alpha_dominates_psi(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.0, 2.0, size=(500, 2))
        pts = pts[self.w.coeff.layout.outer.contains(pts)]
        assert np.all(
            self.params.alpha > np.exp(self.params.lam * self.w.psi(pts))
        )
        assert self.params.alpha == pytest.approx(
            1.05 * np.exp(self.params.lam * self.params.psi_sup)
        )

    def test_phi_identity(self):
        # phi * (T^2 - t^2) + exp(lam psi) = alpha by construction
        pts = np.array([[0.3, 0.2], [1.1, -0.4], [0.0, 1.6]])
        for t in (-0.9, 0.0, 0.5):
            phi = oracles.eval_phi(self.w, self.params, pts, t)
            lhs = phi * (1.0 - t * t) + np.exp(self.params.lam * self.w.psi(pts))
            assert np.allclose(lhs, self.params.alpha, rtol=1e-12)
            assert np.all(phi > 0.0)

    def test_theta_identity_and_symmetry(self):
        # theta = exp(lam psi) * time factor, with the factor even in t
        pts = np.array([[0.3, 0.2], [1.1, -0.4]])
        t = 0.7
        tau = wt._time_factor(self.params, t)
        assert tau == wt._time_factor(self.params, -t)
        assert tau == pytest.approx(1.0 / (1.0 - t * t), rel=1e-12)
        assert np.array_equal(
            oracles.eval_phi(self.w, self.params, pts, t),
            oracles.eval_phi(self.w, self.params, pts, -t),
        )

    def test_time_clamp(self):
        pts = np.array([[0.3, 0.2]])
        edge = self.params.T - self.params.delta_t
        oracles.eval_phi(self.w, self.params, pts, edge)  # works at the clamp
        with pytest.raises(wt.TimeSingular):
            wt._time_factor(self.params, edge + 1e-6)
        with pytest.raises(wt.TimeSingular):
            oracles.eval_phi(self.w, self.params, pts, -(edge + 1e-6))

    def test_time_clamp_slack_scales_with_T(self):
        # a march's last level (t_max / n) n may round past t_max = T -
        # delta_t: at T = 1e6, the default clamp and n = 23 by 1.16e-10,
        # far above 1e-12
        params = wt.params_from_sup(1.0, 10.0, 1.0, 1e6)
        t_max = params.T - params.delta_t
        last = (t_max / 23) * 23
        assert last - t_max > 1e-10
        assert np.isfinite(wt._time_factor(params, [-last, last])).all()
        with pytest.raises(wt.TimeSingular):
            wt._time_factor(params, t_max + 1e-6)

    def test_default_clamp(self):
        assert self.params.delta_t == pytest.approx(1.0 / 64.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            wt.CarlemanParams(s=-1.0, lam=1.0, alpha=10.0, T=1.0, delta_t=0.01,
                             psi_sup=0.0)
        with pytest.raises(ValueError):
            wt.CarlemanParams(s=1.0, lam=0.0, alpha=10.0, T=1.0, delta_t=0.01,
                             psi_sup=0.0)
        with pytest.raises(ValueError):
            wt.CarlemanParams(s=1.0, lam=1.0, alpha=10.0, T=1.0, delta_t=2.0,
                             psi_sup=0.0)
        with pytest.raises(ValueError):
            wt.CarlemanParams(
                s=1.0, lam=1.0, alpha=1.0, T=1.0, delta_t=0.01, psi_sup=3.0
            )

    def test_overflowing_factors_name_their_parameter(self):
        # e^{lam psi_sup} = e^{400} is finite, but P1 squares it; at
        # lam = 234 the norm's (e^{lam psi_sup} tau)^3 overflows at the
        # clamp, tau = 1 / (delta_t (2 T - delta_t)) = 32.25
        for psi_sup, s, lam, name in ((1.0, 1.0, 800.0, "lambda"),
                                      (1.0, 1.0, 400.0, "lambda"),
                                      (1.0, 1.0, 234.0, "lambda"),
                                      (1.0, 1e200, 1.0, "s")):
            with pytest.raises(wt.ParamsOverflow) as caught:
                wt.params_from_sup(psi_sup, s, lam, 1.0)
            assert caught.value.name == name, (psi_sup, s, lam)
        with pytest.raises(wt.ParamsOverflow) as caught:
            wt.params_from_sup(1.0, 1.0, 1.0, 1.0, delta_t=1e-120)
        assert caught.value.name == "delta_t"
        params = wt.params_from_sup(1.0, 1.0, 233.0, 1.0)
        assert np.isfinite(np.exp(params.lam * params.psi_sup) ** 2)

    def test_partner_shares_alpha(self):
        w2 = wt.build_weight(unit_disk_layout(), (0.3, 0.0), 2.0, 1.0)
        p_solo = wt.params_from_sup(wt.psi_grid_max((self.w,)), s=1.0, lam=1.0, T=1.0)
        p_pair = wt.params_from_sup(
            wt.psi_grid_max((self.w, w2)), s=1.0, lam=1.0, T=1.0
        )
        q_pair = wt.params_from_sup(
            wt.psi_grid_max((w2, self.w)), s=1.0, lam=1.0, T=1.0
        )
        assert p_pair.alpha == pytest.approx(q_pair.alpha, rel=1e-12)
        assert p_pair.alpha >= p_solo.alpha


class TestVerifyHypotheses:
    def test_disk_certificate_passes_with_predicted_margins(self):
        w = wt.build_weight(unit_disk_layout(), (0.0, 0.0), 2.0, 1.0, M2=1.0)
        report = wt.verify_hypotheses(w)
        assert report.all_ok
        assert report.records["strong_convexity"].margin == pytest.approx(1.0, abs=1e-9)
        # transmission residuals are exact zeros on the disk
        assert report.records["Tr"].margin == pytest.approx(1e-8, abs=1e-12)
        assert report.records["H1"].margin == pytest.approx(1e-8, abs=1e-12)
        # one-sided slope sum is 2 (a2 - a1) / R = -2, margin = +2
        assert report.records["H2"].margin == pytest.approx(2.0, abs=1e-9)
        # |grad psi| bottoms out at the cutoff radius: 2 a2 r_outer / R^2 = 0.5
        assert 0.5 - 1e-12 <= report.records["H3"].margin <= 0.62
        # min eig of 2 a^2 D^2 psi: min(4 a2^2 a1, 4 a1^2 a2) / R^2 = 8
        assert report.records["H4"].margin == pytest.approx(8.0, abs=1e-9)

    def test_wrong_way_jump_fails_h2_with_predicted_margin(self):
        w = wt.build_weight(
            unit_disk_layout(), (0.0, 0.0), 1.0, 2.0, M2=1.5,
            enforce_jump_sign=False,
        )
        report = wt.verify_hypotheses(w)
        assert not report.all_ok
        assert not report.records["H2"].ok
        assert report.records["H2"].margin == pytest.approx(-2.0, abs=1e-9)
        # the interior conditions and the transmission matching still hold
        assert report.records["Tr"].ok
        assert report.records["H1"].ok
        assert report.records["H3"].ok
        assert report.records["H4"].ok

    def test_oval_offset_center_passes(self):
        w = wt.build_weight(oval_layout(0.08, 0.03), (0.1, -0.05), 2.0, 1.0)
        report = wt.verify_hypotheses(w)
        assert report.all_ok
        for rec in report.records.values():
            assert rec.margin > 0.0

    def test_worst_points_and_serialization(self):
        w = wt.build_weight(unit_disk_layout(), (0.0, 0.0), 2.0, 1.0)
        report = wt.verify_hypotheses(w)
        d = report.as_dict()
        assert d["all_ok"] is True
        assert set(d["records"]) == {
            "strong_convexity", "Tr", "H1", "H2", "H3", "H4"
        }
        for name in ("Tr", "H1", "H2"):
            x, y = d["records"][name]["worst_point"]
            assert np.hypot(x, y) == pytest.approx(1.0, abs=1e-9)
        # H3 bottoms out right outside the cutoff ball
        x, y = d["records"]["H3"]["worst_point"]
        assert 0.25 <= np.hypot(x, y) <= 0.32

    @pytest.mark.parametrize("n", [64, 2048])
    def test_fixed_scan_sizes(self, monkeypatch, n):
        # 512 interface angles for both branches at once, whatever the
        # sample count, and the 128 x 128 scan outside the cutoff ball
        layout = unit_disk_layout(n=n)
        w = wt.build_weight(layout, (0.1, -0.2), 2.0, 1.0)
        gauged = count_gauge_data(monkeypatch)
        assert wt.verify_hypotheses(w).all_ok
        xs = np.linspace(-2.0, 2.0, 128)
        gx, gy = np.meshgrid(xs, xs)
        outside = np.hypot(gx - 0.1, gy + 0.2) >= w.cutoff.r_outer
        assert gauged == [(1, (512,)), (2, (int(outside.sum()),))]

    def test_scan_points_are_classified_once(self, monkeypatch):
        # grad, Hessian and coefficient of the interior scan share one
        # set of labels
        w = wt.build_weight(oval_layout(0.08, 0.03), (0.1, -0.05), 2.0, 1.0)
        calls = count_classify(monkeypatch)
        assert wt.verify_hypotheses(w).all_ok
        assert len(calls) == 1


class TestOneEvaluationPerPointSet:
    def test_weight_on_grid_gauges_and_classifies_once(self, monkeypatch):
        layout = oval_layout()
        w = wt.build_weight(layout, (0.15, -0.1), 2.0, 1.0)
        on_grid = cc.WeightOnGrid(w, pde.Grid2D.from_layout(layout, 17))
        gauged = count_gauge_data(monkeypatch)
        classified = count_classify(monkeypatch)
        assert on_grid.psi.shape == (17 * 17,)
        assert on_grid.grad.shape == (17 * 17, 2)
        assert on_grid.laplacian.shape == (17 * 17,)
        assert gauged == [(2, (17 * 17,))]
        assert len(classified) == 1

    def test_verify_hypotheses_gauges_each_point_set_once(self, monkeypatch):
        # the interface samples (both branches) and the interior scan
        w = wt.build_weight(oval_layout(0.08, 0.03), (0.1, -0.05), 2.0, 1.0)
        gauged = count_gauge_data(monkeypatch)
        assert wt.verify_hypotheses(w).all_ok
        assert [order for order, _ in gauged] == [1, 2]


class TestEpsilonPair:
    def test_each_h5_ball_is_classified_once(self, monkeypatch):
        # both weights of the pair read one set of labels per ball
        calls = count_classify(monkeypatch)
        pair = wt.build_epsilon_pair(
            oval_layout(0.08, 0.03), (-0.3, 0.0), (0.3, 0.1), 2.0, 1.0
        )
        assert pair.h5_margin_1 > 0.0 and pair.h5_margin_2 > 0.0
        assert len(calls) == 2

    def test_disk_pair_frozen_value(self):
        pair = wt.build_epsilon_pair(
            unit_disk_layout(), (-0.3, 0.0), (0.3, 0.0), 2.0, 1.0
        )
        assert pair.d == pytest.approx(0.3, abs=1e-12)
        assert pair.alpha1 == pytest.approx(0.7, abs=1e-10)
        assert pair.alpha2 == pytest.approx(0.7, abs=1e-10)
        assert pair.D1 == pytest.approx(1.3, abs=1e-10)
        assert pair.D2 == pytest.approx(1.3, abs=1e-10)
        expect = 0.9 * 0.3 * 0.7 / 1.3
        assert pair.eps == pytest.approx(expect, abs=1e-10)
        assert pair.w1.cutoff.r_outer == pytest.approx(pair.eps)
        assert pair.w1.cutoff.r_inner == pytest.approx(0.5 * pair.eps)
        assert pair.h5_margin_1 > 0.0 and pair.h5_margin_2 > 0.0
        # mirror symmetry of the configuration
        assert pair.h5_margin_1 == pytest.approx(pair.h5_margin_2, abs=1e-9)

    def test_asymmetric_pair_matches_formula(self):
        # independent oracle: distances to a unit circle are 1 -+ |p|
        x1 = np.array([-0.35, 0.1])
        x2 = np.array([0.2, -0.15])
        d = 0.5 * np.linalg.norm(x1 - x2)
        a1_, D1 = 1.0 - np.linalg.norm(x1), 1.0 + np.linalg.norm(x1)
        a2_, D2 = 1.0 - np.linalg.norm(x2), 1.0 + np.linalg.norm(x2)
        expect = 0.9 * min(d * a1_ / D2, d * a2_ / D1, d)
        pair = wt.build_epsilon_pair(unit_disk_layout(), x1, x2, 2.0, 1.0)
        assert pair.eps == pytest.approx(expect, abs=1e-10)

    def test_h5_domination_holds_on_balls(self):
        pair = wt.build_epsilon_pair(
            unit_disk_layout(), (-0.3, 0.0), (0.3, 0.0), 2.0, 1.0
        )
        # independent dense scan of psi^2 - psi^1 over the ball at x1
        rng = np.random.default_rng(5)
        offs = rng.uniform(-1.0, 1.0, size=(4000, 2)) * pair.eps
        offs = offs[np.hypot(offs[:, 0], offs[:, 1]) <= pair.eps]
        ball1 = np.array([-0.3, 0.0]) + offs
        diff = pair.w2.psi(ball1) - pair.w1.psi(ball1)
        assert np.min(diff) > 0.0
        assert np.min(diff) >= pair.h5_margin_1 - 0.05 * pair.h5_margin_1

    def test_degenerate_centers(self):
        with pytest.raises(wt.DegeneratePair):
            wt.build_epsilon_pair(
                unit_disk_layout(), (0.1, 0.0), (0.1, 0.0), 2.0, 1.0
            )
        assert issubclass(wt.DegeneratePair, geo.GeometryError)

    def test_interface_center_is_inside(self):
        # the gauge is singular at the interface center, but the center is
        # inside: the pair accepts it there, as build_weight does
        layout = geo.DomainLayout(geo.RectangularDomain(-1.0, 1.0, -1.0, 1.0),
                                  geo.disk_interface(0.5, n=256))
        pair = wt.build_epsilon_pair(layout, (0.0, 0.0), (0.3, 0.0), 2.0, 1.0)
        assert pair.eps > 0.0
        assert pair.h5_margin_1 > 0.0 and pair.h5_margin_2 > 0.0
        wt.build_weight(layout, (0.0, 0.0), 2.0, 1.0)

    def test_centers_must_be_inside(self):
        with pytest.raises(geo.GeometryError):
            wt.build_epsilon_pair(
                unit_disk_layout(), (1.5, 0.0), (0.3, 0.0), 2.0, 1.0
            )

    @settings(max_examples=30, deadline=None)
    @given(
        oval=st.booleans(),
        polar=st.tuples(*[st.floats(0.0, 0.9), st.floats(0.0, 2.0 * np.pi)] * 2),
    )
    def test_separation_balls_fit_with_a_factor_two(self, oval, polar):
        # D2 >= 2 d + alpha1 (the curve lies beyond x1 on the ray from x2),
        # so d alpha1 / D2 < alpha1 / 2, and likewise for alpha2
        layout = oval_layout(0.08, 0.03) if oval else unit_disk_layout()
        f1, t1, f2, t2 = polar
        x1, x2 = (layout.interface.point(t) * f for f, t in ((f1, t1), (f2, t2)))
        assume(np.hypot(*(x1 - x2)) >= 0.01)
        pair = wt.build_epsilon_pair(layout, x1, x2, 2.0, 1.0)
        assert pair.eps < 0.5 * min(pair.alpha1, pair.alpha2)


def sigma_on_grid(weight, layout, nx):
    """The Sigma_+ data of weight on the grid the Carleman check uses:
    (mask over the boundary nodes, psi there, the nodes, their normals)."""
    grid = pde.Grid2D.from_layout(layout, nx)
    mask, psi_plus = cc.WeightOnGrid(weight, grid).sigma
    return mask, psi_plus, grid.boundary_points, grid.boundary_normals


class TestSigmaPlus:
    def test_centered_disk_whole_boundary(self):
        layout = unit_disk_layout()
        w = wt.build_weight(layout, (0.0, 0.0), 2.0, 1.0)
        mask, psi_plus, pts, _ = sigma_on_grid(w, layout, 65)
        assert mask.all()
        # psi on Sigma_+ is the weight's psi at those boundary nodes
        assert np.array_equal(psi_plus, w.psi(pts))

    def test_elongated_interface_gives_strict_subset(self):
        # oval stretched along y with the center pushed toward the top:
        # the gauge level-set normals tilt far enough that part of the
        # bottom edge drops out of the observed set
        th = geo.TWO_PI * np.arange(256) / 256
        iface = geo.build_radial_interface(
            np.column_stack([th, 1.0 - 0.15 * np.cos(2 * th)])
        )
        layout = geo.DomainLayout(
            geo.RectangularDomain(-2.4, 2.4, -1.3, 1.3), iface
        )
        w = wt.build_weight(layout, (0.0, 0.75), 2.0, 1.0)
        mask, psi_plus, pts, _ = sigma_on_grid(w, layout, 193)
        assert mask.any() and not mask.all()
        assert mask.sum() > 0.9 * mask.size
        assert np.array_equal(psi_plus, w.psi(pts[mask]))

    def test_mask_matches_directional_difference_quotient(self):
        th = geo.TWO_PI * np.arange(256) / 256
        iface = geo.build_radial_interface(
            np.column_stack([th, 1.0 - 0.15 * np.cos(2 * th)])
        )
        layout = geo.DomainLayout(
            geo.RectangularDomain(-2.4, 2.4, -1.3, 1.3), iface
        )
        w = wt.build_weight(layout, (0.0, 0.75), 2.0, 1.0)
        mask, _, pts, nrm = sigma_on_grid(w, layout, 97)
        h = 1e-7
        slope = (w.psi(pts + h * nrm) - w.psi(pts - h * nrm)) / (2 * h)
        clear = np.abs(slope) > 1e-4  # skip near-tangency sign flips
        assert np.array_equal(mask[clear], slope[clear] > 0.0)


@settings(max_examples=25, deadline=None)
@given(
    c2=st.floats(0.0, 0.1),
    c3=st.floats(0.0, 0.05),
    a1=st.floats(1.1, 5.0),
    gap=st.floats(0.1, 1.0),
    m2=st.floats(0.1, 3.0),
    cx=st.floats(-0.25, 0.25),
    cy=st.floats(-0.25, 0.25),
)
def test_interface_value_constant_property(c2, c3, a1, gap, m2, cx, cy):
    """Both branches equal a2 + M1 on the interface for any admissible setup."""
    a2 = a1 - gap
    iface = oval_interface(c2, c3, n=128)
    layout = geo.DomainLayout(geo.RectangularDomain(-2, 2, -2, 2), iface)
    w = wt.build_weight(layout, (cx, cy), a1, a2, M2=m2)
    th = np.linspace(0.0, geo.TWO_PI, 64, endpoint=False)
    pts = iface.point(th)
    for side in (1, 2):
        vals = w.jet(pts, side).psi
        assert np.max(np.abs(vals - (a2 + w.M1))) < 1e-6


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(0.1, 3.0),
    t=st.floats(-0.85, 0.85),
    px=st.floats(-1.5, 1.5),
    py=st.floats(-1.5, 1.5),
)
def test_time_weight_identities_property(lam, t, px, py):
    w = wt.build_weight(unit_disk_layout(), (0.0, 0.0), 2.0, 1.0)
    params = wt.params_from_sup(
        wt.psi_grid_max((w,)), s=1.0, lam=lam, T=1.0, delta_t=0.1
    )
    pts = np.array([[px, py]])
    theta = np.exp(params.lam * w.psi(pts)) * wt._time_factor(params, t)
    phi = oracles.eval_phi(w, params, pts, t)
    assert theta[0] > 0.0 and phi[0] > 0.0
    # theta + phi = alpha / ((T - t)(T + t)) pointwise
    total = (theta + phi) * (1.0 - t * t)
    assert total[0] == pytest.approx(params.alpha, rel=1e-10)


if __name__ == "__main__":
    pytest.main(["--capture=no", __file__])
