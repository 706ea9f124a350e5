import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman_lab import geometry as geo
from carleman_lab import pde_solver as pde

import oracles


def oval_rho(theta, c2=0.1, c3=0.0):
    return 1.0 + c2 * np.cos(2 * theta) + c3 * np.cos(3 * theta)


def oval_interface(n=512, c2=0.1, c3=0.0, center=(0.0, 0.0)):
    ang = 2.0 * np.pi * np.arange(n) / n
    return geo.build_radial_interface(
        np.column_stack((ang, oval_rho(ang, c2, c3))), center=center
    )


def parametric_curvature_fd(rho_fn, theta, h=1e-5):
    """Curvature of theta -> rho(theta)(cos, sin) by central differences.

    Independent of the polar curvature formula under test: uses the
    parametric formula kappa = (x'y'' - y'x'') / (x'^2 + y'^2)^(3/2).
    """

    def gamma(t):
        r = rho_fn(t)
        return np.stack((r * np.cos(t), r * np.sin(t)), axis=-1)

    d1 = (gamma(theta + h) - gamma(theta - h)) / (2 * h)
    d2 = (gamma(theta + h) - 2 * gamma(theta) + gamma(theta - h)) / (h * h)
    num = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    return num / np.power(d1[..., 0] ** 2 + d1[..., 1] ** 2, 1.5)


class TestCurvature:
    def test_disk_exact(self):
        for radius in (0.5, 1.0, 2.0):
            iface = geo.disk_interface(radius, n=64)
            thetas = np.linspace(0, 2 * np.pi, 97)
            np.testing.assert_allclose(
                geo.curvature(iface, thetas), 1.0 / radius, atol=1e-10
            )

    def test_matches_parametric_fd_oracle(self):
        iface = oval_interface(n=512, c2=0.1, c3=0.03)
        thetas = np.linspace(0.1, 2 * np.pi, 37)
        got = geo.curvature(iface, thetas)
        want = parametric_curvature_fd(lambda t: oval_rho(t, 0.1, 0.03), thetas)
        np.testing.assert_allclose(got, want, rtol=2e-4, atol=2e-4)

    def test_certificate_positive_for_mild_oval(self):
        kmin, ok = geo.certify_strong_convexity(oval_interface(n=256))
        assert ok and kmin > 0
        # independent dense parametric check
        dense = np.linspace(0, 2 * np.pi, 20000)
        assert np.min(parametric_curvature_fd(oval_rho, dense)) > 0

    def test_certificate_fails_for_wavy_curve(self):
        ang = 2 * np.pi * np.arange(256) / 256
        iface = geo.build_radial_interface(
            np.column_stack((ang, 1.0 + 0.3 * np.cos(4 * ang)))
        )
        kmin, ok = geo.certify_strong_convexity(iface)
        assert not ok and kmin < 0

    @pytest.mark.parametrize("n, n_scan", [(256, 4096), (2048, 8192)])
    def test_scan_resolution_rule(self, monkeypatch, n, n_scan):
        # max(4096, 4 n) angles: at least four per sample
        scanned = []
        curvature = geo.curvature

        def counted(interface, theta):
            scanned.append(np.size(theta))
            return curvature(interface, theta)

        monkeypatch.setattr(geo, "curvature", counted)
        _, ok = geo.certify_strong_convexity(oval_interface(n=n))
        assert ok
        assert scanned == [n_scan]


class TestBuilder:
    def test_too_few_samples(self):
        ang = 2 * np.pi * np.arange(8) / 8
        with pytest.raises(geo.InvalidInterface):
            geo.build_radial_interface(np.column_stack((ang, np.ones(8))))

    def test_nonuniform_angles(self):
        ang = np.sort(np.random.default_rng(0).uniform(0, 2 * np.pi, 32))
        with pytest.raises(geo.InvalidInterface):
            geo.build_radial_interface(np.column_stack((ang, np.ones(32))))

    def test_nonpositive_radius(self):
        ang = 2 * np.pi * np.arange(32) / 32
        radii = np.ones(32)
        radii[3] = -0.1
        with pytest.raises(geo.InvalidInterface):
            geo.build_radial_interface(np.column_stack((ang, radii)))

    def test_even_symmetry_gives_flat_derivative_at_zero(self):
        iface = oval_interface(n=128)
        assert abs(float(iface.rho_d1(0.0))) < 1e-10

    def test_interpolates_samples(self):
        iface = oval_interface(n=64)
        np.testing.assert_allclose(
            iface.rho(iface.angles), iface.rho_samples, atol=1e-13
        )

    def test_periodic_wrap(self):
        iface = oval_interface(n=64)
        t = 1.234
        np.testing.assert_allclose(
            iface.rho(t), iface.rho(t + 2 * np.pi), atol=1e-12
        )


class TestGauge:
    def test_disk_values(self):
        iface = geo.disk_interface(2.0, n=32)
        pts = np.array([[1.0, 0.0], [0.0, 2.0], [1.2, -0.7]])
        want = np.hypot(pts[:, 0], pts[:, 1]) / 2.0
        np.testing.assert_allclose(geo.gauge(iface, pts), want, atol=1e-12)

    def test_on_curve_equals_one(self):
        iface = oval_interface(n=256)
        thetas = np.linspace(0, 2 * np.pi, 50)
        np.testing.assert_allclose(
            geo.gauge(iface, iface.point(thetas)), 1.0, atol=1e-12
        )

    def test_center_is_singular(self):
        iface = geo.disk_interface(1.0, n=32)
        with pytest.raises(geo.GaugeSingular):
            geo.gauge(iface, np.zeros(2))

    @settings(max_examples=50, deadline=None)
    @given(
        t=st.floats(min_value=0.01, max_value=50.0),
        ang=st.floats(min_value=0.0, max_value=6.28),
        rad=st.floats(min_value=0.05, max_value=3.0),
    )
    def test_positive_homogeneity(self, t, ang, rad):
        iface = oval_interface(n=64)
        x = np.array([rad * np.cos(ang), rad * np.sin(ang)])
        mu1 = geo.gauge(iface, x)
        mu2 = geo.gauge(iface, t * x)
        assert np.isclose(mu2, t * mu1, rtol=1e-9)


class TestGaugeHessian:
    def test_disk_is_scaled_identity(self):
        iface = geo.disk_interface(2.0, n=32)
        pts = np.array([[0.7, 0.1], [-1.5, 2.2], [0.0, 0.4]])
        h = oracles.gauge_hessian(iface, pts)
        want = np.broadcast_to(0.5 * np.eye(2), (3, 2, 2))
        np.testing.assert_allclose(h, want, atol=1e-10)

    def test_matches_fd_oracle(self):
        iface = oval_interface(n=512, c2=0.1, c3=0.02)
        step = 1e-4

        def mu2(p):
            return geo.gauge(iface, p) ** 2

        rng = np.random.default_rng(3)
        for _ in range(12):
            ang = rng.uniform(0, 2 * np.pi)
            rad = rng.uniform(0.3, 2.0)
            x = np.array([rad * np.cos(ang), rad * np.sin(ang)])
            ex, ey = np.array([step, 0.0]), np.array([0.0, step])
            fd = np.empty((2, 2))
            fd[0, 0] = (mu2(x + ex) - 2 * mu2(x) + mu2(x - ex)) / step**2
            fd[1, 1] = (mu2(x + ey) - 2 * mu2(x) + mu2(x - ey)) / step**2
            fd[0, 1] = fd[1, 0] = (
                mu2(x + ex + ey) - mu2(x + ex - ey) - mu2(x - ex + ey) + mu2(x - ex - ey)
            ) / (4 * step**2)
            np.testing.assert_allclose(oracles.gauge_hessian(iface, x), fd, atol=1e-5)

    def test_radius_independence(self):
        iface = oval_interface(n=256)
        ang = 0.83
        u = np.array([np.cos(ang), np.sin(ang)])
        h1 = oracles.gauge_hessian(iface, 0.2 * u)
        h2 = oracles.gauge_hessian(iface, 5.0 * u)
        np.testing.assert_allclose(h1, h2, atol=1e-12)

    def test_eigenvalues_match_trace_determinant_formula(self):
        # closed-form eigenvalues from the polar data: with
        # d = (3 rho'^2 - rho rho'' + 2 rho^2)/rho^2 (trace, in units of 2/rho^2)
        # m = (2 rho'^2 - rho rho'' + rho^2)/rho^2 (determinant, same units)
        # the Hessian eigenvalues are (2/rho^2) * {m/r2, r2}, r2 = (d + sqrt(d^2-4m))/2
        iface = oval_interface(n=512, c2=0.1)
        for ang in (0.0, 0.4, 1.1, 2.9, 4.2):
            rho = float(iface.rho(ang))
            d1 = float(iface.rho_d1(ang))
            d2 = float(iface.rho_d2(ang))
            d = (3 * d1**2 - rho * d2 + 2 * rho**2) / rho**2
            m = (2 * d1**2 - rho * d2 + rho**2) / rho**2
            r2 = 0.5 * (d + np.sqrt(d * d - 4 * m))
            want = np.sort(2.0 / rho**2 * np.array([m / r2, r2]))
            x = np.array([1.3 * np.cos(ang), 1.3 * np.sin(ang)])
            got = np.linalg.eigvalsh(oracles.gauge_hessian(iface, x))
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)

    def test_determinant_proportional_to_curvature(self):
        # det D^2(mu^2) = (4/rho^4) * (rho^2+rho'^2)^(3/2) * kappa / rho^2 ... > 0
        # for a strongly convex curve, so positivity of the certificate and
        # the Hessian scan agree in sign.
        iface = oval_interface(n=256)
        thetas = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        pts = iface.point(thetas) * 0.77 + iface.center * 0.23
        h = oracles.gauge_hessian(iface, pts)
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] ** 2
        assert np.all(det > 0)
        assert geo.certify_strong_convexity(iface)[1]


class TestEigenHelper:
    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(-10, 10),
        b=st.floats(-10, 10),
        d=st.floats(-10, 10),
    )
    def test_matches_eigvalsh(self, a, b, d):
        m = np.array([[a, b], [b, d]])
        got = geo.smallest_eigenvalue_2x2(m)
        want = np.linalg.eigvalsh(m)[0]
        assert np.isclose(got, want, rtol=1e-10, atol=1e-10)


class TestDistanceExtrema:
    def test_circle_analytic(self):
        iface = geo.disk_interface(1.0, n=64)
        for p in ([0.3, 0.0], [-0.3, 0.0], [0.1, -0.2]):
            dmin, dmax = geo.distance_extrema(iface, p)
            r = np.hypot(*p)
            np.testing.assert_allclose(dmin, 1.0 - r, atol=1e-11)
            np.testing.assert_allclose(dmax, 1.0 + r, atol=1e-11)

    def test_center_of_disk(self):
        iface = geo.disk_interface(2.0, n=32)
        dmin, dmax = geo.distance_extrema(iface, [0.0, 0.0])
        np.testing.assert_allclose([dmin, dmax], [2.0, 2.0], atol=1e-11)


class TestCrossings:
    def test_horizontal_lines_cross_unit_disk(self):
        iface = geo.disk_interface(1.0, n=64)
        y = np.linspace(-0.99, 0.99, 45)
        x0 = 0.9 * np.sqrt(1.0 - y**2) * np.cos(7.0 * y)  # inside the disk
        r = geo._crossings(iface, np.stack((x0, y), axis=-1), (1.0, 0.0), 3.0)
        np.testing.assert_allclose(r, np.sqrt(1.0 - y**2) - x0, rtol=0, atol=1e-14)

    def test_nan_exactly_where_the_reach_brackets_no_crossing(self):
        iface = geo.disk_interface(1.0, n=64)
        origins = np.array([
            [0.0, 0.5],    # crosses
            [0.0, 1.5],    # misses the disk
            [-2.0, 0.0],   # enters and leaves: same sign at both ends
            [0.2, -0.3],   # crosses
            [-0.5, 0.0],   # reach ends inside the disk
            [-1.0, 0.0],   # starts on the curve
            [0.9, 0.0],    # crosses
        ])
        r = geo._crossings(iface, origins, (1.0, 0.0), np.array(
            [3.0, 3.0, 3.0, 3.0, 0.5, 3.0, 3.0]))
        brackets = np.array([True, False, False, True, False, False, True])
        np.testing.assert_array_equal(np.isnan(r), ~brackets)
        x0, y = origins[brackets].T
        np.testing.assert_allclose(r[brackets], np.sqrt(1.0 - y**2) - x0,
                                   rtol=0, atol=1e-14)


class TestResample:
    def test_circle_about_offset_center(self):
        iface = geo.disk_interface(1.0, n=64)
        p = np.array([0.3, 0.0])
        res = geo.resample_from_center(iface, p)
        # exact radial function of the unit circle about p
        ang = res.angles
        u = np.stack((np.cos(ang), np.sin(ang)), axis=-1)
        pu = u @ p
        want = -pu + np.sqrt(pu**2 + 1.0 - p @ p)
        np.testing.assert_allclose(res.rho_samples, want, atol=1e-11)
        # resampled points stay on the original circle
        pts = res.point(np.linspace(0, 2 * np.pi, 300))
        np.testing.assert_allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.0, atol=1e-7)

    def test_identity_when_center_unchanged(self):
        iface = oval_interface(n=256)
        assert geo.resample_from_center(iface, (0.0, 0.0)) is iface

    def test_oval_resample_stays_on_curve(self):
        iface = oval_interface(n=256, c2=0.1, c3=0.02)
        res = geo.resample_from_center(iface, (0.25, -0.1))
        thetas = np.linspace(0, 2 * np.pi, 500)
        pts = res.point(thetas)
        # implicit check: gauge of the original interface is 1 on the curve
        np.testing.assert_allclose(geo.gauge(iface, pts), 1.0, atol=1e-6)

    def test_center_outside_rejected(self):
        iface = geo.disk_interface(1.0, n=64)
        with pytest.raises(geo.GeometryError):
            geo.resample_from_center(iface, (1.5, 0.0))


class TestLayout:
    def test_classify_regions(self):
        layout = geo.DomainLayout(
            geo.RectangularDomain(-2, 2, -2, 2), geo.disk_interface(1.0, n=32)
        )
        pts = np.array([[0.2, 0.1], [1.5, 0.0], [0.0, 0.999], [0.0, 1.001]])
        out = layout.classify(pts)
        assert list(out) == [geo.OMEGA1, geo.OMEGA2, geo.OMEGA1, geo.OMEGA2]

    def test_strict_containment_required(self):
        with pytest.raises(geo.GeometryError):
            geo.DomainLayout(
                geo.RectangularDomain(-1, 1, -1, 1), geo.disk_interface(1.0, n=32)
            )
        with pytest.raises(geo.GeometryError):
            geo.DomainLayout(
                geo.RectangularDomain(-3, 3, -1.05, 1.05),
                geo.disk_interface(1.1, n=32),
            )

    def test_clearance_value(self):
        layout = geo.DomainLayout(
            geo.RectangularDomain(-3, 3, -2.5, 3), geo.disk_interface(1.0, n=32)
        )
        np.testing.assert_allclose(layout.clearance, 1.5, atol=1e-9)

    def test_rect_boundary_samples(self):
        # the grid's boundary nodes, the rectangle's boundary samples, have
        # zero clearance and the interior nodes positive clearance
        layout = geo.DomainLayout(
            geo.RectangularDomain(-1.0, 1.0, -0.5, 0.5), geo.disk_interface(0.3, n=32)
        )
        grid = pde.Grid2D.from_layout(layout, 41)
        clear = layout.outer.boundary_clearance(grid.points.reshape(-1, 2))
        np.testing.assert_allclose(clear[grid.boundary_ids], 0.0, atol=1e-12)
        assert np.all(clear[grid.interior_ids] > 0.0)


if __name__ == "__main__":
    pytest.main(["--capture=no", __file__])
