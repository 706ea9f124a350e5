"""Star-shaped interface geometry.

The inner subdomain is bounded by a closed curve given in polar form
rho(theta) about a center point.  A periodic cubic spline through uniform
angular samples represents the curve; curvature, the gauge function
mu(x) = |x - center| / rho(x), and the Hessian of mu^2 are all evaluated
from the spline and its first two derivatives.  Strong convexity is
certified by a dense scan of the polar curvature

    kappa = (rho^2 + 2 rho'^2 - rho rho'') / (rho^2 + rho'^2)^(3/2).

The outer domain is a rectangle; DomainLayout ties it to the interface
and classifies points into the inner or the outer region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar
from scipy.optimize.elementwise import find_root

TWO_PI = 2.0 * np.pi

# region labels used by DomainLayout.classify
OMEGA1 = 1
OMEGA2 = 2

_CENTER_EPS = 1e-12


class GeometryError(Exception):
    """Requested construction does not fit the domain geometry."""


class InvalidInterface(GeometryError):
    """Interface samples violate the radial-curve preconditions."""


class GaugeSingular(GeometryError):
    """Gauge evaluation at (or numerically on top of) the center."""


@dataclass(frozen=True)
class RadialInterface:
    """Closed star-shaped curve rho(theta) about ``center``.

    ``spline`` interpolates the uniform samples periodically; ``d1`` and
    ``d2`` are its first and second derivative splines.  All three wrap
    angles automatically, so callers never reduce theta mod 2*pi.
    """

    center: np.ndarray
    angles: np.ndarray
    rho_samples: np.ndarray
    spline: CubicSpline = field(repr=False, compare=False)
    d1: object = field(repr=False, compare=False)
    d2: object = field(repr=False, compare=False)

    @property
    def n_samples(self) -> int:
        return self.rho_samples.size

    def rho(self, theta):
        return self.spline(theta)

    def rho_d1(self, theta):
        return self.d1(theta)

    def rho_d2(self, theta):
        return self.d2(theta)

    def point(self, theta):
        """Curve point(s) at angle theta, shape (..., 2)."""
        theta = np.asarray(theta, dtype=float)
        r = self.spline(theta)
        return self.center + np.stack(
            (r * np.cos(theta), r * np.sin(theta)), axis=-1
        )

    def outward_normal(self, theta):
        """Unit normal pointing out of the inner region, shape (..., 2)."""
        theta = np.asarray(theta, dtype=float)
        r = self.spline(theta)
        dr = self.d1(theta)
        ct, st = np.cos(theta), np.sin(theta)
        # tangent of the counterclockwise parametrization, rotated by -pi/2
        tx = dr * ct - r * st
        ty = dr * st + r * ct
        n = np.stack((ty, -tx), axis=-1)
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    def min_radius(self) -> float:
        thetas = np.linspace(0.0, TWO_PI, 8 * self.n_samples, endpoint=False)
        return float(np.min(self.spline(thetas)))


def build_radial_interface(samples, center=(0.0, 0.0)) -> RadialInterface:
    """Build the periodic spline through uniform (angle, radius) samples.

    Requires at least 16 samples at angles 2*pi*k/n, all radii positive.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidInterface("samples must be a sequence of (angle, radius) pairs")
    n = arr.shape[0]
    if n < 16:
        raise InvalidInterface(f"need at least 16 samples, got {n}")
    angles = arr[:, 0]
    radii = arr[:, 1]
    if np.any(~np.isfinite(radii)) or np.any(radii <= 0.0):
        raise InvalidInterface("all radii must be finite and positive")
    expected = TWO_PI * np.arange(n) / n
    if np.max(np.abs(angles - expected)) > 1e-9:
        raise InvalidInterface("angles must be uniform on [0, 2*pi) starting at 0")
    th = np.append(expected, TWO_PI)
    rh = np.append(radii, radii[0])
    spline = CubicSpline(th, rh, bc_type="periodic", extrapolate="periodic")
    return RadialInterface(
        center=np.asarray(center, dtype=float),
        angles=expected,
        rho_samples=radii.copy(),
        spline=spline,
        d1=spline.derivative(1),
        d2=spline.derivative(2),
    )


def disk_interface(radius: float, center=(0.0, 0.0), n: int = 64) -> RadialInterface:
    if radius <= 0.0:
        raise InvalidInterface("disk radius must be positive")
    angles = TWO_PI * np.arange(n) / n
    return build_radial_interface(
        np.column_stack((angles, np.full(n, float(radius)))), center=center
    )


def fourier_interface(
    c0: float,
    harmonics: Sequence[tuple[int, float]] = (),
    center=(0.0, 0.0),
    n: int = 256,
) -> RadialInterface:
    """rho(theta) = c0 + sum_k c_k cos(k theta)."""
    angles = TWO_PI * np.arange(n) / n
    radii = np.full(n, float(c0))
    for k, ck in harmonics:
        radii = radii + float(ck) * np.cos(int(k) * angles)
    if np.any(radii <= 0.0):
        raise InvalidInterface("fourier radii must stay positive")
    return build_radial_interface(np.column_stack((angles, radii)), center=center)


def curvature(interface: RadialInterface, theta):
    """Signed curvature of the polar curve at angle(s) theta."""
    theta = np.asarray(theta, dtype=float)
    r = interface.rho(theta)
    d1 = interface.rho_d1(theta)
    d2 = interface.rho_d2(theta)
    return (r * r + 2.0 * d1 * d1 - r * d2) / np.power(r * r + d1 * d1, 1.5)


def certify_strong_convexity(interface: RadialInterface) -> tuple[float, bool]:
    """Scan curvature at max(4096, 4 n_samples) uniform angles; the curve
    is strongly convex iff the min is positive."""
    n_scan = max(4096, 4 * interface.n_samples)
    thetas = np.linspace(0.0, TWO_PI, n_scan, endpoint=False)
    kmin = float(np.min(curvature(interface, thetas)))
    return kmin, kmin > 0.0


def _polar_hessian_entries(rho, d1, d2):
    """Entries of the mu^2 Hessian in the (radial, tangential) frame.

    Degree-0 homogeneous in the radius, so they depend on theta only:
        H = (2/rho^2) [[1, -rho'/rho], [-rho'/rho, (3rho'^2 - rho rho'' + rho^2)/rho^2]]
    """
    base = 2.0 / (rho * rho)
    h11 = base
    h12 = base * (-d1 / rho)
    h22 = base * (3.0 * d1 * d1 - rho * d2 + rho * rho) / (rho * rho)
    return h11, h12, h22


def _polar_to_cartesian(c, s, h11, h12, h22):
    """Rotate (radial, tangential) Hessian entries into the Cartesian frame;
    (c, s) is the unit radial direction.  Shape (..., 2, 2)."""
    out = np.empty(np.shape(c) + (2, 2))
    out[..., 0, 0] = c * c * h11 - 2.0 * c * s * h12 + s * s * h22
    out[..., 0, 1] = c * s * (h11 - h22) + (c * c - s * s) * h12
    out[..., 1, 0] = out[..., 0, 1]
    out[..., 1, 1] = s * s * h11 + 2.0 * c * s * h12 + c * c * h22
    return out


class _GaugeData(NamedTuple):
    r: np.ndarray
    er: np.ndarray | None
    mu: np.ndarray
    grad_mu2: np.ndarray | None
    hess_mu2: np.ndarray | None


def _gauge_data(interface: RadialInterface, x, center=None,
                order: int = 0) -> _GaugeData:
    """The polar frame of x about ``center`` (by default the interface's
    own) and the gauge there: r = |x - center|, the unit radial direction
    er, mu = r / rho(theta), and for order 1 and 2 the gradient and then
    the Hessian of mu^2; entries beyond the order are None.

    The center needs no special casing: theta is 0 there, mu and its
    derivatives vanish, and er is 0 because r is floored at 1e-300 in the
    division.  Callers that need an off-center point check r.
    """
    x = np.asarray(x, dtype=float)
    rel = x - (interface.center if center is None else center)
    r = np.hypot(rel[..., 0], rel[..., 1])
    theta = np.arctan2(rel[..., 1], rel[..., 0])
    rho = interface.rho(theta)
    mu = r / rho
    if order == 0:
        return _GaugeData(r, None, mu, None, None)
    er = rel / np.maximum(r, 1e-300)[..., None]
    d1 = interface.rho_d1(theta)
    et = np.stack((-er[..., 1], er[..., 0]), axis=-1)
    grad = (2.0 * r / rho**2)[..., None] * er + (
        -2.0 * r * d1 / rho**3
    )[..., None] * et
    hess = None
    if order == 2:
        hess = _polar_to_cartesian(
            er[..., 0], er[..., 1],
            *_polar_hessian_entries(rho, d1, interface.rho_d2(theta)),
        )
    return _GaugeData(r, er, mu, grad, hess)


def _off_center(g: _GaugeData) -> _GaugeData:
    """g, unless a point sits on the center, where the gauge is singular."""
    if np.any(g.r < _CENTER_EPS):
        raise GaugeSingular("gauge evaluated at the center")
    return g


def gauge(interface: RadialInterface, x):
    """mu(x) = |x - center| / rho(theta(x)); 1 on the curve, <1 inside."""
    return _off_center(_gauge_data(interface, x)).mu


def smallest_eigenvalue_2x2(mats):
    """Smallest eigenvalue of symmetric (..., 2, 2) matrices, closed form."""
    a = mats[..., 0, 0]
    b = mats[..., 0, 1]
    d = mats[..., 1, 1]
    mean = 0.5 * (a + d)
    radius = np.sqrt(0.25 * (a - d) ** 2 + b * b)
    return mean - radius


def distance_extrema(interface: RadialInterface, point) -> tuple[float, float]:
    """(min, max) distance from a point to the interface curve.

    Dense scan bracketed and refined with bounded scalar minimization, so
    the values are accurate to well below 1e-10 for smooth curves.
    """
    p = np.asarray(point, dtype=float)
    thetas = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    pts = interface.point(thetas)
    d = np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1])

    def dist(theta):
        q = interface.point(theta)
        return float(np.hypot(q[0] - p[0], q[1] - p[1]))

    step = TWO_PI / thetas.size

    def refine(idx, sign):
        t0 = thetas[idx]
        res = minimize_scalar(
            lambda t: sign * dist(t),
            bounds=(t0 - 2 * step, t0 + 2 * step),
            method="bounded",
            options={"xatol": 1e-13},
        )
        return sign * float(res.fun)

    dmin = min(float(np.min(d)), refine(int(np.argmin(d)), 1.0))
    dmax = max(float(np.max(d)), refine(int(np.argmax(d)), -1.0))
    return dmin, dmax


def _crossings(interface: RadialInterface, origin, direction, reach):
    """Distances r in (0, reach) at which the lines origin + r * direction
    cross the interface, where mu - 1 changes sign; NaN on lines where it
    has the same sign at both ends or vanishes at one.  origin and
    direction broadcast as (..., 2) arrays; one find_root call serves
    every line."""
    o = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    lines = (o[..., 0], o[..., 1], d[..., 0], d[..., 1])

    def excess(r, ox, oy, dx, dy):
        pts = np.stack((ox + r * dx, oy + r * dy), axis=-1)
        return _gauge_data(interface, pts).mu - 1.0

    res = find_root(excess, (0.0, reach), args=lines)
    bracket = excess(0.0, *lines) * excess(reach, *lines) < 0.0
    return np.where(bracket & res.success, res.x, np.nan)


def resample_from_center(interface: RadialInterface, new_center) -> RadialInterface:
    """Radial description of the same curve about a different interior
    point, at max(256, interface.n_samples) uniform angles.

    The ray from ``new_center`` at each target angle is intersected with
    the spline curve, so the new samples lie on the old curve to solver
    precision.
    """
    nc = np.asarray(new_center, dtype=float)
    n_samples = max(256, interface.n_samples)
    if np.hypot(*(nc - interface.center)) < _CENTER_EPS:
        if n_samples == interface.n_samples:
            return interface
        thetas = TWO_PI * np.arange(n_samples) / n_samples
        return build_radial_interface(
            np.column_stack((thetas, interface.rho(thetas))), center=interface.center
        )
    if gauge(interface, nc) >= 1.0:
        raise GeometryError("new center must lie strictly inside the curve")
    targets = TWO_PI * np.arange(n_samples) / n_samples
    rel = interface.point(interface.angles) - nc
    reach = 2.0 * np.max(np.hypot(rel[:, 0], rel[:, 1]))
    rays = np.stack((np.cos(targets), np.sin(targets)), axis=-1)
    radii = _crossings(interface, nc, rays, reach)
    return build_radial_interface(np.column_stack((targets, radii)), center=nc)


@dataclass(frozen=True)
class RectangularDomain:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise GeometryError("degenerate rectangle")

    @property
    def bounds(self):
        return self.xmin, self.xmax, self.ymin, self.ymax

    def contains(self, pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return (
            (x >= self.xmin) & (x <= self.xmax)
            & (y >= self.ymin) & (y <= self.ymax)
        )

    def boundary_clearance(self, pts):
        """Distance to the boundary, positive inside."""
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return np.minimum.reduce(
            [x - self.xmin, self.xmax - x, y - self.ymin, self.ymax - y]
        )


@dataclass(frozen=True)
class DomainLayout:
    """Outer domain plus interface curve; closure of the inner region must
    sit strictly inside the outer domain (which keeps the outer region
    connected for the supported star-shaped curves)."""

    outer: RectangularDomain
    interface: RadialInterface
    clearance: float = field(init=False)

    def __post_init__(self):
        thetas = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
        pts = self.interface.point(thetas)
        clear = float(np.min(self.outer.boundary_clearance(pts)))
        if clear <= 0.0 or not bool(np.all(self.outer.contains(pts))):
            raise GeometryError("interface must lie strictly inside the outer domain")
        object.__setattr__(self, "clearance", clear)

    def classify(self, pts):
        """OMEGA1 / OMEGA2 labels by the gauge value (the center is OMEGA1)."""
        mu = _gauge_data(self.interface, pts).mu
        return np.where(mu <= 1.0, OMEGA1, OMEGA2).astype(np.int8)
