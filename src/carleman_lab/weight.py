"""Piecewise Carleman weight functions adapted to a coefficient jump.

The weight on each side of the interface is

    psi_j(x) = eta(x) * abar_j * mu(x)^2 + M_j,      {j, k} = {1, 2}

where mu is the gauge of the interface about a center x0 strictly inside
the inner region, abar_1 = a2 and abar_2 = a1 (the coefficient of the
*other* side), eta is a C^2 radial cutoff that vanishes near x0, and the
offsets satisfy M_1 - M_2 = a1 - a2 so that both branches take the value
a2 + M_1 = a1 + M_2 on the interface.  With a1 > a2 this choice makes the
two one-sided conormal derivatives cancel (transmission compatibility)
while their unsigned normal slopes sum to a negative quantity, and keeps
the weight strictly convex away from the cutoff ball.

Time factors for the weighted estimates:

    theta(x, t) = exp(lam * psi(x)) / ((T - t) (T + t))
    phi(x, t)   = (alpha - exp(lam * psi(x))) / ((T - t) (T + t))

with alpha strictly above the grid maximum of exp(lam * psi).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import (
    DomainLayout,
    GaugeSingular,
    GeometryError,
    OMEGA1,
    OMEGA2,
    RadialInterface,
    TWO_PI,
    _gauge_data,
    curvature_scan,
    distance_extrema,
    gauge,
    resample_from_center,
    smallest_eigenvalue_2x2,
)


class JumpSignError(Exception):
    """The coefficient jump has the wrong sign for the certified weight."""


class DegeneratePair(GeometryError):
    """The two weight centers coincide (or nearly so)."""


class CutoffError(GeometryError):
    """The cutoff radii are out of order or the ball does not fit."""


class TimeSingular(Exception):
    """Time-weight evaluation outside the clamped interval."""


class ParamsOverflow(ValueError):
    """A parameter too large for a formula in doubles, where the limit is
    relative or depends on the geometry: alpha, e^(2 lambda psi_sup),
    tau^3 or theta^3 at the clamp, s^3 lambda^4, or M1 = M2 + a1 - a2,
    which rounds to 0; name is the parameter blamed (lambda, s, delta_t
    or a2)."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name


def _by_side(side, inner, outer):
    """inner where the label is OMEGA1, outer elsewhere."""
    return np.where(side == OMEGA1, inner, outer)


@dataclass(frozen=True)
class PiecewiseCoefficient:
    """Principal coefficient: a1 on the inner region, a2 outside."""

    a1: float
    a2: float
    layout: DomainLayout

    def __post_init__(self):
        if self.a1 <= 0.0 or self.a2 <= 0.0:
            raise ValueError("coefficient values must be positive")

    def on_side(self, side):
        """a1 where the label is OMEGA1, a2 elsewhere."""
        return _by_side(side, self.a1, self.a2)

    def at(self, pts):
        return self.on_side(self.layout.classify(pts))


@dataclass(frozen=True)
class Cutoff:
    """C^2 radial cutoff: 0 on r <= r_inner, 1 on r >= r_outer.

    Quintic smoothstep profile in between; value, slope and second
    derivative all match at both ends.
    """

    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not (0.0 < self.r_inner < self.r_outer):
            raise CutoffError("cutoff radii must satisfy 0 < r_inner < r_outer")

    def jet(self, r, order: int = 0) -> tuple:
        """(eta, eta', eta'') at the radii r; the derivatives above order
        are None."""
        w = self.r_outer - self.r_inner
        u = np.clip((np.asarray(r, dtype=float) - self.r_inner) / w, 0.0, 1.0)
        value = u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
        d1 = 30.0 * u * u * (1.0 - u) ** 2 / w if order >= 1 else None
        d2 = 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u) / (w * w) if order >= 2 else None
        return value, d1, d2


class WeightJet(NamedTuple):
    """psi at some points, its gradient (..., 2) and its Hessian (..., 2, 2);
    the entries above the order asked for are None."""

    psi: np.ndarray
    grad: Optional[np.ndarray]
    hessian: Optional[np.ndarray]


@dataclass(frozen=True)
class TransmissionWeight:
    """One piecewise weight: center, recentred interface, coefficient, offsets."""

    center: np.ndarray
    interface: RadialInterface  # radial description about ``center``
    coeff: PiecewiseCoefficient
    M1: float
    M2: float
    cutoff: Cutoff

    @property
    def interface_value(self) -> float:
        """Common value of both branches on the interface."""
        return self.coeff.a2 + self.M1

    def _abar(self, side):
        return _by_side(side, self.coeff.a2, self.coeff.a1)

    def _offset(self, side):
        return _by_side(side, self.M1, self.M2)

    def side_of(self, pts):
        return self.coeff.layout.classify(pts)

    def jet(self, pts, side=None, order: int = 0) -> WeightJet:
        """psi and, up to order (0, 1 or 2), its gradient and Hessian at pts,
        from one gauge and one cutoff evaluation.

        side is one label (OMEGA1 or 2) applied to every point, a label
        array that broadcasts against the points' leading shape, or None
        to classify the points here; each point runs its own branch.
        """
        if side is None:
            side = self.side_of(pts)
        # mu is the gauge about the weight's own center.  dead zone: eta and
        # its derivatives vanish for r <= r_inner, so every formula below is
        # evaluated with the singular factors masked out there.
        r, er, mu, gmu2, hmu2 = _gauge_data(self.interface, pts, self.center, order)
        eta, deta, d2eta = self.cutoff.jet(r, order)
        abar = self._abar(side)
        offset = self._offset(side)
        mu2 = mu**2
        dead = r <= self.cutoff.r_inner
        psi = np.where(dead, offset, abar * eta * mu2 + offset)
        grad = hess = None
        if order >= 1:
            g = abar[..., None] * (
                eta[..., None] * gmu2 + (mu2 * deta)[..., None] * er
            )
            grad = np.where(dead[..., None], 0.0, g)
        if order >= 2:
            r_safe = np.maximum(r, 1e-300)
            outer_sym = er[..., :, None] * gmu2[..., None, :]
            outer_sym = outer_sym + np.swapaxes(outer_sym, -1, -2)
            er_er = er[..., :, None] * er[..., None, :]
            eye = np.broadcast_to(np.eye(2), er_er.shape)
            hess_eta = d2eta[..., None, None] * er_er + (deta / r_safe)[
                ..., None, None
            ] * (eye - er_er)
            h = abar[..., None, None] * (
                eta[..., None, None] * hmu2
                + deta[..., None, None] * outer_sym
                + mu2[..., None, None] * hess_eta
            )
            hess = np.where(dead[..., None, None], 0.0, h)
        return WeightJet(psi, grad, hess)

    def psi(self, pts):
        """psi at pts, each point on its own side."""
        return self.jet(pts).psi


def _check_center(interface: RadialInterface, x) -> None:
    """Raise GeometryError unless x lies strictly inside the inner region;
    the interface center, where the gauge tends to 0, is inside."""
    try:
        mu = float(gauge(interface, x))
    except GaugeSingular:
        return
    if mu >= 1.0:
        raise GeometryError("weight center must lie strictly inside the inner region")


def certifiable_m2(M2: float, a1: float, a2: float) -> float:
    """M2 raised by a2 - a1 for a wrong-way jump (a2 > a1), so that
    M1 = M2 + a1 - a2 stays positive and the certifier can report the H2
    failure instead of build_weight refusing the offsets.  Raises
    ParamsOverflow when a2 - a1 is so large that M1 rounds to 0."""
    raised = M2 + max(0.0, a2 - a1)
    if not raised + (a1 - a2) > 0.0:
        raise ParamsOverflow("a2", (
            f"M1 = M2 + a1 - a2 rounds to {raised + (a1 - a2):g} at "
            f"a1 = {a1:g}, a2 = {a2:g}, M2 = {M2:g}"))
    return raised


def build_weight(
    layout: DomainLayout,
    x0,
    a1: float,
    a2: float,
    M2: float = 1.0,
    cutoff_radii: Optional[tuple[float, float]] = None,
    *,
    enforce_jump_sign: bool = True,
) -> TransmissionWeight:
    """Construct the piecewise weight centered at x0.

    Checks: positive coefficients with a1 > a2 (unless explicitly disabled,
    which exists so the certifier can *report* a wrong-way jump), positive
    offsets, x0 strictly inside the inner region, and the cutoff ball
    strictly inside as well.
    """
    if a1 <= 0.0 or a2 <= 0.0:
        raise ValueError("coefficients must be positive")
    if enforce_jump_sign and not a1 > a2:
        raise JumpSignError(f"need a1 > a2 for the certified weight, got {a1} <= {a2}")
    M1 = M2 + (a1 - a2)
    if M2 <= 0.0 or M1 <= 0.0:
        raise ValueError("weight offsets must be positive")
    x0 = np.asarray(x0, dtype=float)
    iface = layout.interface
    _check_center(iface, x0)
    recentred = resample_from_center(iface, x0)
    alpha0 = recentred.min_radius()
    if cutoff_radii is None:
        r_outer = 0.25 * alpha0
        r_inner = 0.5 * r_outer
    else:
        r_inner, r_outer = map(float, cutoff_radii)
        if r_outer >= alpha0:
            raise CutoffError(
                "cutoff ball must sit strictly inside the inner region "
                f"(r_outer={r_outer} >= {alpha0})"
            )
    coeff = PiecewiseCoefficient(a1=float(a1), a2=float(a2), layout=layout)
    return TransmissionWeight(
        center=x0,
        interface=recentred,
        coeff=coeff,
        M1=float(M1),
        M2=float(M2),
        cutoff=Cutoff(r_inner=r_inner, r_outer=r_outer),
    )


@dataclass(frozen=True)
class CarlemanParams:
    """Scalar parameters of the weighted estimate.

    alpha must dominate the grid maximum of exp(lam * psi); delta_t is the
    clamp that keeps the time factor finite near t = +-T.
    """

    s: float
    lam: float
    alpha: float
    T: float
    delta_t: float
    psi_sup: float = float("nan")

    def __post_init__(self):
        if self.s < 0.0 or self.lam <= 0.0:
            raise ValueError("need s >= 0 and lam > 0")
        if self.T <= 0.0 or not (0.0 < self.delta_t < self.T):
            raise ValueError("need 0 < delta_t < T")
        if np.isfinite(self.psi_sup) and self.alpha <= np.exp(self.lam * self.psi_sup):
            raise ValueError("alpha must strictly dominate exp(lam * psi)")


def _scan_points(layout: DomainLayout, n: int) -> np.ndarray:
    """The n x n grid spanning the outer rectangle, flattened to (n*n, 2)."""
    xmin, xmax, ymin, ymax = layout.outer.bounds
    xs = np.linspace(xmin, xmax, n)
    ys = np.linspace(ymin, ymax, n)
    return np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)


def psi_grid_max(weights, n_grid: int = 192) -> float:
    """Max of psi over a dense scan of the outer domain, taken over every
    weight in the sequence."""
    return max(float(np.max(w.psi(_scan_points(w.coeff.layout, n_grid))))
               for w in weights)


def _delta_t(T: float, delta_t: float | None) -> float:
    """The time clamp: delta_t as given, or T / 64 by default."""
    return T / 64.0 if delta_t is None else delta_t


def _clamp_tau(T: float, delta_t: float):
    """tau = 1 / ((T - t)(T + t)) at the clamp |t| = T - delta_t, its
    largest value on the clamped interval."""
    return 1.0 / (np.float64(delta_t) * (2.0 * T - delta_t))


def params_from_sup(psi_sup: float, s: float, lam: float, T: float, *,
                    delta_t: float | None = None) -> CarlemanParams:
    """alpha = 1.05 exp(lam psi_sup) and a default time clamp, for psi_sup
    from psi_grid_max.  Raises ParamsOverflow when alpha, P1's factor
    exp(2 lam psi_sup), the norm's weight theta^3 = (exp(lam psi_sup) tau)^3
    at the clamp, tau^3 there (then delta_t is blamed) or the norm's scale
    s^3 lam^4 is not a finite double."""
    delta_t = _delta_t(T, delta_t)
    with np.errstate(over="ignore", divide="ignore"):
        e_lp = np.exp(np.float64(lam) * psi_sup)
        alpha = 1.05 * float(e_lp)
        e_2lp = e_lp * e_lp
        tau = _clamp_tau(T, delta_t)
        tau3, theta3 = tau**3, (e_lp * tau) ** 3
        scale = np.float64(s) ** 3 * np.float64(lam) ** 4
    checks = (("lambda", alpha), ("lambda", e_2lp), ("delta_t", tau3),
              ("lambda", theta3), ("s", scale))
    for name, value in checks:
        if not np.isfinite(value):
            raise ParamsOverflow(name, (
                f"overflow at s = {s:g}, lambda = {lam:g}, psi_sup = {psi_sup:.6g}: "
                f"alpha = 1.05 e^(lambda psi_sup) = {alpha:g}, "
                f"e^(2 lambda psi_sup) = {e_2lp:g}, "
                f"tau^3 at the clamp = {tau3:g}, theta^3 there = {theta3:g}, "
                f"s^3 lambda^4 = {scale:g}"))
    return CarlemanParams(
        s=float(s), lam=float(lam), alpha=alpha, T=float(T),
        delta_t=float(delta_t), psi_sup=psi_sup,
    )


def _time_factor(params: CarlemanParams, t):
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > params.T - params.delta_t + 1e-12):
        raise TimeSingular("time weight evaluated outside the clamped interval")
    return 1.0 / ((params.T - t) * (params.T + t))


@dataclass(frozen=True)
class HypothesisRecord:
    name: str
    ok: bool
    margin: float
    worst_point: tuple[float, float]

    def as_dict(self):
        return {
            "name": self.name,
            "ok": bool(self.ok),
            "margin": float(self.margin),
            "worst_point": [float(self.worst_point[0]), float(self.worst_point[1])],
        }


@dataclass(frozen=True)
class HypothesisReport:
    records: dict[str, HypothesisRecord]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.records.values())

    def as_dict(self):
        return {
            "all_ok": self.all_ok,
            "records": {k: r.as_dict() for k, r in self.records.items()},
        }


def _worst(points, values, pick_max: bool) -> tuple[float, float]:
    idx = int(np.argmax(values)) if pick_max else int(np.argmin(values))
    return (float(points[idx, 0]), float(points[idx, 1]))


def verify_hypotheses(weight: TransmissionWeight) -> HypothesisReport:
    """Certify the interface and interior conditions of the weight at 512
    uniform interface angles and on a 128 x 128 scan of the outer domain.

    Records (margin > 0 means the condition holds):
      strong_convexity  min interface curvature, at the scan's sample
      Tr    transmission compatibility: value continuity and cancellation of
            a1 dpsi1/dnu1 + a2 dpsi2/dnu2 on the interface, margin =
            1e-8 - worst residual
      H1    psi constant (= a2 + M1) along the interface, same convention
      H2    dpsi1/dnu1 + dpsi2/dnu2 < 0 on the interface, margin = -(worst sum)
      H3    |grad psi| bounded below on the scan minus the cutoff ball
      H4    smallest eigenvalue of 2 a^2 D^2 psi bounded below on the same set
    """
    tolerance = 1e-8
    records: dict[str, HypothesisRecord] = {}

    scan, kappa = curvature_scan(weight.interface)
    kmin = float(np.min(kappa))
    records["strong_convexity"] = HypothesisRecord(
        "strong_convexity", kmin > 0.0, kmin,
        _worst(weight.interface.point(scan), kappa, pick_max=False),
    )

    thetas = np.linspace(0.0, TWO_PI, 512, endpoint=False)
    ipts = weight.interface.point(thetas)
    nu = weight.interface.outward_normal(thetas)
    a1, a2 = weight.coeff.a1, weight.coeff.a2

    # both branches at once: labels of shape (2, 1) broadcast against the
    # interface points, which are gauged once
    both = np.array([[OMEGA1], [OMEGA2]])
    (psi1, psi2), (g1, g2), _ = weight.jet(ipts, both, order=1)
    dn1 = np.einsum("ij,ij->i", g1, nu)       # dpsi1/dnu1
    dn2 = -np.einsum("ij,ij->i", g2, nu)      # dpsi2/dnu2, nu2 = -nu1

    value_jump = np.abs(psi1 - psi2)
    flux_residual = np.abs(a1 * dn1 + a2 * dn2)
    tr_res = np.maximum(value_jump, flux_residual)
    records["Tr"] = HypothesisRecord(
        "Tr",
        bool(np.max(tr_res) < tolerance),
        float(tolerance - np.max(tr_res)),
        _worst(ipts, tr_res, pick_max=True),
    )

    const_res = np.abs(psi1 - weight.interface_value)
    records["H1"] = HypothesisRecord(
        "H1",
        bool(np.max(const_res) < tolerance),
        float(tolerance - np.max(const_res)),
        _worst(ipts, const_res, pick_max=True),
    )

    h2_sum = dn1 + dn2
    records["H2"] = HypothesisRecord(
        "H2",
        bool(np.max(h2_sum) < 0.0),
        float(-np.max(h2_sum)),
        _worst(ipts, h2_sum, pick_max=True),
    )

    # interior scan: the outer domain outside the cutoff ball, classified once
    pts = _scan_points(weight.coeff.layout, 128)
    rr = np.hypot(pts[:, 0] - weight.center[0], pts[:, 1] - weight.center[1])
    pts = pts[rr >= weight.cutoff.r_outer]
    side = weight.side_of(pts)
    _, grad, hess = weight.jet(pts, side, order=2)

    grad_norm = np.linalg.norm(grad, axis=-1)
    records["H3"] = HypothesisRecord(
        "H3",
        bool(np.min(grad_norm) > 0.0),
        float(np.min(grad_norm)),
        _worst(pts, grad_norm, pick_max=False),
    )

    a_pts = weight.coeff.on_side(side)
    mats = 2.0 * (a_pts**2)[:, None, None] * hess
    eigs = smallest_eigenvalue_2x2(mats)
    records["H4"] = HypothesisRecord(
        "H4",
        bool(np.min(eigs) > 0.0),
        float(np.min(eigs)),
        _worst(pts, eigs, pick_max=False),
    )
    return HypothesisReport(records=records)


@dataclass(frozen=True)
class EpsilonPair:
    """Two weights with disjoint cutoff balls plus the separation radius."""

    w1: TransmissionWeight
    w2: TransmissionWeight
    eps: float
    d: float
    alpha1: float
    alpha2: float
    D1: float
    D2: float
    h5_margin_1: float  # min of psi^2 - psi^1 over the ball at x1
    h5_margin_2: float  # min of psi^1 - psi^2 over the ball at x2


def build_epsilon_pair(
    layout: DomainLayout,
    x1,
    x2,
    a1: float,
    a2: float,
    M2: float = 1.0,
) -> EpsilonPair:
    """Construct the two-center weight pair with certified separation.

    eps = 0.9 * min(d * alpha1 / D2, d * alpha2 / D1, d) with
    d = |x1 - x2| / 2, alpha_k = dist(x_k, interface), D_k the max distance,
    and each weight carries the cutoff radii (eps / 2, eps).  Since
    D2 >= 2 d + alpha1 (and D1 >= 2 d + alpha2), eps < min(alpha1, alpha2) / 2,
    so both balls of radius eps lie inside the interface.  The pair
    domination condition (H5) is verified on a 64 x 64 scan of each ball.
    """
    iface = layout.interface
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    d = 0.5 * float(np.hypot(*(x1 - x2)))
    if d < 1e-12:
        raise DegeneratePair("weight centers must be distinct")
    for xk in (x1, x2):
        _check_center(iface, xk)
    alpha1, D1 = distance_extrema(iface, x1)
    alpha2, D2 = distance_extrema(iface, x2)
    eps = 0.9 * min(d * alpha1 / D2, d * alpha2 / D1, d)
    w1 = build_weight(layout, x1, a1, a2, M2, cutoff_radii=(0.5 * eps, eps))
    w2 = build_weight(layout, x2, a1, a2, M2, cutoff_radii=(0.5 * eps, eps))

    # (H5) scan: the opposite weight dominates on each ball
    u = np.linspace(-1.0, 1.0, 64)
    offs = np.stack(np.meshgrid(u, u), axis=-1).reshape(-1, 2) * eps
    offs = offs[np.hypot(offs[:, 0], offs[:, 1]) <= eps]
    ball1 = x1 + offs
    ball2 = x2 + offs
    side1 = layout.classify(ball1)
    side2 = layout.classify(ball2)
    margin1 = float(np.min(w2.jet(ball1, side1).psi - w1.jet(ball1, side1).psi))
    margin2 = float(np.min(w1.jet(ball2, side2).psi - w2.jet(ball2, side2).psi))
    if margin1 <= 0.0 or margin2 <= 0.0:
        raise GeometryError(
            f"pair domination failed: margins {margin1:.3e}, {margin2:.3e}"
        )
    return EpsilonPair(
        w1=w1, w2=w2, eps=float(eps), d=d,
        alpha1=float(alpha1), alpha2=float(alpha2),
        D1=float(D1), D2=float(D2),
        h5_margin_1=margin1, h5_margin_2=margin2,
    )
