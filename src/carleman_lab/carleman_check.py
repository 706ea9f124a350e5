"""Both sides of the global Carleman estimate on discrete space-time fields.

The conjugated variable is w = e^{-s phi} v with

    phi(x, t) = (alpha - e^{lam psi(x)}) / ((T - t)(T + t)),
    theta(x, t) = e^{lam psi(x)} / ((T - t)(T + t)),

where psi is a transmission weight (one branch per side of the interface).
The conjugated operator splits as P w = P1 w + P2 w + q w with

    P1 w = i w' + div(a grad w) + s^2 a |grad phi|^2 w,
    P2 w = i s phi' w + 2 s a grad phi . grad w + s div(a grad phi) w,

where the phi factors are evaluated analytically per side and the spatial
derivatives of w use the same flux-conservative stencils as the solver.
The estimate under test compares, for an epsilon-pair of weights psi^1,
psi^2,

    lhs = sum_k ||P1 w^k||^2 + ||P2 w^k||^2 + |||w^k|||^2,
    rhs = sum_k ||P w^k||^2
          + s lam sum_k int over Sigma_+^k of theta^k |a dw^k/dnu|^2,

with |||w|||^2 = s^3 lam^4 int theta^3 |w|^2 + s lam int theta |grad w|^2.
All integrals run over the clamped time interval |t| <= T - delta_t; the
discarded tails are bounded by e^{-2 s phi} at the clamp and that bound is
reported with every sweep.

Scale handling: e^{-s phi} spans hundreds of orders of magnitude, so
conjugation factors are evaluated in log space and flushed to zero below
1e-300.  Ratio assembly additionally applies one common positive
normalization e^{s phi_ref} (phi_ref depends only on the weight pair and
the parameters, never on the field), which cancels exactly in the ratio
and keeps both sides inside double-precision range; reported lhs/rhs
components therefore carry that common normalization.

Streaming: carleman_ratios builds each weight's phi factors once per
params (tau over the whole time axis, the space arrays once) and then walks
the field in slabs of SLAB time levels, evaluating each slab for both
weights at every params before the next.  Each slab reads one extra level
of v on each side, so the time derivative taken over it is the whole
stack's at the slab's levels: L v is built from it once per slab, and
each conjugated slab takes it once per weight and params.  carleman_ratios
hands the derivatives and the slab's spatial gradient, as plain arrays, to
the operators, which take the stack, its derivatives and the phi factors
only.  Every term is reduced in space into its per-time density, and
each density is integrated once over the whole time axis by the
trapezoidal rule.  Every floating-point operation is the one the
whole-stack operators perform, so each report is bit-identical to
whole-stack evaluation, while the temporaries, L v included, are
slab-sized: no whole-stack array but v itself is built.  Nothing of a
field is kept once its call returns.

Mirror: phi is even in t, so for a field with v(-t) = c conj v(t), |c| = 1,
on an exactly antisymmetric time axis with q real, each density at level
nt-1-k equals the one at level k: w, P1 w, P2 w, grad w and L v at -t are
c times the conjugates of theirs at t (the weight factors are even, tau'
is odd, the stencils and q are real).  _mirror_phase reads c off v's
largest-modulus entry.  For c = -1 (every solved field extend_time
returns) and c = +1 the symmetry is checked exactly, and the densities
then agree bit for bit, as negation and conjugation are exact.  Any other
c (the manufactured fields, bump(t) e^{i (omega t + phase)}, have
c = e^{2 i phase}) holds to within MIRROR_ULPS eps of the peak modulus,
and the mirrored densities agree with the computed ones to rounding.  The
end levels are the exception, as the one-sided stencils of d/dt sum their
terms in opposite orders.  For a mirrored field carleman_ratios evaluates
the slabs that hold the levels from the middle up and a head slab of
levels 0..HEAD-1, about half of the levels, and every level between them
takes its mirror's densities; each level is reduced on its own (Kernels),
so for c = +-1 the report stays bit-identical to whole-stack evaluation,
and for any other c it moves by rounding only.

Support: a level's six densities are exactly 0 when v is 0 on every level
its time stencil reads (k-1..k+1 inside, 0..2 at k = 0, nt-3..nt-1 at
k = nt-1): w = v e^{-s phi} is 0 there, as the factor is finite (clipped
at e^700); the space stencils act within one level; and L v at level k
reads the levels the time stencil reads.  carleman_ratios finds the
field's time support, the first and last level where v is not identically
0 (_time_support), and evaluates, L v included, only the part of each
planned slab whose levels a stencil from the support reaches, with the
one-level halo, so d/dt at every evaluated level is still the whole
stack's; the other levels' densities are 0.  As each level is reduced on
its own (Kernels), the evaluated levels are reduced alone and the report
stays bit-identical to whole-stack evaluation.  Each compactly supported
manufactured field of the sweep has 87 live levels; as it is mirrored,
it conjugates 44 of them (34 + 10 with their halos) of the full path's
135 slab levels per weight.

Kernels: every spatial integral has one rule: np.sum adds up each level's
row of a C-contiguous integrand on its own (_space_integral, and the
Sigma_+ rows in _boundary_term), so a level's density has the same bits
wherever it sits in the array, and no BLAS kernel enters a density.
_derivative is np.gradient's uniform-spacing stencil with edge_order=2,
operation for operation, but for one quotient.  numpy divides a complex
by a real d by Smith's rule, ((re + im 0) r, (im - re 0) r) with
r = 1/d, in a loop 3-4 times slower than a product,
so a complex stack's interior quotient by d = 2h is the product with
r - 0j, (re r - im (-0), re (-0) + im r).  For finite values the bits
agree, signs of zero included, while no nonzero component rounds to 0,
which r >= 1 rules out; for 2h > 1 the division is kept.  Non-finite
values may differ (inf 0 is nan in the division), and a real quotient
stays a division, which a product by r does not always round alike.
_apply_flux multiplies the real stencil into the float64 view of the
node-major stack, 2 nt real vectors for a complex stack, where scipy
would multiply in complex arithmetic: each component's terms differ at
most in the sign of a zero and are summed in the same order from +0, so
for finite values the sums agree bit for bit.  The stencil is the
solver's one flux matrix, numbered by node (CoefficientOnGrid.node_flux),
so one product reads every node's column and leaves 0 in the boundary
rows.  Every field carleman_ratios sees is exactly 0 on the rim (the
solved fields have no Dirichlet data, extend_time mirrors their zeros,
and _boundary_taper is exactly 0 there), so the rim columns add +-0 to a
sum begun at +0, and each sum has the bits of the solver's
k_int @ interior + k_bnd @ rim.  The norm's weights cell theta^3 and
cell theta (theta = e^{lam psi} tau(t), free of s) are built once per
weight, slab and (lam, T) and dropped with the slab.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .pde_solver import (
    CoefficientOnGrid,
    Grid2D,
    SchrodingerOperator,
    SolverError,
    SpaceTimeField,
    _OnGrid,
    extend_time,
    solve_forward,
)
from .weight import (
    CarlemanParams,
    EpsilonPair,
    PiecewiseCoefficient,
    WeightJet,
    _clamp_tau,
    _delta_t,
    _time_factor,
    params_from_sup,
    psi_grid_max,
)

FLUSH_THRESHOLD = 1e-300
_LOG_FLUSH = float(np.log(FLUSH_THRESHOLD))
_LOG_CLIP = 700.0
# time levels per slab of a streamed carleman_ratios call
SLAB = 32
# levels of a mirrored call's head slab, which holds level 0: the fewest
# whose one-level halo still gives d/dt its 3-level stencil
HEAD = 2
# a mirror phase c off +-1 holds to within this many eps of a field's peak
# modulus, and |c| and a real c to within as many eps of 1
MIRROR_ULPS = 8


class InequalityViolation(Exception):
    """The assembled right-hand side vanished while the left side did not."""


class NonFiniteReport(Exception):
    """A component of the estimate is not a finite double."""


@dataclass(frozen=True)
class CarlemanReport:
    """Both sides of the estimate for one field at one (s, lambda)."""

    lhs: float
    rhs_residual: float
    rhs_boundary: float
    ratio: float
    s: float
    lam: float

    def as_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs_residual": self.rhs_residual,
            "rhs_boundary": self.rhs_boundary,
            "ratio": self.ratio,
            "s": self.s,
            "lambda": self.lam,
        }


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a (s, lambda) sweep over a suite of test fields."""

    rows: list
    table: list
    sup_ratio: float
    stabilized: bool
    q_inf: float
    tail_bound: float


def _slabs(nt: int) -> list:
    """(start, stop) of consecutive SLAB-level slabs covering nt levels; a
    tail of fewer than 3 levels joins the slab before it, so no slab is
    shorter than the time derivative's 3-level stencil."""
    starts = list(range(0, nt, SLAB))
    if len(starts) > 1 and nt - starts[-1] < 3:
        starts.pop()
    return list(zip(starts, starts[1:] + [nt]))


def _plan(nt: int, mirrored: bool) -> list:
    """The slabs a carleman_ratios call evaluates: those of _slabs(nt), or,
    for a mirrored field, the ones that hold a level at or above the middle
    and a head slab of levels 0..HEAD-1 (module notes)."""
    slabs = _slabs(nt)
    upper = [(start, stop) for start, stop in slabs if 2 * stop > nt]
    if not mirrored or upper == slabs:
        return slabs
    return [(0, HEAD)] + upper


def _time_support(v: SpaceTimeField) -> Optional[tuple]:
    """(first, last) level at which v is not identically 0; None when v is
    0 at every level."""
    nonzero = np.flatnonzero(v.values.reshape(v.nt, -1).any(axis=1))
    return (int(nonzero[0]), int(nonzero[-1])) if nonzero.size else None


def _live_levels(nt: int, support: Optional[tuple]) -> tuple:
    """[lo, hi): the levels whose time stencil reads a level of support,
    the only ones whose densities can be nonzero (module notes)."""
    if support is None:
        return 0, 0
    first, last = support
    lo = 0 if first <= 2 else first - 1
    hi = nt if last >= nt - 3 else last + 2
    return lo, hi


def _mirror_phase(v: SpaceTimeField) -> Optional[complex]:
    """The unit c with values[::-1] == c conj(values) on times[::-1] ==
    -times, or None.  c is read off the largest-modulus entry; a c within
    MIRROR_ULPS eps of +1 or -1 is that sign and must hold exactly, any
    other c to within MIRROR_ULPS eps of the peak modulus (module notes,
    Mirror).  The values are searched and compared slab by slab."""
    nt, values = v.nt, v.values
    if not np.array_equal(v.times[::-1], -v.times):
        return None
    peak, at = 0.0, None
    for start, stop in _slabs(nt):
        modulus = np.abs(values[start:stop])
        k = int(np.argmax(modulus))
        if modulus.flat[k] > peak:
            level, *node = np.unravel_index(k, modulus.shape)
            peak, at = float(modulus.flat[k]), (start + level, *node)
        del modulus
    if at is None or not np.isfinite(peak):
        return None
    c = complex(values[(nt - 1 - at[0], *at[1:])] / np.conj(values[at]))
    tol = MIRROR_ULPS * np.finfo(float).eps
    if not abs(abs(c) - 1.0) <= tol:
        return None
    bound = tol * peak
    for sign in (1.0, -1.0):
        if abs(c - sign) <= tol:
            # negation and conjugation are exact: the gap must be 0
            c, bound = complex(sign), 0.0
    for start, stop in _slabs((nt + 1) // 2):
        # c conj(high) - low, the gap of high == c conj(low) for |c| = 1; a
        # copy of the reversed view takes none of a ufunc's buffers
        low = values[start:stop]
        gap = np.empty_like(low)
        gap[...] = values[nt - stop : nt - start][::-1]
        np.conjugate(gap, out=gap)
        gap *= c
        gap -= low
        worst = np.abs(gap).max()
        del gap
        if not worst <= bound:
            return None
    return c


def _derivative(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """d/d(axis) of values at the spacing h: np.gradient's uniform-spacing
    stencil with edge_order=2, operation for operation, except that a
    complex interior quotient is a product (module notes, Kernels)."""
    if values.shape[axis] < 3:
        raise ValueError("the second-order stencil needs 3 points along axis")

    def at(index):
        return (slice(None),) * axis + (index,)

    out = np.empty_like(values)
    inner = out[at(slice(1, -1))]
    np.subtract(values[at(slice(2, None))], values[at(slice(None, -2))], out=inner)
    if np.iscomplexobj(values) and 2.0 * h <= 1.0:
        inner *= complex(1.0 / (2.0 * h), -0.0)
    else:
        inner /= 2.0 * h
    a, b, c = -1.5 / h, 2.0 / h, -0.5 / h
    out[at(0)] = a * values[at(0)] + b * values[at(1)] + c * values[at(2)]
    a, b, c = 0.5 / h, -2.0 / h, 1.5 / h
    out[at(-1)] = a * values[at(-3)] + b * values[at(-2)] + c * values[at(-1)]
    return out


def _time_derivative(values: np.ndarray, dt: float) -> np.ndarray:
    """d/dt of a (nt, ny, nx) stack, second order at the ends."""
    return _derivative(values, dt, 0)


def _spatial_gradient(values: np.ndarray, h: float) -> tuple:
    """(d/dy, d/dx) of a (nt, ny, nx) stack, second order at the edges."""
    return _derivative(values, h, 1), _derivative(values, h, 2)


class WeightOnGrid(_OnGrid):
    """psi, grad psi, |grad psi|^2 and lap psi at the nodes, flattened, and
    the Sigma_+ mask of the boundary nodes with psi on Sigma_+."""

    @cached_property
    def jet(self) -> WeightJet:
        """psi, grad psi and D^2 psi at the nodes, from one evaluation."""
        return self.source.jet(self.grid.points.reshape(-1, 2), order=2)

    @property
    def psi(self) -> np.ndarray:
        return self.jet.psi

    @property
    def grad(self) -> np.ndarray:
        return self.jet.grad

    @cached_property
    def grad_sq(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.grad, self.grad)

    @cached_property
    def laplacian(self) -> np.ndarray:
        hess = self.jet.hessian
        return hess[..., 0, 0] + hess[..., 1, 1]

    @cached_property
    def sigma(self) -> tuple:
        ids = self.grid.boundary_ids
        mask = np.einsum("ij,ij->i", self.grad[ids], self.grid.boundary_normals) > 0.0
        return mask, self.psi[ids][mask]


class _PhiSpace:
    """The space factor beta = alpha - e^{lam psi} of phi = beta(x) tau(t)
    for one weight at one params, and the arrays the operators build from
    it with the coefficient coeff, each made on first use."""

    def __init__(
        self, weight: WeightOnGrid, params: CarlemanParams, coeff: CoefficientOnGrid
    ):
        self.weight = weight
        self.params = params
        self.coeff = coeff

    @property
    def shape(self) -> tuple:
        return self.weight.grid.shape

    @cached_property
    def e_lp(self) -> np.ndarray:
        """e^{lam psi} at the nodes, flattened."""
        return np.exp(self.params.lam * self.weight.psi)

    @cached_property
    def beta(self) -> np.ndarray:
        return (self.params.alpha - self.e_lp).reshape(self.shape)

    @cached_property
    def p1_potential(self) -> np.ndarray:
        """s^2 a |grad phi|^2 / tau^2 = s^2 lam^2 a e^{2 lam psi} |grad psi|^2."""
        p = self.params
        return (
            p.s**2 * p.lam**2 * self.coeff.at_nodes * self.e_lp**2 * self.weight.grad_sq
        ).reshape(self.shape)

    @cached_property
    def grad_beta(self) -> tuple:
        """(d/dx, d/dy) beta = -lam e^{lam psi} grad psi."""
        gpsi = self.weight.grad
        lam = self.params.lam
        return (
            (-lam * self.e_lp * gpsi[:, 0]).reshape(self.shape),
            (-lam * self.e_lp * gpsi[:, 1]).reshape(self.shape),
        )

    @cached_property
    def div_a_grad_beta(self) -> np.ndarray:
        """div(a grad beta) = -a lam e^{lam psi} (lam |grad psi|^2 + lap psi)."""
        lam = self.params.lam
        gw = self.weight
        return (
            -self.coeff.at_nodes * lam * self.e_lp * (lam * gw.grad_sq + gw.laplacian)
        ).reshape(self.shape)

    @cached_property
    def sigma(self) -> tuple:
        """On Sigma_+: the rows of the sparse trace operator, and e^{lam psi}
        times the trace quadrature weight."""
        mask, psi_plus = self.weight.sigma
        quadrature = self.weight.grid.boundary_weights[mask]
        return self.coeff.trace[mask], np.exp(self.params.lam * psi_plus) * quadrature


class _Phi(NamedTuple):
    """A weight's phi factors at the time levels of a stack or slab."""

    space: _PhiSpace
    tau: np.ndarray

    @classmethod
    def of(
        cls,
        weight: WeightOnGrid,
        params: CarlemanParams,
        coeff: CoefficientOnGrid,
        times: np.ndarray,
    ) -> "_Phi":
        """weight's phi factors at params over times on its grid, for
        operators with the coefficient coeff."""
        return cls(_PhiSpace(weight, params, coeff), _time_factor(params, times))

    def slab(self, start: int, stop: int) -> "_Phi":
        return self._replace(tau=self.tau[start:stop])


class PairOnGrid(_OnGrid):
    """An epsilon pair on one grid: the coefficient data (the estimate uses
    the first weight's coefficient for both weights) and each weight's data.
    It holds nothing of a field, so a caller that keeps it across fields
    keeps no field alive."""

    def __init__(self, pair: EpsilonPair, grid: Grid2D):
        super().__init__(pair, grid)
        self.coeff = CoefficientOnGrid(pair.w1.coeff, grid)
        self.weights = (WeightOnGrid(pair.w1, grid), WeightOnGrid(pair.w2, grid))


def _require_time_resolution(field: SpaceTimeField):
    if field.nt < 3:
        raise SolverError("need at least 3 time levels for time derivatives")


def _conjugation_factors(phi: _Phi, log_shift: float) -> np.ndarray:
    """exp(-s phi + log_shift) per node and time level, flushed below 1e-300.

    Evaluated in log space; exponents are clipped high so a malformed
    alpha (phi < 0 somewhere) yields huge finite factors instead of inf.
    """
    log_f = -phi.space.params.s * phi.space.beta * phi.tau[:, None, None] + log_shift
    np.minimum(log_f, _LOG_CLIP, out=log_f)
    flushed = log_f < _LOG_FLUSH
    f = np.exp(log_f, out=log_f)
    f[flushed] = 0.0
    return f


def _apply_flux(coeff: CoefficientOnGrid, values: np.ndarray) -> np.ndarray:
    """div(a grad .) slice by slice; boundary rows are zero.  The real
    node-numbered stencil multiplies the float64 view of the transposed
    stack, 2 nt real vectors for a complex stack (module notes, Kernels)."""
    nt = values.shape[0]
    nodes = np.ascontiguousarray(values.reshape(nt, -1).T).view(np.float64)
    return (coeff.node_flux @ nodes).view(values.dtype).T.reshape(values.shape)


def _schrodinger_stack(
    w: np.ndarray, dwdt: np.ndarray, coeff: CoefficientOnGrid, potential: np.ndarray
) -> np.ndarray:
    """i w' + div(a grad w) + V w with the solver's flux stencils, w' being
    dwdt; V is potential, broadcast against the (nt, ny, nx) stack.  A
    complex dwdt is overwritten."""
    vals = dwdt.astype(complex, copy=False)
    np.multiply(1j, vals, out=vals)
    vals += _apply_flux(coeff, w)
    vals += potential * w
    return vals


def apply_transmission_operator(
    v: SpaceTimeField, coeff: PiecewiseCoefficient | CoefficientOnGrid, potential
) -> SpaceTimeField:
    """L v = i v' + div(a grad v) + q v with the solver's flux stencils; q
    may be complex."""
    _require_time_resolution(v)
    grid = v.grid
    vals = _schrodinger_stack(
        v.values,
        _time_derivative(v.values, v.dt),
        CoefficientOnGrid.of(coeff, grid),
        grid.sample(potential, dtype=complex)[None, :, :],
    )
    return SpaceTimeField(grid=grid, times=v.times, values=vals)


def apply_P1(w: np.ndarray, dwdt: np.ndarray, phi: _Phi) -> np.ndarray:
    """P1 w = i w' + div(a grad w) + s^2 a |grad phi|^2 w, w' being dwdt:
    the Schrodinger stack with the potential s^2 a |grad phi|^2.  A
    complex dwdt is overwritten."""
    potential = phi.space.p1_potential[None, :, :] * (phi.tau**2)[:, None, None]
    return _schrodinger_stack(w, dwdt, phi.space.coeff, potential)


def apply_P2(w: np.ndarray, grad, phi: _Phi, times: np.ndarray) -> np.ndarray:
    """P2 w = i s phi' w + 2 s a grad phi . grad w + s div(a grad phi) w,
    grad w being grad = (d/dy, d/dx) w at the levels times.  The terms are
    built in grad's buffers."""
    space = phi.space
    s = space.params.s
    if s == 0.0:
        return np.zeros(w.shape, dtype=complex)
    # grad phi = tau grad beta
    gbx, gby = space.grad_beta
    a2d = space.coeff.at_nodes.reshape(space.shape)
    tau = phi.tau[:, None, None]
    tau_prime = 2.0 * np.asarray(times, dtype=float)[:, None, None] * tau**2
    # the stacked terms reuse the gradient buffers, so at most three
    # complex (nt, ny, nx) temporaries are alive at once
    wy, wx = grad
    transport = np.add(
        np.multiply(gbx, wx, out=wx), np.multiply(gby, wy, out=wy), out=wx
    )
    np.multiply(2.0 * s * tau * a2d, transport, out=transport)
    divergence = np.multiply(s * tau * space.div_a_grad_beta, w, out=wy)
    out = 1j * s * tau_prime * space.beta
    np.multiply(out, w, out=out)
    out += transport
    out += divergence
    return out


def _theta_weights(phi: _Phi) -> tuple:
    """cell theta^3 and cell theta at phi's levels, cell being the
    trapezoidal weights: the norm's two weights, which do not depend on s."""
    cell = phi.space.weight.grid.cell_weights
    theta = phi.space.e_lp.reshape(phi.space.shape) * phi.tau[:, None, None]
    return cell * theta**3, cell * theta


def _space_integral(integrand: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The sum over space of integrand * weights per time level, integrand
    being a C-contiguous (nt, ny, nx) array, which is overwritten; each
    level is summed on its own (module notes, Kernels)."""
    integrand *= weights
    return np.sum(integrand, axis=(1, 2))


def _norm_densities(w: np.ndarray, grad, weights: tuple) -> tuple:
    """int theta^3 |w|^2 and int theta |grad w|^2 over space, per time
    level, by the trapezoidal rule; grad = (d/dy, d/dx) w and weights is
    _theta_weights at w's levels."""
    cell_theta3, cell_theta = weights
    dens1 = _space_integral(w.real**2 + w.imag**2, cell_theta3)
    wy, wx = grad
    grad_sq = wx.real**2 + wx.imag**2 + wy.real**2 + wy.imag**2
    return dens1, _space_integral(grad_sq, cell_theta)


def _norm_value(params: CarlemanParams, dens1, dens2, times) -> float:
    term1 = params.s**3 * params.lam**4 * np.trapezoid(dens1, times)
    term2 = params.s * params.lam * np.trapezoid(dens2, times)
    return float(term1 + term2)


def weighted_norm_sq(w: SpaceTimeField, phi: _Phi) -> float:
    """s^3 lam^4 int theta^3 |w|^2 + s lam int theta |grad w|^2 over the
    rectangle, by the trapezoidal rule in space and time."""
    grad = _spatial_gradient(w.values, w.grid.h)
    dens = _norm_densities(w.values, grad, _theta_weights(phi))
    return _norm_value(phi.space.params, *dens, w.times)


def _l2_density(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """int |values|^2 over space per time level, by the trapezoidal rule."""
    return _space_integral(values.real**2 + values.imag**2, grid.cell_weights)


def _common_log_shift(spaces: Sequence[_PhiSpace], params: CarlemanParams) -> float:
    """s * phi_ref with phi_ref <= min phi over the pair and the grid."""
    if params.s == 0.0:
        return 0.0
    beta_min = min(float(space.beta.min()) for space in spaces)
    if np.isfinite(params.psi_sup):
        beta_min = min(
            beta_min, params.alpha - float(np.exp(params.lam * params.psi_sup))
        )
    beta_min = max(beta_min, 0.0)
    return params.s * beta_min / (params.T * params.T)


def assemble_report(
    lhs: float, rhs_residual: float, rhs_boundary: float, s: float, lam: float
) -> CarlemanReport:
    """Combine the accumulated components, guarding the impossible case and
    a component that overflowed or is nan."""
    if not np.isfinite([lhs, rhs_residual, rhs_boundary]).all():
        raise NonFiniteReport(
            f"the estimate at s = {s:g}, lambda = {lam:g} is not finite: "
            f"lhs = {lhs:g}, rhs_residual = {rhs_residual:g}, "
            f"rhs_boundary = {rhs_boundary:g}"
        )
    rhs = rhs_residual + rhs_boundary
    if rhs == 0.0:
        if lhs > 0.0:
            raise InequalityViolation(
                "right-hand side vanished while the left side is "
                f"{lhs:.3e}; the weight pair or the field is invalid"
            )
        ratio = 0.0
    else:
        ratio = lhs / rhs
    return CarlemanReport(
        lhs=float(lhs),
        rhs_residual=float(rhs_residual),
        rhs_boundary=float(rhs_boundary),
        ratio=float(ratio),
        s=float(s),
        lam=float(lam),
    )


def _boundary_term(wvals: np.ndarray, phi: _Phi) -> np.ndarray:
    """int over Sigma_+ of theta |a dw/dnu|^2 per time level; the term is
    s lam times its time integral."""
    trace, weights = phi.space.sigma
    flux = trace @ wvals.reshape(len(phi.tau), -1).T
    # C-contiguous (nt, n), so each level's row is summed on its own
    flux = np.ascontiguousarray(flux.T)
    return ((flux.real**2 + flux.imag**2) * weights).sum(axis=1) * phi.tau


def clamp_tail_bound(params: CarlemanParams) -> float:
    """e^{-2 s phi} at the time clamp, bounding the discarded tail mass."""
    if not np.isfinite(params.psi_sup):
        return float("nan")
    beta_min = params.alpha - float(np.exp(params.lam * params.psi_sup))
    tau_clamp = _clamp_tau(params.T, params.delta_t)
    log_tail = -2.0 * params.s * beta_min * tau_clamp
    if log_tail < _LOG_FLUSH:
        return 0.0
    return float(np.exp(min(log_tail, _LOG_CLIP)))


def carleman_ratios(
    v: SpaceTimeField,
    weight_pair: EpsilonPair | PairOnGrid,
    params_list: Sequence[CarlemanParams],
    q,
) -> list:
    """Assemble both sides of the estimate for one field at each params of
    params_list, one report per params, in order.

    v must be a member of the discrete test class: zero Dirichlet trace,
    finite residual L v, and a computable boundary flux.  The report
    components carry one common positive normalization (see module notes);
    the ratio is exact.  A PairOnGrid built for v's grid lends its
    field-independent data.  Each weight's phi factors are built once per
    params; the terms, L v included, are streamed over slabs of SLAB time
    levels, and each slab is evaluated for both weights at every params
    before the next, so L v is built once per slab and the norm's theta
    weights once per weight, slab and (lambda, T).  For a field with
    v(-t) = c conj v(t), |c| = 1 (_mirror_phase), and q real at the nodes,
    about half of the levels are evaluated and the others take their
    mirror's densities, bit for bit for c = +-1 and to rounding otherwise;
    only the levels a stencil from v's time support reaches are evaluated
    (module notes).  Raises NonFiniteReport when a component overflows.
    """
    _require_time_resolution(v)
    grid, times, nt = v.grid, v.times, v.nt
    on_grid = PairOnGrid.of(weight_pair, grid)
    coeff = on_grid.coeff
    q_nodes = grid.sample(q, dtype=complex)
    plan = _plan(nt, not q_nodes.imag.any() and _mirror_phase(v) is not None)
    live_lo, live_hi = _live_levels(nt, _time_support(v))
    params_list = list(params_list)
    # phis[k][j]: weight j's phi factors at params k
    phis = [
        [_Phi.of(wgt, params, coeff, times) for wgt in on_grid.weights]
        for params in params_list
    ]
    shifts = [
        _common_log_shift([phi.space for phi in row], params)
        for row, params in zip(phis, params_list)
    ]
    # per weight, params and time level: |P1 w|^2, |P2 w|^2, the norm's two
    # integrands, |e^{-s phi} L v|^2 and the boundary integrand; 0 at the
    # levels outside [live_lo, live_hi)
    dens = np.zeros((len(on_grid.weights), len(params_list), 6, nt))
    for start, stop in plan:
        a, b = max(start, live_lo), min(stop, live_hi)
        if a >= b:
            continue
        lo, hi = max(a - 1, 0), min(b + 1, nt)
        core = slice(a - lo, b - lo)
        # d/dt over the halo is the whole stack's at a..b-1, so L v is too
        lv = _schrodinger_stack(
            v.values[a:b],
            _time_derivative(v.values[lo:hi], v.dt)[core],
            coeff,
            q_nodes[None, :, :],
        )
        for j in range(len(on_grid.weights)):
            theta = {}  # (lam, T) -> _theta_weights at levels a..b-1
            for k, params in enumerate(params_list):
                phi = phis[k][j]
                fac = _conjugation_factors(phi.slab(lo, hi), shifts[k])
                dens[j, k, 4, a:b] = _l2_density(grid, lv * fac[core])
                ext = v.values[lo:hi] * fac
                del fac
                w = ext[core]
                part = phi.slab(a, b)
                # each operator stack is reduced and dropped before the next
                # is built
                dwdt = _time_derivative(ext, v.dt)[core]
                dens[j, k, 0, a:b] = _l2_density(grid, apply_P1(w, dwdt, part))
                del dwdt
                grad = _spatial_gradient(w, grid.h)
                key = (params.lam, params.T)
                if key not in theta:
                    theta[key] = _theta_weights(part)
                # one ordering rule: the norm reads the gradient before
                # apply_P2 builds its terms in the gradient's buffers
                dens[j, k, 2:4, a:b] = _norm_densities(w, grad, theta[key])
                dens[j, k, 1, a:b] = _l2_density(
                    grid, apply_P2(w, grad, part, times[a:b])
                )
                del grad
                dens[j, k, 5, a:b] = _boundary_term(w, part)
        del lv
    # a level between two slabs takes its mirror's densities
    for (_, gap_lo), (gap_hi, _) in zip(plan, plan[1:]):
        mirror = slice(nt - 1 - gap_lo, nt - 1 - gap_hi, -1)
        dens[..., gap_lo:gap_hi] = dens[..., mirror]
    # per params: lhs, rhs_residual, rhs_boundary, summed weight by weight
    sums = [[0.0, 0.0, 0.0] for _ in params_list]
    for per_weight in dens:
        for params, per, acc in zip(params_list, per_weight, sums):
            # the sum keeps the order P1, P2, norm
            acc[0] += float(np.trapezoid(per[0], times))
            acc[0] += float(np.trapezoid(per[1], times))
            acc[0] += _norm_value(params, per[2], per[3], times)
            acc[1] += float(np.trapezoid(per[4], times))
            acc[2] += float(params.s * params.lam * np.trapezoid(per[5], times))
    return [
        assemble_report(*acc, params.s, params.lam)
        for params, acc in zip(params_list, sums)
    ]


def carleman_ratio(
    v: SpaceTimeField,
    weight_pair: EpsilonPair | PairOnGrid,
    params: CarlemanParams,
    q,
) -> CarlemanReport:
    """carleman_ratios at the one params."""
    return carleman_ratios(v, weight_pair, [params], q)[0]


def constant_sweep(
    test_fields: Iterable[SpaceTimeField],
    s_values: Sequence[float],
    lam_values: Sequence[float],
    on_grid: PairOnGrid,
    q,
    *,
    T: float,
    delta_t: Optional[float] = None,
    n_grid: int = 192,
) -> SweepResult:
    """Max-over-fields ratio per (s, lambda) plus sup and stabilization.

    The fields are assumed clamped at |t| = T - delta_t (delta_t defaults
    to T / 64, as in params_from_sup).  Stabilization means the per-s
    sups over the upper half of the s-range are positive and every
    consecutive relative change of them stays below 10 percent; a sweep
    whose ratios all flush to 0 is not stabilized.
    psi of both weights is scanned once, and every (s, lambda) is fitted
    to that one sup before any field is built (an overflow raises
    ParamsOverflow).  test_fields is iterated once, and each field is
    dropped before the next is asked for, so a lazy suite (build_test_suite)
    has one field in memory at a time.  Each field is evaluated over every
    (s, lambda) in one carleman_ratios call on on_grid, the pair on the
    fields' grid, so the pair's grid data is built once (a field on
    another grid gets a pair of its own); q_inf is taken on on_grid's
    grid, and rows come out in (s, lambda, field) order.
    """
    s_lam = [(float(s), float(lam)) for s in s_values for lam in lam_values]
    pair = on_grid.source
    psi_sup = psi_grid_max((pair.w1, pair.w2), n_grid)
    fitted = []
    tail = 0.0
    for s, lam in s_lam:
        params = params_from_sup(psi_sup, s, lam, float(T), delta_t=delta_t)
        tail = max(tail, clamp_tail_bound(params))
        fitted.append(params)

    fields = iter(test_fields)
    fld = next(fields, None)
    by_field = []
    while fld is not None:
        on_grid = PairOnGrid.of(on_grid, fld.grid)
        by_field.append(carleman_ratios(fld, on_grid, fitted, q))
        fld = None  # dropped before the next field is built
        fld = next(fields, None)
    reports = list(zip(*by_field))

    rows = []
    table = []
    for (s, lam), per_field in zip(s_lam, reports):
        best = 0.0
        for fid, rep in enumerate(per_field):
            rows.append({"field_id": fid, **rep.as_dict()})
            best = max(best, rep.ratio)
        table.append({"s": s, "lambda": lam, "max_ratio": best})

    s_sorted = sorted({float(s) for s in s_values})
    sups = [
        max(e["max_ratio"] for e in table if e["s"] == s) for s in s_sorted
    ]
    upper = sups[len(s_sorted) // 2 :]
    stabilized = (
        len(upper) >= 2
        and min(upper) > 0.0
        and all(abs(b - a) <= 0.1 * a for a, b in zip(upper, upper[1:]))
    )
    sup_ratio = max((e["max_ratio"] for e in table), default=0.0)
    q_inf = float(np.max(np.abs(on_grid.grid.sample(q))))
    return SweepResult(
        rows=rows,
        table=table,
        sup_ratio=float(sup_ratio),
        stabilized=bool(stabilized),
        q_inf=q_inf,
        tail_bound=float(tail),
    )


def _boundary_taper(grid: Grid2D, margin: float) -> np.ndarray:
    """Quintic smoothstep taper vanishing on the outer boundary."""
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


@dataclass(frozen=True, eq=False)
class FieldSuite:
    """A test-field suite that builds its fields on demand.

    len() is the number of fields.  Each iteration builds them in order:
    solve's forward solution from each initial state, extended to negative
    times, then env(t) profile(x) for each (env, profile) of separable.
    Every random draw was made with the suite, so every iteration yields
    the same fields bit for bit.  The suite keeps none of them: a caller
    that drops each field before asking for the next holds one at a time.
    """

    grid: Grid2D
    solve: Callable[[np.ndarray], SpaceTimeField]
    initial_states: list
    times: np.ndarray
    separable: list

    def __len__(self) -> int:
        return len(self.initial_states) + len(self.separable)

    def __iter__(self) -> Iterator[SpaceTimeField]:
        for y0 in self.initial_states:
            yield extend_time(self.solve(y0))
        for env, profile in self.separable:
            yield SpaceTimeField(
                grid=self.grid,
                times=self.times,
                values=env[:, None, None] * profile[None, :, :],
            )


def build_test_suite(
    grid: Grid2D,
    coeff: PiecewiseCoefficient | CoefficientOnGrid,
    q,
    T: float,
    *,
    delta_t: Optional[float] = None,
    n_steps: int = 64,
    seed: int = 0,
    n_solved: int = 5,
    n_manufactured: int = 5,
) -> FieldSuite:
    """Default test-field suite on the clamped interval |t| <= T - delta_t.

    Solved fields run the forward solver from purely imaginary random
    bumps and extend to negative times by the conjugate reflection they
    satisfy; manufactured fields are interior bumps times smooth compactly
    supported time envelopes, exercising the residual term.  Both kinds
    are mirrored by carleman_ratios: a solved field is odd-conjugate, and
    a manufactured field's envelope bump(t) e^{i (omega t + phase)} gives
    v(-t) = e^{2 i phase} conj v(t) to rounding (module notes, Mirror).
    Every random parameter is drawn here; the fields are built as the
    suite is iterated (FieldSuite).
    """
    t_max = T - _delta_t(T, delta_t)
    rng = np.random.default_rng(seed)
    # every solve has the same q and dt: one factored operator serves all
    op = SchrodingerOperator(grid, coeff, q, t_max / n_steps)
    pts = grid.points
    interface = grid.layout.interface
    cx, cy = interface.center
    rmin = interface.min_radius()
    xmin, xmax, ymin, ymax = grid.layout.outer.bounds
    margin = 0.15 * min(xmax - xmin, ymax - ymin)
    taper = _boundary_taper(grid, margin)
    initial_states = []
    for _ in range(n_solved):
        c = (
            cx + rng.uniform(-0.3, 0.3) * rmin,
            cy + rng.uniform(-0.3, 0.3) * rmin,
        )
        width = rmin * rng.uniform(0.25, 0.4)
        amp = rng.uniform(0.5, 1.5)
        r2 = (pts[..., 0] - c[0]) ** 2 + (pts[..., 1] - c[1]) ** 2
        initial_states.append(1j * amp * np.exp(-r2 / width**2))
    times = np.linspace(-t_max, t_max, 2 * n_steps + 1)
    separable = []
    for _ in range(n_manufactured):
        c = (
            rng.uniform(xmin + 2.0 * margin, xmax - 2.0 * margin),
            rng.uniform(ymin + 2.0 * margin, ymax - 2.0 * margin),
        )
        width = rng.uniform(0.2, 0.45) * rmin
        amp = rng.uniform(0.5, 1.5)
        omega = rng.uniform(-3.0, 3.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        r2 = (pts[..., 0] - c[0]) ** 2 + (pts[..., 1] - c[1]) ** 2
        profile = amp * np.exp(-r2 / width**2) * taper
        t0 = 0.6 * t_max
        env = np.zeros(times.size, dtype=complex)
        inside = np.abs(times) < t0
        u = times[inside] / t0
        env[inside] = np.exp(1.0 - 1.0 / (1.0 - u**2)) * np.exp(
            1j * (omega * times[inside] + phase)
        )
        separable.append((env, profile))
    solve = partial(
        solve_forward, grid, coeff, q, t0=0.0, t1=t_max, n_steps=n_steps, operator=op
    )
    return FieldSuite(grid, solve, initial_states, times, separable)
