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

Streaming: the fields that share a grid and a time axis are evaluated in
one slab-major walk (_walk): carleman_ratios walks its one field, and
constant_sweep a whole suite.  Each weight's phi factors are built once
per params for the walk (tau over the whole time axis, the space arrays
once).  The walk visits the planned slabs of SLAB time levels one at a
time.  It reads each field that is live on the slab with one extra level
on each side, so the time derivative taken over it is the whole stack's
at the slab's levels, and builds the field's L v there once.  Then, for
each weight and params, it builds the slab's field-independent arrays
once, the conjugation factors, P1's potential, P2's three factors and the
norm's weights (_Factors), and evaluates every field with them.  Every
term is reduced in space into its per-time density, and each density is
integrated once over the whole time axis by the trapezoidal rule.  Every
floating-point operation is the one the whole-stack operators perform,
so each report is bit-identical to whole-stack evaluation, while the
temporaries are slab-sized.  No field is held whole that did not come
whole: a FieldSuite's env(t) profile(x) is built a slab at a time, and
its solved fields advance as one (n_int, k) block of interior states
through SchrodingerOperator.march, in step with the slabs from the middle
up (_Marched).  A negative time reads as -conj of its mirror level, the
head slab reads the last HEAD + 1 levels the march reaches, and between
slabs only the states of the last HEAD + 1 levels are kept.  The block
serves every read of the level range it built last, and drops that
range's levels before it builds the next.  Every solved field is
mirrored, so the walk reads the block forwards only.
Every step is SuperLU's transpose solve, which gives each column of the
block the bits of its one-column march on OpenBLAS's SkylakeX, Haswell
and Prescott kernels alike; its plain solve does so on SkylakeX only, as
its block and one-column solves round apart on the other two.

Mirror: phi is even in t, so for a field with v(-t) = c conj v(t), |c| = 1,
on an exactly antisymmetric time axis, each density at level nt-1-k
equals the one at level k: w, P1 w, P2 w, grad w and L v at -t are
c times the conjugates of theirs at t (the weight factors are even, tau'
is odd, the stencils are real, and q, the potential p, is real: it is
sampled as floats).  _mirror_phase reads c off v's
largest-modulus entry.  For c = -1 (every solved field) and c = +1 the
symmetry is checked exactly, and the densities then agree bit for bit, as
negation and conjugation are exact.  Any other c (the manufactured fields,
bump(t) e^{i (omega t + phase)}, have c = e^{2 i phase}) holds to within
MIRROR_ULPS eps of the peak modulus, and the mirrored densities agree
with the computed ones to rounding.  The end levels are the exception,
as the one-sided stencils of d/dt sum their terms in opposite orders.
For a mirrored field the walk evaluates a head slab of levels 0..HEAD-1
and the slabs of levels nt // 2..nt-1, about half of the levels, and
every level between them takes its mirror's densities; each level is
reduced on its own (Kernels), so for c = +-1 the report stays
bit-identical to whole-stack evaluation, and for any other c it moves by
rounding only.  Mirroring starts at level nt // 2 whatever SLAB is, so
no report depends on SLAB.  A suite's time axis is the march's levels
reflected about t = 0, so exactly antisymmetric, and every solved field
is mirrored with c = -1: its levels are exact mirrors by construction,
as _Marched requires Re v(0) = 0 exactly of every initial state.

Support: a level's six densities are exactly 0 when v is 0 on every level
its time stencil reads (k-1..k+1 inside, 0..2 at k = 0, nt-3..nt-1 at
k = nt-1): w = v e^{-s phi} is 0 there, as the factor is finite (clipped
at e^700); the space stencils act within one level; and L v at level k
reads the levels the time stencil reads.  The walk finds each field's
time support, the first and last level where it is not identically 0
(_time_support), evaluates a field only on the planned slabs that hold a
level a stencil from the support reaches, and sets the densities at
every other level to 0.  As each level is reduced on its own (Kernels),
the report stays bit-identical to whole-stack evaluation.  A solved
field is live on every level, as its unitary march from a nonzero state
never reaches a level that is 0 (a zero state's densities are exactly 0
everywhere).  Each compactly supported manufactured field of the sweep
has 79 live levels, 25..103; as it is mirrored, the walk evaluates it on
the five slabs of 64..103 only.

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
rows.  Every field of the sweep is exactly 0 on the rim (the solved
fields have no Dirichlet data and the reflection mirrors their zeros, and
_boundary_taper is exactly 0 there), so the rim columns add +-0 to a sum
begun at +0, and each sum has the bits of the solver's
k_int @ interior + k_bnd @ rim.  numpy multiplies a complex by a float64
array by casting the real operand to (f, +0) and running the complex
loop, so a factor that multiplies a complex stack, shared by every field
of a slab (the conjugation factors, P1's potential, P2's factors and
grad beta), is cast once, when it is built, and each product has the
same bits without the cast.  The norm's weights cell theta^3 and
cell theta (theta = e^{lam psi} tau(t), free of s), which multiply real
integrands, stay real; they are built once per weight, slab and
(lam, T) and dropped with the slab.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .pde_solver import (
    CoefficientOnGrid,
    ExtensionError,
    Grid2D,
    SchrodingerOperator,
    SolverError,
    SpaceTimeField,
    _OnGrid,
    time_step,
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
# time levels per slab of a walk: ten fields' slabs, their L v and the
# marched block's states stay well below one whole field
SLAB = 8
# levels of a mirrored field's head slab, which holds level 0: the fewest
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


def _slabs(start: int, stop: int) -> list:
    """(lo, hi) of consecutive SLAB-level slabs covering the levels
    start..stop-1; a tail of fewer than 3 levels joins the slab before it,
    so no slab at the end of the time axis is shorter than the time
    derivative's 3-level stencil."""
    starts = list(range(start, stop, SLAB))
    if len(starts) > 1 and stop - starts[-1] < 3:
        starts.pop()
    return list(zip(starts, starts[1:] + [stop]))


def _plan(nt: int) -> tuple:
    """(mirrored, lower), in the order a walk takes them: the slabs every
    field evaluates, those of [nt // 2, nt) upwards and then a head slab of
    levels 0..HEAD-1, which reads the last levels a march reaches, and the
    slabs of [HEAD, nt // 2) between them, downwards, which only a field
    that is not mirrored evaluates.  Mirroring starts at level nt // 2
    whatever SLAB is (module notes, Mirror); with no level between the
    two, every slab is of the first kind."""
    mid = nt // 2
    if mid <= HEAD:
        return _slabs(0, nt), []
    return _slabs(mid, nt) + [(0, HEAD)], _slabs(HEAD, mid)[::-1]


def _time_support(nt: int, read: Callable) -> Optional[tuple]:
    """(first, last) level at which a field is not identically 0, read
    slab by slab (read(lo, hi) gives its levels lo..hi-1); None when it is
    0 at every level."""
    nonzero = np.concatenate([
        read(lo, hi).reshape(hi - lo, -1).any(axis=1) for lo, hi in _slabs(0, nt)
    ])
    nonzero = np.flatnonzero(nonzero)
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


def _mirror_phase(times: np.ndarray, read: Callable) -> Optional[complex]:
    """The unit c with values[::-1] == c conj(values) on times[::-1] ==
    -times, or None, for the field that read(lo, hi) gives level range by
    level range.  c is read off the largest-modulus entry; a c within
    MIRROR_ULPS eps of +1 or -1 is that sign and must hold exactly, any
    other c to within MIRROR_ULPS eps of the peak modulus (module notes,
    Mirror).  The values are searched and compared slab by slab."""
    nt = times.size
    if not np.array_equal(times[::-1], -times):
        return None
    peak, at = 0.0, None
    for start, stop in _slabs(0, nt):
        modulus = np.abs(read(start, stop))
        k = int(np.argmax(modulus))
        if modulus.flat[k] > peak:
            level, *node = np.unravel_index(k, modulus.shape)
            peak, at = float(modulus.flat[k]), (start + level, *node)
        del modulus
    if at is None or not np.isfinite(peak):
        return None
    level, *node = at
    mirror = read(nt - 1 - level, nt - level)[(0, *node)]
    c = complex(mirror / np.conj(read(level, level + 1)[(0, *node)]))
    tol = MIRROR_ULPS * np.finfo(float).eps
    if not abs(abs(c) - 1.0) <= tol:
        return None
    bound = tol * peak
    for sign in (1.0, -1.0):
        if abs(c - sign) <= tol:
            # negation and conjugation are exact: the gap must be 0
            c, bound = complex(sign), 0.0
    for start, stop in _slabs(0, (nt + 1) // 2):
        # c conj(high) - low, the gap of high == c conj(low) for |c| = 1; a
        # copy of the reversed view takes none of a ufunc's buffers
        low = read(start, stop)
        gap = np.empty_like(low)
        gap[...] = read(nt - stop, nt - start)[::-1]
        np.conjugate(gap, out=gap)
        gap *= c
        gap -= low
        worst = np.abs(gap).max()
        del gap
        if not worst <= bound:
            return None
    return c


def _derivative(values: np.ndarray, h: float, axis: int,
                part: slice = slice(None)) -> np.ndarray:
    """d/d(axis) of values at the spacing h, at the indices part along axis:
    np.gradient's uniform-spacing stencil with edge_order=2, operation for
    operation, except that a complex interior quotient is a product
    (module notes, Kernels).  An end's one-sided stencil is built only
    when part holds that end."""
    n = values.shape[axis]
    if n < 3:
        raise ValueError("the second-order stencil needs 3 points along axis")
    lo, hi, _ = part.indices(n)

    def at(index):
        return (slice(None),) * axis + (index,)

    out = np.empty_like(values[at(slice(lo, hi))])
    first, stop = max(lo, 1), min(hi, n - 1)  # the central indices
    inner = out[at(slice(first - lo, stop - lo))]
    np.subtract(values[at(slice(first + 1, stop + 1))],
                values[at(slice(first - 1, stop - 1))], out=inner)
    if np.iscomplexobj(values) and 2.0 * h <= 1.0:
        inner *= complex(1.0 / (2.0 * h), -0.0)
    else:
        inner /= 2.0 * h
    if lo == 0:
        a, b, c = -1.5 / h, 2.0 / h, -0.5 / h
        out[at(0)] = a * values[at(0)] + b * values[at(1)] + c * values[at(2)]
    if hi == n:
        a, b, c = 0.5 / h, -2.0 / h, 1.5 / h
        out[at(-1)] = a * values[at(-3)] + b * values[at(-2)] + c * values[at(-1)]
    return out


def _time_derivative(values: np.ndarray, dt: float,
                     part: slice = slice(None)) -> np.ndarray:
    """d/dt of a (nt, ny, nx) stack at its levels part, second order at
    the ends."""
    return _derivative(values, dt, 0, part)


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
        """(d/dx, d/dy) beta = -lam e^{lam psi} grad psi, in complex form,
        as they multiply the complex gradient (module notes, Kernels)."""
        gpsi = self.weight.grad
        lam = self.params.lam
        return (
            (-lam * self.e_lp * gpsi[:, 0]).reshape(self.shape).astype(complex),
            (-lam * self.e_lp * gpsi[:, 1]).reshape(self.shape).astype(complex),
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
        _time_derivative(v.values, time_step(v.times)),
        CoefficientOnGrid.of(coeff, grid),
        grid.sample(potential, dtype=complex)[None, :, :],
    )
    return SpaceTimeField(grid=grid, times=v.times, values=vals)


class _Factors(NamedTuple):
    """What P1 and P2 multiply a conjugated stack by at one weight, params
    and range of levels, built once for every field evaluated there, in
    complex form (module notes, Kernels)."""

    phi: _Phi
    # s^2 a |grad phi|^2
    potential: np.ndarray
    # 2 s tau a, s tau div(a grad beta) and i s tau' beta; None at s = 0
    p2: Optional[tuple]

    @classmethod
    def of(cls, phi: _Phi, times: np.ndarray) -> "_Factors":
        """The factors at phi's levels, times."""
        space = phi.space
        s = space.params.s
        tau = phi.tau[:, None, None]
        potential = space.p1_potential[None, :, :] * (phi.tau**2)[:, None, None]
        p2 = None
        if s != 0.0:
            # grad phi = tau grad beta
            a2d = space.coeff.at_nodes.reshape(space.shape)
            tau_prime = 2.0 * np.asarray(times, dtype=float)[:, None, None] * tau**2
            p2 = (
                (2.0 * s * tau * a2d).astype(complex),
                (s * tau * space.div_a_grad_beta).astype(complex),
                1j * s * tau_prime * space.beta,
            )
        return cls(phi, potential.astype(complex), p2)


def apply_P1(w: np.ndarray, dwdt: np.ndarray, factors: _Factors) -> np.ndarray:
    """P1 w = i w' + div(a grad w) + s^2 a |grad phi|^2 w, w' being dwdt:
    the Schrodinger stack with the potential s^2 a |grad phi|^2.  A
    complex dwdt is overwritten."""
    return _schrodinger_stack(w, dwdt, factors.phi.space.coeff, factors.potential)


def apply_P2(w: np.ndarray, grad, factors: _Factors) -> np.ndarray:
    """P2 w = i s phi' w + 2 s a grad phi . grad w + s div(a grad phi) w,
    grad w being grad = (d/dy, d/dx) w.  The terms are built in grad's
    buffers."""
    if factors.p2 is None:
        return np.zeros(w.shape, dtype=complex)
    gbx, gby = factors.phi.space.grad_beta
    along, across, in_time = factors.p2
    # the stacked terms reuse the gradient buffers, so at most three
    # complex (nt, ny, nx) temporaries are alive at once
    wy, wx = grad
    transport = np.add(
        np.multiply(gbx, wx, out=wx), np.multiply(gby, wy, out=wy), out=wx
    )
    np.multiply(along, transport, out=transport)
    divergence = np.multiply(across, w, out=wy)
    out = np.multiply(in_time, w)
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
    beta_min = min(
        min(float(space.beta.min()) for space in spaces),
        params.alpha - float(np.exp(params.lam * params.psi_sup)),
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
    beta_min = params.alpha - float(np.exp(params.lam * params.psi_sup))
    tau_clamp = _clamp_tau(params.T, params.delta_t)
    log_tail = -2.0 * params.s * beta_min * tau_clamp
    if log_tail < _LOG_FLUSH:
        return 0.0
    return float(np.exp(min(log_tail, _LOG_CLIP)))


class _Field(NamedTuple):
    """A field of a walk: read(lo, hi) gives its values at the levels
    lo..hi-1 of the uniform times, with its mirror phase and live levels."""

    times: np.ndarray
    read: Callable
    phase: Optional[complex]
    live: tuple

    @classmethod
    def of(cls, times: np.ndarray, read: Callable) -> "_Field":
        """The field read gives, its phase and live levels read off it."""
        nt = times.size
        return cls(times, read, _mirror_phase(times, read),
                   _live_levels(nt, _time_support(nt, read)))


class _Marched:
    """The solved fields of a suite as one (n_int, k) block of interior
    states, which SchrodingerOperator.march advances from t = 0 as the
    slabs read it.  Level n_steps + m holds the block after m steps, and a
    level below the middle reads as -conj of its mirror level, by the
    odd-conjugate reflection v(-t) = -conj v(t) that a solution from a
    purely imaginary state satisfies; a state with a nonzero real part
    raises ExtensionError.  Every read of the level range built last is
    served from its levels; a read of another range drops them, marches
    on to the last level it needs and builds its levels, and then keeps
    only the states of the last HEAD + 1 levels, the most a later read in
    plan order goes back (module notes, Streaming)."""

    def __init__(self, suite: "FieldSuite"):
        grid = suite.grid
        self.shape = grid.shape
        self.n = n = (suite.times.size - 1) // 2
        x0 = np.column_stack([
            grid.sample(y0, complex)[1:-1, 1:-1].ravel() for y0 in suite.initial_states
        ])
        if x0.real.any():
            raise ExtensionError(
                "the odd-conjugate reflection v(-t) = -conj v(t) needs "
                "Re v(0) = 0 at every interior node"
            )
        self.width = x0.shape[1]
        self.states = {0: x0}  # step -> block after that many steps
        self.reached = 0
        # the suite's solves have no Dirichlet data: every step's boundary
        # term is +0, as solve_forward's is
        zero = np.zeros((x0.shape[0], 1), dtype=complex)
        self._steps = suite.operator.march(x0, itertools.repeat(zero, n))
        # the level range built last, and every field's values there
        self.range, self.levels = None, None

    def read(self, j: int, lo: int, hi: int) -> np.ndarray:
        """Solved field j at the levels lo..hi-1."""
        if self.range != (lo, hi):
            self.range, self.levels = None, None
            steps = [abs(k - self.n) for k in range(lo, hi)]
            for step in [step for step in self.states if step < min(steps)]:
                del self.states[step]
            while self.reached < max(steps):
                self.reached += 1
                self.states[self.reached] = next(self._steps)
            ny, nx = self.shape
            levels = np.zeros((self.width, hi - lo, ny, nx), dtype=complex)
            for i, (k, step) in enumerate(zip(range(lo, hi), steps)):
                interior = self.states[step].T.reshape(-1, ny - 2, nx - 2)
                levels[:, i, 1:-1, 1:-1] = interior
                if k < self.n:
                    levels[:, i] = -np.conj(levels[:, i])
            for step in [step for step in self.states if step < max(steps) - HEAD]:
                del self.states[step]
            self.range, self.levels = (lo, hi), levels
        return self.levels[j]


def _suite_fields(suite: "FieldSuite") -> list:
    """The suite's fields as fields of a walk, in suite order: the solved
    ones as the columns of one marched block, each mirrored with c = -1
    and live on every level (module notes, Mirror and Support), then each
    env(t) profile(x), built a slab at a time."""
    times = suite.times
    fields = []
    if suite.initial_states:
        block = _Marched(suite)
        fields += [
            _Field(times, lambda lo, hi, j=j: block.read(j, lo, hi),
                   complex(-1.0), (0, times.size))
            for j in range(len(suite.initial_states))
        ]
    for env, profile in suite.separable:
        fields.append(_Field.of(
            times,
            lambda lo, hi, env=env, profile=profile: (
                env[lo:hi, None, None] * profile[None, :, :]
            ),
        ))
    return fields


def _slab_densities(v, lv, core: slice, fac, factors: _Factors, theta: tuple,
                    dt: float, out):
    """A field's six densities at one weight and params on one slab, into
    out (see _walk): v is the field on the slab and its one-level halo,
    core the slab's levels in it, lv its L v on the slab, fac the
    conjugation factors over the halo, in complex form, and theta the
    norm's weights on the slab."""
    grid = factors.phi.space.weight.grid
    out[4] = _l2_density(grid, lv * fac[core])
    ext = v * fac
    w = ext[core]
    # each operator stack is reduced and dropped before the next is built
    out[0] = _l2_density(grid, apply_P1(w, _time_derivative(ext, dt, core), factors))
    grad = _spatial_gradient(w, grid.h)
    # one ordering rule: the norm reads the gradient before apply_P2 builds
    # its terms in the gradient's buffers
    out[2:4] = _norm_densities(w, grad, theta)
    out[1] = _l2_density(grid, apply_P2(w, grad, factors))
    out[5] = _boundary_term(w, factors.phi)


def _walk(fields: list, on_grid: PairOnGrid, params_list: list, q) -> list:
    """Each field's reports at every params of params_list, in order, for
    fields on on_grid's grid that share one time axis, with the real
    potential q: the slab-major core of carleman_ratios and constant_sweep
    (module notes, Streaming)."""
    grid, coeff = on_grid.grid, on_grid.coeff
    times = fields[0].times
    dt = time_step(times)
    nt = times.size
    # sampled as floats and cast once, as it multiplies complex stacks
    q_nodes = grid.sample(q).astype(complex)
    # phis[k][j]: weight j's phi factors at params k
    phis = [
        [_Phi.of(wgt, params, coeff, times) for wgt in on_grid.weights]
        for params in params_list
    ]
    shifts = [
        _common_log_shift([phi.space for phi in row], params)
        for row, params in zip(phis, params_list)
    ]
    # per field, weight, params and time level: |P1 w|^2, |P2 w|^2, the
    # norm's two integrands, |e^{-s phi} L v|^2 and the boundary integrand
    dens = np.zeros((len(fields), len(on_grid.weights), len(params_list), 6, nt))
    mirrored, lower = _plan(nt)
    slabs = [(slab, True) for slab in mirrored] + [(slab, False) for slab in lower]
    for (start, stop), everyone in slabs:
        takers = [
            i for i, fld in enumerate(fields)
            if max(start, fld.live[0]) < min(stop, fld.live[1])
            and (everyone or fld.phase is None)
        ]
        if not takers:
            continue
        lo, hi = max(start - 1, 0), min(stop + 1, nt)
        core = slice(start - lo, stop - lo)
        values = [fields[i].read(lo, hi) for i in takers]
        # d/dt at the slab's levels, from the halo, is the whole stack's at
        # start..stop-1, so L v is too
        residuals = [
            _schrodinger_stack(v[core], _time_derivative(v, dt, core), coeff,
                               q_nodes[None, :, :])
            for v in values
        ]
        for j in range(len(on_grid.weights)):
            theta = {}  # (lam, T) -> _theta_weights at the slab's levels
            for k, params in enumerate(params_list):
                part = phis[k][j].slab(start, stop)
                key = (params.lam, params.T)
                if key not in theta:
                    theta[key] = _theta_weights(part)
                factors = _Factors.of(part, times[start:stop])
                fac = _conjugation_factors(phis[k][j].slab(lo, hi), shifts[k])
                fac = fac.astype(complex)
                for i, v, lv in zip(takers, values, residuals):
                    _slab_densities(v, lv, core, fac, factors, theta[key], dt,
                                    dens[i, j, k, :, start:stop])
                # dropped before the next params' are built
                del factors, fac
        del values, residuals
    reports = []
    for fld, per_field in zip(fields, dens):
        # a level no stencil from the support reaches has densities 0, and
        # a level between the head and the middle of a mirrored field takes
        # its mirror's
        live_lo, live_hi = fld.live
        per_field[..., :live_lo] = 0.0
        per_field[..., live_hi:] = 0.0
        if lower and fld.phase is not None:
            mid = nt // 2
            per_field[..., HEAD:mid] = per_field[..., nt - 1 - HEAD : nt - 1 - mid : -1]
        # per params: lhs, rhs_residual, rhs_boundary, summed weight by weight
        sums = [[0.0, 0.0, 0.0] for _ in params_list]
        for per_weight in per_field:
            for params, per, acc in zip(params_list, per_weight, sums):
                # the sum keeps the order P1, P2, norm
                acc[0] += float(np.trapezoid(per[0], times))
                acc[0] += float(np.trapezoid(per[1], times))
                acc[0] += _norm_value(params, per[2], per[3], times)
                acc[1] += float(np.trapezoid(per[4], times))
                acc[2] += float(params.s * params.lam * np.trapezoid(per[5], times))
        reports.append([
            assemble_report(*acc, params.s, params.lam)
            for params, acc in zip(params_list, sums)
        ])
    return reports


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
    field-independent data, and the potential q is real.  This is
    constant_sweep's slab-major walk on the one field: for a field with
    v(-t) = c conj v(t), |c| = 1 (_mirror_phase), about half of the levels
    are evaluated and the others take their mirror's densities, bit for
    bit for c = +-1 and to rounding otherwise; only the slabs a stencil
    from v's time support reaches are evaluated (module notes).  Raises
    NonFiniteReport when a component overflows.
    """
    _require_time_resolution(v)
    field = _Field.of(v.times, lambda lo, hi: v.values[lo:hi])
    return _walk([field], PairOnGrid.of(weight_pair, v.grid), list(params_list),
                 q)[0]


def carleman_ratio(
    v: SpaceTimeField,
    weight_pair: EpsilonPair | PairOnGrid,
    params: CarlemanParams,
    q,
) -> CarlemanReport:
    """carleman_ratios at the one params."""
    return carleman_ratios(v, weight_pair, [params], q)[0]


def constant_sweep(
    suite: "FieldSuite",
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

    The suite's fields are assumed clamped at |t| = T - delta_t (delta_t
    defaults to T / 64, as in params_from_sup).  Stabilization means the
    per-s sups over the upper half of the s-range are positive and every
    consecutive relative change of them stays below 10 percent; a sweep
    whose ratios all flush to 0 is not stabilized.
    psi of both weights is scanned once, and every (s, lambda) is fitted
    to that one sup before any field is built (an overflow raises
    ParamsOverflow).  The whole suite is evaluated in one slab-major walk
    on on_grid, the pair on the suite's grid, with the real potential q:
    each slab's weight factors are built once for every field at every
    (s, lambda).  The suite is never held whole: its solved fields advance
    as one marched block in step with the slabs, and each separable field
    is built a slab at a time (module notes, Streaming).  q_inf is max |q|
    on the suite's grid, and rows come out in (s, lambda, field) order.
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

    grid = suite.grid
    reports = list(zip(*_walk(_suite_fields(suite), PairOnGrid.of(on_grid, grid),
                              fitted, q)))

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
    q_inf = float(np.max(np.abs(grid.sample(q))))
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
    """A test-field suite, held as the draws that define its fields.

    times is the one time axis of every field: operator's levels
    dt k, k = 0..n, reflected about t = 0, so exactly antisymmetric.
    len() is the number of fields: first operator's forward solution at
    those n steps from each purely imaginary initial state, extended to
    negative times by v(-t) = -conj v(t), then env(t) profile(x) on times
    for each (env, profile) of separable.  Every random draw was made with
    the suite, so every sweep over it sees the same fields bit for bit;
    constant_sweep builds them slab by slab and holds none whole.
    """

    grid: Grid2D
    operator: SchrodingerOperator
    initial_states: list
    times: np.ndarray
    separable: list

    def __len__(self) -> int:
        return len(self.initial_states) + len(self.separable)


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
    are mirrored: a solved field is odd-conjugate, and a manufactured
    field's envelope bump(t) e^{i (omega t + phase)} gives
    v(-t) = e^{2 i phase} conj v(t) to rounding (module notes, Mirror).
    Every field shares one time axis, the march's levels reflected about
    t = 0, which is exactly antisymmetric.  Every random parameter is
    drawn here, and one factored operator serves every solve; the fields
    are built as constant_sweep walks the suite (FieldSuite).
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
    t = op.dt * np.arange(n_steps + 1)
    times = np.concatenate([-t[:0:-1], t])
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
    return FieldSuite(grid, op, initial_states, times, separable)
