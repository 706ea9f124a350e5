"""Experiment configuration: a flat INI schema, validated with
field-path error messages, plus builders that turn the parsed blocks
into geometry, grids, and field profiles.

The schema is one table, KEYS: a row per key gives its section and INI
name, the rule that parses its value and checks its domain, its default
(or REQUIRED), a one-line doc, and the block field it fills; each
section's block, BLOCKS[section], is a frozen dataclass made from its
rows.  load_config loops over the table; only the two rules that read
two keys follow it: T/dt is an integer of at least 2 steps, and
delta_t < T.  Every error message starts with the section.key path.

Real profile grammar: ``constant C`` | ``sine BASE AMP`` (BASE +
AMP sin(x)cos(y)) | ``gaussian BASE AMP CX CY WIDTH``.  Complex profiles
accept the same forms plus ``cosine BASE AMP``, a half-period cosine in
both axes that equals BASE exactly on the rim (so Dirichlet data and
initial state are compatible), and the optional leading ``imag``.

The configuration hash covers the geometry, physics, carleman, and
inverse blocks (not output paths).
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import geometry as geo
from .pde_solver import Grid2D
from .weight import PiecewiseCoefficient


class ConfigError(Exception):
    """Schema violation; the message starts with the section.key path."""


# --------------------------------------------------------------------------
# the parsed config


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed block per section, an instance of BLOCKS[section]."""

    geometry: object
    physics: object
    carleman: object
    inverse: object
    output: object

    def flat(self) -> dict:
        """Canonical flat mapping of the hashed blocks."""
        out = {}
        for section in ("geometry", "physics", "carleman", "inverse"):
            block = getattr(self, section)
            for field in dataclasses.fields(block):
                out[f"{section}.{field.name}"] = _canonical(
                    getattr(block, field.name)
                )
        return out


def _canonical(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return " ".join(_canonical(v) for v in value)
    return str(value)


def config_hash(cfg: ExperimentConfig) -> str:
    flat = cfg.flat()
    text = "\n".join(f"{k}={flat[k]}" for k in sorted(flat))
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# parse rules: each takes (raw, path), the stripped value and its
# section.key, and returns the value or raises a ConfigError naming path


# The magnitude domain: every real token of every key (_finite reads
# each) has |v| <= MAGNITUDE_MAX = V, and each side of geometry.outer (it
# sets h) and physics.dt, the two scales the program divides by, is at
# least SCALE_MIN.  No product the solver, the trace, the misfit or its
# gradient forms can then overflow on a grid cli.MAX_FIELD_BYTES admits:
# a stack of 3 or more levels fits 2^30 bytes, so the grid has N < 2.3e7
# nodes, fewer than sqrt(N) < 4800 along its shorter side, and h > 2e-10.
# With a <= V and |p|, |y0| <= 2 V (a profile adds two numbers):
#   - the flux entries are below 4 a / h^2 < 1e26;
#   - a Cayley step is unitary plus the lift dt k_bnd g, |k_bnd| <=
#     sqrt(2) a / h^2, so over T <= V the state stays below
#     2 V sqrt(N) (1 + sqrt(2) T a / h^2) < 1e42;
#   - the trace a dnu y is below 6 a |y| / h < 3e58, its time derivative
#     below 4 / dt <= 4e6 times that, and with noise <= V the residual r
#     below 1e7 times it, 3e65;
#   - the misfit gradient, like a^2 |y|^2, is below 8 n_t^2 sqrt(N) a |y|
#     |r| (dt^2 + 32) < 3e126 n_t^2 sqrt(N) at a node; its n_t levels of
#     N >= 25 nodes fit the bound, n_t N <= 2^26, so that is below 2e140,
#     and its squared norm, below 1e253 (n_t N)^2 n_t^2, is below 1e282.
# The limits that are relative or depend on the geometry keep their own
# checks: s, lambda and delta_t (weight.params_from_sup), and the offset
# M1 = M2 + a1 - a2 (weight.certifiable_m2).
MAGNITUDE_MAX = 1e6
SCALE_MIN = 1e-6

# Three more lengths are divided by, each squared: the interface radius
# (disk R, fourier C0), the gaussian profile width and the gap R2 - R1 of
# the cutoff radii.  Each is at least LENGTH_MIN, a SCALE_MIN part of the
# smallest outer side, so a distance in the outer domain (below 2 sqrt(2)
# V < 3e6) is less than 3e18 times it, and that ratio's square less than
# 1e37: the curvature's r^2 stays above 1e-24, the gaussian's exponent
# -d^2 / width^2 stays finite (its exp underflows to 0 quietly), and the
# cutoff's second derivative, 60 u (1 - u)(1 - 2u) / gap^2, stays below
# 6e25.  LENGTH_MIN is below SCALE_MIN because an outer domain of sides
# SCALE_MIN holds an interface of radius 2.5e-7, and a smaller cutoff gap.
LENGTH_MIN = SCALE_MIN * SCALE_MIN


def _finite(token: str, path: str) -> float:
    """token as a finite float in the magnitude domain, or a ConfigError
    naming the field path."""
    try:
        val = float(token)
    except ValueError:
        raise ConfigError(f"{path}: not a number: {token!r}") from None
    if not math.isfinite(val):
        raise ConfigError(f"{path}: must be finite, got {token!r}")
    if abs(val) > MAGNITUDE_MAX:
        raise ConfigError(f"{path}: {token!r} is outside the magnitude "
                          f"domain |v| <= {MAGNITUDE_MAX:g}")
    return val


def _floats(raw: str, path: str) -> tuple:
    return tuple(_finite(tok, path) for tok in raw.split())


def _pair(raw: str, path: str) -> tuple:
    vals = _floats(raw, path)
    if len(vals) != 2:
        raise ConfigError(f"{path}: expected 2 numbers, got {len(vals)}")
    return vals


def _text(raw: str, path: str) -> str:
    return raw


def _checked(parse, ok, why: str, each: bool = False):
    """parse, then a ConfigError "path: why" unless ok(value), or unless
    ok(v) for each v of the value's list; why is formatted with the value
    (or the v) that fails."""
    def rule(raw: str, path: str):
        value = parse(raw, path)
        for v in (value if each else (value,)):
            if not ok(v):
                raise ConfigError(f"{path}: " + why.format(v))
        return value
    return rule


_positive = _checked(_finite, lambda v: v > 0.0, "must be positive, got {}")
_nonnegative = _checked(_finite, lambda v: v >= 0.0, "must be nonnegative")


def _integer(minimum: int, maximum: Optional[int] = None):
    def rule(raw: str, path: str) -> int:
        try:
            val = int(raw)
        except ValueError:
            raise ConfigError(f"{path}: not an integer: {raw!r}") from None
        if val < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {val}")
        if maximum is not None and val > maximum:
            raise ConfigError(f"{path}: must be <= {maximum}, got {val}")
        return val
    return rule


def _bound_or_inf(raw: str, path: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{path}: not a number: {raw!r}") from None
    # inf switches the box off; nan would switch it off silently
    if not val >= 0.0:
        raise ConfigError(f"{path}: must be nonnegative or inf, got {raw!r}")
    return val


_PROFILE_ARITY = {"constant": 1, "sine": 2, "gaussian": 5, "cosine": 2}


def _profile(complex_ok: bool):
    def rule(raw: str, path: str) -> str:
        tokens = raw.split()
        if complex_ok and tokens[0] == "imag":
            tokens = tokens[1:]
        if not tokens:
            raise ConfigError(f"{path}: empty profile")
        kind = tokens[0]
        if kind not in _PROFILE_ARITY or (kind == "cosine" and not complex_ok):
            raise ConfigError(f"{path}: unknown profile kind {kind!r}")
        want = _PROFILE_ARITY[kind]
        args = tokens[1:]
        if len(args) != want:
            raise ConfigError(
                f"{path}: profile {kind!r} takes {want} numbers, got {len(args)}"
            )
        for tok in args:
            _finite(tok, path)
        if kind == "gaussian" and not abs(float(args[4])) >= LENGTH_MIN:
            raise ConfigError(f"{path}: the gaussian width must be at least "
                              f"{LENGTH_MIN:g} in magnitude, got {args[4]}")
        return " ".join(raw.split())
    return rule


def _outer(raw: str, path: str) -> tuple:
    tokens = raw.split()
    kind = tokens[0]
    if kind != "rect":
        raise ConfigError(f"{path}: unknown outer kind {kind!r}")
    if len(tokens) != 5:
        raise ConfigError(f"{path}: rect takes 4 numbers")
    xmin, xmax, ymin, ymax = (_finite(t, path) for t in tokens[1:])
    if not min(xmax - xmin, ymax - ymin) >= SCALE_MIN:
        raise ConfigError(f"{path}: each side must be at least {SCALE_MIN:g}, "
                          f"got {xmax - xmin:g} by {ymax - ymin:g}")
    return ("rect", xmin, xmax, ymin, ymax)


def _interface(raw: str, path: str) -> tuple:
    tokens = raw.split()
    kind = tokens[0]
    if kind == "disk":
        if len(tokens) not in (2, 4):
            raise ConfigError(f"{path}: disk takes R [CX CY]")
        r, cx, cy = _finite(tokens[1], path), 0.0, 0.0
        if len(tokens) == 4:
            cx, cy = (_finite(t, path) for t in tokens[2:4])
        if not r >= LENGTH_MIN:
            raise ConfigError(f"{path}: radius must be at least "
                              f"{LENGTH_MIN:g}, got {tokens[1]}")
        return ("disk", r, cx, cy)
    if kind == "fourier":
        if len(tokens) not in (3, 5):
            raise ConfigError(f"{path}: fourier takes C0 K:EPS[,K:EPS...] [CX CY]")
        c0 = _finite(tokens[1], path)
        if not c0 >= LENGTH_MIN:
            raise ConfigError(f"{path}: C0 must be at least {LENGTH_MIN:g}, "
                              f"got {tokens[1]}")
        harmonics = []
        for item in tokens[2].split(","):
            k_str, _, eps_str = item.partition(":")
            try:
                k = int(k_str)
            except ValueError:
                raise ConfigError(f"{path}: not an integer: {k_str!r}") from None
            harmonics.append((k, _finite(eps_str, path)))
        cx, cy = 0.0, 0.0
        if len(tokens) == 5:
            cx, cy = (_finite(t, path) for t in tokens[3:5])
        return ("fourier", c0, tuple(harmonics), cx, cy)
    raise ConfigError(f"{path}: unknown interface kind {kind!r}")


def _formats(raw: str, path: str) -> tuple:
    formats = tuple(raw.split())
    for fmt in formats:
        if fmt not in ("csv", "json", "svg"):
            raise ConfigError(f"{path}: unknown format {fmt!r}")
    return formats


# --------------------------------------------------------------------------
# the key table


REQUIRED = object()


@dataclass(frozen=True)
class Key:
    """One config key: its section and INI name, the rule that parses a
    value and checks its domain, the default (REQUIRED: none), a one-line
    doc, and the block field it fills, the name unless given."""

    section: str
    name: str
    parse: Callable[[str, str], object]
    default: object
    doc: str
    field: str = ""

    @property
    def path(self) -> str:
        return f"{self.section}.{self.name}"

    @property
    def attr(self) -> str:
        return self.field or self.name


# the psi scan for alpha holds about 82 bytes per point of its
# n_grid x n_grid grid: 344 MB at this bound
N_GRID_MAX = 2048

# each perturbation of the stability sweep is one forward solve, about
# 18 ms on configs/default.ini, and keeps a record of about 640 bytes:
# 30 minutes and 64 MB at this bound
N_PERTURBATIONS_MAX = 100_000

KEYS = (
    Key("geometry", "outer", _outer, REQUIRED,
        "rect XMIN XMAX YMIN YMAX, the outer domain; |v| <= 1e6, each "
        "side >= 1e-6"),
    Key("geometry", "interface", _interface, REQUIRED,
        "disk R [CX CY] | fourier C0 K:EPS[,K:EPS...] [CX CY]; |v| <= 1e6 "
        "but K, R and C0 >= 1e-12"),
    Key("geometry", "x0", _pair, (0.0, 0.0),
        "X Y, the weight centre of single-weight operations; |v| <= 1e6"),
    Key("geometry", "x1", _pair, (-0.3, 0.0),
        "X Y, the sweep's first centre; |v| <= 1e6"),
    Key("geometry", "x2", _pair, (0.3, 0.0),
        "X Y, the sweep's second centre; |v| <= 1e6"),
    Key("physics", "a1", _positive, REQUIRED,
        "principal coefficient inside the interface, 0 < a1 <= 1e6"),
    Key("physics", "a2", _positive, REQUIRED,
        "principal coefficient outside, 0 < a2 <= 1e6"),
    Key("physics", "p", _profile(False), "constant 1.0",
        "true potential, a real profile; |v| <= 1e6, |WIDTH| >= 1e-12"),
    Key("physics", "y0", _profile(True), "cosine 2.0 0.5",
        "initial state, [imag] profile; |v| <= 1e6, |WIDTH| >= 1e-12"),
    Key("physics", "h", _checked(_text, lambda h: h == "initial",
                                 "must be 'initial', got {!r}"),
        "initial", "Dirichlet data: y0's rim, held at every time"),
    Key("physics", "T", _positive, REQUIRED, "time horizon, 0 < T <= 1e6"),
    Key("physics", "nx", _integer(5), REQUIRED, "grid nodes along x, >= 5"),
    Key("physics", "ny", _integer(5), None,
        "grid nodes along y, >= 5; derived from square spacing if absent"),
    Key("physics", "dt", _checked(_finite, lambda v: v >= SCALE_MIN,
                                  f"must be at least {SCALE_MIN:g}, got {{}}"),
        REQUIRED, "forward time step, 1e-6 <= dt <= 1e6; T/dt an integer >= 2"),
    Key("carleman", "s", _checked(_floats, lambda v: v >= 0.0,
                                  "values must be nonnegative, got {}", each=True),
        (10.0, 20.0, 40.0, 80.0), "the sweep's s values, 0 <= s <= 1e6"),
    Key("carleman", "lambda", _checked(_floats, lambda v: v > 0.0,
                                       "values must be positive, got {}", each=True),
        (1.0, 2.0), "the sweep's lambda values, 0 < lambda <= 1e6",
        field="lam"),
    Key("carleman", "M2", _positive, 1.0, "outer weight offset, 0 < M2 <= 1e6"),
    Key("carleman", "delta_t", _positive, None,
        "weight time margin, 0 < delta_t < T; T/64 if absent"),
    Key("carleman", "cutoff", _checked(
            _pair, lambda r: 0.0 < r[0] and r[1] - r[0] >= LENGTH_MIN,
            f"radii must satisfy 0 < r_inner and r_outer - r_inner >= "
            f"{LENGTH_MIN:g}, got {{0[0]}} {{0[1]}}"),
        None, "R1 R2, dead-zone radii, 0 < R1, R2 - R1 >= 1e-12, R2 <= 1e6; eps "
        "rule if absent"),
    Key("carleman", "n_fields", _integer(1), 10,
        "test suite size, half solved and half manufactured, >= 1"),
    Key("carleman", "n_half", _integer(2), 16,
        "forward steps per half time axis of the suite, >= 2"),
    Key("carleman", "n_grid", _integer(16, N_GRID_MAX), 192,
        f"psi scan resolution for alpha, 16 to {N_GRID_MAX}"),
    Key("carleman", "seed", _integer(0), 0, "suite randomness, >= 0"),
    Key("inverse", "beta", _nonnegative, 1e-6,
        "Tikhonov weight, 0 <= beta <= 1e6"),
    Key("inverse", "max_iter", _integer(0), 100, "descent iterations, >= 0"),
    Key("inverse", "n_perturbations", _integer(0, N_PERTURBATIONS_MAX), 30,
        f"stability sweep size, 0 to {N_PERTURBATIONS_MAX} "
        "(stability needs >= 1)"),
    Key("inverse", "amplitudes", _checked(
            _pair, lambda a: 0.0 < a[0] <= a[1],
            "need 0 < LO <= HI, got {0[0]} {0[1]}"),
        (1e-3, 1e-1),
        "LO HI, log-spaced perturbation sizes, 0 < LO <= HI <= 1e6"),
    Key("inverse", "seed", _integer(0), 7, "perturbation and noise seed, >= 0"),
    Key("inverse", "noise", _nonnegative, 0.0,
        "relative trace noise level, 0 <= noise <= 1e6"),
    Key("inverse", "q0", _profile(False), "constant 1.0",
        "initial guess of the reconstruction, a real profile; |v| <= 1e6, "
        "|WIDTH| >= 1e-12"),
    Key("inverse", "r_lower", _positive, 0.5,
        "lower bound required of |y0|, 0 < r_lower <= 1e6"),
    Key("inverse", "q_bound", _bound_or_inf, math.inf,
        "sup-norm box for potentials, >= 0 (inf: no box)"),
    Key("output", "directory", _text, "out", "output directory"),
    Key("output", "formats", _formats, ("csv", "json", "svg"),
        "any subset of csv json svg"),
)


def _n_steps(physics) -> int:
    """PhysicsBlock.n_steps: the number of forward time steps, T/dt."""
    return int(round(physics.T / physics.dt))


# One frozen dataclass per section, with a field per KEYS row of the
# section in table order and the members _MEMBERS adds; make_dataclass
# takes the module only through the namespace before Python 3.12.
_MEMBERS = {"physics": {"n_steps": property(_n_steps)}}
BLOCKS = {
    section: dataclasses.make_dataclass(
        f"{section.capitalize()}Block",
        [key.attr for key in KEYS if key.section == section], frozen=True,
        namespace={"__module__": __name__, **_MEMBERS.get(section, {})},
    )
    for section in dict.fromkeys(key.section for key in KEYS)
}


# --------------------------------------------------------------------------
# loading


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str          # keys are case-sensitive, as documented
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"file: not parseable as INI ({exc})") from None

    for section in parser.sections():
        if section not in BLOCKS:
            raise ConfigError(f"{section}: unknown section")
    raw = {name: dict(parser[name]) if parser.has_section(name) else {}
           for name in BLOCKS}
    for name, given in raw.items():
        unknown = set(given) - {key.name for key in KEYS if key.section == name}
        if unknown:
            raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown key")

    values = {name: {} for name in BLOCKS}
    for key in KEYS:
        value = (raw[key.section].get(key.name) or "").strip()
        if value:
            value = key.parse(value, key.path)
        elif key.default is REQUIRED:
            raise ConfigError(f"{key.path}: required key is missing")
        else:
            value = key.default
        values[key.section][key.attr] = value

    # the two rules that read two keys
    T, dt = values["physics"]["T"], values["physics"]["dt"]
    steps = T / dt
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
        raise ConfigError(
            f"physics.dt: T/dt must be an integer number of steps, got {steps}"
        )
    if round(steps) < 2:
        raise ConfigError("physics.dt: need at least 2 time steps")
    delta_t = values["carleman"]["delta_t"]
    if delta_t is not None and not delta_t < T:
        raise ConfigError("carleman.delta_t: must be smaller than physics.T")

    return ExperimentConfig(**{
        name: block(**values[name]) for name, block in BLOCKS.items()
    })

def apply_overrides(cfg: ExperimentConfig, *, seed: Optional[int] = None,
                    n: Optional[int] = None) -> ExperimentConfig:
    """Resolve CLI flags into a new config (so the hash reflects them)."""
    if seed is not None:
        if seed < 0:
            raise ConfigError("--seed: must be nonnegative")
        cfg = dataclasses.replace(
            cfg,
            carleman=dataclasses.replace(cfg.carleman, seed=seed),
            inverse=dataclasses.replace(cfg.inverse, seed=seed),
        )
    if n is not None:
        if n < 0:
            raise ConfigError("--n: must be nonnegative")
        cfg = dataclasses.replace(
            cfg,
            carleman=dataclasses.replace(cfg.carleman, n_fields=max(n, 1)),
            inverse=dataclasses.replace(cfg.inverse, n_perturbations=n),
        )
    return cfg


# --------------------------------------------------------------------------
# builders


def build_layout(cfg: ExperimentConfig) -> geo.DomainLayout:
    outer = geo.RectangularDomain(*cfg.geometry.outer[1:])
    iface_spec = cfg.geometry.interface
    try:
        if iface_spec[0] == "disk":
            _, r, cx, cy = iface_spec
            interface = geo.disk_interface(r, center=(cx, cy), n=256)
        else:
            _, c0, harmonics, cx, cy = iface_spec
            interface = geo.fourier_interface(
                c0, harmonics=harmonics, center=(cx, cy), n=256
            )
        return geo.DomainLayout(outer, interface)
    except geo.GeometryError as exc:
        raise ConfigError(f"geometry.interface: {exc}") from None


def build_grid(cfg: ExperimentConfig) -> Grid2D:
    layout = build_layout(cfg)
    try:
        return Grid2D.from_layout(layout, cfg.physics.nx, cfg.physics.ny)
    except Exception as exc:
        # nx and ny are each >= 5 here, so a given ny can only disagree
        # with the square spacing nx sets
        key = "nx" if cfg.physics.ny is None else "ny"
        raise ConfigError(f"physics.{key}: {exc}") from None


def build_coefficient(cfg: ExperimentConfig, layout: geo.DomainLayout):
    return PiecewiseCoefficient(cfg.physics.a1, cfg.physics.a2, layout)


def real_profile(spec: str, grid: Grid2D) -> np.ndarray:
    return _eval_profile(spec.split(), grid).real


def complex_profile(spec: str, grid: Grid2D) -> np.ndarray:
    tokens = spec.split()
    factor = 1.0 + 0.0j
    if tokens[0] == "imag":
        factor = 1.0j
        tokens = tokens[1:]
    return factor * _eval_profile(tokens, grid)


def _eval_profile(tokens, grid: Grid2D) -> np.ndarray:
    kind, args = tokens[0], [float(t) for t in tokens[1:]]
    pts = grid.points
    x, y = pts[..., 0], pts[..., 1]
    if kind == "constant":
        return np.full(grid.shape, args[0], dtype=complex)
    if kind == "sine":
        base, amp = args
        return (base + amp * np.sin(x) * np.cos(y)).astype(complex)
    if kind == "gaussian":
        base, amp, cx, cy, width = args
        return (base + amp * np.exp(
            -((x - cx) ** 2 + (y - cy) ** 2) / width**2
        )).astype(complex)
    if kind == "cosine":
        base, amp = args
        xmin, xmax, ymin, ymax = grid.layout.outer.bounds
        mx = 0.5 * (xmin + xmax)
        my = 0.5 * (ymin + ymax)
        return (base + amp
                * np.cos(np.pi * (x - mx) / (xmax - xmin))
                * np.cos(np.pi * (y - my) / (ymax - ymin))).astype(complex)
    raise ConfigError(f"profile: unknown kind {kind!r}")
