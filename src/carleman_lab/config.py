"""Experiment configuration: a flat INI schema, validated with
field-path error messages, plus builders that turn the parsed blocks
into geometry, grids, and field profiles.

Schema (all keys shown; optional ones may be omitted):

    [geometry]
    outer     = rect XMIN XMAX YMIN YMAX   (the outer domain is a rectangle)
    interface = disk R [CX CY]             | fourier C0 K:EPS[,K:EPS...] [CX CY]
    x0        = X Y        weight center for single-weight operations
    x1        = X Y        epsilon-pair centers for the sweep
    x2        = X Y

    [physics]
    a1 = FLOAT             principal coefficient inside the interface
    a2 = FLOAT             principal coefficient outside
    p  = PROFILE           potential (real profile grammar below)
    y0 = [imag] PROFILE    initial state; "imag" multiplies by i
    h  = initial           Dirichlet data: y0's rim, held at every time
    T  = FLOAT             time horizon
    nx = INT               grid nodes along x
    ny = INT               optional; derived from square spacing if absent
    dt = FLOAT             forward time step; T/dt must be an integer

    [carleman]
    s       = FLOAT...     list of s values for the sweep
    lambda  = FLOAT...     list of lambda values
    M2      = FLOAT        outer weight offset
    delta_t = FLOAT        weight time margin; default T/64
    cutoff  = R1 R2        optional dead-zone radii, 0 < R1 < R2
    n_fields = INT         test suite size (half solved, half manufactured)
    n_half  = INT          forward steps per half time axis for the suite
    n_grid  = INT          headroom scan resolution for alpha
    seed    = INT          suite randomness, >= 0

    [inverse]
    beta = FLOAT           Tikhonov weight
    max_iter = INT
    n_perturbations = INT
    amplitudes = LO HI     log-spaced perturbation sizes, 0 < LO <= HI
    seed = INT             >= 0
    noise = FLOAT          relative trace noise level
    q0 = PROFILE           initial guess for reconstruction
    r_lower = FLOAT        lower bound required of |y0|
    q_bound = FLOAT        sup-norm box for potentials, >= 0 (inf: no box)

    [output]
    directory = PATH
    formats = csv json svg (any subset)

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
from typing import Optional

import numpy as np

from . import geometry as geo
from .pde_solver import Grid2D
from .weight import PiecewiseCoefficient


class ConfigError(Exception):
    """Schema violation; the message starts with the section.key path."""


# --------------------------------------------------------------------------
# parsed blocks


@dataclass(frozen=True)
class GeometryBlock:
    outer: tuple          # ("rect", xmin, xmax, ymin, ymax)
    interface: tuple      # ("disk", r, cx, cy) | ("fourier", c0, ((k, eps), ...), cx, cy)
    x0: tuple
    x1: tuple
    x2: tuple


@dataclass(frozen=True)
class PhysicsBlock:
    a1: float
    a2: float
    p: str
    y0: str
    h: str
    T: float
    nx: int
    ny: Optional[int]
    dt: float

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class CarlemanBlock:
    s: tuple
    lam: tuple
    M2: float
    delta_t: Optional[float]
    cutoff: Optional[tuple]
    n_fields: int
    n_half: int
    n_grid: int
    seed: int


@dataclass(frozen=True)
class InverseBlock:
    beta: float
    max_iter: int
    n_perturbations: int
    amplitudes: tuple
    seed: int
    noise: float
    q0: str
    r_lower: float
    q_bound: float


@dataclass(frozen=True)
class OutputBlock:
    directory: str
    formats: tuple


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: GeometryBlock
    physics: PhysicsBlock
    carleman: CarlemanBlock
    inverse: InverseBlock
    output: OutputBlock

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
# low-level readers


def _finite(token: str, path: str) -> float:
    """token as a finite float, or a ConfigError naming the field path."""
    try:
        val = float(token)
    except ValueError:
        raise ConfigError(f"{path}: not a number: {token!r}") from None
    if not math.isfinite(val):
        raise ConfigError(f"{path}: must be finite, got {token!r}")
    return val


class _Section:
    """Reads one INI section with field-path errors and typo detection."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.raw = dict(parser[name]) if parser.has_section(name) else {}
        self.seen = set()

    def path(self, key: str) -> str:
        return f"{self.name}.{key}"

    def get(self, key: str, default=None, required: bool = False) -> Optional[str]:
        self.seen.add(key)
        val = self.raw.get(key)
        if val is not None:
            val = val.strip()
        if not val:
            if required:
                raise ConfigError(f"{self.path(key)}: required key is missing")
            return default
        return val

    def floatval(self, key, default=None, required=False, positive=False):
        raw = self.get(key, required=required)
        if raw is None:
            return default
        val = _finite(raw, self.path(key))
        if positive and not val > 0.0:
            raise ConfigError(f"{self.path(key)}: must be positive, got {val}")
        return val

    def intval(self, key, default=None, required=False, minimum=None):
        raw = self.get(key, required=required)
        if raw is None:
            return default
        try:
            val = int(raw)
        except ValueError:
            raise ConfigError(f"{self.path(key)}: not an integer: {raw!r}") from None
        if minimum is not None and val < minimum:
            raise ConfigError(f"{self.path(key)}: must be >= {minimum}, got {val}")
        return val

    def floats(self, key, count=None, default=None):
        raw = self.get(key)
        if raw is None:
            return default
        vals = tuple(_finite(tok, self.path(key)) for tok in raw.split())
        if count is not None and len(vals) != count:
            raise ConfigError(
                f"{self.path(key)}: expected {count} numbers, got {len(vals)}"
            )
        if not vals:
            raise ConfigError(f"{self.path(key)}: empty list")
        return vals

    def finish(self):
        unknown = set(self.raw) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"{self.path(key)}: unknown key")


_PROFILE_ARITY = {"constant": 1, "sine": 2, "gaussian": 5, "cosine": 2}


def _check_profile(spec: str, path: str, complex_ok: bool) -> str:
    tokens = spec.split()
    if complex_ok and tokens and tokens[0] == "imag":
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
    return " ".join(spec.split())


def _parse_outer(sec: _Section) -> tuple:
    raw = sec.get("outer", required=True)
    tokens = raw.split()
    kind = tokens[0]
    path = sec.path("outer")
    if kind != "rect":
        raise ConfigError(f"{path}: unknown outer kind {kind!r}")
    if len(tokens) != 5:
        raise ConfigError(f"{path}: rect takes 4 numbers")
    xmin, xmax, ymin, ymax = (_finite(t, path) for t in tokens[1:])
    if not (xmax > xmin and ymax > ymin):
        raise ConfigError(f"{path}: degenerate rectangle")
    return ("rect", xmin, xmax, ymin, ymax)


def _parse_interface(sec: _Section) -> tuple:
    raw = sec.get("interface", required=True)
    tokens = raw.split()
    kind = tokens[0]
    path = sec.path("interface")
    if kind == "disk":
        if len(tokens) not in (2, 4):
            raise ConfigError(f"{path}: disk takes R [CX CY]")
        r, cx, cy = _finite(tokens[1], path), 0.0, 0.0
        if len(tokens) == 4:
            cx, cy = (_finite(t, path) for t in tokens[2:4])
        if not r > 0.0:
            raise ConfigError(f"{path}: radius must be positive")
        return ("disk", r, cx, cy)
    if kind == "fourier":
        if len(tokens) not in (3, 5):
            raise ConfigError(f"{path}: fourier takes C0 K:EPS[,K:EPS...] [CX CY]")
        c0 = _finite(tokens[1], path)
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

    known = {"geometry", "physics", "carleman", "inverse", "output"}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"{section}: unknown section")

    gsec = _Section(parser, "geometry")
    geometry = GeometryBlock(
        outer=_parse_outer(gsec),
        interface=_parse_interface(gsec),
        x0=gsec.floats("x0", count=2, default=(0.0, 0.0)),
        x1=gsec.floats("x1", count=2, default=(-0.3, 0.0)),
        x2=gsec.floats("x2", count=2, default=(0.3, 0.0)),
    )
    gsec.finish()

    psec = _Section(parser, "physics")
    T = psec.floatval("T", required=True, positive=True)
    dt = psec.floatval("dt", required=True, positive=True)
    steps = T / dt
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
        raise ConfigError(
            f"physics.dt: T/dt must be an integer number of steps, got {steps}"
        )
    if round(steps) < 2:
        raise ConfigError("physics.dt: need at least 2 time steps")
    # one rule; the key stays, as its value is part of the config hash
    h_spec = psec.get("h", default="initial")
    if h_spec != "initial":
        raise ConfigError(f"physics.h: must be 'initial', got {h_spec!r}")
    physics = PhysicsBlock(
        a1=psec.floatval("a1", required=True, positive=True),
        a2=psec.floatval("a2", required=True, positive=True),
        p=_check_profile(psec.get("p", default="constant 1.0"), "physics.p", False),
        y0=_check_profile(psec.get("y0", default="cosine 2.0 0.5"), "physics.y0", True),
        h=h_spec,
        T=T,
        nx=psec.intval("nx", required=True, minimum=5),
        ny=psec.intval("ny", default=None, minimum=5),
        dt=dt,
    )
    psec.finish()

    csec = _Section(parser, "carleman")
    carleman = CarlemanBlock(
        s=csec.floats("s", default=(10.0, 20.0, 40.0, 80.0)),
        lam=csec.floats("lambda", default=(1.0, 2.0)),
        M2=csec.floatval("M2", default=1.0, positive=True),
        delta_t=csec.floatval("delta_t", default=None, positive=True),
        cutoff=csec.floats("cutoff", count=2, default=None),
        n_fields=csec.intval("n_fields", default=10, minimum=1),
        n_half=csec.intval("n_half", default=16, minimum=2),
        n_grid=csec.intval("n_grid", default=192, minimum=16),
        seed=csec.intval("seed", default=0, minimum=0),
    )
    for s_val in carleman.s:
        if s_val < 0.0:
            raise ConfigError(f"carleman.s: values must be nonnegative, got {s_val}")
    for lam in carleman.lam:
        if not lam > 0.0:
            raise ConfigError(f"carleman.lambda: values must be positive, got {lam}")
    if carleman.delta_t is not None and not carleman.delta_t < T:
        raise ConfigError("carleman.delta_t: must be smaller than physics.T")
    cutoff = carleman.cutoff
    if cutoff is not None and not 0.0 < cutoff[0] < cutoff[1]:
        raise ConfigError(
            "carleman.cutoff: radii must satisfy 0 < r_inner < r_outer, "
            f"got {cutoff[0]} {cutoff[1]}"
        )
    csec.finish()

    isec = _Section(parser, "inverse")
    amplitudes = isec.floats("amplitudes", count=2, default=(1e-3, 1e-1))
    if not 0.0 < amplitudes[0] <= amplitudes[1]:
        raise ConfigError(
            "inverse.amplitudes: need 0 < LO <= HI, "
            f"got {amplitudes[0]} {amplitudes[1]}"
        )
    noise = isec.floatval("noise", default=0.0)
    if noise < 0.0:
        raise ConfigError("inverse.noise: must be nonnegative")
    q_bound_raw = isec.get("q_bound", default="inf")
    try:
        q_bound = float(q_bound_raw)
    except ValueError:
        raise ConfigError(f"inverse.q_bound: not a number: {q_bound_raw!r}") from None
    # inf switches the box off; nan would switch it off silently
    if not q_bound >= 0.0:
        raise ConfigError(
            f"inverse.q_bound: must be nonnegative or inf, got {q_bound_raw!r}"
        )
    inverse = InverseBlock(
        beta=isec.floatval("beta", default=1e-6),
        max_iter=isec.intval("max_iter", default=100, minimum=0),
        n_perturbations=isec.intval("n_perturbations", default=30, minimum=0),
        amplitudes=amplitudes,
        seed=isec.intval("seed", default=7, minimum=0),
        noise=noise,
        q0=_check_profile(isec.get("q0", default="constant 1.0"), "inverse.q0", False),
        r_lower=isec.floatval("r_lower", default=0.5, positive=True),
        q_bound=q_bound,
    )
    if inverse.beta < 0.0:
        raise ConfigError("inverse.beta: must be nonnegative")
    isec.finish()

    osec = _Section(parser, "output")
    formats_raw = osec.get("formats", default="csv json svg")
    formats = tuple(formats_raw.split())
    for fmt in formats:
        if fmt not in ("csv", "json", "svg"):
            raise ConfigError(f"output.formats: unknown format {fmt!r}")
    output = OutputBlock(
        directory=osec.get("directory", default="out"),
        formats=formats,
    )
    osec.finish()

    return ExperimentConfig(
        geometry=geometry, physics=physics, carleman=carleman,
        inverse=inverse, output=output,
    )


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
