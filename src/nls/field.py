"""Periodic-box discretization, spectral operators, and norms.

The whole space is truncated to the periodic box [-L/2, L/2)^N sampled on
M^N points (M a power of two).  The linear Schrodinger group e^{it Lap} is
exact on the grid (diagonal Fourier multiplier), and all integrals use the
equal-weight rule, which is spectrally accurate for smooth periodic
integrands.  Fields are expected to be negligible near the boundary; |x| is
always measured from the box center with no periodic wrapping.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union

import numpy as np
import scipy.fft

from .exponents import ModelParams

CHECKPOINT_MAGIC = b"NLSF"
CHECKPOINT_VERSION = 1
# magic(4) + version(4) + dim(4) + M(4) + L(8) + 8 reserved bytes = 32
_HEADER = struct.Struct("<4sIIId8x")


@dataclass(frozen=True)
class GridSpec:
    """Cubic periodic box: [-L/2, L/2)^dim with M points per dimension."""

    dim: int
    box_length: float
    points: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not self.box_length > 0:
            raise ValueError("box_length must be positive")
        m = self.points
        if m < 8 or (m & (m - 1)) != 0:
            raise ValueError(f"points must be a power of two >= 8, got {m}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.points

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Grid nodes along one axis: -L/2 + j h, j = 0..M-1."""
        return -self.box_length / 2 + self.spacing * np.arange(self.points)

    def coordinate_arrays(self) -> tuple:
        """Per-axis coordinate arrays broadcastable to the field shape."""
        x = self.axis_coordinates()
        return tuple(
            x.reshape((1,) * d + (-1,) + (1,) * (self.dim - 1 - d))
            for d in range(self.dim)
        )

    def radius_squared(self) -> np.ndarray:
        """|x|^2 from the box center, shape = field shape."""
        r2 = np.zeros(self.shape)
        for xd in self.coordinate_arrays():
            r2 = r2 + xd**2
        return r2


@lru_cache(maxsize=32)
def axis_wavenumbers(box_length: float, points: int) -> np.ndarray:
    """Angular wavenumbers of one axis, in FFT order."""
    k1 = 2 * np.pi * np.fft.fftfreq(points, d=box_length / points)
    k1.flags.writeable = False
    return k1


@lru_cache(maxsize=32)
def _wavenumbers(dim: int, box_length: float, points: int):
    """(|k|^2 multiplier, per-axis derivative wavenumbers with Nyquist zeroed)."""
    k1 = axis_wavenumbers(box_length, points)
    k2 = np.zeros((points,) * dim)
    kd = []
    for d in range(dim):
        shape = (1,) * d + (-1,) + (1,) * (dim - 1 - d)
        k2 = k2 + k1.reshape(shape) ** 2
        kder = k1.copy()
        kder[points // 2] = 0.0  # Nyquist: odd derivative multiplier is zeroed
        kd.append(kder.reshape(shape))
    return k2, tuple(kd)


@dataclass(frozen=True)
class FieldState:
    """Complex field samples on a grid at a given time.

    Treated as immutable: operations return new states.
    """

    grid: GridSpec
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if self.values.dtype != np.complex128:
            object.__setattr__(self, "values", self.values.astype(np.complex128))

    def with_values(self, values: np.ndarray, time: Optional[float] = None) -> "FieldState":
        return replace(self, values=values, time=self.time if time is None else time)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values.view(np.float64))))


@dataclass(frozen=True)
class Norms:
    l2: float
    lp: float
    linf: float
    weighted_l2: float
    h1: float
    p: float


def linear_propagate(state: FieldState, dt: float) -> FieldState:
    """Exact free propagator: each Fourier mode times e^{-i|k|^2 dt}.

    A group, not a semigroup: dt may be negative.  Unitary on the grid.
    """
    g = state.grid
    k2, _ = _wavenumbers(g.dim, g.box_length, g.points)
    uk = scipy.fft.fftn(state.values)
    uk *= np.exp(-1j * k2 * dt)
    return state.with_values(scipy.fft.ifftn(uk), time=state.time + dt)


def spectral_tail_fraction(state: FieldState) -> float:
    """Energy fraction in the top octave of modes (any axis |k_d| >= k_max/2).

    The resolution criterion for production runs: a well-resolved field keeps
    this below 1e-8.  Used instead of a dealiasing rule, which cannot be
    exact for non-polynomial nonlinearities.
    """
    g = state.grid
    uk = scipy.fft.fftn(state.values)
    power = uk.real**2 + uk.imag**2
    m = g.points
    idx = np.fft.fftfreq(m, d=1.0 / m)  # integer mode numbers
    top1d = np.abs(idx) >= m // 4  # top octave: |m_d| in [M/4, M/2]
    mask = np.zeros(g.shape, dtype=bool)
    for d in range(g.dim):
        shape = (1,) * d + (-1,) + (1,) * (g.dim - 1 - d)
        mask |= top1d.reshape(shape)
    total = float(np.sum(power))
    return float(np.sum(power[mask])) / total if total > 0 else 0.0


@lru_cache(maxsize=32)
def exponential_filter(points: int) -> np.ndarray:
    """Smooth high-order exponential filter exp(-36 (|k_d|/k_max)^36) of one axis.

    The N-D filter is the product of this profile over the axes.  Optional
    stress-run smoothing; off by default since the split-step with exact
    substeps needs no stabilization on resolved fields.
    """
    m = points
    eta = np.abs(np.fft.fftfreq(m, d=1.0 / m)) / (m / 2)
    f1d = np.exp(-36.0 * eta**36)
    f1d.flags.writeable = False
    return f1d


def gradient_norm(state: FieldState) -> float:
    """L2 norm of the gradient, evaluated spectrally (Parseval-consistent)."""
    g = state.grid
    _, kd = _wavenumbers(g.dim, g.box_length, g.points)
    uk = scipy.fft.fftn(state.values)
    s = 0.0
    for kder in kd:
        s += float(np.sum((kder**2) * (uk.real**2 + uk.imag**2)))
    npts = g.points**g.dim
    return math.sqrt(s * g.spacing**g.dim / npts)


def l2_norm(state: FieldState) -> float:
    g = state.grid
    return math.sqrt(
        float(np.sum(state.values.real**2 + state.values.imag**2))
        * g.spacing**g.dim
    )


def lp_norm(state: FieldState, p: float) -> float:
    if p < 1:
        raise ValueError("p must be >= 1")
    g = state.grid
    absu = np.abs(state.values)
    return float(np.sum(absu**p) * g.spacing**g.dim) ** (1.0 / p)


def weighted_l2_norm(state: FieldState) -> float:
    """L2 norm with weight |x|, x measured from the box center."""
    g = state.grid
    r2 = g.radius_squared()
    return math.sqrt(
        float(np.sum(r2 * (state.values.real**2 + state.values.imag**2)))
        * g.spacing**g.dim
    )


def norms(state: FieldState, p: float = 2.0) -> Norms:
    """All standard norms in one record; lp evaluated at the given p."""
    l2 = l2_norm(state)
    grad = gradient_norm(state)
    return Norms(
        l2=l2,
        lp=lp_norm(state, p),
        linf=float(np.max(np.abs(state.values))),
        weighted_l2=weighted_l2_norm(state),
        h1=math.sqrt(l2**2 + grad**2),
        p=p,
    )


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class Gaussian:
    """A exp(-|x-x0|^2 / (2 sigma^2))."""

    amplitude: complex = 1.0
    width: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")


@dataclass(frozen=True)
class PlaneWave:
    """A exp(i k.x) with k = 2 pi m / L, integer mode index per dimension."""

    amplitude: complex = 1.0
    mode_index: tuple = (1,)


@dataclass(frozen=True)
class QuadraticPhaseGaussian:
    """A exp(-|x|^2/(2 sigma^2)) exp(i chirp_sign |x|^2 / 4), centered.

    chirp_sign = -1 builds the initial data of the conformal v-problem from
    a Gaussian u0 (the sign that inverts the t=0 frame map).
    """

    amplitude: complex = 1.0
    width: float = 1.0
    chirp_sign: int = 1

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")
        if self.chirp_sign not in (-1, 1):
            raise ValueError("chirp_sign must be +1 or -1")


@dataclass(frozen=True)
class FromFile:
    path: str


InitialDataSpec = Union[Gaussian, PlaneWave, QuadraticPhaseGaussian, FromFile]


def make_initial(grid: GridSpec, spec: InitialDataSpec) -> FieldState:
    """Sample an initial-data formula on the grid at time 0."""
    if isinstance(spec, Gaussian):
        r2 = np.zeros(grid.shape)
        for xd in grid.coordinate_arrays():
            r2 = r2 + (xd - spec.center) ** 2
        vals = spec.amplitude * np.exp(-r2 / (2 * spec.width**2))
    elif isinstance(spec, PlaneWave):
        m = spec.mode_index
        if len(m) != grid.dim:
            raise ValueError(f"mode_index needs {grid.dim} entries, got {len(m)}")
        half = grid.points // 2
        if any(not (-half <= mi < half) for mi in m):
            raise ValueError(f"mode index {m} outside [-M/2, M/2)")
        phase = np.zeros(grid.shape)
        for mi, xd in zip(m, grid.coordinate_arrays()):
            phase = phase + (2 * np.pi * mi / grid.box_length) * xd
        vals = spec.amplitude * np.exp(1j * phase)
    elif isinstance(spec, QuadraticPhaseGaussian):
        r2 = grid.radius_squared()
        vals = (
            spec.amplitude
            * np.exp(-r2 / (2 * spec.width**2))
            * np.exp(1j * spec.chirp_sign * r2 / 4)
        )
    elif isinstance(spec, FromFile):
        state, _ = load_checkpoint(spec.path)
        if state.grid != grid:
            raise ValueError(f"file grid {state.grid} != requested grid {grid}")
        return state
    else:
        raise TypeError(f"unknown initial data spec {spec!r}")
    return FieldState(grid=grid, values=np.asarray(vals, dtype=np.complex128))


def free_gaussian(grid: GridSpec, spec: Gaussian, t: float) -> FieldState:
    """Closed-form free evolution of a (centered or shifted) Gaussian.

    For u0 = A exp(-a|x-x0|^2) with a = 1/(2 sigma^2):
    e^{it Lap} u0 = A (1+4iat)^{-N/2} exp(-a|x-x0|^2/(1+4iat)).
    """
    a = 1.0 / (2 * spec.width**2)
    z = 1 + 4j * a * t
    r2 = np.zeros(grid.shape)
    for xd in grid.coordinate_arrays():
        r2 = r2 + (xd - spec.center) ** 2
    vals = spec.amplitude * z ** (-grid.dim / 2.0) * np.exp(-a * r2 / z)
    return FieldState(grid=grid, values=np.asarray(vals, np.complex128), time=t)


# ---------------------------------------------------------------------------
# checkpoint files


def save_checkpoint(
    path: Union[str, Path],
    state: FieldState,
    model: Optional[ModelParams] = None,
) -> None:
    """Write the binary field file plus its .meta.json sidecar."""
    path = Path(path)
    g = state.grid
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, g.dim, g.points, g.box_length
    )
    inter = np.empty(state.values.size * 2, dtype="<f8")
    flat = state.values.reshape(-1)  # row-major
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    with open(path, "wb") as f:
        f.write(header)
        f.write(inter.tobytes())
    meta = {
        "time": state.time,
        "grid": {"dim": g.dim, "box_length": g.box_length, "points": g.points},
    }
    if model is not None:
        meta["model"] = {
            "dim": model.dim,
            "alpha": model.alpha,
            "kappa_re": model.kappa.real,
            "kappa_im": model.kappa.imag,
        }
    path.with_suffix(path.suffix + ".meta.json").write_text(
        json.dumps(meta, indent=2) + "\n"
    )


def load_checkpoint(path: Union[str, Path]):
    """Read a field file; returns (FieldState, ModelParams or None)."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, dim, m, length = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    grid = GridSpec(dim=dim, box_length=length, points=m)
    n = m**dim
    expected = _HEADER.size + 16 * n
    if len(raw) < expected:
        raise ValueError(
            f"{path}: expected {n} complex samples ({expected} bytes), "
            f"got {len(raw)} bytes"
        )
    body = np.frombuffer(raw, dtype="<f8", count=2 * n, offset=_HEADER.size)
    vals = (body[0::2] + 1j * body[1::2]).reshape(grid.shape)

    time = 0.0
    model = None
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        time = float(meta.get("time", 0.0))
        if "model" in meta:
            mm = meta["model"]
            model = ModelParams(
                dim=int(mm["dim"]),
                alpha=float(mm["alpha"]),
                kappa=complex(mm["kappa_re"], mm["kappa_im"]),
            )
    return FieldState(grid=grid, values=vals, time=time), model
