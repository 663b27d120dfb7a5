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
# M^N nodes a grid may hold: a complex field of 2^24 nodes is 256 MiB
MAX_NODES = 2**24


@dataclass(frozen=True)
class GridSpec:
    """Cubic periodic box: [-L/2, L/2)^dim with M points per dimension."""

    dim: int
    box_length: float
    points: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not 0 < self.box_length < math.inf:
            raise ValueError(f"box_length must be positive and finite, got {self.box_length}")
        m = self.points
        if m < 8 or (m & (m - 1)) != 0:
            raise ValueError(f"points must be a power of two >= 8, got {m}")
        if m**self.dim > MAX_NODES:
            raise ValueError(f"{m}^{self.dim} grid nodes exceed the cap of {MAX_NODES} (2^24)")

    @property
    def spacing(self) -> float:
        return self.box_length / self.points

    @property
    def shape(self) -> tuple:
        return (self.points,) * self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Grid nodes along one axis: -L/2 + j h, j = 0..M-1."""
        return -self.box_length / 2 + self.spacing * np.arange(self.points)

    def coordinate_arrays(self) -> list:
        """Per-axis coordinate arrays broadcastable to the field shape."""
        x = self.axis_coordinates()
        return np.meshgrid(*[x] * self.dim, indexing="ij", sparse=True, copy=False)

    def radius_squared(self) -> np.ndarray:
        """|x|^2 from the box center, shape = field shape."""
        return sum(xd**2 for xd in self.coordinate_arrays())


@lru_cache(maxsize=32)
def axis_wavenumbers(box_length: float, points: int) -> np.ndarray:
    """Angular wavenumbers of one axis, in FFT order."""
    k1 = 2 * np.pi * np.fft.fftfreq(points, d=box_length / points)
    k1.flags.writeable = False
    return k1


@lru_cache(maxsize=4)
def _free_factors(grid: GridSpec, t: float, scale: float = 1.0) -> tuple:
    """scale * exp(-i |k|^2 t) as factors applied in turn.

    The multiplier is separable (exp(-i|k|^2 t) = prod_d exp(-i k_d^2 t)):
    one factor over the trailing N-1 axes (M^(N-1) entries) and, for N > 1,
    a 1D factor broadcast along the first axis.  No dense N-D array is
    built.  scale goes on the factor applied last (scaling the 1D factor
    before the outer product would compound it).  The last four entries
    are cached and read-only.
    """
    f = np.exp(-1j * axis_wavenumbers(grid.box_length, grid.points) ** 2 * t)
    trailing = f
    for _ in range(grid.dim - 2):
        trailing = np.multiply.outer(f, trailing)
    factors = (trailing,)
    if grid.dim > 1:
        factors += (f.reshape((-1,) + (1,) * (grid.dim - 1)),)
    factors = factors[:-1] + (factors[-1] * scale,)
    for factor in factors:
        factor.flags.writeable = False
    return factors


def _apply_factors(spec: np.ndarray, factors: tuple, out) -> np.ndarray:
    out = np.multiply(spec, factors[0], out=out)
    for f in factors[1:]:
        out *= f
    return out


def free_flow(spec: np.ndarray, grid: GridSpec, t: float, out=None) -> np.ndarray:
    """spec * exp(-i |k|^2 t): the free group e^{it Lap} on a spectrum.

    t may have either sign.  A new array, or spec itself when out is spec.
    """
    return _apply_factors(spec, _free_factors(grid, t), out)


def free_flow_to_space(spec: np.ndarray, grid: GridSpec, t: float) -> np.ndarray:
    """ifftn(free_flow(spec, grid, t)), bit for bit, with one pass fewer.

    The inverse FFT's 1/M^N rides on the cached factor applied last and the
    transform runs with norm="forward" (unscaled); M^N is a power of two,
    so moving the scale changes no bit.  A new array; spec is not changed.
    """
    factors = _free_factors(grid, t, 1.0 / grid.points**grid.dim)
    q = _apply_factors(spec, factors, None)
    return scipy.fft.ifftn(q, overwrite_x=True, norm="forward")


@lru_cache(maxsize=4)
def radial_shells(grid: GridSpec) -> tuple:
    """Nodes grouped by their exact |x|^2: (|x|^2 per shell, shell of each node).

    Every node's |x|^2 takes one of few distinct values (about M^2/2 in 3D),
    so any radial weight needs evaluating on the shells only.  The shell
    index is flat, in row-major node order.
    """
    r2, index = np.unique(grid.radius_squared(), return_inverse=True)
    index = index.reshape(-1)
    r2.flags.writeable = index.flags.writeable = False
    return r2, index


def shell_mass(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """sum of |u|^2 over the nodes of each radial shell (one histogram pass)."""
    r2, index = radial_shells(grid)
    m2 = np.square(values.real)
    m2 += np.square(values.imag)
    return np.bincount(index, weights=m2.reshape(-1), minlength=len(r2))


def weighted_sq(shells: np.ndarray, grid: GridSpec) -> float:
    """||x u||^2 from the shell masses of u."""
    return float(radial_shells(grid)[0] @ shells) * grid.spacing**grid.dim


@lru_cache(maxsize=4)
def _top_octave(grid: GridSpec) -> np.ndarray:
    """Read-only mask of the top-octave modes (some axis |m_d| >= M/4), FFT order."""
    m = grid.points
    top1d = np.abs(np.fft.fftfreq(m, d=1.0 / m)) >= m // 4  # integer mode numbers
    mask = np.zeros(grid.shape, dtype=bool)
    for axis in np.meshgrid(*[top1d] * grid.dim, indexing="ij", sparse=True):
        mask |= axis
    mask.flags.writeable = False
    return mask


def spectral_sq(uk: np.ndarray, grid: GridSpec) -> tuple:
    """(||u||^2, ||grad u||^2, top-octave energy) from uk = F[u], by Parseval.

    The gradient part sums k_d^2 against the per-axis marginals of |uk|^2,
    so the power spectrum is formed once and no N-D k array is needed.  The
    top-octave energy is summed over _top_octave(grid) directly, not as the
    total less the rest, so a tail far below the total keeps its digits.
    """
    power = np.square(uk.real)
    power += np.square(uk.imag)
    kd2 = axis_wavenumbers(grid.box_length, grid.points) ** 2
    # the odd derivative multiplier has no real value at the Nyquist mode
    kd2[grid.points // 2] = 0.0
    grad = 0.0
    for d in range(grid.dim):
        marginal = power.sum(axis=tuple(a for a in range(grid.dim) if a != d))
        grad += float(kd2 @ marginal)
    top = float(np.sum(power, where=_top_octave(grid)))
    scale = grid.spacing**grid.dim / grid.points**grid.dim
    return float(np.sum(marginal)) * scale, grad * scale, top * scale


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


def linear_propagate(state: FieldState, dt: float) -> FieldState:
    """Exact free propagator: each Fourier mode times e^{-i|k|^2 dt}.

    A group, not a semigroup: dt may be negative.  Unitary on the grid.
    """
    uk = scipy.fft.fftn(state.values)
    return state.with_values(free_flow_to_space(uk, state.grid, dt), time=state.time + dt)


def l2_norm(state: FieldState) -> float:
    g = state.grid
    return math.sqrt(
        float(np.sum(state.values.real**2 + state.values.imag**2))
        * g.spacing**g.dim
    )


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class Gaussian:
    """A exp(-|x|^2 / (2 sigma^2)), |x| from the box center as in every radial diagnostic."""

    amplitude: complex = 1.0
    width: float = 1.0

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")


@dataclass(frozen=True)
class PlaneWave:
    """A exp(i k.x) with k = 2 pi m / L, integer mode index per dimension."""

    amplitude: complex = 1.0
    mode_index: tuple = (1,)


@dataclass(frozen=True)
class FromFile:
    path: str


InitialDataSpec = Union[Gaussian, PlaneWave, FromFile]


def make_initial(grid: GridSpec, spec: InitialDataSpec) -> FieldState:
    """Sample an initial-data formula on the grid at time 0."""
    if isinstance(spec, Gaussian):
        vals = spec.amplitude * np.exp(-grid.radius_squared() / (2 * spec.width**2))
    elif isinstance(spec, PlaneWave):
        m = spec.mode_index
        if len(m) != grid.dim:
            raise ValueError(f"mode_index needs {grid.dim} entries, got {len(m)}")
        half = grid.points // 2
        if any(not (-half <= mi < half) for mi in m):
            raise ValueError(f"mode index {m} outside [-M/2, M/2)")
        k = [2 * np.pi * mi / grid.box_length for mi in m]
        phase = sum(kd * xd for kd, xd in zip(k, grid.coordinate_arrays()))
        vals = spec.amplitude * np.exp(1j * phase)
    elif isinstance(spec, FromFile):
        state, _ = load_checkpoint(spec.path)
        if state.grid != grid:
            raise ValueError(f"file grid {state.grid} != requested grid {grid}")
        return state
    else:
        raise TypeError(f"unknown initial data spec {spec!r}")
    return FieldState(grid=grid, values=np.asarray(vals, dtype=np.complex128))


def free_gaussian(grid: GridSpec, spec: Gaussian, t: float) -> FieldState:
    """Closed-form free evolution of a Gaussian.

    For u0 = A exp(-a|x|^2) with a = 1/(2 sigma^2):
    e^{it Lap} u0 = A (1+4iat)^{-N/2} exp(-a|x|^2/(1+4iat)).
    """
    a = 1.0 / (2 * spec.width**2)
    z = 1 + 4j * a * t
    r2 = grid.radius_squared()
    vals = spec.amplitude * z ** (-grid.dim / 2.0) * np.exp(-a * r2 / z)
    return FieldState(grid=grid, values=np.asarray(vals, np.complex128), time=t)


# ---------------------------------------------------------------------------
# checkpoint files and JSON artifacts


def write_json(path: Path, obj) -> None:
    """obj as indent-2 UTF-8 JSON with a trailing newline, numpy arrays as
    lists; makes path's directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(obj, indent=2, default=np.ndarray.tolist)
    path.write_text(text + "\n", encoding="utf-8")


def save_checkpoint(
    path: Union[str, Path],
    state: FieldState,
    model: ModelParams,
) -> None:
    """Write the binary field file, whose header holds the grid, plus its .meta.json sidecar."""
    path = Path(path)
    g = state.grid
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, g.dim, g.points, g.box_length
    )
    with open(path, "wb") as f:
        f.write(header)
        # little-endian complex128 is the interleaved (re, im) f64 layout, row-major
        np.ascontiguousarray(state.values, dtype="<c16").tofile(f)
    meta = {
        "time": state.time,
        "model": {
            "dim": model.dim,
            "alpha": model.alpha,
            "kappa_re": model.kappa.real,
            "kappa_im": model.kappa.imag,
        },
    }
    write_json(path.with_suffix(path.suffix + ".meta.json"), meta)


def load_checkpoint(path: Union[str, Path]):
    """Read a field file; returns (FieldState, ModelParams or None).

    A field file that cannot be read or has a bad header or size is a
    ValueError naming it.  So is a sidecar that cannot be read or is not a
    JSON object, or a field of it that is not a finite number (time, and the
    model's dim, alpha and kappa parts), or a model ModelParams rejects
    (a dim that is not a positive integer among them).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:  # a missing file is bad input, not a failed run
        raise ValueError(f"{path}: {exc.strerror}") from None
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, dim, m, length = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    try:
        grid = GridSpec(dim=dim, box_length=length, points=m)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    n = m**dim
    expected = _HEADER.size + 16 * n
    if len(raw) != expected:
        raise ValueError(
            f"{path}: expected {n} complex samples ({expected} bytes), "
            f"got {len(raw)} bytes"
        )
    body = np.frombuffer(raw, dtype="<c16", count=n, offset=_HEADER.size)
    vals = body.reshape(grid.shape).copy()

    time = 0.0
    model = None
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except OSError as exc:  # a directory or an unreadable file
            raise ValueError(f"{meta_path}: {exc.strerror}") from None
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{meta_path}: not valid JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise ValueError(f"{meta_path}: must hold a JSON object, got {type(meta).__name__}")
        numbers = {"time": meta.get("time", 0.0)}
        if "model" in meta:
            mm = meta["model"] if isinstance(meta["model"], dict) else {}
            numbers.update(
                {f"model.{k}": mm.get(k) for k in ("dim", "alpha", "kappa_re", "kappa_im")}
            )
        for name, value in numbers.items():
            if type(value) not in (int, float) or not math.isfinite(value):  # not bool or str
                raise ValueError(f"{meta_path}: {name} must be a finite number, got {value!r}")
        time = float(numbers["time"])
        if "model" in meta:
            try:
                model = ModelParams(
                    dim=numbers["model.dim"],
                    alpha=float(numbers["model.alpha"]),
                    kappa=complex(numbers["model.kappa_re"], numbers["model.kappa_im"]),
                )
            except ValueError as exc:  # the messages name dim, alpha or kappa
                raise ValueError(f"{meta_path}: model.{exc}") from None
    return FieldState(grid=grid, values=vals, time=time), model
