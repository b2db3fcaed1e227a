"""Complex scalar fields and unitary paraxial propagation.

Two representations are used throughout the package:

* ``SampledField`` -- complex amplitude on a uniform transverse grid,
  propagated with the band-limited spectral (Fresnel transfer function)
  method.
* ``ModeField`` -- a periodic wavefunction stored as truncated Fourier
  coefficients, propagated exactly by multiplying each mode with its
  quadratic phase.

Both propagators conserve total probability.  The spectral transfer
function is ``exp(i k z) * exp(-i pi lambda z f^2)``; the mode propagator
multiplies coefficient ``n`` by ``exp(-i pi n^2 z / z_T)`` with
``z_T = period^2 / wavelength`` the Talbot length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constraints import talbot_length
from .errors import AliasingRisk, GridMismatch, InvalidSpec, UnderResolved

__all__ = [
    "SampledField",
    "BiphotonField",
    "ModeField",
    "PropagationSpec",
    "SlitProfile",
    "GAUSSIAN",
    "TOPHAT",
    "get_profile",
    "centered_axis",
    "fresnel_propagate",
    "biphoton_propagate",
    "mode_propagate",
    "periodic_comb",
    "sampling_matrix",
    "sample",
    "overlap",
    "fidelity",
]


# share of the coefficient mass a truncated comb or grating spectrum may discard
MASS_TOL = 1e-8
# largest truncation order tried before giving up on that mass rule
MAX_ORDERS = 4096
# largest array a configuration may ask for; the biggest grid in use is entangle's 3072^2
MAX_ENTRIES = 2 ** 25


def check_entries(what: str, *dims: int) -> None:
    """Raise InvalidSpec before allocating an array of more than MAX_ENTRIES entries."""
    if math.prod(dims) > MAX_ENTRIES:
        raise InvalidSpec(f"{what} would exceed {MAX_ENTRIES} (2**25) array entries")


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(values)
    out.setflags(write=False)
    return out


def centered_axis(n: int, dx: float) -> np.ndarray:
    """``n`` coordinates of pitch ``dx`` centred on the axis, from ``-n dx / 2``."""
    check_entries("sample axis", n)
    return -n * dx / 2.0 + dx * np.arange(n)


@dataclass(frozen=True)
class SampledField:
    """Complex amplitude on a uniform 1-D grid.

    Attributes
    ----------
    x0 : float
        Coordinate of the first sample.
    dx : float
        Sample pitch (> 0).
    values : ndarray
        Complex amplitude per sample, at least two samples.
    """

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size < 2:
            raise InvalidSpec("values must be a 1-D array with at least 2 samples")
        if not self.dx > 0:
            raise InvalidSpec("dx must be positive")
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def n(self) -> int:
        return self.values.size

    def x(self) -> np.ndarray:
        """Sample coordinates."""
        return self.x0 + self.dx * np.arange(self.n)

    def power(self) -> float:
        """Total probability sum(|values|^2) * dx."""
        return _grid_power(self.values, self.dx)

    def normalized(self) -> "SampledField":
        return SampledField(self.x0, self.dx, unit_power(self.values.copy(), self.dx))

    def restricted(self, lo: float, hi: float) -> "SampledField":
        """Sub-field on [lo, hi], re-normalized (detection on a finite window)."""
        xs = self.x()
        sel = (xs >= lo) & (xs <= hi)
        if sel.sum() < 2:
            raise InvalidSpec("restriction window contains fewer than 2 samples")
        return SampledField(float(xs[sel][0]), self.dx, self.values[sel]).normalized()

    def same_grid(self, other: "SampledField") -> bool:
        return (
            self.n == other.n
            and math.isclose(self.dx, other.dx, rel_tol=1e-9, abs_tol=0.0)
            and math.isclose(self.x0, other.x0, rel_tol=1e-9, abs_tol=1e-9 * self.dx)
        )


@dataclass(frozen=True)
class BiphotonField:
    """Two-photon complex amplitude on the tensor grid of two 1-D grids."""

    x0_1: float
    dx1: float
    x0_2: float
    dx2: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 2 or min(vals.shape) < 2:
            raise InvalidSpec("values must be a 2-D array, at least 2x2")
        if not (self.dx1 > 0 and self.dx2 > 0):
            raise InvalidSpec("dx1 and dx2 must be positive")
        object.__setattr__(self, "values", _freeze(vals))

    def x1(self) -> np.ndarray:
        return self.x0_1 + self.dx1 * np.arange(self.values.shape[0])

    def x2(self) -> np.ndarray:
        return self.x0_2 + self.dx2 * np.arange(self.values.shape[1])

    def power(self) -> float:
        return _grid_power(self.values, self.dx1, self.dx2)

    def normalized(self) -> "BiphotonField":
        return BiphotonField(self.x0_1, self.dx1, self.x0_2, self.dx2,
                             unit_power(self.values.copy(), self.dx1, self.dx2))


def _abs2(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``|values|^2`` into ``out`` (a new float array by default); an overflow gives inf."""
    with np.errstate(over="ignore"):
        out = np.abs(values, out=out)
        np.square(out, out=out)
    return out


def _density_power(density: np.ndarray, *steps: float) -> float:
    """``sum(density)`` times each axis step in turn (``sum * dx1 * dx2``)."""
    with np.errstate(over="ignore"):
        total = density.sum()
        for step in steps:
            total = total * step
    return float(total)


def _grid_power(values: np.ndarray, *steps: float) -> float:
    """``sum |values|^2`` times each axis step in turn, through one float
    temporary of the grid's shape; an overflow gives inf."""
    return _density_power(_abs2(values), *steps)


def _unit_root(power: float) -> float:
    """The root of a power that a field is divided by to normalise it."""
    if not math.isfinite(power) or power <= 0:
        raise InvalidSpec("cannot normalize a zero or non-finite field")
    return math.sqrt(power)


def unit_power(values: np.ndarray, *steps: float) -> np.ndarray:
    """Divide a complex grid the caller owns in place by the root of its
    power with the given axis steps, and return it; no second grid is made."""
    values /= _unit_root(_grid_power(values, *steps))
    return values


@dataclass(frozen=True)
class ModeField:
    """Periodic wavefunction as truncated Fourier coefficients.

    The field is ``sum_n coeffs[n] * exp(i n k (x - offset))`` with
    ``k = 2 pi / period`` and symmetric mode indices ``-M..M``.  One period
    carries unit probability when ``sum |coeffs|^2 == 1``.
    """

    period: float
    offset: float
    coeffs: np.ndarray  # length 2M+1, index 0 is mode -M

    def __post_init__(self):
        if not self.period > 0:
            raise InvalidSpec("period must be positive")
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 != 1:
            raise InvalidSpec("coeffs must be a 1-D array of odd length (symmetric truncation)")
        object.__setattr__(self, "coeffs", _freeze(c))

    @property
    def max_mode(self) -> int:
        return (self.coeffs.size - 1) // 2

    def modes(self) -> np.ndarray:
        m = self.max_mode
        return np.arange(-m, m + 1)

    def power(self) -> float:
        return _grid_power(self.coeffs)

    def normalized(self) -> "ModeField":
        return ModeField(self.period, self.offset, unit_power(self.coeffs.copy()))


@dataclass(frozen=True)
class PropagationSpec:
    """Wavelength and propagation distance; both validated on construction."""

    wavelength: float
    distance: float

    def __post_init__(self):
        if not self.wavelength > 0:
            raise InvalidSpec("wavelength must be positive")
        if self.distance < 0:
            raise InvalidSpec("backward propagation (z < 0) is not supported")


# ---------------------------------------------------------------------------
# slit profiles


@dataclass(frozen=True)
class SlitProfile:
    """Transmission profile of a single slit, pluggable by name.

    ``amplitude(x, width)`` evaluates the profile, ``transform(k, width)``
    its continuous Fourier transform at wavenumber ``k``.
    """

    name: str
    amplitude: Callable[[np.ndarray, float], np.ndarray]
    transform: Callable[[np.ndarray, float], np.ndarray]


def _gaussian_amplitude(x: np.ndarray, w: float) -> np.ndarray:
    two_w2 = 2.0 * w * w
    if not 0 < two_w2 < math.inf:
        raise InvalidSpec(f"Gaussian slit width {w:g} has no finite, nonzero square")
    with np.errstate(over="ignore"):  # x^2 overflows only where the profile is 0
        return np.exp(-np.square(x) / two_w2)


def _gaussian_transform(k: np.ndarray, w: float) -> np.ndarray:
    with np.errstate(over="ignore"):  # (k w)^2 overflows only where the transform is 0
        return w * math.sqrt(2.0 * math.pi) * np.exp(-np.square(k) * w * w / 2.0)


GAUSSIAN = SlitProfile("gaussian", _gaussian_amplitude, _gaussian_transform)

TOPHAT = SlitProfile(
    "tophat",
    lambda x, w: (np.abs(x) <= w / 2.0).astype(float),
    lambda k, w: w * np.sinc(np.asarray(k) * w / (2.0 * math.pi)),
)

_PROFILES = {p.name: p for p in (GAUSSIAN, TOPHAT)}


def get_profile(name: str) -> SlitProfile:
    try:
        return _PROFILES[name]
    except (KeyError, TypeError):
        raise InvalidSpec(f"unknown slit profile {name!r}; expected one of {sorted(_PROFILES)}")


# ---------------------------------------------------------------------------
# propagation


def _transfer_function(n: int, dx: float, spec: PropagationSpec) -> np.ndarray:
    f = np.fft.fftfreq(n, dx)
    carrier = np.exp(2j * np.pi * spec.distance / spec.wavelength)
    return carrier * np.exp(-1j * np.pi * spec.wavelength * spec.distance * f * f)


# share of the total power above which a frequency counts as occupied
_OCCUPIED_SHARE = 1e-9


def _occupied_bandwidth(power: np.ndarray, f: np.ndarray) -> float:
    """Largest |frequency| carrying more than ``_OCCUPIED_SHARE`` of the total power."""
    total = power.sum()
    if total <= 0:
        return float(np.abs(f).max())
    occupied = power > _OCCUPIED_SHARE * total
    return float(np.abs(f[occupied]).max()) if occupied.any() else 0.0


def _check_aliasing(n: int, dx: float, spec: PropagationSpec,
                    power_f: np.ndarray, power_x: np.ndarray):
    """Guard the spectral propagator against the two real failure modes.

    The discrete transfer-function method evolves the periodized window
    exactly, so for window-filling periodic content any distance is safe.
    What does go wrong: (1) the field's own bandwidth rides the grid
    Nyquist frequency, i.e. the field is under-sampled; (2) a localized
    field is propagated so far that the band-limited Fresnel kernel
    (transverse reach ``lambda z f`` per frequency f, i.e. a quadratic
    spectral phase wrapping faster than pi per sample at the window edge)
    outruns the window and wraps into the far side.
    """
    f = np.fft.fftfreq(n, dx)
    f_nyq = float(np.abs(f).max())
    if _occupied_bandwidth(power_f, f) >= 0.95 * f_nyq:
        raise AliasingRisk(
            "field bandwidth rides the grid Nyquist frequency; refine the grid"
        )
    reach = spec.wavelength * spec.distance
    if reach == 0.0:
        return
    window = n * dx
    f_wrap = window / (2.0 * reach)
    total = power_f.sum()
    wrap_power = power_f[np.abs(f) > f_wrap].sum() / total if total > 0 else 0.0
    if wrap_power <= 1e-6:
        return
    edge = max(2, n // 20)
    edge_power = (power_x[:edge].sum() + power_x[-edge:].sum()) / power_x.sum()
    if edge_power < 1e-3:
        raise AliasingRisk(
            f"band-limited Fresnel kernel outreaches the window for a localized "
            f"field (wrapping power fraction {wrap_power:.2e}); enlarge the "
            f"window or reduce z"
        )


def _propagate_axis(values: np.ndarray, dx: float, spec: PropagationSpec,
                    axis: int, weights=1.0) -> np.ndarray:
    """Spectral Fresnel step along one axis of ``values``, aliasing-guarded.

    The guard sees the power summed over the other axes, weighted by
    ``weights`` (per column of a factored state, its squared Schmidt value):
    the marginal profile and the marginal spectrum of the propagated axis.
    """
    n = values.shape[axis]
    others = tuple(a for a in range(values.ndim) if a != axis)
    power_x = (weights * np.abs(values) ** 2).sum(axis=others)
    spectrum = np.fft.fft(values, axis=axis)
    _check_aliasing(n, dx, spec, (weights * np.abs(spectrum) ** 2).sum(axis=others), power_x)
    spectrum *= np.expand_dims(_transfer_function(n, dx, spec), others)
    return np.fft.ifft(spectrum, axis=axis)


def fresnel_propagate(field: SampledField, spec: PropagationSpec) -> SampledField:
    """Propagate a sampled field by the spectral Fresnel method.

    Parameters
    ----------
    field : SampledField
        Input field; expected normalized.
    spec : PropagationSpec
        Wavelength and non-negative distance.

    Returns
    -------
    SampledField
        The propagated field on the same grid.  ``z = 0`` returns the input
        unchanged.  Total probability is conserved (unitary transfer
        function).

    Raises
    ------
    AliasingRisk
        If the transfer-function phase would wrap faster than pi per
        frequency sample at the grid edge, or the field spectrum rides the
        Nyquist edge.
    """
    if spec.distance == 0.0:
        return field
    return SampledField(field.x0, field.dx, _propagate_axis(field.values, field.dx, spec, 0))


def biphoton_propagate(field: BiphotonField, spec: PropagationSpec) -> BiphotonField:
    """Propagate both photon axes of a biphoton field by the same distance."""
    if spec.distance == 0.0:
        return field
    vals = _propagate_axis(field.values, field.dx1, spec, 0)
    vals = _propagate_axis(vals, field.dx2, spec, 1)
    return BiphotonField(field.x0_1, field.dx1, field.x0_2, field.dx2, vals)


def mode_propagate(field: ModeField, spec: PropagationSpec) -> ModeField:
    """Propagate a periodic field exactly: mode ``n`` gains ``exp(-i pi n^2 z/z_T)``.

    The quadratic phase is reduced modulo 2 before exponentiation so that a
    full revival distance (``z = 2 z_T``) reproduces the coefficients
    bit-exactly.  Moduli ``|coeffs|`` are unchanged for any distance.
    """
    if spec.distance == 0.0:
        return field
    z_t = talbot_length(field.period, spec.wavelength)
    n = field.modes().astype(float)
    phase = np.exp(-1j * np.pi * np.mod(n * n * (spec.distance / z_t), 2.0))
    return ModeField(field.period, field.offset, field.coeffs * phase)


# ---------------------------------------------------------------------------
# periodic combs, sampling, overlaps


def periodic_comb(
    period: float,
    width: float,
    offsets: Sequence[float],
    amplitudes: Sequence[complex],
    profile: SlitProfile = GAUSSIAN,
) -> ModeField:
    """Periodic superposition of slit combs as a normalized ModeField.

    The one-period restriction is ``sum_d amplitudes[d] * S(x - offsets[d])``
    with ``S`` the slit profile of the given width.  The mode truncation M is
    the smallest for which the discarded coefficient mass is below
    ``MASS_TOL`` of the total.
    """
    if width <= 0 or period <= 0:
        raise InvalidSpec("period and width must be positive")
    offsets = np.asarray(offsets, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if offsets.shape != amplitudes.shape:
        raise InvalidSpec("offsets and amplitudes must have matching lengths")
    k = 2.0 * np.pi / period

    m = 16
    while True:
        n = np.arange(-m, m + 1)
        check_entries("comb spectrum", n.size, offsets.size)
        with np.errstate(over="ignore", invalid="ignore"):  # checked through the total
            shape = profile.transform(n * k, width).astype(complex)
            structure = (amplitudes[None, :] * np.exp(-1j * np.outer(n * k, offsets))).sum(axis=1)
            coeffs = shape * structure
            p = np.abs(coeffs) ** 2
            total = p.sum()
        if not total < math.inf:  # an overflow, or NaN from one
            raise InvalidSpec(f"comb power overflows at period {period:g} and slit width {width:g}")
        if total == 0:  # zero amplitudes, or every |c_n|^2 underflowed
            raise InvalidSpec(f"comb has zero power at period {period:g} and slit width {width:g}")
        edge = p[: m // 8].sum() + p[-(m // 8):].sum()
        if edge < MASS_TOL * total:
            break
        if m >= MAX_ORDERS:
            raise InvalidSpec(
                f"mode truncation did not converge below mass {MASS_TOL:g} "
                f"within {MAX_ORDERS} modes (profile {profile.name!r})"
            )
        m *= 2
    # trim to the smallest symmetric truncation honoring the mass rule
    half = p.size // 2  # index of mode 0
    prefix = np.cumsum(p)

    def discarded(j: int) -> float:
        low = prefix[half - j - 1] if j < half else 0.0
        return float(low + total - prefix[half + j])

    keep = half
    while keep > 1 and discarded(keep - 1) < MASS_TOL * total:
        keep -= 1
    coeffs = coeffs[half - keep: half + keep + 1]
    return ModeField(period, 0.0, coeffs).normalized()


def sampling_matrix(field: ModeField, samples_per_period: int, periods: int) -> tuple:
    """``(x, dx, E)``: the centred grid of ``periods`` periods, its pitch, and
    the matrix ``exp(i k (x - offset) n)`` that takes the field's coefficients,
    or those of any field propagated from it, to its samples on that grid.

    The grid must resolve the largest retained mode: ``samples_per_period``
    has to exceed twice the truncation order, else ``UnderResolved`` is raised.
    """
    if samples_per_period < 2 or periods < 1:
        raise InvalidSpec("need at least 2 samples per period and 1 period")
    if samples_per_period <= 2 * field.max_mode:
        raise UnderResolved(
            f"{samples_per_period} samples/period cannot resolve modes up to "
            f"{field.max_mode}; need more than {2 * field.max_mode}"
        )
    n_samp = samples_per_period * periods
    check_entries("mode sampling matrix", n_samp, field.coeffs.size)
    dx = field.period / samples_per_period
    x = centered_axis(n_samp, dx)
    k = 2.0 * np.pi / field.period
    return x, dx, np.exp(1j * np.outer(x - field.offset, field.modes()) * k)


def sample(
    field: ModeField,
    samples_per_period: int = 64,
    periods: int = 128,
    taper_periods: int = 0,
) -> SampledField:
    """Evaluate a ModeField on a centred grid spanning ``periods`` periods.

    The grid and its resolution guard are those of :func:`sampling_matrix`.
    With ``taper_periods > 0`` a raised-cosine ramp over that many periods
    is applied at each window edge, modelling finite illumination.  The
    result is normalized over the window.
    """
    x, dx, matrix = sampling_matrix(field, samples_per_period, periods)
    vals = matrix @ field.coeffs
    if taper_periods:
        if 2 * taper_periods > periods:
            raise InvalidSpec("taper longer than the window")
        edge = taper_periods * samples_per_period
        w = np.ones(x.size)
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
        w[:edge] = ramp
        w[-edge:] = ramp[::-1]
        vals = vals * w
    return SampledField(float(x[0]), dx, vals).normalized()


def overlap(a: SampledField, b: SampledField) -> complex:
    """Inner product ``sum conj(a) * b * dx`` of two fields on one grid."""
    if not a.same_grid(b):
        raise GridMismatch("overlap requires identical grids")
    return complex((a.values.conj() * b.values).sum() * a.dx)


def fidelity(a: SampledField, b: SampledField) -> float:
    """|<a|b>|^2 normalized by both powers."""
    return abs(overlap(a, b)) ** 2 / (a.power() * b.power())
