"""Complex scalar fields and unitary paraxial propagation.

Two representations are used throughout the package:

* a periodic wavefunction is its read-only vector of truncated Fourier
  coefficients over modes ``-M..M``, passed with its period.  It is
  propagated exactly by multiplying each mode with its quadratic phase;
  ``periodic_comb`` builds one from Gaussian slits and ``sample`` evaluates
  it on a grid.
* ``SampledField`` -- complex amplitude on a uniform transverse grid.

A two-photon grid is a plain square array over one axis taken for both
photons, passed with that axis or its pitch.

Grids are propagated axis by axis with the band-limited spectral (Fresnel
transfer function) method, guarded against aliasing.  Both propagators
conserve total probability and drop the global carrier ``exp(i k z)``.  A
distance is a fraction ``f`` of the Talbot length ``z_T``: the mode
propagator multiplies coefficient ``n`` by ``exp(-i pi n^2 f)``, and the
spectral one takes the reach ``lambda z = f period^2`` in the transfer
function ``exp(-i pi lambda z f_x^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AliasingRisk, InvalidSpec, UnderResolved

__all__ = [
    "SampledField",
    "gaussian_amplitude",
    "gaussian_transform",
    "centered_axis",
    "biphoton_propagate",
    "mode_propagate",
    "periodic_comb",
    "sampling_matrix",
    "sample",
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


def _cut_spectrum(spectrum, start: int, what: str) -> np.ndarray:
    """The orders ``-j..j`` of a spectrum that its truncation by mass keeps.

    ``spectrum(m)`` returns ``(values, mass)`` over orders ``-m..m``.  m doubles
    from ``start`` until the outer eighth of the orders holds less than
    ``MASS_TOL`` of the total mass, and is refused past ``MAX_ORDERS``; the cut
    is the smallest ``j >= 1`` whose window discards less than ``MASS_TOL``.
    """
    m = start
    while True:
        values, mass = spectrum(m)
        total = mass.sum()
        if mass[: m // 8].sum() + mass[-(m // 8):].sum() < MASS_TOL * total:
            break
        if m >= MAX_ORDERS:
            raise InvalidSpec(f"{what} truncation did not converge below mass {MASS_TOL:g} "
                              f"within {MAX_ORDERS} {what}s")
        m *= 2
    prefix = np.cumsum(mass)
    # the mass outside -j..j for j = 1..m-1, non-increasing in j; m if every one fails
    discarded = prefix[m - 2::-1] + total - prefix[m + 1: 2 * m]
    j = 1 + np.count_nonzero(discarded >= MASS_TOL * total)
    return values[m - j: m + j + 1]


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


def _norm_power(power: float) -> float:
    """A power that a density is divided by to normalise it (its root, a field);
    a zero or non-finite one is refused."""
    if not math.isfinite(power) or power <= 0:
        raise InvalidSpec("cannot normalize a zero or non-finite field")
    return power


def unit_power(values: np.ndarray, *steps: float) -> np.ndarray:
    """Divide a real or complex grid the caller owns in place by the root of its
    power with the given axis steps, and return it; no second grid is made."""
    values /= math.sqrt(_norm_power(_grid_power(values, *steps)))
    return values


def _check_forward(distance: float) -> None:
    """Refuse a non-finite or negative propagation distance, in any unit."""
    if not math.isfinite(distance):
        raise InvalidSpec(f"propagation distance must be finite, got {distance!r}")
    if distance < 0:
        raise InvalidSpec("backward propagation (z < 0) is not supported")


# ---------------------------------------------------------------------------
# the Gaussian slit


def gaussian_amplitude(x: np.ndarray, w: float) -> np.ndarray:
    """Transmission ``exp(-x^2 / (2 w^2))`` of a Gaussian slit of width w."""
    two_w2 = 2.0 * w * w
    if not 0 < two_w2 < math.inf:
        raise InvalidSpec(f"Gaussian slit width {w:g} has no finite, nonzero square")
    with np.errstate(over="ignore"):  # x^2 overflows only where the profile is 0
        return np.exp(-np.square(x) / two_w2)


def gaussian_transform(k: np.ndarray, w: float) -> np.ndarray:
    """Continuous Fourier transform of :func:`gaussian_amplitude` at wavenumber k."""
    with np.errstate(over="ignore"):  # (k w)^2 overflows only where the transform is 0
        return w * math.sqrt(2.0 * math.pi) * np.exp(-np.square(k) * w * w / 2.0)


# ---------------------------------------------------------------------------
# propagation


def _transfer_function(n: int, dx: float, reach: float) -> np.ndarray:
    f = np.fft.fftfreq(n, dx)
    return np.exp(-1j * np.pi * reach * f * f)


# share of the total power above which a frequency counts as occupied
_OCCUPIED_SHARE = 1e-9


def _occupied_bandwidth(power: np.ndarray, f: np.ndarray) -> float:
    """Largest |frequency| carrying more than ``_OCCUPIED_SHARE`` of the total power."""
    total = power.sum()
    if total <= 0:
        return float(np.abs(f).max())
    occupied = power > _OCCUPIED_SHARE * total
    return float(np.abs(f[occupied]).max()) if occupied.any() else 0.0


def _check_aliasing(n: int, dx: float, reach: float,
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


def _propagate_axis(values: np.ndarray, dx: float, reach: float,
                    axis: int, weights=1.0) -> np.ndarray:
    """Spectral Fresnel step of reach ``lambda z`` along one axis of ``values``,
    aliasing-guarded.

    The guard sees the power summed over the other axes, weighted by
    ``weights`` (per column of a factored state, its squared Schmidt value):
    the marginal profile and the marginal spectrum of the propagated axis.
    """
    n = values.shape[axis]
    others = tuple(a for a in range(values.ndim) if a != axis)
    power_x = (weights * np.abs(values) ** 2).sum(axis=others)
    spectrum = np.fft.fft(values, axis=axis)
    _check_aliasing(n, dx, reach, (weights * np.abs(spectrum) ** 2).sum(axis=others), power_x)
    spectrum *= np.expand_dims(_transfer_function(n, dx, reach), others)
    return np.fft.ifft(spectrum, axis=axis)


def biphoton_propagate(values: np.ndarray, dx: float, reach: float) -> np.ndarray:
    """Propagate both photon axes of a square two-photon grid of pitch ``dx`` by
    the same reach ``lambda z``, into a read-only array; ``z = 0`` returns ``values``."""
    _check_forward(reach)
    if reach == 0.0:
        return values
    values = _propagate_axis(values, dx, reach, 0)
    return _freeze(_propagate_axis(values, dx, reach, 1))


def _mode_numbers(coeffs: np.ndarray) -> np.ndarray:
    """Mode numbers ``-M..M`` of a periodic field's coefficient vector, once its
    shape is checked."""
    if np.ndim(coeffs) != 1 or np.size(coeffs) % 2 != 1:
        raise InvalidSpec("coeffs must be a 1-D array of odd length (symmetric truncation)")
    m = (np.size(coeffs) - 1) // 2
    return np.arange(-m, m + 1)


def mode_propagate(coeffs: np.ndarray, fraction: float) -> np.ndarray:
    """Propagate a periodic field exactly by ``fraction`` of its Talbot length:
    mode ``n`` gains ``exp(-i pi n^2 fraction)``.

    Returns the read-only coefficient vector; ``fraction = 0`` returns ``coeffs``.
    The quadratic phase is reduced modulo 2 before exponentiation so that a
    full revival (``fraction = 2``) reproduces the coefficients bit-exactly.
    Moduli ``|coeffs|`` are unchanged for any fraction.
    """
    n = _mode_numbers(coeffs).astype(float)
    _check_forward(fraction)
    if fraction == 0.0:
        return coeffs
    phase = np.exp(-1j * np.pi * np.mod(n * n * fraction, 2.0))
    return _freeze(coeffs * phase)


# ---------------------------------------------------------------------------
# periodic combs and sampling


def periodic_comb(period: float, width: float, offsets: Sequence[float],
                  amplitudes: Sequence[complex]) -> np.ndarray:
    """Periodic superposition of slit combs as a normalized, read-only coefficient
    vector over modes ``-M..M``.

    The one-period restriction is ``sum_d amplitudes[d] * S(x - offsets[d])``
    with ``S`` the Gaussian slit of the given width, truncated by
    :func:`_cut_spectrum`.
    """
    if width <= 0 or period <= 0:
        raise InvalidSpec("period and width must be positive")
    offsets = np.asarray(offsets, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if offsets.shape != amplitudes.shape:
        raise InvalidSpec("offsets and amplitudes must have matching lengths")
    k = 2.0 * np.pi / period

    def spectrum(m: int) -> tuple:
        n = np.arange(-m, m + 1)
        check_entries("comb spectrum", n.size, offsets.size)
        with np.errstate(over="ignore", invalid="ignore"):  # checked through the total
            shape = gaussian_transform(n * k, width).astype(complex)
            structure = (amplitudes[None, :] * np.exp(-1j * np.outer(n * k, offsets))).sum(axis=1)
            coeffs = shape * structure
            p = np.abs(coeffs) ** 2
            total = p.sum()
        if not total < math.inf:  # an overflow, or NaN from one
            raise InvalidSpec(f"comb power overflows at period {period:g} and slit width {width:g}")
        if total == 0:  # zero amplitudes, or every |c_n|^2 underflowed
            raise InvalidSpec(f"comb has zero power at period {period:g} and slit width {width:g}")
        return coeffs, p

    return _freeze(unit_power(_cut_spectrum(spectrum, 16, "mode")))


def sampling_matrix(coeffs: np.ndarray, period: float, samples_per_period: int,
                    periods: int) -> tuple:
    """``(x, dx, E)``: the centred grid of ``periods`` periods, its pitch, and
    the matrix ``exp(i k x n)`` that takes the coefficients of a field of that
    period, or those of any field propagated from it, to its samples on that grid.

    The grid must resolve the largest retained mode: ``samples_per_period``
    has to exceed twice the truncation order, else ``UnderResolved`` is raised.
    """
    if not period > 0:
        raise InvalidSpec("period must be positive")
    modes = _mode_numbers(coeffs)
    max_mode = modes.size // 2
    if samples_per_period < 2 or periods < 1:
        raise InvalidSpec("need at least 2 samples per period and 1 period")
    if samples_per_period <= 2 * max_mode:
        raise UnderResolved(
            f"{samples_per_period} samples/period cannot resolve modes up to "
            f"{max_mode}; need more than {2 * max_mode}"
        )
    n_samp = samples_per_period * periods
    check_entries("mode sampling matrix", n_samp, modes.size)
    dx = period / samples_per_period
    x = centered_axis(n_samp, dx)
    k = 2.0 * np.pi / period
    return x, dx, np.exp(1j * np.outer(x, modes) * k)


def sample(coeffs: np.ndarray, period: float, samples_per_period: int,
           periods: int) -> SampledField:
    """Evaluate a periodic field's coefficient vector on a centred grid spanning
    ``periods`` periods.

    The grid and its resolution guard are those of :func:`sampling_matrix`.
    The result is normalized over the window.
    """
    x, dx, matrix = sampling_matrix(coeffs, period, samples_per_period, periods)
    return SampledField(float(x[0]), dx, unit_power(matrix @ coeffs, dx))
