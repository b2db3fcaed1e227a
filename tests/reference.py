"""Reference implementations the tests compare the package against.

None of these is on a command's path.  Each keeps the arithmetic it had as
a library function, so an oracle test measures the same quantity it always
did: single-photon grid propagation, overlaps, the slit stage on a complex
pair grid, the gate and phase-gate matrices, the quadratic closed-form mask
phases, continuous encoding and detector decoding of one qudit, the tapered
window of finite illumination, the adjacent-slit overlap integrated on a
grid, and the pair source's amplitude on the slit lattice in exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from talbotlab.constraints import parity_constant
from talbotlab.errors import BinMisalignment, InvalidSpec
from talbotlab.fields import (SampledField, _grid_power, _propagate_axis, gaussian_amplitude,
                              periodic_comb, sampling_matrix, unit_power)
from talbotlab.qudits import bin_weights, gauss_coeffs


# ---------------------------------------------------------------------------
# sampled fields


def fresnel_propagate(field: SampledField, reach: float) -> SampledField:
    """The spectral Fresnel step of the Bell field route, of reach ``lambda z``,
    on one sampled field.

    ``z = 0`` returns the input unchanged.  Raises ``AliasingRisk`` through
    the route's own guard.
    """
    if reach == 0.0:
        return field
    return SampledField(field.x0, field.dx, _propagate_axis(field.values, field.dx, reach, 0))


def power(field: SampledField) -> float:
    """Total probability ``sum |values|^2 dx``."""
    return _grid_power(field.values, field.dx)


def normalized_pair(values: np.ndarray, dx: float) -> np.ndarray:
    """A square two-photon grid of pitch dx divided by the root of its power,
    out of place."""
    return unit_power(np.array(values, dtype=complex), dx, dx)


def dense_slit_stage(psi: np.ndarray, x: np.ndarray, dx: float, slits) -> tuple:
    """The slit stage on the square pair amplitude ``psi`` through the complex
    grid ``psi t(x1) t(x2)``: ``(its density normalised, transmitted power
    fraction)``."""
    t = slits.transmission(x)
    masked = psi * t[:, None] * t[None, :]
    transmitted = _grid_power(masked, dx, dx) / _grid_power(psi, dx, dx)
    return np.abs(normalized_pair(masked, dx)) ** 2, transmitted


def restricted(field: SampledField, lo: float, hi: float) -> SampledField:
    """Sub-field on [lo, hi], re-normalized (detection on a finite window)."""
    xs = field.x()
    sel = (xs >= lo) & (xs <= hi)
    if sel.sum() < 2:
        raise InvalidSpec("restriction window contains fewer than 2 samples")
    return SampledField(float(xs[sel][0]), field.dx, unit_power(field.values[sel], field.dx))


def overlap(a: SampledField, b: SampledField) -> complex:
    """Inner product ``sum conj(a) * b * dx`` of two fields on one grid."""
    if not (a.n == b.n
            and math.isclose(a.dx, b.dx, rel_tol=1e-9, abs_tol=0.0)
            and math.isclose(a.x0, b.x0, rel_tol=1e-9, abs_tol=1e-9 * a.dx)):
        raise ValueError("overlap requires identical grids")
    return complex((a.values.conj() * b.values).sum() * a.dx)


def fidelity(a: SampledField, b: SampledField) -> float:
    """|<a|b>|^2 normalized by both powers."""
    return abs(overlap(a, b)) ** 2 / (power(a) * power(b))


def tapered_sample(coeffs: np.ndarray, period: float, samples_per_period: int, periods: int,
                   taper_periods: int) -> SampledField:
    """``fields.sample`` with a raised-cosine ramp over ``taper_periods``
    periods at each window edge, modelling finite illumination."""
    x, dx, matrix = sampling_matrix(coeffs, period, samples_per_period, periods)
    vals = matrix @ coeffs
    if not 1 <= 2 * taper_periods <= periods:
        raise InvalidSpec("taper empty or longer than the window")
    edge = taper_periods * samples_per_period
    w = np.ones(x.size)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
    w[:edge] = ramp
    w[-edge:] = ramp[::-1]
    return SampledField(float(x[0]), dx, unit_power(vals * w, dx))


# ---------------------------------------------------------------------------
# qudit gates


def talbot_gate(dimension: int) -> np.ndarray:
    """Unitary realized on the Talbot basis by propagating ``2 z_T / (c D)``.

    Equals ``sum_j a_{c j} X^j`` with the Gauss amplitudes of fraction
    ``1 / (c D)``; ``c`` is 1 for odd and 2 for even dimension.
    """
    if dimension < 2:
        raise InvalidSpec("dimension must be >= 2")
    c = parity_constant(dimension)
    a = gauss_coeffs(c * dimension)
    d = np.arange(dimension)
    # circulant: entry [row, col] = a_{c * ((row - col) mod D)}
    return a[c * ((d[:, None] - d[None, :]) % dimension)]


def phase_gate(thetas) -> np.ndarray:
    """Diagonal gate ``diag(exp(i theta_d))``."""
    t = np.asarray(thetas, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise InvalidSpec("thetas must be a vector of length >= 2")
    return np.diag(np.exp(1j * t))


def closed_form_phases(dimension: int, gamma: float) -> np.ndarray:
    """Quadratic closed-form phase ansatz for the measurement mask.

    For even dimensions this equals ``measurement_phases`` up to 2 pi.  For
    odd dimensions it does not diagonalize the propagation-based
    measurement.
    """
    d = np.arange(dimension)
    if dimension % 2 == 0:
        raw = np.pi / 4 - 2 * np.pi * gamma * d / dimension - np.pi * d * d / dimension
    else:
        raw = (np.pi / 4 * (dimension - 1) - 2 * np.pi * gamma * d / dimension
               - np.pi * d * d * (dimension + 1) ** 2 / dimension)
    return np.mod(raw, 2.0 * np.pi)


# ---------------------------------------------------------------------------
# continuous encoding and detection of one qudit


def integrated_overlap(step: float, width: float) -> float:
    """Overlap of two Gaussian slits ``step`` apart, as a 2049-point sum over
    ``[-step, step]`` normalised by the first slit's power there: the overlap
    guard before its closed form ``exp(-(step / width)^2 / 4)``."""
    x = np.linspace(-step, step, 2049)
    s0 = gaussian_amplitude(x, width)
    s1 = gaussian_amplitude(x - step, width)
    norm = (np.abs(s0) ** 2).sum()
    return float(abs((np.conj(s0) * s1).sum()) / norm) if norm > 0 else 0.0


@dataclass(frozen=True)
class QuditGeometry:
    """One qudit encoding: level d is a comb of Gaussian slits ``slit_width``
    wide with period ``period``, displaced by ``origin + d * period / D``, and
    detector bin d, ``period / D`` wide, is centred there."""

    period: float
    slit_width: float
    dimension: int
    origin: float


def slit_basis(slits) -> QuditGeometry:
    """The Talbot basis a synthesizer puts out behind ``slits``: period
    ``D * spacing``, level d centred on slit d of the axis-centred array."""
    d, period = slits.count, slits.period
    return QuditGeometry(period, slits.width, d, origin=-(d - 1) / 2.0 * period / d)


def encode(amplitudes, geom: QuditGeometry) -> np.ndarray:
    """Continuous encoding, as the comb's coefficient vector of period
    ``geom.period``: one period carries ``sum_d c_d S(x - x_d)``,
    with ``x_d = origin + d * period / D``."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape != (geom.dimension,):
        raise InvalidSpec("state dimension does not match the geometry")
    offsets = geom.origin + geom.period / geom.dimension * np.arange(geom.dimension)
    return periodic_comb(geom.period, geom.slit_width, offsets, amplitudes)


def decode(field: SampledField, geom: QuditGeometry) -> tuple:
    """Detector binning: ``(renormalized probabilities, captured power)``.

    Probability d integrates ``|field|^2`` over bins of width period/D
    centered on the basis offsets, summed over every period in the window.
    The window must span an integer number of periods.
    """
    xs = field.x()
    span = field.n * field.dx
    n_per = span / geom.period
    if abs(n_per - round(n_per)) > field.dx / geom.period:
        raise BinMisalignment(
            f"window spans {n_per:.4f} periods; detector bins need an integer count"
        )
    w = bin_weights(xs, field.dx, geom.origin, geom.period / geom.dimension,
                    geom.dimension)
    intensity = np.abs(field.values) ** 2 * field.dx
    raw = w.T @ intensity
    captured = float(raw.sum())
    if captured <= 0:
        raise InvalidSpec("no power captured by the detector bins")
    return raw / captured, captured


# ---------------------------------------------------------------------------
# the pair source on the slit lattice


def exact_source_coeffs(dimension: int, spacing: float, kappa_plus: float,
                        kappa_minus: float) -> np.ndarray:
    """The normalised source amplitude at the slit centres ``(d - (D-1)/2) spacing``,
    for source widths ``kappa_plus`` and ``kappa_minus`` in the length unit of
    ``spacing``: each exponent ``-(x1+x2)^2 / (4 k+^2) - (x1-x2)^2 / (4 k-^2)`` exact in
    rationals from the floats' exact values, less the largest, then one ``math.exp``
    per entry."""
    x = [Fraction(2 * d - (dimension - 1), 2) * Fraction(spacing) for d in range(dimension)]
    kp2, km2 = Fraction(kappa_plus) ** 2, Fraction(kappa_minus) ** 2
    exponents = [[-(a + b) ** 2 / (4 * kp2) - (a - b) ** 2 / (4 * km2) for b in x] for a in x]
    top = max(max(row) for row in exponents)
    c = np.array([[math.exp(e - top) if e - top > -800 else 0.0 for e in row]
                  for row in exponents])
    return c / np.linalg.norm(c)
