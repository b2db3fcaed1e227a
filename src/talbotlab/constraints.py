"""Feasibility estimates for pixelated-modulator qudit encoding.

Also home of the two plain-arithmetic Talbot rules that the field and qudit
layers share: the Talbot length and the gate-distance parity constant.
The module imports no NumPy, so the ``constraints`` command runs without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSpec

__all__ = [
    "HardwareSpec",
    "talbot_length",
    "parity_constant",
    "max_dimension",
    "mutual_information",
    "gate_distances",
]


def talbot_length(period: float, wavelength: float) -> float:
    """Talbot length of a periodic field: period squared over wavelength."""
    if not (period > 0 and wavelength > 0 and math.isfinite(period * period / wavelength)):
        raise InvalidSpec("period and wavelength must be positive, with a finite Talbot length")
    return period * period / wavelength


def parity_constant(dimension: int) -> int:
    """The constant c of the gate distance 2 z_T / (c D): 1 for odd, 2 for even D."""
    return 1 if dimension % 2 else 2


@dataclass(frozen=True)
class HardwareSpec:
    """Pixel pitch, pixel counts and working wavelength of the modulator/camera."""

    pixel_pitch: float
    pixels: tuple
    wavelength: float

    def __post_init__(self):
        n1, n2 = self.pixels
        if min(self.pixel_pitch, self.wavelength) <= 0 or min(n1, n2) < 1:
            raise InvalidSpec("pitch, wavelength and pixel counts must be positive")


def max_dimension(spec: HardwareSpec, illuminated_slits: int = 100) -> int:
    """Largest encodable dimension for a required number of illuminated slits.

    Uses the longer modulator side; the threshold (default 100) is the
    empirical slit count below which revival fidelity degrades.
    """
    if illuminated_slits < 1:
        raise InvalidSpec("slit threshold must be positive")
    return max(spec.pixels) // illuminated_slits


def mutual_information(dimension: int) -> float:
    """Bits per detected pair for a uniformly used D-level alphabet: log2 D."""
    if dimension < 1:
        raise InvalidSpec("dimension must be >= 1")
    return math.log2(dimension)


def gate_distances(pixel_pitch: float, dimension: int, wavelength: float) -> dict:
    """Gate propagation distance under the two published conventions.

    The fractional-revival algebra gives ``2 z_T / (c D)`` with c = 1 (odd D)
    and c = 2 (even D); an alternative statement gives ``z_T / (g D)`` with
    g = 1 (even D) and g = 2 (odd D).  They agree for even D and differ by a
    factor of four for odd D; the revival algebra is the one validated by
    propagation, so it is reported first.
    """
    z_t = talbot_length(pixel_pitch * dimension, wavelength)
    c = parity_constant(dimension)
    g = 2 if dimension % 2 else 1
    return {
        "talbot_length": z_t,
        "gate_distance": 2.0 * z_t / (c * dimension),
        "gate_distance_alt": z_t / (g * dimension),
    }
