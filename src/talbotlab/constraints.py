"""Feasibility estimates for pixelated-modulator qudit encoding.

Also home of the two plain-arithmetic Talbot rules that the field and qudit
layers share: the Talbot length and the gate-distance parity constant.
The module imports no NumPy, so the ``constraints`` command runs without it.
"""

from __future__ import annotations

import math

from .errors import InvalidSpec

__all__ = [
    "talbot_length",
    "parity_constant",
    "max_dimension",
    "mutual_information",
    "gate_distances",
]


def talbot_length(period: float, wavelength: float) -> float:
    """Talbot length of a periodic field: period squared over wavelength.

    A length that underflows to 0 or overflows to inf is refused: every
    distance in units of it would be 0 or meaningless.
    """
    z_t = period * period / wavelength if period > 0 and wavelength > 0 else 0.0
    if not 0 < z_t < math.inf:
        raise InvalidSpec("period and wavelength must be positive, with a positive,"
                          " finite Talbot length")
    return z_t


def parity_constant(dimension: int) -> int:
    """The constant c of the gate distance 2 z_T / (c D): 1 for odd, 2 for even D."""
    return 1 if dimension % 2 else 2


def max_dimension(pixels: tuple, illuminated_slits: int) -> int:
    """Largest encodable dimension for a required number of illuminated slits.

    Uses the longer modulator side.  The threshold is an assumed input, the
    number of slits a revival is taken to need; nothing here derives it.
    """
    if min(*pixels, illuminated_slits) < 1:
        raise InvalidSpec("pixel counts and slit threshold must be >= 1")
    return max(pixels) // illuminated_slits


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
