"""D-level algebra of Talbot qudits.

A qudit of dimension D is carried by D periodic wavefunctions mutually
displaced by ``period / D``.  Free propagation over the fractional revival
distance ``2 z_T / (c D)`` (``c = 1`` for odd D, ``c = 2`` for even D)
realizes a D x D unitary whose coefficients are Gauss sums; a pixelated
phase mask before it multiplies each level by a phase.  Together they map
the Fourier-type measurement bases used in Bell tests onto the detector
bins, which ``bin_weights`` lays over the sample grid.
"""

from __future__ import annotations

import math

import numpy as np

from .constraints import parity_constant
from .errors import BinMisalignment, InvalidSpec
from .fields import _freeze

__all__ = [
    "check_slit_overlap",
    "gauss_coeffs",
    "gate_distance_fraction",
    "measurement_phases",
    "measurement_basis",
    "measurement_unitary",
    "bin_outcome_map",
]

_ATOL = 1e-12


def gauss_coeffs(r: int) -> np.ndarray:
    """Read-only fractional-revival amplitudes
    ``a_j = (1/r) sum_n exp(-2 pi i (n^2 - j n) / r)``, checked for unit total weight.

    After propagating a periodic field by ``2 (s + 1/r) z_T`` it equals the
    superposition of copies shifted by ``j * period / r`` weighted by these
    amplitudes; they are independent of the integer ``s``.
    """
    if r < 1:
        raise InvalidSpec("r must be a positive integer")
    n = np.arange(r)
    j = np.arange(r)[:, None]
    values = np.exp(-2j * np.pi * ((n * n - j * n) % r) / r).sum(axis=1) / r
    if abs((np.abs(values) ** 2).sum() - 1.0) > _ATOL:
        raise InvalidSpec("revival amplitudes must have unit total weight")
    return _freeze(values)


def gate_distance_fraction(dimension: int) -> float:
    """Gate propagation distance as a fraction of the Talbot length: 2/(cD)."""
    return 2.0 / (parity_constant(dimension) * dimension)


def _talbot_gate_row(dimension: int) -> np.ndarray:
    """Read-only first row ``T[0, d] = a_{c ((-d) mod D)}`` of the circulant
    ``T = sum_j a_{c j} X^j`` realized on the Talbot basis by propagating
    ``2 z_T / (c D)``: ``a`` are the Gauss amplitudes of fraction ``1 / (c D)``,
    and ``c`` is 1 for odd and 2 for even dimension.
    """
    c = parity_constant(dimension)
    a = gauss_coeffs(c * dimension)
    return _freeze(a[c * (-np.arange(dimension) % dimension)])


def measurement_phases(dimension: int, gamma: float) -> np.ndarray:
    """Mask phases that make Talbot-gate propagation a basis measurement.

    The phases are derived directly from the first row of the gate matrix
    T: with ``theta_d = -arg(T[0, d]) - 2 pi gamma d / D`` the combined
    operation ``T @ diag(exp(i theta))`` sends every vector of the
    Fourier-type measurement family with offset ``gamma`` to a computational
    basis state (up to a phase).  Reduced modulo 2 pi.
    """
    if dimension < 2:
        raise InvalidSpec("dimension must be >= 2")
    t_row = _talbot_gate_row(dimension)
    d = np.arange(dimension)
    return np.mod(-np.angle(t_row) - 2 * np.pi * gamma * d / dimension, 2.0 * np.pi)


def measurement_basis(dimension: int, gamma: float, side: str) -> np.ndarray:
    """Matrix whose column f is the measurement eigenvector ``|f; gamma>``.

    Side "A" uses the kernel ``exp(+2 pi i d (f + gamma) / D) / sqrt(D)``,
    side "B" the conjugate-ordered kernel ``exp(2 pi i d (-f + gamma) / D) / sqrt(D)``.
    The integer part ``d (+-f)`` of the phase index is reduced mod D first.
    """
    if side not in ("A", "B"):
        raise InvalidSpec("side must be 'A' or 'B'")
    d = np.arange(dimension)[:, None]
    f = np.arange(dimension)[None, :]
    sign = 1 if side == "A" else -1
    index = (sign * d * f) % dimension + d * gamma
    return np.exp(2j * np.pi * index / dimension) / math.sqrt(dimension)


def measurement_unitary(dimension: int, gamma: float, side: str) -> np.ndarray:
    """Read-only unitary mapping the measurement basis onto the computational
    basis, checked for unitarity.

    Row f is the bra of the measurement eigenvector, so applying the matrix
    and reading out computational-basis probabilities implements the
    projective measurement with offset ``gamma``.  No command builds it.
    """
    m = measurement_basis(dimension, gamma, side).conj().T
    err = np.abs(m.conj().T @ m - np.eye(dimension)).max()
    if err > _ATOL:
        raise InvalidSpec(f"matrix is not unitary (max |U+U - 1| = {err:.2e})")
    return _freeze(m)


def bin_outcome_map(dimension: int, side: str) -> np.ndarray:
    """Detector-bin to outcome relabeling of the propagation-based measurement.

    The gate-plus-mask measurement deposits eigenvector f into one
    well-defined bin; ``outcome = map[bin]`` makes the propagation route
    agree with :func:`measurement_unitary` outcome by outcome.  The
    permutation is ``map[b] = b h mod D`` on side "A" and ``-b h mod D`` on
    side "B", with ``h = (D + 1) / 2`` for odd and ``h = 1`` for even D.
    """
    if side not in ("A", "B"):
        raise InvalidSpec("side must be 'A' or 'B'")
    h = (dimension + 1) // 2 if dimension % 2 else 1
    return _freeze((h if side == "A" else -h) * np.arange(dimension) % dimension)


# ---------------------------------------------------------------------------
# slit overlap and detector bins


# largest overlap of adjacent basis wavefunctions that the slits may have
MAX_OVERLAP = 1e-4


def _adjacent_overlap(ratio: float) -> float:
    """Overlap of two Gaussian slits ``ratio`` widths apart; ``ratio ** 2`` raises on overflow."""
    return math.exp(-ratio * ratio / 4.0)


def check_slit_overlap(spacing: float, width: float) -> None:
    """Refuse slits too wide for adjacent qudit levels to be nearly orthogonal.

    Level d is the comb anchored at slit d, so adjacent levels lie one slit
    spacing apart and their overlap is ``exp(-(spacing / width)^2 / 4)``.  It
    may not exceed ``MAX_OVERLAP``, which bounds the slit width at about 0.165
    spacings.
    """
    if not (spacing > 0 and width > 0):
        raise InvalidSpec("slit spacing and width must be positive")
    ov = _adjacent_overlap(spacing / width)
    if ov > MAX_OVERLAP:
        # the widest slit that passes, from exp(-1 / (4 w^2)) = MAX_OVERLAP, in spacings
        # rounded down to four digits, and one digit lower if the guard refuses that
        w = math.floor(1e4 / (2.0 * math.sqrt(-math.log(MAX_OVERLAP)))) / 1e4
        w = w if _adjacent_overlap(1.0 / w) <= MAX_OVERLAP else w - 1e-4
        raise InvalidSpec(
            f"adjacent basis overlap {ov:.2e} > 1e-4; narrow the slits"
            f" (width {width:g} vs spacing {spacing:g}); use a slit width of"
            f" at most {w:g} slit spacings"
        )


def bin_weights(x: np.ndarray, dx: float, origin: float, bin_width: float,
                dimension: int) -> np.ndarray:
    """Sample-to-bin weight matrix for half-open bins tiling the axis.

    Bin d collects the interval ``[origin + d*w - w/2, origin + d*w + w/2)``
    modulo the period ``D * w``.  Each sample cell of width dx is split
    between bins according to exact sub-cell overlap, so the tiling captures
    all power with no leakage and no alignment requirement beyond
    ``bin_width >= 2 dx``.
    """
    if bin_width < 2.0 * dx:
        raise BinMisalignment(
            f"bin width {bin_width:g} below two sample pitches ({2 * dx:g}); "
            "bins cannot be aligned to better than dx"
        )
    n = x.size
    w = np.zeros((n, dimension))
    lo = (x - origin - dx / 2.0 + bin_width / 2.0) / bin_width
    hi = lo + dx / bin_width
    b0 = np.floor(lo).astype(int)
    whole = b0 == np.floor(hi).astype(int)
    w[np.nonzero(whole)[0], b0[whole] % dimension] = 1.0
    # a cell spans at most half a bin, so a cut cell splits between two bins
    cut = np.nonzero(~whole)[0]
    edge, span = b0[cut] + 1, hi[cut] - lo[cut]
    w[cut, (edge - 1) % dimension] += (edge - lo[cut]) / span
    w[cut, edge % dimension] += (hi[cut] - edge) / span
    return w

