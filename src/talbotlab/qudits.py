"""D-level algebra of Talbot qudits.

A qudit of dimension D is carried by D periodic wavefunctions mutually
displaced by ``period / D``.  Free propagation over the fractional revival
distance ``2 z_T / (c D)`` (``c = 1`` for odd D, ``c = 2`` for even D)
realizes a D x D unitary whose coefficients are Gauss sums; a pixelated
phase mask realizes diagonal phase gates.  Together they map the
Fourier-type measurement bases used in Bell tests onto the detector bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constraints import parity_constant
from .errors import BinMisalignment, InvalidSpec, NotCoprime
from .fields import (GAUSSIAN, ModeField, SampledField, SlitProfile, _freeze,
                     periodic_comb)

__all__ = [
    "GaussCoeffs",
    "QuditState",
    "QuditUnitary",
    "TalbotGeometry",
    "gauss_coeffs",
    "talbot_gate",
    "gate_distance_fraction",
    "phase_gate",
    "measurement_phases",
    "closed_form_phases",
    "measurement_basis",
    "measurement_unitary",
    "bin_outcome_map",
    "encode",
    "basis_field",
    "decode",
    "decode_with_capture",
]

_ATOL = 1e-12


@dataclass(frozen=True)
class GaussCoeffs:
    """Fractional-revival amplitudes a_j for the fraction q/r."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if abs((np.abs(v) ** 2).sum() - 1.0) > _ATOL:
            raise InvalidSpec("revival amplitudes must have unit total weight")
        object.__setattr__(self, "values", _freeze(v))


@dataclass(frozen=True)
class QuditState:
    """Unit vector in the Talbot computational basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 1 or a.size < 2:
            raise InvalidSpec("a qudit needs at least 2 amplitudes")
        if abs((np.abs(a) ** 2).sum() - 1.0) > _ATOL:
            raise InvalidSpec("state must have unit norm")
        object.__setattr__(self, "amplitudes", _freeze(a))

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    @classmethod
    def basis(cls, dimension: int, index: int) -> "QuditState":
        v = np.zeros(dimension, dtype=complex)
        v[index % dimension] = 1.0
        return cls(v)

    @classmethod
    def uniform(cls, dimension: int) -> "QuditState":
        return cls(np.full(dimension, 1.0 / math.sqrt(dimension), dtype=complex))


@dataclass(frozen=True)
class QuditUnitary:
    """D x D unitary matrix, verified on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidSpec("matrix must be square")
        err = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if err > _ATOL:
            raise InvalidSpec(f"matrix is not unitary (max |U+U - 1| = {err:.2e})")
        object.__setattr__(self, "matrix", _freeze(m))


def gauss_coeffs(q: int, r: int) -> GaussCoeffs:
    """Fractional-revival amplitudes ``a_j = (1/r) sum_n exp(-2 pi i (n^2 - j n) q / r)``.

    After propagating a periodic field by ``2 (s + q/r) z_T`` it equals the
    superposition of copies shifted by ``j * period / r`` weighted by these
    amplitudes; they are independent of the integer ``s``.
    """
    if r < 1 or q < 1:
        raise InvalidSpec("q and r must be positive integers")
    if math.gcd(q, r) != 1:
        raise NotCoprime(f"gcd({q}, {r}) != 1")
    n = np.arange(r)
    j = np.arange(r)[:, None]
    values = np.exp(-2j * np.pi * ((n * n - j * n) * q % r) / r).sum(axis=1) / r
    return GaussCoeffs(values)


def gate_distance_fraction(dimension: int) -> float:
    """Gate propagation distance as a fraction of the Talbot length: 2/(cD)."""
    return 2.0 / (parity_constant(dimension) * dimension)


@lru_cache(maxsize=None)
def _talbot_gate_matrix(dimension: int) -> np.ndarray:
    c = parity_constant(dimension)
    a = gauss_coeffs(1, c * dimension).values
    d = np.arange(dimension)
    # circulant: entry [row, col] = a_{c * ((row - col) mod D)}
    m = a[(c * ((d[:, None] - d[None, :]) % dimension))]
    return _freeze(m)


def talbot_gate(dimension: int) -> QuditUnitary:
    """Unitary realized on the Talbot basis by propagating ``2 z_T / (c D)``.

    Equals ``sum_j a_{c j} X^j`` with the Gauss amplitudes of fraction
    ``1 / (c D)``; ``c`` is 1 for odd and 2 for even dimension.
    """
    if dimension < 2:
        raise InvalidSpec("dimension must be >= 2")
    return QuditUnitary(_talbot_gate_matrix(dimension))


def phase_gate(thetas) -> QuditUnitary:
    """Diagonal gate ``diag(exp(i theta_d))``."""
    t = np.asarray(thetas, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise InvalidSpec("thetas must be a vector of length >= 2")
    return QuditUnitary(np.diag(np.exp(1j * t)))


def closed_form_phases(dimension: int, gamma: float) -> np.ndarray:
    """Quadratic closed-form phase ansatz for the measurement mask.

    For even dimensions this equals :func:`measurement_phases` up to 2 pi.
    For odd dimensions it does not diagonalize the propagation-based
    measurement and is retained only for diagnostics.
    """
    d = np.arange(dimension)
    if dimension % 2 == 0:
        raw = np.pi / 4 - 2 * np.pi * gamma * d / dimension - np.pi * d * d / dimension
    else:
        raw = (np.pi / 4 * (dimension - 1) - 2 * np.pi * gamma * d / dimension
               - np.pi * d * d * (dimension + 1) ** 2 / dimension)
    return np.mod(raw, 2.0 * np.pi)


def measurement_phases(dimension: int, gamma: float) -> np.ndarray:
    """Mask phases that make Talbot-gate propagation a basis measurement.

    The phases are derived directly from the gate coefficients: with
    ``theta_d = -arg(T[0, d]) - 2 pi gamma d / D`` the combined operation
    ``talbot_gate @ phase_gate(theta)`` sends every vector of the
    Fourier-type measurement family with offset ``gamma`` to a computational
    basis state (up to a phase).  Reduced modulo 2 pi.
    """
    if dimension < 2:
        raise InvalidSpec("dimension must be >= 2")
    t_row = _talbot_gate_matrix(dimension)[0, :]
    d = np.arange(dimension)
    return np.mod(-np.angle(t_row) - 2 * np.pi * gamma * d / dimension, 2.0 * np.pi)


def measurement_basis(dimension: int, gamma: float, side: str) -> np.ndarray:
    """Matrix whose column f is the measurement eigenvector ``|f; gamma>``.

    Side "A" uses the kernel ``exp(+2 pi i d (f + gamma) / D) / sqrt(D)``,
    side "B" the conjugate-ordered kernel ``exp(2 pi i d (-f + gamma) / D) / sqrt(D)``.
    """
    if side not in ("A", "B"):
        raise InvalidSpec("side must be 'A' or 'B'")
    d = np.arange(dimension)[:, None]
    f = np.arange(dimension)[None, :]
    sign = 1.0 if side == "A" else -1.0
    return np.exp(2j * np.pi * d * (sign * f + gamma) / dimension) / math.sqrt(dimension)


def measurement_unitary(dimension: int, gamma: float, side: str) -> QuditUnitary:
    """Unitary mapping the measurement basis onto the computational basis.

    Row f is the bra of the measurement eigenvector, so applying the matrix
    and reading out computational-basis probabilities implements the
    projective measurement with offset ``gamma``.
    """
    return QuditUnitary(measurement_basis(dimension, gamma, side).conj().T)


@lru_cache(maxsize=None)
def bin_outcome_map(dimension: int, side: str) -> np.ndarray:
    """Detector-bin to outcome relabeling of the propagation-based measurement.

    The gate-plus-mask measurement deposits eigenvector f into one
    well-defined bin; the permutation depends only on the parity of the
    dimension and the side convention.  ``outcome = map[bin]`` makes the
    propagation route agree with :func:`measurement_unitary` outcome by
    outcome.
    """
    m = _talbot_gate_matrix(dimension) @ np.diag(np.exp(1j * measurement_phases(dimension, 0.0)))
    basis = measurement_basis(dimension, 0.0, side)
    amp = np.abs(m @ basis)
    if not np.allclose(amp.max(axis=0), 1.0, atol=1e-9):
        raise InvalidSpec(f"measurement mapping failed for D={dimension}")
    bin_of_outcome = amp.argmax(axis=0)
    out = np.empty(dimension, dtype=int)
    out[bin_of_outcome] = np.arange(dimension)
    return _freeze(out)


# ---------------------------------------------------------------------------
# continuous encoding


@dataclass(frozen=True)
class TalbotGeometry:
    """Geometry of the qudit encoding: period, slit width, dimension.

    Basis state d is a slit comb displaced by ``origin + d * period / D``.
    Construction verifies that adjacent basis wavefunctions are nearly
    orthogonal (overlap below 1e-4), which bounds the slit width well under
    ``period / D``.
    """

    period: float
    slit_width: float
    dimension: int
    profile: SlitProfile = GAUSSIAN
    origin: float = 0.0

    def __post_init__(self):
        if self.dimension < 2:
            raise InvalidSpec("dimension must be >= 2")
        if not (self.period > 0 and self.slit_width > 0):
            raise InvalidSpec("period and slit width must be positive")
        step = self.period / self.dimension
        if not self.slit_width < step:
            raise InvalidSpec("slit width must be below period / dimension")
        ov = self._adjacent_overlap()
        if ov > 1e-4:
            raise InvalidSpec(
                f"adjacent basis overlap {ov:.2e} > 1e-4; narrow the slits "
                f"(width {self.slit_width:g} vs spacing {step:g})"
            )

    def _adjacent_overlap(self) -> float:
        step = self.period / self.dimension
        x = np.linspace(-step, step, 2049)
        s0 = self.profile.amplitude(x, self.slit_width)
        s1 = self.profile.amplitude(x - step, self.slit_width)
        norm = (np.abs(s0) ** 2).sum()
        return float(abs((np.conj(s0) * s1).sum()) / norm) if norm > 0 else 0.0

    @property
    def offset_step(self) -> float:
        return self.period / self.dimension

    def offsets(self) -> np.ndarray:
        return self.origin + self.offset_step * np.arange(self.dimension)


def encode(state: QuditState, geom: TalbotGeometry) -> ModeField:
    """Continuous encoding: one period carries ``sum_d c_d S(x - x_d)``."""
    if state.dimension != geom.dimension:
        raise InvalidSpec("state dimension does not match the geometry")
    return periodic_comb(geom.period, geom.slit_width, geom.offsets(),
                         state.amplitudes, profile=geom.profile)


def basis_field(geom: TalbotGeometry, index: int) -> ModeField:
    return encode(QuditState.basis(geom.dimension, index), geom)


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


def decode_with_capture(field: SampledField, geom: TalbotGeometry) -> tuple:
    """Detector binning; returns (renormalized probabilities, captured power).

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
    w = bin_weights(xs, field.dx, geom.origin, geom.offset_step, geom.dimension)
    intensity = np.abs(field.values) ** 2 * field.dx
    raw = w.T @ intensity
    captured = float(raw.sum())
    if captured <= 0:
        raise InvalidSpec("no power captured by the detector bins")
    return raw / captured, captured


def decode(field: SampledField, geom: TalbotGeometry) -> np.ndarray:
    """Renormalized outcome probabilities of detector binning."""
    probs, _ = decode_with_capture(field, geom)
    return probs
