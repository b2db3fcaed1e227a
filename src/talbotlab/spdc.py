"""Two-photon state engineering with the double-Gaussian source model.

The source emits photon pairs whose transverse amplitude factorizes into
Gaussians of the sum and difference coordinates, with widths kappa_plus and
kappa_minus.  A pair of D-slit apertures followed by lens--grating--lens
synthesizers turns the pair into an entangled two-qudit state over comb
wavefunctions; the coefficient matrix follows from evaluating the source
amplitude on the slit lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, UnderResolved
from .fields import (GAUSSIAN, MASS_TOL, MAX_ORDERS, BiphotonField, ModeField,
                     SlitProfile, _abs2, _density_power, _freeze, _grid_power, _unit_root,
                     centered_axis, check_entries, periodic_comb, unit_power)
from .qudits import TalbotGeometry

__all__ = [
    "BiphotonGaussian",
    "SlitArray",
    "SynthesizerGeometry",
    "CoeffMatrix",
    "biphoton_amplitude",
    "initial_biphoton_field",
    "apply_dslit",
    "synthesize_single",
    "grating_envelope",
    "render_synthesized",
    "entangled_coeffs",
    "maximally_entangled",
    "comb_basis",
    "schmidt_modes",
    "two_photon_field",
    "two_photon_density",
    "schmidt_spectrum",
]


@dataclass(frozen=True)
class BiphotonGaussian:
    """Double-Gaussian pair source: widths of the sum and difference envelopes."""

    kappa_plus: float
    kappa_minus: float

    def __post_init__(self):
        if not all(k > 0 and 0 < k * k < math.inf for k in (self.kappa_plus, self.kappa_minus)):
            raise InvalidSpec("kappa_plus and kappa_minus must be positive, with finite squares")

    @property
    def correlation(self) -> float:
        """Spatial correlation R = (k+^2 - k-^2) / (k+^2 + k-^2), in (-1, 1)."""
        kp2, km2 = self.kappa_plus ** 2, self.kappa_minus ** 2
        return (kp2 - km2) / (kp2 + km2)


def biphoton_amplitude(model: BiphotonGaussian, x1, x2):
    """Normalized source amplitude at transverse positions (x1, x2).

    ``psi(x1, x2) = N exp(-(x1+x2)^2 / (4 k+^2)) exp(-(x1-x2)^2 / (4 k-^2))``
    with N fixed by unit probability over the plane.  Symmetric under
    exchange of the photons.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    norm = 1.0 / math.sqrt(math.pi * model.kappa_plus * model.kappa_minus)
    return norm * np.exp(
        -((x1 + x2) ** 2) / (4.0 * model.kappa_plus ** 2)
        - ((x1 - x2) ** 2) / (4.0 * model.kappa_minus ** 2)
    )


@dataclass(frozen=True)
class SlitArray:
    """D identical slits of width ``width`` spaced by ``spacing``.

    ``amplitudes`` are the complex illumination weights of the slits
    (uniform when omitted); they are stored normalized.  The array is
    centered on the optical axis: slit d sits at ``(d - (D-1)/2) * spacing``.
    """

    count: int
    spacing: float
    width: float
    profile: SlitProfile = GAUSSIAN
    amplitudes: np.ndarray | None = None

    def __post_init__(self):
        if self.count < 1:
            raise InvalidSpec("need at least one slit")
        if not self.spacing > self.width:
            raise InvalidSpec("slit spacing must exceed the slit width")
        amps = np.array(np.ones(self.count) if self.amplitudes is None else self.amplitudes,
                        dtype=complex)
        if amps.shape != (self.count,):
            raise InvalidSpec("amplitudes must have one entry per slit")
        # unit_power refuses a zero, NaN, infinite or overflowing norm
        object.__setattr__(self, "amplitudes", _freeze(unit_power(amps)))

    def positions(self) -> np.ndarray:
        return (np.arange(self.count) - (self.count - 1) / 2.0) * self.spacing

    def transmission(self, x: np.ndarray) -> np.ndarray:
        """Aperture amplitude sum_d c_d S(x - x_d) on the given coordinates."""
        return _tooth_sum(self, x, self.positions(), self.amplitudes)


def _tooth_sum(slits: SlitArray, x: np.ndarray, centers, weights) -> np.ndarray:
    """``sum_j weights[j] S(x - centers[j])`` with S the slit profile: the aperture
    and every comb column (weights A_m, or ones for an ideal comb) are this sum."""
    out = np.zeros(x.shape, dtype=complex)
    for center, weight in zip(centers, weights):
        out += weight * slits.profile.amplitude(x - center, slits.width)
    return out


@dataclass(frozen=True)
class SynthesizerGeometry:
    """Lens--grating--lens synthesizer: two Fourier lenses around a comb grating.

    The grating has period ``grating_period`` and Gaussian spikes of width
    ``spike_width``; its Fourier orders reproduce the input aperture on a
    lattice of period ``effective_period = focal_length * wavelength /
    grating_period``.
    """

    focal_length: float
    wavelength: float
    grating_period: float
    spike_width: float

    def __post_init__(self):
        lengths = (self.focal_length, self.wavelength, self.grating_period, self.spike_width)
        if not all(0 < length < math.inf for length in lengths):
            raise InvalidSpec("synthesizer focal length, wavelength, grating period and spike"
                              " width must be positive and finite, got "
                              + ", ".join(f"{length:g}" for length in lengths))

    @property
    def effective_period(self) -> float:
        return self.focal_length * self.wavelength / self.grating_period

    @classmethod
    def for_dimension(cls, dimension: int, spacing: float,
                      spike_width: float | None = None) -> "SynthesizerGeometry":
        """Geometry whose effective period is ``dimension * spacing``.

        That choice makes the slit lattice coincide with the Talbot-basis
        offsets, so the synthesizer output encodes a qudit.  The grating
        period is set to the slit spacing and the wavelength to a hundredth
        of it; the focal length follows.
        """
        if dimension < 1 or spacing <= 0:
            raise InvalidSpec("dimension must be >= 1 and spacing positive")
        lam = spacing / 100.0
        spike = spike_width if spike_width is not None else 0.05 * spacing
        focal = dimension * spacing * spacing / lam
        return cls(focal, lam, spacing, spike)

    def talbot_geometry(self, dimension: int, slit_width: float,
                        profile: SlitProfile = GAUSSIAN) -> TalbotGeometry:
        origin = -(dimension - 1) / 2.0 * self.effective_period / dimension
        return TalbotGeometry(self.effective_period, slit_width, dimension,
                              profile=profile, origin=origin)


@dataclass(frozen=True)
class CoeffMatrix:
    """Coefficient matrix of the entangled two-qudit comb state."""

    values: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.values, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise InvalidSpec("coefficient matrix must be square")
        if not abs((np.abs(c) ** 2).sum() - 1.0) <= 1e-12:
            raise InvalidSpec("coefficient matrix must have unit Frobenius norm")
        object.__setattr__(self, "values", _freeze(c))

    @property
    def dimension(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# operations

# samples per slit width that apply_dslit requires of the two-photon grid
SAMPLES_PER_SLIT_WIDTH = 8


def initial_biphoton_field(model: BiphotonGaussian, x1: np.ndarray,
                           x2: np.ndarray) -> BiphotonField:
    """Source amplitude sampled on the tensor grid of two coordinate axes."""
    check_entries("biphoton grid", x1.size, x2.size)
    if min(x1.size, x2.size) < 2:
        raise InvalidSpec("a biphoton grid axis needs at least 2 samples")
    dx1, dx2 = float(x1[1] - x1[0]), float(x2[1] - x2[0])
    vals = biphoton_amplitude(model, x1[:, None], x2[None, :]).astype(complex)
    return BiphotonField(float(x1[0]), dx1, float(x2[0]), dx2, unit_power(vals, dx1, dx2))


def apply_dslit(field: BiphotonField, slits: SlitArray) -> tuple:
    """Send each photon through the slit array.

    Returns ``(masked field renormalized, transmitted power fraction)``.
    Raises ``UnderResolved`` when the grid does not carry at least
    ``SAMPLES_PER_SLIT_WIDTH`` samples per slit width.
    """
    for dx in (field.dx1, field.dx2):
        if slits.width / dx < SAMPLES_PER_SLIT_WIDTH * (1.0 - 1e-9):
            raise UnderResolved(
                f"slit width {slits.width:g} sampled with fewer than "
                f"{SAMPLES_PER_SLIT_WIDTH} points (dx = {dx:g})"
            )
    t1 = slits.transmission(field.x1())
    t2 = slits.transmission(field.x2())
    masked = field.values * t1[:, None]
    masked *= t2[None, :]
    power = _grid_power(masked, field.dx1, field.dx2)
    transmitted = power / field.power()
    if transmitted <= 0:
        raise InvalidSpec("aperture blocked the entire field")
    masked /= _unit_root(power)
    out = BiphotonField(field.x0_1, field.dx1, field.x0_2, field.dx2, masked)
    return out, float(transmitted)


def grating_envelope(geom: SynthesizerGeometry) -> tuple:
    """Fourier orders (m, A_m) of the comb grating, truncated by mass.

    ``A_m = exp(-(2 pi m sigma)^2 / (2 lg^2))`` for Gaussian spikes of width
    sigma on a lattice of period lg.
    """
    if not geom.grating_period * geom.grating_period < math.inf:
        raise InvalidSpec(f"grating period {geom.grating_period:g} has no finite square")
    m = 8
    while True:
        mm = np.arange(-m, m + 1)
        with np.errstate(over="ignore"):  # (2 pi m sigma)^2 overflows only where A_m is 0
            env = np.exp(-((2 * np.pi * mm * geom.spike_width) ** 2)
                         / (2.0 * geom.grating_period ** 2))
        mass = env ** 2
        if mass[0] + mass[-1] < MASS_TOL * mass.sum() / (2 * m):
            break
        if m >= MAX_ORDERS:
            raise InvalidSpec("grating envelope truncation did not converge")
        m *= 2
    keep = mass > MASS_TOL * mass.sum() / mass.size
    idx = np.nonzero(keep)[0]
    lo, hi = idx.min(), idx.max()
    half = max(m - lo, hi - m)
    return np.arange(-half, half + 1), env[m - half: m + half + 1]


def synthesize_single(slits: SlitArray, geom: SynthesizerGeometry) -> ModeField:
    """Synthesizer output as an ideal periodic comb state.

    The grating's Fourier orders replicate the aperture on the effective
    lattice; the periodic part of the output is the effective-period
    periodization of the aperture, returned as a normalized ModeField.  Use
    :func:`render_synthesized` for the finite, envelope-weighted profile.
    """
    return periodic_comb(geom.effective_period, slits.width, slits.positions(),
                         slits.amplitudes, profile=slits.profile)


def _comb_columns(slits: SlitArray, geom: SynthesizerGeometry, x: np.ndarray,
                  envelope: bool):
    """Unnormalized comb columns on coordinates x, yielded one per slit d.

    The teeth sit on the effective lattice ``positions[d] + m * period``.
    With ``envelope`` they carry the grating order amplitudes A_m, else they
    are uniform (the ideal periodic comb).  Teeth centred more than six slit
    widths outside x are left out.
    """
    period = geom.effective_period
    lo, hi = x.min(), x.max()
    if envelope:
        mm, env = grating_envelope(geom)
    else:
        half = int(math.ceil(max(-lo, hi) / period)) + 2
        mm = np.arange(-half, half + 1)
        env = np.ones(mm.size)
    margin = 6.0 * slits.width
    for position in slits.positions():
        centers = position + mm * period
        keep = (centers > lo - margin) & (centers < hi + margin)
        yield _tooth_sum(slits, x, centers[keep], env[keep])


def render_synthesized(slits: SlitArray, geom: SynthesizerGeometry,
                       x: np.ndarray) -> np.ndarray:
    """Finite synthesizer output on coordinates x, envelope-weighted comb.

    Each grating order m contributes a copy of the aperture displaced by
    ``m * effective_period`` and weighted by the order amplitude A_m.  The
    output is summed slit by slit, so memory stays O(x.size) for any D.
    """
    check_entries("comb basis", x.size, slits.count)  # the same work bound as the basis
    out = np.zeros(x.shape, dtype=complex)
    for amp, column in zip(slits.amplitudes, _comb_columns(slits, geom, x, envelope=True)):
        out += amp * column
    return out


def entangled_coeffs(dimension: int, spacing: float,
                     model: BiphotonGaussian) -> CoeffMatrix:
    """Coefficient matrix of the two-qudit comb state behind twin synthesizers.

    With slit indices centered on the beam axis the matrix is the source
    amplitude on the slit lattice,

    ``C[d1, d2] ~ exp(-(spacing^2 / (4 Dp^2)) (d1^2 - 2 R d1 d2 + d2^2))``

    with ``1/Dp^2 = 1/k+^2 + 1/k-^2`` and R the correlation coefficient.
    Evaluating through R keeps the cross term real for any width ordering.
    Exact (no narrow-slit approximation) and symmetric in (d1, d2).
    """
    if dimension < 1:
        raise InvalidSpec("dimension must be >= 1")
    check_entries("coefficient matrix", dimension, dimension)
    dc = np.arange(dimension) - (dimension - 1) / 2.0
    d1 = dc[:, None]
    d2 = dc[None, :]
    inv_dp2 = 1.0 / model.kappa_plus ** 2 + 1.0 / model.kappa_minus ** 2
    r = model.correlation
    if not spacing * spacing < math.inf:
        raise InvalidSpec(f"spacing {spacing!r} has no finite square")
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.exp(-(spacing ** 2 / 4.0) * inv_dp2 * (d1 * d1 - 2.0 * r * d1 * d2 + d2 * d2))
        norm = np.linalg.norm(c)
    if not norm > 0:  # every amplitude underflowed, or NaN from an infinite inv_dp2
        raise InvalidSpec("source widths and spacing leave no representable amplitude")
    return CoeffMatrix(c / norm)


def maximally_entangled(dimension: int) -> CoeffMatrix:
    """Ideal coefficient matrix: identity over sqrt(D)."""
    check_entries("coefficient matrix", dimension, dimension)
    return CoeffMatrix(np.eye(dimension) / math.sqrt(dimension))


def comb_basis(slits: SlitArray, geom: SynthesizerGeometry, samples_per_cell: int,
               cells: int, envelope: bool) -> tuple:
    """``(x, B)``: the centred grid of ``cells`` slit spacings sampled
    ``samples_per_cell`` times each, and the n x D comb basis on it, column d
    the comb anchored at slit d with unit power.  Needs 3 samples per slit width.
    """
    dx = slits.spacing / samples_per_cell
    if slits.width / dx < 3 * (1.0 - 1e-9):
        raise UnderResolved(
            f"slit width {slits.width:g} needs at least 3 samples (dx = {dx:g})"
        )
    x = centered_axis(samples_per_cell * cells, dx)
    check_entries("comb basis", x.size, slits.count)
    basis = np.empty((x.size, slits.count), dtype=complex)
    for d, column in enumerate(_comb_columns(slits, geom, x, envelope)):
        if not column.any():
            raise InvalidSpec("empty comb on the grid; enlarge the window")
        basis[:, d] = unit_power(column, dx)
    return x, basis


def two_photon_field(
    coeffs: CoeffMatrix,
    slits: SlitArray,
    geom: SynthesizerGeometry,
    samples_per_cell: int = 64,
    cells: int = 64,
    envelope: bool = True,
) -> BiphotonField:
    """Two-photon comb state on a square grid.

    ``Psi(x1, x2) = sum C[d1, d2] T_{d1}(x1) T_{d2}(x2)`` with T_d the comb
    wavefunction anchored at slit d.  The grid spans ``cells`` cells of one
    slit spacing sampled ``samples_per_cell`` times each, centered on the
    axis.  With ``envelope=False`` the combs are ideal (uniform teeth),
    which is the periodic idealization used for route comparisons.
    """
    x, dx, basis = _pair_basis(coeffs, slits, geom, samples_per_cell, cells, envelope)
    vals = unit_power(basis @ coeffs.values @ basis.T, dx, dx)
    return BiphotonField(float(x[0]), dx, float(x[0]), dx, vals)


def _pair_basis(coeffs: CoeffMatrix, slits: SlitArray, geom: SynthesizerGeometry,
                samples_per_cell: int, cells: int, envelope: bool) -> tuple:
    """``(x, dx, B)`` of the two-photon grid, once its size is checked."""
    if slits.count != coeffs.dimension:
        raise InvalidSpec("slit count must match the coefficient dimension")
    n = samples_per_cell * cells
    check_entries("two-photon grid", n, n)
    x, basis = comb_basis(slits, geom, samples_per_cell, cells, envelope)
    return x, slits.spacing / samples_per_cell, basis


# multiply-adds in each block product of two_photon_density.  OpenBLAS, NumPy's
# usual BLAS, keeps a complex gemm of at most 2**16 of them on the calling
# thread.  These products (inner dimension D) are memory-bound: a threaded block
# costs twice the CPU for no gain, and waking the thread pool once per block
# cost up to 1 s on a 2-core machine after an idle spell.  The command line runs
# OpenBLAS on one thread, so this sizing serves library callers whose BLAS is threaded.
_BLOCK_MACS = 2 ** 16


def _block_rows(n: int, dimension: int) -> int:
    """Rows of the n x n pair state that two_photon_density builds per product."""
    return min(n, max(1, _BLOCK_MACS // (n * dimension)))


def two_photon_density(
    coeffs: CoeffMatrix,
    slits: SlitArray,
    geom: SynthesizerGeometry,
    samples_per_cell: int = 64,
    cells: int = 64,
    envelope: bool = True,
) -> tuple:
    """``(x, dx, |Psi|^2)``: the density of :func:`two_photon_field`, bit for bit,
    without its n x n complex grid.

    Row blocks of ``(B C) B^T`` are built in one small reused buffer, twice.  The
    first pass writes their ``|.|^2`` and sums it for the power as
    ``unit_power`` does; the second divides each block by the root of that
    power and writes its density over the first.
    """
    x, dx, basis = _pair_basis(coeffs, slits, geom, samples_per_cell, cells, envelope)
    left = basis @ coeffs.values
    density = np.empty((x.size, x.size))
    buf = np.empty((_block_rows(x.size, coeffs.dimension), x.size), dtype=complex)

    def blocks():
        for start in range(0, x.size, buf.shape[0]):
            block = buf[:x.size - start]  # the last block may be short
            np.matmul(left[start:start + block.shape[0]], basis.T, out=block)
            yield block, density[start:start + block.shape[0]]

    for block, rows in blocks():
        _abs2(block, out=rows)
    root = _unit_root(_density_power(density, dx, dx))
    for block, rows in blocks():
        block /= root
        _abs2(block, out=rows)
    return x, dx, density


def schmidt_modes(x: np.ndarray, basis: np.ndarray, coeffs: CoeffMatrix) -> tuple:
    """``(u_a, s, u_b)``: the pair state ``B C B^T`` on grid x as ``u_a diag(s) u_b^T``.

    ``B sqrt(dx) = Q R`` and ``R C R^T = L diag(s) Rh`` give ``u_a = Q L`` and
    ``u_b = Q Rh^T``, orthonormal Schmidt-mode columns on each axis (unit norm
    in the sample sum), with the Schmidt values ``s`` scaled to unit norm.
    """
    if basis.shape != (x.size, coeffs.dimension):
        raise InvalidSpec("comb basis must hold one column per qudit level")
    q, r = np.linalg.qr(basis * np.sqrt(x[1] - x[0]))
    left, s, right = np.linalg.svd(r @ coeffs.values @ r.T)
    return q @ left, s / np.linalg.norm(s), q @ right.T


def schmidt_spectrum(coeffs: CoeffMatrix) -> tuple:
    """Singular values of the coefficient matrix and the entanglement entropy.

    Returns ``(values, entropy_bits)`` with values non-increasing, their
    squares summing to one, and ``entropy = -sum v^2 log2 v^2``.
    """
    vals = np.linalg.svd(coeffs.values, compute_uv=False)
    p = vals ** 2
    p = p / p.sum()
    nz = p[p > 1e-300]
    entropy = float(-(nz * np.log2(nz)).sum())
    return vals, entropy
