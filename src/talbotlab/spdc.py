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
from .fields import (MASS_TOL, MAX_ENTRIES, MAX_ORDERS, _abs2, _density_power, _freeze,
                     _norm_power, centered_axis, check_entries, gaussian_amplitude,
                     periodic_comb, unit_power)

__all__ = [
    "BiphotonGaussian",
    "SlitArray",
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
]


@dataclass(frozen=True)
class BiphotonGaussian:
    """Double-Gaussian pair source: widths of the sum and difference envelopes."""

    kappa_plus: float
    kappa_minus: float

    def __post_init__(self):
        _source_widths(self.kappa_plus, self.kappa_minus, 1.0)

    @property
    def correlation(self) -> float:
        """Spatial correlation R = (k+^2 - k-^2) / (k+^2 + k-^2), in (-1, 1)."""
        kp2, km2 = self.kappa_plus ** 2, self.kappa_minus ** 2
        return (kp2 - km2) / (kp2 + km2)


def _source_widths(kappa_plus: float, kappa_minus: float, spacing: float) -> tuple:
    """The source widths in length units of ``kappa_plus`` and ``kappa_minus`` slit
    spacings, each refused if not positive or if its square leaves the float range;
    a refusal names the width as given, times ``spacing`` unless that is 1."""
    for name, k in (("kappa_plus", kappa_plus), ("kappa_minus", kappa_minus)):
        width = k * spacing
        given = repr(k) if spacing == 1.0 else f"{k!r} (times spacing = {spacing!r})"
        if not width > 0:
            raise InvalidSpec(f"{name} must be positive, got {given}")
        if not 0 < width * width < math.inf:
            raise InvalidSpec(f"{name} = {given} is positive, but its square "
                              + ("underflows to 0" if width * width == 0 else "overflows"))
    return kappa_plus * spacing, kappa_minus * spacing


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
    """D identical Gaussian slits of width ``width`` spaced by ``spacing``.

    ``amplitudes`` are the complex illumination weights of the slits
    (uniform when omitted); they are stored normalized.  The array is
    centered on the optical axis: slit d sits at ``(d - (D-1)/2) * spacing``.
    The lens--grating--lens synthesizer behind it is set by the slits alone:
    its grating has period ``spacing``, and its output repeats the aperture
    with ``period = D * spacing``, the Talbot qudit the slits encode.
    """

    count: int
    spacing: float
    width: float
    amplitudes: np.ndarray | None = None

    def __post_init__(self):
        if self.count < 1:
            raise InvalidSpec("need at least one slit")
        if not self.spacing > self.width:
            raise InvalidSpec("slit spacing must exceed the slit width")
        if not 0 < self.period < math.inf:
            raise InvalidSpec(f"slit lattice period {self.count} x {self.spacing!r} must be"
                              " positive and finite")
        amps = np.array(np.ones(self.count) if self.amplitudes is None else self.amplitudes,
                        dtype=complex)
        if amps.shape != (self.count,):
            raise InvalidSpec("amplitudes must have one entry per slit")
        # unit_power refuses a zero, NaN, infinite or overflowing norm
        object.__setattr__(self, "amplitudes", _freeze(unit_power(amps)))

    @property
    def period(self) -> float:
        """Period ``D * spacing`` of the synthesizer output."""
        return self.count * self.spacing

    def positions(self) -> np.ndarray:
        return (np.arange(self.count) - (self.count - 1) / 2.0) * self.spacing

    def transmission(self, x: np.ndarray) -> np.ndarray:
        """Aperture amplitude sum_d c_d S(x - x_d) on the given coordinates."""
        return _tooth_sum(self, x, self.positions(), self.amplitudes)


def _tooth_sum(slits: SlitArray, x: np.ndarray, centers, weights) -> np.ndarray:
    """``sum_j weights[j] S(x - centers[j])`` with S the Gaussian slit: the aperture
    and every comb column (weights A_m, or ones for an ideal comb) are this sum."""
    out = np.zeros(x.shape, dtype=complex)
    for center, weight in zip(centers, weights):
        out += weight * gaussian_amplitude(x - center, slits.width)
    return out


def _coeff_matrix(values) -> np.ndarray:
    """``values`` as the read-only complex D x D coefficient matrix of a two-qudit
    comb state, once checked square with unit Frobenius norm."""
    c = np.asarray(values, dtype=complex)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InvalidSpec("coefficient matrix must be square")
    if not abs((np.abs(c) ** 2).sum() - 1.0) <= 1e-12:
        raise InvalidSpec("coefficient matrix must have unit Frobenius norm")
    return _freeze(c)


# ---------------------------------------------------------------------------
# operations

# samples per slit width that apply_dslit requires of the two-photon grid
SAMPLES_PER_SLIT_WIDTH = 8


def _check_resolution(slits: SlitArray, dx: float, per_width: int, refusal: str) -> None:
    """Raise ``UnderResolved(refusal)`` when pitch ``dx`` gives fewer than ``per_width``
    samples per slit width, naming the least n whose pitch ``spacing / n`` passes, below the
    size bound ``MAX_ENTRIES``.  n solves the test in floats, which may round across an
    integer, so the test picks n - 1 or n; n > 2, as a slit is narrower than its spacing."""
    least = per_width * (1.0 - 1e-9)
    if slits.width / dx < least:
        n = math.ceil(min(least * slits.spacing / slits.width, MAX_ENTRIES - 1))
        n = next((k for k in (n - 1, n) if not slits.width / (slits.spacing / k) < least), n + 1)
        advice = (f"use at least {n} samples per slit spacing" if n < MAX_ENTRIES
                  else "no grid within the 2**25-entry bound resolves the slit")
        raise UnderResolved(f"{refusal}; {advice}")


def initial_biphoton_field(model: BiphotonGaussian, spacing: float, samples_per_cell: int,
                           cells: int) -> tuple:
    """``(x, dx, psi)``: the centred axis of ``cells`` cells of ``spacing`` sampled
    ``samples_per_cell`` times each, its pitch, and the source amplitude on the
    square grid of that axis, normalised and read-only.  The double-Gaussian
    amplitude is real, and so is ``psi``."""
    dx = spacing / samples_per_cell
    x = centered_axis(samples_per_cell * cells, dx)
    check_entries("biphoton grid", x.size, x.size)
    if x.size < 2:
        raise InvalidSpec("a biphoton grid axis needs at least 2 samples")
    vals = biphoton_amplitude(model, x[:, None], x[None, :])
    return x, dx, _freeze(unit_power(vals, dx, dx))


def apply_dslit(density: np.ndarray, x: np.ndarray, dx: float, slits: SlitArray) -> tuple:
    """Send each photon of the square pair density ``density`` on axis ``x`` of
    pitch ``dx`` through the slit array of amplitude t: ``density |t(x1)|^2
    |t(x2)|^2``, which is ``|psi t(x1) t(x2)|^2`` for ``density = |psi|^2``
    whatever the phases of psi and of the slits.

    Returns ``(masked density renormalized and read-only, transmitted power
    fraction)``, the fraction a ratio of density sums.  Raises ``UnderResolved``
    when the grid does not carry at least ``SAMPLES_PER_SLIT_WIDTH`` samples per
    slit width.
    """
    _check_resolution(slits, dx, SAMPLES_PER_SLIT_WIDTH, f"slit width {slits.width:g} sampled"
                      f" with fewer than {SAMPLES_PER_SLIT_WIDTH} points (dx = {dx:g})")
    t2 = _abs2(slits.transmission(x))
    masked = density * t2[:, None]
    masked *= t2[None, :]
    power = _density_power(masked, dx, dx)
    transmitted = power / _density_power(density, dx, dx)
    if transmitted <= 0:
        raise InvalidSpec("aperture blocked the entire field")
    masked /= _norm_power(power)
    return _freeze(masked), float(transmitted)


def grating_envelope(spacing: float, spike_width: float) -> tuple:
    """Fourier orders (m, A_m) of the comb grating, truncated by mass.

    ``A_m = exp(-(2 pi m sigma)^2 / (2 lg^2))`` for Gaussian spikes of width
    sigma on a lattice of period lg, the slit spacing.
    """
    if not 0 < spike_width < math.inf:
        raise InvalidSpec(f"grating spike width must be positive and finite, got {spike_width!r}")
    if not 0 < spacing * spacing < math.inf:
        raise InvalidSpec(f"grating period {spacing:g} has no finite, nonzero square")
    m = 8
    while True:
        mm = np.arange(-m, m + 1)
        with np.errstate(over="ignore"):  # (2 pi m sigma)^2 overflows only where A_m is 0
            env = np.exp(-((2 * np.pi * mm * spike_width) ** 2) / (2.0 * spacing ** 2))
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


def synthesize_single(slits: SlitArray) -> np.ndarray:
    """Synthesizer output as an ideal periodic comb state.

    The grating's Fourier orders replicate the aperture on the output
    lattice; the periodic part of the output is the ``slits.period``
    periodization of the aperture, returned as its normalized, read-only
    coefficient vector over modes ``-M..M`` of that period.  Use
    :func:`render_synthesized` for the finite, envelope-weighted profile.
    """
    return periodic_comb(slits.period, slits.width, slits.positions(), slits.amplitudes)


def _comb_columns(slits: SlitArray, x: np.ndarray, spike_width: float | None):
    """Unnormalized comb columns on coordinates x, yielded one per slit d.

    The teeth sit on the output lattice ``positions[d] + m * period``.  They
    carry the order amplitudes A_m of a grating with spikes ``spike_width``
    wide, or are uniform (the ideal periodic comb) when ``spike_width`` is
    None.  Teeth centred more than six slit widths outside x are left out.
    """
    period = slits.period
    lo, hi = x.min(), x.max()
    if spike_width is not None:
        mm, env = grating_envelope(slits.spacing, spike_width)
    else:
        half = int(math.ceil(max(-lo, hi) / period)) + 2
        mm = np.arange(-half, half + 1)
        env = np.ones(mm.size)
    margin = 6.0 * slits.width
    for position in slits.positions():
        centers = position + mm * period
        keep = (centers > lo - margin) & (centers < hi + margin)
        yield _tooth_sum(slits, x, centers[keep], env[keep])


def render_synthesized(slits: SlitArray, x: np.ndarray, spike_width: float) -> np.ndarray:
    """Finite synthesizer output on coordinates x, envelope-weighted comb.

    Each order m of a grating with spikes ``spike_width`` wide contributes a
    copy of the aperture displaced by ``m * slits.period`` and weighted by the
    order amplitude A_m.  The output is summed slit by slit, so memory stays
    O(x.size) for any D.
    """
    check_entries("comb basis", x.size, slits.count)  # the same work bound as the basis
    out = np.zeros(x.shape, dtype=complex)
    for amp, column in zip(slits.amplitudes, _comb_columns(slits, x, spike_width)):
        out += amp * column
    return out


def entangled_coeffs(dimension: int, spacing: float,
                     model: BiphotonGaussian) -> np.ndarray:
    """Read-only D x D coefficient matrix of the two-qudit comb state behind twin
    synthesizers.

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
    return _coeff_matrix(c / norm)


def maximally_entangled(dimension: int) -> np.ndarray:
    """Ideal read-only coefficient matrix: identity over sqrt(D)."""
    check_entries("coefficient matrix", dimension, dimension)
    return _coeff_matrix(np.eye(dimension) / math.sqrt(dimension))


def comb_basis(slits: SlitArray, samples_per_cell: int, cells: int,
               spike_width: float | None) -> tuple:
    """``(x, dx, B)``: the centred grid of ``cells`` slit spacings sampled
    ``samples_per_cell`` times each, its pitch ``dx``, and the n x D comb basis
    on it, column d the comb anchored at slit d with unit power in pitch ``dx``,
    enveloped by a grating with spikes ``spike_width`` wide or ideal when that
    is None.  Needs 3 samples per slit width.
    """
    dx = slits.spacing / samples_per_cell
    _check_resolution(slits, dx, 3, f"slit width {slits.width:g} needs at least 3 samples"
                                    f" (dx = {dx:g})")
    x = centered_axis(samples_per_cell * cells, dx)
    check_entries("comb basis", x.size, slits.count)
    basis = np.empty((x.size, slits.count), dtype=complex)
    for d, column in enumerate(_comb_columns(slits, x, spike_width)):
        if not column.any():
            raise InvalidSpec("empty comb on the grid; enlarge the window")
        basis[:, d] = unit_power(column, dx)
    return x, dx, basis


def two_photon_field(
    coeffs: np.ndarray,
    slits: SlitArray,
    samples_per_cell: int,
    cells: int,
    spike_width: float | None,
) -> tuple:
    """``(x, dx, Psi)``: the two-photon comb state on a square grid, read-only.

    ``Psi(x1, x2) = sum C[d1, d2] T_{d1}(x1) T_{d2}(x2)`` with T_d the comb
    wavefunction anchored at slit d.  The grid spans ``cells`` cells of one
    slit spacing sampled ``samples_per_cell`` times each, centered on the
    axis.  With ``spike_width=None`` the combs are ideal (uniform teeth),
    which is the periodic idealization used for route comparisons.
    """
    x, dx, basis = _pair_basis(coeffs, slits, samples_per_cell, cells, spike_width)
    return x, dx, _freeze(unit_power(basis @ coeffs @ basis.T, dx, dx))


def _pair_basis(coeffs: np.ndarray, slits: SlitArray, samples_per_cell: int, cells: int,
                spike_width: float | None) -> tuple:
    """``(x, dx, B)`` of the two-photon grid, once its size is checked."""
    if slits.count != len(coeffs):
        raise InvalidSpec("slit count must match the coefficient dimension")
    n = samples_per_cell * cells
    check_entries("two-photon grid", n, n)
    return comb_basis(slits, samples_per_cell, cells, spike_width)


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
    coeffs: np.ndarray,
    slits: SlitArray,
    samples_per_cell: int,
    cells: int,
    spike_width: float | None,
) -> tuple:
    """``(x, dx, |Psi|^2)``: the density of :func:`two_photon_field`, without its
    n x n complex grid.

    Row blocks of ``(B C) B^T`` are built once each, in one small reused buffer,
    and their ``|.|^2`` written into the density, which is then divided by its
    power.  It agrees with ``|two_photon_field|^2`` to rounding, not bit for bit.
    """
    x, dx, basis = _pair_basis(coeffs, slits, samples_per_cell, cells, spike_width)
    left = basis @ coeffs
    density = np.empty((x.size, x.size))
    buf = np.empty((_block_rows(x.size, len(coeffs)), x.size), dtype=complex)
    for start in range(0, x.size, buf.shape[0]):
        block = buf[:x.size - start]  # the last block may be short
        np.matmul(left[start:start + block.shape[0]], basis.T, out=block)
        _abs2(block, out=density[start:start + block.shape[0]])
    density /= _norm_power(_density_power(density, dx, dx))
    return x, dx, density


def schmidt_modes(x: np.ndarray, dx: float, basis: np.ndarray, coeffs: np.ndarray) -> tuple:
    """``(u_a, s, u_b)``: the pair state ``B C B^T`` on grid x of pitch dx as
    ``u_a diag(s) u_b^T``.

    ``B sqrt(dx) = Q R`` and ``R C R^T = L diag(s) Rh`` give ``u_a = Q L`` and
    ``u_b = Q Rh^T``, orthonormal Schmidt-mode columns on each axis (unit norm
    in the sample sum), with the Schmidt values ``s`` scaled to unit norm.
    """
    if basis.shape != (x.size, len(coeffs)):
        raise InvalidSpec("comb basis must hold one column per qudit level")
    q, r = np.linalg.qr(basis * np.sqrt(dx))
    left, s, right = np.linalg.svd(r @ coeffs @ r.T)
    return q @ left, s / np.linalg.norm(s), q @ right.T
