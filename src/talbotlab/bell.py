"""CGLMP Bell-inequality evaluation over entangled comb states.

Two independent routes produce the four joint-probability tables:

* the matrix route applies the measurements, each a DFT times a diagonal
  phase, to the coefficient matrix by FFT;
* the field route factorises the pair state ``B C B^T`` (B the per-photon
  comb basis) into Schmidt modes, masks each photon's modes with the
  pixelated measurement phases of its two settings, propagates them by the
  gate distance and integrates the intensity over detector bins.  That is
  four masked propagations per run, one per side and setting, at a cost of
  order n D^2 on n grid points: the n x n two-photon grid is never built.

Both routes label outcomes in the measurement-operator convention, so their
tables are comparable entry by entry.  The measurements use the canonical
CGLMP offsets (Collins et al., PRL 88, 040404 (2002)), and the inequality
pairs outcomes as correlated, which yields the canonical quantum violation
for the maximally correlated state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NonNormalized
from .fields import _propagate_axis, check_entries
from .qudits import (bin_outcome_map, bin_weights, check_slit_overlap, gate_distance_fraction,
                     measurement_phases)
from .spdc import (BiphotonGaussian, SlitArray, comb_basis, entangled_coeffs, maximally_entangled,
                   schmidt_modes)

__all__ = [
    "BellResult",
    "SETTING_PAIRS",
    "SETTING_OFFSETS",
    "joint_prob_analytic",
    "joint_prob_field",
    "cglmp_value",
    "bell_analytic",
    "bell_field",
    "bell_point",
    "bell_scan",
    "ScanRow",
]

SETTING_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
_ALPHAS, _BETAS = (0.0, 0.5), (0.25, -0.25)  # the canonical offsets of each side's settings
SETTING_OFFSETS = {(a, b): (_ALPHAS[a - 1], _BETAS[b - 1]) for a, b in SETTING_PAIRS}
# largest |sum - 1| accepted for a joint table
_NORM_TOL = 1e-6


@dataclass(frozen=True)
class BellResult:
    """Joint tables, correlator combination values and the Bell parameter."""

    dimension: int
    tables: tuple  # four D x D arrays ordered as SETTING_PAIRS
    j_values: tuple
    value: float
    provenance: dict


def _validate_table(table: np.ndarray) -> np.ndarray:
    t = np.asarray(table, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise InvalidSpec("joint table must be square")
    if t.min() < -1e-12:
        raise NonNormalized(f"negative probability {t.min():.2e}")
    if not abs(t.sum() - 1.0) <= _NORM_TOL:
        raise NonNormalized(f"table sums to {t.sum():.8f}, expected 1")
    return t


def joint_prob_analytic(coeffs: np.ndarray, alphas, betas) -> list:
    """Joint tables ``|U_A C U_B^T|^2`` of the measurements of
    :func:`~talbotlab.qudits.measurement_unitary` at side A's offsets ``alphas``
    and side B's ``betas``, one per pair, alpha varying slowest; entry (i, j) is
    the probability that A reports i while B reports j.

    Each unitary is a DFT times a diagonal phase, so the product is C with its
    rows weighted by ``exp(-2 pi i alpha d / D)`` and transformed by ``fft``, then
    its columns weighted by ``exp(-2 pi i beta d / D)`` and transformed by ``ifft``.
    """
    d = len(coeffs)
    levels = np.arange(d)
    lefts = [np.fft.fft(coeffs * np.exp(-2j * np.pi * alpha * levels / d)[:, None], axis=0)
             for alpha in alphas]
    phases = [np.exp(-2j * np.pi * beta * levels / d) for beta in betas]
    return [np.abs(np.fft.ifft(left * phase, axis=1)) ** 2 for left in lefts for phase in phases]


def joint_prob_field(x: np.ndarray, dx: float, modes: tuple, slits: SlitArray) -> tuple:
    """Field-simulated joint tables of the pair state ``u_a diag(s) u_b^T`` on grid x
    of pitch dx.

    ``modes = (u_a, s, u_b)`` are the Schmidt modes of
    :func:`~talbotlab.spdc.schmidt_modes`, orthonormal columns on each axis.
    Each side's columns take the pixelated measurement phase mask (constant
    over each slit-spacing cell centred on a slit of ``slits``) of each of its
    two offsets and the gate distance ``2 z_T / (c D)``, the reach ``lambda z =
    2 period^2 / (c D)``, guarded on their s^2-weighted marginals: four masked
    propagations in all.  The detector bins, one per slit and as wide as the
    spacing, then collect ``sum_jk s_j s_k M_A[a,j,k] M_B[b,j,k]`` with
    ``M[a,j,k] = sum_x w[x,a] u[x,j] conj(u[x,k])``, relabeled to the
    measurement-operator outcomes of :func:`joint_prob_analytic`.

    Returns ``(tables, diagnostics)``, one entry per setting pair in
    ``SETTING_PAIRS`` order; diagnostics carry the captured power and the
    per-axis fraction of power in bin-straddling sample cells (binning
    cross-talk).
    """
    u_a, s, u_b = modes
    d = s.size
    n = x.size
    check_entries("binned column products", n, d, d)

    reach = gate_distance_fraction(d) * slits.period ** 2
    step, origin = slits.spacing, slits.positions()[0]
    cell = np.floor((x - origin + step / 2.0) / step).astype(int) % d
    w = bin_weights(x, dx, origin, step, d)

    def measured(columns: np.ndarray, gamma: float) -> tuple:
        masked = columns * np.exp(1j * measurement_phases(d, gamma))[cell][:, None]
        u = _propagate_axis(masked, dx, reach, 0, weights=s ** 2)
        products = w.T @ (u[:, :, None] * u.conj()[:, None, :]).reshape(n, d * d)
        return products, np.abs(u) ** 2 @ s ** 2

    side_a = [measured(u_a, alpha) for alpha in _ALPHAS]
    side_b = [measured(u_b, beta) for beta in _BETAS]
    pair_weights = np.outer(s, s).ravel()
    outcomes = np.ix_(bin_outcome_map(d, "A"), bin_outcome_map(d, "B"))
    straddling = w.max(axis=1) < 1.0 - 1e-12
    tables, diagnostics = [], []
    for a, b in SETTING_PAIRS:
        (m_a, marginal_a), (m_b, marginal_b) = side_a[a - 1], side_b[b - 1]
        binned = ((m_a * pair_weights) @ m_b.T).real
        table = np.zeros_like(binned)
        table[outcomes] = binned
        captured = float(table.sum())
        if not captured > 0:  # also a state with no power on the grid (s = 0 / 0)
            raise InvalidSpec("detector bins captured no power")
        tables.append(table / captured)
        diagnostics.append({
            "captured": captured,
            "crosstalk_axis1": float(marginal_a[straddling].sum() / captured),
            "crosstalk_axis2": float(marginal_b[straddling].sum() / captured),
            "gate_distance_fraction": gate_distance_fraction(d),
        })
    return tables, diagnostics


def _cyclic_diagonal_sums(table: np.ndarray) -> np.ndarray:
    """Entry m is ``P(A = B + m) = sum_j table[(j + m) % D, j]``, m = 0..D-1.

    Each row of the gathered array holds the same D values in the same
    order as the 1-D gather of one offset, so its sum has the same bits.
    """
    d = table.shape[0]
    j = np.arange(d)
    return table[(j[:, None] + j) % d, j].sum(axis=1)


def cglmp_value(tables, provenance: dict) -> BellResult:
    """Bell parameter of the four joint tables.

    ``tables`` are ordered as ``SETTING_PAIRS``.  For each
    ``k < floor(D/2)`` the combination

    ``J_k = P(A1=B1+k) - P(A1=B1-k-1) + P(B2=A1+k) - P(B2=A1-k-1)
          + P(B1=A2+k+1) - P(B1=A2-k) + P(A2=B2+k) - P(A2=B2-k-1)``

    is weighted by ``1 - 2k/(D-1)`` and summed.  Local realistic
    distributions obey ``value <= 2``.  Each correlator ``P(A=B+k)`` sums
    ``P(A=j+k, B=j)`` over j, the pairing of measurement-convention tables.
    """
    tabs = tuple(_validate_table(t) for t in tables)
    if len(tabs) != 4:
        raise InvalidSpec("need the four setting tables")
    d = tabs[0].shape[0]
    if any(t.shape != (d, d) for t in tabs):
        raise InvalidSpec("all tables must share one dimension")
    if d < 2:
        raise InvalidSpec(f"CGLMP needs D >= 2, got D = {d}")
    p11, p12, p21, p22 = tabs
    c11 = _cyclic_diagonal_sums(p11)
    c12 = _cyclic_diagonal_sums(p12.T)  # P(B = A + m)
    c21 = _cyclic_diagonal_sums(p21.T)
    c22 = _cyclic_diagonal_sums(p22)
    ks = np.arange(d // 2)
    minus = (-ks - 1) % d  # the offset -k-1, wrapped
    j_values = (
        c11[ks] - c11[minus] + c12[ks] - c12[minus]
        + c21[ks + 1] - c21[-ks % d] + c22[ks] - c22[minus]
    ).tolist()
    value = 0.0
    for k, j_k in enumerate(j_values):
        value += (1.0 - 2.0 * k / (d - 1)) * j_k
    return BellResult(
        dimension=d,
        tables=tabs,
        j_values=tuple(j_values),
        value=float(value),
        provenance=dict(provenance),
    )


def bell_analytic(coeffs: np.ndarray) -> BellResult:
    """Matrix-route Bell evaluation of a coefficient matrix."""
    return cglmp_value(joint_prob_analytic(coeffs, _ALPHAS, _BETAS),
                       provenance={"route": "analytic", "dimension": len(coeffs)})


def bell_field(
    coeffs: np.ndarray,
    slits: SlitArray,
    samples_per_cell: int,
    cells: int,
    spike_width: float | None,
) -> BellResult:
    """Field-route Bell evaluation: synthesize the pair state, then measure.

    The per-photon comb basis B is built on the grid once, the pair state
    ``B C B^T`` is factorised into Schmidt modes once, and each side's modes
    are measured once at each of its two settings, which gives the four
    tables.  The combs carry the envelope of a grating with spikes
    ``spike_width`` wide; with ``None`` they are ideal periodic ones on a
    window commensurate with the period ``slits.period``, where the routes
    agree closest.  Slits too wide for orthogonal levels are refused first,
    by :func:`~talbotlab.qudits.check_slit_overlap`.
    """
    # the overlap guard and joint_prob_field's bound, checked before the basis and its
    # factorisation are built
    check_slit_overlap(slits.spacing, slits.width)
    d = len(coeffs)
    if cells % d != 0:
        cells += d - cells % d  # keep the window commensurate with the period
    check_entries("binned column products", samples_per_cell * cells, d, d)
    x, dx, basis = comb_basis(slits, samples_per_cell, cells, spike_width)
    tables, diagnostics = joint_prob_field(x, dx, schmidt_modes(x, dx, basis, coeffs), slits)
    return cglmp_value(tables, provenance={
        "route": "field",
        "dimension": d,
        "samples_per_cell": samples_per_cell,
        "cells": cells,
        "envelope": spike_width is not None,
        "diagnostics": diagnostics,
        **({"spike_width": spike_width} if spike_width is not None else {}),
    })


@dataclass(frozen=True)
class ScanRow:
    dimension: int
    kappa_plus: float
    kappa_minus: float
    correlation: float
    route: str
    value: float


# slit width, grid and envelope of each field-route point of bell_scan: the
# defaults of the ``bell`` command, which ``bell-scan`` has no keys for
_SCAN_FIELD_POINT = {"slit_width": 0.05, "samples_per_cell": 64, "cells": 64,
                    "envelope": False}


def bell_point(dimension: int, kappa_plus: float, kappa_minus: float, route: str,
               slit_width: float, samples_per_cell: int, cells: int, envelope: bool) -> BellResult:
    """Bell evaluation of the pair state behind a D-slit source.

    Every length is in slit spacings, the only unit the Bell value has: the
    source widths, the slit width and the grating's spikes.
    ``kappa_minus = 0`` selects the ideal maximally entangled state.  The
    field route takes the slit width and the grid of :func:`bell_field`, and
    with ``envelope`` the grating's spike width; the analytic route ignores them.
    """
    if kappa_minus == 0.0:
        coeffs = maximally_entangled(dimension)
    else:
        coeffs = entangled_coeffs(dimension, 1.0, BiphotonGaussian(kappa_plus, kappa_minus))
    if route == "analytic":
        return bell_analytic(coeffs)
    if route == "field":
        slits = SlitArray(dimension, 1.0, slit_width)
        # the grating's spikes are 0.05 slit spacings wide; they enter only with the envelope
        return bell_field(coeffs, slits, samples_per_cell, cells, 0.05 if envelope else None)
    raise InvalidSpec("route must be 'analytic' or 'field'")


def bell_scan(dimensions, kappa_pairs, route: str) -> list:
    """Bell parameter over a grid of dimensions and source widths.

    ``kappa_pairs`` is a sequence of ``(kappa_plus, kappa_minus)`` in slit
    spacings; ``kappa_minus = 0`` marks the ideal maximally entangled
    reference row.  Rows follow the input grid, dimensions
    varying fastest.  Each point is :func:`bell_point` with the slit width,
    field grid and envelope that the ``bell`` command defaults to.
    """
    pairs = [(kp, km, BiphotonGaussian(kp, km).correlation if km != 0.0 else 1.0)
             for kp, km in kappa_pairs]
    dims = list(dimensions)
    return [ScanRow(dim, kp, km, correlation, route,
                    bell_point(dim, kp, km, route, **_SCAN_FIELD_POINT).value)
            for kp, km, correlation in pairs
            for dim in dims]
