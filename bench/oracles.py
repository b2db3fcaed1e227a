"""Reference values computed without talbotlab.

Everything here is written from the physics (closed forms and the source,
slit and comb models), so a check that compares program output with these
functions does not depend on the code it checks.
"""

from __future__ import annotations

import math

import numpy as np

# CGLMP measurement offsets (Collins, Gisin, Linden, Massar & Popescu,
# PRL 88, 040404 (2002)): alpha_1, alpha_2 for side A, beta_1, beta_2 for B.
ALPHAS = (0.0, 0.5)
BETAS = (0.25, -0.25)


def cglmp_closed_form(dim: int) -> float:
    """Bell parameter of the maximally entangled state at the CGLMP settings.

    ``I_D = 4D sum_{k<D/2} (1 - 2k/(D-1)) (q_k - q_{-(k+1)})`` with
    ``q_k = 1 / (2 D^3 sin^2(pi (k + 1/4) / D))``.
    """
    def q(k):
        return 1.0 / (2.0 * dim ** 3 * math.sin(math.pi * (k + 0.25) / dim) ** 2)

    return 4.0 * dim * sum((1.0 - 2.0 * k / (dim - 1)) * (q(k) - q(-(k + 1)))
                           for k in range(dim // 2))


def cglmp_tables(coeffs: np.ndarray) -> list:
    """The four joint tables P(A=i, B=j) of a pair state with coefficients C.

    Outcome f of side A at offset g projects onto
    ``exp(2 pi i d (f + g) / D) / sqrt(D)``, side B onto
    ``exp(2 pi i d (-f + g) / D) / sqrt(D)``.  Tables are ordered
    (a1 b1), (a1 b2), (a2 b1), (a2 b2).
    """
    dim = coeffs.shape[0]
    d = np.arange(dim)[:, None]
    f = np.arange(dim)[None, :]

    def bra(sign, g):
        return np.exp(2j * np.pi * d * (sign * f + g) / dim).conj().T / math.sqrt(dim)

    return [np.abs(bra(1.0, a) @ coeffs @ bra(-1.0, b).T) ** 2
            for a in ALPHAS for b in BETAS]


def cglmp_value(tables) -> float:
    """CGLMP combination of four joint tables (maximally correlated pairing)."""
    p11, p12, p21, p22 = tables
    dim = p11.shape[0]
    j = np.arange(dim)

    def a_eq_b_plus(t, k):
        return t[(j + k) % dim, j].sum()

    def b_eq_a_plus(t, k):
        return t[j, (j + k) % dim].sum()

    total = 0.0
    for k in range(dim // 2):
        j_k = (a_eq_b_plus(p11, k) - a_eq_b_plus(p11, -k - 1)
               + b_eq_a_plus(p12, k) - b_eq_a_plus(p12, -k - 1)
               + b_eq_a_plus(p21, k + 1) - b_eq_a_plus(p21, -k)
               + a_eq_b_plus(p22, k) - a_eq_b_plus(p22, -k - 1))
        total += (1.0 - 2.0 * k / (dim - 1)) * j_k
    return float(total)


def table_residuals(tables) -> tuple:
    """(worst |sum - 1|, worst no-signalling gap) over the four tables.

    No-signalling: A's marginal at a setting does not depend on B's setting,
    and B's marginal does not depend on A's.
    """
    p11, p12, p21, p22 = (np.asarray(t, dtype=float) for t in tables)
    norm = max(abs(t.sum() - 1.0) for t in (p11, p12, p21, p22))
    gaps = [
        p11.sum(axis=1) - p12.sum(axis=1), p21.sum(axis=1) - p22.sum(axis=1),
        p11.sum(axis=0) - p21.sum(axis=0), p12.sum(axis=0) - p22.sum(axis=0),
    ]
    return float(norm), float(max(np.abs(g).max() for g in gaps))


def centered_axis(cells: int, samples_per_cell: int, spacing: float = 1.0) -> np.ndarray:
    """Grid of ``cells * samples_per_cell`` points centred on the axis."""
    n = cells * samples_per_cell
    dx = spacing / samples_per_cell
    return -n * dx / 2.0 + dx * np.arange(n)


def double_gaussian(x1, x2, kappa_plus: float, kappa_minus: float):
    """Pair-source amplitude ``exp(-(x1+x2)^2/(4k+^2) - (x1-x2)^2/(4k-^2))``."""
    return np.exp(-(x1 + x2) ** 2 / (4.0 * kappa_plus ** 2)
                  - (x1 - x2) ** 2 / (4.0 * kappa_minus ** 2))


def slit_transmission(x, count: int, spacing: float, width: float):
    """Uniformly lit Gaussian slits centred on the axis, unit total weight."""
    centres = (np.arange(count) - (count - 1) / 2.0) * spacing
    gauss = np.exp(-(x[..., None] - centres) ** 2 / (2.0 * width ** 2))
    return gauss.sum(axis=-1) / math.sqrt(count)


def entangled_coeffs(dim: int, spacing: float, kappa_plus: float,
                     kappa_minus: float) -> np.ndarray:
    """Source amplitude on the slit lattice, unit Frobenius norm."""
    lattice = (np.arange(dim) - (dim - 1) / 2.0) * spacing
    c = double_gaussian(lattice[:, None], lattice[None, :], kappa_plus, kappa_minus)
    return c / np.linalg.norm(c)


def periodized_gaussian_density(x, period: float, width: float) -> np.ndarray:
    """|sum_m exp(-(x - m period)^2 / (2 w^2))|^2, normalised on the grid x."""
    span = int(math.ceil(np.abs(x).max() / period)) + 8
    m = np.arange(-span, span + 1) * period
    amp = np.exp(-(x[:, None] - m[None, :]) ** 2 / (2.0 * width ** 2)).sum(axis=1)
    rho = amp ** 2
    return rho / (rho.sum() * (x[1] - x[0]))


def grid_density(amp: np.ndarray, dx1: float, dx2: float) -> np.ndarray:
    """|amp|^2 normalised to unit probability on its grid."""
    rho = np.abs(amp) ** 2
    return rho / (rho.sum() * dx1 * dx2)


def constraints_report(pixel_pitch: float, pixels, wavelength: float,
                       threshold: int) -> dict:
    """Modulator feasibility at the largest encodable dimension.

    d_max is the number of threshold-slit groups along the longer side; the
    qudit period is d_max pixels, ``z_T = period^2 / wavelength``, the gate
    sits at ``2 z_T / (c D)`` (c = 1 odd, 2 even) and the alternative
    statement at ``z_T / (g D)`` (g = 2 odd, 1 even).
    """
    d_max = max(pixels) // threshold
    z_t = (pixel_pitch * d_max) ** 2 / wavelength
    odd = d_max % 2 == 1
    return {
        "max_dimension": d_max,
        "dimension": d_max,
        "talbot_length": z_t,
        "gate_distance": 2.0 * z_t / ((1 if odd else 2) * d_max),
        "gate_distance_alt": z_t / ((2 if odd else 1) * d_max),
        "mutual_information_bits": math.log2(d_max),
    }
