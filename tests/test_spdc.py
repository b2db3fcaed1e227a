"""Pair-source model, apertures, synthesizers and the coefficient matrix."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from reference import dense_slit_stage, encode, fidelity, normalized_pair, slit_basis
from talbotlab.errors import InvalidSpec, UnderResolved
from talbotlab.fields import gaussian_amplitude, sample
from talbotlab.spdc import (BiphotonGaussian, SlitArray, _block_rows, _coeff_matrix,
                            _comb_columns, apply_dslit, biphoton_amplitude, comb_basis,
                            entangled_coeffs, grating_envelope, initial_biphoton_field,
                            maximally_entangled, render_synthesized, schmidt_modes,
                            synthesize_single, two_photon_density, two_photon_field)

S = 1.0  # slit spacing; the natural length unit of this module
# np.trapz before NumPy 2.0; pyproject.toml allows NumPy 1.24
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def axis(cells, samples_per_cell):
    n = cells * samples_per_cell
    dx = S / samples_per_cell
    return -n * dx / 2.0 + dx * np.arange(n)


# ---------------------------------------------------------------------------
# source model


def test_correlation_matches_exact_fractions():
    assert abs(BiphotonGaussian(9.0, 1.0).correlation - 80.0 / 82.0) < 1e-12
    assert abs(BiphotonGaussian(9.0, 1.0 / 6.0).correlation - 2915.0 / 2917.0) < 1e-12


def test_correlation_caption_truncations():
    r1 = BiphotonGaussian(9.0, 1.0).correlation
    r2 = BiphotonGaussian(9.0, 1.0 / 6.0).correlation
    assert math.floor(r1 * 1000) / 1000 == 0.975
    assert math.floor(r2 * 1000) / 1000 == 0.999


def test_equal_widths_give_zero_correlation():
    assert BiphotonGaussian(2.5, 2.5).correlation == 0.0


def test_amplitude_peak_symmetry_and_norm():
    model = BiphotonGaussian(3.0, 0.5)
    assert biphoton_amplitude(model, 0.0, 0.0) >= biphoton_amplitude(model, 1.0, 0.3)
    x1, x2 = 0.7, -0.2
    assert biphoton_amplitude(model, x1, x2) == biphoton_amplitude(model, x2, x1)
    # numerical quadrature of |psi|^2 over the plane
    g = np.linspace(-25, 25, 1201)
    dg = g[1] - g[0]
    dens = np.abs(biphoton_amplitude(model, g[:, None], g[None, :])) ** 2
    assert abs(dens.sum() * dg * dg - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# apertures


def test_high_correlation_concentrates_on_diagonal_pairs():
    model = BiphotonGaussian(9.0 * S, S / 6.0)
    slits = SlitArray(3, S, 0.05 * S)
    x, dx, field = initial_biphoton_field(model, S, 160, 8)
    out, transmitted = apply_dslit(field ** 2, x, dx, slits)
    assert 0 < transmitted < 1
    x1 = x2 = x
    dens = out * dx * dx
    diag = dens[np.abs(x1[:, None] - x2[None, :]) < S / 2].sum()
    assert diag > 0.99


def test_moderate_correlation_illuminates_all_pairs():
    model = BiphotonGaussian(9.0 * S, S)
    slits = SlitArray(3, S, 0.05 * S)
    x, dx, field = initial_biphoton_field(model, S, 160, 8)
    out, _ = apply_dslit(field ** 2, x, dx, slits)
    x1 = x2 = x
    dens = out * dx * dx
    positions = slits.positions()
    for p1 in positions:
        for p2 in positions:
            patch = dens[np.ix_(np.abs(x1 - p1) < S / 2, np.abs(x2 - p2) < S / 2)]
            assert patch.sum() > 0.01


def test_wide_open_aperture_leaves_field_unchanged():
    model = BiphotonGaussian(4.0, 1.0)
    x, dx, field = initial_biphoton_field(model, S, 16, 16)
    slits = SlitArray(1, 1000.0, 500.0)
    out, transmitted = apply_dslit(field ** 2, x, dx, slits)
    assert transmitted > 0.999
    overlap2 = ((np.sqrt(out) * field).sum() * dx * dx) ** 2  # the source is real, positive
    assert overlap2 > 0.999


@pytest.mark.parametrize("amplitudes", [[math.nan, 1, 1], [math.inf, 1, 1], [1e200, 1e200, 0]])
def test_aperture_rejects_amplitudes_without_a_finite_norm(amplitudes):
    # NaN or infinite entries, or a norm whose square overflows, used to give
    # NaN or all-zero slit weights instead of an error
    with pytest.raises(InvalidSpec):
        SlitArray(3, S, 0.05 * S, amplitudes=np.array(amplitudes, dtype=complex))


def test_aperture_rejects_coarse_grids():
    model = BiphotonGaussian(4.0, 1.0)
    x, dx, field = initial_biphoton_field(model, S, 8, 16)
    with pytest.raises(UnderResolved):
        apply_dslit(field ** 2, x, dx, SlitArray(3, S, 0.05 * S))


@pytest.mark.parametrize("width, comb_least, aperture_least",
                         [(0.05, 60, 160), (0.07, 43, 115), (0.033, 91, 243)])
def test_refusals_name_the_least_samples_per_spacing_that_pass(width, comb_least,
                                                               aperture_least):
    # the count a refusal states passes its guard, and one sample fewer does not
    slits = SlitArray(3, S, width * S)
    model = BiphotonGaussian(9.0 * S, 1.0 * S)

    def comb(samples_per_cell):
        comb_basis(slits, samples_per_cell, 4, None)

    def aperture(samples_per_cell):
        x, dx, source = initial_biphoton_field(model, S, samples_per_cell, 4)
        apply_dslit(source ** 2, x, dx, slits)

    for stage, expected in ((comb, comb_least), (aperture, aperture_least)):
        with pytest.raises(UnderResolved) as refused:
            stage(2)
        stated = re.fullmatch(r"slit width .*; use at least (\d+) samples per slit spacing",
                              str(refused.value))
        assert stated and int(stated.group(1)) == expected
        stage(expected)
        with pytest.raises(UnderResolved):
            stage(expected - 1)


@pytest.mark.parametrize("width, expected", [(3 / (60 * (1 + 5e-10)), 60),
                                             (0.05999999994, 51),
                                             (0.07142857135714285, 42)])
def test_refusal_count_holds_where_the_float_bound_rounds(width, expected):
    # widths at the guard's 1e-9 margin: one that the margin alone moves from
    # 61 samples to 60, and two where the bound solved in floats rounds to the
    # wrong side of an integer; the stated count passes and one fewer fails
    slits = SlitArray(3, S, width * S)
    stated = f"; use at least {expected} samples per slit spacing$"
    with pytest.raises(UnderResolved, match=stated):
        comb_basis(slits, 2, 4, None)
    comb_basis(slits, expected, 4, None)
    with pytest.raises(UnderResolved):
        comb_basis(slits, expected - 1, 4, None)


def test_source_and_aperture_equal_the_out_of_place_normalisation_bit_for_bit():
    # the real source amplitude and the slit stage's density against the
    # out-of-place normalisation of the complex grids: the centred axis and the
    # pitch spacing / samples_per_cell bit for bit, the grids within 1e-14 of
    # their peak and the transmitted fraction within 1e-12
    model = BiphotonGaussian(9.0 * S, 0.5 * S)
    x, dx, field = initial_biphoton_field(model, S, 40, 8)
    assert x.tobytes() == axis(8, 40).tobytes()
    assert dx == S / 40 != float(x[1] - x[0])  # a grid whose difference is off the pitch
    source = normalized_pair(biphoton_amplitude(model, x[:, None], x[None, :]), dx)
    assert field.dtype == float
    assert np.abs(field - source).max() <= 1e-14 * np.abs(source).max()
    slits = SlitArray(3, S, 0.3 * S)
    out, transmitted = apply_dslit(field ** 2, x, dx, slits)
    dense, dense_transmitted = dense_slit_stage(source, x, dx, slits)
    assert np.abs(out - dense).max() <= 1e-14 * dense.max()
    assert transmitted == pytest.approx(dense_transmitted, rel=1e-12, abs=0)
    assert not field.flags.writeable and not out.flags.writeable


@pytest.mark.parametrize("amplitudes", [[1, 1j, -1], 5], ids=["1,i,-1", "seeded-5"])
def test_slit_stage_density_is_the_dense_route_for_complex_slits(amplitudes):
    # |psi t(x1) t(x2)|^2 is |psi|^2 |t(x1)|^2 |t(x2)|^2 whatever the phases of
    # the slit amplitudes and of psi: here a chirped source
    if isinstance(amplitudes, int):
        rng = np.random.default_rng(36)
        amplitudes = rng.standard_normal(amplitudes) + 1j * rng.standard_normal(amplitudes)
    slits = SlitArray(len(amplitudes), S, 0.3 * S, amplitudes=np.array(amplitudes))
    x, dx, field = initial_biphoton_field(BiphotonGaussian(4.0 * S, 0.7 * S), S, 40, 8)
    psi = field * np.exp(1j * (0.7 * x[:, None] ** 2 - 1.3 * x[:, None] * x[None, :]))
    out, transmitted = apply_dslit(np.abs(psi) ** 2, x, dx, slits)
    dense, dense_transmitted = dense_slit_stage(psi, x, dx, slits)
    assert np.abs(out - dense).max() <= 1e-14 * dense.max()
    assert transmitted == pytest.approx(dense_transmitted, rel=1e-12, abs=0)


def test_slit_stage_holds_no_complex_grid():
    x, dx, field = initial_biphoton_field(BiphotonGaussian(9.0 * S, S), S, 160, 8)
    density, n = field ** 2, x.size
    slits = SlitArray(3, S, 0.05 * S)
    bound = 1.25 * 8 * n * n  # the masked density and a few axis vectors
    peaks = []
    for stage, grid in ((apply_dslit, density), (dense_slit_stage, field)):
        tracemalloc.start()
        try:
            stage(grid, x, dx, slits)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < bound < peaks[1]  # the dense route's n x n complex grid fails it


# ---------------------------------------------------------------------------
# synthesizer


def test_synthesizer_effective_period():
    # D slits spaced s (the grating's period) put out a lattice of period D s
    for dimension, spacing in ((3, S), (3, 0.1), (7, 0.1), (5, 3.0)):
        assert SlitArray(dimension, spacing, 0.05 * spacing).period == dimension * spacing


def test_synthesizer_lengths_must_stay_finite():
    # a lattice period D s that overflows would put a NaN tooth at 0 * inf; a grating's
    # spike width must be a positive finite length, and its period have a finite square
    for count, spacing in ((3, 1e308), (2 ** 1000, 1e30), (3, math.inf)):
        with pytest.raises(InvalidSpec, match="period"):
            SlitArray(count, spacing, 1.0)
    for spike_width in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidSpec, match="spike width"):
            grating_envelope(1.0, spike_width)
    for spacing in (1e200, 1e-200):
        with pytest.raises(InvalidSpec, match="no finite, nonzero square"):
            grating_envelope(spacing, 1e-201)


def test_synthesized_state_equals_direct_encoding():
    # also at a spacing that is not a power of two, where the period D * s rounds
    for spacing in (S, 0.1):
        slits = SlitArray(3, spacing, 0.05 * spacing)
        uniform = np.full(3, 1.0 / math.sqrt(3), dtype=complex)
        a = sample(synthesize_single(slits), slits.period, 128, 8)
        b = sample(encode(uniform, slit_basis(slits)), slits.period, 128, 8)
        assert fidelity(a, b) >= 0.999


def test_single_order_grating_reproduces_the_aperture():
    # a grating with only its zeroth Fourier order passes the aperture through
    slits = SlitArray(3, S, 0.05 * S, amplitudes=np.array([1.0, 0.0, 0.0]))
    x = axis(24, 64)
    rendered = render_synthesized(slits, x, spike_width=0.4 * S)
    direct = slits.transmission(x)
    num = abs((rendered.conj() * direct).sum()) ** 2
    den = (np.abs(rendered) ** 2).sum() * (np.abs(direct) ** 2).sum()
    assert num / den > 0.98  # zeroth order dominates a wide-spike grating


@pytest.mark.parametrize("dimension", [1, 3, 7, 64])
def test_render_equals_the_comb_basis_times_the_amplitudes(dimension):
    # oracle: the n x D basis of envelope-weighted comb columns, applied at once
    rng = np.random.default_rng(dimension)
    amps = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
    slits = SlitArray(dimension, S, 0.08 * S, amplitudes=amps)
    x = axis(13, 50)
    oracle = np.column_stack(list(_comb_columns(slits, x, 0.1 * S))) @ slits.amplitudes
    rendered = render_synthesized(slits, x, 0.1 * S)
    assert np.abs(oracle).max() > 0
    assert np.abs(rendered - oracle).max() <= 1e-15 * np.abs(oracle).max()


def test_render_memory_stays_linear_in_the_grid():
    # the 1536 x 4000 comb basis would take 98 MB; the slit-by-slit sum needs O(n)
    dimension = 4000
    slits = SlitArray(dimension, S, 0.05 * S)
    x = axis(24, 64)
    tracemalloc.start()
    try:
        rendered = render_synthesized(slits, x, 0.05 * S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rendered.shape == x.shape and np.abs(rendered).max() > 0
    assert peak < 10e6


def test_rendered_comb_peak_spacing():
    for spacing in (S, 0.1):
        slits = SlitArray(3, spacing, 0.05 * spacing, amplitudes=np.array([1.0, 0.0, 0.0]))
        x = axis(24, 64) * (spacing / S)
        rendered = np.abs(render_synthesized(slits, x, 0.05 * spacing)) ** 2
        peaks = []
        for i in range(1, len(x) - 1):
            if rendered[i] > rendered[i - 1] and rendered[i] > rendered[i + 1] \
                    and rendered[i] > 0.05 * rendered.max():
                peaks.append(x[i])
        gaps = np.diff(peaks)
        assert len(gaps) >= 6
        np.testing.assert_allclose(gaps, 3 * spacing, atol=2 * (x[1] - x[0]))


# ---------------------------------------------------------------------------
# entangled coefficients


@pytest.mark.parametrize("dimension", range(1, 9))
def test_coefficient_matrices_are_read_only_complex_unit_norm_arrays(dimension):
    made = [entangled_coeffs(dimension, S, BiphotonGaussian(kp * S, km * S))
            for kp, km in ((9.0, 1.0), (40.0, 0.05), (1.0, 3.0))]
    for c in made + [maximally_entangled(dimension)]:
        assert c.dtype == complex and c.shape == (dimension, dimension)
        assert abs((np.abs(c) ** 2).sum() - 1.0) <= 1e-12
        with pytest.raises(ValueError):
            c[0, 0] = 0.5


@pytest.mark.parametrize("values, message", [
    (np.ones((2, 3)) / math.sqrt(6.0), "coefficient matrix must be square"),
    (1.01 * np.eye(2) / math.sqrt(2.0), "coefficient matrix must have unit Frobenius norm"),
], ids=["2x3", "scaled"])
def test_coefficient_matrix_refuses_a_non_square_or_unnormalised_matrix(values, message):
    with pytest.raises(InvalidSpec, match=f"^{message}$"):
        _coeff_matrix(values)


def test_single_slit_matrix_is_trivial():
    c = entangled_coeffs(1, S, BiphotonGaussian(9.0, 1.0))
    np.testing.assert_allclose(c, [[1.0]], atol=1e-12)


def test_high_correlation_matrix_is_diagonal():
    c = entangled_coeffs(4, S, BiphotonGaussian(40.0 * S, 0.05 * S))
    off = c - np.diag(np.diag(c))
    assert np.abs(off).max() < 1e-6 * np.abs(np.diag(c)).min()


def test_matrix_symmetry_exact():
    c = entangled_coeffs(5, S, BiphotonGaussian(9.0 * S, S / 3.0))
    np.testing.assert_array_equal(c, c.T)


def brute_force_coeffs(dimension, spacing, model, width):
    """Independent oracle: 2-D overlap integrals of the post-slit state
    against products of normalized slit modes."""
    slits = SlitArray(dimension, spacing, width)
    positions = slits.positions()
    half = 6.0 * width
    grid = np.linspace(-half, half, 161)
    out = np.zeros((dimension, dimension))
    for i1, p1 in enumerate(positions):
        for i2, p2 in enumerate(positions):
            x1 = (p1 + grid)[:, None]
            x2 = (p2 + grid)[None, :]
            mode = (gaussian_amplitude(x1 - p1, width)
                    * gaussian_amplitude(x2 - p2, width))
            post_slit = (slits.transmission(x1[:, 0])[:, None]
                         * slits.transmission(x2[0, :])[None, :]
                         * biphoton_amplitude(model, x1, x2)).real
            out[i1, i2] = trapezoid(trapezoid(mode * post_slit, axis=1), axis=0)
    return out / np.linalg.norm(out)


def test_coeffs_match_brute_force_overlap_integrals():
    model = BiphotonGaussian(9.0 * S, S / 6.0)
    width = 0.05 * min(S / 6.0, S)
    oracle = brute_force_coeffs(3, S, model, width)
    c = entangled_coeffs(3, S, model).real
    mask = oracle > 1e-3 * oracle.max()
    rel = np.abs(c[mask] - oracle[mask]) / oracle[mask]
    assert rel.max() < 0.02


# ---------------------------------------------------------------------------
# two-photon comb state


def test_product_coefficients_give_product_field():
    c = np.diag([1.0, 0.0, 0.0]).astype(complex)
    slits = SlitArray(3, S, 0.05 * S)
    _, _, psi = two_photon_field(c, slits, samples_per_cell=64, cells=24, spike_width=0.05 * S)
    # rank-1 check via SVD of the grid
    sv = np.linalg.svd(psi, compute_uv=False)
    assert sv[1] / sv[0] < 1e-10


def test_marginal_is_periodic_comb():
    c = maximally_entangled(3)
    slits = SlitArray(3, S, 0.05 * S)
    _, _, psi = two_photon_field(c, slits, samples_per_cell=64, cells=24, spike_width=None)
    marginal = (np.abs(psi) ** 2).sum(axis=1)
    period_samples = 3 * 64
    folded = marginal[: 7 * period_samples].reshape(7, period_samples)
    rel = np.abs(folded - folded[0]).max() / folded.max()
    assert rel < 1e-6


@pytest.mark.parametrize("envelope", [False, True])
def test_two_photon_field_is_the_normalized_dense_grid_bit_for_bit(envelope):
    # the in-place normalisation keeps the arithmetic of the out-of-place one
    spike_width = 0.3 * S if envelope else None
    coeffs = entangled_coeffs(3, S, BiphotonGaussian(9.0 * S, 0.5 * S))
    slits = SlitArray(3, S, 0.3 * S)
    x_psi, dx_psi, psi = two_photon_field(coeffs, slits, samples_per_cell=20, cells=12,
                                          spike_width=spike_width)
    x, dx_basis, basis = comb_basis(slits, 20, 12, spike_width)
    dx = S / 20  # on this grid, regrouping the power's dx * dx changes bits
    vals = basis @ coeffs @ basis.T
    out_of_place = vals / math.sqrt(float((np.abs(vals) ** 2).sum() * dx * dx))
    assert psi.tobytes() == normalized_pair(vals, dx).tobytes() == out_of_place.tobytes()
    assert x_psi.tobytes() == x.tobytes() and dx_psi == dx_basis == dx
    assert not psi.flags.writeable


def pair_state(dimension):
    coeffs = entangled_coeffs(dimension, S, BiphotonGaussian(9.0 * S, 1.0 * S))
    return coeffs, SlitArray(dimension, S, 0.2 * S)


@pytest.mark.parametrize("envelope", [False, True])
@pytest.mark.parametrize("dimension", [2, 3, 5])
def test_two_photon_density_is_the_dense_density_bit_for_bit(dimension, envelope):
    # within 1e-14 of the peak, the grid bit for bit: the density is divided by
    # its power, the dense grid by the root of it; 680 rows: full row blocks and
    # a short last one
    spc, cells, spike_width = 20, 34, 0.05 * S if envelope else None
    assert spc * cells % _block_rows(spc * cells, dimension)
    coeffs, slits = pair_state(dimension)
    x_psi, dx_psi, psi = two_photon_field(coeffs, slits, spc, cells, spike_width)
    x, dx, density = two_photon_density(coeffs, slits, spc, cells, spike_width)
    assert np.abs(density - np.abs(psi) ** 2).max() <= 1e-14 * density.max()
    assert x.tobytes() == x_psi.tobytes() and dx == dx_psi


def test_two_photon_density_holds_no_complex_grid():
    spc, cells = 32, 60
    n = spc * cells
    coeffs, slits = pair_state(3)
    bound = 1.25 * 8 * n * n + 16 * _block_rows(n, 3) * n  # the density and one block
    peaks = []
    for build in (two_photon_density, two_photon_field):
        tracemalloc.start()
        try:
            build(coeffs, slits, spc, cells, 0.05 * S)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < bound < peaks[1]  # the dense route's n x n complex grid fails it


@pytest.mark.parametrize("kappa_minus", [0.3, 1.0, 3.0])
def test_schmidt_modes_factor_the_pair_state(kappa_minus):
    coeffs = entangled_coeffs(3, S, BiphotonGaussian(9.0 * S, kappa_minus * S))
    slits = SlitArray(3, S, 0.1 * S)
    x, dx, basis = comb_basis(slits, 32, 12, spike_width=0.1 * S)
    u_a, s, u_b = schmidt_modes(x, dx, basis, coeffs)
    psi = basis @ coeffs @ basis.T * dx
    psi /= np.linalg.norm(psi)
    np.testing.assert_allclose(u_a @ np.diag(s) @ u_b.T, psi, atol=1e-12)
    for u in (u_a, u_b):
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
    assert abs(np.linalg.norm(s) - 1.0) < 1e-15 and np.all(np.diff(s) <= 0)
    with pytest.raises(InvalidSpec):
        schmidt_modes(x, dx, basis[:, :2], coeffs)


def test_two_photon_field_matches_optical_pipeline():
    """End-to-end oracle: aperture, lens transform, grating mask, lens
    transform on the sampled grid, against the comb expansion."""
    dimension = 2
    width = 0.15 * S
    slits = SlitArray(dimension, S, width)
    spike_width = 0.15 * S
    model = BiphotonGaussian(4.0 * S, 1.2 * S)  # slits narrow against both kappas
    spc, cells = 53, 40
    x = axis(cells, spc)
    dx = x[1] - x[0]
    n = x.size

    src = biphoton_amplitude(model, x[:, None], x[None, :])
    masked = (slits.transmission(x)[:, None] * slits.transmission(x)[None, :] * src)

    # lenses of focal length f at wavelength lambda with f lambda = D s^2 around a
    # grating of period s: the output repeats on the lattice f lambda / s = D s
    f_lens = dimension * S * S
    freqs = np.fft.fftfreq(n, dx)
    u = f_lens * freqs  # transverse coordinate in the lens focal plane
    teeth = np.arange(-200, 201) * S
    grating = np.zeros_like(u)
    for t in teeth:
        grating += np.exp(-((u - t) ** 2) / (2.0 * spike_width ** 2))
    spec = np.fft.fft2(masked)
    spec *= grating[:, None] * grating[None, :]
    pipeline = np.fft.ifft2(spec)
    pipeline /= math.sqrt((np.abs(pipeline) ** 2).sum() * dx * dx)

    _, _, comb = two_photon_field(
        maximally_entangled_like(model, dimension, slits), slits,
        samples_per_cell=spc, cells=cells, spike_width=spike_width)
    num = abs((comb.conj() * pipeline).sum() * dx * dx) ** 2
    assert num >= 0.995


def maximally_entangled_like(model, dimension, slits):
    return entangled_coeffs(dimension, slits.spacing, model)


def test_source_density_widths_along_the_diagonals():
    # the density is Gaussian in the sum and difference coordinates with
    # variances kappa_plus^2 and kappa_minus^2
    model = BiphotonGaussian(9.0, 1.0)
    g = np.linspace(-40, 40, 801)
    dg = g[1] - g[0]
    dens = np.abs(biphoton_amplitude(model, g[:, None], g[None, :])) ** 2
    dens /= dens.sum() * dg * dg
    u = g[:, None] + g[None, :]
    v = g[:, None] - g[None, :]
    var_u = (u**2 * dens).sum() * dg * dg
    var_v = (v**2 * dens).sum() * dg * dg
    assert abs(var_u - model.kappa_plus**2) / model.kappa_plus**2 < 1e-6
    assert abs(var_v - model.kappa_minus**2) / model.kappa_minus**2 < 1e-6
