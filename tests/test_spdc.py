"""Pair-source model, apertures, synthesizers and the coefficient matrix."""

import math
import tracemalloc

import numpy as np
import pytest

from talbotlab import (GAUSSIAN, TOPHAT, BiphotonGaussian, CoeffMatrix,
                       InvalidSpec, SlitArray, SynthesizerGeometry,
                       UnderResolved, apply_dslit, biphoton_amplitude,
                       encode, entangled_coeffs,
                       fidelity, initial_biphoton_field, maximally_entangled,
                       render_synthesized, sample, schmidt_spectrum,
                       synthesize_single, two_photon_field, QuditState, BiphotonField)
from talbotlab.spdc import _comb_columns, comb_basis, grating_envelope, schmidt_modes

S = 1.0  # slit spacing; the natural length unit of this module


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
    field = initial_biphoton_field(model, axis(8, 160), axis(8, 160))
    out, transmitted = apply_dslit(field, slits)
    assert 0 < transmitted < 1
    x1, x2 = out.x1(), out.x2()
    dens = np.abs(out.values) ** 2 * out.dx1 * out.dx2
    diag = dens[np.abs(x1[:, None] - x2[None, :]) < S / 2].sum()
    assert diag > 0.99


def test_moderate_correlation_illuminates_all_pairs():
    model = BiphotonGaussian(9.0 * S, S)
    slits = SlitArray(3, S, 0.05 * S)
    field = initial_biphoton_field(model, axis(8, 160), axis(8, 160))
    out, _ = apply_dslit(field, slits)
    x1, x2 = out.x1(), out.x2()
    dens = np.abs(out.values) ** 2 * out.dx1 * out.dx2
    positions = slits.positions()
    for p1 in positions:
        for p2 in positions:
            patch = dens[np.ix_(np.abs(x1 - p1) < S / 2, np.abs(x2 - p2) < S / 2)]
            assert patch.sum() > 0.01


def test_wide_open_aperture_leaves_field_unchanged():
    model = BiphotonGaussian(4.0, 1.0)
    x = axis(16, 16)
    field = initial_biphoton_field(model, x, x)
    slits = SlitArray(1, 1000.0, 500.0)
    out, transmitted = apply_dslit(field, slits)
    assert transmitted > 0.999
    overlap2 = abs((out.values.conj() * field.values).sum()
                   * out.dx1 * out.dx2) ** 2
    assert overlap2 > 0.999


@pytest.mark.parametrize("amplitudes", [[math.nan, 1, 1], [math.inf, 1, 1], [1e200, 1e200, 0]])
def test_aperture_rejects_amplitudes_without_a_finite_norm(amplitudes):
    # NaN or infinite entries, or a norm whose square overflows, used to give
    # NaN or all-zero slit weights instead of an error
    with pytest.raises(InvalidSpec):
        SlitArray(3, S, 0.05 * S, amplitudes=np.array(amplitudes, dtype=complex))


def test_aperture_rejects_coarse_grids():
    model = BiphotonGaussian(4.0, 1.0)
    x = axis(16, 8)
    field = initial_biphoton_field(model, x, x)
    with pytest.raises(UnderResolved):
        apply_dslit(field, SlitArray(3, S, 0.05 * S))


def test_source_and_aperture_equal_the_out_of_place_normalisation_bit_for_bit():
    # the in-place normalisation keeps the arithmetic of BiphotonField.normalized
    model = BiphotonGaussian(9.0 * S, 0.5 * S)
    x = axis(8, 40)
    dx = float(x[1] - x[0])
    field = initial_biphoton_field(model, x, x)
    source = BiphotonField(float(x[0]), dx, float(x[0]), dx,
                           biphoton_amplitude(model, x[:, None], x[None, :]))
    assert field.values.tobytes() == source.normalized().values.tobytes()
    slits = SlitArray(3, S, 0.3 * S)
    t1, t2 = slits.transmission(field.x1()), slits.transmission(field.x2())
    masked = BiphotonField(float(x[0]), dx, float(x[0]), dx,
                           field.values * t1[:, None] * t2[None, :])
    out, transmitted = apply_dslit(field, slits)
    assert out.values.tobytes() == masked.normalized().values.tobytes()
    assert transmitted == masked.power() / field.power()
    assert (out.x0_1, out.dx1, out.x0_2, out.dx2) == (float(x[0]), dx, float(x[0]), dx)


# ---------------------------------------------------------------------------
# synthesizer


def test_synthesizer_effective_period():
    geom = SynthesizerGeometry(focal_length=300.0, wavelength=0.01,
                               grating_period=1.0, spike_width=0.05)
    assert abs(geom.effective_period - 3.0) < 1e-12
    geom2 = SynthesizerGeometry.for_dimension(3, S)
    assert abs(geom2.effective_period - 3.0 * S) < 1e-12


def test_synthesizer_lengths_must_stay_finite():
    # the focal length D s^2 / lambda overflows for s = 1e300; a grating period of
    # 1e200 with a finite focal length has a square that overflows
    with pytest.raises(InvalidSpec):
        SynthesizerGeometry.for_dimension(3, 1e300)
    with pytest.raises(InvalidSpec):
        grating_envelope(SynthesizerGeometry(1.0, 1.0, 1e200, 1.0))


def test_synthesized_state_equals_direct_encoding():
    slits = SlitArray(3, S, 0.05 * S)
    geom = SynthesizerGeometry.for_dimension(3, S)
    via_synth = synthesize_single(slits, geom)
    via_encode = encode(QuditState.uniform(3), geom.talbot_geometry(3, 0.05 * S))
    a = sample(via_synth, 128, 8)
    b = sample(via_encode, 128, 8)
    assert fidelity(a, b) >= 0.999


def test_single_order_grating_reproduces_the_aperture():
    # a grating with only its zeroth Fourier order passes the aperture through
    slits = SlitArray(3, S, 0.05 * S, amplitudes=np.array([1.0, 0.0, 0.0]))
    geom = SynthesizerGeometry.for_dimension(3, S, spike_width=0.4 * S)
    x = axis(24, 64)
    rendered = render_synthesized(slits, geom, x)
    direct = slits.transmission(x)
    num = abs((rendered.conj() * direct).sum()) ** 2
    den = (np.abs(rendered) ** 2).sum() * (np.abs(direct) ** 2).sum()
    assert num / den > 0.98  # zeroth order dominates a wide-spike grating


@pytest.mark.parametrize("profile", [GAUSSIAN, TOPHAT], ids=lambda p: p.name)
@pytest.mark.parametrize("dimension", [1, 3, 7, 64])
def test_render_equals_the_comb_basis_times_the_amplitudes(dimension, profile):
    # oracle: the n x D basis of envelope-weighted comb columns, applied at once
    rng = np.random.default_rng(dimension)
    amps = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
    slits = SlitArray(dimension, S, 0.08 * S, profile=profile, amplitudes=amps)
    geom = SynthesizerGeometry.for_dimension(dimension, S, spike_width=0.1 * S)
    x = axis(13, 50)
    oracle = np.column_stack(list(_comb_columns(slits, geom, x, True))) @ slits.amplitudes
    rendered = render_synthesized(slits, geom, x)
    assert np.abs(oracle).max() > 0
    assert np.abs(rendered - oracle).max() <= 1e-15 * np.abs(oracle).max()


def test_render_memory_stays_linear_in_the_grid():
    # the 1536 x 4000 comb basis would take 98 MB; the slit-by-slit sum needs O(n)
    dimension = 4000
    slits = SlitArray(dimension, S, 0.05 * S)
    geom = SynthesizerGeometry.for_dimension(dimension, S)
    x = axis(24, 64)
    tracemalloc.start()
    try:
        rendered = render_synthesized(slits, geom, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rendered.shape == x.shape and np.abs(rendered).max() > 0
    assert peak < 10e6


def test_rendered_comb_peak_spacing():
    slits = SlitArray(3, S, 0.05 * S, amplitudes=np.array([1.0, 0.0, 0.0]))
    geom = SynthesizerGeometry.for_dimension(3, S)
    x = axis(24, 64)
    rendered = np.abs(render_synthesized(slits, geom, x)) ** 2
    peaks = []
    for i in range(1, len(x) - 1):
        if rendered[i] > rendered[i - 1] and rendered[i] > rendered[i + 1] \
                and rendered[i] > 0.05 * rendered.max():
            peaks.append(x[i])
    gaps = np.diff(peaks)
    np.testing.assert_allclose(gaps, geom.effective_period, atol=2 * (x[1] - x[0]))


# ---------------------------------------------------------------------------
# entangled coefficients


def test_single_slit_matrix_is_trivial():
    c = entangled_coeffs(1, S, BiphotonGaussian(9.0, 1.0))
    np.testing.assert_allclose(c.values, [[1.0]], atol=1e-12)


def test_high_correlation_matrix_is_diagonal():
    c = entangled_coeffs(4, S, BiphotonGaussian(40.0 * S, 0.05 * S)).values
    off = c - np.diag(np.diag(c))
    assert np.abs(off).max() < 1e-6 * np.abs(np.diag(c)).min()


def test_matrix_symmetry_exact():
    c = entangled_coeffs(5, S, BiphotonGaussian(9.0 * S, S / 3.0)).values
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
            mode = (GAUSSIAN.amplitude(x1 - p1, width)
                    * GAUSSIAN.amplitude(x2 - p2, width))
            post_slit = (slits.transmission(x1[:, 0])[:, None]
                         * slits.transmission(x2[0, :])[None, :]
                         * biphoton_amplitude(model, x1, x2)).real
            out[i1, i2] = np.trapezoid(np.trapezoid(mode * post_slit, axis=1), axis=0)
    return out / np.linalg.norm(out)


def test_coeffs_match_brute_force_overlap_integrals():
    model = BiphotonGaussian(9.0 * S, S / 6.0)
    width = 0.05 * min(S / 6.0, S)
    oracle = brute_force_coeffs(3, S, model, width)
    c = entangled_coeffs(3, S, model).values.real
    mask = oracle > 1e-3 * oracle.max()
    rel = np.abs(c[mask] - oracle[mask]) / oracle[mask]
    assert rel.max() < 0.02


def test_entropy_monotone_in_correlation():
    entropies = []
    for km in (2.0 * S, S, 0.5 * S, 0.25 * S, 0.1 * S):
        model = BiphotonGaussian(9.0 * S, km)
        _, entropy = schmidt_spectrum(entangled_coeffs(3, S, model))
        entropies.append((model.correlation, entropy))
    entropies.sort()
    values = [e for _, e in entropies]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Schmidt spectrum


def test_schmidt_of_maximally_entangled():
    values, entropy = schmidt_spectrum(maximally_entangled(4))
    np.testing.assert_allclose(values, 0.5, atol=1e-12)
    assert abs(entropy - 2.0) < 1e-12


def test_schmidt_of_product_state():
    v = np.array([0.6, 0.8])
    c = CoeffMatrix(np.outer(v, v))
    values, entropy = schmidt_spectrum(c)
    assert values[0] > 1.0 - 1e-12
    assert entropy < 1e-10


def test_schmidt_of_spdc_matrix_strictly_between_bounds():
    c = entangled_coeffs(3, S, BiphotonGaussian(9.0 * S, S / 6.0))
    _, entropy = schmidt_spectrum(c)
    assert 0.0 < entropy < math.log2(3)


# ---------------------------------------------------------------------------
# two-photon comb state


def test_product_coefficients_give_product_field():
    c = CoeffMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
    slits = SlitArray(3, S, 0.05 * S)
    geom = SynthesizerGeometry.for_dimension(3, S)
    psi = two_photon_field(c, slits, geom, samples_per_cell=64, cells=24)
    # rank-1 check via SVD of the grid
    sv = np.linalg.svd(psi.values, compute_uv=False)
    assert sv[1] / sv[0] < 1e-10


def test_marginal_is_periodic_comb():
    c = maximally_entangled(3)
    slits = SlitArray(3, S, 0.05 * S)
    geom = SynthesizerGeometry.for_dimension(3, S)
    psi = two_photon_field(c, slits, geom, samples_per_cell=64, cells=24,
                           envelope=False)
    marginal = (np.abs(psi.values) ** 2).sum(axis=1)
    period_samples = 3 * 64
    folded = marginal[: 7 * period_samples].reshape(7, period_samples)
    rel = np.abs(folded - folded[0]).max() / folded.max()
    assert rel < 1e-6


@pytest.mark.parametrize("envelope", [False, True])
def test_two_photon_field_is_the_normalized_dense_grid_bit_for_bit(envelope):
    # the in-place normalisation keeps the arithmetic of the out-of-place one
    coeffs = entangled_coeffs(3, S, BiphotonGaussian(9.0 * S, 0.5 * S))
    slits = SlitArray(3, S, 0.3 * S)
    geom = SynthesizerGeometry.for_dimension(3, S, spike_width=0.3 * S)
    psi = two_photon_field(coeffs, slits, geom, samples_per_cell=20, cells=12,
                           envelope=envelope)
    x, basis = comb_basis(slits, geom, 20, 12, envelope)
    dx = S / 20  # on this grid, regrouping the power's dx * dx changes bits
    vals = basis @ coeffs.values @ basis.T
    expected = BiphotonField(float(x[0]), dx, float(x[0]), dx, vals).normalized()
    out_of_place = vals / math.sqrt(float((np.abs(vals) ** 2).sum() * dx * dx))
    assert psi.values.tobytes() == expected.values.tobytes() == out_of_place.tobytes()
    assert (psi.x0_1, psi.dx1, psi.x0_2, psi.dx2) == (float(x[0]), dx, float(x[0]), dx)


@pytest.mark.parametrize("kappa_minus", [0.3, 1.0, 3.0])
def test_schmidt_modes_factor_the_pair_state(kappa_minus):
    coeffs = entangled_coeffs(3, S, BiphotonGaussian(9.0 * S, kappa_minus * S))
    slits = SlitArray(3, S, 0.1 * S)
    geom = SynthesizerGeometry.for_dimension(3, S, spike_width=0.1 * S)
    x, basis = comb_basis(slits, geom, 32, 12, envelope=True)
    u_a, s, u_b = schmidt_modes(x, basis, coeffs)
    dx = x[1] - x[0]
    psi = basis @ coeffs.values @ basis.T * dx
    psi /= np.linalg.norm(psi)
    np.testing.assert_allclose(u_a @ np.diag(s) @ u_b.T, psi, atol=1e-12)
    for u in (u_a, u_b):
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
    assert abs(np.linalg.norm(s) - 1.0) < 1e-15 and np.all(np.diff(s) <= 0)
    with pytest.raises(InvalidSpec):
        schmidt_modes(x, basis[:, :2], coeffs)


def test_two_photon_field_matches_optical_pipeline():
    """End-to-end oracle: aperture, lens transform, grating mask, lens
    transform on the sampled grid, against the comb expansion."""
    dimension = 2
    width = 0.15 * S
    slits = SlitArray(dimension, S, width)
    geom = SynthesizerGeometry.for_dimension(dimension, S, spike_width=0.15 * S)
    model = BiphotonGaussian(4.0 * S, 1.2 * S)  # slits narrow against both kappas
    spc, cells = 53, 40
    x = axis(cells, spc)
    dx = x[1] - x[0]
    n = x.size

    src = biphoton_amplitude(model, x[:, None], x[None, :])
    masked = (slits.transmission(x)[:, None] * slits.transmission(x)[None, :] * src)

    f_lens = geom.focal_length * geom.wavelength
    freqs = np.fft.fftfreq(n, dx)
    u = f_lens * freqs  # transverse coordinate in the lens focal plane
    teeth = np.arange(-200, 201) * geom.grating_period
    grating = np.zeros_like(u)
    for t in teeth:
        grating += np.exp(-((u - t) ** 2) / (2.0 * geom.spike_width ** 2))
    spec = np.fft.fft2(masked)
    spec *= grating[:, None] * grating[None, :]
    pipeline = np.fft.ifft2(spec)
    pipeline /= math.sqrt((np.abs(pipeline) ** 2).sum() * dx * dx)

    comb = two_photon_field(
        maximally_entangled_like(model, dimension, slits), slits, geom,
        samples_per_cell=spc, cells=cells)
    num = abs((comb.values.conj() * pipeline).sum() * dx * dx) ** 2
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
