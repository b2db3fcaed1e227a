"""Field representations and the two propagation routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import fidelity, fresnel_propagate, overlap, power, restricted, tapered_sample
from talbotlab.errors import AliasingRisk, InvalidSpec, UnderResolved
from talbotlab.fields import (SampledField, _mode_numbers, biphoton_propagate, gaussian_transform,
                              mode_propagate, periodic_comb, sample, sampling_matrix, unit_power)

PERIOD = 1.0


def reach(fraction):
    """The spectral reach ``lambda z`` of a fraction of the Talbot length."""
    return fraction * PERIOD ** 2


def unit_comb(width=0.05):
    return periodic_comb(PERIOD, width, [0.0], [1.0])


# ---------------------------------------------------------------------------
# sampled propagation


def test_zero_distance_returns_input_unchanged():
    field = sample(unit_comb(), PERIOD, 64, 16)
    out = fresnel_propagate(field, 0.0)
    assert out is field


def test_invalid_spec_rejected():
    # a negative Talbot fraction or reach is a backward propagation
    for propagate in (lambda: mode_propagate(unit_comb(), -0.5),
                      lambda: biphoton_propagate(np.ones((4, 4), dtype=complex), 0.1, -0.5)):
        with pytest.raises(InvalidSpec) as refused:
            propagate()
        assert str(refused.value) == "backward propagation (z < 0) is not supported"


def gaussian_beam(waist, wavelength, n=8192, dx=0.05):
    x = (np.arange(n) - n / 2) * dx
    amp = (2.0 / (math.pi * waist**2)) ** 0.25 * np.exp(-(x**2) / waist**2)
    return SampledField(x[0], dx, unit_power(amp.astype(complex), dx))


@pytest.mark.parametrize("zfrac", [0.5, 1.0])
def test_gaussian_beam_divergence_matches_closed_form(zfrac):
    # independent oracle: w(z) = w0 sqrt(1 + (z/zR)^2), zR = pi w0^2 / lambda
    w0, lam = 1.0, 0.2
    z_r = math.pi * w0**2 / lam
    field = gaussian_beam(w0, lam)
    out = fresnel_propagate(field, lam * zfrac * z_r)
    intensity = np.abs(out.values) ** 2
    xs = out.x()
    w_measured = 2.0 * math.sqrt(float((xs**2 * intensity).sum() / intensity.sum()))
    w_expected = w0 * math.sqrt(1.0 + zfrac**2)
    assert abs(w_measured - w_expected) / w_expected < 1e-3
    assert abs(power(out) - 1.0) < 1e-9


def test_comb_revival_at_two_talbot_lengths():
    field = sample(unit_comb(), PERIOD, 64, 128)
    out = fresnel_propagate(field, reach(2.0))
    assert fidelity(field, out) >= 0.999
    assert abs(power(out) - 1.0) < 1e-9


def test_tapered_comb_revival_on_central_window():
    # finite illumination: 160 periods with 8-period edge ramps, detection on
    # the central 128 periods
    field = tapered_sample(unit_comb(), PERIOD, 64, 160, 8)
    out = fresnel_propagate(field, reach(2.0))
    assert fidelity(restricted(field, -64, 64), restricted(out, -64, 64)) >= 0.999


def test_aliasing_guard_trips_for_a_localized_field():
    field = gaussian_beam(1.0, 0.2)
    with pytest.raises(AliasingRisk):
        fresnel_propagate(field, 0.2 * 4000.0)


def test_aliasing_guard_trips_for_nyquist_bandwidth():
    n, dx = 512, 0.05
    x = (np.arange(n) - n / 2) * dx
    # near-Nyquist carrier
    vals = np.exp(-(x**2)) * np.exp(1j * 2 * np.pi * 0.48 / dx * x)
    field = SampledField(x[0], dx, unit_power(vals, dx))
    with pytest.raises(AliasingRisk):
        fresnel_propagate(field, 0.2 * 1.0)


def test_sampled_semigroup():
    field = sample(unit_comb(), PERIOD, 64, 128)
    za, zb = reach(0.31), reach(0.23)
    two_steps = fresnel_propagate(fresnel_propagate(field, za), zb)
    one_step = fresnel_propagate(field, za + zb)
    assert abs(fidelity(two_steps, one_step) - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# biphoton propagation


def test_product_state_propagates_as_outer_product():
    # each axis evolves on its own, so a product state stays a product
    lam_z = 0.2 * 3.0
    a = gaussian_beam(1.0, 0.2, n=256, dx=0.1)
    b = gaussian_beam(1.5, 0.2, n=256, dx=0.1)
    out = biphoton_propagate(np.outer(a.values, b.values), a.dx, lam_z)
    expected = np.outer(fresnel_propagate(a, lam_z).values, fresnel_propagate(b, lam_z).values)
    assert np.abs(out - expected).max() < 1e-12
    assert not out.flags.writeable


@pytest.mark.parametrize("localized_axis", [0, 1])
def test_biphoton_guard_trips_on_the_localized_axis(localized_axis):
    # a Gaussian along one axis, a window-filling plane wave along the other
    lam_z = 0.2 * 4000.0
    beam = gaussian_beam(1.0, 0.2, n=256)
    plane = np.ones((256, 256))
    biphoton_propagate(plane, beam.dx, lam_z)
    values = beam.values[:, None] * plane
    if localized_axis == 1:
        values = values.T
    with pytest.raises(AliasingRisk):
        biphoton_propagate(values, beam.dx, lam_z)


# ---------------------------------------------------------------------------
# mode propagation


def test_mode_revival_is_exact():
    field = unit_comb()
    out = mode_propagate(field, 2.0)
    assert np.array_equal(out, field)


def test_half_period_shift_at_one_talbot_length():
    field = unit_comb()
    out = mode_propagate(field, 1.0)
    n = _mode_numbers(field)
    assert np.abs(out - field * (-1.0) ** np.abs(n)).max() < 1e-12


def test_mode_zero_distance_identity():
    field = unit_comb()
    assert mode_propagate(field, 0.0) is field


@given(
    za=st.floats(0.0, 3.0),
    zb=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_mode_unitarity_and_semigroup(za, zb, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
    field = unit_power(coeffs)
    one = mode_propagate(field, za + zb)
    two = mode_propagate(mode_propagate(field, za), zb)
    assert np.abs(np.abs(one) - np.abs(field)).max() < 1e-12
    assert np.abs(one - two).max() < 1e-9


def test_mode_matches_fresnel_on_common_grid():
    field = unit_comb()
    via_modes = sample(mode_propagate(field, 0.37), PERIOD, 64, 128)
    via_grid = fresnel_propagate(sample(field, PERIOD, 64, 128), reach(0.37))
    assert fidelity(via_modes, via_grid) >= 0.999


# ---------------------------------------------------------------------------
# sampling and combs


def test_single_mode_samples_to_constant_amplitude():
    field = np.array([0.0, 1.0, 0.0], dtype=complex)
    out = sample(field, PERIOD, 16, 4)
    assert np.abs(out.values - out.values[0]).max() < 1e-12


def test_symmetric_pair_is_cosine_with_known_zeros():
    coeffs = np.array([1.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    out = sample(coeffs, PERIOD, 64, 4)
    xs = out.x()
    expected = np.cos(2 * np.pi * xs / PERIOD)
    expected = expected / np.sqrt((np.abs(expected) ** 2).sum() * out.dx)
    scale = out.values[np.argmax(np.abs(expected))] / expected[np.argmax(np.abs(expected))]
    assert np.abs(out.values - scale * expected).max() < 1e-9
    # zeros at quarter-period offsets
    for x_zero in (0.25, 0.75, -0.25):
        idx = np.argmin(np.abs(xs - x_zero))
        assert abs(out.values[idx]) < 1e-9


def test_sample_matches_direct_series_summation():
    # independent oracle: naive per-mode loop over the truncated series
    field = periodic_comb(PERIOD, 0.04, [0.0, 0.37], [0.8, 0.6j])
    out = sample(field, PERIOD, 128, 3)
    k = 2 * np.pi / PERIOD
    xs = out.x()
    direct = np.zeros(out.n, dtype=complex)
    for n, c in zip(_mode_numbers(field), field):
        direct = direct + c * np.exp(1j * n * k * xs)
    direct /= math.sqrt((np.abs(direct) ** 2).sum() * out.dx)
    assert np.abs(out.values - direct).max() < 1e-12


def test_sample_normalization_and_window():
    field = unit_comb()
    out = sample(field, PERIOD, 64, 32)
    assert abs(power(out) - 1.0) < 1e-12
    assert out.n == 64 * 32


def test_sample_rejects_coarse_grid():
    field = periodic_comb(PERIOD, 0.01, [0.0], [1.0])  # many modes
    with pytest.raises(UnderResolved):
        sample(field, PERIOD, 16, 4)


def test_comb_truncation_mass_rule():
    field = periodic_comb(PERIOD, 0.05, [0.0], [1.0])
    n = _mode_numbers(field)
    k = 2 * np.pi / PERIOD
    full = gaussian_transform(np.arange(-4096, 4097) * k, 0.05) ** 2
    kept = gaussian_transform(n * k, 0.05) ** 2
    assert 1.0 - kept.sum() / full.sum() < 1e-8


ODD_LENGTH = "coeffs must be a 1-D array of odd length (symmetric truncation)"


_SAMPLERS = {
    "sample": lambda c, p: sample(c, p, 64, 4),
    "sampling_matrix": lambda c, p: sampling_matrix(c, p, 64, 4),
}
# mode_propagate takes no period: it sees only the bad vectors
_PROPAGATORS = {
    "mode_propagate": lambda c, p: mode_propagate(c, 1.0),
    "mode_propagate_z0": lambda c, p: mode_propagate(c, 0.0),
}
_BAD_VECTORS = {
    "even": (np.ones(4, dtype=complex), PERIOD, ODD_LENGTH),
    "2d": (np.ones((3, 3), dtype=complex), PERIOD, ODD_LENGTH),
}
_BAD_PERIODS = {
    "zero_period": (np.ones(3, dtype=complex), 0.0, "period must be positive"),
    "negative_period": (np.ones(3, dtype=complex), -1.0, "period must be positive"),
    "nan_period": (np.ones(3, dtype=complex), math.nan, "period must be positive"),
}


@pytest.mark.parametrize("call, coeffs, period, message", [
    pytest.param(call, *case, id=f"{case_id}-{call_id}")
    for cases, calls in ((_BAD_VECTORS, {**_SAMPLERS, **_PROPAGATORS}), (_BAD_PERIODS, _SAMPLERS))
    for case_id, case in cases.items()
    for call_id, call in calls.items()
])
def test_periodic_field_refuses_a_bad_vector_or_period(call, coeffs, period, message):
    # a vector with modes -M..M and a positive period, or InvalidSpec with its text
    with pytest.raises(InvalidSpec) as refused:
        call(coeffs, period)
    assert str(refused.value) == message


# ---------------------------------------------------------------------------
# overlap


def test_overlap_of_normalized_field_with_itself():
    field = sample(unit_comb(), PERIOD, 64, 16)
    assert abs(overlap(field, field) - 1.0) < 1e-12


def test_displaced_narrow_combs_are_orthogonal():
    a = sample(periodic_comb(PERIOD, 0.02, [0.0], [1.0]), PERIOD, 128, 16)
    b = sample(periodic_comb(PERIOD, 0.02, [0.5], [1.0]), PERIOD, 128, 16)
    assert abs(overlap(a, b)) < 1e-6


def test_overlap_grid_mismatch():
    a = sample(unit_comb(), PERIOD, 64, 16)
    b = sample(unit_comb(), PERIOD, 64, 8)
    with pytest.raises(ValueError):
        overlap(a, b)


def test_overlap_bounded_for_normalized_fields(rng):
    n = 256
    va = rng.normal(size=n) + 1j * rng.normal(size=n)
    vb = rng.normal(size=n) + 1j * rng.normal(size=n)
    a = SampledField(0.0, 0.1, unit_power(va, 0.1))
    b = SampledField(0.0, 0.1, unit_power(vb, 0.1))
    assert abs(overlap(a, b)) <= 1.0 + 1e-12
