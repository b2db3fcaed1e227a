"""Gauss-sum coefficients, gates, measurement mapping, encode/decode, detector bins."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (QuditGeometry, closed_form_phases, decode, encode, integrated_overlap,
                       overlap, phase_gate, talbot_gate)
from talbotlab import qudits
from talbotlab.errors import BinMisalignment, InvalidSpec
from talbotlab.fields import SampledField, mode_propagate, sample, unit_power
from talbotlab.qudits import (bin_outcome_map, bin_weights, check_slit_overlap,
                              gate_distance_fraction, gauss_coeffs, measurement_basis,
                              measurement_phases, measurement_unitary)
from talbotlab.spdc import SlitArray

GAMMAS = (0.0, 0.5, 0.25, -0.25)


def basis_comb(geom, index):
    """The comb of basis state ``index``: one slit comb at its offset."""
    return encode(np.eye(geom.dimension, dtype=complex)[index], geom)


# ---------------------------------------------------------------------------
# Gauss sums


def test_full_revival_is_trivial():
    assert np.allclose(gauss_coeffs(1), [1.0], atol=1e-12)


def test_half_revival_is_a_pure_shift():
    # two-term evaluation by hand: a = (0, 1)
    np.testing.assert_allclose(gauss_coeffs(2), [0.0, 1.0], atol=1e-12)


def test_quarter_revival_amplitudes():
    # four-term evaluation by hand
    expected = np.array([(1 - 1j) / 2, 0.0, (1 + 1j) / 2, 0.0])
    np.testing.assert_allclose(gauss_coeffs(4), expected, atol=1e-12)


@pytest.mark.parametrize("dimension", range(2, 9))
def test_gauss_norm_and_even_support(dimension):
    c = 1 if dimension % 2 else 2
    a = gauss_coeffs(c * dimension)
    assert abs((np.abs(a) ** 2).sum() - 1.0) < 1e-12
    if dimension % 2 == 0:
        assert np.abs(a[1::2]).max() < 1e-12  # only even orders survive


@given(r=st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_gauss_norm_for_random_coprime_pairs(r):
    # every revival fraction 1 / r is in lowest terms
    a = gauss_coeffs(r)
    assert abs((np.abs(a) ** 2).sum() - 1.0) < 1e-12


def test_gauss_coeffs_and_measurement_unitary_are_read_only():
    for array in (gauss_coeffs(6), measurement_unitary(3, 0.25, "B")):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_gauss_coeffs_and_measurement_unitary_check_every_value(monkeypatch):
    # with no tolerance left, the unit-weight and unitarity checks refuse any value
    monkeypatch.setattr(qudits, "_ATOL", -1.0)
    with pytest.raises(InvalidSpec, match="unit total weight"):
        gauss_coeffs(3)
    with pytest.raises(InvalidSpec, match="not unitary"):
        measurement_unitary(3, 0.0, "A")


# ---------------------------------------------------------------------------
# gates


def test_qubit_gate_matrix():
    expected = np.array([[(1 - 1j) / 2, (1 + 1j) / 2],
                         [(1 + 1j) / 2, (1 - 1j) / 2]])
    np.testing.assert_allclose(talbot_gate(2), expected, atol=1e-12)


@pytest.mark.parametrize("dimension", range(2, 10))
def test_gate_unitarity(dimension):
    u = talbot_gate(dimension)
    assert np.abs(u.conj().T @ u - np.eye(dimension)).max() < 1e-12


def test_gate_matches_field_propagation_oracle():
    # brute force: propagate each basis comb by the gate distance, project
    # back onto the basis combs
    dimension = 3
    period = float(dimension)
    geom = QuditGeometry(period, 0.01, dimension, 0.0)
    fields = [sample(basis_comb(geom, d), period, 512, 8) for d in range(dimension)]
    gate = gate_distance_fraction(dimension)
    propagated = [sample(mode_propagate(basis_comb(geom, d), gate), period, 512, 8)
                  for d in range(dimension)]
    matrix = np.array([[overlap(fields[i], propagated[j]) for j in range(dimension)]
                       for i in range(dimension)])
    assert np.abs(matrix - talbot_gate(dimension)).max() < 1e-9


def test_phase_gate_trivial_cases():
    dim = 4
    assert np.abs(phase_gate(np.zeros(dim)) - np.eye(dim)).max() < 1e-12
    z = phase_gate(2 * np.pi * np.arange(dim) / dim)
    roots = np.exp(2j * np.pi * np.arange(dim) / dim)
    assert np.abs(z - np.diag(roots)).max() < 1e-12


# ---------------------------------------------------------------------------
# measurement phases and mapping


def test_qubit_phases_match_hand_values():
    np.testing.assert_allclose(
        measurement_phases(2, 0.0),
        np.mod([np.pi / 4, np.pi / 4 - np.pi / 2], 2 * np.pi),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        measurement_phases(2, 0.5),
        np.mod([np.pi / 4, np.pi / 4 - np.pi], 2 * np.pi),
        atol=1e-12,
    )


@pytest.mark.parametrize("dimension", [2, 4, 6])
@pytest.mark.parametrize("gamma", GAMMAS)
def test_even_phases_equal_quadratic_closed_form(dimension, gamma):
    diff = np.mod(measurement_phases(dimension, gamma)
                  - closed_form_phases(dimension, gamma), 2 * np.pi)
    diff = np.minimum(diff, 2 * np.pi - diff)
    assert diff.max() < 1e-10


@pytest.mark.parametrize("dimension", [3, 5, 7])
def test_odd_quadratic_closed_form_fails_the_mapping(dimension):
    # the printed quadratic ansatz does not diagonalize the propagation
    # measurement for odd dimensions; the solved phases must
    m = talbot_gate(dimension) @ np.diag(
        np.exp(1j * closed_form_phases(dimension, 0.0)))
    amp = np.abs(m @ measurement_basis(dimension, 0.0, "A"))
    assert not np.allclose(amp.max(axis=0), 1.0, atol=1e-6)
    amp_b = np.abs(m @ measurement_basis(dimension, 0.0, "B"))
    assert not np.allclose(amp_b.max(axis=0), 1.0, atol=1e-6)


@pytest.mark.parametrize("dimension", range(2, 8))
@pytest.mark.parametrize("gamma", GAMMAS)
def test_mapping_sends_measurement_basis_to_detector_bins(dimension, gamma):
    m = talbot_gate(dimension) @ phase_gate(measurement_phases(dimension, gamma))
    for side in ("A", "B"):
        transformed = m @ measurement_basis(dimension, gamma, side)
        column_peaks = np.abs(transformed).max(axis=0)
        np.testing.assert_allclose(column_peaks, 1.0, atol=1e-10)
        # the induced bin permutation is gamma-independent and is the
        # inverse of the published bin-to-outcome relabeling
        perm = np.abs(transformed).argmax(axis=0)
        assert sorted(perm) == list(range(dimension))
        np.testing.assert_array_equal(perm, np.argsort(bin_outcome_map(dimension, side)))


@pytest.mark.parametrize("dimension", range(2, 65))
def test_bin_outcome_map_equals_the_derived_permutation(dimension):
    # the derivation the closed form replaced: the bin that gate and mask send
    # each gamma = 0 eigenvector to, inverted into a bin-to-outcome map
    m = talbot_gate(dimension) @ phase_gate(measurement_phases(dimension, 0.0))
    for side in ("A", "B"):
        amp = np.abs(m @ measurement_basis(dimension, 0.0, side))
        np.testing.assert_allclose(amp.max(axis=0), 1.0, atol=1e-9)
        derived = np.empty(dimension, dtype=int)
        derived[amp.argmax(axis=0)] = np.arange(dimension)
        np.testing.assert_array_equal(bin_outcome_map(dimension, side), derived)


@pytest.mark.parametrize("dimension", range(2, 65))
def test_gate_row_is_the_first_row_of_the_gate(dimension):
    row = qudits._talbot_gate_row(dimension)
    expected = talbot_gate(dimension)[0]
    assert row.dtype == expected.dtype and not row.flags.writeable
    np.testing.assert_array_equal(row.view(np.uint64), expected.view(np.uint64))


def test_bin_outcome_map_refuses_an_unknown_side():
    with pytest.raises(InvalidSpec, match="side must be"):
        bin_outcome_map(3, "C")


@pytest.mark.parametrize("dimension", range(2, 8))
@pytest.mark.parametrize("gamma", GAMMAS)
def test_probability_equivalence_of_gate_route(dimension, gamma, rng):
    v = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
    v /= np.linalg.norm(v)
    m = talbot_gate(dimension) @ phase_gate(measurement_phases(dimension, gamma))
    for side in ("A", "B"):
        bins = np.abs(m @ v) ** 2
        relabeled = np.zeros(dimension)
        relabeled[bin_outcome_map(dimension, side)] = bins
        direct = np.abs(measurement_unitary(dimension, gamma, side) @ v) ** 2
        np.testing.assert_allclose(relabeled, direct, atol=1e-10)


def test_measurement_unitary_qubit_is_hadamard():
    u = measurement_unitary(2, 0.0, "A")
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    phase = u[0, 0] / h[0, 0]
    assert abs(abs(phase) - 1.0) < 1e-12
    np.testing.assert_allclose(u, phase * h, atol=1e-12)


@pytest.mark.parametrize("dimension", range(2, 8))
@pytest.mark.parametrize("side", ["A", "B"])
def test_measurement_unitary_defining_property(dimension, side, rng):
    gamma = float(rng.uniform(-0.5, 0.5))
    u = measurement_unitary(dimension, gamma, side)
    basis = measurement_basis(dimension, gamma, side)
    for f in range(dimension):
        image = u @ basis[:, f]
        assert abs(abs(image[f]) - 1.0) < 1e-12
        assert np.abs(np.delete(image, f)).max() < 1e-12


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("gamma", [0.0, 0.25])
def test_measurement_unitary_is_unitary_to_rounding_at_large_dimension(side, gamma):
    # the integer part of the phase index is reduced mod D before it is scaled,
    # which keeps the error near rounding at large D
    u = measurement_unitary(512, gamma, side)
    assert np.abs(u.conj().T @ u - np.eye(512)).max() < 1e-14


# ---------------------------------------------------------------------------
# encode / decode


def test_geometry_rejects_wide_slits():
    with pytest.raises(InvalidSpec):
        check_slit_overlap(1.0 / 3, 0.4)


def test_overlap_guard_refuses_every_width_the_integrated_overlap_refuses():
    # the closed form exp(-(step / w)^2 / 4) against the 2049-point sum it replaced:
    # within 1e-4 relative up to 0.17 steps, and admitting no width the sum refuses
    ratios = np.concatenate([np.linspace(0.01, 0.99, 99), np.linspace(0.16, 0.17, 101)])
    for period, dimension in ((1.0, 2), (3.0, 3), (0.2, 5), (7.5, 7)):
        step = period / dimension
        for ratio in ratios:
            width = ratio * step
            oracle = integrated_overlap(step, width)
            if ratio <= 0.17:
                closed = qudits._adjacent_overlap(step / width)
                assert math.isclose(closed, oracle, rel_tol=1e-4), (period, dimension, ratio)
            try:
                check_slit_overlap(step, width)
            except InvalidSpec:
                continue
            assert oracle <= qudits.MAX_OVERLAP, (period, dimension, ratio)


@pytest.mark.parametrize("spacing", [1.0, 0.3, 0.1, 0.7])
@pytest.mark.parametrize("dimension", [2, 3, 7])
def test_overlap_refusal_names_the_widest_slit_that_passes(dimension, spacing):
    # 1 / (2 sqrt(ln 10^4)) = 0.16475... spacings, rounded down: that width
    # passes the guard and one 1% wider does not, for the slit arrays the field
    # route checks; at spacings 0.1 and 0.7 the period D s over D is not s itself
    def guard(width):
        slits = SlitArray(dimension, spacing, width)
        check_slit_overlap(slits.spacing, slits.width)

    with pytest.raises(InvalidSpec) as refused:
        guard(0.3 * spacing)
    stated = re.fullmatch(r"adjacent basis overlap .*; use a slit width of at most"
                          r" ([0-9.]+) slit spacings", str(refused.value))
    widest = float(stated.group(1))
    assert widest == 0.1647
    guard(widest * spacing)
    with pytest.raises(InvalidSpec):
        guard(1.01 * widest * spacing)


def test_encode_basis_state_single_comb():
    geom = QuditGeometry(3.0, 0.05, 3, 0.0)
    field = basis_comb(geom, 0)
    assert abs((np.abs(field) ** 2).sum() - 1.0) < 1e-12
    grid = sample(field, geom.period, 96, 4)
    intensity = np.abs(grid.values) ** 2
    xs = grid.x()
    folded = np.mod(xs, 3.0)
    outside = intensity[(folded > 0.5) & (folded < 2.5)].sum()
    assert outside / intensity.sum() < 1e-6


@pytest.mark.parametrize("dimension", [2, 3, 5, 7])
def test_decode_encode_roundtrip(dimension):
    period = float(dimension)
    geom = QuditGeometry(period, 0.05, dimension, 0.0)
    spp = 64 * dimension  # resolves every retained mode
    for d in range(dimension):
        grid = sample(basis_comb(geom, d), period, spp, 16)
        probs, _ = decode(grid, geom)
        assert probs[d] > 1.0 - 1e-4
        assert abs(probs.sum() - 1.0) < 1e-12


def test_decode_encode_roundtrip_literal_five_percent_of_period():
    # slit width 0.05 * period stays decodable for small dimensions
    for dimension in (2, 3):
        period = float(dimension)
        geom = QuditGeometry(period, 0.05 * period, dimension, 0.0)
        grid = sample(basis_comb(geom, 1), period, 96, 16)
        probs, _ = decode(grid, geom)
        assert probs[1] > 1.0 - 1e-4


def test_decode_uniform_intensity():
    n, dx = 1024, 3.0 / 256
    field = SampledField(-n * dx / 2, dx, unit_power(np.ones(n, dtype=complex), dx))
    geom = QuditGeometry(3.0, 0.05, 3, 0.0)
    np.testing.assert_allclose(decode(field, geom)[0], np.full(3, 1 / 3), atol=1e-12)


def test_decode_gate_path_matches_matrix_route(rng):
    dimension = 3
    period = 3.0
    geom = QuditGeometry(period, 0.05, dimension, 0.0)
    v = rng.normal(size=dimension) + 1j * rng.normal(size=dimension)
    v /= np.linalg.norm(v)
    field = mode_propagate(encode(v, geom), gate_distance_fraction(dimension))
    probs, _ = decode(sample(field, period, 96, 32), geom)
    expected = np.abs(talbot_gate(dimension) @ v) ** 2
    assert np.abs(probs - expected).max() < 1e-3


def test_decode_requires_integer_periods():
    geom = QuditGeometry(3.0, 0.05, 3, 0.0)
    grid = sample(basis_comb(geom, 0), geom.period, 96, 16)
    clipped = SampledField(grid.x0, grid.dx, grid.values[:-7])
    with pytest.raises(BinMisalignment):
        decode(clipped, geom)


def test_decode_rejects_unresolvable_bins():
    geom = QuditGeometry(3.0, 0.004, 64, 0.0)  # bins below two sample pitches
    n, dx = 64, 3.0 / 64
    field = SampledField(-1.5, dx, unit_power(np.ones(n, dtype=complex), dx))
    with pytest.raises(BinMisalignment):
        decode(field, geom)


def loop_bin_weights(x, dx, origin, bin_width, dimension):
    """Per-sample oracle of ``bin_weights``: walk each cut cell bin by bin."""
    w = np.zeros((x.size, dimension))
    lo = (x - origin - dx / 2.0 + bin_width / 2.0) / bin_width
    hi = lo + dx / bin_width
    b0 = np.floor(lo).astype(int)
    b1 = np.floor(hi).astype(int)
    whole = b0 == b1
    w[np.nonzero(whole)[0], b0[whole] % dimension] = 1.0
    for i in np.nonzero(~whole)[0]:
        pos, b = lo[i], b0[i]
        span = hi[i] - lo[i]
        while b < b1[i]:
            w[i, b % dimension] += (b + 1 - pos) / span
            pos = b + 1.0
            b += 1
        w[i, b1[i] % dimension] += (hi[i] - pos) / span
    return w


def test_bin_weights_equal_the_per_sample_loop(rng):
    for trial in range(600):
        dimension = int(rng.integers(1, 9))
        bin_width = float(rng.uniform(0.01, 2.0))
        # every third grid has cells of exactly half a bin, the widest allowed
        dx = bin_width / 2.0 if trial % 3 == 0 else bin_width / float(rng.uniform(2.0, 40.0))
        n = int(rng.integers(2, 400))
        x = float(rng.uniform(-5.0, 5.0)) + dx * np.arange(n)
        origin = float(rng.uniform(-3.0, 3.0))
        fast = bin_weights(x, dx, origin, bin_width, dimension)
        assert fast.tobytes() == loop_bin_weights(x, dx, origin, bin_width, dimension).tobytes()


def test_decode_with_capture_reports_window_power():
    geom = QuditGeometry(3.0, 0.05, 3, 0.0)
    grid = sample(basis_comb(geom, 2), geom.period, 96, 16)
    probs, captured = decode(grid, geom)
    assert abs(captured - 1.0) < 1e-9
    assert abs(probs.sum() - 1.0) < 1e-12


def test_encode_uniform_gives_three_equal_interleaved_combs():
    geom = QuditGeometry(3.0, 0.05, 3, 0.0)
    grid = sample(encode(np.full(3, 1.0 / math.sqrt(3), dtype=complex), geom), geom.period,
                  96, 8)
    np.testing.assert_allclose(decode(grid, geom)[0], 1.0 / 3.0, atol=1e-9)
    # the intensity repeats every third of the period
    intensity = np.abs(grid.values) ** 2
    per_subcell = 96 // 3
    folded = intensity.reshape(-1, per_subcell)
    assert np.abs(folded - folded[0]).max() < 1e-9 * intensity.max()
