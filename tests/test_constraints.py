"""Hardware feasibility calculators."""

import math

import pytest

from talbotlab.constraints import gate_distances, max_dimension, mutual_information, talbot_length
from talbotlab.errors import InvalidSpec


def test_talbot_length_example():
    # 10 um pixels, 19 levels, 800 nm light
    z_t = talbot_length(10e-6 * 19, 800e-9)
    assert abs(z_t - (10e-6 * 19) ** 2 / 800e-9) < 1e-15
    assert round(z_t * 1e3, 1) == 45.1  # millimetres


def test_talbot_length_quadratic_scaling():
    assert abs(talbot_length(10e-6 * 38, 800e-9) / talbot_length(10e-6 * 19, 800e-9)
               - 4.0) < 1e-12


def test_talbot_length_identity():
    pitch, dim, lam = 7e-6, 11, 650e-9
    assert abs(talbot_length(pitch * dim, lam) * lam - (pitch * dim) ** 2) < 1e-20


def test_max_dimension_reference_panel():
    assert max_dimension((1080, 1920), 100) == 19


def test_max_dimension_degenerate_and_linear():
    assert max_dimension((1, 100), 100) == 1
    assert max_dimension((1080, 3840), 100) == 2 * max_dimension((1080, 1920), 100)


def test_max_dimension_threshold_is_a_parameter():
    assert max_dimension((1080, 1920), illuminated_slits=50) == 38


@pytest.mark.parametrize("pixels, threshold", [((0, 1920), 100), ((1080, -1), 100),
                                               ((1080, 1920), 0)])
def test_max_dimension_needs_positive_counts(pixels, threshold):
    with pytest.raises(InvalidSpec):
        max_dimension(pixels, threshold)


def test_mutual_information_values():
    assert abs(mutual_information(19) - math.log2(19)) < 1e-12
    assert mutual_information(2) == 1.0
    assert mutual_information(1) == 0.0


def test_gate_distance_conventions_disagree_for_odd_dimensions():
    even = gate_distances(10e-6, 4, 800e-9)
    assert abs(even["gate_distance"] - even["gate_distance_alt"]) < 1e-18
    odd = gate_distances(10e-6, 5, 800e-9)
    assert abs(odd["gate_distance"] / odd["gate_distance_alt"] - 4.0) < 1e-12


def test_invalid_hardware_rejected():
    with pytest.raises(InvalidSpec):
        gate_distances(-1e-6, 3, 800e-9)
    with pytest.raises(InvalidSpec):
        mutual_information(0)


@pytest.mark.parametrize("period, wavelength", [(1e-100, 1e300), (1e300, 1e-300),
                                                (0.0, 1.0), (1.0, -1.0)])
def test_talbot_length_must_be_positive_and_finite(period, wavelength):
    # 1e-200 / 1e300 underflows to 0, which would make every distance z = 0
    with pytest.raises(InvalidSpec):
        talbot_length(period, wavelength)
