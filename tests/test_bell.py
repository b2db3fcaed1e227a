"""CGLMP evaluation: analytic route, field route, scans, invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import slit_basis
from talbotlab import bell, qudits
from talbotlab.bell import (SETTING_OFFSETS, SETTING_PAIRS, bell_analytic, bell_field, bell_point,
                            bell_scan, cglmp_value, joint_prob_analytic, joint_prob_field)
from talbotlab.constraints import gate_distances
from talbotlab.errors import AliasingRisk, NonNormalized, TalbotLabError
from talbotlab.fields import biphoton_propagate
from talbotlab.qudits import (bin_outcome_map, bin_weights, gate_distance_fraction,
                              measurement_phases, measurement_unitary)
from talbotlab.spdc import (BiphotonGaussian, SlitArray, comb_basis, entangled_coeffs,
                            maximally_entangled, schmidt_modes, two_photon_field)

# frozen oracle values -------------------------------------------------------
# I_2 is 2 sqrt(2); I_3 was pre-registered from the independent geometric-sum
# oracle below and cross-checked against the matrix route.
I2_EXPECTED = 2.8284271247461903
I3_EXPECTED = 2.8729340511723374
QUANTUM_CEILING = 2.9681  # asymptotic maximum for maximally entangled pairs


def closed_form_max_ent(dimension: int) -> float:
    """Independent oracle: geometric-sum evaluation for the maximally
    entangled state with the canonical settings.

    Each correlator reduces to ``q(x) = 1 / (2 D^2 sin^2(pi x / D))`` at
    ``x = k + 1/4`` or ``k + 3/4``; the weighted combination telescopes to
    ``sum_k w_k * 4 [q(k + 1/4) - q(k + 3/4)]``.
    """
    total = 0.0
    for k in range(dimension // 2):
        q14 = 1.0 / (2 * dimension**2 * math.sin(math.pi * (k + 0.25) / dimension) ** 2)
        q34 = 1.0 / (2 * dimension**2 * math.sin(math.pi * (k + 0.75) / dimension) ** 2)
        total += (1.0 - 2.0 * k / (dimension - 1)) * 4.0 * (q14 - q34)
    return total


def analytic_tables(coeffs):
    return joint_prob_analytic(coeffs, (0.0, 0.5), (0.25, -0.25))


def one_table(coeffs, alpha, beta):
    return joint_prob_analytic(coeffs, (alpha,), (beta,))[0]


def _corr_a_equals_b_plus(table, k):
    d = table.shape[0]
    j = np.arange(d)
    return float(table[(j + k) % d, j].sum())


def cglmp_oracle(tables):
    """Per-k reference of cglmp_value: (j_values, value), one correlator at a time."""
    p11, p12, p21, p22 = (np.asarray(t, dtype=float) for t in tables)
    d = p11.shape[0]
    j_values = []
    value = 0.0
    for k in range(d // 2):
        j_k = (
            _corr_a_equals_b_plus(p11, k)
            - _corr_a_equals_b_plus(p11, -k - 1)
            + _corr_a_equals_b_plus(p12.T, k)  # P(B = A + k)
            - _corr_a_equals_b_plus(p12.T, -k - 1)
            + _corr_a_equals_b_plus(p21.T, k + 1)
            - _corr_a_equals_b_plus(p21.T, -k)
            + _corr_a_equals_b_plus(p22, k)
            - _corr_a_equals_b_plus(p22, -k - 1)
        )
        j_values.append(j_k)
        value += (1.0 - 2.0 * k / (d - 1)) * j_k
    return tuple(j_values), value


FIG_PAIRS = [(9.0, 0.0)] + [(9.0, 9.0 * math.sqrt((1.0 - r) / (1.0 + r)))
                            for r in (0.99998, 0.9998, 0.998)]


# ---------------------------------------------------------------------------
# analytic route


def test_qubit_tables_match_hand_computed_chsh_values():
    # derived by hand from the geometric sum: diagonal (2 + sqrt 2)/8,
    # off-diagonal (2 - sqrt 2)/8 for the (1, 1) setting pair
    table = one_table(maximally_entangled(2), *SETTING_OFFSETS[1, 1])
    hi = (2.0 + math.sqrt(2.0)) / 8.0
    lo = (2.0 - math.sqrt(2.0)) / 8.0
    np.testing.assert_allclose(table, [[hi, lo], [lo, hi]], atol=1e-12)


def test_product_state_table_factorizes():
    v = np.array([0.6, 0.8j, 0.0])
    coeffs_matrix = np.outer(v, v.conj())
    table = one_table(coeffs_matrix, 0.0, 0.25)
    pa = table.sum(axis=1)
    pb = table.sum(axis=0)
    np.testing.assert_allclose(table, np.outer(pa, pb), atol=1e-12)


def test_qubit_value_is_two_root_two():
    result = bell_analytic(maximally_entangled(2))
    assert abs(result.value - I2_EXPECTED) < 1e-9


def test_qutrit_value_matches_frozen_oracle():
    result = bell_analytic(maximally_entangled(3))
    assert abs(result.value - I3_EXPECTED) < 1e-9
    assert abs(closed_form_max_ent(3) - I3_EXPECTED) < 1e-9


@pytest.mark.parametrize("dimension", range(2, 9))
def test_matrix_route_agrees_with_geometric_sum_oracle(dimension):
    result = bell_analytic(maximally_entangled(dimension))
    assert abs(result.value - closed_form_max_ent(dimension)) < 1e-9


def test_value_increases_with_dimension_below_ceiling():
    values = [bell_analytic(maximally_entangled(d)).value for d in range(2, 9)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < QUANTUM_CEILING


def test_uniform_tables_give_zero():
    uniform = [np.full((4, 4), 1.0 / 16.0)] * 4
    result = cglmp_value(uniform, {})
    assert abs(result.value) < 1e-12
    assert all(abs(j) < 1e-12 for j in result.j_values)


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
def test_cglmp_value_equals_per_k_oracle_bit_for_bit(layout):
    rng = np.random.default_rng(11)
    for d in range(2, 71):
        tables = []
        for _ in range(4):
            t = rng.random((d, d)) ** rng.integers(1, 6)
            t /= t.sum()
            if layout == "transposed":
                t = t.T
            elif layout == "strided":
                big = np.zeros((2 * d, 3 * d))
                big[::2, ::3] = t
                t = big[::2, ::3]
            tables.append(t)
        result = cglmp_value(tables, {})
        j_values, value = cglmp_oracle(tables)
        assert result.j_values == j_values, d
        assert result.value == value, d
        assert all(type(j) is float for j in result.j_values)


def test_non_normalized_table_rejected():
    bad = [np.full((3, 3), 0.1)] * 4
    with pytest.raises(NonNormalized):
        cglmp_value(bad, {})


@pytest.mark.parametrize("dimension", [2, 3])
def test_deterministic_local_strategies_respect_the_classical_bound(dimension):
    outcomes = range(dimension)
    for a1, a2, b1, b2 in itertools.product(outcomes, repeat=4):
        tables = []
        for a_choice, b_choice in ((a1, b1), (a1, b2), (a2, b1), (a2, b2)):
            t = np.zeros((dimension, dimension))
            t[a_choice, b_choice] = 1.0
            tables.append(t)
        assert cglmp_value(tables, {}).value <= 2.0 + 1e-12


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_no_signaling_and_normalization_for_random_states(seed, dim):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    coeffs = m / np.linalg.norm(m)
    tables = analytic_tables(coeffs)
    for t in tables:
        assert abs(t.sum() - 1.0) < 1e-9
        assert t.min() > -1e-12
    # Alice's marginal cannot depend on Bob's setting and vice versa
    assert np.abs(tables[0].sum(axis=1) - tables[1].sum(axis=1)).max() < 1e-9
    assert np.abs(tables[2].sum(axis=1) - tables[3].sum(axis=1)).max() < 1e-9
    assert np.abs(tables[0].sum(axis=0) - tables[2].sum(axis=0)).max() < 1e-9
    assert np.abs(tables[1].sum(axis=0) - tables[3].sum(axis=0)).max() < 1e-9


def test_gate_route_probabilities_match_measurement_unitaries(rng):
    # replacing the measurement unitaries by mask + gate propagation in the
    # matrix picture changes no joint probability beyond rounding
    from reference import phase_gate, talbot_gate
    for dim in (2, 3, 4, 5):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        coeffs = m / np.linalg.norm(m)
        for alpha, beta in SETTING_OFFSETS.values():
            direct = one_table(coeffs, alpha, beta)
            ga = talbot_gate(dim) @ phase_gate(measurement_phases(dim, alpha))
            gb = talbot_gate(dim) @ phase_gate(measurement_phases(dim, beta))
            bins = np.abs(ga @ coeffs @ gb.T) ** 2
            relabeled = np.zeros_like(bins)
            relabeled[np.ix_(bin_outcome_map(dim, "A"), bin_outcome_map(dim, "B"))] = bins
            assert np.abs(relabeled - direct).max() < 1e-10


# ---------------------------------------------------------------------------
# field route


@pytest.mark.parametrize("dimension", [2, 3])
def test_field_route_small_grid_agrees_with_analytic(dimension):
    coeffs = maximally_entangled(dimension)
    slits = SlitArray(dimension, 1.0, 0.05)
    field_result = bell_field(coeffs, slits, samples_per_cell=64, cells=24, spike_width=None)
    analytic_result = bell_analytic(coeffs)
    assert abs(field_result.value - analytic_result.value) < 0.02
    for tf, ta in zip(field_result.tables, analytic_result.tables):
        assert np.abs(tf - ta).max() < 1e-2


def test_field_route_product_state_factorizes():
    coeffs = np.diag([1.0, 0.0]).astype(complex)
    slits = SlitArray(2, 1.0, 0.05)
    x, dx, basis = comb_basis(slits, samples_per_cell=64, cells=24, spike_width=None)
    tables, diagnostics = joint_prob_field(x, dx, schmidt_modes(x, dx, basis, coeffs), slits)
    assert len(tables) == len(diagnostics) == len(SETTING_PAIRS)
    for table, diag in zip(tables, diagnostics):
        pa, pb = table.sum(axis=1), table.sum(axis=0)
        np.testing.assert_allclose(table, np.outer(pa, pb), atol=1e-9)
        assert diag["captured"] > 0.99


def test_field_route_measures_each_side_setting_once(monkeypatch):
    # four settings in all (two per side), one bin tiling, for the four tables
    calls = {"_propagate_axis": 0, "bin_weights": 0}

    def counted(name):
        original = getattr(bell, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(bell, name, counted(name))
    coeffs = entangled_coeffs(3, 1.0, BiphotonGaussian(9.0, 1.0))
    slits = SlitArray(3, 1.0, 0.05)
    result = bell_field(coeffs, slits, samples_per_cell=64, cells=24, spike_width=None)
    assert calls == {"_propagate_axis": 4, "bin_weights": 1}
    assert len(result.tables) == len(result.provenance["diagnostics"]) == 4


def test_both_gate_distance_sites_agree_with_the_fraction_of_the_talbot_length(monkeypatch):
    # the field route propagates by the reach lambda z = f period^2 of the fraction f of
    # the Talbot length, bit for bit; constraints.gate_distances reports 2 z_T / (c D)
    class Stop(Exception):
        pass

    def stop(values, dx, reach, axis, weights):
        reaches.append(reach)
        raise Stop

    monkeypatch.setattr(bell, "_propagate_axis", stop)
    seen = []
    for d in range(2, 65):
        for spacing in (0.5, 1.0, 2.0, 3.0):
            slits, reaches = SlitArray(d, spacing, 0.05 * spacing), []
            modes = (np.ones((2, d)), np.ones(d), np.ones((2, d)))
            with pytest.raises(Stop):
                joint_prob_field(0.01 * np.arange(2.0), 0.01, modes, slits)
            (reach,) = reaches
            assert reach == gate_distance_fraction(d) * slits.period ** 2
        dists = gate_distances(10e-6, d, 800e-9)
        seen.append(dists["gate_distance"] / dists["talbot_length"] / gate_distance_fraction(d))
    assert len(seen) == 63
    assert max(abs(r - 1.0) for r in seen) <= 1e-15


def test_field_route_with_grating_envelope_stays_close():
    # the physically apodized comb state: agreement within the documented
    # per-entry example tolerance
    coeffs = maximally_entangled(2)
    slits = SlitArray(2, 1.0, 0.1)
    field_result = bell_field(coeffs, slits, samples_per_cell=32, cells=96, spike_width=0.03)
    analytic_result = bell_analytic(coeffs)
    for tf, ta in zip(field_result.tables, analytic_result.tables):
        assert np.abs(tf - ta).max() < 1e-2


@pytest.mark.parametrize("envelope", [False, True])
def test_field_provenance_names_the_spike_width_the_envelope_used(envelope):
    # bell_point's grating spikes are 0.05 slit spacings wide; they shape the
    # comb only through the envelope, and the provenance names them only then
    result = bell_point(3, 9.0, 1.0, 2.0, "field", slit_width=0.05, samples_per_cell=64,
                        cells=24, envelope=envelope)
    assert result.provenance.get("spike_width") == (0.05 * 2.0 if envelope else None)


# ---------------------------------------------------------------------------
# dense oracle of the field route: the pair state on the full two-photon grid


def dense_joint_table(pair, gamma_a, gamma_b, geom):
    """Mask both axes of the n x n grid ``pair = (x, dx, psi)``, propagate it,
    bin, relabel."""
    x, dx, psi = pair
    d = geom.dimension
    reach = gate_distance_fraction(d) * geom.period ** 2
    step = geom.period / d
    cell = np.floor((x - geom.origin + step / 2.0) / step).astype(int) % d
    mask_a = np.exp(1j * measurement_phases(d, gamma_a))[cell]
    mask_b = np.exp(1j * measurement_phases(d, gamma_b))[cell]
    masked = psi * mask_a[:, None] * mask_b[None, :]
    work = biphoton_propagate(masked, dx, reach)
    w = bin_weights(x, dx, geom.origin, step, d)
    intensity = np.abs(work) ** 2 * dx * dx
    table = np.zeros((d, d))
    table[np.ix_(bin_outcome_map(d, "A"), bin_outcome_map(d, "B"))] = w.T @ intensity @ w
    captured = table.sum()
    straddling = w.max(axis=1) < 1.0 - 1e-12
    return table / captured, {
        "captured": captured,
        "crosstalk_axis1": intensity.sum(axis=1)[straddling].sum() / captured,
        "crosstalk_axis2": intensity.sum(axis=0)[straddling].sum() / captured,
    }


ORACLE_CASES = {
    "D2-ideal": (maximally_entangled(2), SlitArray(2, 1.0, 0.05), 64, 24, None),
    "D3-ideal": (maximally_entangled(3), SlitArray(3, 1.0, 0.05), 64, 24, None),
    "D5-kappa9-1": (entangled_coeffs(5, 1.0, BiphotonGaussian(9.0, 1.0)),
                    SlitArray(5, 1.0, 0.05), 64, 24, None),
    "D2-envelope": (maximally_entangled(2), SlitArray(2, 1.0, 0.1), 32, 96, 0.03),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_factored_field_route_equals_the_dense_grid(case):
    coeffs, slits, spc, cells, spike_width = ORACLE_CASES[case]
    result = bell_field(coeffs, slits, samples_per_cell=spc, cells=cells,
                        spike_width=spike_width)
    psi = two_photon_field(coeffs, slits, samples_per_cell=spc,
                           cells=result.provenance["cells"], spike_width=spike_width)
    tgeom = slit_basis(slits)
    for pair, table, diag in zip(SETTING_PAIRS, result.tables,
                                 result.provenance["diagnostics"]):
        dense, dense_diag = dense_joint_table(psi, *SETTING_OFFSETS[pair], tgeom)
        assert np.abs(table - dense).max() < 1e-12
        for key, value in dense_diag.items():
            assert abs(diag[key] - value) < 1e-12, key


@pytest.mark.parametrize("cells, trips", [(66, True), (48, False)])
def test_factored_and_dense_guards_trip_on_the_same_grids(cells, trips):
    coeffs = maximally_entangled(3)
    slits = SlitArray(3, 1.0, 0.05)
    tgeom = slit_basis(slits)
    psi = two_photon_field(coeffs, slits, samples_per_cell=64, cells=cells, spike_width=0.05)
    x, dx, basis = comb_basis(slits, 64, cells, spike_width=0.05)
    routes = (lambda: dense_joint_table(psi, *SETTING_OFFSETS[1, 1], tgeom),
              lambda: joint_prob_field(x, dx, schmidt_modes(x, dx, basis, coeffs), slits))
    for route in routes:
        if trips:
            with pytest.raises(AliasingRisk):
                route()
        else:
            route()


# ---------------------------------------------------------------------------
# scans


def test_scan_rows_ordered_and_monotone_in_correlation():
    dims = [2, 3, 4]
    pairs = [(9.0, 0.0), (9.0, 0.1), (9.0, 0.3)]
    rows = bell_scan(dims, pairs, 1.0, "analytic")
    assert [(r.dimension, r.kappa_plus, r.kappa_minus) for r in rows] == [
        (d, kp, km) for kp, km in pairs for d in dims
    ]
    by_pair = {km: [r.value for r in rows if r.kappa_minus == km] for _, km in pairs}
    # smaller kappa_minus means larger correlation, hence larger violation
    for tighter, looser in ((0.0, 0.1), (0.1, 0.3)):
        assert all(a >= b - 1e-9 for a, b in zip(by_pair[tighter], by_pair[looser]))


def test_scan_maximally_entangled_row_approaches_ceiling():
    rows = bell_scan(range(2, 9), [(9.0, 0.0)], 1.0, "analytic")
    values = [r.value for r in rows]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < QUANTUM_CEILING
    assert all(r.correlation == 1.0 for r in rows)


def test_finite_correlation_has_interior_maximum():
    km = 9.0 * math.sqrt((1 - 0.998) / (1 + 0.998))
    rows = bell_scan(range(2, 13), [(9.0, km)], 1.0, "analytic")
    values = [r.value for r in rows]
    peak = int(np.argmax(values))
    assert 0 < peak < len(values) - 1


def test_field_route_matches_analytic_over_the_criterion_6_scan():
    dims = range(2, 13)
    pairs = [(9.0, 0.0)] + [(9.0, 9.0 * math.sqrt((1 - r) / (1 + r)))
                            for r in (0.998, 0.9998, 0.99998)]
    field_rows = bell_scan(dims, pairs, 1.0, "field")
    analytic_rows = bell_scan(dims, pairs, 1.0, "analytic")
    assert len(field_rows) == len(analytic_rows) == 44
    for f, a in zip(field_rows, analytic_rows):
        assert (f.dimension, f.kappa_minus) == (a.dimension, a.kappa_minus)
        assert abs(f.value - a.value) < 1e-9


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dimension=st.integers(2, 9), kappa_plus=st.sampled_from([1.0, 3.0, 9.0, 20.0]),
       kappa_minus=st.sampled_from([0.0, 0.3, 1.0, 3.0]), spacing=st.sampled_from([0.5, 1.0, 2.0]),
       slit_width=st.sampled_from([0.02, 0.05, 0.1, 0.2]),
       samples_per_cell=st.sampled_from([16, 24, 32, 64, 100]),
       cells=st.sampled_from([8, 13, 24, 48, 64]))
def test_fuzzed_field_route_agrees_with_analytic_or_refuses(dimension, kappa_plus, kappa_minus,
                                                            spacing, slit_width,
                                                            samples_per_cell, cells):
    # a field-route point either raises one of the package's own errors or
    # matches the matrix route to 1e-9 on its commensurate, envelope-free window
    point = (dimension, kappa_plus, kappa_minus, spacing)
    grid = dict(slit_width=slit_width, samples_per_cell=samples_per_cell, cells=cells,
                envelope=False)
    analytic = bell_point(*point, route="analytic", **grid).value
    try:
        field = bell_point(*point, route="field", **grid).value
    except TalbotLabError:
        return
    assert abs(field - analytic) < 1e-9


def test_qutrit_table_matches_explicit_kernel_summation():
    # independent oracle: nested-loop summation over the measurement kernels
    d = 3
    coeffs = maximally_entangled(d)
    alpha, beta = SETTING_OFFSETS[1, 1]
    oracle = np.zeros((d, d))
    omega = np.exp(2j * np.pi / d)
    for i in range(d):
        for j in range(d):
            amp = 0.0
            for d1 in range(d):
                for d2 in range(d):
                    bra_a = omega ** (-d1 * (i + alpha)) / math.sqrt(d)
                    bra_b = omega ** (d2 * (j - beta)) / math.sqrt(d)
                    amp += bra_a * bra_b * coeffs[d1, d2]
            oracle[i, j] = abs(amp) ** 2
    table = one_table(coeffs, alpha, beta)
    np.testing.assert_allclose(table, oracle, atol=1e-12)


@pytest.mark.parametrize("as_generator", [False, True])
def test_scan_equals_each_point_bit_for_bit_in_kappa_major_order(as_generator):
    dims = range(2, 65)
    rows = bell_scan((d for d in dims) if as_generator else dims, FIG_PAIRS, 1.0, "analytic")
    expected = []
    for kp, km in FIG_PAIRS:
        for d in dims:
            point = bell_point(d, kp, km, 1.0, "analytic", **bell._SCAN_FIELD_POINT)
            expected.append((d, kp, km, point.value))
    assert [(r.dimension, r.kappa_plus, r.kappa_minus, r.value) for r in rows] == expected


@pytest.mark.parametrize("dimension", range(2, 65))
def test_fft_tables_match_the_measurement_unitaries(dimension):
    # oracle: |U_A C U_B^T|^2 with the dense measurement unitaries, on a random
    # complex unit-norm C, at the canonical offsets and at four others, in the
    # order of the tables: alpha varying slowest
    rng = np.random.default_rng(dimension)
    m = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(size=(dimension, dimension))
    coeffs = m / np.linalg.norm(m)
    alphas = (0.0, 0.5, 0.3, -1.7)
    betas = (0.25, -0.25, 0.0, 2.6)
    tables = joint_prob_analytic(coeffs, alphas, betas)
    for (alpha, beta), table in zip(itertools.product(alphas, betas), tables):
        u_a = measurement_unitary(dimension, alpha, "A")
        u_b = measurement_unitary(dimension, beta, "B")
        oracle = np.abs(u_a @ coeffs @ u_b.T) ** 2
        assert np.abs(table - oracle).max() < 1e-12, (alpha, beta)


def test_no_command_path_builds_a_measurement_unitary(monkeypatch):
    def refuse(*args):
        raise AssertionError("a D x D measurement unitary was built")

    monkeypatch.setattr(qudits, "measurement_unitary", refuse)
    monkeypatch.setattr(qudits, "measurement_basis", refuse)
    result = bell_point(3, 9.0, 1.0, 1.0, "analytic", **bell._SCAN_FIELD_POINT)
    assert result.value > 0
    rows = bell_scan(range(2, 65), FIG_PAIRS, 1.0, "analytic")
    assert len(rows) == 63 * len(FIG_PAIRS)
