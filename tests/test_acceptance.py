"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from reference import (closed_form_phases, fidelity, fresnel_propagate, phase_gate,
                       restricted, talbot_gate, tapered_sample)
from talbotlab.bell import bell_analytic, bell_field, bell_scan
from talbotlab.constraints import max_dimension, mutual_information
from talbotlab.fields import gaussian_amplitude, mode_propagate, periodic_comb, sample
from talbotlab.qudits import gauss_coeffs, measurement_basis, measurement_phases
from talbotlab.spdc import (BiphotonGaussian, SlitArray, biphoton_amplitude,
                            entangled_coeffs, maximally_entangled)

GAMMAS = (0.0, 0.5, 0.25, -0.25)
# np.trapz before NumPy 2.0; pyproject.toml allows NumPy 1.24
trapezoid = getattr(np, "trapezoid", None) or np.trapz
I3_FROZEN = 2.8729340511723374  # pre-registered geometric-sum oracle value

# joint tables produced by any criterion, validated collectively by
# criterion 9: list of (label, four D x D tables)
_PRODUCED_TABLES = []


@contextmanager
def criterion(number: int, budget_s: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number} PASS ({elapsed:.1f}s / budget {budget_s:.0f}s): "
          f"{description}")
    assert elapsed < budget_s


def _record(label, result):
    _PRODUCED_TABLES.append((label, result.tables))


def test_criterion_1_gauss_sum_identities():
    with criterion(1, 1.0, "Gauss-sum norms, gate unitarity, quarter-revival values"):
        for dim in range(2, 9):
            c = 1 if dim % 2 else 2
            a = gauss_coeffs(c * dim)
            assert abs((np.abs(a) ** 2).sum() - 1.0) < 1e-12
            u = talbot_gate(dim)
            assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-12
        quarter = gauss_coeffs(4)
        expected = np.array([(1 - 1j) / 2, 0.0, (1 + 1j) / 2, 0.0])
        assert np.abs(quarter - expected).max() < 1e-12


def test_criterion_2_revival():
    with criterion(2, 10.0, "exact mode revival; windowed grid revival >= 0.999"):
        period = 1.0
        comb = periodic_comb(period, 0.05, [0.0], [1.0])
        revived = mode_propagate(comb, 2.0)
        mode_fidelity = abs((comb.conj() * revived).sum()) ** 2
        assert mode_fidelity == 1.0  # exact, including the phases

        # 128-period detection window, field built with finite illumination
        # (8-period raised-cosine ramps on a 160-period grid)
        grid = tapered_sample(comb, period, 64, 160, 8)
        out = fresnel_propagate(grid, 2.0 * period ** 2)
        tapered = fidelity(restricted(grid, -64.0, 64.0), restricted(out, -64.0, 64.0))
        assert tapered >= 0.999

        # plain 128-period window
        grid = sample(comb, period, 64, 128)
        out = fresnel_propagate(grid, 2.0 * period ** 2)
        assert fidelity(grid, out) >= 0.999


def test_criterion_3_measurement_mapping():
    with criterion(3, 5.0, "gate+mask maps every measurement vector to one bin"):
        printed_odd_failures = []
        for dim in range(2, 8):
            for gamma in GAMMAS:
                m = talbot_gate(dim) @ phase_gate(measurement_phases(dim, gamma))
                for side in ("A", "B"):
                    peaks = np.abs(m @ measurement_basis(dim, gamma, side)).max(axis=0)
                    assert np.abs(peaks - 1.0).max() < 1e-10
            if dim % 2:
                m_printed = talbot_gate(dim) @ phase_gate(closed_form_phases(dim, 0.0))
                peaks = np.abs(m_printed @ measurement_basis(dim, 0.0, "A")).max(axis=0)
                if not np.allclose(peaks, 1.0, atol=1e-6):
                    printed_odd_failures.append(dim)
        # the quadratic closed form fails for every odd dimension; the solved
        # phases above are the operational fallback
        assert printed_odd_failures == [3, 5, 7]
        print(f"\n  note: closed-form mask phases fail the mapping for odd "
              f"D={printed_odd_failures}; solved phases used instead")


def test_criterion_4_cglmp_calibration():
    with criterion(4, 10.0, "I_2 = 2.828427 +- 1e-6; I_D rising below 2.9681; "
                            "I_3 matches the frozen oracle"):
        values = []
        for dim in range(2, 9):
            result = bell_analytic(maximally_entangled(dim))
            _record(f"analytic max-ent D={dim}", result)
            values.append(result.value)
        assert abs(values[0] - 2.828427) < 1e-6
        assert abs(values[1] - I3_FROZEN) < 1e-6
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 2.9681


def test_criterion_5_route_equivalence():
    with criterion(5, 600.0, "field-simulated I agrees with analytic within 0.02 "
                             "for D in {2, 3}"):
        for dim in (2, 3):
            coeffs = maximally_entangled(dim)
            slits = SlitArray(dim, 1.0, 0.05)
            field_result = bell_field(coeffs, slits,
                                      samples_per_cell=64, cells=64, spike_width=None)
            analytic_result = bell_analytic(coeffs)
            _record(f"field max-ent D={dim}", field_result)
            assert abs(field_result.value - analytic_result.value) < 0.02
            if dim == 3:
                for tf, ta in zip(field_result.tables, analytic_result.tables):
                    assert np.abs(tf - ta).max() < 1e-2


def test_criterion_6_scan_trends():
    with criterion(6, 1800.0, "higher correlation never hurts; every finite "
                              "correlation has an optimal dimension"):
        dims = list(range(2, 13))
        correlations = (0.998, 0.9998, 0.99998)  # R increasing
        kappa_pairs = [(9.0, 9.0 * math.sqrt((1 - r) / (1 + r)))
                       for r in correlations]
        rows = bell_scan(dims, kappa_pairs, "analytic")
        curves = [
            [r.value for r in rows[i * len(dims):(i + 1) * len(dims)]]
            for i in range(len(kappa_pairs))
        ]
        # (a) pointwise non-increasing as R decreases
        for lower_r, higher_r in zip(curves, curves[1:]):
            assert all(hi >= lo - 1e-9 for hi, lo in zip(higher_r, lower_r))
        # (b) interior maximum over the scanned dimensions for each finite R
        for r_value, values in zip(correlations, curves):
            peak = int(np.argmax(values))
            assert 0 < peak < len(values) - 1, f"no interior maximum for R={r_value}"
        for row in rows:
            if row.dimension <= 4:
                result = bell_analytic(entangled_coeffs(
                    row.dimension, 1.0,
                    BiphotonGaussian(row.kappa_plus, row.kappa_minus)))
                _record(f"scan D={row.dimension} km={row.kappa_minus:.4f}", result)


def test_criterion_7_spdc_model():
    with criterion(7, 60.0, "correlation coefficients and slit-lattice "
                            "coefficients against the quadrature oracle"):
        r1 = BiphotonGaussian(9.0, 1.0).correlation
        r2 = BiphotonGaussian(9.0, 1.0 / 6.0).correlation
        assert abs(r1 - 80.0 / 82.0) < 1e-12
        assert abs(r2 - 2915.0 / 2917.0) < 1e-12
        # reference figure quotes truncate at three decimals
        assert math.floor(r1 * 1000) / 1000 == 0.975
        assert math.floor(r2 * 1000) / 1000 == 0.999

        dim, spacing = 3, 1.0
        model = BiphotonGaussian(9.0, 1.0 / 6.0)
        width = 0.05 * min(model.kappa_minus, spacing)
        slits = SlitArray(dim, spacing, width)
        positions = slits.positions()
        local = np.linspace(-6.0 * width, 6.0 * width, 161)
        oracle = np.zeros((dim, dim))
        for i1, p1 in enumerate(positions):
            for i2, p2 in enumerate(positions):
                x1 = (p1 + local)[:, None]
                x2 = (p2 + local)[None, :]
                mode = (gaussian_amplitude(x1 - p1, width)
                        * gaussian_amplitude(x2 - p2, width))
                state = (slits.transmission(x1[:, 0])[:, None]
                         * slits.transmission(x2[0, :])[None, :]
                         * biphoton_amplitude(model, x1, x2)).real
                oracle[i1, i2] = trapezoid(trapezoid(mode * state, axis=1), axis=0)
        oracle /= np.linalg.norm(oracle)
        predicted = entangled_coeffs(dim, spacing, model).real
        mask = oracle > 1e-3 * oracle.max()
        rel = np.abs(predicted[mask] - oracle[mask]) / oracle[mask]
        assert rel.max() < 0.02


def test_criterion_8_constraints():
    with criterion(8, 1.0, "pixel-limited dimension 19 and 4.25 bits"):
        assert max_dimension((1080, 1920), 100) == 19
        assert abs(mutual_information(19) - 4.25) < 0.01


def test_criterion_9_no_signaling_everywhere():
    with criterion(9, 30.0, "every produced joint table is normalized and "
                            "no-signaling at 1e-9"):
        assert _PRODUCED_TABLES, "earlier criteria must register their tables"
        for label, tables in _PRODUCED_TABLES:
            p11, p12, p21, p22 = tables
            for t in tables:
                assert abs(t.sum() - 1.0) < 1e-9, label
                assert t.min() > -1e-12, label
            assert np.abs(p11.sum(axis=1) - p12.sum(axis=1)).max() < 1e-9, label
            assert np.abs(p21.sum(axis=1) - p22.sum(axis=1)).max() < 1e-9, label
            assert np.abs(p11.sum(axis=0) - p21.sum(axis=0)).max() < 1e-9, label
            assert np.abs(p12.sum(axis=0) - p22.sum(axis=0)).max() < 1e-9, label
        print(f"\n  note: validated {len(_PRODUCED_TABLES)} table sets")
