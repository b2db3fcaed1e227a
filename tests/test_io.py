"""Serialization formats: CSV, PGM, JSON round trips and determinism."""

import json

import numpy as np

from talbotlab import (QuditState, SampledField, bell_analytic,
                       initial_biphoton_field, maximally_entangled,
                       measurement_unitary, BiphotonGaussian)
from talbotlab.io import (bell_result_to_json, state_from_json, state_to_json,
                          unitary_from_json, unitary_to_json,
                          write_biphoton_csv, write_matrix_csv, write_pgm,
                          write_sampled_csv, write_scan_csv)
from talbotlab.bell import ScanRow


def test_sampled_csv_format(tmp_path):
    field = SampledField(-1.0, 0.5, np.array([1 + 2j, 3 - 4j, 0.5, 0.5]))
    path = tmp_path / "field.csv"
    write_sampled_csv(field, path, config={"case": "demo"})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "x,re,im"
    x, re, im = (float(v) for v in lines[2].split(","))
    assert (x, re, im) == (-1.0, 1.0, 2.0)


def test_matrix_csv_bytes(tmp_path):
    path = tmp_path / "matrix.csv"
    write_matrix_csv(np.array([[0.0, 0.5], [1.0, -2.25e-17]]), path,
                     config={"n": 2, "case": "demo"})
    assert path.read_bytes() == (b'# config: {"case":"demo","n":2}\n'
                                 b"0.0,0.5\n"
                                 b"1.0,-2.25e-17\n")


def test_biphoton_csv_with_sidecar(tmp_path):
    model = BiphotonGaussian(2.0, 0.7)
    x = np.linspace(-4, 4, 33)
    field = initial_biphoton_field(model, x, x)
    path = tmp_path / "pair.csv"
    write_biphoton_csv(field, path)
    meta = json.loads((tmp_path / "pair.csv.json").read_text())
    assert meta["n1"] == 33 and meta["n2"] == 33
    rows = [r for r in path.read_text().splitlines() if not r.startswith("#")]
    assert len(rows) == 33
    assert len(rows[0].split(",")) == 33


def test_pgm_header_and_payload(tmp_path):
    mat = np.array([[0.0, 0.5], [1.0, 2.0]])
    path = tmp_path / "map.pgm"
    write_pgm(mat, path)
    raw = path.read_bytes()
    header, payload = raw.rsplit(b"\n255\n", 1)
    assert header.startswith(b"P5\n# full scale = 2.0")
    assert payload == bytes([0, 64, 128, 255])


def test_unitary_json_round_trip():
    u = measurement_unitary(4, 0.25, "B")
    text = unitary_to_json(u)
    payload = json.loads(text)
    assert payload["D"] == 4
    again = unitary_from_json(text)
    assert np.abs(again.matrix - u.matrix).max() < 1e-15


def test_state_json_round_trip():
    state = QuditState(np.array([0.6, 0.0, 0.8j]))
    again = state_from_json(state_to_json(state))
    assert np.abs(again.amplitudes - state.amplitudes).max() < 1e-15


def test_bell_result_json_contains_tables_and_j():
    result = bell_analytic(maximally_entangled(3))
    payload = json.loads(bell_result_to_json(result))
    assert payload["D"] == 3
    assert abs(payload["I"] - result.value) < 1e-15
    assert len(payload["J"]) == 1
    assert set(payload["tables"]) == {"P11", "P12", "P21", "P22"}
    assert abs(sum(sum(r) for r in payload["tables"]["P11"]) - 1.0) < 1e-9
    assert payload["settings"] == {"alpha1": 0.0, "alpha2": 0.5, "beta1": 0.25, "beta2": -0.25}
    assert payload["convention"] == "correlated"


def test_scan_csv_header_and_determinism(tmp_path):
    rows = [ScanRow(2, 9.0, 0.0, 1.0, "analytic", 2.8284271247461903),
            ScanRow(3, 9.0, 0.5, 0.99, "analytic", 2.85)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_scan_csv(rows, a, config={"route": "analytic"})
    write_scan_csv(rows, b, config={"route": "analytic"})
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[1] == "D,kappa_plus,kappa_minus,R,route,I_D"
    assert lines[2].split(",")[0] == "2"


def test_pgm_embeds_config_when_given(tmp_path):
    path = tmp_path / "cfg.pgm"
    write_pgm(np.ones((2, 2)), path, config={"periods": 4})
    head = path.read_bytes().split(b"\n255\n")[0]
    assert b'# config: {"periods":4}' in head
