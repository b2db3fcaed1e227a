"""Serialization formats: CSV, PGM, JSON and determinism."""

import json

import numpy as np
import pytest

from talbotlab import (SampledField, bell_analytic, initial_biphoton_field,
                       maximally_entangled, BiphotonGaussian)
from talbotlab.io import (bell_result_to_json, write_biphoton_csv, write_matrix_csv,
                          write_pgm, write_sampled_csv, write_scan_csv)
from talbotlab.bell import ScanRow


def oracle_matrix_csv(matrix) -> bytes:
    """The plain writer: every entry through repr, one row per line."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n"
                   for row in np.asarray(matrix, dtype=float)).encode()


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


def test_matrix_csv_special_values_bytes(tmp_path):
    nan_neg = np.copysign(np.nan, -1.0)
    path = tmp_path / "special.csv"
    write_matrix_csv(np.array([[-0.0, 0.0, np.nan, nan_neg],
                               [np.inf, -np.inf, 5e-324, -5e-324],
                               [0.1, 0.1, -0.0, 0.0]]), path)
    assert path.read_bytes() == (b"-0.0,0.0,nan,nan\n"
                                 b"inf,-inf,5e-324,-5e-324\n"
                                 b"0.1,0.1,-0.0,0.0\n")


def _repeated(rows, cols=7, seed=0):
    """Values drawn from a small pool, so each one recurs within and across blocks."""
    pool = np.array([0.0, -0.0, 1.0, 0.1, 1 / 3, np.nan, np.inf, -2.5e-300, 5e-324])
    return pool[np.random.default_rng(seed).integers(0, pool.size, (rows, cols))]


@pytest.mark.parametrize("matrix", [
    np.random.default_rng(1).standard_normal((40, 33)),
    _repeated(300),
    *[_repeated(rows, seed=rows) for rows in (1, 255, 256, 257, 513)],
    np.asfortranarray(_repeated(300, 9)),
    np.random.default_rng(2).random((33, 40)).T,
    np.arange(-60, 60).reshape(10, 12),
    np.zeros((3, 0)),
], ids=["random", "repeated", "rows1", "rows255", "rows256", "rows257", "rows513",
        "fortran", "transposed", "integer", "no-columns"])
def test_matrix_csv_equals_per_value_oracle(tmp_path, matrix):
    path = tmp_path / "m.csv"
    write_matrix_csv(matrix, path)
    assert path.read_bytes() == oracle_matrix_csv(matrix)


def test_biphoton_csv_with_sidecar(tmp_path):
    model = BiphotonGaussian(2.0, 0.7)
    x = np.linspace(-4, 4, 33)
    field = initial_biphoton_field(model, x, x)
    path = tmp_path / "pair.csv"
    density = write_biphoton_csv(field, path)
    assert np.array_equal(density, np.abs(field.values) ** 2)
    assert path.read_bytes() == oracle_matrix_csv(density)
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


def test_pgm_payload_equals_out_of_place_scaling(tmp_path):
    top = 3.0
    halves = top * (np.arange(255) + 0.5) / 255.0
    halves = halves[halves / top * 255.0 % 1.0 == 0.5]   # exactly k + 0.5 after * 255
    assert halves.size >= 20
    values = np.concatenate([halves, [0.0, -0.0, -1.0, -top, top, top / 2, 1e-300]])
    m = np.resize(values, (7, values.size))
    path = tmp_path / "halves.pgm"
    write_pgm(m, path)
    expected = np.round(np.clip(m / top, 0, 1) * 255).astype(np.uint8)
    assert path.read_bytes().rsplit(b"\n255\n", 1)[1] == expected.tobytes()


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
