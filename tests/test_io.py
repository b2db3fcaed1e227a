"""Serialization formats: CSV, PGM, JSON and determinism."""

import functools
import itertools
import json

import numpy as np
import pytest

from talbotlab import (SampledField, bell_analytic, initial_biphoton_field,
                       maximally_entangled, BiphotonGaussian)
from talbotlab import _floatfmt, io
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


@pytest.mark.parametrize("rows_per_block", [3, 2 ** 14])
def test_sampled_csv_equals_per_value_oracle(tmp_path, monkeypatch, rows_per_block):
    monkeypatch.setattr(io, "_SAMPLED_ROWS", rows_per_block)
    rng = np.random.default_rng(9)
    values = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    values[:4] = [complex(0.0, -0.0), complex(-0.0, np.nan), complex(np.inf, -np.inf), 1e-300]
    field = SampledField(-1.25, 0.1, values)
    path = tmp_path / "field.csv"
    write_sampled_csv(field, path)
    assert path.read_text() == "x,re,im\n" + "".join(
        f"{x!r},{v.real!r},{v.imag!r}\n" for x, v in zip(field.x().tolist(), values.tolist()))


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


def _mirrored(rows=40, cols=12, seed=3):
    """Rows drawn from six distinct ones and mirrored top to bottom, like the
    periodic, symmetric comb of entangle's densities."""
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((6, cols))[rng.integers(0, 6, rows // 2)]
    return np.vstack([half, half[::-1]])


def _near_twins():
    """Rows that differ only by the sign of a zero or by a NaN payload."""
    nan_payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
    nan_neg = np.copysign(np.nan, -1.0)
    rows = [[0.0, 1.0, 0.5], [-0.0, 1.0, 0.5], [np.nan, 2.0, 0.5],
            [nan_payload, 2.0, 0.5], [nan_neg, 2.0, 0.5], [0.5, 1.0, 0.0]]
    return np.array(rows + rows[::-1] + rows)


def _repeats_at_once(cols):
    """Rows that each recur on the next line, so that a repeat's line may
    still be in the write buffer, then in reverse order."""
    m = np.repeat(np.random.default_rng(cols).standard_normal((4, cols)), 2, axis=0)
    return np.vstack([m, m[::-1]])


STRUCTURED = {
    "exact-repeats": np.tile(np.random.default_rng(4).random((3, 9)), (5, 1)),
    **{f"repeats-at-once-{cols}": _repeats_at_once(cols) for cols in (1, 2, 3)},
    "mirrored": _mirrored(),
    "reversed-columns": np.vstack([_mirrored()[:20], _mirrored()[:20, ::-1]]),
    "near-twins": _near_twins(),
    "random": np.random.default_rng(5).standard_normal((17, 11)),
    "pool": _repeated(60, 5),
    "strided": _mirrored(60, 30)[::3, 1::2],
    "reversed-rows": _mirrored()[::-1],
    "integer": np.tile(np.arange(-6, 6).reshape(3, 4), (4, 1)),
}


@pytest.mark.parametrize("case", sorted(STRUCTURED))
def test_matrix_csv_structured_equals_oracle(tmp_path, case):
    path = tmp_path / "m.csv"
    write_matrix_csv(STRUCTURED[case], path)
    assert path.read_bytes() == oracle_matrix_csv(STRUCTURED[case])


def test_matrix_csv_keeps_near_twin_rows_apart(tmp_path):
    path = tmp_path / "twins.csv"
    m = _near_twins()
    write_matrix_csv(m, path)
    lines = path.read_bytes().splitlines()
    assert lines[0] == b"0.0,1.0,0.5" and lines[1] == b"-0.0,1.0,0.5"
    bits = np.ascontiguousarray(m).view(np.uint64)
    assert len(io._distinct_rows(bits)[1]) == 6


@pytest.mark.parametrize("case", sorted(STRUCTURED))
def test_matrix_csv_survives_row_key_collisions(tmp_path, monkeypatch, case):
    monkeypatch.setattr(io, "_row_key", lambda row: 0)
    path = tmp_path / "m.csv"
    write_matrix_csv(STRUCTURED[case], path)
    assert path.read_bytes() == oracle_matrix_csv(STRUCTURED[case])


def _counting_format(monkeypatch) -> list:
    """Bit patterns of the values handed to each call of the formatter's ``_texts``."""
    calls, texts = [], _floatfmt._texts

    def counted(bits, text):
        calls.append(bits.tolist())
        texts(bits, text)

    monkeypatch.setattr(_floatfmt, "_texts", counted)
    return calls


def _buffered(monkeypatch, buffer_bytes: int) -> None:
    """Open the writers' files with a write buffer of ``buffer_bytes``; 0 is
    a raw, unbuffered file."""
    monkeypatch.setattr(io, "open", functools.partial(open, buffering=buffer_bytes),
                        raising=False)


@pytest.mark.parametrize("table_values, buffer_bytes", [
    (1, 2 ** 26),      # every block holds one row; a buffer larger than the file
    (7, 2 ** 26),      # blocks of a few values: several blocks per matrix
    (2 ** 19, 0),      # a raw file: every repeat is read back from the disk
    (2 ** 19, 100),    # a buffer shorter than one line
    (7, 0),            # repeats outlive their block
])
@pytest.mark.parametrize("case", sorted(STRUCTURED))
def test_matrix_csv_equals_oracle_past_each_cap(tmp_path, monkeypatch, case, table_values,
                                                buffer_bytes):
    monkeypatch.setattr(io, "_TABLE_VALUES", table_values)
    _buffered(monkeypatch, buffer_bytes)
    path = tmp_path / "m.csv"
    write_matrix_csv(STRUCTURED[case], path)
    assert path.read_bytes() == oracle_matrix_csv(STRUCTURED[case])


def test_matrix_csv_caps_are_crossed(tmp_path, monkeypatch):
    # each distinct row reaches the formatter once; repeats are read back
    monkeypatch.setattr(io, "_TABLE_VALUES", 7)
    blocks, csv_text = [], _floatfmt.csv_text

    def counted_text(block):
        blocks.append(len(block))
        return csv_text(block)

    monkeypatch.setattr(_floatfmt, "csv_text", counted_text)
    m = _mirrored()
    write_matrix_csv(m, tmp_path / "m.csv")
    assert len(blocks) > 1                  # a new block past the value cap
    assert sum(blocks) == len(io.DistinctRows(m).first) < len(m)
    assert (tmp_path / "m.csv").read_bytes() == oracle_matrix_csv(m)


@pytest.mark.parametrize("share", [0.3, 1.0])
@pytest.mark.parametrize("case", sorted(STRUCTURED))
def test_matrix_csv_lines_split_at_any_distinct_row(tmp_path, monkeypatch, case, share):
    # the lines of the last distinct rows made apart, in blocks of their own,
    # as the writer child of ``entangle`` makes them
    monkeypatch.setattr(io, "_TABLE_VALUES", 7)
    rows = io.DistinctRows(STRUCTURED[case])
    count = len(rows.first)
    split = count - int(count * share)
    rows.lines = itertools.chain(rows.format(0, split), rows.format(split, count))
    path = tmp_path / "m.csv"
    write_matrix_csv(rows, path)
    assert path.read_bytes() == oracle_matrix_csv(STRUCTURED[case])


@pytest.mark.parametrize("table_values", [7, 2 ** 18])
@pytest.mark.parametrize("case", sorted(STRUCTURED))
def test_matrix_csv_takes_a_flat_unique_inverse(tmp_path, monkeypatch, case, table_values):
    # NumPy before 2.0 returns np.unique's inverse flat, not in its input's shape
    plain_unique = np.unique

    def flat_unique(*args, **kwargs):
        out = plain_unique(*args, **kwargs)
        if kwargs.get("return_inverse"):
            out = (out[0], out[1].ravel(), *out[2:])
        return out

    monkeypatch.setattr(np, "unique", flat_unique)
    monkeypatch.setattr(io, "_TABLE_VALUES", table_values)
    path = tmp_path / "m.csv"
    write_matrix_csv(STRUCTURED[case], path)
    assert path.read_bytes() == oracle_matrix_csv(STRUCTURED[case])


@pytest.mark.parametrize("m", [
    np.vstack([_mirrored(), _repeated(30, 12), _mirrored()[::-1]]),
    np.random.default_rng(6).standard_normal((30, 20)),
    np.tile(np.random.default_rng(8).standard_normal((4, 20)), (3, 1)),
], ids=["repeats", "all-distinct", "distinct-rows-repeated"])
def test_matrix_csv_formats_each_distinct_value_once(tmp_path, monkeypatch, m):
    calls = _counting_format(monkeypatch)
    write_matrix_csv(m, tmp_path / "m.csv")
    values = sum(calls, [])
    assert len(values) == len(set(values)) == np.unique(m.view(np.uint64)).size
    assert (tmp_path / "m.csv").read_bytes() == oracle_matrix_csv(m)


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


@pytest.mark.parametrize("block_values", [1, 20, 2 ** 18])
def test_pgm_payload_is_the_same_in_row_blocks(tmp_path, monkeypatch, block_values):
    monkeypatch.setattr(io, "_PGM_VALUES", block_values)
    m = np.random.default_rng(7).random((13, 9)) * 3
    path = tmp_path / "blocks.pgm"
    write_pgm(m, path)
    expected = np.round(np.clip(m / m.max(), 0, 1) * 255).astype(np.uint8)
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
