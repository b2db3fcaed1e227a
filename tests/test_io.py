"""Serialization formats: CSV, PGM, JSON and determinism."""

import functools
import json

import numpy as np
import pytest

from talbotlab import _floatfmt, io
from talbotlab.bell import ScanRow, bell_analytic
from talbotlab.fields import SampledField
from talbotlab.io import (bell_result_to_json, write_biphoton_csv, write_matrix_csv, write_pgm,
                          write_sampled_csv, write_scan_csv)
from talbotlab.spdc import BiphotonGaussian, initial_biphoton_field, maximally_entangled

# the configuration every writer records, and the comment line it writes for it
CONFIG = {"case": "demo"}
HEADER = b'# config: {"case":"demo"}\n'


def oracle_matrix_csv(matrix) -> bytes:
    """The plain writer: every entry through repr, one row per line."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n"
                   for row in np.asarray(matrix, dtype=float)).encode()


def oracle_lines(matrix, first, block_values: int = 2 ** 18) -> list:
    """The lines of the rows ``first`` by the slow path that
    ``io._distinct_lines`` replaced: ``csv_text`` of blocks of whole rows,
    every column formatted, each block split back into lines."""
    cols = matrix.shape[1]
    block_rows = max(1, block_values // max(1, cols))
    lines = []
    for a in range(0, len(first), block_rows):
        text = b"".join(_floatfmt.csv_text(matrix[first[a:a + block_rows]], np.arange(cols)))
        lines += text.splitlines(keepends=True)
    return lines


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
    write_sampled_csv(field, path, CONFIG)
    assert path.read_text() == HEADER.decode() + "x,re,im\n" + "".join(
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
                               [0.1, 0.1, -0.0, 0.0]]), path, CONFIG)
    assert path.read_bytes() == (HEADER + b"-0.0,0.0,nan,nan\n"
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
    write_matrix_csv(matrix, path, CONFIG)
    assert path.read_bytes() == HEADER + oracle_matrix_csv(matrix)


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
    "no-columns": np.zeros((3, 0)),
}


@pytest.mark.parametrize("case", sorted(STRUCTURED))
def test_matrix_csv_structured_equals_oracle(tmp_path, case):
    path = tmp_path / "m.csv"
    write_matrix_csv(STRUCTURED[case], path, CONFIG)
    assert path.read_bytes() == HEADER + oracle_matrix_csv(STRUCTURED[case])


def test_matrix_csv_keeps_near_twin_rows_apart(tmp_path):
    path = tmp_path / "twins.csv"
    m = _near_twins()
    write_matrix_csv(m, path, CONFIG)
    lines = path.read_bytes().splitlines()
    assert lines[0] == HEADER.rstrip()
    assert lines[1] == b"0.0,1.0,0.5" and lines[2] == b"-0.0,1.0,0.5"
    bits = np.ascontiguousarray(m).view(np.uint64)
    assert len(io._distinct_rows(bits)[1]) == 6


@pytest.mark.parametrize("case", sorted(STRUCTURED))
def test_matrix_csv_survives_row_key_collisions(tmp_path, monkeypatch, case):
    monkeypatch.setattr(io, "_row_key", lambda row: 0)
    path = tmp_path / "m.csv"
    write_matrix_csv(STRUCTURED[case], path, CONFIG)
    assert path.read_bytes() == HEADER + oracle_matrix_csv(STRUCTURED[case])


@pytest.mark.parametrize("case", sorted(STRUCTURED))
def test_matrix_csv_survives_column_key_collisions(tmp_path, monkeypatch, case):
    # every column fingerprint equal: the bit-for-bit check finds the
    # collision, and the columns are told apart by the exact path
    monkeypatch.setattr(io, "_column_keys",
                        lambda bits, rows: np.zeros(bits.shape[1], dtype=np.uint64))
    path = tmp_path / "m.csv"
    write_matrix_csv(STRUCTURED[case], path, CONFIG)
    assert path.read_bytes() == HEADER + oracle_matrix_csv(STRUCTURED[case])


@pytest.mark.parametrize("gather_rows", [1, 3])
@pytest.mark.parametrize("share", [0.3, 1.0])
@pytest.mark.parametrize("case", sorted(STRUCTURED))
def test_distinct_lines_equal_the_per_value_repr(monkeypatch, case, share, gather_rows):
    # the lines of a contiguous run of distinct rows, formatted from its
    # distinct columns, against the slow path, for both runs of a split
    m = np.ascontiguousarray(STRUCTURED[case], dtype=float)
    monkeypatch.setattr(_floatfmt, "_CHUNK", gather_rows * m.shape[1])
    first = io._distinct_rows(m.view(np.uint64))[1]
    split = len(first) - int(len(first) * share)
    for start, stop in ((0, split), (split, len(first))):
        lines = list(io._distinct_lines(m, first[start:stop]))
        assert all(isinstance(line, memoryview) for line in lines)
        assert [bytes(line) for line in lines] == oracle_lines(m, first[start:stop])


def test_distinct_columns_keep_near_twin_columns_apart(monkeypatch):
    # columns that differ only by the sign of a zero, the sign of a NaN or its
    # payload: told apart by their fingerprints, with no exact fallback, and
    # numbered as the row search numbers the rows of the transpose
    m = np.hstack([_near_twins().T, _near_twins().T[:, ::-1]])
    bits = m.view(np.uint64)
    first = io._distinct_rows(bits)[1]
    for start, stop in ((0, len(first)), (1, 3)):
        picked = np.array(first[start:stop])
        oracle_ids, oracle_first = io._distinct_rows(np.ascontiguousarray(bits[picked].T))
        with monkeypatch.context() as patched:
            patched.setattr(io, "_distinct_rows", lambda bits: pytest.fail("fell back"))
            ids, first_columns = io._distinct_columns(bits, picked)
        assert ids.tolist() == oracle_ids.tolist() and list(first_columns) == oracle_first
        assert ([bytes(line) for line in io._distinct_lines(m, first[start:stop])]
                == oracle_lines(m, first[start:stop]))
    assert len(io._distinct_columns(bits, np.array(first))[1]) == 6


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


@pytest.mark.parametrize("gather_values, buffer_bytes", [
    (1, 2 ** 26),      # lines gathered one row at a time; a buffer larger than the file
    (7, 2 ** 26),      # blocks of a few values: several blocks per matrix
    (2 ** 19, 0),      # a raw file: every repeat is read back from the disk
    (2 ** 19, 100),    # a buffer shorter than one line
    (7, 0),            # repeats outlive their block
])
@pytest.mark.parametrize("case", sorted(STRUCTURED))
def test_matrix_csv_equals_oracle_past_each_cap(tmp_path, monkeypatch, case, gather_values,
                                                buffer_bytes):
    monkeypatch.setattr(_floatfmt, "_CHUNK", gather_values)
    _buffered(monkeypatch, buffer_bytes)
    path = tmp_path / "m.csv"
    write_matrix_csv(STRUCTURED[case], path, CONFIG)
    assert path.read_bytes() == HEADER + oracle_matrix_csv(STRUCTURED[case])


def test_matrix_csv_caps_are_crossed(tmp_path, monkeypatch):
    # _distinct_lines calls the formatter once, with the distinct rows'
    # distinct columns alone; it formats each of their distinct values once
    # and gathers the lines in several blocks; repeated rows are read back
    monkeypatch.setattr(_floatfmt, "_CHUNK", 7)
    calls = _counting_format(monkeypatch)
    cores, blocks, csv_text = [], [], _floatfmt.csv_text

    def counted_text(matrix, columns):
        cores.append((np.array(matrix), columns))
        for block in csv_text(matrix, columns):
            blocks.append(block)
            yield block

    monkeypatch.setattr(_floatfmt, "csv_text", counted_text)
    m = _mirrored()
    m = np.hstack([m, m[:, ::-1], m[:, :5]])
    write_matrix_csv(m, tmp_path / "m.csv", CONFIG)
    assert (tmp_path / "m.csv").read_bytes() == HEADER + oracle_matrix_csv(m)
    distinct = m[io._distinct_rows(m.view(np.uint64))[1]]
    [(core, columns)] = cores
    core_bits = core.view(np.uint64)
    assert core.shape == (len(distinct), 12) and len(distinct) < len(m)
    assert np.unique(core_bits, axis=1).shape[1] == 12      # each column once
    assert np.array_equal(core_bits[:, columns], distinct.view(np.uint64))
    values = sum(calls, [])
    assert len(values) == len(set(values)) == np.unique(m.view(np.uint64)).size
    assert len(blocks) == len(distinct) > 1                 # one row per gather


@pytest.mark.parametrize("m", [
    np.vstack([_mirrored(), _repeated(30, 12), _mirrored()[::-1]]),
    np.random.default_rng(6).standard_normal((30, 20)),
    np.tile(np.random.default_rng(8).standard_normal((4, 20)), (3, 1)),
], ids=["repeats", "all-distinct", "distinct-rows-repeated"])
def test_matrix_csv_formats_each_distinct_value_once(tmp_path, monkeypatch, m):
    calls = _counting_format(monkeypatch)
    write_matrix_csv(m, tmp_path / "m.csv", CONFIG)
    values = sum(calls, [])
    assert len(values) == len(set(values)) == np.unique(m.view(np.uint64)).size
    assert (tmp_path / "m.csv").read_bytes() == HEADER + oracle_matrix_csv(m)


def test_biphoton_csv_with_sidecar(tmp_path):
    model = BiphotonGaussian(2.0, 0.7)
    x, dx, field = initial_biphoton_field(model, 1.0, 4, 8)
    path = tmp_path / "pair.csv"
    density = write_biphoton_csv(field, path, (float(x[0]), dx), CONFIG)
    assert np.array_equal(density, np.abs(field) ** 2)
    assert path.read_bytes() == HEADER + oracle_matrix_csv(density)
    meta = json.loads((tmp_path / "pair.csv.json").read_text())
    assert meta["n1"] == 32 and meta["n2"] == 32
    assert (meta["x0_1"], meta["dx1"]) == (meta["x0_2"], meta["dx2"]) == (-4.0, 0.25)
    assert meta["config"] == CONFIG
    rows = [r for r in path.read_text().splitlines() if not r.startswith("#")]
    assert len(rows) == 32
    assert len(rows[0].split(",")) == 32


def test_pgm_header_and_payload(tmp_path):
    mat = np.array([[0.0, 0.5], [1.0, 2.0]])
    path = tmp_path / "map.pgm"
    write_pgm(mat, path, CONFIG)
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
    write_pgm(m, path, CONFIG)
    expected = np.round(np.clip(m / top, 0, 1) * 255).astype(np.uint8)
    assert path.read_bytes().rsplit(b"\n255\n", 1)[1] == expected.tobytes()


@pytest.mark.parametrize("block_values", [1, 20, 2 ** 18])
def test_pgm_payload_is_the_same_in_row_blocks(tmp_path, monkeypatch, block_values):
    monkeypatch.setattr(io, "_PGM_VALUES", block_values)
    m = np.random.default_rng(7).random((13, 9)) * 3
    path = tmp_path / "blocks.pgm"
    write_pgm(m, path, CONFIG)
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


def test_pgm_embeds_config(tmp_path):
    path = tmp_path / "cfg.pgm"
    write_pgm(np.ones((2, 2)), path, config={"periods": 4})
    head = path.read_bytes().split(b"\n255\n")[0]
    assert b'# config: {"periods":4}' in head
