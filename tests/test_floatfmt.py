"""The vectorised float formatter against its oracle, ``repr``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import talbotlab
from talbotlab import _floatfmt


def csv_text(matrix) -> str:
    """``_floatfmt.csv_text``, whose ASCII bytes are decoded here alone, so
    that every oracle below is plain ``repr`` text."""
    text = _floatfmt.csv_text(matrix)
    assert isinstance(text, bytes)
    return text.decode("ascii")


def reprs(values) -> list:
    """The text of each value, as ``csv_text`` of a one-column matrix gives it."""
    return csv_text(np.asarray(values, dtype=float).reshape(-1, 1)).splitlines()


def assert_matches_repr(values):
    values = np.asarray(values, dtype=float).ravel()
    got = reprs(values)
    expected = [repr(v) for v in values.tolist()]
    assert len(got) == len(expected)
    bad = [(e, g) for e, g in zip(expected, got) if e != g]
    assert not bad, f"{len(bad)} of {values.size} differ from repr, first {bad[:5]}"


def with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def from_bits(patterns):
    return np.asarray(patterns, dtype=np.uint64).view(np.float64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_any_bit_pattern(patterns):
    assert_matches_repr(from_bits(patterns))


def test_seeded_sweep_of_bit_patterns():
    # more values than one chunk of the formatter, so chunks are crossed too
    patterns = np.random.default_rng(13).integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    assert_matches_repr(from_bits(patterns))


def test_every_power_of_two_and_its_neighbours():
    assert_matches_repr(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_every_power_of_ten_and_its_neighbours():
    assert_matches_repr(with_neighbours([float(f"1e{e}") for e in range(-323, 309)]))


def test_small_subnormals():
    assert_matches_repr(np.arange(3000) * 5e-324)


def test_integers():
    assert_matches_repr(np.arange(1, 10_001))
    assert_matches_repr(float(2 ** 53) + np.arange(-2000, 2001))


@pytest.mark.parametrize("value, text", [
    (1e16, "1e+16"),
    (9999999999999998.0, "9999999999999998.0"),
    (1e-4, "0.0001"),
    (1e-5, "1e-05"),
    (123456789012345.6, "123456789012345.6"),
    (0.00012345, "0.00012345"),
    (1e100, "1e+100"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
    (-2.2250738585072014e-308, "-2.2250738585072014e-308"),
])
def test_where_the_layout_switches(value, text):
    assert reprs([value, -value]) == [text, repr(-value)]
    assert text == repr(value)


def test_special_values():
    specials = from_bits([0, 2 ** 63, 0x7FF0000000000000, 0xFFF0000000000000,
                          0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                          0x7FFFFFFFFFFFFFFF, 0xFFF0000000000001])
    assert reprs(specials) == ["0.0", "-0.0", "inf", "-inf"] + ["nan"] * 5


@pytest.mark.parametrize("value, text", [
    (2.0 ** -25, "2.9802322387695312e-08"),            # an exact tie between two 17-digit strings
    (1.8014398509481988e+16, "1.8014398509481988e+16"),  # odd: the interval's ends are out
    (8e-323, "8e-323"),                                  # one digit shorter, for a 2-digit s
    (1125899906842624.25, "1125899906842624.2"),         # a tie, to the even digit
])
def test_rounding_edge_cases(value, text):
    assert repr(value) == text
    assert reprs([value]) == [text]


def test_output_is_flat_and_row_major():
    m = np.arange(12.0).reshape(3, 4) / 7
    for view in (m, np.asfortranarray(m), m[:, ::2], m.T, m[::-2, ::-1]):
        assert csv_text(view) == "".join(",".join(map(repr, row)) + "\n"
                                         for row in view.tolist())
    assert csv_text(np.zeros((2, 0))) == "\n\n"
    assert csv_text(np.float32([[0.1, 1 / 3]])) == ",".join(
        [repr(float(np.float32(0.1))), repr(float(np.float32(1 / 3)))]) + "\n"


def pool_draws(rng, shape):
    """Bit patterns drawn from a small pool, so that each recurs within and
    across rows: both zeros, several NaN payloads and both infinities among them."""
    pool = np.array([0, 2 ** 63, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0x7FF4000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                     0x3FB999999999999A, 0xBFF0000000000000, 1], dtype=np.uint64)
    return pool[rng.integers(0, pool.size, shape)]


@pytest.mark.parametrize("shape", [(1, 1), (4, 1), (1, 6), (9, 3), (3001, 7), (0, 3), (3, 0)])
def test_csv_text_joins_each_row_like_repr(shape):
    # (3001, 7) crosses chunks of the formatter inside a row; random bit
    # patterns almost never repeat, the pool's put each text in many places
    size = shape[0] * shape[1]
    rng = np.random.default_rng(size)
    for bits in (rng.integers(0, 2 ** 64, shape, dtype=np.uint64), pool_draws(rng, shape)):
        values = from_bits(bits)
        expected = "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())
        assert csv_text(values) == expected
        assert csv_text(np.asfortranarray(values)) == expected


def test_powers_of_ten_table_is_built_on_first_csv_write(tmp_path):
    # importing the commands and a field-route bell run, which writes no CSV,
    # load neither the formatter nor its table; the first CSV write builds it
    script = (
        "import contextlib, io, json, sys\n"
        "import talbotlab.commands, talbotlab.cli, talbotlab.io\n"
        "loaded = lambda: 'talbotlab._floatfmt' in sys.modules\n"
        "seen = [loaded()]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    seen.append(talbotlab.cli.main(json.loads(sys.argv[1])))\n"
        "seen.append(loaded())\n"
        "from talbotlab import _floatfmt\n"
        "built = lambda: _floatfmt._pow10_table.cache_info().currsize\n"
        "seen.append(built())\n"
        "talbotlab.io.write_matrix_csv([[0.5]], 'm.csv')\n"
        "seen.append(built())\n"
        "print(json.dumps(seen))\n"
    )
    argv = ["bell", "--set", "route=field", "--set", "dimension=2", "--out-dir", str(tmp_path)]
    src = str(Path(talbotlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, 0, False, 0, 1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bell.json", "m.csv"]
    assert (tmp_path / "m.csv").read_text() == "0.5\n"
