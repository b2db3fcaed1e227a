"""Deterministic file emission: CSV tables, PGM heatmaps, JSON records.

Every writer produces byte-identical output for identical inputs.  Each
CSV file and PGM heatmap carries a ``# config:`` comment line embedding the
resolved configuration of its run; PGM heatmaps are binary 8-bit with a
further comment line stating the intensity that maps to full scale.
"""

from __future__ import annotations

import errno
import json
from io import UnsupportedOperation
from pathlib import Path

import numpy as np

from .bell import SETTING_OFFSETS, SETTING_PAIRS, BellResult
from .errors import InvalidSpec
from .fields import SampledField, _abs2

__all__ = [
    "write_sampled_csv",
    "write_matrix_csv",
    "write_biphoton_csv",
    "write_density_csv",
    "write_pgm",
    "bell_result_to_json",
    "write_scan_csv",
]


def _config_header(config: dict) -> str:
    return "# config: " + json.dumps(config, sort_keys=True, separators=(",", ":")) + "\n"


def _write_csv(path, config: dict, header: str, lines) -> None:
    """Config comment, column header line, then ``lines``, ASCII bytes each."""
    with open(path, "wb") as fh:
        fh.write((_config_header(config) + header).encode("ascii"))
        fh.writelines(lines)


# rows of write_sampled_csv formatted at a time
_SAMPLED_ROWS = 2 ** 14


def write_sampled_csv(field: SampledField, path, config: dict) -> None:
    """Sampled field as ``x,re,im`` rows."""
    from ._floatfmt import csv_text
    columns = (field.x(), field.values.real, field.values.imag)
    _write_csv(path, config, "x,re,im\n", (
        block for a in range(0, field.n, _SAMPLED_ROWS)
        for block in csv_text(np.stack([c[a:a + _SAMPLED_ROWS] for c in columns], axis=1),
                              range(3))))


# values read at a time by the search for the distinct rows' distinct columns
_SEARCH_VALUES = 2 ** 18


def write_matrix_csv(matrix, path, config: dict) -> None:
    """Real matrix as row-major CSV, one matrix row per line.

    The bytes equal those of ``repr(float(v))`` on every entry.  Rows and
    values are told apart by their float64 bit patterns, so ``-0.0``,
    ``0.0`` and every NaN payload stay apart.  Each distinct row is formatted
    into a line once; a repeat reads that line back from the file being
    written, which must therefore be seekable.
    """
    matrix = np.ascontiguousarray(matrix, dtype=float)
    ids, first = _distinct_rows(matrix.view(np.uint64))
    lines = _distinct_lines(matrix, first)
    try:
        fh = open(path, "w+b")
    except UnsupportedOperation as exc:  # a pipe, say; the error names no file
        raise OSError(errno.ESPIPE, str(exc), str(path)) from None
    with fh:
        end = fh.write(_config_header(config).encode("ascii"))
        spans = []                 # distinct row -> (offset, length) of its line
        for k in ids.tolist():
            if k < len(spans):
                start, size = spans[k]
                fh.seek(start)
                line = fh.read(size)
                fh.seek(end)
            else:
                line = next(lines)
                spans.append((end, len(line)))
            end += fh.write(line)


def _row_key(row: np.ndarray) -> int:
    """Hash of a row's bytes; rows with equal keys are still compared bit for bit."""
    return hash(row.tobytes())


def _distinct_rows(bits: np.ndarray) -> tuple:
    """``(ids, first)``: each row's distinct-row number (numbered by first
    appearance), and the first row of each distinct row."""
    ids = np.empty(bits.shape[0], dtype=np.intp)
    first, chains = [], {}
    for i, row in enumerate(bits):
        chain = chains.setdefault(_row_key(row), [])
        for k in chain:
            if np.array_equal(bits[first[k]], row):
                break
        else:
            k = len(first)
            chain.append(k)
            first.append(i)
        ids[i] = k
    return ids, first


def _row_blocks(bits: np.ndarray, rows):
    """``(a, bits[rows[a:b]])`` for blocks of about ``_SEARCH_VALUES`` values."""
    step = max(1, _SEARCH_VALUES // max(1, bits.shape[1]))
    for a in range(0, len(rows), step):
        yield a, bits[rows[a:a + step]]


def _column_keys(bits: np.ndarray, rows) -> np.ndarray:
    """A fingerprint of each column of ``bits[rows]``: a sum over its rows of
    each entry's bits, mixed with its row's place.  Equal columns have equal
    keys; columns with equal keys are still compared bit for bit."""
    keys = np.zeros(bits.shape[1], dtype=np.uint64)
    for a, h in _row_blocks(bits, rows):
        h += (np.arange(a + 1, a + 1 + len(h), dtype=np.uint64)
              * np.uint64(0x9E3779B97F4A7C15))[:, None]
        h ^= h >> np.uint64(31)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(29)
        keys += h.sum(axis=0, dtype=np.uint64)
    return keys


def _distinct_columns(bits: np.ndarray, rows) -> tuple:
    """``(ids, first)`` of ``_distinct_rows`` for the columns of
    ``bits[rows]``, found by ``_column_keys`` and checked bit for bit; on a
    collision of keys, by ``_distinct_rows`` of the transpose."""
    _, first, ids = np.unique(_column_keys(bits, rows), return_index=True,
                              return_inverse=True)
    rank = np.argsort(np.argsort(first))      # numbered by first appearance
    ids, first = rank[ids], np.sort(first)
    if any(not np.array_equal(block[:, first[ids]], block)
           for _, block in _row_blocks(bits, rows)):
        return _distinct_rows(np.ascontiguousarray(bits[rows].T))
    return ids, first


def _distinct_lines(matrix: np.ndarray, first):
    """The CSV lines of the rows ``first`` of ``matrix`` (the first row of
    each distinct row), in order, each a ``memoryview``.  ``csv_text``
    formats them from those rows' distinct columns alone."""
    # imported by the CSV writers alone, so that a command writing none,
    # such as ``bell``, does not load it
    from ._floatfmt import csv_text
    rows = np.array(first, dtype=np.intp)
    columns, first_columns = _distinct_columns(matrix.view(np.uint64), rows)
    for block in csv_text(matrix[np.ix_(rows, first_columns)], columns):
        lines, a = memoryview(block), 0
        while a < len(block):      # each line a view of its block, not a copy
            b = block.index(b"\n", a) + 1
            yield lines[a:b]
            a = b


def write_biphoton_csv(values: np.ndarray, path, grid: tuple, config: dict) -> np.ndarray:
    """The density ``|values|^2`` of a square two-photon grid, written by
    :func:`write_density_csv` and returned."""
    density = _abs2(values)
    write_density_csv(density, path, grid, config)
    return density


def write_density_csv(density: np.ndarray, path, grid: tuple, config: dict) -> None:
    """Two-photon density on a square grid as row-major CSV plus JSON grid sidecar;
    ``grid`` is ``(x0, dx)``, the first coordinate and pitch of both axes."""
    path = Path(path)
    (x0, dx), (n1, n2) = grid, density.shape
    meta = {"x0_1": x0, "dx1": dx, "n1": n1, "x0_2": x0, "dx2": dx, "n2": n2,
            "content": "row-major |amplitude|^2; rows follow axis 1", "config": config}
    write_matrix_csv(density, path, config)
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


# values of write_pgm scaled at a time: no scaled copy of a whole density
_PGM_VALUES = 2 ** 18


def write_pgm(matrix: np.ndarray, path, config: dict) -> None:
    """8-bit binary PGM with linear intensity mapping.

    Comment lines record the intensity mapped to 255 (so the scaling is
    recoverable) and the resolved configuration.  Not-a-number
    entries are rejected.  Pixels are scaled and written in row blocks.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise InvalidSpec("PGM needs a 2-D array")
    if not np.isfinite(m).all():
        raise InvalidSpec("PGM input must be finite")
    top = float(m.max())
    if top <= 0:
        top = 1.0
    header = (f"P5\n# full scale = {top!r}\n{_config_header(config)}"
              f"{m.shape[1]} {m.shape[0]}\n255\n")
    rows = max(1, _PGM_VALUES // max(1, m.shape[1]))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for a in range(0, m.shape[0], rows):
            scaled = m[a:a + rows] / top
            np.clip(scaled, 0.0, 1.0, out=scaled)
            scaled *= 255.0
            np.round(scaled, out=scaled)
            fh.write(scaled.astype(np.uint8).tobytes())


def bell_result_to_json(result: BellResult) -> str:
    payload = {
        "D": result.dimension,
        "I": result.value,
        "J": list(result.j_values),
        "convention": "correlated",
        "settings": {
            **{f"alpha{a}": alpha for (a, _), (alpha, _) in SETTING_OFFSETS.items()},
            **{f"beta{b}": beta for (_, b), (_, beta) in SETTING_OFFSETS.items()},
        },
        "tables": {
            f"P{a}{b}": table.tolist() for (a, b), table in zip(SETTING_PAIRS, result.tables)
        },
        "provenance": result.provenance,
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def write_scan_csv(rows, path, config: dict) -> None:
    """Scan rows as CSV with the fixed header D,kappa_plus,kappa_minus,R,route,I_D."""
    _write_csv(path, config, "D,kappa_plus,kappa_minus,R,route,I_D\n", (
        f"{r.dimension},{float(r.kappa_plus)!r},{float(r.kappa_minus)!r},"
        f"{float(r.correlation)!r},{r.route},{float(r.value)!r}\n".encode("ascii")
        for r in rows))
