"""Deterministic file emission: CSV tables, PGM heatmaps, JSON records.

Every writer produces byte-identical output for identical inputs.  CSV
files may carry ``#``-prefixed comment lines embedding the resolved
configuration; PGM heatmaps are binary 8-bit with a comment line stating
the intensity that maps to full scale.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bell import SETTING_OFFSETS, SETTING_PAIRS, BellResult
from .errors import InvalidSpec
from .fields import BiphotonField, SampledField

__all__ = [
    "format_float",
    "config_header",
    "write_sampled_csv",
    "write_matrix_csv",
    "DistinctRows",
    "write_biphoton_csv",
    "write_density_csv",
    "write_pgm",
    "bell_result_to_json",
    "write_scan_csv",
]


def format_float(x: float) -> str:
    """Shortest round-trip decimal representation.  The CSV writers format
    arrays with ``_floatfmt``, which gives the same text."""
    return repr(float(x))


def config_header(config: dict | None) -> str:
    if not config:
        return ""
    return "# config: " + json.dumps(config, sort_keys=True, separators=(",", ":")) + "\n"


def _write_csv(path, config: dict | None, header: str, lines) -> None:
    """Config comment, column header line (or ""), then ``lines``, one at a time."""
    with open(path, "w") as fh:
        fh.write(config_header(config) + header)
        fh.writelines(lines)


# rows of write_sampled_csv formatted at a time
_SAMPLED_ROWS = 2 ** 14


def write_sampled_csv(field: SampledField, path, config: dict | None = None) -> None:
    """Sampled field as ``x,re,im`` rows."""
    from ._floatfmt import csv_text
    columns = (field.x(), field.values.real, field.values.imag)
    _write_csv(path, config, "x,re,im\n", (
        csv_text(np.stack([c[a:a + _SAMPLED_ROWS] for c in columns], axis=1))
        for a in range(0, field.n, _SAMPLED_ROWS)))


# bounds of write_matrix_csv's memory: the values of the distinct rows formatted
# in one block (85 rows of entangle's 3072-column carpet), and the bytes of line
# text kept for rows that recur further down (the 3072^2 carpet needs 51 MB)
_TABLE_VALUES = 2 ** 18
_LINE_CACHE_BYTES = 2 ** 26


def write_matrix_csv(matrix, path, config: dict | None = None) -> None:
    """Real matrix as row-major CSV, one matrix row per line.

    The bytes equal those of ``format_float`` on every entry.  Rows and
    values are told apart by their float64 bit patterns, so ``-0.0``,
    ``0.0`` and every NaN payload stay apart.  Each distinct row is formatted
    into a line once, and the line is kept while the row recurs, within
    ``_LINE_CACHE_BYTES`` of text; a repeat that was not kept is formatted
    again, as a row.  ``matrix`` may be a ``DistinctRows``, whose ``lines``
    may come in part from another process, as in ``entangle``.
    """
    rows = matrix if isinstance(matrix, DistinctRows) else DistinctRows(matrix)
    _write_csv(path, config, "", _matrix_lines(rows))


def _row_key(row: np.ndarray) -> int:
    """Hash of a row's bytes; rows with equal keys are still compared bit for bit."""
    return hash(row.tobytes())


def _distinct_rows(bits: np.ndarray) -> tuple:
    """``(ids, first, last)``: each row's distinct-row number (numbered by
    first appearance), and the first and last row of each distinct row."""
    ids = np.empty(bits.shape[0], dtype=np.intp)
    first, last, chains = [], [], {}
    for i, row in enumerate(bits):
        chain = chains.setdefault(_row_key(row), [])
        for k in chain:
            if np.array_equal(bits[first[k]], row):
                break
        else:
            k = len(first)
            chain.append(k)
            first.append(i)
            last.append(i)
        ids[i] = k
        last[k] = i
    return ids, first, last


class DistinctRows:
    """A real matrix and its distinct rows, numbered by first appearance
    (``ids``, ``first`` and ``last`` of ``_distinct_rows``).  ``lines`` yields
    the CSV line of each distinct row in that order; by default this process
    formats them all, with ``format``."""

    def __init__(self, matrix):
        self.matrix = np.ascontiguousarray(matrix, dtype=float)
        # read as a matrix's own: write_density_csv takes the shape, np.size the size
        self.shape, self.size = self.matrix.shape, self.matrix.size
        self.ids, self.first, self.last = _distinct_rows(self.matrix.view(np.uint64))
        self.lines = self.format(0, len(self.first))

    def format(self, start: int, stop: int):
        """The lines of distinct rows ``start`` to ``stop - 1``, in order,
        formatted in blocks of up to ``_TABLE_VALUES`` values by ``csv_text``,
        which formats each distinct value of a block once."""
        # imported by the CSV writers alone, so that a command writing none,
        # such as ``bell``, does not load it
        from ._floatfmt import csv_text
        block_rows = max(1, _TABLE_VALUES // max(1, self.shape[1]))
        for a in range(start, stop, block_rows):
            rows = self.matrix[self.first[a:min(a + block_rows, stop)]]
            yield from csv_text(rows).splitlines(keepends=True)


def _matrix_lines(rows: DistinctRows):
    from ._floatfmt import csv_text
    last = rows.last
    cache, cached = {}, 0          # distinct row -> its line, while it recurs
    new = 0                        # the next distinct row to appear
    for i, k in enumerate(rows.ids.tolist()):
        line = cache.get(k)
        if line is not None:
            if last[k] == i:
                del cache[k]
                cached -= len(line)
            yield line
            continue
        if k == new:
            line = next(rows.lines)
            new += 1
        else:                      # a repeat that was not kept
            line = csv_text(rows.matrix[i:i + 1])
        if last[k] > i and cached + len(line) <= _LINE_CACHE_BYTES:
            cache[k] = line
            cached += len(line)
        yield line


def write_biphoton_csv(field: BiphotonField, path, config: dict | None = None) -> np.ndarray:
    """Biphoton density |values|^2 as row-major CSV plus JSON grid sidecar.

    Returns the density it wrote.  The complex grid can be freed before the
    CSV is written: this function drops its reference to ``field`` once it
    has the density, so a caller that keeps none frees it.
    """
    density = np.abs(field.values)
    np.square(density, out=density)
    grid = (field.x0_1, field.dx1, field.x0_2, field.dx2)
    del field
    write_density_csv(density, path, grid, config=config)
    return density


def write_density_csv(density: np.ndarray, path, grid: tuple,
                      config: dict | None = None) -> None:
    """Two-photon density as row-major CSV plus JSON grid sidecar; ``grid`` is
    ``(x0_1, dx1, x0_2, dx2)``, the first coordinate and pitch of each axis.
    ``density`` may be a ``DistinctRows``, as for ``write_matrix_csv``."""
    path = Path(path)
    x0_1, dx1, x0_2, dx2 = grid
    meta = {
        "x0_1": x0_1,
        "dx1": dx1,
        "n1": density.shape[0],
        "x0_2": x0_2,
        "dx2": dx2,
        "n2": density.shape[1],
        "content": "row-major |amplitude|^2; rows follow axis 1",
    }
    if config:
        meta["config"] = config
    write_matrix_csv(density, path, config=config)
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


# values of write_pgm scaled at a time: no scaled copy of a whole density
_PGM_VALUES = 2 ** 18


def write_pgm(matrix: np.ndarray, path, config: dict | None = None) -> None:
    """8-bit binary PGM with linear intensity mapping.

    Comment lines record the intensity mapped to 255 (so the scaling is
    recoverable) and, when given, the resolved configuration.  Not-a-number
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
    header = f"P5\n# full scale = {format_float(top)}\n"
    if config:
        header += config_header(config)
    header += f"{m.shape[1]} {m.shape[0]}\n255\n"
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


def write_scan_csv(rows, path, config: dict | None = None) -> None:
    """Scan rows as CSV with the fixed header D,kappa_plus,kappa_minus,R,route,I_D."""
    _write_csv(path, config, "D,kappa_plus,kappa_minus,R,route,I_D\n", (
        f"{r.dimension},{format_float(r.kappa_plus)},{format_float(r.kappa_minus)},"
        f"{format_float(r.correlation)},{r.route},{format_float(r.value)}\n" for r in rows))
