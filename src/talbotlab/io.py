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
    "write_biphoton_csv",
    "write_pgm",
    "bell_result_to_json",
    "write_scan_csv",
]


def format_float(x: float) -> str:
    """Shortest round-trip decimal representation."""
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


def write_sampled_csv(field: SampledField, path, config: dict | None = None) -> None:
    """Sampled field as ``x,re,im`` rows."""
    _write_csv(path, config, "x,re,im\n", (
        f"{format_float(x)},{format_float(v.real)},{format_float(v.imag)}\n"
        for x, v in zip(field.x(), field.values)))


# rows per block of write_matrix_csv: bounds the distinct-value table it holds
# (one table for a whole 3072² matrix raised entangle's peak RSS to 658 MB)
_BLOCK_ROWS = 256


def write_matrix_csv(matrix: np.ndarray, path, config: dict | None = None) -> None:
    """Real matrix as row-major CSV, one matrix row per line.

    Each block of ``_BLOCK_ROWS`` rows calls ``format_float`` once per
    distinct float64 bit pattern, so ``-0.0``, ``0.0`` and every NaN payload
    stay apart and the bytes equal those of formatting every entry.
    """
    _write_csv(path, config, "", _matrix_lines(np.ascontiguousarray(matrix, dtype=float)))


def _matrix_lines(m: np.ndarray):
    for start in range(0, m.shape[0], _BLOCK_ROWS):
        block = m[start:start + _BLOCK_ROWS]
        bits, inv = np.unique(block.view(np.uint64), return_inverse=True)
        # iterating the array, not a .tolist(), keeps no list of floats beside the text
        text = np.fromiter(map(format_float, bits.view(float)), dtype=object, count=bits.size)
        for row in inv.reshape(block.shape):
            yield ",".join(text[row].tolist()) + "\n"


def write_biphoton_csv(field: BiphotonField, path, config: dict | None = None) -> np.ndarray:
    """Biphoton density |values|^2 as row-major CSV plus JSON grid sidecar.

    Returns the density it wrote.
    """
    path = Path(path)
    density = np.abs(field.values) ** 2
    write_matrix_csv(density, path, config=config)
    meta = {
        "x0_1": field.x0_1,
        "dx1": field.dx1,
        "n1": field.values.shape[0],
        "x0_2": field.x0_2,
        "dx2": field.dx2,
        "n2": field.values.shape[1],
        "content": "row-major |amplitude|^2; rows follow axis 1",
    }
    if config:
        meta["config"] = config
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")
    return density


def write_pgm(matrix: np.ndarray, path, config: dict | None = None) -> None:
    """8-bit binary PGM with linear intensity mapping.

    Comment lines record the intensity mapped to 255 (so the scaling is
    recoverable) and, when given, the resolved configuration.  Not-a-number
    entries are rejected.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise InvalidSpec("PGM needs a 2-D array")
    if not np.isfinite(m).all():
        raise InvalidSpec("PGM input must be finite")
    top = float(m.max())
    if top <= 0:
        top = 1.0
    scaled = m / top
    np.clip(scaled, 0.0, 1.0, out=scaled)
    scaled *= 255.0
    np.round(scaled, out=scaled)
    pixels = scaled.astype(np.uint8)
    header = f"P5\n# full scale = {format_float(top)}\n"
    if config:
        header += config_header(config)
    header += f"{m.shape[1]} {m.shape[0]}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(pixels.tobytes())


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
