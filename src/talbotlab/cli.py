"""Command-line front end.

Subcommands: ``carpet | synth | entangle | bell | bell-scan | constraints``.
Each takes ``--config <json>`` plus ``--set key=value`` overrides; commands
that emit files require ``--out-dir``.  All computation is deterministic:
identical configurations produce byte-identical outputs.  Exit codes:
0 success, 2 configuration or validation error, a file that cannot be
written or a run out of memory, 3 numerical guard trip.

The configuration's types, ranges and state strings are checked before
NumPy is imported: only a command that computes something loads the
numerical layers (``commands``).  The checks that need the numbers run
after the import: explicit ``[re, im]`` amplitude lists, the array-size
bound, and lengths whose squares or comb powers leave the floating-point
range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import constraints as hw
from .errors import InvalidSpec, TalbotLabError, report_failure

DEFAULTS = {
    "carpet": {
        "period": 1.0,
        "wavelength": 0.01,
        "slit_width": 0.05,
        "dimension": 1,
        "state": "basis:0",
        "samples_per_period": 64,
        "periods": 4,
        "z_steps": 256,
    },
    "synth": {
        "dimension": 3,
        "spacing": 1.0,
        "slit_width": 0.05,
        "spike_width": 0.05,
        "amplitudes": "uniform",
        "samples_per_cell": 64,
        "cells": 24,
    },
    "entangle": {
        "dimension": 3,
        "spacing": 1.0,
        "kappa_plus": 9.0,
        "kappa_minus": 1.0,
        "slit_width": 0.05,
        "spike_width": 0.05,
        "initial_window_cells": 48,
        "initial_samples_per_cell": 8,
        "slit_window_cells": 8,
        "slit_samples_per_cell": 160,
        "carpet_window_cells": 48,
        "carpet_samples_per_cell": 64,
    },
    "bell": {
        "dimension": 3,
        "route": "analytic",
        "kappa_plus": 9.0,
        "kappa_minus": 0.0,
        "spacing": 1.0,
        "slit_width": 0.05,
        "samples_per_cell": 64,
        "cells": 64,
        "envelope": False,
    },
    "bell-scan": {
        "dimensions": [2, 3, 4, 5, 6, 7, 8],
        "kappa_pairs": "fig",
        "spacing": 1.0,
        "route": "analytic",
        "workers": 1,
    },
    "constraints": {
        "pixel_pitch": 10e-6,
        "pixels": [1080, 1920],
        "wavelength": 800e-9,
        "threshold": 100,
        "dimension": None,
    },
}


# integer keys that need at least 2: a carpet spans two z steps, a CGLMP test or a gate
# two levels
_LEAST_2 = {("carpet", "z_steps"), ("bell", "dimension"), ("bell-scan", "dimensions"),
            ("constraints", "dimension")}
# most table entries bell.json may hold, four D x D tables: D = 1024 peaks near 0.7 GB
_BELL_TABLE_ENTRIES = 4 * 1024 ** 2


def _integer(key: str, value, least: int = 1) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or not least <= value <= sys.float_info.max:
        raise InvalidSpec(f"{key} must be a finite integer >= {least}, got {value!r}")
    return value


def _number(key: str, value, zero_ok: bool = False) -> float:
    if type(value) is int and 0 <= value <= sys.float_info.max:
        value = float(value)
    if not (type(value) is float and math.isfinite(value)
            and (value > 0 or zero_ok and value == 0)):
        bound = ">= 0" if zero_ok else "> 0"
        raise InvalidSpec(f"{key} must be a finite number {bound}, got {value!r}")
    return value


def _list(key: str, value, length: int | None = None) -> list:
    if not isinstance(value, list) or not value or (length and len(value) != length):
        raise InvalidSpec(f"{key} must list {length or 'one or more'} entries, got {value!r}")
    return value


def _resolve(key: str, value, default, least: int):
    """Coerce one config value to the type of its default and range-check it;
    ``least`` is the smallest integer the key (or each of its entries) may take."""
    if key == "dimensions":
        return [_integer(key, d, least) for d in _list(key, value)]
    if key == "pixels":
        return tuple(_integer(key, n) for n in _list(key, value, length=2))
    if key == "kappa_pairs" and value != "fig":
        return [(_number("kappa_plus", _list(key, p, length=2)[0]),
                 _number("kappa_minus", p[1], zero_ok=True)) for p in _list(key, value)]
    if default is None:  # constraints.dimension, where unset means the largest D
        return None if value is None else _integer(key, value, least)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise InvalidSpec(f"{key} must be true or false, got {value!r}")
        return value
    if isinstance(default, int):
        return _integer(key, value, least)
    if isinstance(default, float):
        return _number(key, value, zero_ok=key == "kappa_minus")
    if key == "route" and value not in ("analytic", "field"):
        raise InvalidSpec(f"route must be 'analytic' or 'field', got {value!r}")
    return value  # the other strings are parsed where they are used


def _check_state(value, dimension: int) -> None:
    """Check the string forms of a state: ``uniform``, or ``basis:<n>`` with
    n < dimension.  A list of [re, im] pairs is checked where it is parsed."""
    if not isinstance(value, str) or value == "uniform":
        return
    if not (value.startswith("basis:") and value[6:].isdecimal()):
        raise InvalidSpec(f"amplitude spec {value!r} not understood")
    try:
        idx = int(value[6:])
    except ValueError:  # int() converts at most 4300 digits
        raise InvalidSpec(f"basis index of {len(value) - 6} digits outside 0..{dimension - 1}")
    if not idx < dimension:
        raise InvalidSpec(f"basis index {idx} outside 0..{dimension - 1}")


def _load_config(command: str, args) -> dict:
    overrides = {}
    if args.config:
        try:
            overrides = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidSpec(f"cannot read config {args.config}: {exc}")
        if not isinstance(overrides, dict):
            raise InvalidSpec(f"config {args.config} must hold a JSON object")
    for item in args.set or []:
        key, eq, raw = item.partition("=")
        if not eq:
            raise InvalidSpec(f"--set expects key=value, got {item!r}")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    defaults = DEFAULTS[command]
    for key in overrides:
        if key not in defaults:
            raise InvalidSpec(f"unknown config key {key!r} for {command}")
    cfg = {key: _resolve(key, value, defaults[key], 2 if (command, key) in _LEAST_2 else 1)
           for key, value in {**defaults, **overrides}.items()}
    for key in ("state", "amplitudes"):
        if key in cfg:
            _check_state(cfg[key], cfg["dimension"])
    if command == "bell" and 4 * cfg["dimension"] ** 2 > _BELL_TABLE_ENTRIES:
        raise InvalidSpec(f"bell.json would hold 4 D^2 table entries, above {_BELL_TABLE_ENTRIES}"
                          f" (2**22) at D = {cfg['dimension']}; use a dimension of at most"
                          f" {math.isqrt(_BELL_TABLE_ENTRIES // 4)}")
    return cfg


def _out_dir(args) -> Path:
    if not args.out_dir:
        raise InvalidSpec("this command emits files; --out-dir is required")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_constraints(cfg: dict, args) -> int:
    pixels, threshold = cfg["pixels"], cfg["threshold"]
    d_max = hw.max_dimension(pixels, threshold)
    dim = d_max if cfg["dimension"] is None else cfg["dimension"]
    if dim < 2:
        raise InvalidSpec(f"a {max(pixels)}-pixel side at a threshold of {threshold} slits"
                          f" encodes at most D = {d_max}; a gate needs D >= 2")
    dists = hw.gate_distances(cfg["pixel_pitch"], dim, cfg["wavelength"])
    info = hw.mutual_information(dim)
    report = {"max_dimension": d_max, "dimension": dim, **dists,
              "mutual_information_bits": info}
    print(f"max encodable dimension (threshold {threshold} slits): {d_max}")
    print(f"at D={dim}:")
    print(f"  talbot length        : {dists['talbot_length'] * 1e3:.4f} mm")
    print(f"  gate distance        : {dists['gate_distance'] * 1e3:.4f} mm")
    print(f"  gate distance (alt)  : {dists['gate_distance_alt'] * 1e3:.4f} mm")
    print(f"  mutual information   : {info:.4f} bits")
    if args.out_dir:
        out = _out_dir(args)
        (out / "constraints.json").write_text(
            json.dumps({"config": cfg, "report": report}, sort_keys=True, indent=1) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talbotlab",
        description="Talbot-effect qudit laboratory: carpets, synthesis, Bell tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in DEFAULTS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one configuration key")
        p.add_argument("--out-dir", help="directory for emitted files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.command, args)
        if args.command == "constraints":
            return cmd_constraints(cfg, args)
        out = _out_dir(args)
        # one BLAS thread, set before NumPy loads: the products here are too small
        # to share, an idle OpenBLAS thread spins, and entangle forks; a user's own
        # setting wins
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        from .commands import COMMANDS  # the one import of the numerical layers
        return COMMANDS[args.command](cfg, out)
    except (TalbotLabError, OSError, MemoryError) as exc:
        return report_failure(exc, args.out_dir)


if __name__ == "__main__":
    raise SystemExit(main())
