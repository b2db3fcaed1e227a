"""Command-line front end.

Subcommands: ``carpet | synth | entangle | bell | bell-scan | constraints``.
Each takes ``--config <json>`` plus ``--set key=value`` overrides; commands
that emit files require ``--out-dir``.  All computation is deterministic:
identical configurations produce byte-identical outputs.  Exit codes:
0 success, 2 configuration or validation error, 3 numerical guard trip.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import constraints as hw
from .bell import bell_point, bell_scan
from .errors import (AliasingRisk, BinMisalignment, InvalidSpec, TalbotLabError,
                     UnderResolved)
from .fields import (PropagationSpec, SampledField, centered_axis, check_entries,
                     get_profile, mode_propagate, periodic_comb, sample,
                     talbot_length)
from .io import (bell_result_to_json, write_biphoton_csv, write_matrix_csv,
                 write_pgm, write_sampled_csv, write_scan_csv)
from .spdc import (BiphotonGaussian, SlitArray, SynthesizerGeometry,
                   apply_dslit, entangled_coeffs, initial_biphoton_field,
                   render_synthesized, synthesize_single, two_photon_field)

_GUARDS = (AliasingRisk, UnderResolved, BinMisalignment)

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
        "profile": "gaussian",
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


def _resolve(key: str, value, default):
    """Coerce one config value to the type of its default and range-check it."""
    if key == "dimensions":
        return [_integer(key, d) for d in _list(key, value)]
    if key == "pixels":
        return tuple(_integer(key, n) for n in _list(key, value, length=2))
    if key == "kappa_pairs" and value != "fig":
        return [(_number("kappa_plus", _list(key, p, length=2)[0]),
                 _number("kappa_minus", p[1], zero_ok=True)) for p in _list(key, value)]
    if default is None:  # constraints.dimension, where unset means the largest D
        return None if value is None else _integer(key, value)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise InvalidSpec(f"{key} must be true or false, got {value!r}")
        return value
    if isinstance(default, int):
        return _integer(key, value, least=2 if key == "z_steps" else 1)
    if isinstance(default, float):
        return _number(key, value, zero_ok=key == "kappa_minus")
    return value  # strings are parsed where they are used


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
    return {key: _resolve(key, value, defaults[key])
            for key, value in {**defaults, **overrides}.items()}


def _out_dir(args) -> Path:
    if not args.out_dir:
        raise InvalidSpec("this command emits files; --out-dir is required")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_amplitudes(spec_value, dimension: int) -> np.ndarray:
    check_entries("amplitude vector", dimension)
    if isinstance(spec_value, str):
        if spec_value == "uniform":
            return np.full(dimension, 1.0 / math.sqrt(dimension), dtype=complex)
        if spec_value.startswith("basis:") and spec_value[6:].isdecimal():
            idx = int(spec_value[6:])
            if not idx < dimension:
                raise InvalidSpec(f"basis index {idx} outside 0..{dimension - 1}")
            amps = np.zeros(dimension, dtype=complex)
            amps[idx] = 1.0
            return amps
        raise InvalidSpec(f"amplitude spec {spec_value!r} not understood")
    try:
        pairs = np.asarray(spec_value, dtype=float)
    except (TypeError, ValueError):
        pairs = None
    if pairs is None or pairs.shape != (dimension, 2) or not np.isfinite(pairs).all():
        raise InvalidSpec(f"amplitudes must be {dimension} finite [re, im] pairs")
    amps = pairs[:, 0] + 1j * pairs[:, 1]
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(amps)
    if not 0 < norm < math.inf:
        raise InvalidSpec("amplitudes must have a finite, nonzero norm")
    return amps / norm


def cmd_carpet(args) -> int:
    cfg = _load_config("carpet", args)
    out = _out_dir(args)
    dim, period, wavelength = cfg["dimension"], cfg["period"], cfg["wavelength"]
    spp, periods, steps = cfg["samples_per_period"], cfg["periods"], cfg["z_steps"]
    amps = _parse_amplitudes(cfg["state"], dim)
    offs = period / dim * np.arange(dim)
    field = periodic_comb(period, cfg["slit_width"] * period, offs, amps)
    z_t = talbot_length(period, wavelength)
    check_entries("carpet density", steps, spp * periods)
    density = np.empty((steps, spp * periods))
    for i, frac in enumerate(np.linspace(0.0, 2.0, steps)):
        spec = PropagationSpec(wavelength, frac * z_t)
        snap = sample(mode_propagate(field, spec), spp, periods)
        density[i] = np.abs(snap.values) ** 2
    write_matrix_csv(density, out / "carpet.csv", config=cfg)
    write_pgm(density, out / "carpet.pgm", config=cfg)
    print(f"carpet: {steps} x {spp * periods} density written to {out}")
    return 0


def cmd_synth(args) -> int:
    cfg = _load_config("synth", args)
    out = _out_dir(args)
    dim, spacing = cfg["dimension"], cfg["spacing"]
    spc, cells = cfg["samples_per_cell"], cfg["cells"]
    profile = get_profile(cfg["profile"])
    amps = _parse_amplitudes(cfg["amplitudes"], dim)
    slits = SlitArray(dim, spacing, cfg["slit_width"] * spacing,
                      profile=profile, amplitudes=amps)
    geom = SynthesizerGeometry.for_dimension(dim, spacing,
                                             spike_width=cfg["spike_width"] * spacing)
    dx = spacing / spc
    x = centered_axis(spc * cells, dx)
    output = render_synthesized(slits, geom, x)  # first: its comb basis is size-checked
    aperture = slits.transmission(x)
    ideal = sample(synthesize_single(slits, geom), spc * dim, cells // dim or 1)
    write_sampled_csv(SampledField(float(x[0]), dx, aperture), out / "synth_input.csv",
                      config=cfg)
    write_sampled_csv(SampledField(float(x[0]), dx, output), out / "synth_output.csv",
                      config=cfg)
    write_sampled_csv(ideal, out / "synth_ideal.csv", config=cfg)
    print(f"synth: aperture, synthesized and ideal profiles written to {out}")
    return 0


def cmd_entangle(args) -> int:
    cfg = _load_config("entangle", args)
    out = _out_dir(args)
    dim, s = cfg["dimension"], cfg["spacing"]
    model = BiphotonGaussian(cfg["kappa_plus"] * s, cfg["kappa_minus"] * s)
    coeffs = entangled_coeffs(dim, s, model)
    slits = SlitArray(dim, s, cfg["slit_width"] * s)
    geom = SynthesizerGeometry.for_dimension(dim, s, spike_width=cfg["spike_width"] * s)

    def axis(cells, spc):
        return centered_axis(cells * spc, s / spc)

    # every stage and its guards run before the first file is written
    x_a = axis(cfg["initial_window_cells"], cfg["initial_samples_per_cell"])
    initial = initial_biphoton_field(model, x_a, x_a)
    x_c = axis(cfg["slit_window_cells"], cfg["slit_samples_per_cell"])
    after, transmitted = apply_dslit(initial_biphoton_field(model, x_c, x_c), slits)
    carpet = two_photon_field(coeffs, slits, geom,
                              samples_per_cell=cfg["carpet_samples_per_cell"],
                              cells=cfg["carpet_window_cells"])

    # no name holds a stage's complex grid while it is written: write_biphoton_csv
    # frees it once it has the density, before the CSV tables are built
    fields = {"initial": initial, "slits": after, "carpet": carpet}
    del initial, after, carpet
    for name, csv_cfg in (("initial", cfg),
                          ("slits", {**cfg, "transmitted_fraction": transmitted}),
                          ("carpet", cfg)):
        density = write_biphoton_csv(fields.pop(name), out / f"entangle_{name}.csv",
                                     config=csv_cfg)
        write_pgm(density, out / f"entangle_{name}.pgm", config=cfg)
        del density
    print(f"entangle: initial, post-slit and carpet densities written to {out}"
          f" (transmitted fraction {transmitted:.4g})")
    return 0


def cmd_bell(args) -> int:
    cfg = _load_config("bell", args)
    out = _out_dir(args)
    result = bell_point(cfg["dimension"], cfg["kappa_plus"], cfg["kappa_minus"],
                        spacing=cfg["spacing"], route=cfg["route"],
                        slit_width=cfg["slit_width"],
                        samples_per_cell=cfg["samples_per_cell"], cells=cfg["cells"],
                        envelope=cfg["envelope"], provenance={"config": cfg})
    (out / "bell.json").write_text(bell_result_to_json(result) + "\n")
    print(f"bell: D={cfg['dimension']} route={cfg['route']} I={result.value:.6f}"
          f" -> {out / 'bell.json'}")
    return 0


def cmd_bell_scan(args) -> int:
    cfg = _load_config("bell-scan", args)
    out = _out_dir(args)
    pairs = cfg["kappa_pairs"]
    if pairs == "fig":  # kappa_plus = 9: the ideal row, then R = 0.99998, 0.9998, 0.998
        pairs = [(9.0, 0.0)] + [(9.0, 9.0 * math.sqrt((1.0 - r) / (1.0 + r)))
                                for r in (0.99998, 0.9998, 0.998)]
    rows = bell_scan(cfg["dimensions"], pairs, spacing=cfg["spacing"], route=cfg["route"])
    write_scan_csv(rows, out / "bell_scan.csv", config=cfg)
    print(f"bell-scan: {len(rows)} rows written to {out / 'bell_scan.csv'}")
    return 0


def cmd_constraints(args) -> int:
    cfg = _load_config("constraints", args)
    spec = hw.HardwareSpec(cfg["pixel_pitch"], cfg["pixels"], cfg["wavelength"])
    d_max = hw.max_dimension(spec, cfg["threshold"])
    dim = max(d_max, 1) if cfg["dimension"] is None else cfg["dimension"]
    dists = hw.gate_distances(spec.pixel_pitch, dim, spec.wavelength)
    info = hw.mutual_information(dim)
    report = {"max_dimension": d_max, "dimension": dim, **dists,
              "mutual_information_bits": info}
    print(f"max encodable dimension (threshold {cfg['threshold']} slits): {d_max}")
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


_COMMANDS = {
    "carpet": cmd_carpet,
    "synth": cmd_synth,
    "entangle": cmd_entangle,
    "bell": cmd_bell,
    "bell-scan": cmd_bell_scan,
    "constraints": cmd_constraints,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talbotlab",
        description="Talbot-effect qudit laboratory: carpets, synthesis, Bell tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one configuration key")
        p.add_argument("--out-dir", help="directory for emitted files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _GUARDS as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except TalbotLabError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
