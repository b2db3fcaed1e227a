"""The five numerical commands of the command line.

Each ``cmd_*`` takes the configuration that ``cli`` has already resolved
and checked, and the output directory it has made.  ``cli`` imports this
module only for a command that computes something, so a rejected input or
the ``constraints`` report never loads NumPy or the numerical layers.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from .bell import bell_point, bell_scan
from .constraints import talbot_length
from .errors import InvalidSpec, TalbotLabError, report_failure
from .fields import (SampledField, _abs2, centered_axis, check_entries, mode_propagate,
                     periodic_comb, sample, sampling_matrix, unit_power)
from .io import (bell_result_to_json, write_density_csv, write_matrix_csv, write_pgm,
                 write_sampled_csv, write_scan_csv)
from .spdc import (BiphotonGaussian, SlitArray, _source_widths, apply_dslit, entangled_coeffs,
                   initial_biphoton_field, render_synthesized, synthesize_single,
                   two_photon_density)


def _parse_amplitudes(spec_value, dimension: int) -> np.ndarray:
    """Unit amplitude vector of a ``state``/``amplitudes`` value; its string
    forms (``uniform``, ``basis:<n>``) were checked with the configuration."""
    check_entries("amplitude vector", dimension)
    if spec_value == "uniform":
        return np.full(dimension, 1.0 / math.sqrt(dimension), dtype=complex)
    if isinstance(spec_value, str):
        amps = np.zeros(dimension, dtype=complex)
        amps[int(spec_value[6:])] = 1.0
        return amps
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


def cmd_carpet(cfg: dict, out: Path) -> int:
    dim, period = cfg["dimension"], cfg["period"]
    spp, periods, steps = cfg["samples_per_period"], cfg["periods"], cfg["z_steps"]
    amps = _parse_amplitudes(cfg["state"], dim)
    offs = period / dim * np.arange(dim)
    field = periodic_comb(period, cfg["slit_width"] * period, offs, amps)
    # rows sit at fractions of the Talbot length; the wavelength only scales z, so it
    # enters as the refusal of a Talbot length of 0 or inf
    talbot_length(period, cfg["wavelength"])
    check_entries("carpet density", steps, spp * periods)
    # each row is the sample() of a mode_propagate(), on one sampling matrix
    _, dx, matrix = sampling_matrix(field, period, spp, periods)
    density = np.empty((steps, spp * periods))
    for i, frac in enumerate(np.linspace(0.0, 2.0, steps)):
        row = unit_power(matrix @ mode_propagate(field, frac), dx)
        density[i] = np.abs(row) ** 2
    write_matrix_csv(density, out / "carpet.csv", cfg)
    write_pgm(density, out / "carpet.pgm", cfg)
    print(f"carpet: {steps} x {spp * periods} density written to {out}")
    return 0


def cmd_synth(cfg: dict, out: Path) -> int:
    dim, spacing = cfg["dimension"], cfg["spacing"]
    spc, cells = cfg["samples_per_cell"], cfg["cells"]
    amps = _parse_amplitudes(cfg["amplitudes"], dim)
    slits = SlitArray(dim, spacing, cfg["slit_width"] * spacing, amplitudes=amps)
    dx = spacing / spc
    x = centered_axis(spc * cells, dx)
    # first: its comb basis is size-checked
    output = render_synthesized(slits, x, spike_width=cfg["spike_width"] * spacing)
    aperture = slits.transmission(x)
    ideal = sample(synthesize_single(slits), slits.period, spc * dim, cells // dim or 1)
    write_sampled_csv(SampledField(float(x[0]), dx, aperture), out / "synth_input.csv", cfg)
    write_sampled_csv(SampledField(float(x[0]), dx, output), out / "synth_output.csv", cfg)
    write_sampled_csv(ideal, out / "synth_ideal.csv", cfg)
    print(f"synth: aperture, synthesized and ideal profiles written to {out}")
    return 0


def cmd_entangle(cfg: dict, out: Path) -> int:
    dim, s = cfg["dimension"], cfg["spacing"]
    model = BiphotonGaussian(*_source_widths(cfg["kappa_plus"], cfg["kappa_minus"], s))
    coeffs = entangled_coeffs(dim, s, model)
    slits = SlitArray(dim, s, cfg["slit_width"] * s)

    # every stage and its guards run before the first file is written; each
    # stage is a real density, and the source's real amplitude gives way to it
    x_a, dx_a, initial = initial_biphoton_field(model, s, cfg["initial_samples_per_cell"],
                                                cfg["initial_window_cells"])
    initial = _abs2(initial)
    # the slit stage: the source density on its own grid, then behind the slits
    x_c, dx_c, after = initial_biphoton_field(model, s, cfg["slit_samples_per_cell"],
                                              cfg["slit_window_cells"])
    after, transmitted = apply_dslit(_abs2(after), x_c, dx_c, slits)
    stages = [("initial", initial, (float(x_a[0]), dx_a), cfg),
              ("slits", after, (float(x_c[0]), dx_c), {**cfg, "transmitted_fraction": transmitted})]
    del initial, after
    # the z = 0 carpet as a density built in row blocks, with no n x n complex grid
    x, dx, carpet = two_photon_density(coeffs, slits,
                                       samples_per_cell=cfg["carpet_samples_per_cell"],
                                       cells=cfg["carpet_window_cells"],
                                       spike_width=cfg["spike_width"] * s)

    def write_stages():
        for name, density, grid, csv_cfg in stages:
            write_density_csv(density, out / f"entangle_{name}.csv", grid, csv_cfg)
            write_pgm(density, out / f"entangle_{name}.pgm", cfg)
        write_pgm(carpet, out / "entangle_carpet.pgm", cfg)

    # a child writes the initial and slit stages and the carpet's heatmap,
    # while this process writes the carpet CSV
    pid = _write_aside(write_stages, out)
    stages.clear()  # the child has its own copy: the carpet CSV is written without them
    try:
        write_density_csv(carpet, out / "entangle_carpet.csv", (float(x[0]), dx), cfg)
    finally:
        code = _reap(pid)
    if code:
        return code
    print(f"entangle: initial, post-slit and carpet densities written to {out}"
          f" (transmitted fraction {transmitted:.4g})")
    return 0


def _write_aside(write, out: Path) -> int | None:
    """Run ``write()`` in a forked child and return its pid.  Where
    ``os.fork`` does not exist, run ``write()`` here and return ``None``.

    The child leaves through ``os._exit``, never back into its caller, with the
    exit code ``cli`` would give: 0, or that of ``report_failure`` after its one
    line on stderr.
    """
    if not hasattr(os, "fork"):
        write()
        return None
    sys.stdout.flush()  # else the child's copy of the buffers could be written twice
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        write()
        code = 0
    except (TalbotLabError, OSError, MemoryError) as exc:
        code = report_failure(exc, out)
    except BaseException:  # the child's outermost frame: report, then exit 1
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _reap(pid: int | None) -> int:
    """Wait for ``_write_aside``'s child; its exit code, 0 without a child."""
    if pid is None:
        return 0
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        print(f"file writer {pid} killed by signal {-code}", file=sys.stderr)
        return 1
    return code


def cmd_bell(cfg: dict, out: Path) -> int:
    result = bell_point(cfg["dimension"], cfg["kappa_plus"], cfg["kappa_minus"],
                        route=cfg["route"], slit_width=cfg["slit_width"],
                        samples_per_cell=cfg["samples_per_cell"], cells=cfg["cells"],
                        envelope=cfg["envelope"])
    result = dataclasses.replace(result, provenance={**result.provenance, "config": cfg})
    (out / "bell.json").write_text(bell_result_to_json(result) + "\n")
    print(f"bell: D={cfg['dimension']} route={cfg['route']} I={result.value:.6f}"
          f" -> {out / 'bell.json'}")
    return 0


def cmd_bell_scan(cfg: dict, out: Path) -> int:
    pairs = cfg["kappa_pairs"]
    if pairs == "fig":  # kappa_plus = 9: the ideal row, then R = 0.99998, 0.9998, 0.998
        pairs = [(9.0, 0.0)] + [(9.0, 9.0 * math.sqrt((1.0 - r) / (1.0 + r)))
                                for r in (0.99998, 0.9998, 0.998)]
    rows = bell_scan(cfg["dimensions"], pairs, route=cfg["route"])
    write_scan_csv(rows, out / "bell_scan.csv", cfg)
    print(f"bell-scan: {len(rows)} rows written to {out / 'bell_scan.csv'}")
    return 0


COMMANDS = {
    "carpet": cmd_carpet,
    "synth": cmd_synth,
    "entangle": cmd_entangle,
    "bell": cmd_bell,
    "bell-scan": cmd_bell_scan,
}
