"""The five numerical commands of the command line.

Each ``cmd_*`` takes the configuration that ``cli`` has already resolved
and checked, and the output directory it has made.  ``cli`` imports this
module only for a command that computes something, so a rejected input or
the ``constraints`` report never loads NumPy or the numerical layers.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from .bell import bell_point, bell_scan
from .constraints import talbot_length
from .errors import InvalidSpec, TalbotLabError, report_failure
from .fields import (PropagationSpec, SampledField, centered_axis, check_entries,
                     get_profile, mode_propagate, periodic_comb, sample, sampling_matrix,
                     unit_power)
from .io import (DistinctRows, bell_result_to_json, write_biphoton_csv, write_density_csv,
                 write_matrix_csv, write_pgm, write_sampled_csv, write_scan_csv)
from .spdc import (BiphotonGaussian, SlitArray, SynthesizerGeometry,
                   apply_dslit, entangled_coeffs, initial_biphoton_field,
                   render_synthesized, synthesize_single, two_photon_density)


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
    dim, period, wavelength = cfg["dimension"], cfg["period"], cfg["wavelength"]
    spp, periods, steps = cfg["samples_per_period"], cfg["periods"], cfg["z_steps"]
    amps = _parse_amplitudes(cfg["state"], dim)
    offs = period / dim * np.arange(dim)
    field = periodic_comb(period, cfg["slit_width"] * period, offs, amps)
    z_t = talbot_length(period, wavelength)
    check_entries("carpet density", steps, spp * periods)
    # each row is sample(mode_propagate(field, spec)), on one sampling matrix
    _, dx, matrix = sampling_matrix(field, spp, periods)
    density = np.empty((steps, spp * periods))
    for i, frac in enumerate(np.linspace(0.0, 2.0, steps)):
        spec = PropagationSpec(wavelength, frac * z_t)
        row = unit_power(matrix @ mode_propagate(field, spec).coeffs, dx)
        density[i] = np.abs(row) ** 2
    write_matrix_csv(density, out / "carpet.csv", config=cfg)
    write_pgm(density, out / "carpet.pgm", config=cfg)
    print(f"carpet: {steps} x {spp * periods} density written to {out}")
    return 0


def cmd_synth(cfg: dict, out: Path) -> int:
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


def cmd_entangle(cfg: dict, out: Path) -> int:
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
    # the z = 0 carpet as a density built in row blocks, with no n x n complex grid
    x, dx, carpet = two_photon_density(coeffs, slits, geom,
                                       samples_per_cell=cfg["carpet_samples_per_cell"],
                                       cells=cfg["carpet_window_cells"])

    # no name holds a stage's complex grid while it is written: write_biphoton_csv
    # frees it once it has the density, before any CSV text is formatted
    fields = {"initial": initial, "slits": after}
    del initial, after

    def write_fields():
        for name, csv_cfg in (("initial", cfg),
                              ("slits", {**cfg, "transmitted_fraction": transmitted})):
            density = write_biphoton_csv(fields.pop(name), out / f"entangle_{name}.csv",
                                         config=csv_cfg)
            write_pgm(density, out / f"entangle_{name}.pgm", config=cfg)
            del density

    # a child writes the initial and slit stages, then formats the carpet's
    # last distinct rows, while this process writes the carpet
    rows = DistinctRows(carpet)
    count = len(rows.first)
    split = count - int(count * _CHILD_SHARE)
    pid, piped = _write_aside(write_fields, rows.format(split, count), out)
    fields.clear()
    if piped is not None:
        rows.lines = itertools.chain(rows.format(0, split), _read_lines(piped, count - split))
    code = 1
    try:
        x0 = float(x[0])
        write_density_csv(rows, out / "entangle_carpet.csv", (x0, dx, x0, dx), config=cfg)
        write_pgm(carpet, out / "entangle_carpet.pgm", config=cfg)
        code = 0
    except _Unsent:  # the child stopped before it sent its lines, and said why
        pass
    finally:
        code = _reap(pid, piped) or code
    if code:
        return code
    print(f"entangle: initial, post-slit and carpet densities written to {out}"
          f" (transmitted fraction {transmitted:.4g})")
    return 0


# the share of the carpet's distinct rows whose lines the writer child formats:
# the rows that first appear last, which the carpet write reaches last.  At the
# defaults, on two cores, 0.2 ran fastest of 0.1 to 0.4; from 0.25 on, this
# process waits on the pipe.
_CHILD_SHARE = 0.2


class _Unsent(Exception):
    """The writer child closed its pipe before it sent all of its lines."""


def _write_aside(write, lines, out: Path) -> tuple:
    """Run ``write()`` in a forked child, which then sends ``lines`` to this
    process through a pipe; return the child's pid and the pipe's read end.
    Where ``os.fork`` does not exist, run ``write()`` here and return
    ``(None, None)``: this process then formats every line itself.

    The child leaves through ``os._exit``, never back into its caller, with the
    exit code ``cli`` would give: 0, or that of ``report_failure`` after its one
    line on stderr.  If ``write()`` fails, it sends nothing.  If this process
    closes the read end first, the child stops sending and exits quietly.
    """
    if not hasattr(os, "fork"):
        write()
        return None, None
    sys.stdout.flush()  # else the child's copy of the buffers could be written twice
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    os.close(r)
    code = 1
    try:
        write()
        try:  # close() flushes, so the with's exit can raise it too
            with open(w, "wb", buffering=_HELD_BYTES) as pipe:
                pipe.writelines(lines)
        except BrokenPipeError:  # the reader failed, and reports its own failure
            pass
        code = 0
    except (TalbotLabError, OSError) as exc:
        code = report_failure(exc, out)
    except BaseException:  # the child's outermost frame: report, then exit 1
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


# bytes of lines the writer child holds before it waits for this process to
# read them: the child's whole share at the defaults (15 MB), so that making
# them need not wait for the reader
_HELD_BYTES = 2 ** 24


def _read_lines(pipe, count: int):
    """The ``count`` lines the writer child sends; ``_Unsent`` at an early end."""
    for _ in range(count):
        line = pipe.readline()
        if not line:
            raise _Unsent
        yield line


def _reap(pid: int | None, piped) -> int:
    """Close the read end of ``_write_aside``'s pipe, so that a child still
    sending does not block, and wait for the child; its exit code, 0 without a child."""
    if pid is None:
        return 0
    piped.close()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        print(f"file writer {pid} killed by signal {-code}", file=sys.stderr)
        return 1
    return code


def cmd_bell(cfg: dict, out: Path) -> int:
    result = bell_point(cfg["dimension"], cfg["kappa_plus"], cfg["kappa_minus"],
                        spacing=cfg["spacing"], route=cfg["route"],
                        slit_width=cfg["slit_width"],
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
    rows = bell_scan(cfg["dimensions"], pairs, spacing=cfg["spacing"], route=cfg["route"])
    write_scan_csv(rows, out / "bell_scan.csv", config=cfg)
    print(f"bell-scan: {len(rows)} rows written to {out / 'bell_scan.csv'}")
    return 0


COMMANDS = {
    "carpet": cmd_carpet,
    "synth": cmd_synth,
    "entangle": cmd_entangle,
    "bell": cmd_bell,
    "bell-scan": cmd_bell_scan,
}
