"""The three workloads: which talbotlab commands a pass runs, and the checks.

A workload is a list of operations.  One operation is one ``talbotlab``
invocation plus the checks on what it printed and wrote.  Checks compare
against ``oracles`` (computed without talbotlab) or against properties the
method must have, never against stored output.  A check raises
``CheckFailed`` (or any error while reading the output), which marks the
operation as failed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("quick-session", "field-bell", "entangle-emit")

# mode-mass truncation rule of the comb synthesis (fields.periodic_comb):
# discarding a share eps of the coefficient mass moves the amplitude by at
# most sqrt(eps) of its norm, hence the density by about 2 sqrt(eps) of its peak
COMB_DENSITY_TOL = 2.0 * math.sqrt(1e-8)
TIGHT = 1e-9           # normalisation, no-signalling, closed forms
ROUTE_TOL = 0.02       # field vs analytic Bell parameter (acceptance criterion 5)
FIG_R = (0.99998, 0.9998, 0.998)   # source correlations of kappa_pairs="fig"
FIG_KAPPA_PLUS = 9.0


class CheckFailed(Exception):
    pass


def need(condition, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass
class Result:
    """What one invocation left behind."""

    code: int
    stdout: str
    stderr: str
    out: Path


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    check: Callable       # (Result, params, results of the pass by op name), after the exit code
    params: dict = field(default_factory=dict)
    exit_code: int = 0
    # fails today because of a fault in the program that the README names
    known_fault: bool = False


def command(name: str, params: dict) -> tuple:
    argv = [name]
    for key, value in params.items():
        text = value if isinstance(value, str) else json.dumps(value)
        argv += ["--set", f"{key}={text}"]
    return tuple(argv)


# ---------------------------------------------------------------------------
# output readers


def read_matrix(path: Path, header_lines: int = 1) -> np.ndarray:
    """Numbers of a CSV that opens with ``header_lines`` lines (the config comment)."""
    return np.loadtxt(path, delimiter=",", skiprows=header_lines, ndmin=2)


def read_pgm(path: Path) -> tuple:
    """(full-scale intensity, pixel array) of a binary 8-bit PGM."""
    data = path.read_bytes()
    pos, fields, top = 0, [], None
    while len(fields) < 4:
        end = data.index(b"\n", pos)
        line = data[pos:end].decode("ascii")
        pos = end + 1
        if line.startswith("# full scale = "):
            top = float(line.split("=", 1)[1])
        elif not line.startswith("#"):
            fields += line.split()
    need(fields[0] == "P5" and fields[3] == "255", f"{path.name}: not an 8-bit P5 PGM")
    width, height = int(fields[1]), int(fields[2])
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return top, pixels.reshape(height, width)


def check_pgm(path: Path, rho: np.ndarray) -> None:
    top, pixels = read_pgm(path)
    need(pixels.shape == rho.shape, f"{path.name}: shape {pixels.shape} != CSV {rho.shape}")
    need(top == rho.max(), f"{path.name}: full scale {top!r} != CSV maximum {rho.max()!r}")
    expect = np.round(np.clip(rho / top, 0.0, 1.0) * 255.0)
    need(np.array_equal(pixels, expect), f"{path.name}: pixels do not map the CSV linearly")


def check_bell_json(payload: dict) -> None:
    """Tables normalised and no-signalling; I is the CGLMP combination of them."""
    tables = [np.asarray(payload["tables"][k], dtype=float)
              for k in ("P11", "P12", "P21", "P22")]
    norm, gap = oracles.table_residuals(tables)
    need(norm < TIGHT, f"table normalisation off by {norm:.2e}")
    need(gap < TIGHT, f"no-signalling violated by {gap:.2e}")
    combined = oracles.cglmp_value(tables)
    need(abs(payload["I"] - combined) < TIGHT,
         f"I = {payload['I']!r} is not the CGLMP combination {combined!r} of its tables")


# ---------------------------------------------------------------------------
# checks, one per command


def check_carpet(res: Result, p: dict, _) -> None:
    rho = read_matrix(res.out / "carpet.csv")
    need(rho.shape == (p["z_steps"], p["samples_per_period"] * p["periods"]),
         f"carpet shape {rho.shape}")
    dx = p["period"] / p["samples_per_period"]
    norm = np.abs(rho.sum(axis=1) * dx - 1.0).max()
    need(norm < TIGHT, f"carpet row normalisation off by {norm:.2e}")
    revival = np.abs(rho[-1] - rho[0]).max()
    need(revival <= 1e-12 * rho[0].max(), f"no exact revival at 2 z_T ({revival:.2e})")
    x = oracles.centered_axis(p["periods"], p["samples_per_period"], p["period"])
    ref = oracles.periodized_gaussian_density(x, p["period"], p["slit_width"] * p["period"])
    err = np.abs(rho[0] - ref).max() / ref.max()
    need(err < COMB_DENSITY_TOL, f"z=0 row differs from the periodised Gaussian by {err:.2e}")
    check_pgm(res.out / "carpet.pgm", rho)


def check_synth(res: Result, p: dict, _) -> None:
    table = read_matrix(res.out / "synth_input.csv", header_lines=2)   # config, x,re,im
    x = oracles.centered_axis(p["cells"], p["samples_per_cell"], p["spacing"])
    ref = oracles.slit_transmission(x, p["dimension"], p["spacing"],
                                    p["slit_width"] * p["spacing"])
    need(table.shape == (x.size, 3), f"synth_input shape {table.shape}")
    need(np.abs(table[:, 0] - x).max() < 1e-12, "synth_input grid is not the centred axis")
    err = np.abs(table[:, 1] + 1j * table[:, 2] - ref).max()
    need(err < 1e-12, f"aperture differs from the slit oracle by {err:.2e}")


def check_bell_analytic(res: Result, p: dict, _) -> None:
    payload = json.loads((res.out / "bell.json").read_text())
    ref = oracles.cglmp_closed_form(p["dimension"])
    need(abs(payload["I"] - ref) < TIGHT, f"I = {payload['I']!r}, closed form {ref!r}")
    check_bell_json(payload)


def read_scan(path: Path) -> list:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    need(lines[0] == "D,kappa_plus,kappa_minus,R,route,I_D", "bell_scan.csv header")
    return [ln.split(",") for ln in lines[1:]]


def check_scan(res: Result, p: dict, _) -> None:
    rows = read_scan(res.out / "bell_scan.csv")
    dims = p["dimensions"]
    need(len(rows) == len(dims) * (1 + len(FIG_R)), f"{len(rows)} scan rows")
    values = {}
    for i, (d, kp, km, r, route, value) in enumerate(rows):
        d, kp, km, r, value = int(d), float(kp), float(km), float(r), float(value)
        need(d == dims[i % len(dims)] and route == "analytic" and kp == FIG_KAPPA_PLUS,
             f"row {i} out of order")
        target_r = ((1.0,) + FIG_R)[i // len(dims)]
        need(abs(r - target_r) < 1e-12, f"row {i}: R = {r!r}, expected {target_r}")
        if km == 0.0:
            ref = oracles.cglmp_closed_form(d)
        else:
            coeffs = oracles.entangled_coeffs(d, 1.0, kp, km)
            ref = oracles.cglmp_value(oracles.cglmp_tables(coeffs))
        need(abs(value - ref) < TIGHT, f"D={d} R={r}: I = {value!r}, oracle {ref!r}")
        values.setdefault(d, []).append(value)
    for d, by_r in values.items():   # R decreasing along the list
        need(all(b <= a + TIGHT for a, b in zip(by_r, by_r[1:])),
             f"D={d}: I_D increases as R decreases: {by_r}")


def check_scan_workers(res: Result, p: dict, done: dict) -> None:
    check_scan(res, p, done)

    def body(r):
        return [ln for ln in (r.out / "bell_scan.csv").read_text().splitlines(True)
                if not ln.startswith("# config:")]

    need(body(res) == body(done["bell-scan-workers1"]),
         "workers=2 scan differs from workers=1 beyond the config line")


def check_constraints(res: Result, p: dict, _) -> None:
    ref = oracles.constraints_report(**p)
    printed = {
        "max_dimension": r"max encodable dimension \(threshold \d+ slits\): (\d+)",
        "talbot_length": r"talbot length\s*: ([\d.]+) mm",
        "gate_distance": r"gate distance\s*: ([\d.]+) mm",
        "gate_distance_alt": r"gate distance \(alt\)\s*: ([\d.]+) mm",
        "mutual_information_bits": r"mutual information\s*: ([\d.]+) bits",
    }
    for key, pattern in printed.items():
        match = re.search(pattern, res.stdout)
        need(match, f"constraints output lacks {key}")
        scale = 1e3 if pattern.endswith("mm") else 1.0
        need(abs(float(match.group(1)) - ref[key] * scale) <= 5e-5 + 1e-12,
             f"printed {key} {match.group(1)} != {ref[key] * scale:.4f}")
    report = json.loads((res.out / "constraints.json").read_text())["report"]
    for key, value in ref.items():
        need(math.isclose(report[key], value, rel_tol=1e-12),
             f"constraints.json {key} = {report[key]!r}, oracle {value!r}")


def check_rejected(res: Result, p: dict, _) -> None:
    need("Traceback" not in res.stderr, "traceback on stderr")
    lines = res.stderr.strip().splitlines()
    need(len(lines) == 1, f"{len(lines)} lines on stderr, expected one message")


def check_bell_field(res: Result, p: dict, _) -> None:
    payload = json.loads((res.out / "bell.json").read_text())
    check_bell_json(payload)
    captured = [diag["captured"] for diag in payload["provenance"]["diagnostics"]]
    need(len(captured) == 4 and min(captured) > 0, f"captured power {captured}")
    dim, s = p["dimension"], p.get("spacing", 1.0)
    if p.get("kappa_minus", 0.0) == 0.0:
        coeffs = np.eye(dim) / math.sqrt(dim)
        closed = oracles.cglmp_closed_form(dim)
        need(abs(payload["I"] - closed) < ROUTE_TOL,
             f"I_field = {payload['I']!r}, closed form {closed!r}")
    else:
        coeffs = oracles.entangled_coeffs(dim, s, p["kappa_plus"] * s, p["kappa_minus"] * s)
    ref = oracles.cglmp_value(oracles.cglmp_tables(coeffs))
    need(abs(payload["I"] - ref) < ROUTE_TOL, f"I_field = {payload['I']!r}, analytic {ref!r}")


def check_entangle(res: Result, p: dict, _) -> None:
    s = p["spacing"]
    kp, km = p["kappa_plus"] * s, p["kappa_minus"] * s
    densities = {}
    for stage, cells, spc in (
        ("initial", p["initial_window_cells"], p["initial_samples_per_cell"]),
        ("slits", p["slit_window_cells"], p["slit_samples_per_cell"]),
        ("carpet", p["carpet_window_cells"], p["carpet_samples_per_cell"]),
    ):
        path = res.out / f"entangle_{stage}.csv"
        meta = json.loads(path.with_suffix(".csv.json").read_text())
        rho = read_matrix(path)
        x = oracles.centered_axis(cells, spc, s)
        need(rho.shape == (meta["n1"], meta["n2"]) == (x.size, x.size),
             f"{stage}: shape {rho.shape} vs sidecar {meta['n1']}x{meta['n2']}")
        for axis in ("1", "2"):
            need(abs(meta["x0_" + axis] - x[0]) < 1e-12
                 and abs(meta["dx" + axis] - s / spc) < 1e-15,
                 f"{stage}: sidecar grid of axis {axis} is not the centred axis")
        norm = abs(rho.sum() * meta["dx1"] * meta["dx2"] - 1.0)
        need(norm < TIGHT, f"{stage}: density normalisation off by {norm:.2e}")
        asym = np.abs(rho - rho.T).max() / rho.max()
        need(asym < TIGHT, f"{stage}: not symmetric under exchange ({asym:.2e})")
        check_pgm(res.out / f"entangle_{stage}.pgm", rho)
        densities[stage] = (rho, x, meta)

    rho, x, _ = densities["initial"]
    source = oracles.double_gaussian(x[:, None], x[None, :], kp, km)
    ref = oracles.grid_density(source, x[1] - x[0], x[1] - x[0])
    err = np.abs(rho - ref).max() / ref.max()
    need(err < TIGHT, f"initial density differs from the double Gaussian by {err:.2e}")

    rho, x, meta = densities["slits"]
    t = oracles.slit_transmission(x, p["dimension"], s, p["slit_width"] * s)
    source = oracles.double_gaussian(x[:, None], x[None, :], kp, km)
    passed = source * t[:, None] * t[None, :]
    ref = oracles.grid_density(passed, x[1] - x[0], x[1] - x[0])
    err = np.abs(rho - ref).max() / ref.max()
    need(err < TIGHT, f"post-slit density differs from source x slits by {err:.2e}")
    fraction = meta["config"]["transmitted_fraction"]
    expect = (np.abs(passed) ** 2).sum() / (source ** 2).sum()
    need(0.0 < fraction <= 1.0, f"transmitted fraction {fraction} outside (0, 1]")
    need(abs(fraction / expect - 1.0) < TIGHT,
         f"transmitted fraction {fraction!r}, oracle {expect!r}")


# ---------------------------------------------------------------------------
# workload make-up


def _scan_dims(smoke: bool) -> list:
    return list(range(2, 9 if smoke else 65))


def build_ops(workload: str, smoke: bool = False) -> list:
    """The operations of one pass, in their canonical order."""
    if workload == "quick-session":
        carpet = dict(period=1.0, wavelength=0.01, slit_width=0.05,
                      samples_per_period=64, periods=2 if smoke else 4,
                      z_steps=16 if smoke else 256)
        synth = dict(dimension=3, spacing=1.0, slit_width=0.05,
                     samples_per_cell=64, cells=6 if smoke else 24)
        bell = dict(dimension=3, route="analytic")
        scan = dict(dimensions=_scan_dims(smoke), kappa_pairs="fig")
        hardware = dict(pixel_pitch=10e-6, pixels=[1080, 1920], wavelength=800e-9,
                        threshold=100)
        ops = [
            Op("carpet", command("carpet", carpet), check_carpet, carpet),
            Op("synth", command("synth", synth), check_synth, synth),
            Op("bell-analytic", command("bell", bell), check_bell_analytic, bell),
            Op("constraints", command("constraints", hardware), check_constraints, hardware),
            Op("bell-scan-workers1", command("bell-scan", {**scan, "workers": 1}),
               check_scan, scan),
            Op("bell-scan-workers2", command("bell-scan", {**scan, "workers": 2}),
               check_scan_workers, scan),
        ]
        rejected = [
            ("reject-dimension-abc", ("bell", "--set", "dimension=abc"), True),
            ("reject-basis-x", ("carpet", "--set", "dimension=3", "--set", "state=basis:x"), True),
            ("reject-field-cells0", ("bell", "--set", "route=field", "--set", "cells=0"), True),
            ("reject-dimension1", ("bell", "--set", "dimension=1"), True),
            ("reject-constraints-dimension0", ("constraints", "--set", "dimension=0"), True),
            ("reject-route-bogus", ("bell", "--set", "route=bogus"), False),
            ("reject-z-steps1", ("carpet", "--set", "z_steps=1"), False),
        ]
        ops += [Op(name, argv, check_rejected, exit_code=2, known_fault=fault)
                for name, argv, fault in rejected]
        return ops
    if workload == "field-bell":
        grid = dict(route="field", samples_per_cell=64, cells=12 if smoke else 64)
        ideal = dict(grid, dimension=3)
        mixed = dict(grid, dimension=2, kappa_plus=9.0, kappa_minus=1.0)
        return [
            Op("bell-field-d3-ideal", command("bell", ideal), check_bell_field, ideal),
            Op("bell-field-d2-kappa1", command("bell", mixed), check_bell_field, mixed),
        ]
    if workload == "entangle-emit":
        params = dict(dimension=3, spacing=1.0, kappa_plus=9.0, kappa_minus=1.0,
                      slit_width=0.05, spike_width=0.05,
                      initial_window_cells=16 if smoke else 48, initial_samples_per_cell=8,
                      slit_window_cells=2 if smoke else 8, slit_samples_per_cell=160,
                      carpet_window_cells=12 if smoke else 48, carpet_samples_per_cell=64)
        return [Op("entangle", command("entangle", params), check_entangle, params)]
    raise ValueError(f"unknown workload {workload!r}")
