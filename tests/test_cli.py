"""Command-line interface: behavior, formats, determinism, exit codes."""

import contextlib
import functools
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import talbotlab
from talbotlab import commands, io as talbot_io
from talbotlab import (BiphotonGaussian, PropagationSpec, SlitArray, SynthesizerGeometry,
                       entangled_coeffs, mode_propagate, periodic_comb, sample, talbot_length,
                       two_photon_field)
from talbotlab.cli import DEFAULTS, main
from talbotlab.io import write_biphoton_csv, write_pgm


def run(args):
    return main(args)


def test_constraints_reference_report(capsys):
    assert run(["constraints"]) == 0
    out = capsys.readouterr().out
    assert "max encodable dimension (threshold 100 slits): 19" in out
    assert "4.2479 bits" in out


def test_constraints_json_emission(tmp_path):
    assert run(["constraints", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "constraints.json").read_text())
    assert payload["report"]["max_dimension"] == 19
    assert abs(payload["report"]["mutual_information_bits"] - 4.247927513443585) < 1e-12


def test_unknown_config_key_exits_2(tmp_path):
    assert run(["carpet", "--out-dir", str(tmp_path), "--set", "bogus=1"]) == 2


def test_missing_out_dir_exits_2():
    assert run(["carpet"]) == 2


def test_validation_error_exits_2(tmp_path):
    assert run(["bell", "--out-dir", str(tmp_path), "--set", "route=nope"]) == 2


def test_numerical_guard_exits_3(tmp_path):
    # slits cannot be resolved on such a coarse carpet grid
    code = run(["entangle", "--out-dir", str(tmp_path),
                "--set", "carpet_samples_per_cell=8"])
    assert code == 3


@pytest.mark.parametrize("setting", ["carpet_samples_per_cell=8", "slit_samples_per_cell=100"])
def test_entangle_guard_trip_leaves_no_files(setting, tmp_path, capsys):
    # the slit stage (too few samples per slit) or the carpet stage trips a
    # guard after the earlier stages have been built; nothing may be written
    assert run(["entangle", "--out-dir", str(tmp_path), "--set", setting]) == 3
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert list(tmp_path.glob("entangle_*")) == []


def test_carpet_emission_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["carpet", "--set", "z_steps=48", "--set", "periods=2",
            "--set", "samples_per_period=32"]
    assert run(args + ["--out-dir", str(out1)]) == 0
    assert run(args + ["--out-dir", str(out2)]) == 0
    assert (out1 / "carpet.csv").read_bytes() == (out2 / "carpet.csv").read_bytes()
    assert (out1 / "carpet.pgm").read_bytes() == (out2 / "carpet.pgm").read_bytes()
    rows = [r for r in (out1 / "carpet.csv").read_text().splitlines()
            if not r.startswith("#")]
    assert len(rows) == 48


def csv_rows(path) -> np.ndarray:
    rows = [r for r in path.read_text().splitlines() if not r.startswith("#")]
    return np.array([[float(v) for v in r.split(",")] for r in rows])


def test_carpet_rows_equal_sampling_each_step_bit_for_bit(tmp_path):
    # one sampling matrix per carpet gives the rows of one sample() per z step
    assert run(["carpet", "--out-dir", str(tmp_path), "--set", "dimension=3",
                "--set", "state=uniform", "--set", "z_steps=17", "--set", "periods=2"]) == 0
    cfg = {**DEFAULTS["carpet"], "dimension": 3}
    period = cfg["period"]
    field = periodic_comb(period, cfg["slit_width"] * period, period / 3 * np.arange(3),
                          np.full(3, 1 / math.sqrt(3), dtype=complex))
    z_t = talbot_length(period, cfg["wavelength"])
    expected = np.array([
        np.abs(sample(mode_propagate(field, PropagationSpec(cfg["wavelength"], frac * z_t)),
                      cfg["samples_per_period"], 2).values) ** 2
        for frac in np.linspace(0.0, 2.0, 17)])
    assert csv_rows(tmp_path / "carpet.csv").tobytes() == expected.tobytes()


def test_carpet_revival_structure(tmp_path):
    # revival column at the far edge, half-shifted column at the middle
    assert run(["carpet", "--out-dir", str(tmp_path), "--set", "z_steps=33",
                "--set", "periods=2", "--set", "samples_per_period=64"]) == 0
    density = csv_rows(tmp_path / "carpet.csv")
    first, last, middle = density[0], density[-1], density[16]
    assert np.abs(first - last).max() < 1e-9 * first.max()
    shifted = np.roll(first, 32)  # half a period of 64 samples
    assert np.abs(middle - shifted).max() < 1e-9 * first.max()


def test_carpet_single_mode_is_z_independent(tmp_path):
    # a pure plane wave has no transverse structure to revive
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"slit_width": 3.0, "z_steps": 9, "periods": 2}))
    # wide slit -> essentially one Fourier mode
    assert run(["carpet", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    density = csv_rows(tmp_path / "carpet.csv")
    assert density.std() / density.mean() < 1e-6


def test_carpet_basis_state_fractional_columns(tmp_path):
    # at one third of the revival span a three-level basis comb splits into
    # the three interleaved copies weighted by the revival amplitudes
    assert run(["carpet", "--out-dir", str(tmp_path), "--set", "dimension=3",
                "--set", "state=basis:0", "--set", "z_steps=25",
                "--set", "periods=3", "--set", "samples_per_period=96"]) == 0
    density = csv_rows(tmp_path / "carpet.csv")
    z0, z13 = density[0], density[8]  # z = (8/24) * 2 z_T = 2 z_T / 3
    from talbotlab import gauss_coeffs
    weights = np.abs(gauss_coeffs(1, 3).values) ** 2
    predicted = sum(w * np.roll(z0, j * 32) for j, w in enumerate(weights))
    assert np.abs(z13 - predicted).max() < 1e-4 * z0.max()
    # full revival at the end of the span
    assert np.abs(density[-1] - z0).max() < 1e-9 * z0.max()


def test_synth_profiles(tmp_path):
    assert run(["synth", "--out-dir", str(tmp_path), "--set", "cells=12",
                "--set", "amplitudes=basis:0"]) == 0
    assert (tmp_path / "synth_input.csv").exists()
    assert (tmp_path / "synth_ideal.csv").exists()
    text = (tmp_path / "synth_output.csv").read_text().splitlines()
    assert text[1] == "x,re,im"
    data = np.array([[float(v) for v in r.split(",")] for r in text[2:]])
    intensity = data[:, 1] ** 2 + data[:, 2] ** 2
    assert intensity.max() > 0
    # comb teeth spaced by the effective period (3 cells of spacing 1)
    peaks = [data[i, 0] for i in range(1, len(data) - 1)
             if intensity[i] > intensity[i - 1] and intensity[i] > intensity[i + 1]
             and intensity[i] > 0.04 * intensity.max()]
    gaps = np.diff(peaks)
    assert np.allclose(gaps, 3.0, atol=0.1)


def test_entangle_pipeline_files(tmp_path):
    assert run(["entangle", "--out-dir", str(tmp_path),
                "--set", "carpet_window_cells=24",
                "--set", "initial_window_cells=24"]) == 0
    for stem in ("entangle_initial", "entangle_slits", "entangle_carpet"):
        assert (tmp_path / f"{stem}.csv").exists()
        assert (tmp_path / f"{stem}.csv.json").exists()
        assert (tmp_path / f"{stem}.pgm").read_bytes()[:3] == b"P5\n"
    meta = json.loads((tmp_path / "entangle_slits.csv.json").read_text())
    assert 0 < meta["config"]["transmitted_fraction"] < 1


def test_entangle_carpet_equals_the_dense_field_files(tmp_path):
    # 700 carpet rows: the density's row blocks end in a short one
    overrides = {"initial_window_cells": 8, "slit_window_cells": 2,
                 "carpet_window_cells": 10, "carpet_samples_per_cell": 70}
    args = ["entangle", "--out-dir", str(tmp_path)]
    for key, value in overrides.items():
        args += ["--set", f"{key}={value}"]
    assert run(args) == 0
    cfg = {**DEFAULTS["entangle"], **overrides}
    s = cfg["spacing"]
    coeffs = entangled_coeffs(3, s, BiphotonGaussian(cfg["kappa_plus"] * s,
                                                     cfg["kappa_minus"] * s))
    geom = SynthesizerGeometry.for_dimension(3, s, spike_width=cfg["spike_width"] * s)
    carpet = two_photon_field(coeffs, SlitArray(3, s, cfg["slit_width"] * s), geom,
                              samples_per_cell=70, cells=10)
    oracle = tmp_path / "oracle"
    oracle.mkdir()
    density = write_biphoton_csv(carpet, oracle / "entangle_carpet.csv", config=cfg)
    write_pgm(density, oracle / "entangle_carpet.pgm", config=cfg)
    for name in ("entangle_carpet.csv", "entangle_carpet.csv.json", "entangle_carpet.pgm"):
        assert (tmp_path / name).read_bytes() == (oracle / name).read_bytes(), name


SMALL_ENTANGLE = ["entangle", "--set", "initial_window_cells=8", "--set", "slit_window_cells=2",
                  "--set", "carpet_window_cells=10", "--set", "carpet_samples_per_cell=70"]


@pytest.fixture
def forks(monkeypatch):
    """The pids that os.fork returns in this process while the test runs."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork: entangle writes in sequence")
    real_fork, pids = os.fork, []

    def recorded_fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    return pids


def test_entangle_forked_files_equal_the_serial_writes(tmp_path, monkeypatch, forks):
    # a child writes the initial and slit stages; without os.fork the same
    # writes run one after the other in this process
    forked, serial = tmp_path / "forked", tmp_path / "serial"
    assert run(SMALL_ENTANGLE + ["--out-dir", str(forked)]) == 0
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    assert run(SMALL_ENTANGLE + ["--out-dir", str(serial)]) == 0
    names = sorted(p.name for p in forked.iterdir())
    assert len(names) == 9 and names == sorted(p.name for p in serial.iterdir())
    for name in names:
        assert (forked / name).read_bytes() == (serial / name).read_bytes(), name


@pytest.mark.parametrize("buffer_bytes, held_bytes", [
    (2 ** 26, commands._HELD_BYTES),
    (0, 0),            # raw files: each carpet repeat is read back from the disk, and
                       # the child's pipe is unbuffered, so it waits after each line
])
def test_entangle_shared_carpet_equals_the_serial_write(tmp_path, monkeypatch, forks,
                                                        buffer_bytes, held_bytes):
    # blocks of 8 rows: the child's share of the 700-row carpet spans several,
    # and some of its rows recur further down, where this process reads their
    # lines back from the carpet file
    monkeypatch.setattr(talbot_io, "_TABLE_VALUES", 8 * 700)
    monkeypatch.setattr(talbot_io, "open", functools.partial(open, buffering=buffer_bytes),
                        raising=False)
    monkeypatch.setattr(commands, "_HELD_BYTES", held_bytes)
    piped, read_lines = [], commands._read_lines

    def counted_read(pipe, count):
        for line in read_lines(pipe, count):
            piped.append(line)
            yield line

    monkeypatch.setattr(commands, "_read_lines", counted_read)
    forked, serial = tmp_path / "forked", tmp_path / "serial"
    assert run(SMALL_ENTANGLE + ["--out-dir", str(forked)]) == 0
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    assert run(SMALL_ENTANGLE + ["--out-dir", str(serial)]) == 0
    for name in sorted(p.name for p in serial.iterdir()):
        assert (forked / name).read_bytes() == (serial / name).read_bytes(), name
    assert len(piped) > 2 * 8
    lines = (forked / "entangle_carpet.csv").read_bytes().splitlines(keepends=True)
    assert any(lines.count(line) > 1 for line in piped)


@pytest.mark.parametrize("blocked", [None, "entangle_slits.csv", "entangle_carpet.csv"])
def test_entangle_leaves_no_open_pipe_and_no_child(blocked, tmp_path, capfd, forks):
    # after a write that succeeds, or fails in the child or in this process
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count open files in")
    out = tmp_path / "out"
    if blocked:
        (out / blocked).mkdir(parents=True)
    before = len(os.listdir("/proc/self/fd"))
    assert run(SMALL_ENTANGLE + ["--out-dir", str(out)]) == (2 if blocked else 0)
    assert len(os.listdir("/proc/self/fd")) == before
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # reaped: no child left to wait for
        os.waitpid(forks[0], os.WNOHANG)
    assert len(capfd.readouterr().err.splitlines()) == (1 if blocked else 0)
    # a child that fails sends no lines, and this process stops at the first it needs
    assert (out / "entangle_carpet.pgm").exists() == (blocked is None)


def test_entangle_prints_one_line_through_a_pipe(tmp_path):
    # block-buffered stdout: the child must not write the parent's buffer again
    src = str(Path(talbotlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "talbotlab", *SMALL_ENTANGLE,
                           "--out-dir", str(tmp_path)], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("entangle:") == 1 and proc.stdout.count("\n") == 1
    assert proc.stderr == ""


@pytest.mark.parametrize("blocked", [".", "entangle_slits.csv", "entangle_carpet.csv"])
def test_write_failure_exits_2_with_one_line(blocked, tmp_path, capfd, forks):
    # the out-dir is a file, or a directory stands where the child (slits) or
    # this process (carpet) writes a CSV; capfd sees the child's stderr too
    out = tmp_path / "out"
    if blocked == ".":
        out.write_text("")
    else:
        (out / blocked).mkdir(parents=True)
    assert run(SMALL_ENTANGLE + ["--out-dir", str(out)]) == 2
    captured = capfd.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("cannot write "), captured.err
    assert str(out / blocked if blocked != "." else out) in err[0]
    assert "Traceback" not in captured.err and captured.out == ""
    assert len(forks) == (blocked != ".")
    for pid in forks:
        with pytest.raises(ChildProcessError):  # the writer child was reaped
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_unseekable_csv_target_exits_2_with_one_line(tmp_path):
    # a matrix CSV is read back as it is written, so it cannot go to a pipe;
    # the writer neither waits for a reader nor fails with a traceback
    out = tmp_path / "out"
    out.mkdir()
    os.mkfifo(out / "carpet.csv")
    src = str(Path(talbotlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "talbotlab", "carpet", "--out-dir", str(out)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)
    err = proc.stderr.splitlines()
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(err) == 1 and err[0].startswith("cannot write "), proc.stderr


def test_cli_runs_numpy_with_one_blas_thread(tmp_path):
    # the pin is set before NumPy loads, only for a command that computes,
    # and an OPENBLAS_NUM_THREADS of the caller's own is kept
    script = (
        "import contextlib, io, json, os, sys\n"
        "import talbotlab.cli\n"
        "seen = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = talbotlab.cli.main(argv)\n"
        "    seen.append([code, os.environ.get('OPENBLAS_NUM_THREADS')])\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 0\n"
        "print(json.dumps([seen, tasks]))\n"
    )
    out = ["--out-dir", str(tmp_path)]
    src = str(Path(talbotlab.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}

    def session(argvs, **preset):
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], cwd=tmp_path,
                              env={**env, **preset, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    seen, tasks = session([["constraints"] + out, ["bell", "--set", "dimension=abc"] + out,
                           ["bell"] + out])
    assert seen == [[0, None], [2, None], [0, "1"]]
    assert session([["bell"] + out], OPENBLAS_NUM_THREADS="2")[0] == [[0, "2"]]
    if not tasks:
        pytest.skip("no /proc/self/task to count threads in")
    assert tasks == 1


def test_bell_analytic_json(tmp_path):
    assert run(["bell", "--out-dir", str(tmp_path), "--set", "dimension=2"]) == 0
    payload = json.loads((tmp_path / "bell.json").read_text())
    assert abs(payload["I"] - 2.8284271247461903) < 1e-9
    assert payload["provenance"]["route"] == "analytic"


def test_bell_field_route_small(tmp_path):
    assert run(["bell", "--out-dir", str(tmp_path), "--set", "dimension=2",
                "--set", "route=field", "--set", "samples_per_cell=64",
                "--set", "cells=16"]) == 0
    payload = json.loads((tmp_path / "bell.json").read_text())
    assert abs(payload["I"] - 2.8284271247461903) < 0.02


@pytest.mark.parametrize("route", ["analytic", "field"])
def test_bell_json_records_the_resolved_config(route, tmp_path):
    assert run(["bell", "--out-dir", str(tmp_path), "--set", "dimension=2",
                "--set", f"route={route}", "--set", "cells=16"]) == 0
    payload = json.loads((tmp_path / "bell.json").read_text())
    assert payload["provenance"]["route"] == route
    assert payload["provenance"]["config"] == {**DEFAULTS["bell"], "dimension": 2,
                                               "route": route, "cells": 16}


@pytest.mark.parametrize("route", ["analytic", "field"])
def test_bell_emission_is_deterministic(route, tmp_path):
    args = ["bell", "--set", f"route={route}", "--set", "cells=16"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out-dir", str(out1)]) == 0
    assert run(args + ["--out-dir", str(out2)]) == 0
    assert (out1 / "bell.json").read_bytes() == (out2 / "bell.json").read_bytes()


def test_bell_scan_csv(tmp_path):
    assert run(["bell-scan", "--out-dir", str(tmp_path),
                "--set", "dimensions=[2,3]",
                "--set", "kappa_pairs=[[9.0,0.0],[9.0,1.0]]"]) == 0
    lines = (tmp_path / "bell_scan.csv").read_text().splitlines()
    assert lines[1] == "D,kappa_plus,kappa_minus,R,route,I_D"
    body = [l.split(",") for l in lines[2:]]
    assert len(body) == 4
    assert [row[0] for row in body] == ["2", "3", "2", "3"]
    ideal_i2 = float(body[0][5])
    assert abs(ideal_i2 - 2.8284271247461903) < 1e-9


def test_bell_scan_deterministic_with_workers(tmp_path):
    out1, out2 = tmp_path / "w1", tmp_path / "w4"
    base = ["bell-scan", "--set", "dimensions=[2,3,4]",
            "--set", "kappa_pairs=[[9.0,0.0],[9.0,0.3]]"]
    assert run(base + ["--set", "workers=1", "--out-dir", str(out1)]) == 0
    assert run(base + ["--set", "workers=4", "--out-dir", str(out2)]) == 0
    a = (out1 / "bell_scan.csv").read_text().splitlines()[1:]
    b = (out2 / "bell_scan.csv").read_text().splitlines()[1:]
    assert a == b


# rejected by the configuration check, or by the constraints arithmetic, before NumPy loads
CONFIG_ERRORS = [
    "bell --set dimension=abc",
    "carpet --set dimension=3 --set state=basis:x",
    "bell --set route=field --set cells=0",
    "bell --set dimension=1",
    "bell-scan --set dimensions=[1,2]",
    "constraints --set dimension=0",
    "bell --set dimension=2.5",
    "bell --set envelope=maybe",
    "bell --set spacing=-1",
    "constraints --set pixels=3",
    "constraints --set pixels=[1,2,3]",
    "bell-scan --set kappa_pairs=5",
    "bell-scan --set dimensions=5",
    "bell --set convention=anticorrelated",
    "constraints --set pixel_pitch=1e308",
    "constraints --set pixel_pitch=1e-200",  # the Talbot length underflows to 0
    "bell --config list.json",
    "bell --set route=bogus",
    "bell-scan --set route=bogus",
    "carpet --set dimension=3 --set state=basis:3",
    "synth --set amplitudes=basis:-1",
]
REJECTED = CONFIG_ERRORS + [
    # sizes over the 2**25-entry bound are refused before anything is allocated
    "bell --set dimension=1000000000000",
    "bell --set route=field --set samples_per_cell=1e300",
    "synth --set cells=1000000",
    "carpet --set z_steps=1000000000",
    "bell-scan --set dimensions=[100000]",
    "entangle --set carpet_window_cells=100000 --set initial_window_cells=1"
    " --set slit_window_cells=1",
    "carpet --set dimension=1000000000000",
    "synth --set dimension=1000000",
    "entangle --set dimension=1000000000000",
    # a one-sample axis has no pitch
    "entangle --set initial_window_cells=1 --set initial_samples_per_cell=1",
    "entangle --set slit_window_cells=1 --set slit_samples_per_cell=1",
    # amplitudes whose norm overflows, rejected without a NumPy warning
    "synth --set amplitudes=[[1e308,0],[1e308,0],[0,0]]",
    "carpet --set dimension=2 --set state=[[1e308,0],[1e308,0]]",
    # lengths whose squares or comb powers leave the floating-point range
    "synth --set spacing=1e300",
    "bell --set route=field --set spacing=1e300",
    "carpet --set period=1e-300",
    "carpet --set period=1e-100 --set wavelength=1e300",  # the Talbot length underflows to 0
    "carpet --set period=1e300",
    "carpet --set slit_width=1e300",
    "synth --set slit_width=1e-300",
]


@pytest.mark.parametrize("command", REJECTED)
def test_bad_input_exits_2_with_one_message(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1]")  # a config file that is not an object
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked RuntimeWarning is a second message
        assert run(command.split() + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_basis_index_too_long_to_convert_exits_2(tmp_path, capsys):
    # int() refuses a decimal string of more than 4300 digits
    assert run(["carpet", "--out-dir", str(tmp_path), "--set", "state=basis:" + "1" * 5000]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_config_errors_and_constraints_load_no_numpy(tmp_path):
    # one fresh interpreter: the package, the CLI, the constraints report and
    # every configuration error run without importing NumPy or dataclasses
    (tmp_path / "list.json").write_text("[1]")
    cases = [("constraints", 0)] + [(command, 2) for command in CONFIG_ERRORS]
    script = (
        "import contextlib, io, json, sys\n"
        "import talbotlab, talbotlab.cli\n"
        "seen = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = talbotlab.cli.main(argv)\n"
        "    seen.append([code, 'numpy' in sys.modules, 'dataclasses' in sys.modules])\n"
        "print(json.dumps(seen))\n"
    )
    argvs = [command.split() + ["--out-dir", str(tmp_path / "out")] for command, _ in cases]
    src = str(Path(talbotlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen == [[code, False, False] for _, code in cases]


def test_package_exports_resolve_to_their_home_objects():
    for name, module in talbotlab._EXPORTS.items():
        home = importlib.import_module(f"talbotlab.{module}")
        assert getattr(talbotlab, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        talbotlab.no_such_name


def test_flat_grating_envelope_passes_only_the_zeroth_order(tmp_path):
    # spikes far wider than the grating period leave only the m = 0 order, whose
    # overflowing neighbours underflow to 0 without a warning: the output is the aperture
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["synth", "--out-dir", str(tmp_path), "--set", "spike_width=1e300",
                    "--set", "cells=6"]) == 0
    output = (tmp_path / "synth_output.csv").read_bytes()
    assert output == (tmp_path / "synth_input.csv").read_bytes()


def test_bell_and_bell_scan_agree_off_unit_spacing(tmp_path):
    widths = ["--set", "spacing=2"]
    assert run(["bell", "--out-dir", str(tmp_path), "--set", "kappa_plus=9",
                "--set", "kappa_minus=1"] + widths) == 0
    assert run(["bell-scan", "--out-dir", str(tmp_path), "--set", "dimensions=[3]",
                "--set", "kappa_pairs=[[9,1]]"] + widths) == 0
    single = json.loads((tmp_path / "bell.json").read_text())["I"]
    row = (tmp_path / "bell_scan.csv").read_text().splitlines()[2].split(",")
    assert abs(float(row[5]) - single) < 1e-12


# digits are left out of the free text so that it never parses as a number:
# a dimension just under the size bound still builds D x D matrices of 2**25 entries
_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=8)
_ANY = st.one_of(st.none(), st.booleans(), st.integers(),
                 st.floats(allow_nan=True, allow_infinity=True), _TEXT,
                 st.lists(st.one_of(st.integers(), st.floats()), max_size=3))
# mostly values of the right type, so that most draws get past the config check
_NUMBER = st.one_of(st.floats(min_value=0.0), st.integers(min_value=0), _ANY)
_DIMENSION = st.one_of(st.integers(min_value=2, max_value=64), st.integers(max_value=64),
                       st.floats(max_value=64), _TEXT, st.booleans(), st.none())
_PIXELS = st.one_of(st.lists(st.integers(min_value=0), min_size=2, max_size=2), _ANY)
_FUZZED = {
    "bell": {"dimension": _DIMENSION, "kappa_plus": _NUMBER, "kappa_minus": _NUMBER,
             "spacing": _NUMBER, "slit_width": _NUMBER, "cells": _NUMBER,
             "envelope": _ANY},
    "constraints": {"pixel_pitch": _NUMBER, "pixels": _PIXELS, "wavelength": _NUMBER,
                    "threshold": _NUMBER, "dimension": _NUMBER},
}


@st.composite
def _fuzzed_command(draw):
    name = draw(st.sampled_from(sorted(_FUZZED)))
    keys = draw(st.lists(st.sampled_from(sorted(_FUZZED[name])), unique=True, max_size=4))
    argv = [name]
    for key in keys:
        value = draw(_FUZZED[name][key])
        argv += ["--set", f"{key}={value if isinstance(value, str) else json.dumps(value)}"]
    return argv


@settings(max_examples=150, deadline=None)
@given(_fuzzed_command())
def test_fuzzed_settings_exit_cleanly(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run(argv + ["--out-dir", out])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
