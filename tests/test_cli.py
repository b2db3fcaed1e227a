"""Command-line interface: behavior, formats, determinism, exit codes."""

import functools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import talbotlab
import talbotlab.commands  # imported here so that the dense-oracle test's patches reach it
from reference import dense_slit_stage, normalized_pair
from talbotlab import _floatfmt, fields, io as talbot_io, spdc
from talbotlab.cli import DEFAULTS, _load_config, build_parser, main
from talbotlab.errors import UnderResolved
from talbotlab.fields import MAX_ENTRIES, mode_propagate, periodic_comb, sample
from talbotlab.io import write_density_csv, write_pgm
from talbotlab.spdc import (BiphotonGaussian, SlitArray, _check_resolution, biphoton_amplitude,
                            entangled_coeffs, two_photon_density, two_photon_field)


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


@pytest.mark.parametrize("width", ["1e-9", "5e-324", repr(3 / (MAX_ENTRIES - 1))])
def test_slit_refusal_states_a_count_only_within_the_size_bound(width, tmp_path, capsys):
    # 1e-9 and 5e-324 need more than 2**25 samples per slit spacing; the third
    # width needs 2**25 - 1, which passes the guard, while one sample fewer does not
    assert run(["bell", "--out-dir", str(tmp_path), "--set", "route=field",
                "--set", f"slit_width={width}"]) == 3
    [line] = capsys.readouterr().err.splitlines()
    if float(width) < 1e-8:
        assert line.endswith("; no grid within the 2**25-entry bound resolves the slit")
        return
    stated = re.search(r"; use at least (\d+) samples per slit spacing$", line)
    count = int(stated.group(1))
    assert count == MAX_ENTRIES - 1
    slits = SlitArray(3, 1.0, float(width))
    _check_resolution(slits, 1.0 / count, 3, "")
    with pytest.raises(UnderResolved):
        _check_resolution(slits, 1.0 / (count - 1), 3, "")


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
    expected = np.array([
        np.abs(sample(mode_propagate(field, frac), period, cfg["samples_per_period"],
                      2).values) ** 2
        for frac in np.linspace(0.0, 2.0, 17)])
    assert csv_rows(tmp_path / "carpet.csv").tobytes() == expected.tobytes()


@pytest.mark.parametrize("state", [[], ["--set", "dimension=3", "--set", "state=uniform"]],
                         ids=["D1", "D3_uniform"])
def test_carpet_wavelength_moves_no_byte_below_the_config_line(tmp_path, state):
    # the rows sit at fractions of the Talbot length, which the wavelength only scales
    def emitted(wavelength):
        out = tmp_path / str(wavelength)
        assert run(["carpet", "--out-dir", str(out), "--set", f"wavelength={wavelength}",
                    "--set", "z_steps=256", *state]) == 0
        rows = (out / "carpet.csv").read_bytes().split(b"\n", 1)[1]
        pixels = (out / "carpet.pgm").read_bytes().rsplit(b"\n255\n", 1)[1]
        return rows, pixels

    reference = emitted(0.01)
    for wavelength in (0.003, 0.0123):
        assert emitted(wavelength) == reference, wavelength


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
    from talbotlab.qudits import gauss_coeffs
    weights = np.abs(gauss_coeffs(3)) ** 2
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


# a small run of every command: the values it sets, and the files it writes
EVERY_COMMAND = {
    "carpet": ({"z_steps": 8}, ["carpet.csv", "carpet.pgm"]),
    "synth": ({}, ["synth_ideal.csv", "synth_input.csv", "synth_output.csv"]),
    "entangle": ({"initial_window_cells": 8, "slit_window_cells": 4, "carpet_window_cells": 6},
                 [f"entangle_{stage}.{kind}" for stage in ("carpet", "initial", "slits")
                  for kind in ("csv", "csv.json", "pgm")]),
    "bell": ({}, ["bell.json"]),
    "bell-scan": ({"dimensions": [2, 3]}, ["bell_scan.csv"]),
    "constraints": ({}, ["constraints.json"]),
}


@pytest.mark.parametrize("command", sorted(EVERY_COMMAND))
def test_every_file_records_the_resolved_config(command, tmp_path):
    # each CSV opens with a "# config:" line and each PGM carries one; each
    # sidecar, bell.json and constraints.json holds the config: every file
    # names the resolved configuration of the run that wrote it
    overrides, names = EVERY_COMMAND[command]
    argv = [command, "--out-dir", str(tmp_path)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    assert run(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    resolved = json.loads(json.dumps({**DEFAULTS[command], **overrides}))
    comment = b"# config: "
    for path in tmp_path.iterdir():
        if path.suffix == ".csv":
            first = path.read_bytes().split(b"\n", 1)[0]
            assert first.startswith(comment), path.name
            recorded = json.loads(first[len(comment):])
        elif path.suffix == ".pgm":
            header = path.read_bytes().split(b"\n255\n", 1)[0].split(b"\n")
            [line] = [line for line in header if line.startswith(comment)]
            recorded = json.loads(line[len(comment):])
        elif path.name == "bell.json":
            recorded = json.loads(path.read_text())["provenance"]["config"]
        else:  # a CSV's grid sidecar, or constraints.json
            recorded = json.loads(path.read_text())["config"]
        if path.name.startswith("entangle_slits.csv"):  # the CSV and its sidecar
            assert 0 < recorded.pop("transmitted_fraction") <= 1
        assert recorded == resolved, path.name


def test_entangle_carpet_equals_the_dense_field_files(tmp_path):
    # all nine files, parsed back, against the dense complex grids of the three
    # stages, each on the centred axis of pitch spacing / samples_per_cell: headers
    # and sidecars equal but for the transmitted fraction and the heatmap's full
    # scale (each within 1e-12), densities within 1e-14 of their peak and pixels
    # within one level; 700 carpet rows: the density's row blocks end in a short one
    overrides = {"initial_window_cells": 8, "slit_window_cells": 2,
                 "carpet_window_cells": 10, "carpet_samples_per_cell": 70}
    args = ["entangle", "--out-dir", str(tmp_path)]
    for key, value in overrides.items():
        args += ["--set", f"{key}={value}"]
    assert run(args) == 0
    cfg = {**DEFAULTS["entangle"], **overrides}
    s = cfg["spacing"]
    model = BiphotonGaussian(cfg["kappa_plus"] * s, cfg["kappa_minus"] * s)
    slits = SlitArray(3, s, cfg["slit_width"] * s)
    oracle = tmp_path / "oracle"
    oracle.mkdir()

    def write(name, x, dx, density, csv_cfg):
        write_density_csv(density, oracle / f"entangle_{name}.csv", (float(x[0]), dx), csv_cfg)
        write_pgm(density, oracle / f"entangle_{name}.pgm", cfg)

    def source(prefix):
        cells, spc = cfg[f"{prefix}_window_cells"], cfg[f"{prefix}_samples_per_cell"]
        dx = s / spc
        x = -cells * spc * dx / 2.0 + dx * np.arange(cells * spc)
        return x, dx, normalized_pair(biphoton_amplitude(model, x[:, None], x[None, :]), dx)

    x, dx, pair = source("initial")
    write("initial", x, dx, np.abs(pair) ** 2, cfg)
    x, dx, pair = source("slit")
    density, transmitted = dense_slit_stage(pair, x, dx, slits)
    write("slits", x, dx, density, {**cfg, "transmitted_fraction": transmitted})
    coeffs = entangled_coeffs(3, s, model)
    x, dx, psi = two_photon_field(coeffs, slits, samples_per_cell=70, cells=10,
                                  spike_width=cfg["spike_width"] * s)
    write("carpet", x, dx, np.abs(psi) ** 2, cfg)
    names = sorted(p.name for p in oracle.iterdir())
    assert len(names) == 9 and names == sorted(p.name for p in tmp_path.iterdir()
                                               if p.is_file())
    loose = re.compile(rb'(?<="transmitted_fraction":) ?[-+.e0-9]+|(?<=# full scale = )[-+.e0-9]+')

    def parts(path):
        """A file's header text with the loose numbers cut out, those numbers,
        and its CSV entries or PGM pixels."""
        raw = path.read_bytes()
        head, body = raw, None
        if path.suffix == ".pgm":
            head, body = raw.rsplit(b"\n255\n", 1)
            body = np.frombuffer(body, np.uint8).astype(int)
        elif path.suffix == ".csv":
            head, body = raw.split(b"\n", 1)  # the config line, then the rows
            body = np.loadtxt(body.decode().splitlines(), delimiter=",", ndmin=2)
        return loose.sub(b"~", head), [float(v) for v in loose.findall(head)], body

    for name in names:
        (head, numbers, body), (want, want_numbers, want_body) = (parts(tmp_path / name),
                                                                  parts(oracle / name))
        assert head == want and len(numbers) == len(want_numbers), name
        assert numbers == pytest.approx(want_numbers, rel=1e-12, abs=0), name
        if name.endswith(".csv"):
            assert body.shape == want_body.shape, name
            assert np.abs(body - want_body).max() <= 1e-14 * want_body.max(), name
        elif name.endswith(".pgm"):
            assert body.size == want_body.size and np.abs(body - want_body).max() <= 1, name


def test_no_command_path_runs_the_dense_pair_oracle(tmp_path, monkeypatch):
    # the dense two-photon grid route stays in the package as the tests' oracle:
    # patched to raise wherever a talbotlab module holds it, no command reaches it
    def refuse(*args, **kwargs):
        raise AssertionError("a command ran the dense two-photon grid route")

    modules = [m for name, m in sys.modules.items()
               if name == "talbotlab" or name.startswith("talbotlab.")]
    for home, name in ((spdc, "two_photon_field"), (fields, "biphoton_propagate"),
                       (talbot_io, "write_biphoton_csv")):
        original = getattr(home, name)
        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, refuse)
    if hasattr(os, "fork"):
        assert run(SMALL_ENTANGLE + ["--out-dir", str(tmp_path / "forked")]) == 0
        monkeypatch.delattr(os, "fork")
    assert run(SMALL_ENTANGLE + ["--out-dir", str(tmp_path / "serial")]) == 0
    assert run(["bell", "--set", "route=field", "--set", "cells=12",
                "--out-dir", str(tmp_path / "bell")]) == 0
    assert run(["bell-scan", "--set", "route=field", "--set", "dimensions=[2,3]",
                "--out-dir", str(tmp_path / "scan")]) == 0


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


@pytest.mark.parametrize("raw", [False, True], ids=["buffered", "raw"])
def test_entangle_forked_files_equal_the_serial_writes(tmp_path, monkeypatch, forks, raw):
    # a child writes the initial and slit stages and the carpet heatmap; without
    # os.fork the same writes run one after the other in this process
    if raw:  # raw files, lines gathered 8 of the 700 rows at a time: each
        # carpet repeat is read back from the disk, across gather blocks
        monkeypatch.setattr(_floatfmt, "_CHUNK", 8 * 700)
        monkeypatch.setattr(talbot_io, "open", functools.partial(open, buffering=0),
                            raising=False)
    forked, serial = tmp_path / "forked", tmp_path / "serial"
    assert run(SMALL_ENTANGLE + ["--out-dir", str(forked)]) == 0
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    assert run(SMALL_ENTANGLE + ["--out-dir", str(serial)]) == 0
    names = sorted(p.name for p in forked.iterdir())
    assert len(names) == 9 and names == sorted(p.name for p in serial.iterdir())
    for name in names:
        assert (forked / name).read_bytes() == (serial / name).read_bytes(), name


def test_entangle_formats_each_carpet_value_once_in_one_process(tmp_path, monkeypatch, forks):
    # the command formats the whole carpet CSV, each distinct value once; the
    # child's calls stay in the child
    texts, formatted = _floatfmt._texts, []

    def counted(bits, text):
        formatted.extend(bits.tolist())
        texts(bits, text)

    monkeypatch.setattr(_floatfmt, "_texts", counted)
    assert run(SMALL_ENTANGLE + ["--out-dir", str(tmp_path)]) == 0
    assert len(forks) == 1
    cfg = {**DEFAULTS["entangle"], "carpet_window_cells": 10, "carpet_samples_per_cell": 70}
    s = cfg["spacing"]
    coeffs = entangled_coeffs(3, s, BiphotonGaussian(cfg["kappa_plus"] * s,
                                                     cfg["kappa_minus"] * s))
    carpet = two_photon_density(coeffs, SlitArray(3, s, cfg["slit_width"] * s),
                                samples_per_cell=70, cells=10,
                                spike_width=cfg["spike_width"] * s)[2]
    assert sorted(formatted) == np.unique(carpet.view(np.uint64)).tolist()


@pytest.mark.parametrize("blocked", [None, "entangle_slits.csv", "entangle_carpet.csv"])
def test_entangle_leaves_no_open_file_and_no_child(blocked, tmp_path, capfd, forks):
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
    # the child writes the carpet heatmap after the slit stage, whatever this process does
    assert (out / "entangle_carpet.pgm").exists() == (blocked != "entangle_slits.csv")


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
    assert str(out / "carpet.csv") in err[0]   # the file, not its directory


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
    "constraints --set dimension=1",
    "constraints --set threshold=5000",  # at most D = 0 on the default panel
    "constraints --set pixels=[1,1]",
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
    # a grating period whose square underflows, and spikes that overflow to inf
    "bell --set route=field --set envelope=true --set spacing=1e-320",
    "synth --set spike_width=1e300 --set spacing=1e10",
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


@pytest.mark.parametrize("command, reason", [
    ("bell --set kappa_minus=1e-170", "kappa_minus = 1e-170 is positive, but its square"
                                      " underflows to 0"),
    ("bell-scan --set kappa_pairs=[[1e-200,1]]", "kappa_plus = 1e-200 is positive, but its"
                                                 " square underflows to 0"),
    ("bell --set kappa_minus=1e200", "kappa_minus = 1e+200 is positive, but its square overflows"),
], ids=["bell-underflow", "bell-scan-underflow", "bell-overflow"])
def test_source_width_refusal_names_the_width_and_the_bound(command, reason, tmp_path, capsys):
    # each value is positive and finite; only its square leaves the floating-point range
    assert run(command.split() + ["--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"invalid configuration: {reason}"]


@pytest.mark.parametrize("command", [
    "bell --set kappa_minus=1e-160 --set spacing=1e-10",
    "bell-scan --set kappa_pairs=[[9,1e-160]] --set spacing=1e-10",
    "entangle --set kappa_minus=1e-160 --set spacing=1e-10",
], ids=["bell", "bell-scan", "entangle"])
def test_source_width_refusal_names_the_value_given_and_the_spacing(command, tmp_path, capsys):
    # the width in length units, 1e-170, is the product of the two values given
    assert run(command.split() + ["--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "invalid configuration: kappa_minus = 1e-160 (times spacing = 1e-10) is positive,"
        " but its square underflows to 0"]


def test_bell_refuses_tables_above_the_size_bound_naming_the_largest_dimension(tmp_path, capsys):
    for route in ("analytic", "field"):
        argv = ["bell", "--out-dir", str(tmp_path), "--set", "dimension=1025",
                "--set", f"route={route}"]
        assert run(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "invalid configuration: bell.json would hold 4 D^2 table entries, above 4194304"
            " (2**22) at D = 1025; use a dimension of at most 1024"]
    assert not list(tmp_path.iterdir())
    args = build_parser().parse_args(["bell", "--set", "dimension=1024"])
    assert _load_config("bell", args)["dimension"] == 1024


@pytest.mark.skipif(not (sys.platform.startswith("linux") and os.path.exists("/proc/self/status")),
                    reason="needs RLIMIT_AS and /proc/self/status")
def test_out_of_memory_exits_2_with_one_line(tmp_path):
    # the child caps its own address space 64 MB above what it has mapped once
    # NumPy is loaded, so the D = 1024 tables cannot be allocated
    script = (
        "import re, resource, sys\n"
        "import numpy, talbotlab.commands\n"
        "from talbotlab.cli import main\n"
        "size = int(re.search(r'VmSize:\\s+(\\d+) kB', open('/proc/self/status').read())[1])\n"
        "cap = (size << 10) + (64 << 20)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "sys.exit(main(['bell', '--set', 'dimension=1024', '--out-dir', sys.argv[1]]))\n"
    )
    src = str(Path(talbotlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == ["out of memory; use a smaller configuration"]
    assert not (tmp_path / "bell.json").exists()


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
    # a field-route scan point takes bell's default slit width, grid and envelope
    # from a constant of its own: equal text on both sides pins it to DEFAULTS["bell"];
    # at spacing 0.1 the period D s is not a power of two times D, and at D = 3,
    # s = 0.1 and D = 7, s = 0.3 the period over D is not s to the last bit
    for dimension, spacing in ((3, "2"), (3, "0.1"), (7, "0.3")):
        for route in ("analytic", "field"):
            out = tmp_path / f"{dimension}-{spacing}" / route
            common = ["--out-dir", str(out), "--set", f"spacing={spacing}",
                      "--set", f"route={route}"]
            assert run(["bell", *common, "--set", f"dimension={dimension}",
                        "--set", "kappa_plus=9", "--set", "kappa_minus=1"]) == 0
            assert run(["bell-scan", *common, "--set", f"dimensions=[{dimension}]",
                        "--set", "kappa_pairs=[[9,1]]"]) == 0
            single = json.loads((out / "bell.json").read_text())["I"]
            row = (out / "bell_scan.csv").read_text().splitlines()[2].split(",")
            assert repr(single) == row[5], (dimension, spacing, route)


@pytest.mark.parametrize("command", ["bell --set route=field --set dimension=300",
                                     "bell-scan --set route=field --set dimensions=[300]"])
def test_oversized_field_bell_is_refused_before_the_comb_basis(command, tmp_path, monkeypatch,
                                                               capsys):
    # 64 samples in each of 300 cells times D^2 binned products is far past the size
    # bound; the refusal comes before the comb basis and its factorisation are built
    def unreachable(*args, **kwargs):
        raise AssertionError("comb basis built for a refused grid")

    monkeypatch.setattr("talbotlab.bell.comb_basis", unreachable)
    assert run(command.split() + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"invalid configuration: binned column products would exceed \d+"
                        r" \(2\*\*25\) array entries\n", err), err


@pytest.mark.parametrize("width, line", [
    ("0.3", "adjacent basis overlap 6.22e-02 > 1e-4; narrow the slits (width 0.3 vs spacing 1)"),
    ("0.1648", "adjacent basis overlap 1.01e-04 > 1e-4; narrow the slits (width 0.1648 vs"
               " spacing 1)"),
], ids=["0.3", "0.1648"])
def test_wide_field_slits_are_refused_before_the_comb_basis(width, line, tmp_path, monkeypatch,
                                                           capsys):
    # the overlap guard reads the slit array alone, so it refuses before the comb
    # basis and its factorisation are built, with the one line it gave after them
    def unreachable(*args, **kwargs):
        raise AssertionError("comb basis built for slits the overlap guard refuses")

    monkeypatch.setattr("talbotlab.bell.comb_basis", unreachable)
    assert run(["bell", "--out-dir", str(tmp_path), "--set", "route=field",
                "--set", f"slit_width={width}"]) == 2
    assert capsys.readouterr().err == (f"invalid configuration: {line}; use a slit width of"
                                       " at most 0.1647 slit spacings\n")


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


def _mostly(valid, other):
    """Nine draws in ten from ``valid``, the tenth from ``other``."""
    return st.integers(min_value=0, max_value=9).flatmap(lambda k: valid if k else other)


# a window of a few cells and samples, or a value that is refused: a size far past
# the 2**25-entry bound must be refused before anything of that size is allocated
_REFUSED_SIZE = st.one_of(st.sampled_from([10 ** 12, 1e300]), st.integers(max_value=0),
                          st.floats(max_value=8), _TEXT)
_CELLS = _mostly(st.integers(min_value=1, max_value=8), _REFUSED_SIZE)
_SAMPLES = _mostly(st.integers(min_value=1, max_value=64), _REFUSED_SIZE)
_SMALL_DIMENSION = _mostly(st.integers(min_value=1, max_value=8), _REFUSED_SIZE)
# a length or width of the order of the defaults, or any _NUMBER
_LENGTH = _mostly(st.floats(min_value=1e-3, max_value=1e3), _NUMBER)
_WIDTH = _mostly(st.floats(min_value=0.01, max_value=0.5), _NUMBER)
_STATE = _mostly(st.sampled_from(["uniform", "basis:0", "basis:2"]),
                 st.one_of(st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=8),
                           _ANY))
_ENVELOPE = _mostly(st.booleans(), _ANY)
# (command, settings that keep its window small, strategies of the keys it draws);
# a drawn value replaces the setting of its key
_FUZZED = [
    ("bell", {}, {"dimension": _DIMENSION, "kappa_plus": _NUMBER, "kappa_minus": _NUMBER,
                  "spacing": _NUMBER, "slit_width": _NUMBER, "cells": _NUMBER,
                  "envelope": _ANY}),
    ("bell", {"route": "field", "slit_width": 0.1, "samples_per_cell": 32, "cells": 8},
     {"dimension": _SMALL_DIMENSION, "kappa_plus": _LENGTH, "kappa_minus": _LENGTH,
      "spacing": _LENGTH, "slit_width": _WIDTH, "samples_per_cell": _SAMPLES,
      "cells": _CELLS, "envelope": _ENVELOPE}),
    ("carpet", {"samples_per_period": 64, "periods": 2, "z_steps": 8},
     {"period": _LENGTH, "wavelength": _LENGTH, "slit_width": _WIDTH,
      "dimension": _SMALL_DIMENSION, "state": _STATE, "samples_per_period": _SAMPLES,
      "periods": _CELLS, "z_steps": _CELLS}),
    ("synth", {"samples_per_cell": 32, "cells": 8},
     {"dimension": _SMALL_DIMENSION, "spacing": _LENGTH, "slit_width": _WIDTH,
      "spike_width": _WIDTH, "amplitudes": _STATE, "samples_per_cell": _SAMPLES,
      "cells": _CELLS}),
    ("entangle", {"slit_width": 0.25, "initial_window_cells": 4, "slit_window_cells": 2,
                  "slit_samples_per_cell": 32, "carpet_window_cells": 4,
                  "carpet_samples_per_cell": 32},
     {"dimension": _SMALL_DIMENSION, "spacing": _LENGTH, "kappa_plus": _LENGTH,
      "kappa_minus": _LENGTH, "slit_width": _WIDTH, "spike_width": _WIDTH,
      "initial_window_cells": _CELLS, "initial_samples_per_cell": _SAMPLES,
      "slit_window_cells": _CELLS, "slit_samples_per_cell": _SAMPLES,
      "carpet_window_cells": _CELLS, "carpet_samples_per_cell": _SAMPLES}),
    ("constraints", {}, {"pixel_pitch": _NUMBER, "pixels": _PIXELS, "wavelength": _NUMBER,
                         "threshold": _NUMBER, "dimension": _NUMBER}),
]


@st.composite
def _fuzzed_command(draw):
    name, small, strategies = draw(st.sampled_from(_FUZZED))
    keys = draw(st.lists(st.sampled_from(sorted(strategies)), unique=True, max_size=4))
    argv = [name]
    for key, value in {**small, **{key: draw(strategies[key]) for key in keys}}.items():
        argv += ["--set", f"{key}={value if isinstance(value, str) else json.dumps(value)}"]
    return argv


# capfd, not a redirect of sys.stderr: it also holds what entangle's forked writer prints
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_fuzzed_command())
def test_fuzzed_settings_exit_cleanly(argv, capfd):
    capfd.readouterr()
    with tempfile.TemporaryDirectory() as out:
        code = run(argv + ["--out-dir", out])
    err = capfd.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert len(err.splitlines()) == 1, err
