"""Benchmark of the talbotlab command line on three workloads.

    python3 bench/run.py --workload quick-session --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` each command of
the workload runs as its own ``python -m talbotlab`` process, one at a
time, and the end-to-end metrics are medians over whole passes.  With
``--trace 1`` the same commands run in this process through
``talbotlab.cli.main``, once plain and once with every public layer
function wrapped in a span, and the per-layer metrics come from the spans.
Every output is checked (see ``workloads.py``).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
``--smoke`` runs one pass of tiny inputs with every check and no timing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from workloads import Result

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 12
PROCESS_TIMEOUT_S = 170.0


def spawn(args, log: Path) -> tuple:
    """Run ``python <args>`` to completion; (exit code, wall s, rusage)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def output_bytes(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())


def check_pass(ops, results: dict) -> list:
    """(op, message) for every operation whose exit code or outputs are wrong."""
    failures = []
    for op in ops:
        res = results[op.name]
        try:
            tail = res.stderr.strip().splitlines()[-1:] or [""]
            workloads.need(res.code == op.exit_code,
                           f"exit {res.code}, expected {op.exit_code}: {tail[0]}")
            op.check(res, op.params, results)
        except Exception as exc:  # any unreadable or wrong output fails the op
            failures.append((op, f"{type(exc).__name__}: {exc}"))
    return failures


def subprocess_pass(ops, workdir: Path) -> tuple:
    """One pass of separate command processes; (metrics, failures)."""
    results, wall, cpu, rss = {}, 0.0, 0.0, 0
    (workdir / "log").mkdir(parents=True)
    for op in ops:
        out = workdir / "out" / op.name
        log = workdir / "log" / op.name
        code, seconds, usage = spawn(["-m", "talbotlab", *op.argv, "--out-dir", str(out)], log)
        wall += seconds
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss)
        results[op.name] = Result(code, log.with_suffix(".out").read_text(),
                                  log.with_suffix(".err").read_text(), out)
    metrics = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss / 1024.0,
               "output_bytes": output_bytes(workdir / "out")}
    return metrics, check_pass(ops, results)


def inprocess(op, out: Path, cli) -> tuple:
    """One operation through ``cli.main`` in this process; (Result, wall s)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([*op.argv, "--out-dir", str(out)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what the console script would die with
            traceback.print_exc()
            code = 1
    wall = perf_counter() - start
    return Result(code, stdout.getvalue(), stderr.getvalue(), out), wall


def check_import() -> None:
    """Fail unless a fresh interpreter imports talbotlab from this checkout."""
    log = WORK / "probe"
    probe = "import sys, talbotlab.cli; sys.stdout.write(talbotlab.cli.__file__)"
    code, _, _ = spawn(["-c", probe], log)   # also compiles the bytecode once
    found = log.with_suffix(".out").read_text()
    if code != 0 or Path(found).resolve() != (SRC / "talbotlab" / "cli.py").resolve():
        raise SystemExit(f"talbotlab does not import from {SRC} (got {found!r})")


def setup_samples(count: int) -> list:
    """Wall times of fresh interpreters importing talbotlab.cli."""
    return [spawn(["-c", "import talbotlab.cli"], WORK / "setup")[1] for _ in range(count)]


def timed_run(ops, seconds: float, smoke: bool, rng: random.Random) -> tuple:
    """Whole passes until the next one would end after ``seconds``.

    Set-up is sampled before and after the passes, so that its median does
    not rest on one moment of a machine whose speed drifts.
    """
    check_import()
    setup = setup_samples(SETUP_SAMPLES // 2)
    passes, failures = [], []
    start = perf_counter()
    while True:
        begun = perf_counter()
        workdir = WORK / f"pass{len(passes)}"
        metrics, failed = subprocess_pass(rng.sample(ops, len(ops)), workdir)
        shutil.rmtree(workdir)
        passes.append(metrics)
        failures += failed
        now = perf_counter()
        if smoke or (now - start) + (now - begun) > seconds:
            break
    setup += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["setup_s"] = statistics.median(setup)
    return metrics, len(passes) * len(ops), failures


def traced_run(ops, warmup, rng: random.Random) -> tuple:
    """Each operation in process, plain and then traced; per-layer metrics.

    The ``warmup`` operations run first, unmeasured, so that lazy imports
    and first-call set-up do not land on the plain calls.  Running the
    plain and the traced call of one operation back to back keeps the
    overhead estimate clear of slower drifts in machine speed.
    """
    sys.path.insert(0, str(SRC))
    import talbotlab.cli as cli
    from tracing import Tracer

    if Path(cli.__file__).resolve().parent != (SRC / "talbotlab").resolve():
        raise SystemExit(f"talbotlab does not import from {SRC}")
    for op in warmup:
        inprocess(op, WORK / "warmup" / op.name, cli)
    order = rng.sample(ops, len(ops))
    tracer = Tracer()
    plain, traced, plain_s, traced_s = {}, {}, 0.0, 0.0
    for op in order:
        plain[op.name], seconds = inprocess(op, WORK / "plain" / op.name, cli)
        plain_s += seconds
        tracer.install()
        try:
            traced[op.name], seconds = inprocess(op, WORK / "traced" / op.name, cli)
        finally:
            tracer.remove()
        traced_s += seconds
    failures = check_pass(order, plain) + check_pass(order, traced)
    layers = tracer.summary()
    metrics = {f"{label}.{key}": value
               for label, row in layers.items() for key, value in row.items()}
    metrics["trace.untraced_s"] = plain_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.layer_self_s"] = sum(row["self_s"] for label, row in layers.items()
                                        if label != "cli")
    return metrics, 2 * len(ops), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="shuffles the order of the operations within each pass")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass, every check")
    args = parser.parse_args(argv)

    if not (SRC / "talbotlab" / "cli.py").is_file():
        print(f"no talbotlab sources under {SRC}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(json.dumps({"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                      "python": sys.version.split()[0], "numpy": np.__version__,
                      "nproc": len(os.sched_getaffinity(0))}))
    ops = workloads.build_ops(args.workload, smoke=args.smoke)
    rng = random.Random(args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.trace:
            warmup = workloads.build_ops(args.workload, smoke=True)
            measured, attempted, failures = traced_run(ops, warmup, rng)
        else:
            measured, attempted, failures = timed_run(ops, args.seconds, args.smoke, rng)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for op, message in failures:
        tag = "known fault" if op.known_fault else "FAILED"
        print(f"{tag}: {op.name}: {message}", file=sys.stderr)
    result = {
        "correct": all(op.known_fault for op, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
