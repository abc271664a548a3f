"""Benchmark entry point: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

The workload runs in fresh single-threaded Python processes (an untimed
preparation process where the workload has one, then the measuring
process) whose environment drops the engine's tuning and fault-injection
variables, so a CI chaos setting cannot leak into a measurement.  The
engine is imported from ``./src``.

Standard output lists every metric of the run by name with its unit, then,
as its last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the ``end_to_end`` metrics of ``BENCHMARK.json`` for
``--trace 0``, its ``per_layer`` metrics for ``--trace 1``.  The exit code
is non-zero, and no result line is printed, when the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

#: Environment variables that select engine behaviour; never inherited.
CLEARED_ENV = (
    "REPRO_KERNEL_THREADS",
    "REPRO_FAILPOINTS",
    "REPRO_ARRAY_BACKEND",
    "REPRO_KERNEL_WATCHDOG_GRACE_MS",
)
#: Keep numpy's BLAS single-threaded: one caller, one thread.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
WORKLOADS = ("interactive", "screening", "subseq_ingest")
#: Workloads with an untimed preparation process.
PREPARED = ("interactive",)
#: Wall-clock limit for the whole run, preparation included, beyond
#: ``--seconds``: the worker's loop may run 80 s past ``--seconds``
#: (``LOOP_MARGIN_S`` in worker.py), and preparation, set-ups and the
#: oracle take the rest.
DEADLINE_MARGIN_S = 140.0
#: Where runs keep their scratch files, under the working directory.
WORK_ROOT = ".perfbench"


def _child_env(root: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_phase(phase: str, args: argparse.Namespace, workdir: str, deadline: float) -> str:
    cmd = [
        sys.executable, "-m", "perfbench.worker", "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    root = os.getcwd()
    proc = subprocess.run(
        cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()), text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} process exited with code {proc.returncode}")
    return proc.stdout


def _declared(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # A SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # workload process and the finally block removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    root = os.getcwd()
    declared = _declared(root)
    os.makedirs(os.path.join(root, WORK_ROOT), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, WORK_ROOT))
    try:
        if args.workload in PREPARED:
            _run_phase("prepare", args, workdir, deadline)
        out = _run_phase("measure", args, workdir, deadline)
        record = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_ROOT))
        except OSError:
            pass

    measured = record["metrics"]
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print("host " + json.dumps(record["host"]))
    print("sizes " + json.dumps(record["sizes"]))
    print("detail " + json.dumps(record["detail"]))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, value in sorted(measured.items()):
        print(f"  {name:44s} {value:14.6g} {units.get(name, _unit(name))}")
    print(f"  {'attempted':44s} {record['attempted']:14d}")
    print(f"  {'failed':44s} {record['failed']:14d}")
    for reason, count in record["errors"].items():
        print(f"  error x{count}: {reason}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    """Unit of a reported metric that ``BENCHMARK.json`` does not gate."""
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
