#!/usr/bin/env python3
"""Run one workload of the mutrate benchmark and print its result.

    python3 perfbench/run.py --workload seq-sweep --seed 1 --seconds 25 --trace 0

Run it from anywhere; it works on the checkout that holds this file and
imports ``mutrate`` from that checkout's ``src/``. ``--workload all`` runs
every workload in turn.

Each run starts fresh child processes strictly one after another, with
BLAS/OpenMP thread counts pinned to 1: a few set-up probes (untraced runs
only), a process that makes the workload's input files if it has any, and
one measuring process. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Lines before it show each metric with its quartiles and
sample count. A full report with provenance, pass times, work counts and
(traced runs) every span is written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from tracing import PER_LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 6
RUN_DEADLINE_S = 170.0
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class RunError(Exception):
    pass


def _child(role: str, workload: str, seed: int, work: Path, deadline: float, **extra) -> tuple[float, dict]:
    """Start one child process and wait for it; returns its start time
    (monotonic clock, shared with the child) and its JSON reply."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError(f"out of time before the {role} process of {workload}")
    argv = [sys.executable, str(HERE / "child.py"), "--role", role, "--workload", workload]
    argv += ["--seed", str(seed), "--work", str(work)]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    env = {**os.environ, **CHILD_ENV}
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"the {role} process of {workload} ran past the run's deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"the {role} process of {workload} exited with code {proc.returncode}")
    return started, json.loads(lines[-1])


def _stats(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """Commit of the checkout, read from its own .git directory if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    workload = WORKLOADS[name]
    work = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    try:
        setup = []
        if not trace:
            for _ in range(SETUP_PROBES):
                started, reply = _child("probe", name, seed, work, deadline)
                setup.append(reply["ready"] - started)
        if workload.inputs(seed, work):
            _, reply = _child("inputs", name, seed, work, deadline)
            if reply["failed_inputs"]:
                raise RunError(f"making the inputs of {name} failed: {reply['failed_inputs']}")
        started, m = _child("measure", name, seed, work, deadline, seconds=seconds, trace=int(trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = m["failed"] == 0 and m["outputs_repeat"] and m.get("counts_repeat", True)
    if trace:
        stats = {k: {"median": v} for k, v in m["per_layer"].items()}
        units = PER_LAYER_METRICS
    else:
        setup.append(m["ready"] - started)
        stats = {
            "wall_s": _stats(m["pass_walls"]),
            "peak_rss_mb": {"median": m["peak_rss_mb"], "n": 1},
            "setup_s": _stats(setup),
        }
        units = END_TO_END_UNITS
    report = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "params": workload.params(),
        "provenance": {
            **m.pop("versions"),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
            "git_commit": _git_commit(),
        },
        "correct": correct,
        "metrics": {k: {**stats[k], "unit": units[k]} for k in units},
        "measure": m,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def _print_report(report: dict) -> None:
    print(f"{report['workload']}  seed={report['seed']}  correct={report['correct']}  "
          f"attempted={report['measure']['attempted']}  failed={report['measure']['failed']}")
    for note in report["measure"]["notes"]:
        print(f"  ! {note}")
    for name, s in report["metrics"].items():
        spread = f"  q1={s['q1']:.6g} q3={s['q3']:.6g}" if "q1" in s else ""
        n = f"  n={s['n']}" if "n" in s else ""
        print(f"  {name:34s} {s['median']:14.6g} {s['unit']:8s}{spread}{n}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the measuring process runs passes")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # a terminated run still stops and waits for its child (subprocess.run kills it on exit)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "mutrate" / "__init__.py").is_file():
        print(f"error: no mutrate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    reports = []
    try:
        for name in names:
            reports.append(run_workload(name, args.seed, args.seconds, bool(args.trace), deadline))
            _print_report(reports[-1])
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(reports) > 1
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["measure"]["attempted"] for r in reports),
        "failed": sum(r["measure"]["failed"] for r in reports),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): {"value": s["median"], "unit": s["unit"]}
            for r in reports
            for k, s in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
