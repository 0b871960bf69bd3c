"""One process of a benchmark run; ``run.py`` starts it, never a user.

Roles:

* ``probe`` sets up exactly as a measuring process does (interpreter start,
  imports, workload plan, work directory) and exits, reporting when it was
  ready to make its first timed call;
* ``inputs`` makes a workload's input files by the CLI calls it names;
* ``measure`` runs passes of the workload until ``--seconds`` are used up,
  checks each pass's outputs outside its timed region, and reports the pass
  times and its peak resident memory. With ``--trace 1`` it alternates an
  untraced pass with a traced one, so the difference of their medians is
  the tracing overhead.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, StepResult

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_PASSES = 3


def _import_mutrate():
    sys.path.insert(0, str(SRC))
    import mutrate
    from mutrate import cli

    if Path(mutrate.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"mutrate imported from {mutrate.__file__}, not from {SRC}")
    return mutrate, cli


def _call(cli, argv: list[str], tracer=None) -> StepResult:
    buf = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(buf), span:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # usage errors leave through argparse with code 2
            code = exc.code if isinstance(exc.code, int) else 1
    return StepResult(tuple(argv), int(code), buf.getvalue())


def _run_pass(cli, steps, tracer=None):
    t0 = time.perf_counter()
    results = [_call(cli, argv, tracer) for argv in steps]
    return time.perf_counter() - t0, results


def _measure(workload, seed: int, work: Path, seconds: float, trace: bool, cli) -> dict:
    steps = workload.steps(seed, work)
    tracer = tracing.Tracer() if trace else None
    walls, traced_walls, layer_passes = [], [], []
    attempted = failed = 0
    outputs_seen, notes = set(), []
    counts_repeat = True
    first_counts = None
    t_start = time.perf_counter()
    ready = time.monotonic()
    while True:
        wall, results = _run_pass(cli, steps)
        walls.append(wall)
        checks = [workload.check(seed, work, results)]
        if trace:
            first_span = tracer.start_pass(f"{workload.name}:{seed}:{len(traced_walls)}")
            remove = tracing.install(tracer)
            try:
                traced_wall, traced_results = _run_pass(cli, steps, tracer)
            finally:
                remove()
            traced_walls.append(traced_wall)
            metrics = tracer.pass_metrics(first_span, traced_wall)
            counts = {k: metrics[k] for k in tracing.COUNT_METRICS}
            first_counts = first_counts or counts
            counts_repeat &= counts == first_counts
            layer_passes.append(metrics)
            checks.append(workload.check(seed, work, traced_results))
        for c in checks:
            attempted += c.attempted
            failed += c.failed
            outputs_seen.add(c.outputs)
            notes.extend(c.notes)
        elapsed = time.perf_counter() - t_start
        next_iteration = statistics.median(walls) + (statistics.median(traced_walls) if trace else 0.0)
        if len(walls) >= MIN_PASSES and elapsed + next_iteration > seconds:
            break
    out = {
        "ready": ready,
        "pass_walls": walls,
        # the checks between passes allocate far less than a pass does
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "outputs_repeat": len(outputs_seen) == 1,
        "output_sha256": [dict(o) for o in outputs_seen],  # one entry when passes repeat
        "notes": sorted(set(notes)),
    }
    if trace:
        per_layer = {}
        for name in tracing.PER_LAYER_METRICS:
            values = [m.get(name, 0.0) for m in layer_passes]
            per_layer[name] = statistics.median(values)
        per_layer["trace.untraced_wall_s"] = statistics.median(walls)
        per_layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        out.update(
            traced_walls=traced_walls,
            per_layer=per_layer,
            counts=first_counts,
            counts_repeat=counts_repeat,
            spans=tracer.dump(),
        )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", choices=["probe", "inputs", "measure"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--work", required=True, help="directory for the workload's files")
    args = ap.parse_args()

    mutrate, cli = _import_mutrate()
    import numpy as np

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    if args.role == "probe":
        result = {"ready": time.monotonic()}
    elif args.role == "inputs":
        failures = [argv for argv in workload.inputs(args.seed, work) if _call(cli, argv).exit_code != 0]
        result = {"failed_inputs": failures}
    else:
        result = _measure(workload, args.seed, work, args.seconds, bool(args.trace), cli)
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "mutrate": getattr(mutrate, "__version__", "unknown"),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
