"""Spans and exact work counts around mutrate's public functions.

The traced run wraps each layer's public functions at the name its caller
looks up: ``mutrate.cli.<fn>`` for calls the CLI makes, ``mutrate.harness.<fn>``
for calls the experiment harness makes, and ``mutrate.estimators.<fn>`` for
the distance profile, root finder and threshold selection inside the
estimators. Nothing in the package changes; the wrappers are removed after
each traced pass.

A span records its name, start, end, parent span and run id. Spans stay in
memory and are written out when the run ends. A layer is the part of a span
name before the first dot; its self time is its spans' durations minus the
time their child spans cover.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

LAYERS = ("cli", "model", "kmers", "estimators", "seqio", "harness")

SEQIO_FUNCTIONS = (
    ("read_fasta", "bases"),
    ("write_fasta", "bases"),
    ("read_reads", "rows"),
    ("write_reads", "rows"),
    ("read_kmer_table", "rows"),
    ("write_kmer_table", "rows"),
)

CLI_COMMANDS = ("gen", "mutate", "reads", "count", "estimate", "experiment")

# Every per-layer metric a traced run reports, with its unit. Times are the
# median over traced passes of the per-pass sum; counts are per pass and
# must repeat exactly on every pass.
PER_LAYER_METRICS: dict[str, str] = {
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "model.generate_s": "s",
    "model.mutate_s": "s",
    "model.sample_reads_s": "s",
    "model.channel_bases": "count",
    "kmers.count_seq_s": "s",
    "kmers.count_seq_windows": "count",
    "kmers.count_reads_s": "s",
    "kmers.count_reads_windows": "count",
    "kmers.count_reads_peak_mb": "MB",
    "kmers.distinct": "count",
    "estimators.k1_s": "s",
    "estimators.general_k_s": "s",
    "estimators.distance_profile_s": "s",
    "estimators.pair_distances": "count",
    "estimators.root_find_s": "s",
    "estimators.root_g_evals": "count",
    "estimators.large_k_seq_s": "s",
    "estimators.large_k_reads_s": "s",
    "estimators.select_lambda_s": "s",
    "estimators.calls": "count",
    "estimators.errors": "count",
    "estimators.lambda_selections": "count",
    "estimators.lambda_fallbacks": "count",
    "estimators.source_mass": "count",
    "estimators.retained_mass_frac": "fraction",
    **{
        f"seqio.{fn}_{suffix}": unit
        for fn, rows in SEQIO_FUNCTIONS
        for suffix, unit in (("s", "s"), (rows, "count"), ("bytes", "B"))
    },
    "harness.run_experiment_s": "s",
    "harness.write_trials_csv_s": "s",
    "harness.write_summary_json_s": "s",
    "harness.trials": "count",
    "harness.error_trials": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.covered_frac": "fraction",
    "trace.spans": "count",
}

COUNT_METRICS = tuple(name for name, unit in PER_LAYER_METRICS.items() if unit in ("count", "B"))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Collects spans and counts for the passes of one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.count_reads_peak_mb = 0.0
        self.run_id = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run_id))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def start_pass(self, run_id: str) -> int:
        """Begin a traced pass; returns the index of its first span."""
        self.run_id = run_id
        self.counts.clear()
        self.count_reads_peak_mb = 0.0
        return len(self.spans)

    def pass_metrics(self, first_span: int, wall: float) -> dict[str, float]:
        """Times, self times and counts of the pass whose spans start at
        ``first_span``. Keys are a subset of PER_LAYER_METRICS."""
        spans = self.spans[first_span:]
        out: dict[str, float] = Counter()
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None and s.parent >= first_span:
                child_time[s.parent - first_span] += s.end - s.start
        covered = 0.0
        for s, inner in zip(spans, child_time):
            dur = s.end - s.start
            out[f"{s.name}_s"] += dur
            out[f"{s.name.split('.', 1)[0]}.self_s"] += dur - inner
            if s.parent is None:
                covered += dur
        for name in COUNT_METRICS:
            out[name] = float(self.counts.get(name, 0))
        source = self.counts.get("estimators.source_mass", 0)
        out["estimators.retained_mass_frac"] = self.counts.get("estimators.retained_mass", 0) / source if source else 0.0
        out["kmers.count_reads_peak_mb"] = self.count_reads_peak_mb
        out["trace.wall_s"] = wall
        out["trace.covered_frac"] = covered / wall if wall > 0 else 0.0
        out["trace.spans"] = float(len(spans))
        return {k: v for k, v in out.items() if k in PER_LAYER_METRICS}

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer):
    """Wrap the traced functions; returns a function that removes the wrappers."""
    from mutrate import cli, estimators, harness
    from mutrate.errors import MutrateError

    counts = tracer.counts
    undo: list[tuple[object, str, object]] = []

    def wrap(module, attr: str, span_name: str, after=None, is_estimator: bool = False) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_estimator:
                counts["estimators.calls"] += 1
            try:
                with tracer.span(span_name):
                    result = fn(*args, **kwargs)
            except MutrateError:
                if is_estimator:
                    counts["estimators.errors"] += 1
                raise
            if after is not None:
                after(counts, args, result)
            return result

        undo.append((module, attr, fn))
        setattr(module, attr, traced)

    def mutated(c, args, result):
        c["model.channel_bases"] += len(result)

    def sampled(c, args, result):
        c["model.channel_bases"] += int(result.matrix.size)

    def counted_seq(c, args, result):
        c["kmers.count_seq_windows"] += result.total
        c["kmers.distinct"] += result.distinct

    def counted_reads(c, args, result):
        c["kmers.count_reads_windows"] += result.total
        c["kmers.distinct"] += result.distinct

    def retained(c, args, result):
        source = args[0]
        c["estimators.source_mass"] += source.total
        c["estimators.retained_mass"] += int(round(result.diagnostics.retained_mass or 0.0))

    def profiled(c, args, result):
        target_keys, source = args[0], args[1]
        c["estimators.pair_distances"] += int(len(target_keys)) * source.distinct

    def selected(c, args, result):
        c["estimators.lambda_selections"] += 1
        c["estimators.lambda_fallbacks"] += int(result.fallback)

    def trials_done(c, args, result):
        c["harness.trials"] += len(result)
        c["harness.error_trials"] += sum(1 for r in result if not r.ok)

    def seqio_hook(fn: str, rows: str, writes: bool):
        def after(c, args, result):
            path = args[0]
            data = args[1] if writes else result
            if fn.endswith("fasta"):
                n = sum(len(rec.seq) if hasattr(rec, "seq") else len(rec[1]) for rec in data)
            elif fn.endswith("reads"):
                n = data.num_reads
            else:
                n = data.distinct
            c[f"seqio.{fn}_{rows}"] += n
            c[f"seqio.{fn}_bytes"] += _file_bytes(path)

        return after

    for module in (cli, harness):
        wrap(module, "generate_iid_sequence", "model.generate")
        wrap(module, "mutate", "model.mutate", mutated)
        wrap(module, "sample_reads", "model.sample_reads", sampled)
        wrap(module, "count_kmers_sequence", "kmers.count_seq", counted_seq)
        _wrap_count_reads(tracer, module, undo, counted_reads)
        for k1 in ("estimate_k1_single", "estimate_k1_gc", "estimate_k1_reads"):
            wrap(module, k1, "estimators.k1", is_estimator=True)
        wrap(module, "estimate_general_k", "estimators.general_k", is_estimator=True)
        wrap(module, "estimate_large_k_seq", "estimators.large_k_seq", retained, is_estimator=True)
        wrap(module, "estimate_large_k_reads", "estimators.large_k_reads", retained, is_estimator=True)
    for fn, rows in SEQIO_FUNCTIONS:
        wrap(cli, fn, f"seqio.{fn}", seqio_hook(fn, rows, fn.startswith("write")))
    wrap(cli, "run_experiment", "harness.run_experiment", trials_done)
    wrap(cli, "write_trials_csv", "harness.write_trials_csv")
    wrap(cli, "write_summary_json", "harness.write_summary_json")
    wrap(estimators, "distance_profile", "estimators.distance_profile", profiled)
    wrap(estimators, "select_lambda", "estimators.select_lambda", selected)
    _wrap_root_finder(tracer, estimators, undo)

    def remove() -> None:
        for module, attr, fn in reversed(undo):
            setattr(module, attr, fn)

    return remove


def _wrap_count_reads(tracer: Tracer, module, undo: list, after) -> None:
    """Read counting also records the tracemalloc peak inside the call."""
    fn = module.count_kmers_reads

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            with tracer.span("kmers.count_reads"):
                result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        tracer.count_reads_peak_mb = max(tracer.count_reads_peak_mb, peak)
        after(tracer.counts, args, result)
        return result

    undo.append((module, "count_kmers_reads", fn))
    module.count_kmers_reads = traced


def _wrap_root_finder(tracer: Tracer, module, undo: list) -> None:
    """Root finding also counts evaluations of the moment function it is given."""
    fn = module.find_smallest_root

    @functools.wraps(fn)
    def traced(g, *args, **kwargs):
        def counted_g(q):
            tracer.counts["estimators.root_g_evals"] += 1
            return g(q)

        with tracer.span("estimators.root_find"):
            return fn(counted_g, *args, **kwargs)

    undo.append((module, "find_smallest_root", fn))
    module.find_smallest_root = traced
