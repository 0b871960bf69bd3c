"""Monte-Carlo harness: sweep estimator/parameter grids over seeded trials
and summarize relative-error distributions per grid point.

An experiment fixes a mode and sweeps sequence sources, crossing each with
estimators, k values, substitution rates, and (in read mode) sequencer
error rates and coverages. Each grid point runs ``trials_per_point``
trials; trials cycle round-robin over the source's references, and the
source and reference indices are recorded so pooled statistics can be
regrouped later. Relative error e = p_raw / p - 1 uses the raw, unclamped
estimate so edge bias stays visible. Trials where an estimator is undefined
(singular denominator, no root, empty retained set) stay in the output with
an error code instead of disappearing.

Reproducibility: every seed is derived by hashing the master seed, the grid
point, and the trial index, so runs are stable under grid reordering and
independent of execution order. Source j draws under master seed
``master_seed + j``, as a one-source experiment at that master seed would.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import MismatchedK, MutrateError
from .estimators import (
    EstimateResult,
    EstimatorId,
    KMER_BASED,
    READ_BASED,
    SINGLE_BASE,
    SubsetSpec,
    estimate_general_k,
    estimate_k1_gc,
    estimate_k1_reads,
    estimate_k1_single,
    estimate_large_k_reads,
    estimate_large_k_seq,
)
from .kmers import KmerTable, MAX_K, count_kmers_reads, count_kmers_sequence
from .model import (
    ALPHABET,
    CircularSequence,
    ReadSet,
    SubstitutionChannel,
    check_distribution,
    encode_base,
    generate_iid_sequence,
    mutate,
    sample_reads,
)
from .seqio import read_fasta

TRIALS_FORMAT = "mutrate-trials-v2"
SUMMARY_FORMAT = "mutrate-summary-v2"

DEFAULT_COVERAGE = 30.0
DEFAULT_READ_LEN = 1000
K1_BASES = ("auto", *ALPHABET)  # the single-base estimators' base: picked, or one nucleotide

class Mode(str, Enum):
    """Which data the estimators see: complete k-mer statistics of both
    sequences, or only noisy reads of both."""

    NONSEQ = "nonseq"
    SEQ = "seq"


MODE_ESTIMATORS = {Mode.NONSEQ: frozenset(EstimatorId) - READ_BASED, Mode.SEQ: READ_BASED}


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of printable parts."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _codes(x: CircularSequence | ReadSet) -> np.ndarray:
    return x.matrix if isinstance(x, ReadSet) else x.codes


def choose_k1_base(x: CircularSequence | ReadSet) -> str:
    """Base whose frequency in a sequence or its reads deviates most from
    1/4 (ties go to earlier alphabet order). The single-base estimators are
    undefined at exactly 1/4 and noisiest near it, so pick the farthest base."""
    codes = _codes(x)
    counts = np.array([np.count_nonzero(codes == c) for c in range(4)])
    dev = np.abs(counts / max(codes.size, 1) - 0.25)
    return ALPHABET[int(np.argmax(dev))]


Data = Union[CircularSequence, ReadSet, KmerTable]


def as_table(x: Data, k: int | None) -> KmerTable:
    """A table as it is, once its k is checked against a requested ``k``;
    a sequence or read set counted at ``k``."""
    if isinstance(x, KmerTable):
        if k is not None and k != x.k:
            raise MismatchedK(f"k={k} requested, but the k-mer table has k={x.k}")
        return x
    if k is None:
        raise ValueError("k is needed to count k-mers")
    if isinstance(x, ReadSet):
        return count_kmers_reads(x, k)
    return count_kmers_sequence(x, k)


def check_kind(est: EstimatorId, side: str, data: Data) -> None:
    """Raise ValueError unless ``est`` takes ``data``'s kind as ``side``: a
    k-mer estimator (``KMER_BASED``) tables, a read estimator (``READ_BASED``)
    read sets, and any other estimator sequences."""
    if isinstance(data, KmerTable):
        takes, kind = est in KMER_BASED, "a k-mer table"
    elif isinstance(data, ReadSet):
        takes, kind = est in READ_BASED, "a read set"
    else:
        takes, kind = est not in READ_BASED, "a sequence"
    if not takes:
        raise ValueError(f"{est.value} does not take {kind} as {side}")


def estimate(
    est: EstimatorId,
    x: Data,
    y: Data,
    *,
    k: int | None = None,
    s: float | None = None,
    base: str | None = None,
    subset: SubsetSpec | None = None,
) -> EstimateResult:
    """Run estimator ``est`` on the source ``x`` and the mutated ``y``.

    Each side is a sequence, read set or k-mer table, of a kind ``est``
    takes (:func:`check_kind`). ``base`` is the nucleotide the
    single-base estimators count (None picks it with
    :func:`choose_k1_base` on ``x``). A k-mer estimator uses a table x as
    is and counts any other x at ``k``; it never counts y, but measures a
    sequence's or read set's mass on the keys it needs straight from its
    windows, at x's k (:func:`mutrate.kmers.window_mass`), and a table y
    must have x's k. ``s`` is the sequencer error rate of
    large-k-reads and ``subset`` the general-k subset. x and y must have
    the same G (a sequence's length, a read set's or a table's
    ``source_len``) where both are known, because a substitution keeps the
    length.
    """
    check_kind(est, "x", x)
    check_kind(est, "y", y)
    x_len, y_len = (len(d) if isinstance(d, CircularSequence) else d.source_len for d in (x, y))
    if None not in (x_len, y_len) and x_len != y_len:
        raise MutrateError(f"x has {x_len} bases but y has {y_len}; a substitution keeps the length")
    if est in KMER_BASED:
        x_table = as_table(x, k)
        if est is EstimatorId.GENERAL_K:
            return estimate_general_k(x_table, y, subset)
        if est is EstimatorId.LARGE_K_SEQ:
            return estimate_large_k_seq(x_table, y)
        if s is None:
            raise ValueError("large-k-reads needs the sequencer error rate s")
        return estimate_large_k_reads(x_table, y, s)
    if est is EstimatorId.K1_GC:
        return estimate_k1_gc(x.gc_fraction(), y.gc_fraction())
    code = encode_base(base or choose_k1_base(x))
    f, f_prime = (int(np.count_nonzero(_codes(side) == code)) for side in (x, y))
    if est is EstimatorId.K1_SINGLE:
        return estimate_k1_single(f, f_prime, len(x))
    if (x.num_reads, x.read_len) != (y.num_reads, y.read_len):
        raise MutrateError("the single-base read estimator needs matching N and L on both sides")
    return estimate_k1_reads(f, f_prime, x.num_reads, x.read_len)


@dataclass(frozen=True)
class IidSource:
    """References drawn i.i.d. from a fixed 4-way symbol distribution."""

    length: int
    distribution: tuple[float, float, float, float]
    num_references: int = 1

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if self.num_references < 1:
            raise ValueError(f"num_references must be >= 1, got {self.num_references}")
        check_distribution(self.distribution)


@dataclass(frozen=True)
class FastaSource:
    """References loaded from a FASTA file, one per record."""

    path: str
    on_invalid: str = "error"


Source = Union[IidSource, FastaSource]


@dataclass(frozen=True)
class GridPoint:
    """One cell of the sweep. ``s`` and ``coverage`` are None outside read
    mode, where they do not apply; ``source`` indexes the config's
    ``sources``."""

    estimator: EstimatorId
    k: int
    p: float
    s: float | None = None
    coverage: float | None = None
    source: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    sources: tuple[Source, ...]
    mode: Mode
    estimators: tuple[EstimatorId, ...]
    p_grid: tuple[float, ...]
    trials_per_point: int
    master_seed: int
    k_values: tuple[int, ...] = (1,)
    s_grid: tuple[float, ...] = (0.0,)
    coverage_grid: tuple[float, ...] = (DEFAULT_COVERAGE,)
    read_len: int = DEFAULT_READ_LEN
    k1_base: str = "auto"
    subset: SubsetSpec | None = None
    y_coverage: float | None = None
    y_read_len: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        if not self.sources:
            raise ValueError("sources must be nonempty")
        mode = Mode(self.mode)
        object.__setattr__(self, "mode", mode)
        estimators = tuple(EstimatorId(e) for e in self.estimators)
        object.__setattr__(self, "estimators", estimators)
        object.__setattr__(self, "p_grid", tuple(float(p) for p in self.p_grid))
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        object.__setattr__(self, "s_grid", tuple(float(s) for s in self.s_grid))
        object.__setattr__(self, "coverage_grid", tuple(float(c) for c in self.coverage_grid))
        if not estimators:
            raise ValueError("estimators must be nonempty")
        for name in ("estimators", "p_grid", "k_values", "s_grid", "coverage_grid"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                # a repeated grid point replays its seeds and counts its trials twice
                raise ValueError(f"{name} repeats a value: {[getattr(v, 'value', v) for v in values]}")
        allowed = MODE_ESTIMATORS[mode]
        bad = [e.value for e in estimators if e not in allowed]
        if bad:
            raise ValueError(f"estimators {bad} do not run in {mode.value} mode")
        if not self.p_grid:
            raise ValueError("p_grid must be nonempty")
        for p in self.p_grid:
            if not 0.0 < p < 1.0:
                raise ValueError(f"rates must be in (0, 1) for relative error, got {p}")
        if not self.k_values:
            raise ValueError("k_values must be nonempty")
        for k in self.k_values:
            if not 1 <= k <= MAX_K:
                raise ValueError(f"k must be in 1..{MAX_K}, got {k}")
        if self.trials_per_point < 1:
            raise ValueError(f"trials_per_point must be >= 1, got {self.trials_per_point}")
        if self.k1_base not in K1_BASES:
            raise ValueError(f"k1_base must be 'auto' or one of ACGT, got {self.k1_base!r}")
        if self.subset is not None and EstimatorId.GENERAL_K not in estimators:
            raise ValueError("subset only applies to the general-k estimator")
        for c in self.coverage_grid:
            if not 0.0 < c < math.inf:
                raise ValueError(f"coverages must be positive and finite, got {c}")
        if mode is Mode.SEQ:
            if not self.s_grid:
                raise ValueError("read mode needs a nonempty s_grid")
            for s in self.s_grid:
                if not 0.0 <= s < 1.0:
                    raise ValueError(f"error rates must be in [0, 1), got {s}")
            if not self.coverage_grid:
                raise ValueError("read mode needs a nonempty coverage_grid")
            if self.read_len < max(self.k_values):
                raise ValueError(
                    f"read_len {self.read_len} shorter than largest k {max(self.k_values)}"
                )
        else:
            read_fields = ("s_grid", "coverage_grid", "read_len")
            given = [f.name for f in fields(self) if f.name in read_fields and getattr(self, f.name) != f.default]
            if given:
                raise ValueError(f"read-mode fields {given} do not apply in nonseq mode")
        asym = self.y_coverage is not None or self.y_read_len is not None
        if asym and (mode is not Mode.SEQ or EstimatorId.LARGE_K_READS not in estimators):
            raise ValueError(
                "separate mutated-side read parameters only apply to large-k-reads"
            )
        if self.y_coverage is not None and not 0.0 < self.y_coverage < math.inf:
            raise ValueError(f"y_coverage must be positive and finite, got {self.y_coverage}")
        if self.y_read_len is not None and self.y_read_len < max(self.k_values):
            raise ValueError("y_read_len must cover the largest k")

    def grid_points(self) -> Iterator[GridPoint]:
        """Deterministic sweep order: source, estimator, k, p, then (read
        mode) s and coverage."""
        for j in range(len(self.sources)):
            for est in self.estimators:
                for k in self.k_values:
                    for p in self.p_grid:
                        if self.mode is Mode.NONSEQ:
                            yield GridPoint(est, k, p, source=j)
                        else:
                            for s in self.s_grid:
                                for c in self.coverage_grid:
                                    yield GridPoint(est, k, p, s, c, j)


@dataclass(frozen=True)
class TrialRecord:
    """One trial. Its fields, in order, are the trials CSV's columns."""

    estimator: EstimatorId
    k: int
    p: float
    s: float | None
    coverage: float | None
    source: int
    reference: int
    trial: int
    seed: int
    p_raw: float
    p_clamped: float
    rel_error: float
    error: str = ""
    lambda_threshold: int | None = None
    lambda_fallback: bool = False
    multiple_roots: bool = False

    @property
    def ok(self) -> bool:
        return self.error == ""

    @property
    def grid_point(self) -> GridPoint:
        return GridPoint(self.estimator, self.k, self.p, self.s, self.coverage, self.source)


@dataclass(frozen=True)
class BoxStats:
    """Box-plot summary of one grid point's relative errors.

    Quartiles use linear (midpoint) interpolation; whiskers sit on the most
    extreme observations within 1.5 IQR of the quartiles; ``stddev`` is the
    population standard deviation. Errored trials are excluded from every
    statistic and only counted.
    """

    count: int
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    mean: float
    stddev: float
    error_count: int = 0


def box_stats(values: Sequence[float], error_count: int = 0) -> BoxStats:
    vals = np.asarray([v for v in values if not math.isnan(v)], dtype=np.float64)
    if vals.size == 0:
        nan = float("nan")
        return BoxStats(0, nan, nan, nan, nan, nan, nan, nan, error_count)
    q1, med, q3 = (float(q) for q in np.quantile(vals, [0.25, 0.5, 0.75]))
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    return BoxStats(
        count=int(vals.size),
        median=med,
        q1=q1,
        q3=q3,
        whisker_low=float(vals[vals >= lo_fence].min()),
        whisker_high=float(vals[vals <= hi_fence].max()),
        mean=float(vals.mean()),
        stddev=float(vals.std()),
        error_count=error_count,
    )


def summarize(records: Sequence[TrialRecord]) -> dict[GridPoint, BoxStats]:
    """Per-grid-point box statistics, keyed in first-appearance order."""
    groups: dict[GridPoint, list[float]] = {}
    errors: dict[GridPoint, int] = {}
    for r in records:
        gp = r.grid_point
        groups.setdefault(gp, [])
        errors.setdefault(gp, 0)
        if r.ok:
            groups[gp].append(r.rel_error)
        else:
            errors[gp] += 1
    return {gp: box_stats(vals, errors[gp]) for gp, vals in groups.items()}


class _SeedBook:
    """Hands out derived seeds and insists they never collide."""

    def __init__(self):
        self._used: dict[int, tuple] = {}

    def seed(self, *key) -> int:
        s = derive_seed(*key)
        prev = self._used.get(s)
        if prev is not None and prev != key:
            raise RuntimeError(f"seed collision between {prev} and {key}")
        self._used[s] = key
        return s


@dataclass
class _Reference:
    index: int
    x: CircularSequence
    base: str | None  # None when no estimator of the sweep counts one base
    x_tables: dict[int, KmerTable] = field(default_factory=dict)

    def table(self, k: int) -> KmerTable:
        if k not in self.x_tables:
            self.x_tables[k] = count_kmers_sequence(self.x, k)
        return self.x_tables[k]


def _load_references(config: ExperimentConfig, j: int, master: int, seeds: _SeedBook) -> list[_Reference]:
    src = config.sources[j]
    if isinstance(src, IidSource):
        xs = [
            generate_iid_sequence(src.length, src.distribution, seeds.seed(master, "ref", i))
            for i in range(src.num_references)
        ]
    else:
        xs = [rec.seq for rec in read_fasta(src.path, src.on_invalid)]
    refs = []
    for i, x in enumerate(xs):
        if config.mode is Mode.SEQ:
            for name in ("read_len", "y_read_len"):
                read_len = getattr(config, name)
                if read_len is not None and read_len > len(x):
                    raise ValueError(f"source {j}, reference {i}: {name} {read_len} exceeds its length {len(x)}")
        base = None if config.k1_base == "auto" else config.k1_base
        if base is None and not SINGLE_BASE.isdisjoint(config.estimators):
            base = choose_k1_base(x)
        refs.append(_Reference(i, x, base))
    return refs


def read_count(coverage: float, g: int, read_len: int) -> int:
    """Reads of length ``read_len`` that cover ``g`` bases ``coverage``
    times, rounded to the nearest count; fewer than one is an error."""
    n = int(round(coverage * g / read_len))
    if n < 1:
        raise ValueError(
            f"coverage {coverage} at read length {read_len} on length {g} yields no reads"
        )
    return n


def _estimate_trial(
    config: ExperimentConfig,
    gp: GridPoint,
    ref: _Reference,
    y: CircularSequence,
    seeds: _SeedBook,
    trial_key: tuple,
) -> EstimateResult:
    x: Data = ref.x
    if gp.estimator in READ_BASED:
        # read mode: fresh reads of both sides every trial
        g = len(x)
        channel = SubstitutionChannel(gp.s)
        y_len = config.y_read_len if config.y_read_len is not None else config.read_len
        y_cov = config.y_coverage if config.y_coverage is not None else gp.coverage
        n = read_count(gp.coverage, g, config.read_len)
        y_n = read_count(y_cov, g, y_len)
        x = sample_reads(x, config.read_len, n, channel, seeds.seed(*trial_key, "xreads"))
        y = sample_reads(y, y_len, y_n, channel, seeds.seed(*trial_key, "yreads"))
    elif gp.estimator in KMER_BASED:
        x = ref.table(gp.k)
    return estimate(gp.estimator, x, y, k=gp.k, s=gp.s, base=ref.base, subset=config.subset)


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """Run every trial of every grid point, in deterministic order.

    Per trial: the seed is derived from (the source's master seed, grid
    point, trial index); the source's reference cycles round-robin; the
    reference is mutated at the grid point's rate and the grid point's
    estimator runs on whatever data its mode prescribes.
    """
    seeds = _SeedBook()
    points = list(config.grid_points())
    records: list[TrialRecord] = []
    for j in range(len(config.sources)):
        records += _source_trials(config, j, [gp for gp in points if gp.source == j], seeds)
    return records


def _source_trials(
    config: ExperimentConfig, j: int, points: list[GridPoint], seeds: _SeedBook
) -> list[TrialRecord]:
    """The trials of source ``j``'s grid points, drawn under master seed
    ``master_seed + j``. Its references are dropped on return."""
    master = config.master_seed + j
    refs = _load_references(config, j, master, seeds)
    records: list[TrialRecord] = []
    for gp in points:
        channel = SubstitutionChannel(gp.p)
        gp_key = (master, "grid", gp.estimator.value, gp.k, gp.p, gp.s, gp.coverage)
        for trial in range(config.trials_per_point):
            ref = refs[trial % len(refs)]
            trial_key = gp_key + (trial,)
            trial_seed = seeds.seed(*trial_key)
            y = mutate(ref.x, channel, seeds.seed(*trial_key, "mutate"))
            try:
                res = _estimate_trial(config, gp, ref, y, seeds, trial_key)
            except MutrateError as exc:
                nan = float("nan")
                outcome = dict(
                    p_raw=nan, p_clamped=nan, rel_error=nan,
                    error=exc.code,
                )
            else:
                d = res.diagnostics
                outcome = dict(
                    p_raw=res.p_raw, p_clamped=res.p_clamped, rel_error=res.p_raw / gp.p - 1.0,
                    lambda_threshold=d.lambda_threshold, lambda_fallback=bool(d.lambda_fallback),
                    multiple_roots=bool(d.multiple_roots),
                )
            records.append(
                TrialRecord(**asdict(gp), reference=ref.index, trial=trial, seed=trial_seed, **outcome)
            )
    return records


# --- serialization -----------------------------------------------------------
#
# The dataclasses are the only schema: the trials CSV has one column per
# TrialRecord field, in order, and the summary JSON's config and groups are
# ``asdict`` of ExperimentConfig, GridPoint and BoxStats.

_COLUMNS = tuple(f.name for f in fields(TrialRecord))

# cell parser per TrialRecord field type; a new field type needs an entry here
_PARSE_CELL = {
    "EstimatorId": EstimatorId,
    "int": int,
    "float": float,
    "str": str,
    "bool": lambda cell: {"0": False, "1": True}[cell],
    "int | None": lambda cell: int(cell) if cell else None,
    "float | None": lambda cell: float(cell) if cell else None,
}
_CELL_PARSERS = tuple(_PARSE_CELL[f.type] for f in fields(TrialRecord))


def _cell(value) -> str:
    """One CSV cell: None empty, bool 0/1, an enum its value, else ``str``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, Enum):
        return value.value
    return str(value)


def write_trials_csv(path: str | Path, records: Sequence[TrialRecord]) -> None:
    """Versioned comment line, column header, one row per trial."""
    with Path(path).open("w", newline="") as fh:
        fh.write(f"# format: {TRIALS_FORMAT}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows([_cell(getattr(r, name)) for name in _COLUMNS] for r in records)


def read_trials_csv(path: str | Path) -> list[TrialRecord]:
    """The records of a trials CSV. The header must name the TrialRecord
    fields in order and every row must have one cell per column; anything
    else is a ValueError naming the file and line."""
    with Path(path).open(newline="") as fh:
        head = fh.readline().strip()
        if head != f"# format: {TRIALS_FORMAT}":
            raise ValueError(f"{path}: unrecognized trials format line {head!r}")
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != _COLUMNS:
            raise ValueError(f"{path}: line 2: columns {header} are not {list(_COLUMNS)}")
        records = []
        for row in reader:
            # the format line is not the reader's, so its line numbers are one short
            where = f"{path}: line {reader.line_num + 1}"
            if len(row) != len(_COLUMNS):
                raise ValueError(f"{where}: {len(row)} cells, expected {len(_COLUMNS)}")
            try:
                records.append(TrialRecord(*(parse(cell) for parse, cell in zip(_CELL_PARSERS, row))))
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{where}: bad cell {exc}") from None
    return records


def _json_value(value):
    """``asdict`` output as JSON: enums by value, tuples as lists, NaN as null."""
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def config_to_dict(config: ExperimentConfig) -> dict:
    """``asdict(config)``, with each source's ``kind`` first and the
    subset's unset fields left out."""
    d = asdict(config)
    kinds = ["iid" if isinstance(src, IidSource) else "fasta" for src in config.sources]
    d["sources"] = [{"kind": kind, **entry} for kind, entry in zip(kinds, d["sources"])]
    if d["subset"] is not None:
        d["subset"] = {key: v for key, v in d["subset"].items() if v is not None}
    return _json_value(d)


def summary_to_dict(config: ExperimentConfig, records: Sequence[TrialRecord]) -> dict:
    """The config, the trial count and one group per grid point: the grid
    point's fields then its box statistics."""
    return {
        "format": SUMMARY_FORMAT,
        "config": config_to_dict(config),
        "num_trials": len(records),
        "groups": [
            _json_value({**asdict(gp), **asdict(stats)}) for gp, stats in summarize(records).items()
        ],
    }


def write_summary_json(
    path: str | Path, config: ExperimentConfig, records: Sequence[TrialRecord]
) -> None:
    Path(path).write_text(json.dumps(summary_to_dict(config, records), indent=2) + "\n")
