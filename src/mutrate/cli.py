"""Command-line interface.

Subcommands mirror the library layers: ``gen``/``mutate``/``reads`` produce
data, ``count`` builds k-mer tables, ``estimate`` runs one estimator on
files, ``bounds`` evaluates the concentration formulas, and ``experiment``
drives the Monte-Carlo harness.

Numeric flags accept scientific notation (``--length 1e6``) and must be
finite. Every subcommand that draws random numbers requires an explicit
``--seed``. Exit codes: 0 success, 1 domain or I/O failure (diagnostic on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields

from . import bounds as bounds_mod
from .errors import MutrateError
from .estimators import EstimateResult, EstimatorId, KMER_BASED, SINGLE_BASE, SubsetSpec

# not called here; perfbench/tracing.py wraps these names on this module
from .estimators import (  # noqa: F401
    estimate_general_k,
    estimate_k1_gc,
    estimate_k1_reads,
    estimate_k1_single,
    estimate_large_k_reads,
    estimate_large_k_seq,
)
from .harness import (
    DEFAULT_COVERAGE,
    DEFAULT_READ_LEN,
    Data,
    ExperimentConfig,
    FastaSource,
    IidSource,
    K1_BASES,
    Mode,
    as_table,
    check_kind,
    choose_k1_base,
    derive_seed,
    estimate,
    read_count,
    run_experiment,
    summary_to_dict,
    write_summary_json,
    write_trials_csv,
)
from .kmers import KmerTable, count_kmers_reads, count_kmers_sequence
from .model import (
    CircularSequence,
    SubstitutionChannel,
    generate_iid_sequence,
    mutate,
    sample_reads,
)
from .seqio import (
    FastaRecord,
    read_fasta,
    read_kmer_table,
    read_reads,
    write_fasta,
    write_kmer_table,
    write_reads,
)


def _sci_float(text: str) -> float:
    """Finite float flag; nan and inf are usage errors."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return v


def _sci_int(text: str) -> int:
    """Integer flag that tolerates scientific notation (1e6, 2.5e3)."""
    v = _sci_float(text)
    if not v.is_integer():
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(v)


def _estimator(text: str) -> EstimatorId:
    try:
        return EstimatorId(text)
    except ValueError:
        valid = ",".join(e.value for e in EstimatorId)
        raise argparse.ArgumentTypeError(f"unknown estimator in {text!r}; choose from {valid}") from None


def _listed(parse, what: str, size: int | None = None):
    """Flag type of a nonempty comma-separated list of ``what``, each item
    read by ``parse``; exactly ``size`` items when given."""

    def parse_list(text: str) -> tuple:
        vals = tuple(parse(item) for item in text.split(",") if item)
        if not vals or size not in (None, len(vals)):
            count = "" if size is None else f"{size} "
            raise argparse.ArgumentTypeError(f"expected {count}comma-separated {what}, got {text!r}")
        return vals

    return parse_list


_dist = _listed(_sci_float, "probabilities A,C,G,T", 4)
_dist3 = _listed(_sci_float, "exponents c1,c2,c3", 3)


def _subset(text: str) -> SubsetSpec:
    if text == "all":
        return SubsetSpec.all()
    if text.startswith("top:"):
        try:
            return SubsetSpec.top(int(text[4:]))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad subset size in {text!r}") from None
    if text.startswith("explicit:"):
        kmers = [s for s in text[len("explicit:") :].split(",") if s]
        if not kmers:
            raise argparse.ArgumentTypeError("explicit subset needs at least one k-mer")
        return SubsetSpec.explicit(kmers)
    raise argparse.ArgumentTypeError(
        f"subset must be 'all', 'top:M', or 'explicit:KMER,KMER,...', got {text!r}"
    )


def _read_record(path: str, index: int | None) -> CircularSequence:
    """The sequence of record ``index`` of the FASTA file ``path``; index
    None takes the only record and is an error when there are several."""
    records = read_fasta(path)
    if index is None:
        if len(records) != 1:
            raise MutrateError(f"{path} holds {len(records)} records; pick one with --record")
        index = 0
    elif not 0 <= index < len(records):
        raise MutrateError(f"--record {index} out of range for {path} ({len(records)} records)")
    return records[index].seq


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser, by name."""
    parser = argparse.ArgumentParser(
        prog="mutrate",
        description="Estimate substitution rates from k-mer statistics of sequences or reads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an i.i.d. random sequence as FASTA")
    p.add_argument("--length", type=_sci_int, required=True, help="sequence length")
    p.add_argument(
        "--dist",
        type=_dist,
        default=(0.25, 0.25, 0.25, 0.25),
        help="A,C,G,T probabilities (default uniform)",
    )
    p.add_argument("--seed", type=_sci_int, required=True)
    p.add_argument("--name", default="seq", help="FASTA record name")
    p.add_argument("--out", required=True, help="output FASTA path")

    p = sub.add_parser("mutate", help="pass every FASTA record through the substitution channel")
    p.add_argument("--in", dest="inp", required=True, help="input FASTA")
    p.add_argument("--rate", type=_sci_float, required=True, help="substitution rate")
    p.add_argument("--seed", type=_sci_int, required=True)
    p.add_argument("--out", required=True, help="output FASTA path")

    p = sub.add_parser("reads", help="sample noisy fixed-length reads from a sequence")
    p.add_argument("--in", dest="inp", required=True, help="input FASTA")
    p.add_argument("--record", type=_sci_int, default=None, help="record index when FASTA has several")
    p.add_argument("--read-len", type=_sci_int, default=DEFAULT_READ_LEN)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--num-reads", type=_sci_int, default=None)
    group.add_argument("--coverage", type=_sci_float, default=DEFAULT_COVERAGE, help=f"default {DEFAULT_COVERAGE}")
    p.add_argument("--error-rate", type=_sci_float, default=0.0, help="per-base sequencer error")
    p.add_argument("--seed", type=_sci_int, required=True)
    p.add_argument("--allow-wrap", action="store_true", help="permit reads longer than the sequence")
    p.add_argument("--out", required=True, help="output reads path")

    p = sub.add_parser("count", help="build a k-mer count table from FASTA or reads")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fasta", help="count circular k-mers of one sequence")
    group.add_argument("--reads", help="count linear k-mers pooled over reads")
    p.add_argument("--record", type=_sci_int, default=None, help="record index for multi-record FASTA")
    p.add_argument("-k", type=_sci_int, required=True)
    p.add_argument("--out", required=True, help="output table path")

    p = sub.add_parser("estimate", help="run one estimator on files, print JSON")
    p.add_argument(
        "--estimator",
        required=True,
        choices=[e.value for e in EstimatorId],
    )
    kinds = "FASTA, reads file or k-mer table, told apart by its header"
    p.add_argument("--x", "--x-reads", "--x-table", dest="x", required=True, help=f"source: {kinds}")
    p.add_argument("--y", "--y-reads", "--y-table", dest="y", required=True, help=f"mutated copy: {kinds}")
    p.add_argument("--record", type=_sci_int, default=None)
    p.add_argument("-k", type=_sci_int, default=None, help="k when counting from FASTA/reads")
    p.add_argument(
        "--base", choices=K1_BASES, metavar="BASE", default="auto", help="nucleotide for the single-base estimators"
    )
    p.add_argument("--s", type=_sci_float, default=None, help="sequencer error rate (large-k-reads)")
    p.add_argument("--subset", type=_subset, default=None, help="general-k subset: all, top:M, explicit:...")

    p = sub.add_parser("bounds", help="evaluate concentration bounds; prints a bare number")
    bsub = p.add_subparsers(dest="bound", required=True)

    b = bsub.add_parser("hoeffding", help="two-sided tail bound for a bounded sum")
    b.add_argument("--t", type=_sci_float, required=True, help="deviation")
    b.add_argument("--width", type=_sci_float, required=True, help="range width per term")
    b.add_argument("--n", type=_sci_int, required=True, help="number of terms")

    b = bsub.add_parser("mcdiarmid", help="two-sided tail bound under bounded differences")
    b.add_argument("--t", type=_sci_float, required=True)
    b.add_argument("--diff", type=_sci_float, required=True, help="bounded difference per input")
    b.add_argument("--n", type=_sci_int, required=True)

    b = bsub.add_parser("min-deviation", help="usable base-frequency deviation, whole sequences")
    b.add_argument("--rate", type=_sci_float, required=True)
    b.add_argument("--eps", type=_sci_float, required=True, help="target relative error")
    b.add_argument("--length", type=_sci_float, required=True)

    # dest is the ReadBoundParams field
    b = bsub.add_parser("required-deviation", help="required base-frequency deviation, reads")
    b.add_argument("--length", dest="seq_len", metavar="LENGTH", type=_sci_float, required=True)
    b.add_argument("--num-reads", type=_sci_float, required=True)
    b.add_argument("--rate", type=_sci_float, required=True)
    b.add_argument("--s", dest="error_rate", metavar="S", type=_sci_float, required=True, help="sequencer error rate")
    b.add_argument("--eps", dest="rel_tol", metavar="EPS", type=_sci_float, required=True)
    bg = b.add_mutually_exclusive_group(required=True)
    bg.add_argument("--delta", type=_sci_float, help="total failure probability, split evenly")
    bg.add_argument("--budgets", type=_dist3, help="c1,c2,c3 exponents")

    b = bsub.add_parser("success", help="success probability under given exponents")
    bg = b.add_mutually_exclusive_group(required=True)
    bg.add_argument("--delta", type=_sci_float, help="total failure probability, split evenly")
    bg.add_argument("--budgets", type=_dist3, help="c1,c2,c3 exponents")

    # dest is the ExperimentConfig field; a flag left out takes its default
    p = sub.add_parser("experiment", help="run a Monte-Carlo sweep over a parameter grid")
    p.add_argument(
        "--mode",
        required=True,
        choices=[m.value for m in Mode],
        help="nonseq: estimators see full statistics; seq: estimators see noisy reads",
    )
    p.add_argument(
        "--estimators", type=_listed(_estimator, "estimator names"), required=True, help="comma-separated estimator names"
    )
    p.add_argument(
        "--p", dest="p_grid", metavar="P", type=_listed(_sci_float, "rates"), required=True,
        help="substitution rates, comma-separated",
    )
    p.add_argument(
        "--trials", dest="trials_per_point", metavar="TRIALS", type=_sci_int, required=True,
        help="trials per grid point",
    )
    p.add_argument("--seed", dest="master_seed", metavar="SEED", type=_sci_int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fasta", help="reference sequences from a FASTA file")
    group.add_argument("--length", type=_listed(_sci_int, "lengths"), help="i.i.d. reference lengths, comma-separated")
    p.add_argument("--dist", type=_dist, nargs="+", help="A,C,G,T groups (default uniform); each length runs with each")
    p.add_argument("--refs", type=_sci_int, help="number of i.i.d. references per source (default 1)")
    p.add_argument(
        "-k", dest="k_values", metavar="K", type=_listed(_sci_int, "k values"), help="k values, comma-separated"
    )
    p.add_argument(
        "--s", dest="s_grid", metavar="S", type=_listed(_sci_float, "error rates"),
        help="sequencer error rates, comma-separated (seq mode; required for large-k-reads)",
    )
    p.add_argument(
        "--coverage", dest="coverage_grid", metavar="COVERAGE", type=_listed(_sci_float, "coverages"),
        help="coverages, comma-separated (seq mode)",
    )
    p.add_argument("--read-len", type=_sci_int)
    p.add_argument("--base", dest="k1_base", metavar="BASE", choices=K1_BASES)
    p.add_argument("--subset", type=_subset)
    p.add_argument("--y-coverage", type=_sci_float, help="mutated-side coverage override")
    p.add_argument("--y-read-len", type=_sci_int, help="mutated-side read length override")
    p.add_argument("--out-csv", default=None, help="write per-trial records here")
    p.add_argument("--out-json", default=None, help="write the summary here")

    return parser, sub.choices


def _cmd_gen(args, parser: argparse.ArgumentParser) -> int:
    seq = generate_iid_sequence(args.length, args.dist, args.seed)
    write_fasta(args.out, [FastaRecord(args.name, seq)])
    return 0


def _cmd_mutate(args, parser: argparse.ArgumentParser) -> int:
    records = read_fasta(args.inp)
    channel = SubstitutionChannel(args.rate)
    out = [
        FastaRecord(rec.name, mutate(rec.seq, channel, derive_seed(args.seed, "record", i)))
        for i, rec in enumerate(records)
    ]
    write_fasta(args.out, out)
    return 0


def _cmd_reads(args, parser: argparse.ArgumentParser) -> int:
    seq = _read_record(args.inp, args.record)
    n = args.num_reads
    if n is None:
        n = read_count(args.coverage, len(seq), args.read_len)
    elif n < 1:
        raise MutrateError(f"--num-reads must be >= 1, got {n}")
    rs = sample_reads(
        seq,
        args.read_len,
        n,
        SubstitutionChannel(args.error_rate),
        args.seed,
        allow_wrap_repeat=args.allow_wrap,
    )
    write_reads(args.out, rs)
    return 0


def _cmd_count(args, parser: argparse.ArgumentParser) -> int:
    if args.fasta is not None:
        table = count_kmers_sequence(_read_record(args.fasta, args.record), args.k)
    else:
        rs = read_reads(args.reads)
        table = count_kmers_reads(rs, args.k)
    write_kmer_table(args.out, table)
    return 0


def _load(path: str, record: int | None) -> Data:
    """The k-mer table, read set or sequence in ``path``, by the file's
    first bytes: ``#k=`` a table, ``#L=`` a reads file, anything else FASTA."""
    with open(path, "rb") as fh:
        head = fh.read(3)
    if head == b"#k=":
        return read_kmer_table(path)
    if head == b"#L=":
        return read_reads(path)
    return _read_record(path, record)


def _cmd_estimate(args, parser: argparse.ArgumentParser) -> int:
    est = EstimatorId(args.estimator)
    if est is EstimatorId.LARGE_K_READS and args.s is None:
        parser.error("--estimator large-k-reads requires --s (sequencer error rate)")
    x = _load(args.x, args.record)
    if est in KMER_BASED:
        if args.k is None and not isinstance(x, KmerTable):
            parser.error(f"--estimator {est.value} requires -k or a k-mer table as --x")
        check_kind(est, "x", x)
        # count x before reading y: one side's reads in memory at a time
        x = as_table(x, args.k)
    y = _load(args.y, args.record)
    extras: dict = {}
    if est in SINGLE_BASE and not isinstance(x, KmerTable):  # estimate rejects a table
        extras["base"] = args.base if args.base != "auto" else choose_k1_base(x)
    result = estimate(est, x, y, k=args.k, s=args.s, base=extras.get("base"), subset=args.subset)
    print(json.dumps(_result_to_dict(result, extras), indent=2))
    return 0


def _result_to_dict(result: EstimateResult, extras: dict) -> dict:
    return {
        "estimator": result.estimator.value,
        "p_raw": result.p_raw,
        "p_clamped": result.p_clamped,
        **extras,
        "warnings": list(result.warnings),
        "diagnostics": {k: v for k, v in asdict(result.diagnostics).items() if v is not None},
    }


def _cmd_bounds(args, parser: argparse.ArgumentParser) -> int:
    if args.bound == "hoeffding":
        value = bounds_mod.hoeffding_tail(args.t, args.width, args.n)
    elif args.bound == "mcdiarmid":
        value = bounds_mod.mcdiarmid_tail(args.t, args.diff, args.n)
    elif args.bound == "min-deviation":
        value = bounds_mod.min_deviation_sequence(args.rate, args.eps, args.length)
    else:
        if args.delta is not None:
            budgets = bounds_mod.equal_budgets(args.delta)
        else:
            budgets = bounds_mod.Budgets(*args.budgets)
        if args.bound == "success":
            value = bounds_mod.success_probability(budgets)
        else:
            params = bounds_mod.ReadBoundParams(
                **{f.name: getattr(args, f.name) for f in fields(bounds_mod.ReadBoundParams)}
            )
            value = bounds_mod.required_deviation_reads(params, budgets)
    print(repr(value))
    return 0


def _cmd_experiment(args, parser: argparse.ArgumentParser) -> int:
    if EstimatorId.LARGE_K_READS in args.estimators and args.s_grid is None:
        # s=0 is legitimate, but for this estimator it must be a decision
        parser.error("large-k-reads requires an explicit --s")
    given = vars(args)
    try:
        if args.fasta is None:
            refs = 1 if args.refs is None else args.refs
            sources = [IidSource(g, dist, refs) for g in args.length for dist in args.dist or [(0.25,) * 4]]
        elif (args.dist, args.refs) != (None, None):
            parser.error("--dist and --refs describe i.i.d. references and do not apply to --fasta")
        else:
            sources = [FastaSource(args.fasta)]
        config = ExperimentConfig(
            sources, **{f.name: given[f.name] for f in fields(ExperimentConfig)[1:] if given[f.name] is not None}
        )
    except ValueError as exc:
        parser.error(str(exc))
    records = run_experiment(config)
    if args.out_csv:
        write_trials_csv(args.out_csv, records)
    if args.out_json:
        write_summary_json(args.out_json, config, records)
    print(json.dumps(summary_to_dict(config, records)["groups"], indent=2))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "mutate": _cmd_mutate,
    "reads": _cmd_reads,
    "count": _cmd_count,
    "estimate": _cmd_estimate,
    "bounds": _cmd_bounds,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        # a usage error found after parsing shows the subcommand's usage
        return _COMMANDS[args.command](args, commands[args.command])
    except (MutrateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
