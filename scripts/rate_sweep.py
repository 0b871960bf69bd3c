#!/usr/bin/env python3
"""Sweep every estimator of one mode across a substitution-rate grid and
print its relative-error box statistics per rate.

Defaults run both whole-sequence estimator families on a skewed i.i.d.
reference. Use --mode seq for the read-based estimators (slower; the
survival estimator in particular wants k around 20-30).
"""

import argparse
import sys

from mutrate import EstimatorId, ExperimentConfig, IidSource, Mode, SubsetSpec, run_experiment, summarize
from mutrate.harness import MODE_ESTIMATORS, write_summary_json, write_trials_csv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=["nonseq", "seq"], default="nonseq")
    ap.add_argument("--estimators", default=None,
                    help="comma-separated subset (default: all for the mode)")
    ap.add_argument("--p", default="0.01,0.05,0.1,0.2,0.3,0.5")
    ap.add_argument("--length", type=float, default=1e5)
    ap.add_argument("--dist", default="0.4,0.2,0.2,0.2", help="A,C,G,T probabilities")
    ap.add_argument("-k", type=int, default=None,
                    help="k for the k-mer estimators (default 12 nonseq, 24 seq)")
    ap.add_argument("--s", type=float, default=0.01, help="sequencer error rate (seq mode)")
    ap.add_argument("--coverage", type=float, default=30.0, help="coverage (seq mode)")
    ap.add_argument("--read-len", type=int, default=1000, help="read length (seq mode)")
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--subset-size", type=int, default=32,
                    help="moment-matching subset size (general-k is quadratic without one)")
    ap.add_argument("--out-csv", default=None)
    ap.add_argument("--out-json", default=None)
    args = ap.parse_args(argv)

    mode = Mode(args.mode)
    if args.estimators:
        estimators = tuple(EstimatorId(e) for e in args.estimators.split(","))
    else:
        order = [e for e in EstimatorId if e in MODE_ESTIMATORS[mode]]
        estimators = tuple(order)
    k = args.k if args.k is not None else (12 if mode is Mode.NONSEQ else 24)

    subset = SubsetSpec.top(args.subset_size) if EstimatorId.GENERAL_K in estimators else None
    reads = {}
    if mode is Mode.SEQ:  # the read parameters exist only in read mode
        reads = {"s_grid": (args.s,), "coverage_grid": (args.coverage,), "read_len": args.read_len}
    cfg = ExperimentConfig(
        source=IidSource(int(args.length), tuple(float(x) for x in args.dist.split(","))),
        mode=mode,
        estimators=estimators,
        p_grid=tuple(float(x) for x in args.p.split(",")),
        k_values=(k,),
        trials_per_point=args.trials,
        master_seed=args.seed,
        subset=subset,
        **reads,
    )
    records = run_experiment(cfg)

    print(f"{'estimator':>14} {'p':>5} {'median':>9} {'q1':>9} {'q3':>9} "
          f"{'whisk_lo':>9} {'whisk_hi':>9} {'err':>4}")
    for gp, st in summarize(records).items():
        print(
            f"{gp.estimator.value:>14} {gp.p:>5.2f} {st.median:>9.4f} {st.q1:>9.4f} "
            f"{st.q3:>9.4f} {st.whisker_low:>9.4f} {st.whisker_high:>9.4f} {st.error_count:>4d}"
        )
    if args.out_csv:
        write_trials_csv(args.out_csv, records)
        print(f"wrote {len(records)} trial records to {args.out_csv}")
    if args.out_json:
        write_summary_json(args.out_json, cfg, records)
        print(f"wrote summary to {args.out_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
