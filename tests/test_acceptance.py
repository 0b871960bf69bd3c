"""Acceptance gate. One test per numbered criterion; each prints a single
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to watch).

Criteria 1-2 pin the bound formulas to their reference values, 3-4 pin the
estimators to exact expectations and a brute-force enumeration, 5-7 are
statistical checks at reduced but meaningful scale, 8 is determinism, and 9
records a qualitative sweep without asserting on it.
"""

import itertools
import json
import math
import time

import numpy as np

import oracles
from mutrate.bounds import equal_budgets, min_deviation_sequence, required_deviation_reads
from mutrate.bounds import ReadBoundParams
from mutrate.estimators import (
    EstimatorId,
    SubsetSpec,
    estimate_general_k,
    estimate_k1_gc,
    estimate_k1_reads,
    estimate_k1_single,
    estimate_large_k_reads,
    estimate_large_k_seq,
    select_lambda,
)
from mutrate.harness import (
    ExperimentConfig,
    GridPoint,
    IidSource,
    Mode,
    run_experiment,
    summarize,
    write_summary_json,
    write_trials_csv,
)
from mutrate.kmers import KmerTable, count_kmers_reads, count_kmers_sequence, expected_kmer_count
from mutrate.model import (
    CircularSequence,
    SubstitutionChannel,
    generate_iid_sequence,
    mutate,
    sample_reads,
)

RATES = (0.01, 0.05, 0.1, 0.2, 0.5)


def report(num: int, name: str, ok: bool, detail: str, elapsed: float, limit: float):
    in_time = elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"criterion {num} ({name}): {status} [{elapsed:.1f}s / limit {limit:.0f}s] {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert in_time, f"criterion {num} ({name}) took {elapsed:.1f}s, limit {limit}s"


# --- 1: minimum usable deviation, 24-entry reference grid --------------------

# rows: substitution rate; columns: sequence length 1e4, 1e5, 1e6, 1e7.
# Entries are kept as printed strings because their precision varies and the
# grid mixes rounding with truncation in the last digit (12.24, 2.44, 0.038
# are truncated), so the check allows half a unit of the printed last place
# on top of the 0.005 tolerance.
MIN_DEVIATION_GRID = {
    0.01: ("12.24", "3.87", "1.22", "0.387"),
    0.03: ("4.08", "1.29", "0.408", "0.129"),
    0.05: ("2.44", "0.77", "0.245", "0.077"),
    0.10: ("1.22", "0.387", "0.122", "0.038"),
    0.20: ("0.612", "0.194", "0.061", "0.019"),
    0.50: ("0.245", "0.077", "0.024", "0.008"),
}
GRID_LENGTHS = (1e4, 1e5, 1e6, 1e7)


def test_criterion_1_min_deviation_grid():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for rate, row in MIN_DEVIATION_GRID.items():
        for g, entry in zip(GRID_LENGTHS, row):
            got = min_deviation_sequence(rate, 0.1, g)
            want = float(entry)
            decimals = len(entry.split(".")[1])
            tol = 0.005 + 0.5 * 10.0 ** (-decimals)
            err = abs(got - want)
            worst = max(worst, err - tol)
            ok &= err <= tol
    report(
        1,
        "min-deviation grid",
        ok,
        f"24 entries, worst overshoot {worst:+.4f} (<= 0 passes)",
        time.perf_counter() - t0,
        1.0,
    )


# --- 2: required deviation for reads at the reference operating point --------


def test_criterion_2_required_deviation_reference():
    t0 = time.perf_counter()
    params = ReadBoundParams(
        seq_len=1e7, num_reads=1e6, rate=0.2, error_rate=0.03, rel_tol=0.1
    )
    d = required_deviation_reads(params, equal_budgets(1e-3))
    ok = abs(d - 0.112) <= 0.01
    report(
        2,
        "required deviation, reads",
        ok,
        f"G=1e7 N=1e6 p=0.2 s=0.03 eps=0.1 -> {d:.5f} (want 0.112 +/- 0.01)",
        time.perf_counter() - t0,
        1.0,
    )


# --- 3: plug-in identity for every estimator ---------------------------------

PLUGIN_STRINGS = (
    "ACGGTAACCGGTTAGCATGCAAGGTTAACCGGAATTCCGG",  # mixed
    "AATAATAATAATAATAATAATAATAATAAT",  # repetitive, period three
    "AAAACCCCAAAAGGGGAAAATTTTAAAACCCC",  # block-structured, A-heavy
)


def _exact_mutated_counts(x: CircularSequence, k: int, p: float) -> dict[str, float]:
    out = {}
    for q in ("".join(t) for t in itertools.product("ACGT", repeat=k)):
        v = oracles.closed_form_expected_count(x.to_string(), q, p)
        if v > 0:
            out[q] = v
    return out


def test_criterion_3_plugin_identities():
    t0 = time.perf_counter()
    worst: dict[EstimatorId, float] = {e: 0.0 for e in EstimatorId}
    for text in PLUGIN_STRINGS:
        x = CircularSequence.from_string(text)
        g = len(x)
        f_a = text.count("A")
        assert f_a * 4 != g and x.gc_fraction() != 0.5  # strings chosen nonsingular
        for p in RATES:
            # closed forms fed exact channel expectations
            f_prime = f_a * (1 - p) + (g - f_a) * p / 3
            r = estimate_k1_single(f_a, f_prime, g)
            worst[EstimatorId.K1_SINGLE] = max(worst[EstimatorId.K1_SINGLE], abs(r.p_raw - p))

            x_gc = x.gc_fraction()
            y_gc = x_gc * (1 - p) + x_gc * p / 3 + (1 - x_gc) * 2 * p / 3
            r = estimate_k1_gc(x_gc, y_gc)
            worst[EstimatorId.K1_GC] = max(worst[EstimatorId.K1_GC], abs(r.p_raw - p))

            n, length, s = 50.0, 20.0, 0.03
            noisy = lambda frac: frac * (1 - s) + (1 - frac) * s / 3  # noqa: E731
            h = n * length * noisy(f_a / g)
            h_prime = n * length * noisy(f_prime / g)
            r = estimate_k1_reads(h, h_prime, n, length)
            worst[EstimatorId.K1_READS] = max(worst[EstimatorId.K1_READS], abs(r.p_raw - p))

            # moment matching fed exact channel expectations
            t3 = count_kmers_sequence(x, 3)
            r = estimate_general_k(t3, _exact_mutated_counts(x, 3, p), SubsetSpec.top(8))
            worst[EstimatorId.GENERAL_K] = max(worst[EstimatorId.GENERAL_K], abs(r.p_raw - p))

            # survival estimators fed their defining mass law (exact in the
            # large-k limit where mutated windows no longer re-hit the set)
            k = 6
            t6 = count_kmers_sequence(x, k)
            mutated = {w: c * (1 - p) ** k for w, c in t6.items()}
            r = estimate_large_k_seq(t6, mutated)
            worst[EstimatorId.LARGE_K_SEQ] = max(worst[EstimatorId.LARGE_K_SEQ], abs(r.p_raw - p))

            rs = sample_reads(x, len(text), 40, SubstitutionChannel(0.0), rng_seed=1)
            hx = count_kmers_reads(rs, k)
            sel = select_lambda(hx, 0.01)
            mutated_reads = {
                w: c * (1 - p) ** k for w, c in hx.items() if c >= sel.lam
            }
            r = estimate_large_k_reads(hx, mutated_reads, 0.01)
            worst[EstimatorId.LARGE_K_READS] = max(
                worst[EstimatorId.LARGE_K_READS], abs(r.p_raw - p)
            )
    tol = {e: 1e-6 if e is EstimatorId.GENERAL_K else 1e-9 for e in EstimatorId}
    ok = all(worst[e] <= tol[e] for e in EstimatorId)
    detail = ", ".join(f"{e.value}={worst[e]:.2e}" for e in EstimatorId)
    report(3, "plug-in identities", ok, f"worst |p_hat - p|: {detail}", time.perf_counter() - t0, 10.0)


# --- 4: expected counts against exhaustive enumeration -----------------------


def _enumerated_expected_table(seq: str, k: int, rate: float) -> dict[str, float]:
    g = len(seq)
    out: dict[str, float] = {}
    for y_tuple in itertools.product("ACGT", repeat=g):
        y = "".join(y_tuple)
        prob = oracles.channel_prob(seq, y, rate)
        if prob == 0.0:
            continue
        for w, c in oracles.circular_kmer_counts(y, k).items():
            out[w] = out.get(w, 0.0) + prob * c
    return out


def test_criterion_4_brute_force_enumeration():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for seq in ("ACGTAC", "AAACG"):
        x = CircularSequence.from_string(seq)
        for k in (1, 2, 3):
            t = count_kmers_sequence(x, k)
            for p in RATES:
                want = _enumerated_expected_table(seq, k, p)
                for q in ("".join(c) for c in itertools.product("ACGT", repeat=k)):
                    got = expected_kmer_count(q, t, p)
                    worst = max(worst, abs(got - want.get(q, 0.0)))
                    cases += 1
    ok = worst <= 1e-9
    report(
        4,
        "brute-force expectations",
        ok,
        f"{cases} (string, k, p, query) cases, worst abs err {worst:.2e}",
        time.perf_counter() - t0,
        30.0,
    )


# --- 5: concentration of the single-base estimator at scale ------------------


def test_criterion_5_k1_single_concentration():
    t0 = time.perf_counter()
    g, p, eps, trials = 1_000_000, 0.1, 0.1, 1000
    x = generate_iid_sequence(g, (0.4, 0.2, 0.2, 0.2), rng_seed=101)
    f_a = float(np.count_nonzero(x.codes == 0))
    ch = SubstitutionChannel(p)
    hits = 0
    for trial in range(trials):
        y = mutate(x, ch, rng_seed=200_000 + trial)
        f_prime = float(np.count_nonzero(y.codes == 0))
        p_hat = estimate_k1_single(f_a, f_prime, g).p_raw
        hits += abs(p_hat - p) <= eps * p
    ok = hits >= 990
    report(
        5,
        "single-base concentration",
        ok,
        f"f_A/G={f_a / g:.3f}, {hits}/1000 trials within 10% of p={p}",
        time.perf_counter() - t0,
        120.0,
    )


# --- 6: read-mode statistics --------------------------------------------------


def test_criterion_6_read_mode_statistics():
    t0 = time.perf_counter()
    cfg_k1 = ExperimentConfig(
        sources=(IidSource(100_000, (0.4, 0.2, 0.2, 0.2)),),
        mode=Mode.SEQ,
        estimators=(EstimatorId.K1_READS,),
        p_grid=(0.1,),
        s_grid=(0.03,),
        coverage_grid=(30.0,),
        read_len=1000,
        trials_per_point=500,
        master_seed=61,
    )
    recs = run_experiment(cfg_k1)
    assert all(r.ok for r in recs)
    p_hats = np.array([r.p_raw for r in recs])
    se = p_hats.std(ddof=1) / math.sqrt(len(p_hats))
    mean_ok = abs(p_hats.mean() - 0.1) <= 4 * se

    cfg_lkr = ExperimentConfig(
        sources=(IidSource(100_000, (0.25, 0.25, 0.25, 0.25)),),
        mode=Mode.SEQ,
        estimators=(EstimatorId.LARGE_K_READS,),
        p_grid=(0.05,),
        k_values=(30,),
        s_grid=(0.01,),
        coverage_grid=(30.0,),
        read_len=1000,
        trials_per_point=100,
        master_seed=62,
    )
    stats = summarize(run_experiment(cfg_lkr))[
        GridPoint(EstimatorId.LARGE_K_READS, 30, 0.05, 0.01, 30.0)
    ]
    median_ok = abs(stats.median) <= 0.1 and stats.error_count == 0
    report(
        6,
        "read-mode statistics",
        mean_ok and median_ok,
        f"k1-reads mean={p_hats.mean():.5f} (4SE={4 * se:.5f} around 0.1); "
        f"large-k-reads k=30 median rel err={stats.median:+.4f} (|.| <= 0.1)",
        time.perf_counter() - t0,
        600.0,
    )


# --- 7: count-threshold rule ---------------------------------------------------


def test_criterion_7_lambda_rule():
    t0 = time.perf_counter()
    t = KmerTable.from_mapping(2, {"AA": 10, "CC": 8, "GG": 1, "TT": 1}, provenance="reads")
    s_for_18 = 1 - (18 / 20) ** 0.5
    ex1 = select_lambda(t, s_for_18)
    ex2 = select_lambda(t, 0.001)
    t2 = KmerTable.from_mapping(2, {"AA": 4, "CC": 3, "GG": 2}, provenance="reads")
    ex3 = select_lambda(t2, 0.0)
    examples_ok = (
        (ex1.lam, ex1.retained_mass, ex1.fallback) == (8, 18, False)
        and (ex2.lam, ex2.fallback) == (1, True)
        and (ex3.lam, ex3.retained_mass, ex3.fallback) == (2, 9, False)
    )

    rng = np.random.default_rng(70)
    from mutrate.kmers import decode_kmer

    monotone_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 15))
        keys = rng.choice(4**5, size=n, replace=False)
        counts = {
            decode_kmer(int(v), 5): int(c)
            for v, c in zip(keys, rng.integers(1, 100, size=n))
        }
        table = KmerTable.from_mapping(5, counts, provenance="reads")
        lams = [select_lambda(table, s).lam for s in np.linspace(0.0, 0.6, 13)]
        monotone_ok &= lams == sorted(lams)
    report(
        7,
        "count-threshold rule",
        examples_ok and monotone_ok,
        f"examples {'ok' if examples_ok else 'FAILED'}, "
        f"monotone in s on 100 random tables {'ok' if monotone_ok else 'FAILED'}",
        time.perf_counter() - t0,
        5.0,
    )


# --- 8: byte-identical reruns --------------------------------------------------


def test_criterion_8_deterministic_csv(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        sources=(IidSource(100_000, (0.35, 0.25, 0.2, 0.2)),),
        mode=Mode.SEQ,
        estimators=(EstimatorId.K1_READS, EstimatorId.LARGE_K_READS),
        p_grid=(0.05, 0.1),
        k_values=(30,),
        s_grid=(0.01,),
        coverage_grid=(30.0,),
        read_len=1000,
        trials_per_point=8,
        master_seed=88,
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trials_csv(a, run_experiment(cfg))
    write_trials_csv(b, run_experiment(cfg))
    ok = a.read_bytes() == b.read_bytes()
    report(
        8,
        "deterministic reruns",
        ok,
        f"two runs of a {4 * 8}-trial read-mode grid -> identical {a.stat().st_size}-byte CSV",
        time.perf_counter() - t0,
        240.0,
    )


# --- 9: qualitative sweep, recorded not asserted -------------------------------


def test_criterion_9_base_deviation_sweep(tmp_path):
    t0 = time.perf_counter()
    # eight sources, lengths outer; source j draws under master seed 900 + j
    cfg = ExperimentConfig(
        sources=tuple(
            IidSource(g, (f_a, *[(1 - f_a) / 3] * 3))
            for g, f_a in itertools.product((100_000, 1_000_000), (0.25, 0.30, 0.35, 0.40))
        ),
        mode=Mode.SEQ,
        estimators=(EstimatorId.K1_READS,),
        p_grid=(0.05,),
        s_grid=(0.05,),
        coverage_grid=(30.0,),
        read_len=1000,
        trials_per_point=8,
        master_seed=900,
    )
    records = run_experiment(cfg)
    write_trials_csv(tmp_path / "sweep.csv", records)
    write_summary_json(tmp_path / "sweep.json", cfg, records)
    summary = json.loads((tmp_path / "sweep.json").read_text())
    print("\n  f_A/G      G    median rel err   IQR width   errors")
    for group in summary["groups"]:
        source = summary["config"]["sources"][group["source"]]
        nan = float("nan")
        iqr = group["q3"] - group["q1"] if group["count"] else nan
        med = group["median"] if group["count"] else nan
        print(
            f"  {source['distribution'][0]:.2f}  {source['length']:>9,d}   {med:+12.4f}   {iqr:9.4f}   "
            f"{group['error_count']}"
        )
    # recorded, not asserted: the table above should show error shrinking as
    # |f_A/G - 0.25| and G grow, and instability at exactly 0.25
    report(
        9,
        "base-deviation sweep",
        summary["num_trials"] == 64 and [group["source"] for group in summary["groups"]] == list(range(8)),
        "qualitative sweep recorded above; trends documented in README",
        time.perf_counter() - t0,
        600.0,
    )
