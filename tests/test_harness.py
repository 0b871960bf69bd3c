import math
import re
from dataclasses import replace

import numpy as np
import pytest

from mutrate import harness, kmers
from mutrate.errors import (
    EmptyRetainedSet,
    FastaParseError,
    MismatchedK,
    MutrateError,
    NoRootInRange,
    SingularDenominator,
)
from mutrate.estimators import SINGLE_BASE, EstimatorId, SubsetSpec
from mutrate.harness import (
    DEFAULT_COVERAGE,
    DEFAULT_READ_LEN,
    BoxStats,
    ExperimentConfig,
    FastaSource,
    GridPoint,
    IidSource,
    Mode,
    TrialRecord,
    as_table,
    box_stats,
    choose_k1_base,
    derive_seed,
    estimate,
    read_trials_csv,
    run_experiment,
    summarize,
    summary_to_dict,
    write_summary_json,
    write_trials_csv,
)
from mutrate.kmers import KmerTable, count_kmers_reads, count_kmers_sequence
from mutrate.model import (
    CircularSequence,
    ReadSet,
    SubstitutionChannel,
    generate_iid_sequence,
    mutate,
    sample_reads,
)
from mutrate.seqio import FastaRecord, write_fasta

UNIFORM = (0.25, 0.25, 0.25, 0.25)
SKEWED = (0.4, 0.2, 0.2, 0.2)


def nonseq_config(**overrides):
    base = dict(
        sources=(IidSource(4000, SKEWED),),
        mode=Mode.NONSEQ,
        estimators=(EstimatorId.K1_SINGLE,),
        p_grid=(0.1,),
        trials_per_point=5,
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_mode_estimator_consistency(self):
        with pytest.raises(ValueError, match="do not run"):
            nonseq_config(estimators=(EstimatorId.K1_READS,))
        with pytest.raises(ValueError, match="do not run"):
            nonseq_config(mode=Mode.SEQ, estimators=(EstimatorId.K1_GC,))

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            nonseq_config(p_grid=(0.0,))
        with pytest.raises(ValueError):
            nonseq_config(p_grid=(1.0,))

    def test_read_len_must_cover_k(self):
        with pytest.raises(ValueError, match="read_len"):
            nonseq_config(
                mode=Mode.SEQ,
                estimators=(EstimatorId.K1_READS,),
                k_values=(25,),
                read_len=20,
            )

    def test_grid_point_order(self):
        cfg = nonseq_config(
            estimators=(EstimatorId.K1_SINGLE, EstimatorId.K1_GC),
            p_grid=(0.1, 0.2),
            k_values=(1, 2),
        )
        pts = list(cfg.grid_points())
        assert len(pts) == 8
        assert pts[0] == GridPoint(EstimatorId.K1_SINGLE, 1, 0.1)
        assert pts[-1] == GridPoint(EstimatorId.K1_GC, 2, 0.2)
        # nonseq points carry no read parameters
        assert all(p.s is None and p.coverage is None for p in pts)

    def test_seq_grid_includes_read_axes(self):
        cfg = nonseq_config(
            mode=Mode.SEQ,
            estimators=(EstimatorId.K1_READS,),
            s_grid=(0.0, 0.01),
            coverage_grid=(10.0, 20.0),
            read_len=100,
        )
        pts = list(cfg.grid_points())
        assert len(pts) == 4
        assert {(p.s, p.coverage) for p in pts} == {
            (0.0, 10.0),
            (0.0, 20.0),
            (0.01, 10.0),
            (0.01, 20.0),
        }

    def test_subset_only_for_general_k(self):
        from mutrate.estimators import SubsetSpec

        with pytest.raises(ValueError, match="subset"):
            nonseq_config(subset=SubsetSpec.top(5))

    @pytest.mark.parametrize(
        "name, values",
        [
            ("estimators", (EstimatorId.K1_SINGLE, "k1-single")),
            ("p_grid", (0.1, 0.10)),
            ("k_values", (1, 2, 1)),
            ("s_grid", (0.0, 0.0)),
            ("coverage_grid", (30.0, 30)),
        ],
    )
    def test_repeated_grid_values_rejected(self, name, values):
        # a repeated grid point replays the same seeds, and summarize used to
        # count its trials twice: p_grid=(0.1, 0.1) gave count 6 from 3 trials
        with pytest.raises(ValueError, match=f"{name} repeats a value"):
            nonseq_config(**{name: values})


    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(sources=()), "sources must be nonempty"),
            (dict(estimators=()), "estimators must be nonempty"),
            (dict(p_grid=()), "p_grid must be nonempty"),
            (dict(k_values=()), "k_values must be nonempty"),
            (dict(k_values=(0,)), "k must be in 1..32, got 0"),
            (dict(k_values=(33,)), "k must be in 1..32, got 33"),
            (dict(trials_per_point=0), "trials_per_point must be >= 1, got 0"),
            (dict(k1_base="N"), "k1_base must be 'auto' or one of ACGT, got 'N'"),
            (dict(mode=Mode.SEQ, estimators=(EstimatorId.K1_READS,), s_grid=()), "read mode needs a nonempty s_grid"),
            (dict(mode=Mode.SEQ, estimators=(EstimatorId.K1_READS,), s_grid=(1.0,)), "error rates must be in [0, 1), got 1.0"),
            (
                dict(mode=Mode.SEQ, estimators=(EstimatorId.K1_READS,), coverage_grid=()),
                "read mode needs a nonempty coverage_grid",
            ),
            (
                dict(mode=Mode.SEQ, estimators=(EstimatorId.K1_READS,), y_coverage=5.0),
                "separate mutated-side read parameters only apply to large-k-reads",
            ),
            (
                dict(mode=Mode.SEQ, estimators=(EstimatorId.LARGE_K_READS,), k_values=(20,), y_read_len=19),
                "y_read_len must cover the largest k",
            ),
            (dict(s_grid=(0.01,)), "read-mode fields ['s_grid'] do not apply in nonseq mode"),
            (
                dict(coverage_grid=(3.0,), read_len=7),
                "read-mode fields ['coverage_grid', 'read_len'] do not apply in nonseq mode",
            ),
        ],
    )
    def test_invalid_field_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nonseq_config(**overrides)

    def test_read_fields_at_their_defaults_accepted_in_nonseq_mode(self):
        given = nonseq_config(s_grid=(0,), coverage_grid=(DEFAULT_COVERAGE,), read_len=DEFAULT_READ_LEN)
        assert given == nonseq_config()

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, SKEWED), "length must be >= 1, got 0"),
            ((100, SKEWED, 0), "num_references must be >= 1, got 0"),
            ((100, (0.5, 0.5)), "distribution must have exactly 4 probabilities (A, C, G, T)"),
            ((100, (0.5, 0.5, 0.5, 0.5)), "distribution must sum to 1, got 2.0"),
            ((100, (0.5, 0.5, math.nan, 0.0)), "distribution probabilities must be finite, got [0.5, 0.5, nan, 0.0]"),
        ],
    )
    def test_invalid_iid_source_rejected(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            IidSource(*args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_coverage_must_be_positive_and_finite(self, bad):
        # NaN passed `c <= 0`: read mode then failed converting it to a read
        # count, and nonseq mode wrote it into the summary
        with pytest.raises(ValueError, match="coverages must be positive and finite"):
            nonseq_config(coverage_grid=(10.0, bad))
        with pytest.raises(ValueError, match="coverages must be positive and finite"):
            nonseq_config(mode=Mode.SEQ, estimators=(EstimatorId.K1_READS,), read_len=100, coverage_grid=(bad,))
        with pytest.raises(ValueError, match="y_coverage must be positive and finite"):
            nonseq_config(
                mode=Mode.SEQ, estimators=(EstimatorId.LARGE_K_READS,), k_values=(20,), read_len=100, y_coverage=bad
            )


class TestSeeds:
    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)

    def test_trial_seeds_pairwise_distinct(self):
        records = run_experiment(nonseq_config(p_grid=(0.1, 0.2), trials_per_point=20))
        seeds = [r.seed for r in records]
        assert len(seeds) == len(set(seeds))

    def test_deterministic_end_to_end(self):
        cfg = nonseq_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [(r.seed, r.p_raw, r.rel_error) for r in a] == [
            (r.seed, r.p_raw, r.rel_error) for r in b
        ]

    def test_master_seed_changes_results(self):
        a = run_experiment(nonseq_config(master_seed=1))
        b = run_experiment(nonseq_config(master_seed=2))
        assert [r.p_raw for r in a] != [r.p_raw for r in b]


class TestRunExperiment:
    def test_record_count_and_shape(self):
        cfg = nonseq_config(p_grid=(0.05, 0.2), trials_per_point=3)
        records = run_experiment(cfg)
        assert len(records) == 6
        for r in records:
            assert r.estimator is EstimatorId.K1_SINGLE
            assert r.p in (0.05, 0.2)
            assert r.s is None and r.coverage is None
            assert r.rel_error == pytest.approx(r.p_raw / r.p - 1.0)

    def test_each_source_runs_as_its_own_config_at_master_seed_plus_its_index(self):
        a, b = IidSource(4000, SKEWED), IidSource(3000, (0.3, 0.3, 0.2, 0.2), num_references=2)
        grid = dict(estimators=(EstimatorId.K1_SINGLE, EstimatorId.LARGE_K_SEQ), k_values=(8,), p_grid=(0.1, 0.2))
        records = run_experiment(nonseq_config(sources=(a, b), trials_per_point=3, **grid))
        alone = [
            run_experiment(nonseq_config(sources=(src,), master_seed=42 + j, trials_per_point=3, **grid))
            for j, src in enumerate((a, b))
        ]
        assert [r.source for r in records] == [0] * 12 + [1] * 12
        assert all(r.ok for r in records)
        assert [replace(r, source=0) for r in records] == alone[0] + alone[1]

    def test_each_source_is_drawn_when_its_trials_start(self, monkeypatch):
        calls = []
        draw, mutate_ = harness.generate_iid_sequence, harness.mutate
        monkeypatch.setattr(harness, "generate_iid_sequence", lambda *a: calls.append("draw") or draw(*a))
        monkeypatch.setattr(harness, "mutate", lambda *a: calls.append("mutate") or mutate_(*a))
        two = (IidSource(500, SKEWED, num_references=2), IidSource(600, SKEWED))
        run_experiment(nonseq_config(sources=two, p_grid=(0.1, 0.2), trials_per_point=2))
        assert calls == ["draw", "draw"] + ["mutate"] * 4 + ["draw"] + ["mutate"] * 4

    def test_references_round_robin(self):
        cfg = nonseq_config(sources=(IidSource(4000, SKEWED, num_references=3),), trials_per_point=7)
        records = run_experiment(cfg)
        assert [r.reference for r in records] == [0, 1, 2, 0, 1, 2, 0]

    def test_fasta_source(self, tmp_path):
        path = tmp_path / "refs.fa"
        rng = np.random.default_rng(0)
        seqs = ["".join(rng.choice(list("ACGT"), 500)) for _ in range(2)]
        # skew the first so k1-single has signal
        seqs[0] = "A" * 200 + seqs[0][200:]
        write_fasta(path, [FastaRecord(f"r{i}", CircularSequence.from_string(s)) for i, s in enumerate(seqs)])
        cfg = nonseq_config(sources=(FastaSource(str(path)),), trials_per_point=4)
        records = run_experiment(cfg)
        assert {r.reference for r in records} == {0, 1}

    def test_errors_recorded_not_raised(self, tmp_path):
        # a perfectly balanced reference makes the GC estimator singular
        path = tmp_path / "bal.fa"
        write_fasta(path, [FastaRecord("bal", CircularSequence.from_string("ACGT" * 250))])
        cfg = nonseq_config(
            sources=(FastaSource(str(path)),),
            estimators=(EstimatorId.K1_GC,),
            trials_per_point=3,
        )
        records = run_experiment(cfg)
        assert all(r.error == "singular-denominator" for r in records)
        assert all(math.isnan(r.p_raw) for r in records)
        stats = summarize(records)[records[0].grid_point]
        assert stats.count == 0 and stats.error_count == 3

    def test_explicit_subset_of_wrong_length_is_a_mismatched_k_trial(self):
        cfg = nonseq_config(
            estimators=(EstimatorId.GENERAL_K,),
            k_values=(3,),
            subset=SubsetSpec.explicit(["AC"]),
            trials_per_point=2,
        )
        assert [r.error for r in run_experiment(cfg)] == ["mismatched-k"] * 2

    def test_seq_mode_runs_all_read_estimators(self):
        cfg = nonseq_config(
            sources=(IidSource(3000, SKEWED),),
            mode=Mode.SEQ,
            estimators=(EstimatorId.K1_READS, EstimatorId.LARGE_K_READS),
            k_values=(8,),
            s_grid=(0.01,),
            coverage_grid=(15.0,),
            read_len=100,
            trials_per_point=3,
        )
        records = run_experiment(cfg)
        assert len(records) == 6
        lam = [r.lambda_threshold for r in records if r.estimator is EstimatorId.LARGE_K_READS]
        assert all(l is not None and l >= 1 for l in lam)

    def test_k1_reads_at_unequal_volumes_is_an_error_trial(self):
        # a mutated-side coverage override gives y fewer reads than x; the
        # single-base read estimator needs equal N and L, so its trials carry
        # an error code instead of a rate
        cfg = nonseq_config(
            sources=(IidSource(3000, SKEWED),),
            mode=Mode.SEQ,
            estimators=(EstimatorId.K1_READS, EstimatorId.LARGE_K_READS),
            k_values=(8,),
            s_grid=(0.01,),
            coverage_grid=(20.0,),
            read_len=100,
            y_coverage=5.0,
            trials_per_point=2,
        )
        records = run_experiment(cfg)
        errors = {r.estimator: r.error for r in records}
        assert errors == {EstimatorId.K1_READS: "estimator-error", EstimatorId.LARGE_K_READS: ""}

    def test_y_read_len_past_the_reference_fails_before_any_trial(self, monkeypatch):
        # this used to run every k1-reads trial, then fail in the first
        # large-k-reads trial with a message naming a Python keyword
        mutated = []
        monkeypatch.setattr(harness, "mutate", lambda *args: mutated.append(args))
        cfg = nonseq_config(
            sources=(IidSource(500, SKEWED),),
            mode=Mode.SEQ,
            estimators=(EstimatorId.K1_READS, EstimatorId.LARGE_K_READS),
            k_values=(8,),
            s_grid=(0.01,),
            coverage_grid=(10.0,),
            read_len=100,
            y_read_len=1000,
            trials_per_point=2,
        )
        with pytest.raises(ValueError, match=r"^source 0, reference 0: y_read_len 1000 exceeds its length 500$"):
            run_experiment(cfg)
        assert mutated == []

    def test_nonseq_and_seq_agree_when_reads_cover_everything(self):
        # s=0 and L=G with generous coverage make read statistics converge
        # to whole-sequence statistics: means must agree within 4 SE
        g, p, trials = 2000, 0.1, 200
        common = dict(
            sources=(IidSource(g, SKEWED),),
            p_grid=(p,),
            trials_per_point=trials,
            master_seed=1234,
        )
        nonseq = run_experiment(
            ExperimentConfig(
                mode=Mode.NONSEQ, estimators=(EstimatorId.K1_SINGLE,), **common
            )
        )
        seq = run_experiment(
            ExperimentConfig(
                mode=Mode.SEQ,
                estimators=(EstimatorId.K1_READS,),
                s_grid=(0.0,),
                coverage_grid=(50.0,),
                read_len=g,
                **common,
            )
        )
        e1 = [r.rel_error for r in nonseq]
        e2 = [r.rel_error for r in seq]
        se = math.sqrt(np.var(e1, ddof=1) / trials + np.var(e2, ddof=1) / trials)
        assert abs(np.mean(e1) - np.mean(e2)) < 4 * se

    def test_large_k_seq_median_example(self):
        cfg = ExperimentConfig(
            sources=(IidSource(20_000, UNIFORM),),
            mode=Mode.NONSEQ,
            estimators=(EstimatorId.LARGE_K_SEQ,),
            p_grid=(0.05,),
            k_values=(30,),
            trials_per_point=40,
            master_seed=5,
        )
        stats = summarize(run_experiment(cfg))[
            GridPoint(EstimatorId.LARGE_K_SEQ, 30, 0.05)
        ]
        assert abs(stats.median) <= 0.05


class TestSummaries:
    def gp(self):
        return GridPoint(EstimatorId.K1_SINGLE, 1, 0.1)

    def rec(self, e, trial=0, err=""):
        g = self.gp()
        nan = float("nan")
        if err:
            return TrialRecord(g.estimator, g.k, g.p, g.s, g.coverage, g.source, 0, trial, trial, nan, nan, nan, err)
        return TrialRecord(g.estimator, g.k, g.p, g.s, g.coverage, g.source, 0, trial, trial, 0.1, 0.1, e)

    def test_empty(self):
        assert summarize([]) == {}

    def test_single_record(self):
        st = summarize([self.rec(0.2)])[self.gp()]
        assert (
            st.median == st.q1 == st.q3 == st.whisker_low == st.whisker_high == st.mean == 0.2
        )
        assert st.stddev == 0.0 and st.count == 1

    def test_three_records_quartiles(self):
        st = summarize([self.rec(e, i) for i, e in enumerate((-0.1, 0.0, 0.1))])[self.gp()]
        assert st.q1 == pytest.approx(-0.05)
        assert st.q3 == pytest.approx(0.05)
        assert st.median == pytest.approx(0.0)
        assert st.whisker_low == pytest.approx(-0.1)
        assert st.whisker_high == pytest.approx(0.1)

    def test_quartiles_match_oracle(self):
        import oracles

        rng = np.random.default_rng(3)
        vals = rng.normal(size=37).tolist()
        st = box_stats(vals)
        q1, med, q3 = oracles.quartiles_midpoint(vals)
        assert st.q1 == pytest.approx(q1)
        assert st.median == pytest.approx(med)
        assert st.q3 == pytest.approx(q3)
        assert st.mean == pytest.approx(float(np.mean(vals)))
        assert st.stddev == pytest.approx(float(np.std(vals)))

    def test_whiskers_exclude_outliers(self):
        vals = [0.0, 0.01, -0.01, 0.02, -0.02, 5.0]
        st = box_stats(vals)
        assert st.whisker_high < 5.0

    def test_errors_counted_not_pooled(self):
        records = [self.rec(0.1, 0), self.rec(0.3, 1), self.rec(0.0, 2, err="no-root-in-range")]
        st = summarize(records)[self.gp()]
        assert st.count == 2
        assert st.error_count == 1
        assert st.mean == pytest.approx(0.2)

    def test_grouping_by_grid_point(self):
        a = self.rec(0.1)
        other = TrialRecord(EstimatorId.K1_GC, 1, 0.2, None, None, 0, 0, 0, 99, 0.2, 0.2, 0.0)
        # the same estimator, k and p on another source is another grid point
        elsewhere = TrialRecord(EstimatorId.K1_SINGLE, 1, 0.1, None, None, 1, 0, 0, 98, 0.1, 0.1, 0.3)
        summ = summarize([a, other, elsewhere])
        assert list(summ) == [a.grid_point, other.grid_point, elsewhere.grid_point]
        assert summ[elsewhere.grid_point].mean == pytest.approx(0.3)


# hand-built records and their literal v2 text; no RNG, so the same on every NumPy
GOLDEN_RECORDS = [
    # ok row; s and coverage None outside read mode
    TrialRecord(EstimatorId.K1_SINGLE, 1, 0.1, None, None, 0, 0, 0, 12345, 0.0987, 0.0987, -0.013),
    # errored trial on the fourth source's second reference: NaN rates and an error code
    TrialRecord(
        EstimatorId.GENERAL_K, 8, 0.3, None, None, 3, 1, 2, 99,
        math.nan, math.nan, math.nan, "no-root-in-range",
    ),
    # read mode, with lambda and its fallback
    TrialRecord(
        EstimatorId.LARGE_K_READS, 20, 0.05, 0.01, 30.0, 1, 0, 1, 7, 0.051, 0.051, 0.02,
        lambda_threshold=3, lambda_fallback=True,
    ),
    # a seed at or above 2^63, and multiple roots
    TrialRecord(
        EstimatorId.GENERAL_K, 8, 0.3, None, None, 0, 0, 3, 2**64 - 59, 0.31, 0.31, 0.0333,
        multiple_roots=True,
    ),
]
GOLDEN_CSV = (
    "# format: mutrate-trials-v2\n"
    "estimator,k,p,s,coverage,source,reference,trial,seed,p_raw,p_clamped,rel_error,error,"
    "lambda_threshold,lambda_fallback,multiple_roots\n"
    "k1-single,1,0.1,,,0,0,0,12345,0.0987,0.0987,-0.013,,,0,0\n"
    "general-k,8,0.3,,,3,1,2,99,nan,nan,nan,no-root-in-range,,0,0\n"
    "large-k-reads,20,0.05,0.01,30.0,1,0,1,7,0.051,0.051,0.02,,3,1,0\n"
    "general-k,8,0.3,,,0,0,3,18446744073709551557,0.31,0.31,0.0333,,,0,1\n"
)


def _each_row(fn) -> str:
    """GOLDEN_CSV with ``fn`` applied to every line after the format line."""
    fmt, *rest = GOLDEN_CSV.splitlines()
    return "\n".join([fmt, *map(fn, rest)]) + "\n"


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        records = run_experiment(nonseq_config(trials_per_point=4))
        path = tmp_path / "t.csv"
        write_trials_csv(path, records)
        assert read_trials_csv(path) == records

    def test_csv_round_trip_seq_mode(self, tmp_path):
        cfg = nonseq_config(
            sources=(IidSource(2000, SKEWED),),
            mode=Mode.SEQ,
            estimators=(EstimatorId.LARGE_K_READS,),
            k_values=(8,),
            s_grid=(0.01,),
            coverage_grid=(10.0,),
            read_len=100,
            trials_per_point=3,
        )
        records = run_experiment(cfg)
        path = tmp_path / "t.csv"
        write_trials_csv(path, records)
        assert read_trials_csv(path) == records

    def test_csv_byte_identical_across_runs(self, tmp_path):
        cfg = nonseq_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trials_csv(a, run_experiment(cfg))
        write_trials_csv(b, run_experiment(cfg))
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trials_csv(path, run_experiment(nonseq_config(trials_per_point=1)))
        text = path.read_text()
        assert text.startswith("# format: mutrate-trials-v2\n")
        path.write_text("bogus\n" + text)
        with pytest.raises(ValueError, match="format"):
            read_trials_csv(path)
        # v1 had no source column; it is not read as source-less v2
        path.write_text(text.replace("mutrate-trials-v2", "mutrate-trials-v1", 1))
        with pytest.raises(ValueError, match="unrecognized trials format line '# format: mutrate-trials-v1'"):
            read_trials_csv(path)

    def test_csv_golden_v2_text(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trials_csv(path, GOLDEN_RECORDS)
        assert path.read_text() == GOLDEN_CSV
        # NaN != NaN, so compare the read-back records through their text
        back = tmp_path / "back.csv"
        write_trials_csv(back, read_trials_csv(path))
        assert back.read_text() == GOLDEN_CSV
        assert read_trials_csv(path)[2].lambda_threshold == 3

    @pytest.mark.parametrize(
        "text, line",
        [
            # a missing column raised KeyError: 'multiple_roots'
            (_each_row(lambda row: row.rsplit(",", 1)[0]), 2),
            # an extra column was ignored
            (_each_row(lambda row: row + ",x"), 2),
            # a row cut short by its last three cells read as a valid trial
            (GOLDEN_CSV.replace(",0.02,,3,1,0\n", ",0.02,\n"), 5),
            (GOLDEN_CSV.replace(",0.0333,,,0,1\n", ",0.0333,,,0,1,1\n"), 6),
            (GOLDEN_CSV.replace("-0.013,,,0,0\n", "-0.013,,,0,2\n"), 3),
        ],
        ids=["missing-column", "extra-column", "short-row", "long-row", "bad-flag"],
    )
    def test_csv_layout_is_checked(self, tmp_path, text, line):
        assert text != GOLDEN_CSV
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}:")):
            read_trials_csv(path)

    def test_summary_json_golden(self):
        cfg = nonseq_config(
            sources=(IidSource(4000, SKEWED), FastaSource("refs.fa")),
            estimators=(EstimatorId.GENERAL_K,), k_values=(4,), subset=SubsetSpec.top(5), trials_per_point=4,
        )
        ok = [
            TrialRecord(EstimatorId.GENERAL_K, 4, 0.1, None, None, 0, 0, i, i, 0.1, 0.1, e)
            for i, e in enumerate((0.0, 0.5, 1.0, 0.5))
        ]
        nan = math.nan
        failed = [TrialRecord(EstimatorId.GENERAL_K, 4, 0.1, None, None, 1, 0, 0, 9, nan, nan, nan, "x")]
        assert summary_to_dict(cfg, ok + failed) == {
            "format": "mutrate-summary-v2",
            "config": {
                "sources": [
                    {"kind": "iid", "length": 4000, "distribution": list(SKEWED), "num_references": 1},
                    {"kind": "fasta", "path": "refs.fa", "on_invalid": "error"},
                ],
                "mode": "nonseq",
                "estimators": ["general-k"],
                "p_grid": [0.1],
                "trials_per_point": 4,
                "master_seed": 42,
                "k_values": [4],
                "s_grid": [0.0],
                "coverage_grid": [30.0],
                "read_len": 1000,
                "k1_base": "auto",
                "subset": {"kind": "top", "m": 5},
                "y_coverage": None,
                "y_read_len": None,
            },
            "num_trials": 5,
            "groups": [
                {
                    "estimator": "general-k", "k": 4, "p": 0.1, "s": None, "coverage": None, "source": 0,
                    "count": 4, "median": 0.5, "q1": 0.375, "q3": 0.625, "whisker_low": 0.0,
                    "whisker_high": 1.0, "mean": 0.5, "stddev": 0.125**0.5, "error_count": 0,
                },
                {
                    "estimator": "general-k", "k": 4, "p": 0.1, "s": None, "coverage": None, "source": 1,
                    "count": 0, "median": None, "q1": None, "q3": None, "whisker_low": None,
                    "whisker_high": None, "mean": None, "stddev": None, "error_count": 1,
                },
            ],
        }

    def test_summary_json(self, tmp_path):
        import json

        cfg = nonseq_config(trials_per_point=3)
        records = run_experiment(cfg)
        path = tmp_path / "s.json"
        write_summary_json(path, cfg, records)
        data = json.loads(path.read_text())
        assert data["format"] == "mutrate-summary-v2"
        assert data["config"]["mode"] == "nonseq"
        assert len(data["groups"]) == 1
        g = data["groups"][0]
        assert g["count"] + g["error_count"] == 3
        assert set(g) >= {"median", "q1", "q3", "whisker_low", "whisker_high", "mean", "stddev"}


def test_choose_k1_base_picks_most_skewed():
    assert choose_k1_base(CircularSequence.from_string("AAAAAACGT")) == "A"
    assert choose_k1_base(CircularSequence.from_string("ACGTTTTTT")) == "T"
    # tie: every base at exactly 1/4 falls back to alphabet order
    assert choose_k1_base(CircularSequence.from_string("ACGT")) == "A"
    # reads: pooled over every row
    reads = ReadSet(np.array([[0, 1, 3], [3, 3, 2]], dtype=np.uint8), source_len=10)
    assert choose_k1_base(reads) == "T"


@pytest.mark.parametrize(
    "estimators", [(EstimatorId.GENERAL_K, EstimatorId.LARGE_K_SEQ), (EstimatorId.K1_SINGLE, EstimatorId.K1_GC)]
)
def test_k1_base_is_picked_only_for_a_single_base_estimator(monkeypatch, estimators):
    picked = []
    monkeypatch.setattr(harness, "choose_k1_base", lambda x: picked.append(len(x)) or "A")
    cfg = nonseq_config(estimators=estimators, k_values=(8,), trials_per_point=1)
    run_experiment(cfg)
    assert picked == ([4000] if SINGLE_BASE & set(estimators) else [])


class TestEstimateDispatch:
    @pytest.fixture
    def pair(self):
        x = generate_iid_sequence(4000, SKEWED, rng_seed=1)
        return x, mutate(x, SubstitutionChannel(0.05), rng_seed=2)

    def test_table_and_sequence_inputs_agree(self, pair):
        x, y = pair
        table = count_kmers_sequence(x, 12)
        for est in (EstimatorId.LARGE_K_SEQ, EstimatorId.GENERAL_K):
            subset = SubsetSpec.top(50) if est is EstimatorId.GENERAL_K else None
            from_seq = estimate(est, x, y, k=12, subset=subset)
            assert estimate(est, table, y, subset=subset) == from_seq
            assert estimate(est, table, y, k=12, subset=subset) == from_seq

    def test_k_must_match_a_table(self, pair):
        x, y = pair
        with pytest.raises(MismatchedK, match="k=13 requested"):
            estimate(EstimatorId.LARGE_K_SEQ, count_kmers_sequence(x, 12), y, k=13)
        with pytest.raises(MismatchedK):
            estimate(EstimatorId.LARGE_K_SEQ, x, count_kmers_sequence(y, 12), k=13)

    def test_counting_needs_k(self, pair):
        with pytest.raises(ValueError, match="k is needed"):
            estimate(EstimatorId.LARGE_K_SEQ, *pair)

    def test_k1_base_defaults_to_the_most_skewed(self, pair):
        x, y = pair
        auto = estimate(EstimatorId.K1_SINGLE, x, y)
        assert auto == estimate(EstimatorId.K1_SINGLE, x, y, base=choose_k1_base(x))
        assert auto != estimate(EstimatorId.K1_SINGLE, x, y, base="C")

    def test_k1_reads_needs_matching_volumes(self, pair):
        x, y = pair
        xr = sample_reads(x, 100, 40, SubstitutionChannel(0.0), rng_seed=3)
        yr = sample_reads(y, 100, 39, SubstitutionChannel(0.0), rng_seed=4)
        with pytest.raises(MutrateError, match="matching N and L"):
            estimate(EstimatorId.K1_READS, xr, yr, base="A")

    @pytest.mark.parametrize("est", [EstimatorId.K1_READS, EstimatorId.LARGE_K_READS])
    def test_read_sets_of_different_sources_rejected(self, pair, est):
        # reads of a 4000-base x against reads of a 3000-base y cannot be a
        # sequence and its substitution, yet they used to give a rate
        x, y = pair
        xr = sample_reads(x, 100, 40, SubstitutionChannel(0.0), rng_seed=3)
        yr = sample_reads(CircularSequence(y.codes[:3000]), 100, 40, SubstitutionChannel(0.0), rng_seed=4)
        with pytest.raises(MutrateError, match="x has 4000 bases but y has 3000"):
            estimate(est, xr, yr, k=10, s=0.0, base="A")

    def test_read_tables_of_different_sources_rejected(self, pair):
        # a read table records G, so tables of different G are no pair
        # either; large-k-reads used to give a rate for these
        x, y = pair
        xr = sample_reads(x, 100, 40, SubstitutionChannel(0.0), rng_seed=3)
        yr = sample_reads(CircularSequence(y.codes[:3000]), 100, 40, SubstitutionChannel(0.0), rng_seed=4)
        xt, yt = count_kmers_reads(xr, 10), count_kmers_reads(yr, 10)
        assert (xt.source_len, yt.source_len) == (4000, 3000)
        for sides in ((xt, yt), (xt, yr), (xr, yt)):
            with pytest.raises(MutrateError, match="x has 4000 bases but y has 3000"):
                estimate(EstimatorId.LARGE_K_READS, *sides, k=10, s=0.0)

    def test_read_table_without_g_is_not_checked(self, pair):
        # a read table file written without #G leaves G unknown
        x, y = pair
        xr = sample_reads(x, 100, 400, SubstitutionChannel(0.0), rng_seed=3)
        yr = sample_reads(CircularSequence(y.codes[:3000]), 100, 300, SubstitutionChannel(0.0), rng_seed=4)
        xt = count_kmers_reads(xr, 10)
        unknown = KmerTable(10, xt.keys, xt.counts, "reads")
        assert unknown.source_len is None
        estimate(EstimatorId.LARGE_K_READS, unknown, yr, s=0.0)

    _KINDS = {
        "a sequence": lambda x: x,
        "a read set": lambda x: sample_reads(x, 100, 40, SubstitutionChannel(0.0), rng_seed=3),
        "a k-mer table": lambda x: count_kmers_sequence(x, 10),
    }

    @pytest.mark.parametrize("side", ["x", "y"])
    @pytest.mark.parametrize(
        "est, taken, wrong",
        [
            (EstimatorId.K1_SINGLE, "a sequence", "a read set"),
            (EstimatorId.K1_SINGLE, "a sequence", "a k-mer table"),
            (EstimatorId.K1_GC, "a sequence", "a read set"),
            (EstimatorId.K1_GC, "a sequence", "a k-mer table"),
            (EstimatorId.GENERAL_K, "a sequence", "a read set"),
            (EstimatorId.LARGE_K_SEQ, "a sequence", "a read set"),
            (EstimatorId.K1_READS, "a read set", "a sequence"),
            (EstimatorId.K1_READS, "a read set", "a k-mer table"),
            (EstimatorId.LARGE_K_READS, "a read set", "a sequence"),
        ],
    )
    def test_data_kind_not_taken_rejected(self, pair, est, taken, wrong, side):
        # these ended in an AttributeError or TypeError, or a provenance
        # error after counting
        x, _ = pair
        data = {"x": self._KINDS[taken](x), "y": self._KINDS[taken](x), side: self._KINDS[wrong](x)}
        with pytest.raises(ValueError, match=f"^{est.value} does not take {wrong} as {side}$"):
            estimate(est, data["x"], data["y"], k=10, s=0.0, base="A")

    @pytest.mark.parametrize("ratio", [0, 2**62], ids=["filtered", "counted"])
    @pytest.mark.parametrize(
        "est, k, subset",
        [
            (EstimatorId.LARGE_K_SEQ, 12, None),
            (EstimatorId.GENERAL_K, 6, SubsetSpec.top(50)),
            (EstimatorId.LARGE_K_READS, 20, None),
        ],
    )
    def test_raw_y_and_its_table_agree(self, pair, monkeypatch, est, k, subset, ratio):
        """y is never counted; its mass read from its windows, on either
        path of window_mass, gives the estimate its table gives, bit for bit."""
        x, y = pair
        if est is EstimatorId.LARGE_K_READS:  # of different read volumes
            x = sample_reads(x, 100, 400, SubstitutionChannel(0.01), rng_seed=3)
            y = sample_reads(y, 120, 250, SubstitutionChannel(0.01), rng_seed=4)
        y_table = as_table(y, k)
        monkeypatch.setattr(kmers, "_FILTER_RATIO", ratio)
        from_raw = estimate(est, x, y, k=k, s=0.01, subset=subset)
        assert from_raw == estimate(est, x, y_table, k=k, s=0.01, subset=subset)
        assert from_raw == estimate(est, as_table(x, k), y, s=0.01, subset=subset)

    @pytest.mark.parametrize(
        "est, subset", [(EstimatorId.LARGE_K_SEQ, None), (EstimatorId.GENERAL_K, SubsetSpec.top(1))]
    )
    def test_sequence_y_shorter_than_k_fails_as_its_count(self, est, subset):
        x_table = KmerTable.from_mapping(5, {"ACGTA": 3})  # G = 3, below k
        y = CircularSequence.from_string("ACG")
        with pytest.raises(ValueError) as counting:
            count_kmers_sequence(y, 5)
        with pytest.raises(ValueError, match=f"^{re.escape(str(counting.value))}$"):
            estimate(est, x_table, y, subset=subset)

    def test_read_y_without_windows_fails_as_its_count(self, pair):
        """Reads shorter than k fail as counting them fails; no reads, of any
        length, leave no volume to scale by."""
        x, y = pair
        xr = sample_reads(x, 100, 400, SubstitutionChannel(0.01), rng_seed=3)
        short = sample_reads(y, 20, 400, SubstitutionChannel(0.01), rng_seed=4)
        with pytest.raises(ValueError) as counting:
            count_kmers_reads(short, 30)
        with pytest.raises(ValueError, match=f"^{re.escape(str(counting.value))}$"):
            estimate(EstimatorId.LARGE_K_READS, xr, short, k=30, s=0.01)
        for L in (20, 100):
            empty = ReadSet(np.empty((0, L), dtype=np.uint8), 4000)
            with pytest.raises(EmptyRetainedSet, match="^mutated read table is empty$"):
                estimate(EstimatorId.LARGE_K_READS, xr, empty, k=30, s=0.01)

    def test_large_k_reads_needs_s(self, pair):
        x, y = pair
        xr = sample_reads(x, 100, 40, SubstitutionChannel(0.0), rng_seed=3)
        with pytest.raises(ValueError, match="error rate"):
            estimate(EstimatorId.LARGE_K_READS, xr, xr, k=10)


@pytest.mark.parametrize(
    "exc, code",
    [
        (SingularDenominator, "singular-denominator"),
        (NoRootInRange, "no-root-in-range"),
        (EmptyRetainedSet, "empty-retained-set"),
        (MismatchedK, "mismatched-k"),
        (FastaParseError, "estimator-error"),
        (MutrateError, "estimator-error"),
    ],
)
def test_error_code_comes_from_the_exception_class(monkeypatch, exc, code):
    def fail(*args):
        raise exc("no rate")

    monkeypatch.setattr(harness, "estimate_k1_single", fail)
    cfg = ExperimentConfig((IidSource(200, SKEWED),), Mode.NONSEQ, (EstimatorId.K1_SINGLE,), (0.1,), 2, 1)
    assert [r.error for r in run_experiment(cfg)] == [code, code]
