"""End-to-end CLI tests; every invocation goes through main(argv)."""

import bisect
import json
import random

import pytest

import oracles
from mutrate import bounds
from mutrate.cli import main
from mutrate.estimators import EstimatorId, SubsetSpec, estimate_large_k_reads
from mutrate.harness import (
    ExperimentConfig,
    FastaSource,
    IidSource,
    Mode,
    estimate,
    run_experiment,
    write_summary_json,
    write_trials_csv,
)
from mutrate.kmers import count_kmers_reads, count_kmers_sequence
from mutrate.seqio import read_fasta, read_kmer_table, read_reads


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_gen_writes_fasta(self, tmp_path, capsys):
        out = tmp_path / "x.fa"
        code, _, _ = run(
            capsys, "gen", "--length", "1e3", "--seed", "1", "--out", str(out),
            "--dist", "0.4,0.2,0.2,0.2",
        )
        assert code == 0
        recs = read_fasta(out)
        assert len(recs) == 1 and len(recs[0].seq) == 1000

    def test_gen_blank_name_exits_one_and_writes_nothing(self, tmp_path, capsys):
        # the file used to be written, then rejected by mutate: header has no name
        out = tmp_path / "x.fa"
        code, _, err = run(capsys, "gen", "--length", "100", "--seed", "1", "--name", "", "--out", str(out))
        assert code == 1 and "blank or holds a line break" in err
        assert not out.exists()

    def test_gen_requires_seed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--length", "100", "--out", str(tmp_path / "x.fa")])
        assert exc.value.code == 2

    def test_mutate_round(self, tmp_path, capsys):
        x = tmp_path / "x.fa"
        y = tmp_path / "y.fa"
        run(capsys, "gen", "--length", "500", "--seed", "1", "--out", str(x))
        code, _, _ = run(capsys, "mutate", "--in", str(x), "--rate", "0.2", "--seed", "2", "--out", str(y))
        assert code == 0
        xs = read_fasta(x)[0].seq.to_string()
        ys = read_fasta(y)[0].seq.to_string()
        assert len(xs) == len(ys) and xs != ys

    def test_reads_with_coverage(self, tmp_path, capsys):
        x = tmp_path / "x.fa"
        r = tmp_path / "r.reads"
        run(capsys, "gen", "--length", "1000", "--seed", "1", "--out", str(x))
        code, _, _ = run(
            capsys, "reads", "--in", str(x), "--read-len", "100", "--coverage", "5",
            "--error-rate", "0.01", "--seed", "3", "--out", str(r),
        )
        assert code == 0
        rs = read_reads(r)
        assert rs.num_reads == 50 and rs.read_len == 100

    def test_default_coverage(self, tmp_path, capsys):
        x = tmp_path / "x.fa"
        r = tmp_path / "r.reads"
        run(capsys, "gen", "--length", "1000", "--seed", "1", "--out", str(x))
        code, _, _ = run(capsys, "reads", "--in", str(x), "--read-len", "100", "--seed", "3", "--out", str(r))
        assert code == 0
        assert read_reads(r).num_reads == 300  # coverage 30

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--coverage", "0.001"], "coverage 0.001 at read length 100 on length 1000 yields no reads"),
            (["--num-reads", "0"], "--num-reads must be >= 1, got 0"),
        ],
    )
    def test_no_reads_exits_one(self, tmp_path, capsys, flags, message):
        x = tmp_path / "x.fa"
        run(capsys, "gen", "--length", "1000", "--seed", "1", "--out", str(x))
        code, out, err = run(
            capsys, "reads", "--in", str(x), "--read-len", "100", "--seed", "3",
            "--out", str(tmp_path / "r.reads"), *flags,
        )
        assert (code, out) == (1, "")
        assert message in err


# one valid command line per float flag; {} is the flag's value
FLOAT_FLAGS = {
    "gen --dist": "gen --length 100 --seed 1 --out o.fa --dist 0.5,{},0.25,0.25",
    "mutate --rate": "mutate --in x.fa --seed 1 --out y.fa --rate {}",
    "reads --coverage": "reads --in x.fa --seed 1 --out r.reads --coverage {}",
    "reads --error-rate": "reads --in x.fa --seed 1 --out r.reads --error-rate {}",
    "estimate --s": "estimate --estimator large-k-reads --x-reads a --y-reads b -k 20 --s {}",
    "hoeffding --t": "bounds hoeffding --width 1 --n 10 --t {}",
    "hoeffding --width": "bounds hoeffding --t 1 --n 10 --width {}",
    "mcdiarmid --t": "bounds mcdiarmid --diff 1 --n 10 --t {}",
    "mcdiarmid --diff": "bounds mcdiarmid --t 1 --n 10 --diff {}",
    "min-deviation --rate": "bounds min-deviation --eps 0.1 --length 1e4 --rate {}",
    "min-deviation --eps": "bounds min-deviation --rate 0.1 --length 1e4 --eps {}",
    "min-deviation --length": "bounds min-deviation --rate 0.1 --eps 0.1 --length {}",
    **{
        f"required-deviation {flag}": "bounds required-deviation --length 1e7 --num-reads 1e6 --rate 0.2 "
        f"--s 0.03 --eps 0.1 --delta 1e-3 {flag} {{}}"
        for flag in ("--length", "--num-reads", "--rate", "--s", "--eps", "--delta")
    },
    "required-deviation --budgets": "bounds required-deviation --length 1e7 --num-reads 1e6 --rate 0.2 "
    "--s 0.03 --eps 0.1 --budgets 1,{},1",
    "success --delta": "bounds success --delta {}",
    "success --budgets": "bounds success --budgets {},1,1",
    **{
        f"experiment {flag}": "experiment --mode seq --estimators k1-reads --p 0.1 --trials 1 --seed 1 "
        f"--length 1000 --read-len 100 {flag} {value}"
        for flag, value in (
            ("--p", "0.1,{}"),
            ("--s", "{}"),
            ("--coverage", "10,{}"),
            ("--y-coverage", "{}"),
            ("--dist", "{},0.2,0.2,0.2"),
        )
    },
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", FLOAT_FLAGS)
def test_non_finite_float_is_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(FLOAT_FLAGS[flag].format(value).split())
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"not a finite number: '{value}'" in err and "Traceback" not in err


EXPERIMENT = "experiment --mode nonseq --estimators k1-single --p 0.1 --trials 1 --seed 1 --length 100"
GENERAL_K = "estimate --estimator general-k --x a.fa --y b.fa -k 2 --subset"
# a command line and the message of its usage error
USAGE_ERRORS = {
    "dist length": (
        "gen --length 10 --seed 1 --out o.fa --dist 0.5,0.5",
        "argument --dist: expected 4 comma-separated probabilities A,C,G,T, got '0.5,0.5'",
    ),
    "budgets length": (
        "bounds success --budgets 1,2",
        "argument --budgets: expected 3 comma-separated exponents c1,c2,c3, got '1,2'",
    ),
    "k not a number": (f"{EXPERIMENT} -k 1,x", "argument -k: not a number: 'x'"),
    "k not finite": (f"{EXPERIMENT} -k inf", "argument -k: not a finite number: 'inf'"),
    "k not an integer": (f"{EXPERIMENT} -k 1.5", "argument -k: expected an integer, got '1.5'"),
    "empty s list": (f"{EXPERIMENT} --s ,", "argument --s: expected comma-separated error rates, got ','"),
    "unknown estimator": (
        EXPERIMENT.replace("k1-single", "foo"),
        "argument --estimators: unknown estimator in 'foo'; "
        "choose from k1-single,k1-gc,general-k,large-k-seq,k1-reads,large-k-reads",
    ),
    "empty estimators": (
        EXPERIMENT.replace("k1-single", ","),
        "argument --estimators: expected comma-separated estimator names, got ','",
    ),
    # what follows the value differs between Python versions
    "experiment base": (f"{EXPERIMENT} --base X", "argument --base: invalid choice: 'X'"),
    "estimate base": ("estimate --estimator k1-single --x a.fa --y b.fa --base X", "argument --base: invalid choice: 'X'"),
    "subset size": (f"{GENERAL_K} top:x", "argument --subset: bad subset size in 'top:x'"),
    "empty explicit subset": (f"{GENERAL_K} explicit:,", "argument --subset: explicit subset needs at least one k-mer"),
    "unknown subset": (
        f"{GENERAL_K} most",
        "argument --subset: subset must be 'all', 'top:M', or 'explicit:KMER,KMER,...', got 'most'",
    ),
    # found after parsing
    "repeated rate": (EXPERIMENT.replace("--p 0.1", "--p 0.1,0.1"), "p_grid repeats a value: [0.1, 0.1]"),
    "read fields in nonseq mode": (
        f"{EXPERIMENT} --s 0.5 --coverage 3 --read-len 7",
        "read-mode fields ['s_grid', 'coverage_grid', 'read_len'] do not apply in nonseq mode",
    ),
    "large-k-reads without s": (
        "estimate --estimator large-k-reads --x a.reads --y b.reads",
        "--estimator large-k-reads requires --s (sequencer error rate)",
    ),
}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_bad_flag_value_is_usage_error(capsys, case):
    argv, message = USAGE_ERRORS[case]
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"error: {message}" in err
    assert err.startswith(f"usage: mutrate {argv.split()[0]} ")


class TestCount:
    def test_count_sequence(self, tmp_path, capsys):
        x = tmp_path / "x.fa"
        t = tmp_path / "t.tsv"
        x.write_text(">s\nAAAA\n")
        code, _, _ = run(capsys, "count", "--fasta", str(x), "-k", "2", "--out", str(t))
        assert code == 0
        table = read_kmer_table(t)
        assert oracles.table_counts(table) == {"AA": 4}
        assert table.provenance == "sequence"

    def test_count_reads(self, tmp_path, capsys):
        x = tmp_path / "x.fa"
        r = tmp_path / "r.reads"
        t = tmp_path / "t.tsv"
        run(capsys, "gen", "--length", "200", "--seed", "1", "--out", str(x))
        run(capsys, "reads", "--in", str(x), "--read-len", "50", "--num-reads", "10",
            "--seed", "2", "--out", str(r))
        code, _, _ = run(capsys, "count", "--reads", str(r), "-k", "3", "--out", str(t))
        assert code == 0
        table = read_kmer_table(t)
        assert table.provenance == "reads"
        assert table.total == 10 * 48


# one command per subcommand that reads one record of a FASTA file
RECORD_COMMANDS = {
    "reads": "reads --in {fa} --read-len 4 --num-reads 3 --seed 1 --out {out}",
    "count": "count --fasta {fa} -k 2 --out {out}",
    "estimate": "estimate --estimator k1-single --x {fa} --y {fa}",
}


class TestRecord:
    @pytest.fixture
    def two_records(self, tmp_path):
        fa = tmp_path / "two.fa"
        fa.write_text(">a\nACGTACGTAA\n>b\nCCCCGGGG\n")
        return fa

    @pytest.mark.parametrize(
        "flags, message",
        [
            ("", "{fa} holds 2 records; pick one with --record"),
            ("--record 2", "--record 2 out of range for {fa} (2 records)"),
            ("--record -1", "--record -1 out of range for {fa} (2 records)"),
        ],
    )
    @pytest.mark.parametrize("command", RECORD_COMMANDS)
    def test_record_choice_errors(self, two_records, tmp_path, capsys, command, flags, message):
        argv = RECORD_COMMANDS[command].format(fa=two_records, out=tmp_path / "out").split() + flags.split()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: {message.format(fa=two_records)}\n"

    def test_record_picks_by_index(self, two_records, tmp_path, capsys):
        second = read_fasta(two_records)[1].seq
        table, reads = tmp_path / "t.tsv", tmp_path / "r.reads"
        code, _, _ = run(capsys, "count", "--fasta", str(two_records), "--record", "1", "-k", "2", "--out", str(table))
        assert code == 0
        assert read_kmer_table(table) == count_kmers_sequence(second, 2)
        code, _, _ = run(capsys, "reads", "--in", str(two_records), "--record", "1", "--read-len", "4",
                         "--num-reads", "3", "--seed", "1", "--out", str(reads))
        assert code == 0
        assert read_reads(reads).source_len == len(second) == 8


@pytest.fixture
def skewed_pair(tmp_path, capsys):
    x = tmp_path / "x.fa"
    y = tmp_path / "y.fa"
    main(["gen", "--length", "20000", "--dist", "0.4,0.2,0.2,0.2", "--seed", "7", "--out", str(x)])
    main(["mutate", "--in", str(x), "--rate", "0.1", "--seed", "8", "--out", str(y)])
    capsys.readouterr()
    return x, y


class TestEstimate:
    def test_k1_single_json(self, skewed_pair, capsys):
        x, y = skewed_pair
        code, out, _ = run(capsys, "estimate", "--estimator", "k1-single", "--x", str(x), "--y", str(y))
        assert code == 0
        payload = json.loads(out)
        assert payload["estimator"] == "k1-single"
        assert abs(payload["p_raw"] - 0.1) < 0.05
        assert payload["base"] == "A"

    def test_general_k_from_fasta(self, skewed_pair, capsys):
        x, y = skewed_pair
        code, out, _ = run(
            capsys, "estimate", "--estimator", "general-k", "--x", str(x), "--y", str(y),
            "-k", "4", "--subset", "top:20",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["p_raw"] - 0.1) < 0.05
        assert payload["diagnostics"]["multiple_roots"] is False

    def test_large_k_seq(self, skewed_pair, capsys):
        x, y = skewed_pair
        code, out, _ = run(
            capsys, "estimate", "--estimator", "large-k-seq", "--x", str(x), "--y", str(y), "-k", "20",
        )
        assert code == 0
        assert abs(json.loads(out)["p_raw"] - 0.1) < 0.03

    def test_reads_pipeline(self, skewed_pair, tmp_path, capsys):
        x, y = skewed_pair
        xr, yr = tmp_path / "xr.reads", tmp_path / "yr.reads"
        for src, dst, seed in ((x, xr, "11"), (y, yr, "12")):
            run(capsys, "reads", "--in", str(src), "--read-len", "500", "--coverage", "20",
                "--error-rate", "0.01", "--seed", seed, "--out", str(dst))
        code, out, _ = run(
            capsys, "estimate", "--estimator", "k1-reads",
            "--x-reads", str(xr), "--y-reads", str(yr),
        )
        assert code == 0
        assert abs(json.loads(out)["p_raw"] - 0.1) < 0.05

        code, out, _ = run(
            capsys, "estimate", "--estimator", "large-k-reads",
            "--x-reads", str(xr), "--y-reads", str(yr), "-k", "20", "--s", "0.01",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["p_raw"] - 0.1) < 0.05
        assert payload["diagnostics"]["lambda_threshold"] >= 1

    def test_large_k_reads_scale_from_tables(self, skewed_pair, tmp_path, capsys):
        """Unequal read volumes: every mix of table and reads inputs must give
        the reads-file estimate, which scales by the ratio of window counts."""
        x, y = skewed_pair
        inputs = {}
        for side, src, cov, seed in (("x", x, "20", "11"), ("y", y, "5", "12")):
            reads, table = tmp_path / f"{side}.reads", tmp_path / f"{side}.tsv"
            run(capsys, "reads", "--in", str(src), "--read-len", "500", "--coverage", cov,
                "--error-rate", "0.01", "--seed", seed, "--out", str(reads))
            run(capsys, "count", "--reads", str(reads), "-k", "20", "--out", str(table))
            inputs[side] = {"reads": str(reads), "table": str(table)}
        p_raw = {}
        for x_form in ("reads", "table"):
            for y_form in ("reads", "table"):
                code, out, _ = run(
                    capsys, "estimate", "--estimator", "large-k-reads", "-k", "20", "--s", "0.01",
                    f"--x-{x_form}", inputs["x"][x_form], f"--y-{y_form}", inputs["y"][y_form],
                )
                assert code == 0
                p_raw[x_form, y_form] = json.loads(out)["p_raw"]
        assert abs(p_raw["reads", "reads"] - 0.1) < 0.05
        assert set(p_raw.values()) == {p_raw["reads", "reads"]}

    def test_large_k_reads_library_scale_matches_cli(self, skewed_pair, tmp_path, capsys):
        """Read tables at unequal coverage, passed straight to the estimator,
        give the CLI's reads-file estimate: the volume scale comes from the
        table totals."""
        x, y = skewed_pair
        paths = {}
        for side, src, cov, seed in (("x", x, "20", "11"), ("y", y, "5", "12")):
            paths[side] = str(tmp_path / f"{side}.reads")
            run(capsys, "reads", "--in", str(src), "--read-len", "500", "--coverage", cov,
                "--error-rate", "0.01", "--seed", seed, "--out", paths[side])
        code, out, _ = run(
            capsys, "estimate", "--estimator", "large-k-reads", "-k", "20", "--s", "0.01",
            "--x-reads", paths["x"], "--y-reads", paths["y"],
        )
        assert code == 0
        hx, hy = (count_kmers_reads(read_reads(paths[side]), 20) for side in ("x", "y"))
        assert hx.total == 4 * hy.total
        p_raw = estimate_large_k_reads(hx, hy, 0.01).p_raw
        assert p_raw == json.loads(out)["p_raw"]
        assert abs(p_raw - 0.1) < 0.03

    def test_k_flag_must_match_table(self, skewed_pair, tmp_path, capsys):
        x, y = skewed_pair
        xt, yr = tmp_path / "x.tsv", tmp_path / "y.reads"
        run(capsys, "reads", "--in", str(y), "--read-len", "500", "--coverage", "5",
            "--seed", "2", "--out", str(yr))
        run(capsys, "count", "--reads", str(yr), "-k", "20", "--out", str(xt))
        common = ["estimate", "--estimator", "large-k-reads", "--s", "0.01",
                  "--x-table", str(xt), "--y-reads", str(yr)]
        code, out, err = run(capsys, *common, "-k", "25")
        assert code == 1 and not out
        assert "error:" in err and "k=25" in err and "k=20" in err
        code, _, _ = run(capsys, *common, "-k", "20")
        assert code == 0

    def test_reads_table_as_mutated_side_exits_one(self, skewed_pair, tmp_path, capsys):
        # a sequence table against a reads table gave p_raw near 0 at p=0.1
        x, y = skewed_pair
        xt, yr, yt = tmp_path / "x.tsv", tmp_path / "y.reads", tmp_path / "y.tsv"
        run(capsys, "count", "--fasta", str(x), "-k", "20", "--out", str(xt))
        run(capsys, "reads", "--in", str(y), "--read-len", "500", "--coverage", "5",
            "--seed", "2", "--out", str(yr))
        run(capsys, "count", "--reads", str(yr), "-k", "20", "--out", str(yt))
        for est in ("large-k-seq", "general-k"):
            code, out, err = run(capsys, "estimate", "--estimator", est,
                                 "--x-table", str(xt), "--y-table", str(yt))
            assert code == 1 and not out
            assert err.startswith("error:") and "provenance" in err

    @pytest.mark.parametrize(
        "est, flags",
        [("k1-single", []), ("k1-gc", []), ("general-k", ["-k", "4", "--subset", "top:20"]),
         ("large-k-seq", ["-k", "20"])],
    )
    def test_y_shorter_than_x_exits_one(self, skewed_pair, tmp_path, capsys, est, flags):
        # y is the first half of x, so the true rate is 0; the parent printed
        # k1-single 1.008, large-k-seq 0.033 and general-k 0.261 and exited 0
        x, _ = skewed_pair
        half = tmp_path / "half.fa"
        half.write_text(">half\n" + read_fasta(x)[0].seq.to_string()[:10000] + "\n")
        code, out, err = run(capsys, "estimate", "--estimator", est, "--x", str(x), "--y", str(half), *flags)
        assert code == 1 and not out
        assert err.startswith("error:") and "20000" in err and "10000" in err

    def test_empty_y_table_exits_one(self, skewed_pair, tmp_path, capsys):
        # an empty y table gave large-k-seq p_raw 1.0 and exit 0
        x, _ = skewed_pair
        yt = tmp_path / "y.tsv"
        yt.write_text("#k=20\t#total=0\t#provenance=sequence\n")
        code, out, err = run(capsys, "estimate", "--estimator", "large-k-seq", "--x", str(x),
                             "--y-table", str(yt), "-k", "20")
        assert code == 1 and not out
        assert err.startswith("error:") and "x has 20000 bases but y has 0; a substitution keeps the length" in err

    def test_empty_y_reads_exits_one(self, skewed_pair, tmp_path, capsys):
        # an empty mutated read set gave large-k-reads p_raw 1.0 and exit 0
        x, _ = skewed_pair
        xr, yr = tmp_path / "x.reads", tmp_path / "y.reads"
        run(capsys, "reads", "--in", str(x), "--read-len", "200", "--coverage", "5",
            "--seed", "1", "--out", str(xr))
        yr.write_text("#L=200\t#N=0\t#G=20000\n")
        code, out, err = run(capsys, "estimate", "--estimator", "large-k-reads", "--s", "0.01",
                             "--x-reads", str(xr), "--y-reads", str(yr), "-k", "20")
        assert code == 1 and not out
        assert err.startswith("error:") and "mutated read table is empty" in err

    @pytest.mark.parametrize("est, flags", [("k1-reads", []), ("large-k-reads", ["-k", "20", "--s", "0.01"])])
    def test_reads_of_different_lengths_exit_one(self, skewed_pair, tmp_path, capsys, est, flags):
        # reads of G=20000 against reads of G=30000 used to print k1-reads
        # p_raw 0.0038 and large-k-reads 1.0, with exit 0
        x, _ = skewed_pair
        longer, xr, yr = tmp_path / "long.fa", tmp_path / "x.reads", tmp_path / "y.reads"
        run(capsys, "gen", "--length", "30000", "--dist", "0.4,0.2,0.2,0.2", "--seed", "9", "--out", str(longer))
        for src, dst, seed in ((x, xr, "1"), (longer, yr, "2")):
            run(capsys, "reads", "--in", str(src), "--read-len", "500", "--num-reads", "200",
                "--seed", seed, "--out", str(dst))
        code, out, err = run(capsys, "estimate", "--estimator", est, "--x-reads", str(xr), "--y-reads", str(yr), *flags)
        assert code == 1 and not out
        assert err.startswith("error:") and "20000" in err and "30000" in err

    @pytest.mark.parametrize("y_form", ["reads", "table"])
    def test_read_table_of_another_source_exits_one(self, skewed_pair, tmp_path, capsys, y_form):
        # a read table of the 20000-base x against reads of an unrelated
        # 30000-base sequence printed large-k-reads p_raw 1.0 with exit 0,
        # because the table did not record G
        x, _ = skewed_pair
        longer = tmp_path / "long.fa"
        run(capsys, "gen", "--length", "30000", "--dist", "0.4,0.2,0.2,0.2", "--seed", "9", "--out", str(longer))
        paths = {}
        for side, src, seed in (("x", x, "1"), ("y", longer, "2")):
            paths[side, "reads"], paths[side, "table"] = tmp_path / f"{side}.reads", tmp_path / f"{side}.tsv"
            run(capsys, "reads", "--in", str(src), "--read-len", "500", "--coverage", "5",
                "--seed", seed, "--out", str(paths[side, "reads"]))
            run(capsys, "count", "--reads", str(paths[side, "reads"]), "-k", "20", "--out", str(paths[side, "table"]))
        code, out, err = run(capsys, "estimate", "--estimator", "large-k-reads", "-k", "20", "--s", "0.01",
                             "--x-table", str(paths["x", "table"]), f"--y-{y_form}", str(paths["y", y_form]))
        assert code == 1 and not out
        assert err.startswith("error:") and "x has 20000 bases but y has 30000" in err

    @pytest.mark.parametrize("kmer", ["AC", "AACG"])
    def test_explicit_subset_of_wrong_length_exits_one(self, skewed_pair, capsys, kmer):
        x, y = skewed_pair
        code, out, err = run(capsys, "estimate", "--estimator", "general-k", "--x", str(x),
                             "--y", str(y), "-k", "3", "--subset", f"explicit:{kmer}")
        assert code == 1 and not out
        assert f"{kmer!r} has length {len(kmer)}, source table k=3" in err

    def test_count_past_int64_exits_one(self, skewed_pair, tmp_path, capsys):
        x, _ = skewed_pair
        xt, xr = tmp_path / "x.tsv", tmp_path / "x.reads"
        xt.write_text("#k=2\t#total=9999999999999999999\t#provenance=reads\nAC\t9999999999999999999\n")
        run(capsys, "reads", "--in", str(x), "--read-len", "100", "--coverage", "1",
            "--seed", "1", "--out", str(xr))
        code, out, err = run(capsys, "estimate", "--estimator", "large-k-reads", "--s", "0.01",
                             "--x-table", str(xt), "--y-reads", str(xr))
        assert code == 1 and not out
        assert err.startswith("error:") and "exceeds int64" in err

    def test_counts_summing_past_int64_exit_one(self, skewed_pair, tmp_path, capsys):
        # one int64 sum of these counts wraps to 2**63 - 3, the header's total
        x, _ = skewed_pair
        xt, xr = tmp_path / "x.tsv", tmp_path / "x.reads"
        rows = "".join(f"{kmer}\t{2**63 - 1}\n" for kmer in ("AC", "CG", "GT"))
        xt.write_text(f"#k=2\t#total={2**63 - 3}\t#provenance=reads\n" + rows)
        run(capsys, "reads", "--in", str(x), "--read-len", "100", "--coverage", "1",
            "--seed", "1", "--out", str(xr))
        code, out, err = run(capsys, "estimate", "--estimator", "large-k-reads", "--s", "0.01",
                             "--x-table", str(xt), "--y-reads", str(xr))
        assert code == 1 and not out
        assert err.startswith(f"error: {xt}: ") and "past int64" in err

    def test_reads_header_far_past_the_body_exits_one(self, tmp_path, capsys):
        reads = tmp_path / "x.reads"
        reads.write_text("#L=1000\t#N=1000000000000\t#G=10\n" + "A" * 1000 + "\n")
        code, out, err = run(capsys, "estimate", "--estimator", "k1-reads",
                             "--x-reads", str(reads), "--y-reads", str(reads))
        assert code == 1 and not out
        assert f"{reads}: header says N=1000000000000 reads but found 1" in err

    @pytest.mark.parametrize("body", [b">s\nACNT\n", b">s\nAC\xffT\n"], ids=["bad-symbol", "not-utf-8"])
    def test_fasta_errors_name_the_file(self, skewed_pair, tmp_path, capsys, body):
        _, y = skewed_pair
        x = tmp_path / "bad.fa"
        x.write_bytes(body)
        code, out, err = run(capsys, "estimate", "--estimator", "k1-single", "--x", str(x), "--y", str(y))
        assert code == 1 and not out
        assert err.startswith(f"error: {x}: ")

    def test_large_k_reads_requires_s(self, skewed_pair, tmp_path, capsys):
        x, _ = skewed_pair
        xr = tmp_path / "xr.reads"
        run(capsys, "reads", "--in", str(x), "--read-len", "100", "--coverage", "5",
            "--seed", "1", "--out", str(xr))
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--estimator", "large-k-reads",
                  "--x-reads", str(xr), "--y-reads", str(xr), "-k", "8"])
        assert exc.value.code == 2

    def test_missing_input_is_usage_error(self, skewed_pair):
        x, _ = skewed_pair
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--estimator", "k1-single", "--x", str(x)])
        assert exc.value.code == 2

    def test_domain_failure_exits_one(self, tmp_path, capsys):
        x = tmp_path / "x.fa"
        y = tmp_path / "y.fa"
        x.write_text(">s\nACGTACGT\n")  # GC exactly 1/2
        y.write_text(">s\nACGTACGA\n")
        code, _, err = run(capsys, "estimate", "--estimator", "k1-gc", "--x", str(x), "--y", str(y))
        assert code == 1
        assert "error" in err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "estimate", "--estimator", "k1-single",
            "--x", str(tmp_path / "no.fa"), "--y", str(tmp_path / "no.fa"),
        )
        assert code == 1
        assert err


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """Inputs of every kind: FASTA, reads at coverage 20 and 1, and k=12
    sequence tables, of a 2000-base sequence with A at 0.4 and its copy at
    p=0.1. They are drawn with ``random.Random.random``, whose stream Python
    keeps fixed across versions, so the bytes do not depend on NumPy's."""
    d = tmp_path_factory.mktemp("small")
    rng = random.Random(7)

    def substitute(seq, rate):
        return "".join("ACGT".replace(b, "")[int(rng.random() * 3)] if rng.random() < rate else b for b in seq)

    g = 2000
    x = "".join("ACGT"[bisect.bisect((0.4, 0.6, 0.8), rng.random())] for _ in range(g))
    y = substitute(x, 0.1)
    for side, seq in (("x", x), ("y", y)):
        (d / f"{side}.fa").write_text(f">{side}\n{seq}\n")
        for name, n in (("reads", 400), ("low.reads", 20)):
            starts = (int(rng.random() * g) for _ in range(n))
            rows = [substitute((seq + seq)[start : start + 100], 0.01) for start in starts]
            (d / f"{side}.{name}").write_text(f"#L=100\t#N={n}\t#G={g}\n" + "\n".join(rows) + "\n")
        main(["count", "--fasta", str(d / f"{side}.fa"), "-k", "12", "--out", str(d / f"{side}.tsv")])
    return d


# estimate's exact stdout on small_files, by case: the input files' suffix,
# the flag spelling that names their kind, further flags, and the bytes. The
# general-k case runs at k=1, where the moment equation is linear and is
# solved by one division, so its last bits do not depend on the LAPACK build.
GOLDEN = {
    "k1-single": ("fa", "", (), """\
{
  "estimator": "k1-single",
  "p_raw": 0.10176991150442478,
  "p_clamped": 0.10176991150442478,
  "base": "A",
  "warnings": [],
  "diagnostics": {}
}
"""),
    "k1-gc": ("fa", "", (), """\
{
  "estimator": "k1-gc",
  "p_raw": 0.12202380952380963,
  "p_clamped": 0.12202380952380963,
  "warnings": [],
  "diagnostics": {}
}
"""),
    "general-k": ("fa", "", ("-k", "1", "--subset", "top:1"), """\
{
  "estimator": "general-k",
  "p_raw": 0.1017699115044248,
  "p_clamped": 0.1017699115044248,
  "warnings": [],
  "diagnostics": {
    "multiple_roots": false
  }
}
"""),
    "large-k-seq": ("tsv", "-table", (), """\
{
  "estimator": "large-k-seq",
  "p_raw": 0.10675969983223876,
  "p_clamped": 0.10675969983223876,
  "warnings": [],
  "diagnostics": {
    "retained_mass": 516.0
  }
}
"""),
    "k1-reads": ("reads", "-reads", (), """\
{
  "estimator": "k1-reads",
  "p_raw": 0.09875804279515188,
  "p_clamped": 0.09875804279515188,
  "base": "A",
  "warnings": [],
  "diagnostics": {}
}
"""),
    "large-k-reads": ("reads", "-reads", ("-k", "12", "--s", "0.02"), """\
{
  "estimator": "large-k-reads",
  "p_raw": 0.11835850899218481,
  "p_clamped": 0.11835850899218481,
  "warnings": [],
  "diagnostics": {
    "lambda_threshold": 12,
    "lambda_fallback": false,
    "retained_mass": 28547.0
  }
}
"""),
    # coverage 1: almost every k-mer is seen once, so lambda falls back to 1
    "large-k-reads-fallback": ("low.reads", "-reads", ("-k", "12", "--s", "0.01"), """\
{
  "estimator": "large-k-reads",
  "p_raw": 0.16215573729451183,
  "p_clamped": 0.16215573729451183,
  "warnings": [
    "count threshold fell back to 1; sequencer noise is not being filtered"
  ],
  "diagnostics": {
    "lambda_threshold": 1,
    "lambda_fallback": true,
    "retained_mass": 1780.0
  }
}
"""),
}


def _golden_run(capsys, files, case, alias=None):
    suffix, kind_alias, flags, _ = GOLDEN[case]
    alias = kind_alias if alias is None else alias
    return run(capsys, "estimate", "--estimator", case.removesuffix("-fallback"),
               f"--x{alias}", str(files / f"x.{suffix}"), f"--y{alias}", str(files / f"y.{suffix}"), *flags)


class TestEstimateInputs:
    @pytest.mark.parametrize("case", GOLDEN)
    def test_golden_stdout(self, small_files, capsys, case):
        assert _golden_run(capsys, small_files, case) == (0, GOLDEN[case][-1], "")

    @pytest.mark.parametrize("case", ["k1-single", "k1-reads", "large-k-seq"])
    @pytest.mark.parametrize("alias", ["", "-reads", "-table"])
    def test_each_kind_reads_through_every_spelling(self, small_files, capsys, case, alias):
        # the file's header, not the flag, says what it holds
        assert _golden_run(capsys, small_files, case, alias) == (0, GOLDEN[case][-1], "")

    @pytest.mark.parametrize("x, y", [("x.fa", "y.tsv"), ("x.tsv", "y.fa"), ("x.fa", "y.fa")])
    def test_large_k_seq_mixes_fasta_and_table(self, small_files, capsys, x, y):
        code, out, err = run(capsys, "estimate", "--estimator", "large-k-seq", "-k", "12",
                             "--x", str(small_files / x), "--y", str(small_files / y))
        assert (code, out, err) == (0, GOLDEN["large-k-seq"][-1], "")

    @pytest.mark.parametrize(
        "est, x, kind",
        [
            ("k1-single", "x.reads", "a read set"),
            ("k1-single", "x.tsv", "a k-mer table"),
            ("k1-reads", "x.fa", "a sequence"),
            ("k1-reads", "x.tsv", "a k-mer table"),
            ("k1-gc", "x.tsv", "a k-mer table"),
            # a k-mer estimator counts x before y is read; x's kind is judged
            # before that count, not by the counted table's provenance
            ("general-k", "x.reads", "a read set"),
            ("large-k-reads", "x.fa", "a sequence"),
        ],
    )
    def test_kind_the_estimator_does_not_take_exits_one(self, small_files, capsys, est, x, kind):
        flags = {"general-k": ("-k", "2", "--subset", "top:3"), "large-k-reads": ("-k", "12", "--s", "0.01")}
        code, out, err = run(capsys, "estimate", "--estimator", est,
                             "--x", str(small_files / x), "--y", str(small_files / x), *flags.get(est, ()))
        assert (code, out) == (1, "")
        assert err == f"error: {est} does not take {kind} as x\n"

    def test_subset_all(self, small_files, capsys):
        x, y = (read_fasta(small_files / f"{side}.fa")[0].seq for side in ("x", "y"))
        expected = estimate(EstimatorId.GENERAL_K, x, y, k=8, subset=SubsetSpec.all())
        code, out, err = run(capsys, "estimate", "--estimator", "general-k", "-k", "8", "--subset", "all",
                             "--x", str(small_files / "x.fa"), "--y", str(small_files / "y.fa"))
        assert (code, err) == (0, "")
        assert json.loads(out)["p_raw"] == expected.p_raw

    @pytest.mark.parametrize("est", ["general-k", "large-k-seq"])
    def test_kmer_estimator_needs_k_or_table(self, small_files, capsys, est):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--estimator", est, "--x", str(small_files / "x.fa"),
                  "--y", str(small_files / "y.tsv")])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "requires -k or a k-mer table as --x" in err


class TestBounds:
    def test_min_deviation_prints_number(self, capsys):
        code, out, _ = run(capsys, "bounds", "min-deviation", "--rate", "0.01",
                           "--eps", "0.1", "--length", "1e4")
        assert code == 0
        assert float(out.strip()) == pytest.approx(12.2474487, abs=1e-6)

    def test_required_deviation(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "required-deviation", "--length", "1e7", "--num-reads", "1e6",
            "--rate", "0.2", "--s", "0.03", "--eps", "0.1", "--delta", "1e-3",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.112, abs=0.01)

    def test_hoeffding(self, capsys):
        code, out, _ = run(capsys, "bounds", "hoeffding", "--t", "10", "--width", "1", "--n", "100")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.2706705, abs=1e-6)

    def test_success(self, capsys):
        code, out, _ = run(capsys, "bounds", "success", "--delta", "1e-3")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.999)

    def test_mcdiarmid(self, capsys):
        expected = bounds.mcdiarmid_tail(3.0, 0.5, 40)
        assert run(capsys, "bounds", "mcdiarmid", "--t", "3", "--diff", "0.5", "--n", "40") == (0, f"{expected!r}\n", "")

    def test_required_deviation_flags_bind_by_name(self, capsys):
        # each flag has its own value, so a swapped binding changes the number
        params = bounds.ReadBoundParams(seq_len=1e7, num_reads=1e6, rate=0.2, error_rate=0.03, rel_tol=0.1)
        expected = bounds.required_deviation_reads(params, bounds.Budgets(9.0, 8.0, 7.0))
        code, out, err = run(capsys, "bounds", "required-deviation", "--length", "1e7", "--num-reads", "1e6",
                             "--rate", "0.2", "--s", "0.03", "--eps", "0.1", "--budgets", "9,8,7")
        assert (code, out, err) == (0, f"{expected!r}\n", "")


class TestExperiment:
    def test_nonseq_experiment(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "s.json"
        code, out, _ = run(
            capsys, "experiment", "--mode", "nonseq", "--estimators", "k1-single,k1-gc",
            "--p", "0.1,0.2", "--trials", "3", "--seed", "1",
            "--length", "4000", "--dist", "0.4,0.2,0.2,0.2",
            "--out-csv", str(csv_path), "--out-json", str(json_path),
        )
        assert code == 0
        groups = json.loads(out)
        assert len(groups) == 4
        assert csv_path.read_text().startswith("# format: mutrate-trials-v2\n")
        summary = json.loads(json_path.read_text())
        assert summary["config"]["estimators"] == ["k1-single", "k1-gc"]

    def test_seq_experiment(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "--mode", "seq", "--estimators", "k1-reads",
            "--p", "0.1", "--trials", "2", "--seed", "1",
            "--length", "2000", "--dist", "0.4,0.2,0.2,0.2",
            "--coverage", "10", "--read-len", "100",
        )
        assert code == 0
        groups = json.loads(out)
        assert groups[0]["s"] == 0.0 and groups[0]["coverage"] == 10.0

    def test_mode_mismatch_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--mode", "nonseq", "--estimators", "k1-reads",
                  "--p", "0.1", "--trials", "1", "--seed", "1", "--length", "1000"])
        assert exc.value.code == 2

    def test_large_k_reads_needs_s(self):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--mode", "seq", "--estimators", "large-k-reads",
                  "--p", "0.1", "--trials", "1", "--seed", "1", "--length", "1000",
                  "-k", "8", "--read-len", "100"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, values", [("--p", "0.1,0.1"), ("-k", "2,3,2"), ("--estimators", "k1-gc,k1-gc")])
    def test_repeated_grid_values_usage_error(self, capsys, flag, values):
        argv = {"--mode": "nonseq", "--estimators": "k1-single", "--p": "0.1", "--trials": "3",
                "--seed": "1", "--length": "1000", "-k": "1"}
        argv[flag] = values
        with pytest.raises(SystemExit) as exc:
            main(["experiment", *(a for pair in argv.items() for a in pair)])
        assert exc.value.code == 2
        assert "repeats a value" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--dist", "0.1,0.1,0.1,0.7"], ["--refs", "5"]])
    def test_iid_flags_with_fasta_usage_error(self, tmp_path, capsys, extra):
        # these flags describe drawn references; a FASTA source used to ignore them
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--mode", "nonseq", "--estimators", "k1-single", "--p", "0.1", "--trials", "1",
                  "--seed", "1", "--fasta", str(tmp_path / "x.fa"), *extra, "--out-csv", str(out)])
        assert exc.value.code == 2
        assert "do not apply to --fasta" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_dist_in_a_later_group_usage_error(self, tmp_path, capsys):
        # checked when the config is built, before any source runs
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--mode", "nonseq", "--estimators", "k1-single", "--p", "0.1", "--trials", "1",
                  "--seed", "1", "--length", "1000", "--dist", "0.4,0.2,0.2,0.2", "0.5,0.5,0.5,0.5",
                  "--out-csv", str(out)])
        assert exc.value.code == 2
        assert "distribution must sum to 1, got 2.0" in capsys.readouterr().err
        assert not out.exists()

    def test_y_read_len_past_the_reference_exits_one(self, capsys):
        code, out, err = run(
            capsys, "experiment", "--mode", "seq", "--estimators", "k1-reads,large-k-reads",
            "--p", "0.1", "--trials", "1", "--seed", "1", "--length", "500", "-k", "8",
            "--s", "0.01", "--read-len", "100", "--y-read-len", "1000",
        )
        assert (code, out) == (1, "")
        assert err == "error: source 0, reference 0: y_read_len 1000 exceeds its length 500\n"

    @pytest.mark.parametrize(
        "flags, config",
        [
            (
                "--mode seq --estimators k1-reads,large-k-reads --p 0.05,0.1 --trials 2 --seed 4 --length 3000 "
                "--dist 0.4,0.2,0.2,0.2 --refs 2 -k 10,12 --s 0,0.01 --coverage 5,8 --read-len 60 --base C "
                "--y-coverage 4 --y-read-len 50",
                lambda fasta: ExperimentConfig(
                    (IidSource(3000, (0.4, 0.2, 0.2, 0.2), 2),), Mode.SEQ,
                    (EstimatorId.K1_READS, EstimatorId.LARGE_K_READS), p_grid=(0.05, 0.1), trials_per_point=2,
                    master_seed=4, k_values=(10, 12), s_grid=(0.0, 0.01), coverage_grid=(5.0, 8.0), read_len=60,
                    k1_base="C", y_coverage=4.0, y_read_len=50,
                ),
            ),
            (
                "--mode nonseq --estimators k1-single,k1-gc,general-k,large-k-seq --p 0.1 --trials 2 --seed 3 "
                "--fasta {fasta} -k 4 --subset top:20",
                lambda fasta: ExperimentConfig(
                    (FastaSource(str(fasta)),), Mode.NONSEQ,
                    (EstimatorId.K1_SINGLE, EstimatorId.K1_GC, EstimatorId.GENERAL_K, EstimatorId.LARGE_K_SEQ),
                    p_grid=(0.1,), trials_per_point=2, master_seed=3, k_values=(4,), subset=SubsetSpec.top(20),
                ),
            ),
            (
                # sources are the product of the lengths and the groups, lengths outer
                "--mode nonseq --estimators k1-single,large-k-seq --p 0.1 --trials 2 --seed 6 -k 8 "
                "--length 3000,4000 --dist 0.4,0.2,0.2,0.2 0.3,0.3,0.2,0.2 --refs 2",
                lambda fasta: ExperimentConfig(
                    tuple(
                        IidSource(g, dist, 2)
                        for g in (3000, 4000) for dist in ((0.4, 0.2, 0.2, 0.2), (0.3, 0.3, 0.2, 0.2))
                    ),
                    Mode.NONSEQ, (EstimatorId.K1_SINGLE, EstimatorId.LARGE_K_SEQ), p_grid=(0.1,),
                    trials_per_point=2, master_seed=6, k_values=(8,),
                ),
            ),
        ],
        ids=["seq", "nonseq-fasta", "nonseq-lengths-by-dists"],
    )
    def test_flags_bind_to_config_fields(self, tmp_path, capsys, flags, config):
        """The CLI's sweep writes what the library's does from the config the
        flags name, field by field."""
        fasta = tmp_path / "refs.fa"
        rng = random.Random(5)
        fasta.write_text("".join(f">{name}\n{''.join(rng.choices('ACGT', k=n))}\n" for name, n in (("a", 2400), ("b", 2000))))
        config = config(fasta)
        records = run_experiment(config)
        write_trials_csv(tmp_path / "lib.csv", records)
        write_summary_json(tmp_path / "lib.json", config, records)
        code, _, err = run(capsys, "experiment", *flags.format(fasta=fasta).split(),
                           "--out-csv", str(tmp_path / "cli.csv"), "--out-json", str(tmp_path / "cli.json"))
        assert (code, err) == (0, "")
        for name in ("csv", "json"):
            assert (tmp_path / f"cli.{name}").read_bytes() == (tmp_path / f"lib.{name}").read_bytes()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = [
            "experiment", "--mode", "nonseq", "--estimators", "k1-single",
            "--p", "0.15", "--trials", "4", "--seed", "9",
            "--length", "3000", "--dist", "0.35,0.25,0.2,0.2",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *args, "--out-csv", str(a))
        run(capsys, *args, "--out-csv", str(b))
        assert a.read_bytes() == b.read_bytes()
