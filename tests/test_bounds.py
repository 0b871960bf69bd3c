import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutrate.bounds import (
    Budgets,
    ReadBoundParams,
    equal_budgets,
    hoeffding_tail,
    mcdiarmid_tail,
    min_deviation_sequence,
    required_deviation_reads,
    success_probability,
)
from mutrate.estimators import EstimatorId
from mutrate.harness import ExperimentConfig, FastaSource, Mode, run_experiment
from mutrate.model import CircularSequence
from mutrate.seqio import FastaRecord, write_fasta


class TestTails:
    def test_hand_value(self):
        # n=100 unit widths, t=10: 2 exp(-2 * 100 / 100)
        assert hoeffding_tail(10, 1, 100) == pytest.approx(2 * math.exp(-2))

    def test_capped_at_one(self):
        assert hoeffding_tail(0.001, 1, 100) == 1.0

    def test_zero_deviation(self):
        assert hoeffding_tail(0.0, 1, 100) == 1.0

    def test_zero_widths(self):
        # a constant sum never deviates
        assert hoeffding_tail(0.5, 0, 100) == 0.0

    def test_per_term_widths(self):
        assert hoeffding_tail(3, [1.0, 2.0, 2.0]) == pytest.approx(
            min(1.0, 2 * math.exp(-2 * 9 / 9))
        )

    def test_mcdiarmid_same_form(self):
        assert mcdiarmid_tail(4, 0.5, 64) == hoeffding_tail(4, 0.5, 64)

    def test_negative_deviation_rejected(self):
        with pytest.raises(ValueError):
            hoeffding_tail(-1, 1, 10)

    @given(
        st.floats(0.001, 100),
        st.floats(0.01, 10),
        st.integers(1, 10_000),
    )
    @settings(max_examples=80)
    def test_valid_probability_and_monotone(self, t, w, n):
        v = hoeffding_tail(t, w, n)
        assert 0.0 <= v <= 1.0
        assert hoeffding_tail(2 * t, w, n) <= v  # bigger deviation, smaller tail


class TestMinDeviation:
    def test_hand_value(self):
        # sqrt(1.5 / (p^2 eps^2 G)) at p=0.01, eps=0.1, G=1e4
        got = min_deviation_sequence(0.01, 0.1, 1e4)
        assert got == pytest.approx(math.sqrt(1.5) / (0.01 * 0.1 * 100))

    def test_scales_inverse_sqrt_length(self):
        a = min_deviation_sequence(0.1, 0.1, 1e4)
        b = min_deviation_sequence(0.1, 0.1, 4e4)
        assert a / b == pytest.approx(2.0)

    def test_scales_inverse_rate(self):
        a = min_deviation_sequence(0.05, 0.1, 1e6)
        b = min_deviation_sequence(0.10, 0.1, 1e6)
        assert a / b == pytest.approx(2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            min_deviation_sequence(0.0, 0.1, 1e4)
        with pytest.raises(ValueError):
            min_deviation_sequence(0.1, 0.0, 1e4)
        with pytest.raises(ValueError):
            min_deviation_sequence(0.1, 0.1, 0)


class TestBudgets:
    def test_equal_split(self):
        b = equal_budgets(1e-3)
        assert b.c1 == b.c2 == b.c3 == pytest.approx(math.log(6000))

    def test_success_probability(self):
        assert success_probability(equal_budgets(1e-3)) == pytest.approx(0.999)

    def test_success_floors_at_zero(self):
        assert success_probability(Budgets(0.01, 0.01, 0.01)) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            equal_budgets(0.0)
        with pytest.raises(ValueError):
            equal_budgets(1.5)


def std_params(**overrides):
    base = dict(seq_len=1e7, num_reads=1e6, rate=0.2, error_rate=0.03, rel_tol=0.1)
    base.update(overrides)
    return ReadBoundParams(**base)


class TestRequiredDeviation:
    def test_reference_point(self):
        d = required_deviation_reads(std_params(), equal_budgets(1e-3))
        assert d == pytest.approx(0.112, abs=0.01)

    def test_zero_noise_closed_form(self):
        # with s = 0 the requirement loses its self-referential term
        p = std_params(error_rate=0.0)
        b = equal_budgets(1e-3)
        d = required_deviation_reads(p, b)
        direct = (3 / (4 * p.rate * p.rel_tol)) * (
            math.sqrt(b.c2 / (2 * p.num_reads)) + math.sqrt(b.c1 / (2 * p.seq_len))
        ) + math.sqrt(b.c3 / (2 * p.num_reads))
        assert d == pytest.approx(direct, abs=1e-12)

    def test_closed_form_near_the_noise_limit(self):
        # the fixed-point loop this replaced stopped at its iteration cap here
        # and returned a deviation 87.5% short
        s = 0.75 - 1e-7
        p, b = std_params(error_rate=s), equal_budgets(1e-3)
        base = required_deviation_reads(std_params(error_rate=0.0), b)
        assert required_deviation_reads(p, b) == pytest.approx(base / (1 - 4 * s / 3), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_budgets_must_be_positive(self, bad):
        budgets = Budgets(1.0, bad, 1.0)
        with pytest.raises(ValueError, match="budgets must be positive"):
            required_deviation_reads(std_params(), budgets)
        with pytest.raises(ValueError, match="budgets must be positive"):
            success_probability(budgets)

    def test_monotone_in_data_volume(self):
        b = equal_budgets(1e-3)
        d_small = required_deviation_reads(std_params(num_reads=1e5), b)
        d_large = required_deviation_reads(std_params(num_reads=1e7), b)
        assert d_large < d_small

    def test_monotone_in_confidence(self):
        d_loose = required_deviation_reads(std_params(), equal_budgets(1e-2))
        d_tight = required_deviation_reads(std_params(), equal_budgets(1e-6))
        assert d_loose < d_tight

    def test_monotone_in_noise(self):
        b = equal_budgets(1e-3)
        d_clean = required_deviation_reads(std_params(error_rate=0.0), b)
        d_noisy = required_deviation_reads(std_params(error_rate=0.1), b)
        assert d_clean < d_noisy

    def test_domain(self):
        with pytest.raises(ValueError):
            std_params(rate=0.8)
        with pytest.raises(ValueError):
            std_params(error_rate=0.75)
        with pytest.raises(ValueError):
            std_params(rel_tol=0.0)
        with pytest.raises(ValueError):
            std_params(num_reads=0)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
class TestNonFiniteRejected:
    """A check of the form ``x <= 0`` is False for NaN, so each argument is
    held to a comparison that NaN fails; these returned nan, 1.0 or 0.0."""

    @pytest.mark.parametrize("arg", ["rate", "rel_tol", "seq_len"])
    def test_min_deviation_sequence(self, value, arg):
        with pytest.raises(ValueError):
            min_deviation_sequence(**{"rate": 0.1, "rel_tol": 0.1, "seq_len": 1e4, arg: value})

    @pytest.mark.parametrize("tail", [hoeffding_tail, mcdiarmid_tail])
    @pytest.mark.parametrize(
        "args",
        [
            lambda v: (v, 1.0, 10),  # t
            lambda v: (1.0, v, 10),  # one width for every term
            lambda v: (1.0, [1.0, v]),  # a width per term
            lambda v: (1.0, 1.0, v),  # n
        ],
        ids=["t", "scalar-width", "width-entry", "n"],
    )
    def test_tails(self, value, tail, args):
        with pytest.raises(ValueError):
            tail(*args(value))

    @pytest.mark.parametrize("arg", ["seq_len", "num_reads", "rate", "error_rate", "rel_tol"])
    def test_read_bound_params(self, value, arg):
        with pytest.raises(ValueError):
            std_params(**{arg: value})


def test_read_guarantee_holds_in_simulation(tmp_path):
    """The paper's guarantee for k1-reads: once the base's fraction sits
    ``required_deviation_reads`` from 1/4, the relative error stays within
    eps with probability at least 1 - delta. 200 simulated trials at exactly
    that deviation must put a one-sided 95% Wilson lower bound on the
    success fraction above 1 - delta."""
    g, n, read_len, p, s, eps, delta = 20_000, 20_000, 20, 0.3, 0.03, 0.5, 0.1
    d = required_deviation_reads(ReadBoundParams(g, n, p, s, eps), equal_budgets(delta))
    assert d == pytest.approx(0.1159, abs=1e-4)
    # a reference with exactly ceil((1/4 + d) g) A's, the rest spread over C, G, T
    n_a = math.ceil((0.25 + d) * g)
    rest = g - n_a
    codes = np.repeat(np.arange(4, dtype=np.uint8), [n_a, rest - 2 * (rest // 3), rest // 3, rest // 3])
    np.random.default_rng(3).shuffle(codes)
    path = tmp_path / "x.fa"
    write_fasta(path, [FastaRecord("x", CircularSequence.from_string("".join("ACGT"[c] for c in codes)))])
    trials = 200
    config = ExperimentConfig(
        sources=(FastaSource(str(path)),),
        mode=Mode.SEQ,
        estimators=(EstimatorId.K1_READS,),
        p_grid=(p,),
        trials_per_point=trials,
        master_seed=6,
        s_grid=(s,),
        coverage_grid=(n * read_len / g,),
        read_len=read_len,
        k1_base="A",
    )
    records = run_experiment(config)
    assert len(records) == trials and {r.error for r in records} == {""}
    assert {(r.p, r.s, r.coverage) for r in records} == {(p, s, 20.0)}
    hits = sum(abs(r.rel_error) <= eps for r in records)
    z = 1.6448536269514722  # one-sided 95%
    frac = hits / trials
    centre = frac + z * z / (2 * trials)
    spread = z * math.sqrt(frac * (1 - frac) / trials + z * z / (4 * trials * trials))
    lower = (centre - spread) / (1 + z * z / trials)
    assert lower > 1 - delta, f"{hits}/{trials} within eps; Wilson lower bound {lower:.3f}"
