import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutrate import model
from mutrate.model import (
    CircularSequence,
    SubstitutionChannel,
    codes_to_string,
    encode_base,
    generate_iid_sequence,
    mutate,
    sample_reads,
    string_to_codes,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=64)


class TestCircularSequence:
    def test_round_trip(self):
        s = CircularSequence.from_string("ACGTAC")
        assert s.to_string() == "ACGTAC"
        assert len(s) == 6

    @given(dna)
    def test_round_trip_property(self, text):
        assert CircularSequence.from_string(text).to_string() == text

    def test_lowercase_folds(self):
        assert CircularSequence.from_string("acgt").to_string() == "ACGT"

    def test_invalid_symbol_rejected(self):
        with pytest.raises(ValueError, match="position 3"):
            string_to_codes("ACNT")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CircularSequence.from_string("")

    def test_gc_fraction(self):
        assert CircularSequence.from_string("AACT").gc_fraction() == 0.25
        assert CircularSequence.from_string("GCGC").gc_fraction() == 1.0
        assert CircularSequence.from_string("ATTA").gc_fraction() == 0.0

    def test_equality_by_content(self):
        a = CircularSequence.from_string("ACGT")
        b = CircularSequence.from_string("ACGT")
        assert a == b
        assert a != CircularSequence.from_string("ACGA")

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(CircularSequence.from_string("ACGT"))


class TestChannel:
    def test_rate_zero_is_identity(self):
        x = generate_iid_sequence(500, (0.25, 0.25, 0.25, 0.25), rng_seed=1)
        y = mutate(x, SubstitutionChannel(0.0), rng_seed=2)
        assert y == x

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            SubstitutionChannel(1.0)
        with pytest.raises(ValueError):
            SubstitutionChannel(-0.01)

    def test_changed_positions_never_match(self):
        # every touched position must land on one of the OTHER three symbols
        x = CircularSequence.from_string("A" * 2000)
        y = mutate(x, SubstitutionChannel(0.9), rng_seed=7)
        changed = np.count_nonzero(y.codes != x.codes)
        assert changed == np.count_nonzero(y.codes != 0)

    def test_deterministic_given_seed(self):
        x = generate_iid_sequence(300, (0.25, 0.25, 0.25, 0.25), rng_seed=3)
        ch = SubstitutionChannel(0.3)
        assert mutate(x, ch, rng_seed=5) == mutate(x, ch, rng_seed=5)
        assert mutate(x, ch, rng_seed=5) != mutate(x, ch, rng_seed=6)

    def test_change_count_matches_binomial(self):
        # mean over trials within 4 standard errors of G * p
        g, p, trials = 400, 0.2, 1500
        x = generate_iid_sequence(g, (0.25, 0.25, 0.25, 0.25), rng_seed=11)
        ch = SubstitutionChannel(p)
        changed = [
            int(np.count_nonzero(mutate(x, ch, rng_seed=1000 + t).codes != x.codes))
            for t in range(trials)
        ]
        se = np.sqrt(g * p * (1 - p) / trials)
        assert abs(np.mean(changed) - g * p) < 4 * se

    def test_substituted_symbols_uniform_over_other_three(self):
        # conditioned on a change, each of the 3 alternatives is equally likely
        x = CircularSequence.from_string("A" * 30000)
        y = mutate(x, SubstitutionChannel(0.5), rng_seed=13)
        alts = y.codes[y.codes != 0]
        counts = np.bincount(alts, minlength=4)[1:]
        expected = alts.size / 3
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 13.8  # df=2, alpha ~ 1e-3


def _chi2_upper(df: int, z: float = 3.72) -> float:
    """Upper chi-square quantile at the normal quantile ``z`` (3.72: alpha
    1e-4), by the Wilson-Hilferty cube; close enough from df = 3 on."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def _hits(n_or_shape, rate: float, seed: int) -> np.ndarray:
    """Where the channel changed an all-A array."""
    return model._substitute(np.zeros(n_or_shape, dtype=np.uint8), rate, np.random.default_rng(seed)) != 0


class TestSparseChannel:
    """The channel draws the gaps between hits; these check that the hits
    are still i.i.d. Bernoulli(rate) per position with uniform offsets."""

    @pytest.mark.parametrize("block", [None, 5], ids=["real-blocks", "5-gap-blocks"])
    def test_hit_frequency_per_position(self, monkeypatch, block):
        # every position, the first and the last included, is hit with
        # probability rate; block boundaries fall at many places
        if block is None:
            n, rate, trials = 140_000, 0.5, 60
            assert n * rate > model._GAP_BLOCK  # more than one block per call
        else:
            monkeypatch.setattr(model, "_GAP_BLOCK", block)
            n, rate, trials = 60, 0.3, 4000
        freq = np.zeros(n, dtype=np.int64)
        for t in range(trials):
            freq += _hits(n, rate, 500 + t)
        z = (freq - trials * rate) / math.sqrt(trials * rate * (1 - rate))
        assert abs(z[0]) < 4.5 and abs(z[-1]) < 4.5
        assert float((z**2).sum()) < _chi2_upper(n)

    def test_gaps_are_geometric(self):
        rate, n = 0.05, 1_500_000
        assert n * rate > model._GAP_BLOCK
        hits = np.flatnonzero(_hits(n, rate, 21))
        gaps = np.diff(hits, prepend=-1)
        top = 100  # gaps 1..top-1 one bin each, then one bin for >= top
        observed = np.bincount(np.minimum(gaps, top), minlength=top + 1)[1:]
        g = np.arange(1, top)
        expected = gaps.size * np.append(rate * (1 - rate) ** (g - 1), (1 - rate) ** (top - 1))
        assert float(((observed - expected) ** 2 / expected).sum()) < _chi2_upper(top - 1)

    def test_hits_per_read_binomial(self):
        # rows of a read block: Binomial(L, rate) hits each, independent rows
        x = CircularSequence.from_string("A" * 5000)
        L, rate = 250, 0.1
        rs = sample_reads(x, L, 20_000, SubstitutionChannel(rate), rng_seed=31)
        per_row = np.count_nonzero(rs.matrix, axis=1)
        mean, var = L * rate, L * rate * (1 - rate)
        assert abs(per_row.mean() - mean) < 4.5 * math.sqrt(var / per_row.size)
        assert abs(per_row.var(ddof=1) / var - 1) < 4.5 * math.sqrt(2 / (per_row.size - 1))

    def test_offsets_uniform(self):
        x = np.random.default_rng(41).integers(0, 4, size=400_000, dtype=np.uint8)
        y = model._substitute(x, 0.4, np.random.default_rng(42))
        offsets = ((y.astype(np.int64) - x) % 4)[y != x]
        observed = np.bincount(offsets, minlength=4)
        assert observed[0] == 0
        expected = offsets.size / 3
        # chi-square with 2 df: the upper 1e-4 quantile is 2 ln 1e4
        assert float(((observed[1:] - expected) ** 2 / expected).sum()) < 2 * math.log(1e4)

    def test_rate_zero_draws_nothing(self):
        codes = np.arange(12, dtype=np.uint8).reshape(3, 4) % 4
        rng = np.random.default_rng(51)
        state = rng.bit_generator.state
        out = model._substitute(codes, 0.0, rng)
        assert rng.bit_generator.state == state
        assert np.array_equal(out, codes) and not np.shares_memory(out, codes)

    def test_tiny_rate_changes_nothing(self):
        # gaps saturate at 2**63 - 1; clipped at n + 1 they stay past the end
        codes = np.array([0, 1, 2, 3, 0], dtype=np.uint8)
        for seed in range(50):
            assert np.array_equal(model._substitute(codes, 1e-300, np.random.default_rng(seed)), codes)

    def test_rate_near_one(self):
        n, rate = 100_000, 0.999
        changed = np.count_nonzero(_hits(n, rate, 61))
        assert abs(changed - n * rate) < 4.5 * math.sqrt(n * rate * (1 - rate))

    def test_empty_block(self):
        rng = np.random.default_rng(71)
        state = rng.bit_generator.state
        out = model._substitute(np.zeros((0, 3), dtype=np.uint8), 0.5, rng)
        assert out.shape == (0, 3) and rng.bit_generator.state == state

    @pytest.mark.parametrize("rate", [0.0, 1e-300, 0.05, 0.999])
    def test_input_never_modified(self, rate):
        codes = np.random.default_rng(81).integers(0, 4, size=(40, 50), dtype=np.uint8)
        before = codes.copy()
        model._substitute(codes, rate, np.random.default_rng(82))
        assert np.array_equal(codes, before)
        x = CircularSequence(codes[0])
        mutate(x, SubstitutionChannel(rate), rng_seed=83)
        sample_reads(x, 10, 30, SubstitutionChannel(rate), rng_seed=84)
        assert np.array_equal(x.codes, before[0])

    def test_geometric_gaps_int64_and_saturating(self):
        # the channel relies on both: int64 gaps, and 2**63 - 1 (not a
        # wrapped negative) when the rate is too small for any hit
        rng = np.random.default_rng(91)
        assert rng.geometric(0.3, size=5).dtype == np.int64
        tiny = rng.geometric(1e-300, size=5)
        assert tiny.dtype == np.int64
        assert (tiny == np.iinfo(np.int64).max).all()


def read_starts(rng_seed: int, g: int, num_reads: int) -> np.ndarray:
    """The start positions ``sample_reads`` draws first, by its documented draw order."""
    return np.random.default_rng(rng_seed).integers(0, g, size=num_reads, dtype=np.int64)


class TestReads:
    def test_shapes_and_coverage(self):
        x = generate_iid_sequence(1000, (0.25, 0.25, 0.25, 0.25), rng_seed=1)
        rs = sample_reads(x, 100, 40, SubstitutionChannel(0.0), rng_seed=2)
        assert rs.matrix.shape == (40, 100)
        assert rs.num_reads == 40 and rs.read_len == 100
        assert rs.coverage == pytest.approx(4.0)

    def test_noiseless_reads_are_rotations(self):
        x = generate_iid_sequence(200, (0.25, 0.25, 0.25, 0.25), rng_seed=3)
        rs = sample_reads(x, 200, 10, SubstitutionChannel(0.0), rng_seed=4)
        doubled = x.to_string() * 2
        for row, start in zip(rs.matrix, read_starts(4, 200, 10)):
            assert codes_to_string(row) == doubled[start : start + 200]

    def test_reads_wrap_the_boundary(self):
        x = CircularSequence.from_string("ACGTACGT")
        rs = sample_reads(x, 5, 200, SubstitutionChannel(0.0), rng_seed=5)
        starts = read_starts(5, 8, 200)
        assert starts.max() > 3  # some read crosses the wrap point
        doubled = x.to_string() * 2
        for row, start in zip(rs.matrix, starts):
            assert codes_to_string(row) == doubled[start : start + 5]

    def test_origins_uniform(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        x = generate_iid_sequence(50, (0.25, 0.25, 0.25, 0.25), rng_seed=6)
        rs = sample_reads(x, 10, 20000, SubstitutionChannel(0.0), rng_seed=7)
        starts = read_starts(7, 50, 20000)
        ext = np.concatenate([x.codes, x.codes[:9]])
        assert np.array_equal(rs.matrix, ext[starts[:, None] + np.arange(10)])
        observed = np.bincount(starts, minlength=50)
        _, pvalue = scipy_stats.chisquare(observed)
        assert pvalue > 1e-3

    def test_read_longer_than_sequence_needs_flag(self):
        x = CircularSequence.from_string("ACGT")
        with pytest.raises(ValueError):
            sample_reads(x, 10, 2, SubstitutionChannel(0.0), rng_seed=8)
        rs = sample_reads(x, 10, 2, SubstitutionChannel(0.0), rng_seed=8, allow_wrap_repeat=True)
        assert rs.read_len == 10

    def test_read_noise_rate(self):
        x = CircularSequence.from_string("A" * 500)
        rs = sample_reads(x, 100, 300, SubstitutionChannel(0.1), rng_seed=9)
        frac = np.count_nonzero(rs.matrix != 0) / rs.matrix.size
        se = np.sqrt(0.1 * 0.9 / rs.matrix.size)
        assert abs(frac - 0.1) < 4 * se


class TestGenerate:
    def test_length_and_alphabet(self):
        x = generate_iid_sequence(123, (0.7, 0.1, 0.1, 0.1), rng_seed=1)
        assert len(x) == 123
        assert set(x.to_string()) <= set("ACGT")

    def test_distribution_respected(self):
        x = generate_iid_sequence(100_000, (0.4, 0.3, 0.2, 0.1), rng_seed=2)
        freqs = np.bincount(x.codes, minlength=4) / len(x)
        assert np.allclose(freqs, (0.4, 0.3, 0.2, 0.1), atol=0.01)

    def test_degenerate_distribution(self):
        x = generate_iid_sequence(50, (1.0, 0.0, 0.0, 0.0), rng_seed=3)
        assert x.to_string() == "A" * 50

    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError):
            generate_iid_sequence(10, (0.5, 0.5, 0.5, 0.5), rng_seed=4)
        with pytest.raises(ValueError):
            generate_iid_sequence(10, (0.5, 0.5), rng_seed=4)
        with pytest.raises(ValueError):
            generate_iid_sequence(0, (0.25, 0.25, 0.25, 0.25), rng_seed=4)

    @pytest.mark.parametrize(
        "dist",
        [
            (0.25, 0.25, 0.25, 0.25),
            (0.4, 0.2, 0.2, 0.2),
            (0.1, 0.2, 0.3, 0.4),
            (0.5, 0.0, 0.25, 0.25),  # a base that never occurs
            (0.0, 0.0, 0.0, 1.0),
            (1.0, 0.0, 0.0, 0.0),
            (0.3, 0.3, 0.3, 0.1 + 1e-10),  # sums to 1 within the tolerance, not exactly
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 11, 2**40 + 3])
    def test_same_stream_as_rng_choice(self, dist, seed):
        """The draw is rng.choice's, symbol for symbol, on this NumPy."""
        p = np.asarray(dist)
        want = np.random.default_rng(seed).choice(4, size=20_000, p=p / p.sum()).astype(np.uint8)
        assert np.array_equal(generate_iid_sequence(20_000, dist, rng_seed=seed).codes, want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            generate_iid_sequence(10, (bad, 0.5, 0.25, 0.25), rng_seed=4)


@settings(max_examples=25)
@given(dna, st.floats(0.0, 0.99), st.integers(0, 2**32))
def test_mutate_preserves_length(text, rate, seed):
    x = CircularSequence.from_string(text)
    assert len(mutate(x, SubstitutionChannel(rate), seed)) == len(x)


def test_encode_base():
    assert [encode_base(b) for b in "ACGT"] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        encode_base("N")
