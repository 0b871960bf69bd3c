"""Estimator tests.

The plug-in identities are the core oracle: feed each estimator the exact
expected statistics of the mutated side (not a sample) and it must return
the true rate. Anything else is a bug in the formula, the root finder, or
the bookkeeping.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from mutrate.errors import (
    EmptyRetainedSet,
    MismatchedK,
    MutrateError,
    NoRootInRange,
    SingularDenominator,
)
from mutrate.estimators import (
    DOUBLE_ROOT_TOL,
    SEARCH_MAX,
    EstimatorId,
    SubsetSpec,
    estimate_general_k,
    estimate_k1_gc,
    estimate_k1_reads,
    estimate_k1_single,
    estimate_large_k_reads,
    estimate_large_k_seq,
    find_smallest_root,
    select_lambda,
)
from mutrate.harness import estimate
from mutrate.kmers import KmerTable, count_kmers_reads, count_kmers_sequence, decode_kmer, expected_kmer_count
from mutrate.model import (
    CircularSequence,
    SubstitutionChannel,
    generate_iid_sequence,
    mutate,
    sample_reads,
)

RATES = (0.01, 0.05, 0.1, 0.2, 0.5)


def expected_base_count(f: float, g: float, p: float) -> float:
    """E[f'] for one base: kept mass plus inflow from the other three."""
    return f * (1 - p) + (g - f) * p / 3


class TestK1Single:
    def test_hand_value(self):
        # f=3, f'=2.2, G=4: 3 * (2.2 - 3) / (4 - 12) = 0.3
        r = estimate_k1_single(3, 2.2, 4)
        assert r.p_raw == pytest.approx(0.3)
        assert r.p_clamped == r.p_raw

    @pytest.mark.parametrize("p", RATES)
    def test_plugin_identity(self, p):
        f, g = 40.0, 100.0
        r = estimate_k1_single(f, expected_base_count(f, g, p), g)
        assert r.p_raw == pytest.approx(p, abs=1e-9)

    def test_scaling_equivariance(self):
        # doubling f, f', G together leaves the estimate unchanged
        a = estimate_k1_single(40, 35, 100)
        b = estimate_k1_single(80, 70, 200)
        assert a.p_raw == pytest.approx(b.p_raw, abs=1e-12)

    def test_singular_at_quarter(self):
        with pytest.raises(SingularDenominator):
            estimate_k1_single(25, 30, 100)

    def test_clamping(self):
        r = estimate_k1_single(100, 0, 100)  # f' collapsed to zero
        assert r.p_raw == pytest.approx(1.0)
        assert r.p_clamped == pytest.approx(1.0)
        below = estimate_k1_single(40, 41, 100)  # f' drifted the wrong way
        assert below.p_raw < 0.0
        assert below.p_clamped == 0.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            estimate_k1_single(-1, 10, 100)
        with pytest.raises(ValueError):
            estimate_k1_single(10, 101, 100)
        with pytest.raises(ValueError):
            estimate_k1_single(10, 10, 0)

    @given(
        st.floats(0.0, 1.0).filter(lambda x: abs(x - 0.25) > 0.01),
        st.floats(0.001, 0.74),
    )
    @settings(max_examples=60)
    def test_plugin_identity_property(self, frac, p):
        g = 1000.0
        f = frac * g
        r = estimate_k1_single(f, expected_base_count(f, g, p), g)
        assert r.p_raw == pytest.approx(p, rel=1e-7, abs=1e-9)


class TestK1GC:
    def test_hand_value(self):
        r = estimate_k1_gc(0.6, 0.56)
        assert r.p_raw == pytest.approx(0.3)

    @pytest.mark.parametrize("p", RATES)
    def test_plugin_identity(self, p):
        x_gc = 0.62
        # a GC base mutates into GC 1 of 3 times, an AT base 2 of 3 times
        y_gc = x_gc * (1 - p) + x_gc * (p / 3) + (1 - x_gc) * (2 * p / 3)
        r = estimate_k1_gc(x_gc, y_gc)
        assert r.p_raw == pytest.approx(p, abs=1e-9)

    def test_singular_at_half(self):
        with pytest.raises(SingularDenominator):
            estimate_k1_gc(0.5, 0.52)

    def test_domain(self):
        with pytest.raises(ValueError):
            estimate_k1_gc(1.2, 0.5)
        with pytest.raises(ValueError):
            estimate_k1_gc(0.4, -0.1)


class TestK1Reads:
    def test_hand_value(self):
        # raw value may exceed 1; the clamp caps at 1
        r = estimate_k1_reads(300, 220, 10, 100)
        assert r.p_raw == pytest.approx(1.2)
        assert r.p_clamped == pytest.approx(1.0)

    @pytest.mark.parametrize("p", RATES)
    @pytest.mark.parametrize("s", [0.0, 0.02, 0.1])
    def test_plugin_identity_any_noise(self, p, s):
        # sequencer noise hits both sides identically, so it must cancel
        g, n, length = 1000.0, 50.0, 100.0
        f_frac = 0.4
        noisy = lambda frac: frac * (1 - s) + (1 - frac) * s / 3  # noqa: E731
        y_frac = expected_base_count(f_frac * g, g, p) / g
        h = n * length * noisy(f_frac)
        h_prime = n * length * noisy(y_frac)
        r = estimate_k1_reads(h, h_prime, n, length)
        assert r.p_raw == pytest.approx(p, abs=1e-9)

    def test_singular(self):
        with pytest.raises(SingularDenominator):
            estimate_k1_reads(250, 260, 10, 100)

    def test_domain(self):
        with pytest.raises(ValueError):
            estimate_k1_reads(-1, 10, 10, 100)
        with pytest.raises(ValueError):
            estimate_k1_reads(10, 2000, 10, 100)
        with pytest.raises(ValueError):
            estimate_k1_reads(10, 10, 0, 100)


def exact_mutated_counts(x: CircularSequence, k: int, p: float) -> dict[str, float]:
    """Expected mutated-side counts for every k-mer within distance reach."""
    t = count_kmers_sequence(x, k)
    out = {}
    for a in _all_kmers(k):
        v = oracles.closed_form_expected_count(x.to_string(), a, p)
        if v > 0:
            out[a] = v
    return out


def _all_kmers(k: int):
    if k == 1:
        yield from "ACGT"
        return
    for prefix in _all_kmers(k - 1):
        for b in "ACGT":
            yield prefix + b


STRINGS = [
    "ACGGTAACCGGTTAGCATGCAAGGTTAACCGGAATTCCGG",  # mixed
    "AAAAAAAAAATTTTTTTTTTAAAAAAAAAATTTTTTTTTT",  # repetitive, two symbols
    "ACACACACACACACACACACACACACACACACACACACAC",  # period two
]


def moment(profile: list[int], q: float) -> float:
    """Expected mutated mass on a subset whose source mass at Hamming
    distance d is profile[d]."""
    k = len(profile) - 1
    return sum(m * (1 - q) ** (k - d) * (q / 3) ** d for d, m in enumerate(profile))


@st.composite
def moment_cases(draw):
    """A random source table at k <= 6, a subset of its k-mers whose moment
    moves with the rate, and a target mass within 20% of the moment at a
    random rate."""
    k = draw(st.integers(1, 6))
    kmers = draw(st.lists(st.text("ACGT", min_size=k, max_size=k), min_size=1, max_size=12, unique=True))
    counts = {s: draw(st.integers(1, 50)) for s in kmers}
    subset = draw(st.lists(st.sampled_from(kmers), min_size=1, max_size=len(kmers), unique=True))
    profile = oracles.hamming_profile(counts, subset)
    # a moment constant in the rate (as with base A at exactly 1/4 of a k=1
    # table) makes every rate a root; a degree-k polynomial is constant when
    # it takes one value, exactly, at k + 1 points
    assume(len({moment(profile, Fraction(q)) for q in range(k + 1)}) > 1)
    target = draw(st.floats(0.8, 1.2)) * moment(profile, draw(st.floats(0.0, 0.75)))
    return k, counts, subset, target


class TestGeneralK:
    @pytest.mark.parametrize("p", RATES)
    @pytest.mark.parametrize("text", STRINGS)
    def test_plugin_identity(self, text, p):
        x = CircularSequence.from_string(text)
        k = 3
        counts = exact_mutated_counts(x, k, p)
        r = estimate_general_k(count_kmers_sequence(x, k), counts, SubsetSpec.top(10))
        assert r.p_raw == pytest.approx(p, abs=1e-6)

    def test_single_base_subset_matches_k1(self):
        # k=1, S={A} reduces the moment equation to the single-base formula
        x = CircularSequence.from_string("AACGTAACGGTTAACC")
        p = 0.13
        counts = exact_mutated_counts(x, 1, p)
        r = estimate_general_k(
            count_kmers_sequence(x, 1), counts, SubsetSpec.explicit(["A"])
        )
        assert r.p_raw == pytest.approx(p, abs=1e-7)

    def test_all_possible_kmers_rejected(self):
        # with S = every 4-mer... every 1-mer here, the moment is constant
        x = CircularSequence.from_string("AACGTAACGGTTAACC")
        counts = exact_mutated_counts(x, 1, 0.1)
        with pytest.raises(ValueError, match="covers all possible"):
            estimate_general_k(count_kmers_sequence(x, 1), counts, SubsetSpec.all())

    def test_no_root_raises(self):
        x = CircularSequence.from_string("AAAACCCCGGGGTTTT")
        t = count_kmers_sequence(x, 2)
        # mutated mass far above anything the channel could produce
        fake = {"AA": 1000.0}
        with pytest.raises(NoRootInRange):
            estimate_general_k(t, fake, SubsetSpec.explicit(["AA"]))

    def test_moment_changes_sign_at_root(self):
        x = CircularSequence.from_string(STRINGS[0])
        source = count_kmers_sequence(x, 3)
        counts = exact_mutated_counts(x, 3, 0.2)
        subset = SubsetSpec.top(5)
        r = estimate_general_k(source, counts, subset)
        kmers = [decode_kmer(int(v), 3) for v in subset.resolve(source)]
        profile = oracles.hamming_profile(dict(source.items()), kmers)
        target = sum(counts[s] for s in kmers)
        g = lambda q: moment(profile, q) - target  # noqa: E731
        assert g(r.p_raw - 1e-9) * g(r.p_raw + 1e-9) < 0

    @settings(max_examples=60, deadline=None)
    @given(case=moment_cases())
    # (1-q)^2 + 50(q/3)^2 falls from 1 to 0.85 at q = 0.15, then rises
    @example(case=(2, {"AA": 1, "CC": 50}, ["AA"], 0.9))  # two roots
    @example(case=(2, {"AA": 1, "CC": 50}, ["AA"], 0.5))  # none
    # (1-q)^2 + 36(q/3)^2 - 0.8 = 5(q - 0.2)^2: a double root, no sign change
    @example(case=(2, {"AA": 1, "CC": 36}, ["AA"], 0.8))
    def test_roots_against_scan_oracle(self, case):
        """The smallest root and ``multiple_roots`` agree with a dense scan
        of the moment equation, or both find no root. The scan counts a
        tangency as the estimator does: a root when its complex pair lies
        within DOUBLE_ROOT_TOL of the real axis on the interval mapped to
        [-1, 1]; such a root is known only to that width."""
        k, counts, kmers, target = case
        source = KmerTable.from_mapping(k, counts)
        profile = oracles.hamming_profile(counts, kmers)
        g = lambda q: moment(profile, q) - target  # noqa: E731
        # a root within rounding of an end may land on either side of it
        assume(min(abs(g(0.0)), abs(g(SEARCH_MAX))) > 1e-6 * target)
        touch = DOUBLE_ROOT_TOL * SEARCH_MAX / 2
        roots = oracles.roots_by_scan(g, 0.0, SEARCH_MAX, touch=touch)
        subset = SubsetSpec.explicit(kmers)
        if not roots:
            with pytest.raises(NoRootInRange):
                estimate_general_k(source, {kmers[0]: target}, subset)
            return
        r = estimate_general_k(source, {kmers[0]: target}, subset)
        crossing = g(roots[0] - touch) * g(roots[0] + touch) < 0
        assert r.p_raw == pytest.approx(roots[0], abs=1e-11 if crossing else touch)
        assert r.diagnostics.multiple_roots == (len(roots) > 1)

    @pytest.mark.parametrize("p", [0.001, 0.05, 0.2])
    def test_plugin_identity_at_k32(self, p):
        x = generate_iid_sequence(400, (0.4, 0.2, 0.2, 0.2), rng_seed=32)
        text = x.to_string()
        source = count_kmers_sequence(x, 32)
        subset = SubsetSpec.top(20)
        kmers = [decode_kmer(int(v), 32) for v in subset.resolve(source)]
        counts = {s: oracles.closed_form_expected_count(text, s, p) for s in kmers}
        r = estimate_general_k(source, counts, subset)
        assert r.p_raw == pytest.approx(p, abs=1e-12)
        assert not r.diagnostics.multiple_roots

    def test_subset_validation(self):
        t = count_kmers_sequence(CircularSequence.from_string("AAAA"), 2)
        with pytest.raises(ValueError, match="absent"):
            SubsetSpec.explicit(["CC"]).resolve(t)
        with pytest.raises(ValueError):
            SubsetSpec.explicit(["AA", "AA"]).resolve(t)
        with pytest.raises(ValueError):
            SubsetSpec.top(0)

    def test_explicit_kmers_must_have_length_k(self):
        # "AC" packs like "AAC" and "AACG" past 4^3; both must name the k-mer
        t = count_kmers_sequence(CircularSequence.from_string("AACGTAACGG"), 3)
        with pytest.raises(MismatchedK, match=r"'AC' has length 2, source table k=3"):
            SubsetSpec.explicit(["AAC", "AC"]).resolve(t)
        with pytest.raises(MismatchedK, match=r"'AACG' has length 4, source table k=3"):
            SubsetSpec.explicit(["AACG"]).resolve(t)

    def test_top_subset_takes_heaviest(self):
        t = KmerTable.from_mapping(2, {"AA": 5, "CC": 9, "GG": 9, "TT": 1})
        keys = SubsetSpec.top(2).resolve(t)
        from mutrate.kmers import decode_kmer

        assert sorted(decode_kmer(int(v), 2) for v in keys) == ["CC", "GG"]


class TestLargeKSeq:
    def test_mass_law_value(self):
        # survival mass (1-p)^k * G with k=10, p=0.1
        x = generate_iid_sequence(5000, (0.25, 0.25, 0.25, 0.25), rng_seed=1)
        k, p = 10, 0.1
        t = count_kmers_sequence(x, k)
        surviving = (1 - p) ** k * t.total
        mutated = {w: surviving * c / t.total for w, c in t.items()}
        r = estimate_large_k_seq(t, mutated)
        assert r.p_raw == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("p", RATES)
    def test_plugin_identity(self, p):
        # exact expectations: mass on K is slightly above (1-p)^k from re-hits,
        # so use small alphabet-collision-free k and exact counts
        x = generate_iid_sequence(2000, (0.25, 0.25, 0.25, 0.25), rng_seed=2)
        k = 12
        t = count_kmers_sequence(x, k)
        mutated = {w: c * (1 - p) ** k for w, c in t.items()}
        r = estimate_large_k_seq(t, mutated)
        assert r.p_raw == pytest.approx(p, abs=1e-12)

    def test_zero_mass_gives_one(self):
        t = KmerTable.from_mapping(3, {"ACG": 5})
        r = estimate_large_k_seq(t, {"TTT": 1.0})
        assert r.p_raw == pytest.approx(1.0)
        assert r.p_clamped == pytest.approx(1.0)

    def test_monotone_in_surviving_mass(self):
        t = KmerTable.from_mapping(4, {"ACGT": 10, "GGCC": 10})
        est = lambda m: estimate_large_k_seq(t, {"ACGT": m}).p_raw  # noqa: E731
        vals = [est(m) for m in (2.0, 5.0, 10.0, 15.0)]
        assert vals == sorted(vals, reverse=True)

    def test_empty_source_rejected(self):
        with pytest.raises(EmptyRetainedSet):
            estimate_large_k_seq(
                KmerTable(3, np.array([], dtype=np.uint64), np.array([], dtype=np.int64)),
                {},
            )


class TestSelectLambda:
    def make_table(self, counts: dict[str, int]) -> KmerTable:
        return KmerTable.from_mapping(2, counts, provenance="reads")

    def test_example_keeps_heavy_tail(self):
        # counts 10, 8, 1, 1; threshold mass 18 -> lambda 8 keeps exactly 18
        t = self.make_table({"AA": 10, "CC": 8, "GG": 1, "TT": 1})
        s = 1 - (18 / 20) ** 0.5  # makes (1-s)^2 * 20 = 18
        sel = select_lambda(t, s)
        assert sel.lam == 8
        assert sel.retained_mass == 18
        assert not sel.fallback

    def test_example_all_mass_needed(self):
        # requiring more than the two heavy counts forces lambda down to 1
        t = self.make_table({"AA": 10, "CC": 8, "GG": 1, "TT": 1})
        sel = select_lambda(t, 0.001)  # needs ~19.96 of 20
        assert sel.lam == 1
        assert sel.fallback

    def test_example_zero_noise(self):
        # s = 0 demands the full mass; smallest count >= 2 keeps everything
        t = self.make_table({"AA": 4, "CC": 3, "GG": 2})
        sel = select_lambda(t, 0.0)
        assert sel.lam == 2
        assert sel.retained_mass == 9
        assert not sel.fallback

    def test_monotone_in_noise(self):
        rng = np.random.default_rng(17)
        from mutrate.kmers import decode_kmer

        for _ in range(100):
            n = int(rng.integers(1, 12))
            keys = rng.choice(4**6, size=n, replace=False)
            counts = {
                decode_kmer(int(v), 6): int(c)
                for v, c in zip(keys, rng.integers(1, 50, size=n))
            }
            t = KmerTable.from_mapping(6, counts, provenance="reads")
            lams = [select_lambda(t, s).lam for s in np.linspace(0, 0.5, 11)]
            assert lams == sorted(lams), f"lambda not monotone for {counts}"

    def test_empty_table_rejected(self):
        empty = KmerTable(
            2, np.array([], dtype=np.uint64), np.array([], dtype=np.int64), provenance="reads"
        )
        with pytest.raises(EmptyRetainedSet):
            select_lambda(empty, 0.1)


class TestLargeKReads:
    def test_plugin_identity(self):
        # exact expected masses on the retained set, noise cancelling
        k, p, s = 9, 0.07, 0.02
        x = generate_iid_sequence(3000, (0.25, 0.25, 0.25, 0.25), rng_seed=3)
        xr = sample_reads(x, 100, 600, SubstitutionChannel(s), rng_seed=4)
        hx = count_kmers_reads(xr, k)
        sel = select_lambda(hx, s)
        retained = hx.keys[hx.counts >= sel.lam]
        # construct the mutated side in exact expectation over the retained set
        mutated = {}
        from mutrate.kmers import decode_kmer

        survival = (1 - p) ** k
        counts = oracles.table_counts(hx)
        for v in retained:
            w = decode_kmer(int(v), k)
            mutated[w] = counts[w] * survival
        r = estimate_large_k_reads(hx, mutated, s)
        assert r.p_raw == pytest.approx(p, abs=1e-9)
        assert r.diagnostics.lambda_threshold == sel.lam

    def test_requires_read_provenance(self):
        t = KmerTable.from_mapping(3, {"ACG": 5})
        with pytest.raises(ValueError):
            estimate_large_k_reads(t, {"ACG": 2.0}, 0.01)

    def test_fallback_warns(self):
        t = KmerTable.from_mapping(3, {"ACG": 1, "GGG": 1}, provenance="reads")
        r = estimate_large_k_reads(t, {"ACG": 1.0}, 0.01)
        assert r.diagnostics.lambda_fallback
        assert any("fell back" in w for w in r.warnings)

    def test_scale_compensates_volume(self):
        # a mutated table from half the source's read volume has half its
        # total, so its surviving mass counts double; expected counts in a
        # mapping are taken as they are
        t = KmerTable.from_mapping(2, {"AA": 50, "CC": 50}, provenance="reads")
        full = estimate_large_k_reads(t, {"AA": 40.0, "CC": 40.0}, 0.0)
        half = KmerTable.from_mapping(2, {"AA": 20, "CC": 20, "GT": 10}, provenance="reads")
        halved = estimate_large_k_reads(t, half, 0.0)
        assert halved.p_raw == pytest.approx(full.p_raw, abs=1e-12)
        assert full.p_raw == pytest.approx(1 - 0.8**0.5, abs=1e-12)

    def test_empty_mutated_table_rejected(self):
        # with no mutated windows there is no volume to scale by; the parent
        # skipped the scaling and reported p_raw 1.0
        t = KmerTable.from_mapping(2, {"AA": 50, "CC": 50}, provenance="reads")
        empty = KmerTable(2, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64), "reads")
        with pytest.raises(EmptyRetainedSet, match="mutated read table is empty"):
            estimate_large_k_reads(t, empty, 0.0)

    def test_upper_bound_noise_still_valid(self):
        # at k = 9 an overstated s still gives a rate within 0.05 of p
        x = generate_iid_sequence(3000, (0.25, 0.25, 0.25, 0.25), rng_seed=5)
        xr = sample_reads(x, 100, 600, SubstitutionChannel(0.01), rng_seed=6)
        y = mutate(x, SubstitutionChannel(0.05), rng_seed=7)
        yr = sample_reads(y, 100, 600, SubstitutionChannel(0.01), rng_seed=8)
        hx, hy = count_kmers_reads(xr, 9), count_kmers_reads(yr, 9)
        exact = estimate_large_k_reads(hx, hy, 0.01)
        bound = estimate_large_k_reads(hx, hy, 0.03)
        assert (
            select_lambda(hx, 0.03).lam >= select_lambda(hx, 0.01).lam
        )
        assert abs(bound.p_raw - 0.05) < 0.05 and abs(exact.p_raw - 0.05) < 0.05

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_overstated_noise_raises_lambda_and_the_rate(self, seed):
        """At twice the true s the threshold rises and keeps keys picked on
        x's count noise, so the rate comes out higher (G = 3e4, coverage
        10, L = 1000, k = 30, p = 0.05, s = 0.01)."""
        x = generate_iid_sequence(30_000, (0.35, 0.25, 0.2, 0.2), rng_seed=seed)
        y = mutate(x, SubstitutionChannel(0.05), rng_seed=seed + 100)
        hx = count_kmers_reads(sample_reads(x, 1000, 300, SubstitutionChannel(0.01), rng_seed=seed + 200), 30)
        yr = sample_reads(y, 1000, 300, SubstitutionChannel(0.01), rng_seed=seed + 300)
        true_s, twice = estimate_large_k_reads(hx, yr, 0.01), estimate_large_k_reads(hx, yr, 0.02)
        assert twice.diagnostics.lambda_threshold > true_s.diagnostics.lambda_threshold
        assert twice.p_raw > true_s.p_raw


@pytest.mark.parametrize(
    "estimate, source_provenance",
    [
        (lambda x, y: estimate_general_k(x, y, SubsetSpec.top(2)), "sequence"),
        (estimate_large_k_seq, "sequence"),
        (lambda x, y: estimate_large_k_reads(x, y, 0.01), "reads"),
    ],
)
def test_mutated_table_must_share_provenance(estimate, source_provenance):
    # a reads table against a sequence table compares counts of different
    # volumes; it must fail instead of giving a rate
    counts = {"AAA": 5, "ACG": 3, "TTT": 2}
    other = "reads" if source_provenance == "sequence" else "sequence"
    source = KmerTable.from_mapping(3, counts, provenance=source_provenance)
    with pytest.raises(ValueError, match="provenance"):
        estimate(source, KmerTable.from_mapping(3, counts, provenance=other))
    estimate(source, KmerTable.from_mapping(3, counts, provenance=source_provenance))


@pytest.mark.parametrize(
    "estimate, source_provenance",
    [
        (lambda x, y: estimate_general_k(x, y, SubsetSpec.top(2)), "sequence"),
        (estimate_large_k_seq, "sequence"),
        (lambda x, y: estimate_large_k_reads(x, y, 0.01), "reads"),
    ],
)
@pytest.mark.parametrize(
    "mutated, error, message",
    [
        ({"AC": 1.0}, MismatchedK, "k-mer 'AC' has length 2, expected 3"),
        ({"ACG": -1.0}, ValueError, "negative count for 'ACG'"),
        ({"acg": 1.0, "ACG": 1.0}, ValueError, "duplicate k-mers in mutated counts"),
        (None, MismatchedK, "mutated table has k=2, source has k=3"),
    ],
    ids=["short-kmer", "negative", "duplicate", "table-of-other-k"],
)
def test_bad_mutated_side_rejected(estimate, source_provenance, mutated, error, message):
    source = KmerTable.from_mapping(3, {"AAA": 5, "ACG": 3, "TTT": 2}, provenance=source_provenance)
    if mutated is None:
        mutated = KmerTable.from_mapping(2, {"AC": 4}, provenance=source_provenance)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        estimate(source, mutated)


class TestSequenceLengthsMustMatch:
    """A substitution keeps the length, so x and y of different G (a
    sequence table's G is its total) are an error in every sequence-mode
    estimator. With y the first half of x (true rate 0) the parent returned
    k1-single 1.008, large-k-seq 0.033 and general-k 0.261."""

    @pytest.fixture(scope="class")
    def halves(self):
        x = generate_iid_sequence(4000, (0.4, 0.2, 0.2, 0.2), rng_seed=21)
        return x, CircularSequence(x.codes[:2000])

    @pytest.mark.parametrize(
        "est, kwargs",
        [
            (EstimatorId.K1_SINGLE, {}),
            (EstimatorId.K1_GC, {}),
            (EstimatorId.GENERAL_K, {"k": 4, "subset": SubsetSpec.top(20)}),
            (EstimatorId.LARGE_K_SEQ, {"k": 12}),
        ],
    )
    def test_different_lengths_rejected(self, halves, est, kwargs):
        x, y = halves
        with pytest.raises(MutrateError, match="x has 4000 bases but y has 2000; a substitution keeps the length"):
            estimate(est, x, y, **kwargs)

    @pytest.mark.parametrize("est", [EstimatorId.GENERAL_K, EstimatorId.LARGE_K_SEQ])
    def test_sequence_tables_of_different_totals_rejected(self, halves, est):
        x, y = halves
        with pytest.raises(MutrateError, match="x has 4000 bases but y has 2000; a substitution keeps the length"):
            estimate(est, count_kmers_sequence(x, 6), count_kmers_sequence(y, 6))

    def test_empty_mutated_table_rejected(self, halves):
        # an empty y table gave large-k-seq p_raw 1.0
        x, _ = halves
        empty = KmerTable(12, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
        with pytest.raises(MutrateError, match="x has 4000 bases but y has 0; a substitution keeps the length"):
            estimate(EstimatorId.LARGE_K_SEQ, x, empty, k=12)


class TestRootFinder:
    def test_linear(self):
        root, multiple = find_smallest_root(lambda q: q - 0.3, 1, 0.0, 0.75)
        assert root == pytest.approx(0.3, abs=1e-15)
        assert not multiple

    def test_smallest_of_several(self):
        f = lambda q: (q - 0.1) * (q - 0.5)  # noqa: E731
        root, multiple = find_smallest_root(f, 2, 0.0, 0.75)
        assert root == pytest.approx(0.1, abs=1e-15)
        assert multiple

    def test_no_root(self):
        with pytest.raises(NoRootInRange):
            find_smallest_root(lambda q: q + 1.0, 1, 0.0, 0.75)
        with pytest.raises(NoRootInRange):
            # two real roots outside, and a complex pair inside, [0, 0.75]
            find_smallest_root(lambda q: ((q - 0.4) ** 2 + 0.01) * (q + 1) * (q - 2), 4)

    def test_root_at_zero(self):
        root, _ = find_smallest_root(lambda q: q, 1, 0.0, 0.75)
        assert root == 0.0

    @pytest.mark.parametrize("f, degree", [(lambda q: q - 0.75, 1), (lambda q: (q - 0.75) * (q - 0.8), 2)])
    def test_root_at_the_upper_end(self, f, degree):
        # rounding can put an end root just past the end; it still counts
        assert find_smallest_root(f, degree) == (pytest.approx(0.75, abs=1e-12), False)

    @pytest.mark.parametrize(
        "f, degree, root, multiple",
        [
            (lambda q: (q - 0.2) ** 2, 2, 0.2, False),
            (lambda q: (q - 0.2) ** 2, 6, 0.2, False),
            (lambda q: (q - 0.1) ** 2 * (q - 0.5), 3, 0.1, True),
            (lambda q: q**2 * (q - 0.3), 3, 0.0, True),
        ],
    )
    def test_double_root(self, f, degree, root, multiple):
        # g touches zero without changing sign: no grid sees it, rounding may
        # split it into two close or complex roots, and it counts once
        assert find_smallest_root(f, degree) == (pytest.approx(root, abs=1e-7), multiple)

    def test_zero_polynomial(self):
        assert find_smallest_root(lambda q: 0.0, 3) == (0.0, True)

    def test_degree_above_the_polynomial(self):
        # an unneeded degree only adds interpolation points
        assert find_smallest_root(lambda q: 0.4 - q, 12) == (pytest.approx(0.4, abs=1e-14), False)

    def test_evaluations(self):
        calls = []
        find_smallest_root(lambda q: calls.append(q) or q - 0.3, 7)
        assert len(calls) == 8 and all(0.0 < q < 0.75 for q in calls)


class TestMonteCarlo:
    def test_k1_single_unbiased(self):
        # sample mean over 200 trials within 4 standard errors of the truth
        g, p, trials = 10_000, 0.1, 200
        x = generate_iid_sequence(g, (0.4, 0.2, 0.2, 0.2), rng_seed=21)
        f = float(np.count_nonzero(x.codes == 0))
        ch = SubstitutionChannel(p)
        ests = []
        for t in range(trials):
            y = mutate(x, ch, rng_seed=5000 + t)
            f_prime = float(np.count_nonzero(y.codes == 0))
            ests.append(estimate_k1_single(f, f_prime, g).p_raw)
        se = np.std(ests, ddof=1) / math.sqrt(trials)
        assert abs(np.mean(ests) - p) < 4 * se

    def test_estimator_id_values(self):
        assert {e.value for e in EstimatorId} == {
            "k1-single",
            "k1-gc",
            "general-k",
            "large-k-seq",
            "k1-reads",
            "large-k-reads",
        }
