import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from mutrate import kmers
from mutrate.errors import MismatchedK
from mutrate.kmers import (
    KmerTable,
    MAX_K,
    circular_row,
    count_kmers_reads,
    count_kmers_sequence,
    decode_kmer,
    distance_profile,
    encode_kmer,
    expected_kmer_count,
    lookup,
    packed_hamming,
    window_mass,
)
from mutrate.model import (
    CircularSequence,
    ReadSet,
    SubstitutionChannel,
    codes_to_string,
    generate_iid_sequence,
    mutate,
    sample_reads,
    string_to_codes,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=40)
kmer = st.text(alphabet="ACGT", min_size=1, max_size=8)


class TestEncoding:
    @given(kmer)
    def test_round_trip(self, w):
        assert decode_kmer(encode_kmer(w), len(w)) == w

    def test_order_is_lexicographic(self):
        # packed integers sort exactly like the strings
        kmers = ["AA", "AC", "CA", "GT", "TT", "AG"]
        packed = [encode_kmer(w) for w in kmers]
        assert [w for _, w in sorted(zip(packed, kmers))] == sorted(kmers)

    def test_k_limit(self):
        with pytest.raises(ValueError):
            encode_kmer("A" * (MAX_K + 1))

    @pytest.mark.parametrize("w, message", [("ACN", "'N' at position 3"), ("aÉt", "'É' at position 2")])
    def test_invalid_symbol_named_with_its_position(self, w, message):
        # encoding goes through model.string_to_codes, the one symbol table
        with pytest.raises(ValueError, match=f"non-ACGT symbol {message}"):
            encode_kmer(w)

    def test_decode_k32(self):
        assert decode_kmer(2**64 - 1, 32) == "T" * 32
        assert decode_kmer(encode_kmer("GATTACA" * 4 + "ACGT"), 32) == "GATTACA" * 4 + "ACGT"


class TestHamming:
    @given(st.lists(kmer.filter(lambda w: len(w) == 6), min_size=1, max_size=12))
    def test_packed_matches_string(self, words):
        packed = np.array([encode_kmer(w) for w in words], dtype=np.uint64)
        mat = packed_hamming(packed[:, None], packed[None, :])
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                assert mat[i, j] == oracles.hamming(a, b)


@st.composite
def profile_case(draw):
    # up to k=5 the sizes drawn reach either path of distance_profile; k 31
    # and 32 are past the spectral cap
    k = draw(st.sampled_from([1, 2, 3, 4, 5, 31, 32]))
    word = st.text(alphabet="ACGT", min_size=k, max_size=k)
    source = draw(st.dictionaries(word, st.integers(1, 10**6), max_size=30))
    return k, source, draw(st.lists(word, max_size=8)) * draw(st.sampled_from([1, 40]))


def oracle_profile(k, source, targets):
    want = [0] * (k + 1)
    for t, times in Counter(targets).items():
        for w, c in source.items():
            want[oracles.hamming(t, w)] += times * c
    return want


CAP_K = (kmers._SPECTRAL_MAX.bit_length() - 1) // 2


def random_profile_case(k, seed, all_subset):
    """A source of up to 200 keys with counts up to 10^9, and as targets
    either every source key (the ``all`` subset) or some source keys, some
    absent keys and a few of them listed twice."""
    rng = np.random.default_rng(seed)
    size = 4**k
    keys = np.unique(rng.integers(0, size, int(rng.integers(1, 201)))).astype(np.uint64)
    source = KmerTable(k, keys, rng.integers(1, 10**9, keys.size, endpoint=True))
    if all_subset:
        targets = source.keys
    else:
        absent = np.setdiff1d(rng.integers(0, size, 5).astype(np.uint64), keys)
        targets = np.concatenate([rng.choice(keys, 8), absent])
        targets = np.concatenate([targets, targets[: int(rng.integers(1, 5))]])
    assert size * targets.size * source.total < 2**63
    return targets, source


@pytest.fixture
def path_taken(monkeypatch):
    """Replace both profile paths by stubs that record which one ran."""
    taken = []
    for name in ("_profile_spectral", "_profile_pairwise"):
        monkeypatch.setattr(kmers, name, lambda t, s, k, name=name: taken.append(name))
    return taken


def taken_for(path_taken, k, n_targets, counts):
    source = KmerTable(k, np.arange(len(counts), dtype=np.uint64), counts)
    distance_profile(np.zeros(n_targets, dtype=np.uint64), source, k)
    return path_taken.pop()


class TestDistanceProfile:
    @given(profile_case())
    @example((5, {"ACGTA": 4, "TTTTT": 2}, []))
    @example((32, {"T" * 32: 3, "G" + "A" * 31: 2, "A" * 32: 1}, ["T" * 32, "G" * 32, "T" * 32]))
    @example((4, {w: 7 for w in ("AAAA", "ACGT", "TTTT", "GGCA", "CATG")}, ["ACGT", "CCCC", "ACGT"] * 80))
    def test_against_oracle(self, case):
        # targets need not be in the source and count once per listing
        k, source, targets = case
        packed = np.array([encode_kmer(t) for t in targets], dtype=np.uint64)
        got = distance_profile(packed, KmerTable.from_mapping(k, source), k)
        assert got.dtype == np.float64 and np.array_equal(got, oracle_profile(k, source, targets))

    @given(st.integers(1, CAP_K - 1), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60)
    def test_spectral_matches_pairwise(self, k, seed, all_subset):
        targets, source = random_profile_case(k, seed, all_subset and k <= 6)
        want = kmers._profile_pairwise(targets, source, k)
        assert np.array_equal(kmers._profile_spectral(targets, source, k), want)

    def test_spectral_matches_pairwise_at_the_cap(self):
        targets, source = random_profile_case(CAP_K, 12345, False)
        want = kmers._profile_pairwise(targets, source, CAP_K)
        tracemalloc.start()
        try:
            got = kmers._profile_spectral(targets, source, CAP_K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak <= 64 * 2**20

    def test_cap(self, path_taken):
        # the cost rule would pick the transform on either side of the cap
        big = np.ones(2000, dtype=np.int64)
        assert taken_for(path_taken, CAP_K, CAP_K * 4**CAP_K // 2000 + 1, big) == "_profile_spectral"
        assert taken_for(path_taken, CAP_K + 1, (CAP_K + 1) * 4 ** (CAP_K + 1) // 2000 + 1, big) == (
            "_profile_pairwise"
        )

    def test_cost(self, path_taken):
        # k 4^k = 5120 at k=5, against targets x distinct = 80 x 64 or 81 x 64
        ones = np.ones(64, dtype=np.int64)
        assert taken_for(path_taken, 5, 80, ones) == "_profile_pairwise"
        assert taken_for(path_taken, 5, 81, ones) == "_profile_spectral"
        assert taken_for(path_taken, 5, 0, ones) == "_profile_pairwise"

    def test_int64_bound(self, path_taken):
        # 4^k x targets x total must stay below 2^63; a huge count at k=2
        # with 8 targets reaches it at total (2^63 - 1) // 128
        edge = (2**63 - 1) // (16 * 8)
        assert taken_for(path_taken, 2, 8, np.array([edge - 4, 1, 1, 1, 1])) == "_profile_spectral"
        assert taken_for(path_taken, 2, 8, np.array([edge - 3, 1, 1, 1, 1])) == "_profile_pairwise"

    def test_spectral_exact_at_the_int64_bound(self):
        # the largest total the transform takes gives every M[d] exactly
        source = {"AC": (2**63 - 1) // 128 - 4, "AA": 1, "CA": 1, "GT": 1, "TT": 1}
        targets = ["AC", "AC", "AG", "CC", "GG", "TA", "TT", "CA"]
        packed = np.array([encode_kmer(t) for t in targets], dtype=np.uint64)
        got = kmers._profile_spectral(packed, KmerTable.from_mapping(2, source), 2)
        assert got.tolist() == [float(m) for m in oracle_profile(2, source, targets)]


@st.composite
def read_case(draw):
    k = draw(st.integers(1, MAX_K))
    L = draw(st.integers(k, k + 8))
    return k, draw(st.lists(st.text(alphabet="ACGT", min_size=L, max_size=L), min_size=1, max_size=6))


class TestCounting:
    def test_homopolymer(self):
        t = count_kmers_sequence(CircularSequence.from_string("AAAA"), 2)
        assert oracles.table_counts(t) == {"AA": 4}

    def test_wrap_included(self):
        t = count_kmers_sequence(CircularSequence.from_string("ACGT"), 2)
        assert oracles.table_counts(t) == {"AC": 1, "CG": 1, "GT": 1, "TA": 1}

    def test_period_two(self):
        t = count_kmers_sequence(CircularSequence.from_string("ACAC"), 3)
        assert oracles.table_counts(t) == {"ACA": 2, "CAC": 2}

    @given(dna, st.integers(1, MAX_K))
    @example("ACGTTGCA", 8)
    @example("TTGCA" * 7, 32)
    @example("GT" * 16, 32)
    def test_against_oracle(self, text, k):
        if k > len(text):
            return
        t = count_kmers_sequence(CircularSequence.from_string(text), k)
        assert oracles.table_counts(t) == oracles.circular_kmer_counts(text, k)
        assert t.total == len(text)

    def test_k_exceeding_length_rejected(self):
        with pytest.raises(ValueError):
            count_kmers_sequence(CircularSequence.from_string("ACG"), 4)

    def test_reads_are_linear(self):
        x = CircularSequence.from_string("ACGTACGTAC")
        rs = sample_reads(x, 4, 50, SubstitutionChannel(0.0), rng_seed=1)
        t = count_kmers_reads(rs, 2)
        assert t.provenance == "reads"
        assert t.total == 50 * 3
        expected: dict[str, int] = {}
        for row in rs.matrix:
            for w, c in oracles.linear_kmer_counts(codes_to_string(row), 2).items():
                expected[w] = expected.get(w, 0) + c
        assert oracles.table_counts(t) == expected

    @given(read_case())
    @example((12, ["ACGTTGCAAGTC", "TTTTGGGGCCCA"]))  # k = L: one window per read
    @example((31, ["ACGTTGCAAGTCCGATTACAGGTACCATGCAATG", "T" * 31 + "GCA"]))  # 31 = 11111b
    @example((32, ["GT" * 20, "TGGTTTGGGTTTTGTG" * 2 + "GTTGTTGG", "G" * 32 + "TTTTTTTT"]))  # keys >= 2^63
    @example((9, ["ACGTACGTTGCAGGCTTA"]))  # a single read
    def test_reads_against_oracle(self, case):
        k, rows = case
        rs = ReadSet(np.array([string_to_codes(r) for r in rows]), 100)
        t = count_kmers_reads(rs, k)
        expected: dict[str, int] = {}
        for r in rows:
            for w, c in oracles.linear_kmer_counts(r, k).items():
                expected[w] = expected.get(w, 0) + c
        assert t.provenance == "reads" and oracles.table_counts(t) == expected
        assert t.total == len(rows) * (len(rows[0]) - k + 1)

    def test_k_above_read_len_rejected(self):
        x = CircularSequence.from_string("ACGTACGT")
        rs = sample_reads(x, 3, 5, SubstitutionChannel(0.0), rng_seed=2)
        with pytest.raises(ValueError):
            count_kmers_reads(rs, 4)


def _rows(k, L, n, seed, lead=""):
    """n random reads of length L, each starting with ``lead``."""
    rng = np.random.default_rng(seed)
    return k, [lead + codes_to_string(rng.integers(0, 4, L - len(lead), dtype=np.uint8)) for _ in range(n)]


@st.composite
def windows_case(draw):
    """k, and 1-4 reads with up to 141 windows each: up to two pieces of 64."""
    k = draw(st.integers(1, MAX_K))
    L = draw(st.integers(k, k + 140))
    return k, draw(st.lists(st.text(alphabet="ACGT", min_size=L, max_size=L), min_size=1, max_size=4))


class TestPiecesAndThreads:
    """Counts do not depend on the piece size or on the number of threads."""

    @settings(deadline=None)
    @given(windows_case(), st.sampled_from([1, 3, 64]), st.sampled_from([1, 2, 3, 5]))
    @example(_rows(5, 67, 3, 1), 64, 2)  # W = 63, just under a piece
    @example(_rows(5, 68, 3, 2), 64, 2)  # W = 64, one piece per read
    @example(_rows(5, 69, 3, 3), 64, 3)  # W = 65, just over a piece
    @example(_rows(7, 100, 1, 4), 3, 2)  # one read, cut into columns
    @example(_rows(21, 300, 2, 5), 64, 3)  # reads longer than a piece
    @example(_rows(32, 160, 3, 6, lead="GT"), 64, 2)  # keys >= 2^63, column cuts
    @example(_rows(32, 32, 4, 7, lead="T"), 1, 3)  # k = L, keys >= 2^63
    @example(_rows(12, 40, 1, 8), 64, 2)  # a sequence shorter than a piece
    def test_against_oracle(self, case, piece, cpus):
        k, rows = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kmers, "_PIECE", piece)
            mp.setattr(kmers, "_cpus", lambda: cpus)
            reads = count_kmers_reads(ReadSet(np.array([string_to_codes(r) for r in rows]), 100), k)
            seq = count_kmers_sequence(CircularSequence.from_string(rows[0]), k)
        expected = Counter()
        for r in rows:
            expected.update(oracles.linear_kmer_counts(r, k))
        assert oracles.table_counts(reads) == dict(expected)
        assert oracles.table_counts(seq) == oracles.circular_kmer_counts(rows[0], k)

    def test_one_thread_runs_without_a_pool(self, monkeypatch):
        """One CPU, or fewer than two pieces of windows, starts no thread."""

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        x = CircularSequence.from_string("ACGTTGCAAG" * 10)
        monkeypatch.setattr(kmers, "_PIECE", 4)
        monkeypatch.setattr(kmers, "_cpus", lambda: 1)
        assert count_kmers_sequence(x, 5).total == 100
        monkeypatch.setattr(kmers, "_PIECE", 64)
        monkeypatch.setattr(kmers, "_cpus", lambda: 4)
        assert count_kmers_sequence(x, 5).total == 100

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        """Pieces packed on a helper thread raise; the count raises it once
        every helper is joined, and leaves none running."""
        failed = threading.Event()
        pack = kmers._pack_windows

        def pack_or_fail(block, k, out):
            if threading.current_thread() is threading.main_thread():
                assert failed.wait(timeout=10), "no piece reached a helper thread"
                return pack(block, k, out)
            failed.set()
            raise RuntimeError("worker failed")

        monkeypatch.setattr(kmers, "_pack_windows", pack_or_fail)
        monkeypatch.setattr(kmers, "_PIECE", 4)
        monkeypatch.setattr(kmers, "_cpus", lambda: 3)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker failed"):
            count_kmers_sequence(CircularSequence.from_string("ACGTTGCAAG" * 10), 5)
        assert threading.active_count() == before

    def test_peak_is_the_windows_buffer_and_its_tally(self):
        """A count holds its n windows (8 bytes each), one run-start flag per
        window and, for the d distinct keys, their keys and their run bounds,
        differenced in place into counts (8 bytes each), with one block of
        differences; packing adds at most two levels of one piece (12 bytes
        a window at most) on each thread."""
        x = generate_iid_sequence(20_000, (0.4, 0.2, 0.2, 0.2), rng_seed=9)
        rs = sample_reads(x, 1000, 1000, SubstitutionChannel(0.0), rng_seed=10)
        tracemalloc.start()
        try:
            t = count_kmers_reads(rs, 21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, d = t.total, t.distinct
        threads = min(kmers._cpus(), n // kmers._PIECE)
        assert peak <= 9 * n + 16 * (d + 1) + 8 * kmers._BLOCK + 12 * kmers._PIECE * threads

    @pytest.mark.parametrize("source", ["reads", "genome"])
    def test_tally_frees_the_windows_before_the_run_bounds(self, monkeypatch, source):
        """With many distinct keys (d/n about a third for reads with errors,
        nearly one for one read as long as a genome), the tally holds the
        windows, their run-start flags and the keys (9n + 8d), never the
        windows with both the keys and their run bounds (8n + 16d), nor the
        keys with both the bounds and the counts (24d); one thread packs, so
        one piece's levels come on top."""
        monkeypatch.setattr(kmers, "_cpus", lambda: 1)
        if source == "reads":
            x = generate_iid_sequence(20_000, (0.4, 0.2, 0.2, 0.2), rng_seed=9)
            rs = sample_reads(x, 1000, 1000, SubstitutionChannel(0.02), rng_seed=10)
        else:
            x = generate_iid_sequence(300_000, (0.4, 0.2, 0.2, 0.2), rng_seed=9)
            rs = ReadSet(x.codes[None, :], len(x))
        tracemalloc.start()
        try:
            t = count_kmers_reads(rs, 21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, d = t.total, t.distinct
        assert 8 * d > 2 * n  # where 8n + 16d is past 9n + 8d by a quarter n
        assert peak <= 9 * n + 8 * (d + 1) + 12 * kmers._PIECE


@st.composite
def mass_case(draw):
    """k, 1-4 reads as in ``windows_case``, and sorted unique wanted keys:
    none, keys of no window, keys of every window (of the reads and of the
    first read read as a circular sequence), or some of each."""
    k, rows = draw(windows_case())
    present = set(oracles.circular_kmer_counts(rows[0], k))
    for r in rows:
        present.update(oracles.linear_kmer_counts(r, k))
    present = {encode_kmer(w) for w in present}
    key = st.integers(0, 4**k - 1)
    if k == 32:  # keys past 2^63 compare as uint64 only
        key |= st.integers(2**63, 4**k - 1)
    absent = [v for v in draw(st.lists(key, max_size=20, unique=True)) if v not in present]
    shape = draw(st.sampled_from(["empty", "absent", "all", "some"]))
    wanted = {"empty": [], "absent": absent, "all": sorted(present)}.get(shape)
    if wanted is None:
        wanted = [v for v in sorted(present) if draw(st.booleans())] + absent
    return k, rows, np.unique(np.array(wanted, dtype=np.uint64))


def _wrap_only(text, k):
    """``text`` as its one read, and wanted keys that only its circular
    windows across the end have."""
    linear = oracles.linear_kmer_counts(text, k)
    wrap = [w for w in oracles.circular_kmer_counts(text, k) if w not in linear]
    return k, [text], np.unique(np.array([encode_kmer(w) for w in wrap], dtype=np.uint64))


def _every_window(k, rows):
    keys = {encode_kmer(r[i : i + k]) for r in rows for i in range(len(r) - k + 1)}
    return k, rows, np.array(sorted(keys), dtype=np.uint64)


@st.composite
def sorted_mass_case(draw):
    """k, sorted packed keys with runs of 1-5 repeats, and sorted unique
    wanted keys: none, keys of no entry, some or all of the entries' keys,
    or keys all below or all above them."""
    k = draw(st.integers(1, MAX_K))
    key = st.integers(0, 4**k - 1)
    if k == 32:  # keys past 2^63 compare as uint64 only
        key |= st.integers(2**63, 4**k - 1)
    distinct = sorted(draw(st.lists(key, min_size=1, max_size=30, unique=True)))
    repeats = draw(st.lists(st.integers(1, 5), min_size=len(distinct), max_size=len(distinct)))
    vals = np.repeat(np.array(distinct, dtype=np.uint64), repeats)
    others = [v for v in draw(st.lists(key, max_size=20, unique=True)) if v not in distinct]
    shape = draw(st.sampled_from(["empty", "disjoint", "some", "all", "below", "above"]))
    wanted = {
        "empty": [],
        "disjoint": others,
        "some": [v for v in distinct if draw(st.booleans())] + others,
        "all": distinct,
        "below": [v for v in others if v < distinct[0]],
        "above": [v for v in others if v > distinct[-1]],
    }[shape]
    return vals, np.unique(np.array(wanted, dtype=np.uint64))


class TestWindowMass:
    """y's mass on wanted keys, measured from its windows, equals its count's."""

    @settings(deadline=None)
    @given(
        mass_case(),
        st.sampled_from([1, 3, 64]),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([1, 5, kmers._CANDIDATES]),
        st.sampled_from([0, kmers._FILTER_RATIO, 2**62]),
        st.sampled_from([2, kmers._BLOCK]),
    )
    @example(_wrap_only("AAAAAAAC", 3), 64, 1, 5, 0, 2)  # only the circular windows match
    @example(_wrap_only("ACGTTGCAAGT", 7), 3, 2, 1, 2**62, 2)
    @example(_every_window(*_rows(32, 160, 3, 6, lead="GT")), 64, 2, 5, 0, 2)  # keys >= 2^63
    @example(_every_window(*_rows(32, 32, 4, 7, lead="T")), 1, 3, 1, 0, kmers._BLOCK)  # k = L, keys >= 2^63
    @example(_every_window(*_rows(21, 300, 2, 5)), 64, 3, 5, 0, kmers._BLOCK)  # reads longer than a piece
    @example(_every_window(*_rows(21, 300, 2, 5)), 64, 3, 2**18, 2**62, 2)  # the sort path, many join blocks
    @example(_every_window(*_rows(1, 50, 2, 8)), 3, 2, 1, 0, 2)  # k = 1
    def test_against_count_and_lookup(self, case, piece, cpus, candidates, ratio, block):
        """Any piece size, thread count and candidate buffer (1 and 5 flush
        it many times); the filter always (ratio 0), never (2^62), or by the
        size rule; joins of 2 windows a block or of many."""
        k, rows, wanted = case
        matrix = np.array([string_to_codes(r) for r in rows])
        seq = CircularSequence.from_string(rows[0])
        reads_table = count_kmers_reads(ReadSet(matrix, 100), k)
        seq_table = count_kmers_sequence(seq, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kmers, "_PIECE", piece)
            mp.setattr(kmers, "_cpus", lambda: cpus)
            mp.setattr(kmers, "_CANDIDATES", candidates)
            mp.setattr(kmers, "_FILTER_RATIO", ratio)
            mp.setattr(kmers, "_BLOCK", block)
            got_reads = window_mass(matrix, k, wanted)
            got_seq = window_mass(circular_row(seq, k), k, wanted)
        assert type(got_reads) is int and type(got_seq) is int
        assert got_reads == int(lookup(reads_table.keys, reads_table.counts, wanted).sum())
        assert got_seq == int(lookup(seq_table.keys, seq_table.counts, wanted).sum())

    def test_size_rule(self, monkeypatch):
        """The windows are sorted when they are fewer than _FILTER_RATIO a
        wanted key, and filtered (sorted with a ``keep``) from there up."""
        kept = []
        sort = kmers._sorted_windows

        def spy(m, k, keep=None, spill=None):
            kept.append(keep is not None)
            return sort(m, k, keep, spill)

        monkeypatch.setattr(kmers, "_sorted_windows", spy)
        matrix = np.zeros((2, 12), dtype=np.uint8)  # 2 x 10 windows at k = 3, all AAA
        most = 20 // kmers._FILTER_RATIO  # wanted keys the windows are filtered for
        for n_wanted, filtered in ((most, True), (most + 1, False)):
            wanted = np.arange(n_wanted, dtype=np.uint64)  # AAA is 0
            kept.clear()
            assert window_mass(matrix, 3, wanted) == 20
            assert kept == [filtered]

    def test_no_reads_no_windows(self):
        """As a read set of no reads counts to no k-mers, whatever L."""
        for L in (3, 10):
            assert window_mass(np.empty((0, L), dtype=np.uint8), 5, np.arange(3, dtype=np.uint64)) == 0
        with pytest.raises(ValueError, match="^k=5 exceeds read length 3$"):
            window_mass(np.zeros((1, 3), dtype=np.uint8), 5, np.arange(3, dtype=np.uint64))

    def test_threads_lose_no_candidate(self, monkeypatch):
        """Eight threads on tiny pieces, every window wanted, a buffer of 7
        and a switch interval of a microsecond: every window that passes the
        filter is added and tallied once, so the mass is the window count."""
        k, rows = _rows(9, 200, 40, 12)
        matrix = np.array([string_to_codes(r) for r in rows])
        wanted = count_kmers_reads(ReadSet(matrix, 100), k).keys
        expected = matrix.shape[0] * (matrix.shape[1] - k + 1)
        monkeypatch.setattr(kmers, "_PIECE", 16)
        monkeypatch.setattr(kmers, "_cpus", lambda: 8)
        monkeypatch.setattr(kmers, "_CANDIDATES", 7)
        monkeypatch.setattr(kmers, "_FILTER_RATIO", 0)  # filter, whatever the sizes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert window_mass(matrix, k, wanted) == expected
        finally:
            sys.setswitchinterval(interval)

    @settings(deadline=None)
    @given(
        windows_case(),
        st.booleans(),
        st.sampled_from([1, 5, 2**18]),
        st.sampled_from([1, 3, 64]),
        st.integers(1, 3),
    )
    @example(_rows(32, 160, 3, 6, lead="GT"), True, 5, 64, 2)  # keys >= 2^63, column cuts
    @example(_rows(32, 32, 4, 7, lead="T"), True, 1, 1, 3)  # k = L, keys >= 2^63
    @example(_rows(21, 300, 2, 5), True, 5, 64, 3)  # reads longer than a piece
    @example(_rows(21, 300, 2, 5), False, 5, 64, 3)  # no keep: every window, no spill
    def test_spill_contract(self, case, filtered, candidates, piece, cpus):
        """Every spill is sorted and ``_CANDIDATES`` long; the spills and the
        returned array together are the kept windows, as a multiset; with no
        ``keep``, nothing is spilled."""
        k, rows = case
        matrix = np.array([string_to_codes(r) for r in rows])
        windows = [encode_kmer(r[i : i + k]) for r in rows for i in range(len(r) - k + 1)]
        keep = (lambda v: v % 3 == 0) if filtered else None
        spills = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kmers, "_CANDIDATES", candidates)
            mp.setattr(kmers, "_PIECE", piece)
            mp.setattr(kmers, "_cpus", lambda: cpus)
            rest = kmers._sorted_windows(matrix, k, keep, lambda vals: spills.append(vals.copy()))
        assert filtered or not spills
        for vals in spills:
            assert vals.size == candidates and np.all(vals[:-1] <= vals[1:])
        assert np.all(rest[:-1] <= rest[1:])
        got = np.sort(np.concatenate(spills + [rest]))
        want = np.sort(np.array([v for v in windows if not filtered or v % 3 == 0], dtype=np.uint64))
        assert np.array_equal(got, want)

    def test_peak_is_bounded_by_the_keys_not_the_windows(self):
        """Measuring the reads holds the hash table (at most 16 bytes a
        wanted key), one lookup's output (8 more), the candidate buffer and
        its tally (at most 33 bytes a candidate), a lookup block and, on each
        thread, a piece and its hashes (at most 40 bytes a window): the same
        for 2.9 and 5.8 million windows, which a count would hold in 23 and
        47 MB."""
        x = generate_iid_sequence(100_000, (0.35, 0.25, 0.2, 0.2), rng_seed=11)
        wanted = count_kmers_sequence(x, 30).keys
        for num_reads in (3000, 6000):
            rs = sample_reads(x, 1000, num_reads, SubstitutionChannel(0.01), rng_seed=num_reads)
            n = rs.num_reads * (rs.read_len - 29)
            tracemalloc.start()
            try:
                mass = window_mass(rs.matrix, 30, wanted)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 0 < mass <= n
            bound = 24 * wanted.size + 33 * kmers._CANDIDATES + 48 * kmers._BLOCK + 40 * kmers._PIECE * kmers._threads(n)
            assert peak <= bound

    @settings(deadline=None)
    @given(sorted_mass_case(), st.sampled_from([1, 2, 3, 64]))
    @example(  # the top key of k = 32 in a run across a block end
        (np.repeat(np.array([3, 2**64 - 1], dtype=np.uint64), [3, 4]), np.array([2**64 - 1], dtype=np.uint64)), 2
    )
    @example((np.zeros(7, dtype=np.uint64), np.array([0, 5], dtype=np.uint64)), 3)  # one run across three blocks
    def test_sorted_mass_against_lookup(self, case, block):
        """The block join sums to what a lookup on the whole tally sums to,
        whatever the block, so also where runs straddle block ends."""
        vals, wanted = case
        keys, counts = np.unique(vals, return_counts=True)
        expected = int(lookup(keys, counts, wanted).sum())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kmers, "_BLOCK", block)
            got = kmers._sorted_mass(vals, wanted)
        assert type(got) is int and got == expected

    def test_sort_path_peak_is_the_windows_and_one_block(self):
        """At one window a wanted key (y mutated from x, x's keys wanted) the
        windows are sorted, not counted: the peak is the windows (8 bytes
        each), one block's tally and join (at most 128 bytes an entry) and,
        on each thread, one piece's packing levels (12 bytes a window),
        with nothing the size of the wanted keys."""
        x = generate_iid_sequence(1_000_000, (0.4, 0.2, 0.2, 0.2), rng_seed=12)
        wanted = count_kmers_sequence(x, 21).keys
        y = mutate(x, SubstitutionChannel(0.05), rng_seed=13)
        y_table = count_kmers_sequence(y, 21)
        row = circular_row(y, 21)
        n = row.shape[1] - 20
        assert n < kmers._FILTER_RATIO * wanted.size  # the sort path
        tracemalloc.start()
        try:
            mass = window_mass(row, 21, wanted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mass == int(lookup(y_table.keys, y_table.counts, wanted).sum())
        assert peak <= 8 * n + 128 * kmers._BLOCK + 12 * kmers._PIECE * kmers._threads(n)


class TestTable:
    def test_from_mapping_and_lookup(self):
        t = KmerTable.from_mapping(2, {"AC": 3, "TT": 1})
        counts = oracles.table_counts(t)
        assert counts["AC"] == 3 and "GG" not in counts
        assert t.distinct == 2 and t.total == 4

    def test_zero_counts_dropped_negative_rejected(self):
        t = KmerTable.from_mapping(2, {"AC": 0, "GT": 2})
        assert oracles.table_counts(t) == {"GT": 2}
        with pytest.raises(ValueError):
            KmerTable.from_mapping(2, {"AC": -1})

    def test_total_is_exact_and_within_int64(self):
        big = [2**62, 2**61, 5]  # max * size is past int64, the sum is not
        assert KmerTable(2, np.arange(3, dtype=np.uint64), np.array(big)).total == sum(big)
        top = np.full(2, 2**63 - 1, dtype=np.int64)  # one int64 sum wraps to -2
        with pytest.raises(ValueError, match=f"counts sum to {2**64 - 2}, past int64"):
            KmerTable(2, np.arange(2, dtype=np.uint64), top)

    def test_source_len(self):
        x = CircularSequence.from_string("ACGTTGCA")
        assert count_kmers_sequence(x, 3).source_len == 8
        assert count_kmers_reads(sample_reads(x, 4, 3, SubstitutionChannel(0.0), rng_seed=1), 2).source_len == 8
        assert KmerTable.from_mapping(2, {"AC": 3}, provenance="reads").source_len is None
        assert KmerTable(2, [1], [3], "sequence", 3).source_len == 3
        with pytest.raises(ValueError, match="a sequence table's G is its total 3, got G=4"):
            KmerTable(2, [1], [3], "sequence", 4)
        with pytest.raises(ValueError, match="a read table's G must be >= 1, got 0"):
            KmerTable(2, [1], [3], "reads", 0)

    def test_rejects_wrong_length(self):
        with pytest.raises(MismatchedK):
            KmerTable.from_mapping(2, {"ACG": 1})

    def test_items_sorted(self):
        t = KmerTable.from_mapping(2, {"TT": 1, "AC": 2, "GA": 5})
        assert [w for w, _ in t.items()] == ["AC", "GA", "TT"]

    def test_k32_keys_past_int64_are_sorted(self):
        # G- and T-led 32-mers pack to 2^63 and above; read as int64 this
        # order would already look ascending
        t = KmerTable.from_mapping(32, {"G" * 32: 1, "T" * 32: 3, "A" * 32: 2, "C" * 32: 4})
        assert [w[0] for w, _ in t.items()] == ["A", "C", "G", "T"]
        assert [oracles.table_counts(t)[b * 32] for b in "ACGT"] == [2, 4, 1, 3]
        with pytest.raises(ValueError, match="duplicate"):
            KmerTable(32, np.array([2**64 - 1, 0, 2**64 - 1], dtype=np.uint64), [1, 1, 1])


@st.composite
def join_cases(draw):
    """Sorted unique ``keys`` and ``wanted`` drawn from one pool of packed
    k-mers, values of either dtype, and a merge block small enough that a
    few dozen keys cross several block edges."""
    k = draw(st.sampled_from([3, 32]))
    key = st.integers(0, 4**k - 1)
    if k == 32:  # crowd the top too: keys past 2^63 compare as uint64 only
        key |= st.integers(4**k - 40, 4**k - 1)
    pool = draw(st.lists(key, max_size=60, unique=True))
    shape = draw(st.sampled_from(["overlap", "identical", "disjoint"]))
    in_keys = [draw(st.booleans()) for _ in pool]
    keys = [v for v, take in zip(pool, in_keys) if take]
    if shape == "identical":
        wanted = keys
    else:
        wanted = [v for v, take in zip(pool, in_keys) if draw(st.booleans()) and (shape == "overlap" or not take)]
    if draw(st.booleans()):
        values = [draw(st.floats(0.0, 1e6)) for _ in keys]
    else:
        values = [draw(st.integers(1, 2**62)) for _ in keys]
    block = draw(st.sampled_from([1, 2, 5, kmers._BLOCK]))
    return sorted(keys), values, sorted(wanted), block


def _as_arrays(keys, values, wanted):
    # float values as in _mass_on's Mapping path, int64 as a table's counts
    dtype = np.float64 if values and isinstance(values[0], float) else np.int64
    return np.array(keys, dtype=np.uint64), np.array(values, dtype=dtype), np.array(wanted, dtype=np.uint64)


class TestLookup:
    @settings(max_examples=200, deadline=None)
    @given(join_cases())
    @example(([], [], [1, 2], 2))  # empty keys
    @example(([1, 2], [3, 4], [], 2))  # empty wanted
    @example(([1, 5, 9, 2**64 - 1], [1.5, 0.0, 2.5, 3.5], [1, 5, 9, 2**64 - 1], 1))  # identical, k = 32
    @example(([2, 4, 6, 8], [1, 2, 3, 4], [1, 3, 5, 7, 9], 2))  # disjoint, interleaved
    def test_against_dict_oracle(self, case):
        """The join returns the value stored at each wanted key, 0 where it
        is absent, in the values' dtype, element by element."""
        keys, values, wanted = _as_arrays(*case[:3])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kmers, "_BLOCK", case[3])
            got = kmers.lookup(keys, values, wanted)
        stored = dict(zip(keys.tolist(), values.tolist()))
        want = np.array([stored.get(w, 0) for w in wanted.tolist()], dtype=values.dtype)
        assert got.dtype == values.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_wanted", [99, 100, 101])
    def test_fewer_wanted_than_keys(self, n_wanted):
        """400 keys and 99 to 101 wanted, merged in blocks of 8 keys a side,
        most of which hold keys alone; every second wanted key is present."""
        keys = np.arange(0, 800, 2, dtype=np.uint64)
        values = np.arange(1, 401, dtype=np.int64)
        wanted = np.array([4 * i + i % 2 for i in range(n_wanted)], dtype=np.uint64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kmers, "_BLOCK", 8)
            got = kmers.lookup(keys, values, wanted)
        assert got.tolist() == [0 if i % 2 else 2 * i + 1 for i in range(n_wanted)]

    @pytest.mark.parametrize("layout", ["spread", "front", "few"])
    def test_memory_bounded_by_the_block(self, layout):
        """Joining four times the keys takes no more memory beyond the
        output: the merge holds one block of either side at a time, also
        where the wanted keys leave most of the keys past their last one,
        and where one key in a thousand is wanted."""

        def extra_bytes(n):
            rng = np.random.default_rng(n)
            keys = np.unique(rng.integers(0, 4**21, size=n, dtype=np.uint64))
            if layout == "spread":  # half of x's keys survive on y, as at a high rate
                wanted = np.union1d(keys[::2], rng.integers(0, 4**21, size=n // 2, dtype=np.uint64))
            elif layout == "front":
                wanted = keys[: keys.size // 3]
            else:
                wanted = keys[::1000]
            values = rng.integers(1, 100, size=keys.size)
            tracemalloc.start()
            try:
                out = kmers.lookup(keys, values, wanted)
                return tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()

        n = 4 * kmers._BLOCK  # several blocks at least
        small, big = extra_bytes(n), extra_bytes(4 * n)
        assert big < 1.25 * small


class TestExpectedCount:
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.3])
    def test_matches_closed_form_oracle(self, rate):
        x = CircularSequence.from_string("ACGGTTACGGA")
        t = count_kmers_sequence(x, 3)
        for q in ("ACG", "TTT", "GGA"):
            got = expected_kmer_count(q, t, rate)
            want = oracles.closed_form_expected_count(x.to_string(), q, rate)
            assert got == pytest.approx(want, abs=1e-12)

    def test_rate_zero_returns_source_count(self):
        t = count_kmers_sequence(CircularSequence.from_string("ACGTAACG"), 2)
        counts = oracles.table_counts(t)
        for w in ("AC", "GT", "TT"):
            assert expected_kmer_count(w, t, 0.0) == pytest.approx(counts.get(w, 0))

    @given(dna.filter(lambda s: len(s) >= 3), st.floats(0.0, 0.75))
    @settings(max_examples=30)
    def test_mass_conservation(self, text, rate):
        # expectations over all 4^k queries must sum to G
        t = count_kmers_sequence(CircularSequence.from_string(text), 2)
        total = sum(
            expected_kmer_count(a + b, t, rate) for a in "ACGT" for b in "ACGT"
        )
        assert total == pytest.approx(len(text), rel=1e-9)

    def test_scale_applies(self):
        t = count_kmers_sequence(CircularSequence.from_string("ACGT"), 1)
        assert expected_kmer_count("A", t, 0.0, scale=2.5) == pytest.approx(2.5)

    def test_read_table_rejected(self):
        x = CircularSequence.from_string("ACGTACGT")
        rs = sample_reads(x, 4, 5, SubstitutionChannel(0.0), rng_seed=1)
        t = count_kmers_reads(rs, 2)
        with pytest.raises(ValueError):
            expected_kmer_count("AC", t, 0.1)

    def test_mismatched_query_length(self):
        t = count_kmers_sequence(CircularSequence.from_string("ACGT"), 2)
        with pytest.raises(MismatchedK):
            expected_kmer_count("ACG", t, 0.1)
