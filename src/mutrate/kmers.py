"""k-mer counting and spectra for circular sequences and read sets.

k-mers are packed two bits per symbol (A=00, C=01, G=10, T=11, leftmost
symbol in the highest bits) into uint64, exact for k up to 32; table keys
are sorted uint64 arrays. One loop, :func:`_sorted_windows`, packs the
windows in cache-sized pieces on one thread per CPU, filters them when
asked, gathers them in one buffer and sorts it by key ranges on the same
threads. A count tallies the runs of equal keys of every window; nothing
materializes all 4^k strings.

The mutated side y is never counted: :func:`window_mass` measures its mass
on a set of wanted keys through the same loop. Where the windows outnumber
the wanted keys, a hashed filter drops most of them and a 2 MiB buffer of
candidates is sorted and joined as it fills, so memory is O(wanted keys +
2 MiB + one piece per thread), not 8 bytes a window. Where they do not,
y's windows are sorted as for a count and joined with the wanted keys
block by block: 8 bytes a window plus one block.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from math import comb
from typing import Iterator, Mapping

import numpy as np

from .errors import MismatchedK
from .model import CircularSequence, ReadSet, codes_to_string, string_to_codes

MAX_K = 32
_INT64_MAX = 2**63 - 1


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in 1..{MAX_K}, got {k}")


def _shifts(k: int) -> np.ndarray:
    """Bit offset of each of the k symbols, leftmost highest."""
    return np.arange(2 * (k - 1), -1, -2, dtype=np.uint64)


def encode_kmer(kmer: str) -> int:
    """Pack a k-mer string into its 2-bit integer code."""
    _check_k(len(kmer))
    return int(np.bitwise_or.reduce(string_to_codes(kmer).astype(np.uint64) << _shifts(len(kmer))))


def decode_kmer(value: int, k: int) -> str:
    """Inverse of :func:`encode_kmer` for a given k."""
    _check_k(k)
    if not 0 <= value < 4**k:
        raise ValueError(f"packed value {value} out of range for k={k}")
    return codes_to_string((np.uint64(value) >> _shifts(k)) & np.uint64(3))


_ODD_MASK = np.uint64(0x5555555555555555)

try:  # numpy >= 2.0
    _popcount = np.bitwise_count
except AttributeError:  # pragma: no cover - fallback for older numpy
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount(v: np.ndarray) -> np.ndarray:
        return _POP8[v.view(np.uint8)].reshape(*v.shape, 8).sum(axis=-1, dtype=np.uint8)


def packed_hamming(a, b) -> np.ndarray:
    """Hamming distance between 2-bit packed k-mers, vectorized.

    Works elementwise with broadcasting, so one side can be a column vector
    to get an all-pairs distance matrix.
    """
    z = np.bitwise_xor(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))
    mism = (z | (z >> np.uint64(1))) & _ODD_MASK
    return _popcount(mism).astype(np.int64)


# most keys of either side one merge block holds, 256 KB of uint64 each
_BLOCK = 1 << 15


def lookup(keys: np.ndarray, values: np.ndarray, wanted) -> np.ndarray:
    """``values`` at the ``wanted`` packed keys; zero where a key is absent.

    ``keys`` and ``wanted`` are both sorted ascending and unique, and
    ``values`` is aligned with ``keys``. Cuts at every ``_BLOCK``-th key of
    either side split both into blocks of at most ``_BLOCK`` keys a side; a
    block's two runs are merged by one stable argsort, and equal neighbours
    are the matches. Memory beyond the output is bounded by the block.
    """
    wanted = np.asarray(wanted, dtype=np.uint64)
    out = np.zeros(wanted.shape, dtype=values.dtype)
    cuts = np.union1d(wanted[::_BLOCK], keys[::_BLOCK])
    w_edges = np.append(np.searchsorted(wanted, cuts), wanted.size)
    k_edges = np.append(np.searchsorted(keys, cuts), keys.size)
    for w0, w1, k0, k1 in zip(w_edges[:-1], w_edges[1:], k_edges[:-1], k_edges[1:]):
        if w0 == w1 or k0 == k1:
            continue
        both = np.concatenate([wanted[w0:w1], keys[k0:k1]])
        order = np.argsort(both, kind="stable")  # a timsort merge of the two runs
        merged = both[order]
        # a match is a wanted key followed by its equal from keys
        at = np.flatnonzero(merged[1:] == merged[:-1])
        out[w0 + order[at]] = values[k0 - (w1 - w0) + order[at + 1]]
    return out


# most windows one packing piece holds: a piece's level temporaries stay in cache
_PIECE = 1 << 16


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pack_windows(block: np.ndarray, k: int, out: np.ndarray) -> None:
    """Pack the linear windows of every row of ``block`` into ``out``, of shape
    (rows, cols - k + 1). Windows of 2m symbols are those of m shifted 2m bits OR
    those m columns on, in the narrowest dtype that fits; the levels at the binary
    digits of k join lowest digit first."""
    level, m = block, 1
    while True:
        if k & m:
            digit = level[:, k & (m - 1) :][:, : out.shape[1]]
            if k & (m - 1):  # the lower digits already fill the first k & (m - 1) symbols
                out <<= np.uint64(2 * m)
                out |= digit
            else:
                out[...] = digit
        if 2 * m > k:
            return
        dt = np.min_scalar_type(4 ** (2 * m) - 1)  # NumPy 1 promotes uint64 op int64 to float64
        nxt = np.left_shift(level[:, :-m], dt.type(2 * m), dtype=dt)
        level, m = np.bitwise_or(nxt, level[:, m:], out=nxt), 2 * m


def _on_threads(T: int, task, spans) -> None:
    """``task(*span)`` for every span, on this thread and T - 1 started for
    the call; a thread takes the next span whenever it is free, so a thread
    that starts late or runs slowly takes fewer. Once every helper is
    joined, raises what a task raised."""
    todo, taking, raised = iter(spans), threading.Lock(), []

    def drain() -> None:
        try:
            while True:
                with taking:
                    span = next(todo, None)
                if span is None:
                    return
                task(*span)
        except BaseException as exc:
            raised.append(exc)

    helpers = [threading.Thread(target=drain) for _ in range(T - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    if raised:
        raise raised[0]


def _cut(vals: np.ndarray, edges: list[int]) -> None:
    """Partition ``vals`` in place at the inner ``edges``: each then holds the
    key a sort would put there, with no larger key before it and no smaller
    one after. One single-cut ``partition`` per edge, bisecting the edges;
    NumPy's partition at several cuts at once is an order slower."""
    if len(edges) > 2:
        mid = len(edges) // 2
        vals[edges[0] : edges[-1]].partition(edges[mid] - edges[0])
        _cut(vals, edges[: mid + 1])
        _cut(vals, edges[mid:])


def _threads(n: int) -> int:
    """Threads for a pass over ``n`` windows: the CPUs this process may run
    on, at most one per ``_PIECE`` windows, and at least one."""
    return max(1, min(_cpus(), n // _PIECE))


def _run_starts(vals: np.ndarray) -> np.ndarray:
    """Where a run of equal keys of the sorted ``vals`` starts: a key that
    differs from the one before it; one flag more, set, ends the last run."""
    n = vals.size
    starts = np.empty(n + 1, dtype=bool)
    starts[0] = starts[n] = True
    np.not_equal(vals[1:], vals[:-1], out=starts[1:n])
    return starts


def _sorted_windows(matrix: np.ndarray, k: int, keep=None, spill=None) -> np.ndarray:
    """The packed keys of the L - k + 1 linear windows of every row of the
    (N, L) ``matrix``, or of those the bool mask ``keep(keys)`` keeps,
    sorted ascending: the one loop that packs windows.

    Windows are packed a piece of at most ``_PIECE`` at a time (a block of
    whole rows, or a run of one row's columns overlapping the next by k - 1
    symbols): with no ``keep`` straight into one buffer of every window,
    else into a scratch array whose kept windows are appended to a buffer
    of ``_CANDIDATES``; when that is full and more must go in, it is sorted,
    handed to ``spill`` and emptied. What the buffer holds at the end is cut
    into T key ranges, every key of a range no larger than any key of the
    next, and each range is sorted. T is :func:`_threads`; with T > 1 the
    pieces are packed and the ranges sorted on this thread and T - 1 others
    (NumPy's loops and sorts release the GIL). The result does not depend
    on T.
    """
    N, L = matrix.shape
    if k > L:
        raise ValueError(f"k={k} exceeds read length {L}")
    W = L - k + 1
    n = N * W
    cols = min(W, _PIECE)
    rows = _PIECE // cols
    if keep is None:  # every window stays, so a piece is packed into its place
        buffer, filled = np.empty((N, W), dtype=np.uint64), n
    else:
        buffer, filled = np.empty(min(n, _CANDIDATES), dtype=np.uint64), 0
    adding = threading.Lock()

    def pack(r: int, c: int) -> None:
        nonlocal filled
        block = matrix[r : r + rows, c : c + cols + k - 1]
        shape = (block.shape[0], block.shape[1] - k + 1)
        win = buffer[r : r + rows, c : c + cols] if keep is None else np.empty(shape, dtype=np.uint64)
        _pack_windows(block, k, win)
        if keep is None:
            return
        win = win.reshape(-1)
        win = win[keep(win)]
        with adding:
            while win.size:
                if filled == buffer.size:
                    buffer.sort()
                    spill(buffer)
                    filled = 0
                take = min(win.size, buffer.size - filled)
                buffer[filled : filled + take] = win[:take]
                filled, win = filled + take, win[take:]

    _on_threads(_threads(n), pack, [(r, c) for r in range(0, N, rows) for c in range(0, W, cols)])
    out = buffer.reshape(-1)[:filled]
    T = _threads(filled)
    edges = [filled * i // T for i in range(T + 1)]
    _cut(out, edges)
    _on_threads(T, lambda first, last: out[first:last].sort(), zip(edges, edges[1:]))
    return out


def _count_windows(matrix: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct packed keys, ascending, and their counts over the windows
    :func:`_sorted_windows` sorts: the tally of their runs of equal keys.
    The windows are freed before the run bounds are made, and the bounds
    are differenced in place, ``_BLOCK`` at a time, so that the tally holds
    16 bytes a distinct key at most."""
    out = _sorted_windows(matrix, k)
    starts = _run_starts(out)
    keys = out[starts[:-1]]
    del out
    bounds = np.flatnonzero(starts)
    del starts
    for first in range(0, keys.size, _BLOCK):
        last = min(first + _BLOCK, keys.size)
        bounds[first:last] = np.diff(bounds[first : last + 1])
    return keys, bounds[:-1]


def _sorted_mass(vals: np.ndarray, wanted: np.ndarray) -> int:
    """How many entries of the sorted uint64 ``vals``, repeats allowed, have
    a key in ``wanted`` (sorted ascending, unique).

    ``vals`` is walked ``_BLOCK`` entries at a time. A block's runs of equal
    keys are tallied, and its distinct keys looked up (:func:`lookup`) among
    the wanted keys between its first and last, so the join's output is the
    block's size. The mass is a sum over entries, so a run that a block end
    cuts is counted in its parts. Memory is one block's tally and join,
    however many keys ``wanted`` holds.
    """
    mass = 0
    for first in range(0, vals.size, _BLOCK):
        block = vals[first : first + _BLOCK]
        lo, hi = np.searchsorted(wanted, block[0]), np.searchsorted(wanted, block[-1], side="right")
        starts = _run_starts(block)
        # 1 at each of the block's keys that is wanted: the join is the block's size
        hits = lookup(wanted[lo:hi], np.broadcast_to(np.int64(1), hi - lo), block[starts[:-1]])
        mass += int(np.diff(np.flatnonzero(starts)) @ hits)
    return mass


# windows are filtered, not sorted, from this many windows a wanted key up:
# on 1e6 windows at k = 21 and 2 CPUs the two break even between 1.25 and
# 1.5, as filtering takes 34 ms against 44 for the sort at 2 windows a key,
# 42 against 47 at 1.5 and 59 against 43 at 1 (medians of 15 calls)
_FILTER_RATIO = 2
# hash table slots a wanted key, at least: at most 1 in 8 unwanted windows passes
_SLOTS_PER_KEY = 8
# most windows that pass the filter held between two tallies, 2 MiB of uint64
_CANDIDATES = 1 << 18
# odd multiplier of the multiply-shift hash, 2^64 over the golden ratio
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _slots(keys: np.ndarray, shift: np.uint64) -> np.ndarray:
    """Multiply-shift hash of each key: the top 64 - ``shift`` bits of
    key x ``_MIX`` mod 2^64, as int64 indices."""
    h = keys * _MIX
    h >>= shift
    return h.view(np.int64)


def window_mass(matrix: np.ndarray, k: int, wanted: np.ndarray) -> int:
    """How many of the L - k + 1 linear windows of every row of the (N, L)
    ``matrix`` have a packed key in ``wanted`` (sorted ascending, unique).

    The count is exact; the sizes pick one of two paths:

    * sort: with fewer than ``_FILTER_RATIO`` windows a wanted key, the
      windows are sorted (:func:`_sorted_windows`) and joined with the
      wanted keys block by block (:func:`_sorted_mass`). Memory is the
      windows, 8 bytes each, and one block;
    * filter: otherwise. A table of at least ``_SLOTS_PER_KEY`` slots a
      wanted key marks the slots their multiply-shift hashes fall in;
      :func:`_sorted_windows` keeps the windows whose slot is marked, and
      each sorted buffer of ``_CANDIDATES`` it spills, and what it returns,
      is joined as on the sort path. Memory is the table, the buffer and
      one piece per thread, however many windows there are.

    A matrix of no rows has no windows, whatever its width, as a read set
    of no reads has none (:func:`count_kmers_reads`).
    """
    _check_k(k)
    N, L = matrix.shape
    if N and k > L:
        raise ValueError(f"k={k} exceeds read length {L}")
    n = N * (L - k + 1)
    if n == 0 or wanted.size == 0:
        return 0
    if n < _FILTER_RATIO * wanted.size:
        return _sorted_mass(_sorted_windows(matrix, k), wanted)
    bits = (_SLOTS_PER_KEY * wanted.size - 1).bit_length()
    shift = np.uint64(64 - bits)
    table = np.zeros(1 << bits, dtype=bool)
    table[_slots(wanted, shift)] = True
    mass = 0

    def spill(vals: np.ndarray) -> None:
        nonlocal mass
        mass += _sorted_mass(vals, wanted)

    rest = _sorted_windows(matrix, k, lambda win: table[_slots(win, shift)], spill)
    return mass + _sorted_mass(rest, wanted)


@dataclass(frozen=True, eq=False)
class KmerTable:
    """Multiset of k-mers: packed keys with positive integer counts.

    ``provenance`` records whether counts came from a full sequence or from
    reads; it only gates which estimators accept the table and how files are
    labeled. ``source_len`` is G, the length of the sequence behind the
    counts: a sequence table's total, a read table's from its reads, or None
    when a read table does not record it.
    """

    k: int
    keys: np.ndarray
    counts: np.ndarray
    provenance: str = "sequence"
    source_len: int | None = None

    def __post_init__(self):
        _check_k(self.k)
        keys = np.ascontiguousarray(self.keys, dtype=np.uint64)
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if keys.ndim != 1 or counts.shape != keys.shape:
            raise ValueError("keys and counts must be 1-D arrays of equal length")
        if np.any(counts <= 0):
            raise ValueError("counts must be positive (absent k-mers are implicit zeros)")
        if counts.size and int(counts.max()) > _INT64_MAX // counts.size:
            # one int64 sum could wrap; sums of the 32-bit halves cannot
            total = (int((counts >> 32).sum()) << 32) + int((counts & 0xFFFFFFFF).sum())
            if total > _INT64_MAX:
                raise ValueError(f"counts sum to {total}, past int64")
        if keys.size:
            # compared as uint64: keys of k=32 reach past 2^63
            if np.any(keys[1:] <= keys[:-1]):
                order = np.argsort(keys)
                keys = keys[order]
                counts = counts[order]
                if np.any(keys[1:] == keys[:-1]):
                    raise ValueError("duplicate keys in table")
            if self.k < 32 and int(keys[-1]) >= 4**self.k:
                raise ValueError(f"key {int(keys[-1])} out of range for k={self.k}")
        if self.provenance not in ("sequence", "reads"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "counts", counts)
        if self.provenance == "sequence":
            total = self.total
            if self.source_len not in (None, total):
                raise ValueError(f"a sequence table's G is its total {total}, got G={self.source_len}")
            object.__setattr__(self, "source_len", total)
        elif self.source_len is not None and self.source_len < 1:
            raise ValueError(f"a read table's G must be >= 1, got {self.source_len}")

    @classmethod
    def from_mapping(cls, k: int, mapping: Mapping[str, int], provenance: str = "sequence") -> "KmerTable":
        keys = []
        counts = []
        for kmer, c in mapping.items():
            if len(kmer) != k:
                raise MismatchedK(f"k-mer {kmer!r} has length {len(kmer)}, table k={k}")
            if c == 0:
                continue
            keys.append(encode_kmer(kmer))
            counts.append(int(c))
        if keys:
            keys_arr = np.array(keys, dtype=np.uint64)
            counts_arr = np.array(counts, dtype=np.int64)
        else:
            keys_arr = np.empty(0, dtype=np.uint64)
            counts_arr = np.empty(0, dtype=np.int64)
        return cls(k, keys_arr, counts_arr, provenance)

    @property
    def total(self) -> int:
        """Sum of all counts; exact, as a table's counts sum to at most 2^63 - 1."""
        return int(self.counts.sum())

    @property
    def distinct(self) -> int:
        return int(self.keys.size)

    def items(self) -> Iterator[tuple[str, int]]:
        """(k-mer string, count) pairs in packed-key order."""
        for key, c in zip(self.keys.tolist(), self.counts.tolist()):
            yield decode_kmer(key, self.k), int(c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KmerTable):
            return NotImplemented
        return (
            self.k == other.k
            and self.provenance == other.provenance
            and self.source_len == other.source_len
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.counts, other.counts)
        )

    __hash__ = None


def count_kmers_sequence(x: CircularSequence, k: int) -> KmerTable:
    """Counts over all ``len(x)`` circular windows of ``x``; totals to len(x)."""
    keys, counts = _count_windows(circular_row(x, k), k)
    return KmerTable(k, keys, counts, provenance="sequence")


def circular_row(x: CircularSequence, k: int) -> np.ndarray:
    """``x`` extended by its first k - 1 symbols, as a one-row matrix: the
    row's linear windows are ``x``'s ``len(x)`` circular ones."""
    _check_k(k)
    if k > len(x):
        raise ValueError(f"k={k} exceeds sequence length {len(x)}")
    return np.concatenate([x.codes, x.codes[: k - 1]])[None, :]


def count_kmers_reads(reads: ReadSet, k: int) -> KmerTable:
    """Counts pooled over the linear windows of every read.

    Each read of length L contributes L - k + 1 windows; reads do not wrap.
    Total is N * (L - k + 1), and ``source_len`` is the reads' G.
    """
    _check_k(k)
    if reads.num_reads == 0:
        keys, counts = np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    else:
        keys, counts = _count_windows(reads.matrix, k)
    return KmerTable(k, keys, counts, "reads", reads.source_len)


def expected_kmer_count(
    query: str,
    source: KmerTable,
    subst_rate: float,
    scale: float = 1.0,
) -> float:
    """Expected count of ``query`` after the whole source spectrum passes
    through a substitution channel.

    Every source occurrence of a word w at Hamming distance d from the query
    turns into the query with probability (1-rate)^(k-d) * (rate/3)^d. With
    ``scale=1`` this is the expectation for a mutated copy of the sequence
    itself; for reads, pass scale = N*(L-k+1)/G to convert sequence counts
    into expected window counts.
    """
    k = source.k
    if source.provenance != "sequence":
        raise ValueError("expectations are defined over a full-sequence table")
    if len(query) != k:
        raise MismatchedK(f"query length {len(query)} vs table k={k}")
    if not 0.0 <= subst_rate < 1.0:
        raise ValueError(f"substitution rate must be in [0, 1), got {subst_rate}")
    keep = 1.0 - subst_rate
    flip = subst_rate / 3.0
    # per-distance transition probabilities, exact at rate 0
    probs = np.array([keep ** (k - d) * flip**d for d in range(k + 1)])
    return scale * float(distance_profile([encode_kmer(query)], source, k) @ probs)


# largest 4^k the spectral profile transforms: its memory is two int64 vectors
# of 4^k, a 16 MiB tracemalloc peak at 4^10 and 64 MiB at 4^11
_SPECTRAL_MAX = 4**10


def distance_profile(target_keys: np.ndarray, source: KmerTable, k: int) -> np.ndarray:
    """M[d] = sum over the target keys of the source counts at Hamming
    distance d from that key; a target listed twice counts twice.

    Collapses an all-pairs distance computation into k+1 coefficients, so a
    moment function of the rate can be evaluated in O(k) afterwards. Two
    exact paths give the same M; the inputs pick one:

    * pairwise: one ``bincount`` of distances per target, time
      (number of targets) x (distinct source keys), memory O(distinct);
    * spectral: one Walsh-Hadamard transform each of the targets and of
      the counts over all 4^k keys, time O(k 4^k) whatever the sizes,
      memory O(4^k). It runs when 4^k <= 4^10 (``_SPECTRAL_MAX``), k 4^k
      is below targets x distinct, and 4^k x targets x total < 2^63, so
      that no int64 sum of the transform can wrap.

    Every M[d] is a sum of whole-number counts, which float64 holds exactly
    below 2^53, so M does not depend on the path or the order of summation.
    """
    n, size = len(target_keys), 4**k
    if size <= _SPECTRAL_MAX and k * size < n * source.distinct and size * n * source.total <= _INT64_MAX:
        return _profile_spectral(target_keys, source, k)
    return _profile_pairwise(target_keys, source, k)


def _profile_pairwise(target_keys: np.ndarray, source: KmerTable, k: int) -> np.ndarray:
    M = np.zeros(k + 1, dtype=np.float64)
    weights = source.counts.astype(np.float64)
    for t in np.asarray(target_keys, dtype=np.uint64):
        M += np.bincount(packed_hamming(source.keys, t), weights=weights, minlength=k + 1)
    return M


def _walsh_hadamard(v: np.ndarray) -> None:
    """In-place Walsh-Hadamard transform of a vector of 2^b entries: one
    butterfly (lo, hi) -> (lo + hi, lo - hi) per bit, with no temporaries."""
    half = v.size // 2
    while half:
        lo, hi = v.reshape(-1, 2, half).transpose(1, 0, 2)
        lo += hi
        hi *= -2  # lo - hi = (lo + hi) - 2 hi; needs 2 sum|v| < 2^63
        hi += lo
        half //= 2


def _profile_spectral(target_keys: np.ndarray, source: KmerTable, k: int) -> np.ndarray:
    """The MacWilliams identity for the Hamming kernel on 4^k keys:
    M[d] = 4^-k sum_m K_d(m) S_m, where S_m sums a^_w c^_w over the w with
    m non-zero digits and K_d is the quaternary Krawtchouk polynomial. The
    caller guarantees 4^k x targets x total < 2^63, so the int64 sums are
    exact, and the final combination runs in Python integers."""
    size = 4**k
    a = np.bincount(np.asarray(target_keys, dtype=np.uint64).astype(np.int64), minlength=size)
    c = np.zeros(size, dtype=np.int64)
    c[source.keys] = source.counts
    _walsh_hadamard(a)
    _walsh_hadamard(c)
    a *= c
    del c
    # fold the digits one by one into the count of non-zero digits so far
    by_weight = a.reshape(1, -1)
    for _ in range(k):
        digits = by_weight.reshape(by_weight.shape[0], 4, -1)
        by_weight = np.zeros((digits.shape[0] + 1, digits.shape[2]), dtype=np.int64)
        by_weight[:-1] = digits[:, 0]
        by_weight[1:] += digits[:, 1:].sum(axis=1)
    S = [int(s) for s in by_weight[:, 0]]
    M = [
        sum(
            (-1) ** j * 3 ** (d - j) * comb(m, j) * comb(k - m, d - j) * S[m]
            for m in range(k + 1)
            for j in range(d + 1)
        )
        // size
        for d in range(k + 1)
    ]
    return np.array([float(v) for v in M])
