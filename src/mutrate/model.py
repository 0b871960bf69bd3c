"""Circular sequences, the i.i.d. substitution channel, and uniform read sampling.

Sequences are stored as uint8 code arrays (A=0, C=1, G=2, T=3) so that
mutation and read extraction stay vectorized for genome-scale lengths.
Every operation is a pure function of its inputs and a seed: the same seed
reproduces the same output bit for bit, and nothing here holds shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ALPHABET = "ACGT"

_CODE_TO_BYTE = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)
_BYTE_TO_CODE = np.full(256, 255, dtype=np.uint8)
for _i, _ch in enumerate(ALPHABET):
    _BYTE_TO_CODE[ord(_ch)] = _i
    _BYTE_TO_CODE[ord(_ch.lower())] = _i


@dataclass(frozen=True, eq=False)
class CircularSequence:
    """A fixed nucleotide string indexed modulo its length.

    ``codes`` is a 1-D uint8 array with values in 0..3. Position ``i`` and
    ``i + len(self)`` refer to the same symbol.
    """

    codes: np.ndarray

    def __post_init__(self):
        codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        if codes.ndim != 1 or codes.size == 0:
            raise ValueError("sequence must be a nonempty 1-D code array")
        if codes.max() > 3:
            bad = int(np.argmax(codes > 3))
            raise ValueError(f"invalid nucleotide code {codes[bad]} at position {bad}")
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_string(cls, text: str) -> "CircularSequence":
        return cls(string_to_codes(text))

    def to_string(self) -> str:
        return codes_to_string(self.codes)

    def __len__(self) -> int:
        return int(self.codes.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CircularSequence):
            return NotImplemented
        return np.array_equal(self.codes, other.codes)

    __hash__ = None  # mutable payload; identity hashing would be a trap

    def gc_fraction(self) -> float:
        """Fraction of positions carrying C or G."""
        return float(np.count_nonzero((self.codes == 1) | (self.codes == 2))) / len(self)


def string_to_codes(text: str) -> np.ndarray:
    """uint8 codes for an ACGT string (case-insensitive); 1-based position
    in the error when a symbol is not a nucleotide. Each non-ASCII character
    encodes as one invalid byte, so byte offsets are character offsets."""
    raw = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    codes = _BYTE_TO_CODE[raw]
    if codes.size and codes.max() == 255:
        pos = int(np.argmax(codes == 255))
        raise ValueError(f"non-ACGT symbol {text[pos]!r} at position {pos + 1}")
    return codes


def codes_to_string(codes: np.ndarray) -> str:
    return _CODE_TO_BYTE[np.asarray(codes, dtype=np.uint8)].tobytes().decode("ascii")


def encode_base(base: str) -> int:
    if len(base) != 1:
        raise ValueError(f"expected a single nucleotide, got {base!r}")
    code = int(_BYTE_TO_CODE[ord(base)])
    if code == 255:
        raise ValueError(f"invalid nucleotide {base!r}")
    return code


@dataclass(frozen=True)
class SubstitutionChannel:
    """Per-position i.i.d. substitution: keep a symbol with probability
    ``1 - rate``, otherwise replace it by one of the three other nucleotides,
    each with probability ``rate / 3``."""

    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"substitution rate must be in [0, 1), got {self.rate}")


_GAP_BLOCK = 1 << 16  # most gaps drawn at once: 512 KB of int64


def _substitute(
    codes: np.ndarray, rate: float, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply the substitution channel to a code array of any shape.

    The result is written to ``out``, a fresh copy of ``codes`` when None;
    an ``out`` passed in must be C-contiguous. Hits are drawn by their gaps,
    which are i.i.d. Geometric(``rate``), so the draws number O(size * rate).
    Draw order (stable across runs for a given generator state), block by
    block along the array in C order: a block of gaps, sized from the
    expected hits left and capped at ``_GAP_BLOCK``, then one alternative
    pick in 1..3 per hit of that block. The gaps of the last block that run
    past the end are drawn and dropped. Rate 0 and an empty array draw
    nothing.
    """
    out = codes.copy() if out is None else out
    flat = out.reshape(-1)
    n = flat.size
    last = -1  # position of the latest hit
    while rate > 0 and last < n - 1:
        hits_left = rate * (n - 1 - last)
        gaps = rng.geometric(rate, size=min(_GAP_BLOCK, int(hits_left + 3 * hits_left**0.5) + 1))
        # a tiny rate saturates gaps at 2**63 - 1; n + 1 still lands past the
        # end from last = -1, where n would make a false hit at n - 1
        np.minimum(gaps, n + 1, out=gaps)
        hits = np.cumsum(gaps, out=gaps)
        hits += last
        last = int(hits[-1])
        if last >= n:
            hits = hits[: np.searchsorted(hits, n)]
        offsets = rng.integers(1, 4, size=hits.size, dtype=np.uint8)
        flat[hits] = (flat[hits] + offsets) % 4
    return out


def mutate(x: CircularSequence, channel: SubstitutionChannel, rng_seed: int) -> CircularSequence:
    """Pass ``x`` through the substitution channel; same length, seeded."""
    rng = np.random.default_rng(rng_seed)
    return CircularSequence(_substitute(x.codes, channel.rate, rng))


@dataclass(frozen=True, eq=False)
class ReadSet:
    """N reads of identical length from one source sequence.

    ``matrix`` is (N, L) uint8.
    """

    matrix: np.ndarray
    source_len: int

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.uint8)
        if m.ndim != 2:
            raise ValueError("read matrix must be 2-D (N, L)")
        if m.size and m.max() > 3:
            raise ValueError("read matrix contains invalid nucleotide codes")
        if self.source_len < 1:
            raise ValueError("source length must be >= 1")
        object.__setattr__(self, "matrix", m)

    @property
    def num_reads(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def read_len(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def coverage(self) -> float:
        """Expected per-position coverage, num_reads * read_len / source_len."""
        return self.num_reads * self.read_len / self.source_len


def sample_reads(
    x: CircularSequence,
    read_len: int,
    num_reads: int,
    error_channel: SubstitutionChannel,
    rng_seed: int,
    allow_wrap_repeat: bool = False,
) -> ReadSet:
    """Draw ``num_reads`` reads of length ``read_len`` from ``x``.

    Each start position is uniform over the sequence; reads wrap across the
    circular boundary. Every read then passes through ``error_channel``
    independently. Draw order: all start positions first, then the channel's
    draws over the whole (N, L) block in row-major order: blocks of gaps
    between hits, each followed by one alternative pick per hit (see
    ``_substitute``). The channel works in place on the gathered block.

    Reads longer than the sequence are rejected unless ``allow_wrap_repeat``
    is set, in which case they keep wrapping around.
    """
    G = len(x)
    if read_len < 1:
        raise ValueError("read length must be >= 1")
    if num_reads < 0:
        raise ValueError("number of reads must be >= 0")
    if read_len > G and not allow_wrap_repeat:
        raise ValueError(
            f"read length {read_len} exceeds sequence length {G}; "
            "pass allow_wrap_repeat=True to permit multi-lap reads"
        )
    rng = np.random.default_rng(rng_seed)
    starts = rng.integers(0, G, size=num_reads, dtype=np.int64)
    laps = (G + read_len - 1 + G - 1) // G
    ext = np.tile(x.codes, laps)[: G + read_len - 1]
    reads = sliding_window_view(ext, read_len)[starts]
    _substitute(reads, error_channel.rate, rng, out=reads)
    return ReadSet(reads, G)


def check_distribution(distribution) -> np.ndarray:
    """``distribution`` as a float64 array, once it is checked to be 4
    finite, nonnegative probabilities (A, C, G, T) that sum to 1."""
    dist = np.asarray(distribution, dtype=np.float64)
    if dist.shape != (4,):
        raise ValueError("distribution must have exactly 4 probabilities (A, C, G, T)")
    if not np.all(np.isfinite(dist)):
        raise ValueError(f"distribution probabilities must be finite, got {dist.tolist()}")
    if np.any(dist < 0):
        raise ValueError("distribution probabilities must be nonnegative")
    if abs(float(dist.sum()) - 1.0) > 1e-9:
        raise ValueError(f"distribution must sum to 1, got {float(dist.sum())!r}")
    return dist


def generate_iid_sequence(length: int, distribution, rng_seed: int) -> CircularSequence:
    """Draw a sequence of ``length`` symbols i.i.d. from a 4-way distribution
    over (A, C, G, T).

    The draw is ``rng.choice(4, size=length, p=dist / dist.sum())``'s stream
    without its int64 indices: one uniform u per symbol, and the symbol is
    the number of the first three cdf entries at or below u.
    """
    if length < 1:
        raise ValueError("sequence length must be >= 1")
    dist = check_distribution(distribution)
    cdf = (dist / dist.sum()).cumsum()
    cdf /= cdf[-1]
    u = np.random.default_rng(rng_seed).random(length)
    codes = np.zeros(length, dtype=np.uint8)
    for edge in cdf[:3]:
        codes += u >= edge
    return CircularSequence(codes)
