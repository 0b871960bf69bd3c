"""Independent reference implementations used to check the fast paths.

Everything here favors obviousness over speed: plain dicts, string slicing,
full enumeration. Nothing imports the vectorized internals being tested.
"""

from __future__ import annotations

import itertools
import math

ALPHABET = "ACGT"


def circular_kmer_counts(seq: str, k: int) -> dict[str, int]:
    """Count k-mers of a circular sequence by doubling and slicing."""
    g = len(seq)
    doubled = seq + seq
    counts: dict[str, int] = {}
    for i in range(g):
        w = doubled[i : i + k]
        counts[w] = counts.get(w, 0) + 1
    return counts


def linear_kmer_counts(seq: str, k: int) -> dict[str, int]:
    counts: dict[str, int] = {}
    for i in range(len(seq) - k + 1):
        w = seq[i : i + k]
        counts[w] = counts.get(w, 0) + 1
    return counts


def hamming(a: str, b: str) -> int:
    assert len(a) == len(b)
    return sum(x != y for x, y in zip(a, b))


def channel_prob(x: str, y: str, rate: float) -> float:
    """P(channel turns x into y), positions independent."""
    p = 1.0
    for a, b in zip(x, y):
        p *= (1.0 - rate) if a == b else rate / 3.0
    return p


def enumerate_expected_count(seq: str, kmer: str, rate: float) -> float:
    """E[count of kmer in the mutated copy] by summing over all 4^G outcomes."""
    g = len(seq)
    k = len(kmer)
    total = 0.0
    for y_tuple in itertools.product(ALPHABET, repeat=g):
        y = "".join(y_tuple)
        prob = channel_prob(seq, y, rate)
        if prob == 0.0:
            continue
        total += prob * circular_kmer_counts(y, k).get(kmer, 0)
    return total


def closed_form_expected_count(seq: str, kmer: str, rate: float) -> float:
    """Same expectation via the per-window transition probability."""
    k = len(kmer)
    total = 0.0
    for w, c in circular_kmer_counts(seq, k).items():
        d = hamming(w, kmer)
        total += c * (1.0 - rate) ** (k - d) * (rate / 3.0) ** d
    return total


def binom_stddev(n: int, p: float) -> float:
    return math.sqrt(n * p * (1.0 - p))


def quartiles_midpoint(values: list[float]) -> tuple[float, float, float]:
    """q1, median, q3 with linear interpolation, written the slow way."""

    def quantile(sorted_vals: list[float], q: float) -> float:
        pos = q * (len(sorted_vals) - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        frac = pos - lo
        return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac

    vals = sorted(values)
    return quantile(vals, 0.25), quantile(vals, 0.5), quantile(vals, 0.75)


def fasta_records(text: str, on_invalid: str) -> list[tuple[str, str, int]]:
    """(name, uppercase sequence, symbols dropped) per FASTA record, checked
    one character at a time. Raises ValueError with parse_fasta's message."""
    records: list[tuple[str, str, int]] = []
    name = None
    kept: list[str] = []
    dropped = 0

    def flush():
        if name is not None:
            if not kept:
                raise ValueError(f"record {name!r} has an empty sequence")
            records.append((name, "".join(kept).upper(), dropped))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            name, kept, dropped = line[1:].strip(), [], 0
            if not name:
                raise ValueError(f"line {lineno}: header has no name")
            continue
        if name is None:
            raise ValueError(f"line {lineno}: sequence data before any '>' header")
        for col, ch in enumerate(line, start=1):
            if ch in "acgtACGT":
                kept.append(ch)
            elif on_invalid == "error":
                raise ValueError(f"line {lineno}, column {col}: invalid symbol {ch!r}")
            else:
                dropped += 1
    flush()
    if not records:
        raise ValueError("no records found")
    return records
