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


def table_counts(table) -> dict[str, int]:
    """{k-mer: count} of a k-mer table, each packed key decoded two bits at
    a time, leftmost symbol highest."""
    k = table.k
    return {
        "".join(ALPHABET[(key >> 2 * (k - 1 - j)) & 3] for j in range(k)): count
        for key, count in zip(table.keys.tolist(), table.counts.tolist())
    }


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


def hamming_profile(counts: dict[str, int], subset: list[str]) -> list[int]:
    """Source count at each Hamming distance 0..k from the subset's k-mers,
    by comparing every pair."""
    k = len(subset[0])
    profile = [0] * (k + 1)
    for s in subset:
        for w, c in counts.items():
            profile[hamming(w, s)] += c
    return profile


def roots_by_scan(
    f, lo: float, hi: float, points: int = 4001, tol: float = 1e-14, touch: float = 0.0
) -> list[float]:
    """Roots of ``f`` on [lo, hi] that a dense grid sees, ascending: grid
    points where f is exactly zero, and every sign change between neighbours
    bisected down to ``tol``.

    With ``touch`` > 0, an interior grid point where |f| is least among its
    neighbours, all of one sign, is refined by golden section to the least
    |f| between those neighbours. If f changes sign there, both crossings are
    bisected. Otherwise it is a tangency, one root, when f's complex pair of
    roots lies within ``touch`` of the real axis: when |f| there is at most
    its rise over ``touch`` either side. Without ``touch``, two roots inside
    one grid cell are missed."""
    qs = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    vals = [f(q) for q in qs]

    def bisect(a, b):
        fa = f(a)
        while b - a > tol:
            mid = 0.5 * (a + b)
            fm = f(mid)
            if fm == 0.0:
                return mid
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b = mid
        return 0.5 * (a + b)

    def least(g, a, b):
        shrink = (5**0.5 - 1) / 2
        c, d = b - shrink * (b - a), a + shrink * (b - a)
        gc, gd = g(c), g(d)
        while b - a > tol:
            if gc < gd:
                b, d, gd = d, c, gc
                c = b - shrink * (b - a)
                gc = g(c)
            else:
                a, c, gc = c, d, gd
                d = a + shrink * (b - a)
                gd = g(d)
        return 0.5 * (a + b)

    roots = []
    for i in range(points):
        if vals[i] == 0.0:
            roots.append(qs[i])
        elif i + 1 < points and vals[i + 1] != 0.0 and (vals[i] > 0) != (vals[i + 1] > 0):
            roots.append(bisect(qs[i], qs[i + 1]))
        elif (
            touch > 0
            and 0 < i < points - 1
            and all(v != 0.0 and (v > 0) == (vals[i] > 0) for v in (vals[i - 1], vals[i + 1]))
            and abs(vals[i]) <= min(abs(vals[i - 1]), abs(vals[i + 1]))
        ):
            s = 1.0 if vals[i] > 0 else -1.0
            q = least(lambda x: s * f(x), qs[i - 1], qs[i + 1])
            depth = s * f(q)
            if depth < 0:
                roots += [bisect(qs[i - 1], q), bisect(q, qs[i + 1])]
            elif depth <= s * 0.5 * (f(q - touch) + f(q + touch)) - depth:
                roots.append(q)
    return sorted(roots)


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


def _ascii_lines(path) -> list[str]:
    """A file's lines, split with universal newlines; a character outside
    ASCII is an error naming its line and byte."""
    with open(path, encoding="latin-1", newline=None) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines:
        raise ValueError(f"{path}: empty file")
    for lineno, line in enumerate(lines, start=1):
        for ch in line:
            if ord(ch) > 127:
                raise ValueError(f"{path}, line {lineno}: non-ASCII byte 0x{ord(ch):02x}")
    return lines


def _digits(text: str) -> bool:
    return bool(text) and all(ch in "0123456789" for ch in text)


def _header_values(line: str, keys: tuple[str, ...], path) -> list[str]:
    fields = line.split("\t")
    if len(fields) != len(keys):
        raise ValueError(f"{path}: header must have fields {keys}, got {len(fields)} fields")
    values = []
    for field, key in zip(fields, keys):
        prefix = f"#{key}="
        if not field.startswith(prefix):
            raise ValueError(f"{path}: expected header field {prefix}<value>, got {field!r}")
        values.append(field[len(prefix) :])
    return values


def kmer_table_rows(path) -> tuple[int, str, int | None, list[tuple[str, int]]]:
    """(k, provenance, G, (uppercase k-mer, count) rows in k-mer order) of a
    k-mer table file, checked one line at a time; G is the total for a
    sequence table and the optional ``#G`` field, or None, for a read table.
    Raises ValueError with read_kmer_table's message."""
    header, *rows = _ascii_lines(path)
    keys = ("k", "total", "provenance")
    if len(header.split("\t")) == 4:
        keys += ("G",)
    k, total, provenance, *g = _header_values(header, keys, path)
    if not all(_digits(v) for v in (k, total, *g)):
        names = "k, total and G" if g else "k and total"
        raise ValueError(f"{path}: {names} must be unsigned decimal integers")
    k, total = int(k), int(total)
    if provenance not in ("sequence", "reads"):
        raise ValueError(f"{path}: provenance must be 'sequence' or 'reads', got {provenance!r}")
    if not 1 <= k <= 32:
        raise ValueError(f"{path}: k must be in 1..32, got {k}")
    g = int(g[0]) if g else None
    if provenance == "sequence" and g not in (None, total):
        raise ValueError(f"{path}: a sequence table's G is its total {total}, got G={g}")
    counts: dict[str, int] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(rows, start=2):
        if not line:
            continue
        where = f"{path}, line {lineno}"
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{where}: expected 'KMER\\tCOUNT'")
        kmer, count_text = parts
        if len(kmer) != k:
            raise ValueError(f"{where}: k-mer {kmer!r} has length {len(kmer)}, header says k={k}")
        if not count_text or any(ch not in "0123456789" for ch in count_text):
            raise ValueError(f"{where}: count {count_text!r} is not an integer")
        count = int(count_text)
        if count == 0:
            raise ValueError(f"{where}: count must be positive, got 0")
        if count >= 2**63:
            raise ValueError(f"{where}: count {count} exceeds int64")
        if len(count_text) > 19:
            raise ValueError(f"{where}: count {count_text!r} has more than 19 digits")
        for ch in kmer:
            if ch not in "ACGTacgt":
                raise ValueError(f"{where}: invalid nucleotide {ch!r} in k-mer {kmer!r}")
        if kmer.upper() in first_line:
            raise ValueError(f"{where}: k-mer {kmer!r} repeats line {first_line[kmer.upper()]}")
        first_line[kmer.upper()] = lineno
        counts[kmer.upper()] = count
    if sum(counts.values()) >= 2**63:
        raise ValueError(f"{path}: counts sum to {sum(counts.values())}, past int64")
    if provenance == "reads" and g == 0:
        raise ValueError(f"{path}: a read table's G must be >= 1, got 0")
    if sum(counts.values()) != total:
        raise ValueError(f"{path}: header total {total} but rows sum to {sum(counts.values())}")
    return k, provenance, total if provenance == "sequence" else g, sorted(counts.items())


def reads_rows(path) -> tuple[list[str], int]:
    """(uppercase reads, source length G) of a reads file, checked one line
    at a time. Raises ValueError with read_reads's message."""
    header, *rows = _ascii_lines(path)
    values = _header_values(header, ("L", "N", "G"), path)
    if not all(_digits(v) for v in values):
        raise ValueError(f"{path}: L, N, G must be unsigned decimal integers")
    L, N, G = (int(v) for v in values)
    if L < 1 or G < 1:
        raise ValueError(f"{path}: need L >= 1, N >= 0, G >= 1")
    reads: list[str] = []
    for lineno, line in enumerate(rows, start=2):
        if not line:
            continue
        where = f"{path}, line {lineno}"
        if len(reads) >= N:
            raise ValueError(f"{where}: more than N={N} reads")
        if len(line) != L:
            raise ValueError(f"{where}: read length {len(line)} but header says L={L}")
        for pos, ch in enumerate(line, start=1):
            if ch not in "ACGTacgt":
                raise ValueError(f"{where}: non-ACGT symbol {ch!r} at position {pos}")
        reads.append(line.upper())
    if len(reads) != N:
        raise ValueError(f"{path}: header says N={N} reads but found {len(reads)}")
    return reads, G
