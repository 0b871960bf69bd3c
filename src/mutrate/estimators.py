"""Substitution-rate estimators.

Three families:

* closed-form single-symbol estimators (one nucleotide's frequency, GC
  content, or one nucleotide's read counts),
* a general-k moment matcher that inverts the expected k-mer spectrum over
  a chosen subset of source k-mers, a degree-k polynomial in the rate,
* large-k estimators that treat k-mer survival as all-or-nothing and read
  the rate off the surviving mass, with a count threshold to cut sequencer
  noise on the read-based variant.

Estimates are returned raw (they can leave [0, 1] on bad luck) next to a
clamped copy; downstream error statistics use the raw value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate, chebroots

from .errors import EmptyRetainedSet, MismatchedK, NoRootInRange, SingularDenominator
from .kmers import KmerTable, circular_row, decode_kmer, distance_profile, encode_kmer, lookup, window_mass
from .model import CircularSequence, ReadSet

SEARCH_MAX = 0.75
# generous bounds, on [lo, hi] mapped to [-1, 1], on how far rounding moves a
# simple root of the moment polynomial (about eps) and a double one (about
# eps**(1/2), often off the real axis)
SIMPLE_ROOT_TOL = np.finfo(np.float64).eps ** (1 / 2)
DOUBLE_ROOT_TOL = np.finfo(np.float64).eps ** (1 / 3)

MutatedCounts = Union[KmerTable, ReadSet, CircularSequence, Mapping[str, float]]


class EstimatorId(str, Enum):
    K1_SINGLE = "k1-single"
    K1_GC = "k1-gc"
    GENERAL_K = "general-k"
    LARGE_K_SEQ = "large-k-seq"
    K1_READS = "k1-reads"
    LARGE_K_READS = "large-k-reads"


# what each estimator consumes: the k-mer estimators take k-mer tables, the
# read estimators read sets, and every estimator not read-based sequences
KMER_BASED = frozenset({EstimatorId.GENERAL_K, EstimatorId.LARGE_K_SEQ, EstimatorId.LARGE_K_READS})
READ_BASED = frozenset({EstimatorId.K1_READS, EstimatorId.LARGE_K_READS})
# the estimators that count one nucleotide, the ``base``
SINGLE_BASE = frozenset({EstimatorId.K1_SINGLE, EstimatorId.K1_READS})


@dataclass(frozen=True)
class Diagnostics:
    """Side facts about how an estimate was produced. None means the
    estimator does not report that fact."""

    lambda_threshold: int | None = None
    lambda_fallback: bool | None = None
    retained_mass: float | None = None
    multiple_roots: bool | None = None


_FALLBACK_WARNING = "count threshold fell back to 1; sequencer noise is not being filtered"
_ROOTS_WARNING = "moment equation has more than one root on [0, 0.75]; reporting the smallest"


@dataclass(frozen=True)
class EstimateResult:
    estimator: EstimatorId
    p_raw: float
    p_clamped: float
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    @property
    def warnings(self) -> tuple[str, ...]:
        """The diagnostics that make the estimate suspect, as sentences."""
        d = self.diagnostics
        flagged = ((d.lambda_fallback, _FALLBACK_WARNING), (d.multiple_roots, _ROOTS_WARNING))
        return tuple(text for flag, text in flagged if flag)


def _result(
    estimator: EstimatorId, p_raw: float, diagnostics: Diagnostics = Diagnostics()
) -> EstimateResult:
    p_raw = float(p_raw)
    return EstimateResult(estimator, p_raw, min(1.0, max(0.0, p_raw)), diagnostics)


# ---------------------------------------------------------------------------
# closed-form k=1 estimators


def _class_rate(
    est: EstimatorId, f: float, f_prime: float, volume: float, width: int, singular: str
) -> EstimateResult:
    """Rate from the count of a class of ``width`` of the four bases before
    (``f``) and after (``f_prime``) mutation, over ``volume`` symbols.

    Solves f' = f + (p/3)(width * volume - 4f) for p. ``singular`` is the
    message when the denominator is zero and the count does not move with
    the rate.
    """
    for side, v in (("source", f), ("mutated", f_prime)):
        if not 0 <= v <= volume:
            raise ValueError(f"{side} count {v} outside [0, {volume}]")
    den = width * volume - 4.0 * f
    if den == 0.0:
        raise SingularDenominator(singular)
    return _result(est, 3.0 * (f_prime - f) / den)


def estimate_k1_single(f_base: float, f_prime_base: float, total_len: float) -> EstimateResult:
    """Rate from one nucleotide's count before (``f_base``) and after
    (``f_prime_base``) mutation, on a sequence of ``total_len`` symbols.
    Undefined when the base occupies exactly a quarter of the sequence."""
    if total_len <= 0:
        raise ValueError(f"total length must be positive, got {total_len}")
    return _class_rate(
        EstimatorId.K1_SINGLE, f_base, f_prime_base, total_len, 1,
        "base frequency is exactly 1/4 of the sequence; its count does not move with the rate",
    )


def estimate_k1_gc(x_gc: float, y_gc: float) -> EstimateResult:
    """Rate from GC fractions of the source (``x_gc``) and mutated (``y_gc``)
    sequences. Undefined at source GC exactly 1/2."""
    return _class_rate(
        EstimatorId.K1_GC, x_gc, y_gc, 1.0, 2,
        "source GC fraction is exactly 1/2; GC content does not move with the rate",
    )


def estimate_k1_reads(h_base: float, h_prime_base: float, num_reads: int, read_len: int) -> EstimateResult:
    """Rate from one nucleotide's pooled count in reads of the source
    (``h_base``) and of the mutated copy (``h_prime_base``).

    Both read sets must share ``num_reads`` and ``read_len``; sequencer
    noise cancels between the two sides. Undefined when the base fills
    exactly a quarter of the read volume.
    """
    if num_reads < 1 or read_len < 1:
        raise ValueError("num_reads and read_len must be >= 1")
    return _class_rate(
        EstimatorId.K1_READS, h_base, h_prime_base, float(num_reads) * float(read_len), 1,
        "base frequency is exactly 1/4 of the read volume; its count does not move with the rate",
    )


# ---------------------------------------------------------------------------
# mutated-side access: integer tables, reads or sequences never counted, or
# {k-mer: expected count} mappings


def _mass_on(mutated: MutatedCounts, source: KmerTable, keys: np.ndarray) -> float:
    """Mutated-side mass at the packed ``keys``, sorted ascending and
    unique, summed in their order (absent keys add zero). A read set or a
    sequence is not counted: its mass is how many of its windows (a
    sequence's circular ones) have a key in ``keys`` (:func:`window_mass`).
    The mutated side must share the source's k and its provenance: reads
    for a read set or read table, sequence for a sequence or sequence table.
    A mapping must hold distinct k-mers with nonnegative counts."""
    k = source.k
    if not isinstance(mutated, Mapping):
        if isinstance(mutated, KmerTable):
            if mutated.k != k:
                raise MismatchedK(f"mutated table has k={mutated.k}, source has k={k}")
            provenance = mutated.provenance
        else:
            provenance = "reads" if isinstance(mutated, ReadSet) else "sequence"
        if provenance != source.provenance:
            raise ValueError(f"mutated table has provenance {provenance!r}, source has {source.provenance!r}")
        if isinstance(mutated, KmerTable):
            # an exact int64 sum: a table's counts sum to at most 2^63 - 1
            return float(lookup(mutated.keys, mutated.counts, keys).sum())
        rows = mutated.matrix if isinstance(mutated, ReadSet) else circular_row(mutated, k)
        return float(window_mass(rows, k, keys))
    for kmer, c in mutated.items():
        if len(kmer) != k:
            raise MismatchedK(f"k-mer {kmer!r} has length {len(kmer)}, expected {k}")
        if float(c) < 0:
            raise ValueError(f"negative count for {kmer!r}")
    m_keys = np.array([encode_kmer(kmer) for kmer in mutated], dtype=np.uint64)
    m_vals = np.array([float(c) for c in mutated.values()], dtype=np.float64)
    order = np.argsort(m_keys)
    m_keys, m_vals = m_keys[order], m_vals[order]
    if np.any(m_keys[1:] == m_keys[:-1]):
        raise ValueError("duplicate k-mers in mutated counts")
    return float(lookup(m_keys, m_vals, keys).sum())


# ---------------------------------------------------------------------------
# subset selection for the general-k moment matcher


@dataclass(frozen=True)
class SubsetSpec:
    """Which source k-mers the moment matcher sums over.

    ``all`` uses every k-mer of the source; ``top(m)`` the m most frequent
    (ties broken toward the lexicographically smaller k-mer); ``explicit``
    a caller-supplied list, which must be a subset of the source's k-mers.
    """

    kind: str = "all"
    m: int | None = None
    kmers: tuple[str, ...] | None = None

    @classmethod
    def all(cls) -> "SubsetSpec":
        return cls("all")

    @classmethod
    def top(cls, m: int) -> "SubsetSpec":
        if m < 1:
            raise ValueError(f"top subset size must be >= 1, got {m}")
        return cls("top", m=m)

    @classmethod
    def explicit(cls, kmers: Sequence[str]) -> "SubsetSpec":
        if not kmers:
            raise ValueError("explicit subset must be nonempty")
        return cls("explicit", kmers=tuple(kmers))

    def resolve(self, source: KmerTable) -> np.ndarray:
        """Packed keys of the subset, sorted ascending."""
        if self.kind == "all":
            return source.keys
        if self.kind == "top":
            # stable sort on (-count, key): equal counts fall back to key order
            order = np.lexsort((source.keys, -source.counts))
            take = order[: min(self.m, source.distinct)]
            return np.sort(source.keys[take])
        if self.kind == "explicit":
            wrong = [s for s in self.kmers if len(s) != source.k]
            if wrong:
                raise MismatchedK(
                    f"subset k-mer {wrong[0]!r} has length {len(wrong[0])}, source table k={source.k}"
                )
            packed = np.array([encode_kmer(s) for s in self.kmers], dtype=np.uint64)
            uniq = np.unique(packed)
            if uniq.size != packed.size:
                raise ValueError("explicit subset contains duplicate k-mers")
            present = lookup(source.keys, source.counts, uniq) > 0
            if not np.all(present):
                missing = [decode_kmer(int(v), source.k) for v in uniq[~present]]
                raise ValueError(
                    f"subset k-mers absent from the source table: {', '.join(missing)}"
                )
            return uniq
        raise ValueError(f"unknown subset kind {self.kind!r}")


# ---------------------------------------------------------------------------
# root finding on [0, SEARCH_MAX]


def find_smallest_root(
    g: Callable[[float], float],
    degree: int,
    lo: float = 0.0,
    hi: float = SEARCH_MAX,
) -> tuple[float, bool]:
    """Smallest real root on [lo, hi] of ``g``, a polynomial of degree at
    most ``degree``.

    g's values at the degree + 1 Chebyshev points of [lo, hi] fix it
    exactly; the roots of that Chebyshev interpolant are the eigenvalues of
    its colleague matrix. On the interval mapped to [-1, 1], a root counts
    when rounding could have moved it off the real axis (DOUBLE_ROOT_TOL) or
    past an end (SIMPLE_ROOT_TOL), at its real part clipped to the interval.
    Returns (root, more_than_one), where roots closer than DOUBLE_ROOT_TOL
    are one root. Raises :class:`NoRootInRange` when there is none.
    """
    half = 0.5 * (hi - lo)
    coef = chebinterpolate(lambda ts: [g(lo + half * (1.0 + float(t))) for t in ts], degree)
    if not coef.any():  # every point is a root
        return lo, True
    z = chebroots(coef)
    z = z[(np.abs(z.imag) <= DOUBLE_ROOT_TOL) & (np.abs(z.real) <= 1.0 + SIMPLE_ROOT_TOL)]
    if z.size == 0:
        raise NoRootInRange(f"moment equation has no root on [{lo}, {hi}]")
    ts = np.clip(z.real, -1.0, 1.0)
    return lo + half * (1.0 + float(ts.min())), bool(ts.max() - ts.min() > DOUBLE_ROOT_TOL)


# ---------------------------------------------------------------------------
# general-k moment matcher


def estimate_general_k(
    source: KmerTable,
    mutated: MutatedCounts,
    subset: SubsetSpec | None = None,
) -> EstimateResult:
    """Rate whose expected mutated spectrum matches the observed one, summed
    over a subset of the source's k-mers.

    The expectation of a k-mer's mutated count is a degree-k polynomial in
    the rate, weighted by how much source mass sits at each Hamming distance;
    those weights are precomputed once so each evaluation is O(k), and k + 1
    evaluations fix the polynomial. Its smallest real root on [0, 0.75] is
    returned; additional roots only raise a warning because the small-rate
    regime is the intended one.
    """
    if source.provenance != "sequence":
        raise ValueError("moment matching is defined on full-sequence tables")
    subset = subset or SubsetSpec.all()
    sub_keys = subset.resolve(source)
    if sub_keys.size == 0:
        raise ValueError("empty subset")
    k = source.k
    if sub_keys.size == 4**k:
        # summing over every possible k-mer conserves the total count, so the
        # matched moment is constant in the rate and carries no information
        raise ValueError(
            "subset covers all possible k-mers; restrict it (e.g. top:m) or raise k"
        )
    target = _mass_on(mutated, source, sub_keys)
    profile = distance_profile(sub_keys, source, k)

    def g(q: float) -> float:
        keep = 1.0 - q
        flip = q / 3.0
        acc = 0.0
        for d in range(k + 1):
            if profile[d]:
                acc += profile[d] * keep ** (k - d) * flip**d
        return acc - target

    root, multiple = find_smallest_root(g, k)
    return _result(EstimatorId.GENERAL_K, root, Diagnostics(multiple_roots=multiple))


# ---------------------------------------------------------------------------
# large-k survival estimators


def estimate_large_k_seq(source: KmerTable, mutated: MutatedCounts) -> EstimateResult:
    """Rate from the mutated-spectrum mass that stayed on the source's k-mer
    set, assuming k is large enough that mutated k-mers rarely collide with
    other source k-mers: that mass is G(1-p)^k in expectation."""
    if source.provenance != "sequence":
        raise ValueError("sequence-level survival needs a full-sequence table")
    total = source.total
    if total == 0:
        raise EmptyRetainedSet("source table is empty")
    mass = _mass_on(mutated, source, source.keys)
    p_raw = 1.0 - (mass / total) ** (1.0 / source.k)
    return _result(EstimatorId.LARGE_K_SEQ, p_raw, Diagnostics(retained_mass=mass))


class LambdaSelection(NamedTuple):
    """Chosen count threshold plus what survives it."""

    lam: int
    retained_mass: int
    fallback: bool


def select_lambda(source: KmerTable, error_rate: float) -> LambdaSelection:
    """Largest count threshold >= 2 that keeps at least a (1-s)^k fraction
    of the source read k-mer mass.

    With sequencer error rate s, roughly (1-s)^k of read k-mer mass is
    error-free, so thresholding may discard at most the complement. When
    even threshold 2 cuts too deep (low coverage or tiny inputs), fall back
    to 1, flagged, which disables noise filtering.
    """
    if not 0.0 <= error_rate < 1.0:
        raise ValueError(f"error rate must be in [0, 1), got {error_rate}")
    if source.distinct == 0:
        raise EmptyRetainedSet("cannot choose a threshold for an empty table")
    total = source.total
    threshold = (1.0 - error_rate) ** source.k * total
    slack = 1e-9 * max(1.0, float(total))
    vals, freq = np.unique(source.counts, return_counts=True)  # ascending
    vals_desc = vals[::-1]
    cum_desc = np.cumsum((vals * freq)[::-1])
    qualifies = cum_desc + slack >= threshold
    idx = int(np.argmax(qualifies))  # first True; total always qualifies
    lam_candidate = int(vals_desc[idx])
    if lam_candidate >= 2:
        return LambdaSelection(lam_candidate, int(cum_desc[idx]), False)
    return LambdaSelection(1, int(total), True)


def estimate_large_k_reads(source: KmerTable, mutated: MutatedCounts, error_rate: float) -> EstimateResult:
    """Rate from read k-mer mass surviving on the source's high-count k-mers.

    The threshold from :func:`select_lambda` keeps k-mers that are almost
    surely real sequence content; the ratio of mutated-side to source-side
    mass on that set falls like (1-p)^k because sequencer noise contributes
    the same factor to both sides. A mutated read set or read table may
    come from a different read volume, its window count: N * (L - k + 1)
    for a read set, the total for a table. Its surviving mass is scaled by
    source.total / that count, and an empty one is an error. A mapping of
    expected counts is used as is.

    ``error_rate`` is taken as the sequencer's rate s, not a bound on it. A
    larger s lowers the mass floor and so raises the threshold; the keys
    kept are then picked on x's own count noise, their counts in x run high
    against y's, and the rate is biased up: by 6% to 20% at twice s
    (G = 1e5, k = 30, s = 0.01 and 0.02, coverage 10 and 30), with no
    warning.
    """
    if source.provenance != "reads":
        raise ValueError("read-level survival needs a read-derived table")
    sel = select_lambda(source, error_rate)
    retained = source.keys[source.counts >= sel.lam]
    den = float(sel.retained_mass)
    if den <= 0:
        raise EmptyRetainedSet("threshold retained no k-mer mass")
    num = _mass_on(mutated, source, retained)
    if not isinstance(mutated, Mapping):  # a read set or read table, as _mass_on checked
        if isinstance(mutated, KmerTable):
            windows = mutated.total
        else:
            windows = mutated.num_reads * (mutated.read_len - source.k + 1)
        if windows == 0:
            raise EmptyRetainedSet("mutated read table is empty")
        num *= source.total / windows
    p_raw = 1.0 - (num / den) ** (1.0 / source.k)
    diag = Diagnostics(lambda_threshold=sel.lam, retained_mass=den, lambda_fallback=sel.fallback)
    return _result(EstimatorId.LARGE_K_READS, p_raw, diag)
