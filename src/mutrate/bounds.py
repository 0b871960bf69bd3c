"""Concentration bounds and feasibility thresholds for the single-base
estimators.

The closed-form estimators divide by how far a base's frequency sits from
1/4, so their relative error blows up as that deviation shrinks. The
functions here quantify the trade: generic two-sided tail bounds, the
minimum usable deviation for the whole-sequence estimator, and the
deviation the read-based estimator needs once sequencer noise biases both
sides, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

MAX_RATE = 0.75


def _sum_sq(values: float | Sequence[float], n: int | None, what: str) -> float:
    """Sum of squares of per-term ranges, scalar broadcast over n terms."""
    if isinstance(values, (int, float)):
        if n is None:
            raise ValueError(f"scalar {what} needs an explicit term count n")
        if not 1 <= n < math.inf:
            raise ValueError(f"term count must be >= 1 and finite, got {n}")
        if not 0 <= values < math.inf:
            raise ValueError(f"{what} must be nonnegative and finite, got {values}")
        return n * float(values) ** 2
    seq = [float(v) for v in values]
    if not seq:
        raise ValueError(f"{what} sequence must be nonempty")
    if n is not None and n != len(seq):
        raise ValueError(f"n={n} disagrees with {len(seq)} {what} entries")
    if not all(0 <= v < math.inf for v in seq):
        raise ValueError(f"every {what} entry must be nonnegative and finite")
    return sum(v * v for v in seq)


def _two_sided_tail(t: float, sum_sq: float) -> float:
    """min(1, 2 exp(-2 t^2 / sum_sq)); degenerate variables cannot deviate."""
    if not 0 <= t < math.inf:
        raise ValueError(f"deviation t must be >= 0 and finite, got {t}")
    if t == 0.0:
        return 1.0
    if sum_sq == 0.0:
        return 0.0
    return min(1.0, 2.0 * math.exp(-2.0 * t * t / sum_sq))


def hoeffding_tail(t: float, widths: float | Sequence[float], n: int | None = None) -> float:
    """Two-sided tail bound 2 exp(-2 t^2 / sum_i w_i^2), capped at 1, for a
    sum of independent bounded terms, where w_i is the width of term i's
    range. Pass one width plus ``n`` when all terms share a range.
    """
    return _two_sided_tail(t, _sum_sq(widths, n, "width"))


def mcdiarmid_tail(t: float, diffs: float | Sequence[float], n: int | None = None) -> float:
    """Two-sided tail bound 2 exp(-2 t^2 / sum_i c_i^2), capped at 1, for a
    function of independent inputs with bounded differences c_i.

    Same shape as :func:`hoeffding_tail`; the inputs need not be sums.
    """
    return _two_sided_tail(t, _sum_sq(diffs, n, "bounded difference"))


def min_deviation_sequence(rate: float, rel_tol: float, seq_len: float) -> float:
    """Smallest |base fraction - 1/4| at which the whole-sequence single-base
    estimator's typical fluctuation stays within relative error ``rel_tol``.

    Equals sqrt(1.5 / (rate^2 * rel_tol^2 * seq_len)): one standard-deviation
    scale of the count noise divided by the signal the deviation provides.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"relative tolerance must be positive and finite, got {rel_tol}")
    if not 1 <= seq_len < math.inf:
        raise ValueError(f"sequence length must be >= 1 and finite, got {seq_len}")
    return math.sqrt(1.5 / (rate * rate * rel_tol * rel_tol * seq_len))


class Budgets(NamedTuple):
    """Exponents allocated to the three concentration events: source read
    counts, mutated read counts, and the sequence-level base count."""

    c1: float
    c2: float
    c3: float


def equal_budgets(failure_prob: float) -> Budgets:
    """Split a total failure probability evenly: each event gets
    C = ln(6 / failure_prob), since each costs 2 e^{-C}."""
    if not 0.0 < failure_prob < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {failure_prob}")
    c = math.log(6.0 / failure_prob)
    return Budgets(c, c, c)


def _check_budgets(budgets: Budgets) -> None:
    if not all(c > 0 for c in budgets):
        raise ValueError(f"budgets must be positive, got {budgets}")


def success_probability(budgets: Budgets) -> float:
    """Lower bound on the probability that all three concentration events
    hold: max(0, 1 - 2e^{-c1} - 2e^{-c2} - 2e^{-c3})."""
    _check_budgets(budgets)
    return max(0.0, 1.0 - 2.0 * math.exp(-budgets.c1) - 2.0 * math.exp(-budgets.c2) - 2.0 * math.exp(-budgets.c3))


@dataclass(frozen=True)
class ReadBoundParams:
    """Inputs to the read-based deviation requirement.

    ``seq_len`` and ``num_reads`` set the two sampling depths; ``rate`` is
    the substitution rate being estimated, ``error_rate`` the sequencer's
    per-base error, ``rel_tol`` the target relative error.
    """

    seq_len: float
    num_reads: float
    rate: float
    error_rate: float
    rel_tol: float

    def __post_init__(self):
        if not 1 <= self.seq_len < math.inf:
            raise ValueError(f"sequence length must be >= 1 and finite, got {self.seq_len}")
        if not 1 <= self.num_reads < math.inf:
            raise ValueError(f"number of reads must be >= 1 and finite, got {self.num_reads}")
        if not 0.0 < self.rate < MAX_RATE:
            raise ValueError(f"rate must be in (0, {MAX_RATE}), got {self.rate}")
        if not 0.0 <= self.error_rate < MAX_RATE:
            raise ValueError(f"error rate must be in [0, {MAX_RATE}), got {self.error_rate}")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"relative tolerance must be in (0, 1), got {self.rel_tol}")


def required_deviation_reads(params: ReadBoundParams, budgets: Budgets) -> float:
    """Deviation |base fraction - 1/4| that guarantees the read-based
    single-base estimator hits relative error ``rel_tol`` whenever the three
    concentration events of ``budgets`` all hold.

    The requirement is self-referential: sequencer noise shifts the read
    fraction of a base at 1/4 ± d by 4sd/3, so d = base + 4sd/3, which
    solves to d = base / (1 - 4s/3), finite because s < 3/4.
    """
    _check_budgets(budgets)
    g, n = params.seq_len, params.num_reads
    base = (
        3.0 / (4.0 * params.rate * params.rel_tol)
        * (math.sqrt(budgets.c2 / (2.0 * n)) + math.sqrt(budgets.c1 / (2.0 * g)))
        + math.sqrt(budgets.c3 / (2.0 * n))
    )
    return base / (1.0 - 4.0 * params.error_rate / 3.0)
