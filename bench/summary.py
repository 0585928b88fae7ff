"""Reduction of raw per-operation samples into reported figures."""

from __future__ import annotations

import statistics
from collections import Counter

# Candidate percentiles in tenths of a percent, highest first.
_LADDER = (999, 990, 950, 900, 500)


def beyond(n: int, per_mille: int) -> int:
    """Samples of ``n`` that lie above the ``per_mille / 10``-th
    percentile, in exact integer arithmetic."""
    return n * (1000 - per_mille) // 1000


def tail_percentile(n: int) -> float | None:
    """Highest percentile of p99.9, p99, p95, p90 and p50 that has at least
    ten of ``n`` samples beyond it; ``None`` when even p50 has fewer."""
    for q in _LADDER:
        if beyond(n, q) >= 10:
            return q / 10
    return None


def percentile(values, q: float) -> float:
    """The ``q``-th percentile, interpolated between order statistics
    (``statistics.quantiles`` inclusive method); one value is its own
    percentile."""
    vals = list(values)
    if len(vals) == 1:
        return float(vals[0])
    return statistics.quantiles(vals, n=1000, method="inclusive")[round(q * 10) - 1]


class Tally:
    """Outcomes of the distinct operations of one run.

    Every pass of a run repeats the same inputs, so an operation, named
    by its ``key``, is counted once, at its first run; the counts then
    depend on the seed alone, not on how many passes fit in the run.  A
    repeat whose outcome differs from the first makes the run incorrect.

    An operation fails when it raises or when its output fails the
    workload's check.  A failed check also makes the run incorrect: the
    program returned a wrong answer instead of an error naming one.
    """

    def __init__(self) -> None:
        self.outcomes: dict = {}  # key -> True when the operation failed
        self.errors: Counter = Counter()
        self.check_failures: list[str] = []

    def _first(self, key, failed: bool) -> bool:
        """Record the outcome; ``True`` on the first run of ``key``."""
        if key not in self.outcomes:
            self.outcomes[key] = failed
            return True
        if self.outcomes[key] != failed:
            self.incorrect(f"operation {key!r} {'failed' if failed else 'succeeded'} "
                           "on a repeat, unlike its first run")
        return False

    def ok(self, key) -> None:
        self._first(key, False)

    def raised(self, key, exc: BaseException) -> None:
        if self._first(key, True):
            self.errors[f"{type(exc).__name__}: {exc}"[:80]] += 1

    def check_failed(self, key, message: str) -> None:
        if self._first(key, True):
            self.incorrect(message)

    def incorrect(self, message: str) -> None:
        """A cross-check that spans operations failed; no operation is
        added to the count."""
        self.check_failures.append(message)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(self.outcomes.values())

    @property
    def correct(self) -> bool:
        return not self.check_failures

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
