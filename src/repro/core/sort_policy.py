"""Adaptive global re-sorting policy (paper §4.4).

The policy decides, once per timestep and per rank, whether to run the
expensive ``GlobalSortParticlesByCell`` counting sort.  Five prioritised
triggers are evaluated against the accumulated :class:`RankSortStats`:

1. **Minimum interval** — never sort more often than ``MIN_SORT_INTERVAL``.
2. **Fixed interval** — always sort after ``SORT_INTERVAL`` steps.
3. **Local rebuilds** — sort when the tiles' GPMA rebuilds accumulated past
   ``SORT_TRIGGER_REBUILD_COUNT``.
4. **Slot ratio** — sort when the rank-wide gap reserve falls below
   ``SORT_TRIGGER_EMPTY_RATIO`` (the structure is nearly full and local
   rebuilds are imminent, trigger name ``empty_ratio``) or the gap
   fraction *exceeds* ``SORT_TRIGGER_FULL_RATIO`` (the structure became
   sparse and cache-unfriendly, trigger name ``sparse_ratio``).  Both
   triggers compare the *empty* fraction (:attr:`RankSortStats.empty_ratio`,
   the complement of :attr:`RankSortStats.fill_ratio`) against its bound
   with a strict inequality.
5. **Performance degradation** — sort when the deposition throughput
   falls below ``SORT_TRIGGER_PERF_DEGRAD`` of the post-sort baseline.

The thresholds are the paper's Appendix-A values, module constants named
after the ``warpx.sort_*`` runtime parameters of its artifact.  They are
not configurable: a test that needs another threshold patches the
constant, which :meth:`GlobalSortPolicy.should_sort` reads on every
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# the triggers' thresholds, as listed above
SORT_INTERVAL = 50
MIN_SORT_INTERVAL = 10
SORT_TRIGGER_REBUILD_COUNT = 100
SORT_TRIGGER_EMPTY_RATIO = 0.15
SORT_TRIGGER_FULL_RATIO = 0.85
SORT_TRIGGER_PERF_DEGRAD = 0.80


@dataclass
class RankSortStats:
    """Counters accumulated since the last global sort (one MPI rank)."""

    steps_since_sort: int = 0
    local_rebuilds: int = 0
    total_slots: int = 0
    empty_slots: int = 0
    #: deposition throughput (particles per modelled second) of recent steps
    last_throughput: float = 0.0
    #: throughput measured right after the previous global sort
    baseline_throughput: float = 0.0

    @property
    def empty_ratio(self) -> float:
        """Rank-wide fraction of GPMA slots that are gaps."""
        if self.total_slots <= 0:
            return 0.0
        return self.empty_slots / self.total_slots

    @property
    def fill_ratio(self) -> float:
        """Rank-wide fraction of GPMA slots that hold particles."""
        return 1.0 - self.empty_ratio

    def record_step(self, *, rebuilds: int, total_slots: int,
                    empty_slots: int, throughput: float) -> None:
        """Fold one timestep's per-tile statistics into the rank totals."""
        self.steps_since_sort += 1
        self.local_rebuilds += int(rebuilds)
        self.total_slots = int(total_slots)
        self.empty_slots = int(empty_slots)
        self.last_throughput = float(throughput)
        if self.baseline_throughput == 0.0 and throughput > 0.0:
            self.baseline_throughput = float(throughput)

    def reset(self) -> None:
        """Reset after a global sort (``ResetRankSortCounters``)."""
        self.steps_since_sort = 0
        self.local_rebuilds = 0
        self.baseline_throughput = self.last_throughput


class GlobalSortPolicy:
    """Implements ``ShouldPerformGlobalSort`` with the five triggers."""

    #: reason string of the last positive decision (for diagnostics)
    last_trigger: Optional[str] = None

    def should_sort(self, stats: RankSortStats) -> bool:
        """Evaluate the prioritised triggers against the rank statistics."""
        self.last_trigger = None

        # 1. minimum interval — hard veto
        if stats.steps_since_sort < MIN_SORT_INTERVAL:
            return False

        # 2. fixed interval
        if stats.steps_since_sort >= SORT_INTERVAL:
            self.last_trigger = "fixed_interval"
            return True

        # 3. accumulated local rebuilds
        if stats.local_rebuilds >= SORT_TRIGGER_REBUILD_COUNT:
            self.last_trigger = "rebuild_count"
            return True

        # 4. empty-slot ratio: too few gaps left (structure nearly full) or
        #    far too many gaps (structure became sparse and cache-unfriendly)
        if stats.total_slots > 0:
            if stats.empty_ratio < SORT_TRIGGER_EMPTY_RATIO:
                self.last_trigger = "empty_ratio"
                return True
            if stats.empty_ratio > SORT_TRIGGER_FULL_RATIO:
                self.last_trigger = "sparse_ratio"
                return True

        # 5. performance degradation
        if (stats.baseline_throughput > 0.0
                and stats.last_throughput > 0.0
                and stats.last_throughput
                < SORT_TRIGGER_PERF_DEGRAD * stats.baseline_throughput):
            self.last_trigger = "perf_degradation"
            return True

        return False
