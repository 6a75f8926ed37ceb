"""Staircase analysis of latency-vs-channels curves.

The central empirical observation of the paper is that layer latency as
a function of the channel count is a *staircase* (Figures 2-5, 7, 12,
14, 15, 20): flat plateaus separated by abrupt steps, sometimes split
into two parallel staircases or several alternating levels.  This module
detects the structure of such curves and extracts the quantities the
performance-aware pruning proposal needs:

* the **steps** (channel counts where latency changes abruptly);
* the **plateaus** between steps;
* the **optimal points** — the right-most channel count of each plateau
  ("the most number of channels for an inference time", Section IV-A.1),
  which are the only channel counts worth considering when pruning;
* summary statistics (number of levels, maximum step ratio) used to
  compare libraries and devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..numerics import fold_sum
from ..profiling.latency_table import LatencyTable

#: Relative latency change between neighbouring channel counts that
#: counts as a step (plateaus are flat to within measurement noise).
DEFAULT_STEP_THRESHOLD = 0.08


@dataclass(frozen=True)
class Step:
    """One abrupt latency change between adjacent channel counts."""

    channels_before: int
    channels_after: int
    time_before_ms: float
    time_after_ms: float

    @property
    def ratio(self) -> float:
        """How much slower the higher-channel side is (>= 1 for upward steps)."""

        return self.time_after_ms / self.time_before_ms

    @property
    def is_upward(self) -> bool:
        """True when adding channels increases latency (the usual case)."""

        return self.time_after_ms > self.time_before_ms


@dataclass(frozen=True)
class Plateau:
    """A maximal run of channel counts with (near-)constant latency."""

    min_channels: int
    max_channels: int
    mean_time_ms: float

    @property
    def width(self) -> int:
        return self.max_channels - self.min_channels + 1

    @property
    def optimal_channels(self) -> int:
        """The "right side of the step": most channels for this latency."""

        return self.max_channels


@dataclass(frozen=True)
class StaircaseAnalysis:
    """Full analysis of one latency-vs-channels curve."""

    layer_name: str
    steps: Tuple[Step, ...]
    plateaus: Tuple[Plateau, ...]
    level_times_ms: Tuple[float, ...]

    @property
    def optimal_channel_counts(self) -> List[int]:
        """Channel counts on the right edge of each plateau, ascending."""

        return sorted(plateau.optimal_channels for plateau in self.plateaus)

    @property
    def level_count(self) -> int:
        """Number of distinct latency levels (1 = linear/flat, 2+ = staircase)."""

        return len(self.level_times_ms)

    @property
    def max_step_ratio(self) -> float:
        """Largest relative latency change across a single step."""

        if not self.steps:
            return 1.0
        return max(max(step.ratio, 1.0 / step.ratio) for step in self.steps)

    def has_downward_steps(self) -> bool:
        """True when *adding* channels can reduce latency (parallel staircases)."""

        return any(not step.is_upward for step in self.steps)


def detect_steps(
    channel_counts: Sequence[int],
    times_ms: Sequence[float],
    threshold: float = DEFAULT_STEP_THRESHOLD,
) -> List[Step]:
    """Find abrupt latency changes between adjacent channel counts."""

    if len(channel_counts) != len(times_ms):
        raise ValueError("channel_counts and times_ms must have the same length")
    steps = []
    for index in range(1, len(channel_counts)):
        before, after = times_ms[index - 1], times_ms[index]
        if before <= 0 or after <= 0:
            raise ValueError("latencies must be positive")
        change = abs(after - before) / before
        if change > threshold:
            steps.append(
                Step(
                    channels_before=channel_counts[index - 1],
                    channels_after=channel_counts[index],
                    time_before_ms=before,
                    time_after_ms=after,
                )
            )
    return steps


def detect_plateaus(
    channel_counts: Sequence[int],
    times_ms: Sequence[float],
    threshold: float = DEFAULT_STEP_THRESHOLD,
) -> List[Plateau]:
    """Group adjacent channel counts whose latency is flat within threshold."""

    if not channel_counts:
        return []
    plateaus: List[Plateau] = []
    run_start = 0
    for index in range(1, len(channel_counts) + 1):
        is_break = index == len(channel_counts) or (
            abs(times_ms[index] - times_ms[index - 1]) / times_ms[index - 1] > threshold
        )
        if is_break:
            run_times = times_ms[run_start:index]
            plateaus.append(
                Plateau(
                    min_channels=channel_counts[run_start],
                    max_channels=channel_counts[index - 1],
                    mean_time_ms=fold_sum(run_times) / len(run_times),
                )
            )
            run_start = index
    return plateaus


def cluster_levels(
    times_ms: Sequence[float], relative_tolerance: float = 0.12
) -> List[float]:
    """Cluster latencies into distinct levels (for the "parallel staircase" check).

    Returns the representative (mean) time of each level, ascending.
    """

    # Each level is a running ``[total, size]`` fold: the same bits as
    # re-summing its members left to right, without the quadratic cost.
    levels: List[List[float]] = []
    for time in sorted(times_ms):
        for level in levels:
            centre = level[0] / level[1]
            if abs(time - centre) / centre <= relative_tolerance:
                level[0] += time
                level[1] += 1
                break
        else:
            levels.append([time, 1])
    return [total / size for total, size in levels]


def analyze_table(
    table: LatencyTable, threshold: float = DEFAULT_STEP_THRESHOLD
) -> StaircaseAnalysis:
    """Run the full staircase analysis on a latency table."""

    counts, times = table.as_series()
    steps = detect_steps(counts, times, threshold)
    plateaus = detect_plateaus(counts, times, threshold)
    levels = cluster_levels([plateau.mean_time_ms for plateau in plateaus])
    return StaircaseAnalysis(
        layer_name=table.layer_name,
        steps=tuple(steps),
        plateaus=tuple(plateaus),
        level_times_ms=tuple(levels),
    )


def optimal_pruning_levels(
    table: LatencyTable,
    threshold: float = DEFAULT_STEP_THRESHOLD,
    max_channels: Optional[int] = None,
) -> List[int]:
    """Channel counts worth considering when pruning this layer.

    These are the right edges of the latency plateaus at or below
    ``max_channels`` (default: the layer's original size): every other
    channel count wastes either latency (same time, fewer channels) or
    accuracy potential (more time for no extra channels).
    """

    analysis = analyze_table(table, threshold)
    upper = table.max_channels if max_channels is None else max_channels
    candidates = [count for count in analysis.optimal_channel_counts if count <= upper]
    if upper not in candidates:
        candidates.append(upper)
    return sorted(set(candidates))
