"""Profiling event records.

The paper uses two profilers (Section III-C): a custom OpenCL
interceptor that records when each kernel starts and finishes on the GPU
(plus its name and memory footprint), and CUDA event timing matched
against nvprof.  Our profilers observe the simulator instead of real
hardware, but expose the same event records so the downstream analysis
code is identical to what would run on a device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..numerics import fold_sum


@dataclass(frozen=True)
class KernelEvent:
    """One kernel execution observed by a profiler."""

    kernel_name: str
    queued_at_s: float
    started_at_s: float
    finished_at_s: float
    work_items: int
    workgroup: tuple
    memory_footprint_bytes: int
    job_index: Optional[int] = None

    def __post_init__(self) -> None:
        if not (self.queued_at_s <= self.started_at_s <= self.finished_at_s):
            raise ValueError(
                f"event for {self.kernel_name!r} has non-monotonic timestamps: "
                f"queued={self.queued_at_s}, started={self.started_at_s}, "
                f"finished={self.finished_at_s}"
            )

    @property
    def duration_s(self) -> float:
        """Time the kernel spent executing on the GPU."""

        return self.finished_at_s - self.started_at_s

    @property
    def queue_delay_s(self) -> float:
        """Time between enqueue and execution start (dispatch overhead)."""

        return self.started_at_s - self.queued_at_s


@dataclass
class ProfiledRun:
    """All events of one measured inference plus its end-to-end time."""

    label: str
    device_name: str
    library_name: str
    events: List[KernelEvent] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        """End-to-end time from first enqueue to last completion."""

        if not self.events:
            return 0.0
        start = min(event.queued_at_s for event in self.events)
        end = max(event.finished_at_s for event in self.events)
        return end - start

    @property
    def total_time_ms(self) -> float:
        return self.total_time_s * 1e3

    @property
    def kernel_time_s(self) -> float:
        """Sum of on-GPU kernel durations (excludes dispatch gaps)."""

        return fold_sum(event.duration_s for event in self.events)

    def kernel_names(self) -> List[str]:
        return [event.kernel_name for event in self.events]

    def events_named(self, name: str) -> List[KernelEvent]:
        return [event for event in self.events if event.kernel_name == name]

    def durations_by_kernel(self) -> Dict[str, float]:
        """Total GPU time per kernel name."""

        durations: Dict[str, float] = {}
        for event in self.events:
            durations[event.kernel_name] = durations.get(event.kernel_name, 0.0) + event.duration_s
        return durations
