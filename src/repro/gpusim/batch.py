"""Vectorized batch simulation of many kernel plans at once.

The scalar :class:`~repro.gpusim.simulator.GpuSimulator` walks one
:class:`~repro.gpusim.kernel.KernelPlan` at a time, building a Python
object per kernel execution.  The experiment suite, however, almost
never needs a single point: the staircase figures profile *every*
channel count of a layer and the heatmaps every pruning distance of
every layer — thousands of plans whose cost model is pure arithmetic.

:func:`simulate_batch` takes a :class:`~repro.gpusim.kernel.PlanTable`
(one row per configuration, as the library planners produce for a whole
channel sweep), flattens the kernels its rows dispatch into NumPy arrays
and evaluates the identical roofline/utilisation/overhead model in a
handful of vectorized operations.  Per-plan aggregates (kernel time,
dispatch time, total time) come out as arrays aligned with the table's
rows, computed with segment reductions over the flat kernel arrays.

The arithmetic matches :class:`GpuSimulator` operation for operation
(same formulas, same evaluation order), so per-kernel times are bitwise
identical to the scalar simulator; per-plan totals may differ only in
floating-point summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .device import DeviceSpec
from .kernel import KernelPlan, PlanTable
from .simulator import _MIN_UTILIZATION


@dataclass(frozen=True)
class BatchSimulationResult:
    """Vectorized simulation of a plan table on one device.

    Per-kernel quantities are flat arrays over the concatenated kernels
    of all rows; kernel ``i`` of row ``p`` lives at flat index
    ``offsets[p] + i``.  Per-plan aggregates are arrays of length
    ``len(table)``.
    """

    device: DeviceSpec
    table: PlanTable
    #: Segment boundaries: plan ``p`` owns kernels ``offsets[p]:offsets[p+1]``.
    offsets: np.ndarray
    arithmetic_time_s: np.ndarray
    memory_time_s: np.ndarray
    utilization: np.ndarray
    #: GPU jobs dispatched per plan (drives the dispatch-overhead term).
    job_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.table)

    # ------------------------------------------------------------------
    # Per-kernel quantities
    # ------------------------------------------------------------------
    @property
    def compute_time_s(self) -> np.ndarray:
        """Roofline time per kernel: the slower of the two pipes."""

        return np.maximum(self.arithmetic_time_s, self.memory_time_s)

    @property
    def kernel_counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    # ------------------------------------------------------------------
    # Per-plan aggregates
    # ------------------------------------------------------------------
    def _segment_sum(self, values: np.ndarray) -> np.ndarray:
        if not len(self):
            return np.zeros(0)
        return np.add.reduceat(values, self.offsets[:-1])

    @property
    def kernel_time_s(self) -> np.ndarray:
        """Per-plan time spent in kernels (compute + launch overhead)."""

        launch = self.device.kernel_launch_overhead_s
        return self._segment_sum(self.compute_time_s) + self.kernel_counts * launch

    @property
    def job_dispatch_time_s(self) -> np.ndarray:
        """Per-plan time spent creating and dispatching GPU jobs."""

        return self.job_counts * self.device.job_dispatch_overhead_s

    @property
    def total_time_s(self) -> np.ndarray:
        return self.kernel_time_s + self.job_dispatch_time_s

    @property
    def total_time_ms(self) -> np.ndarray:
        return self.total_time_s * 1e3


def simulate_batch(
    plans: Union[PlanTable, Iterable[KernelPlan]], device: DeviceSpec
) -> BatchSimulationResult:
    """Simulate every row of a plan table in one vectorized pass.

    ``plans`` is a :class:`PlanTable` (read column by column) or a
    sequence of hand-built :class:`KernelPlan` objects, tabulated first.
    Equivalent to ``[GpuSimulator(device).simulate(plan) for plan in
    plans]`` but orders of magnitude cheaper for large batches: no
    per-kernel Python objects are created, and the cost model runs as a
    few NumPy array operations over all kernels of all rows at once.
    """

    table = plans if isinstance(plans, PlanTable) else PlanTable.from_plans(plans)
    present = table.matrix("present")

    def flat(name: str) -> np.ndarray:
        return table.matrix(name)[present].astype(np.float64)

    arith_instr = flat("arithmetic_instructions")
    mem_instr = flat("memory_instructions")
    work_items = flat("work_items")
    vector_eff = flat("vector_efficiency")
    mem_locality = flat("memory_locality")

    floor = max(_MIN_UTILIZATION, 1.0 / device.compute_units)
    utilization = np.maximum(
        floor, np.minimum(1.0, work_items / device.full_utilization_work_items)
    )
    arith_throughput = device.peak_arith_instructions_per_second * vector_eff * utilization
    memory_throughput = device.peak_memory_instructions_per_second * mem_locality * utilization
    arithmetic_time = arith_instr / arith_throughput
    memory_time = mem_instr / memory_throughput

    return BatchSimulationResult(
        device=device,
        table=table,
        offsets=np.concatenate(([0], np.cumsum(present.sum(axis=1)))),
        arithmetic_time_s=arithmetic_time,
        memory_time_s=memory_time,
        utilization=utilization,
        job_counts=(present & table.matrix("dispatches_job")).sum(axis=1),
    )
