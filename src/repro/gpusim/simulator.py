"""Analytical embedded-GPU simulator.

The simulator turns a :class:`~repro.gpusim.kernel.KernelPlan` into an
execution time and a set of system-level counters on a given
:class:`~repro.gpusim.device.DeviceSpec`.  It models the mechanisms the
paper identifies as responsible for the observed behaviour:

* **throughput** — a kernel's time is the larger of its arithmetic time
  and its memory time (roofline style), scaled by how well the kernel's
  workgroup shape uses the SIMD lanes (``vector_efficiency``) and the
  cache (``memory_locality``);
* **utilisation** — kernels with too few work items cannot fill the
  GPU's compute units (the tiny remainder kernels the ACL GEMM split
  produces run at a fraction of peak);
* **job dispatch overhead** — every GPU job requires CPU-GPU
  communication and initialisation; the paper's Section IV-B shows this
  "often outweighs the benefits of dispatching workloads to
  accelerators";
* **system-level counters** — jobs, control-register reads/writes and
  interrupts scale with the number of dispatched jobs (Figure 18).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..numerics import fold_sum
from .device import DeviceSpec
from .kernel import Kernel, KernelPlan

#: Control-register traffic and interrupts generated per dispatched job.
#: The absolute values are arbitrary (the paper's Figure 18 reports
#: *relative* counters); the proportionality to job count is what matters.
CONTROL_REGISTER_READS_PER_JOB = 96
CONTROL_REGISTER_WRITES_PER_JOB = 64
INTERRUPTS_PER_JOB = 2

#: Utilisation never drops below this floor: even a single workgroup
#: keeps one compute unit partially busy.
_MIN_UTILIZATION = 0.02


@dataclass(frozen=True)
class KernelExecution:
    """Simulated execution of one kernel."""

    kernel: Kernel
    arithmetic_time_s: float
    memory_time_s: float
    overhead_time_s: float
    utilization: float

    @property
    def compute_time_s(self) -> float:
        """Roofline time: the slower of the arithmetic and memory pipes."""

        return max(self.arithmetic_time_s, self.memory_time_s)

    @property
    def total_time_s(self) -> float:
        return self.compute_time_s + self.overhead_time_s


@dataclass(frozen=True)
class SystemCounters:
    """System-level counters reported by the simulator (Figure 18)."""

    jobs: int
    control_register_reads: int
    control_register_writes: int
    interrupts: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "jobs": self.jobs,
            "control_register_reads": self.control_register_reads,
            "control_register_writes": self.control_register_writes,
            "interrupts": self.interrupts,
        }


@dataclass(frozen=True)
class SimulationResult:
    """Full result of simulating one kernel plan on one device."""

    device: DeviceSpec
    plan: KernelPlan
    kernel_executions: List[KernelExecution] = field(default_factory=list)

    @property
    def kernel_time_s(self) -> float:
        """Time spent in kernels (compute + per-kernel launch overhead)."""

        return fold_sum(execution.total_time_s for execution in self.kernel_executions)

    @property
    def job_dispatch_time_s(self) -> float:
        """Time spent creating and dispatching GPU jobs."""

        return self.counters.jobs * self.device.job_dispatch_overhead_s

    @property
    def total_time_s(self) -> float:
        return self.kernel_time_s + self.job_dispatch_time_s

    @property
    def total_time_ms(self) -> float:
        return self.total_time_s * 1e3

    @property
    def counters(self) -> SystemCounters:
        jobs = self.plan.job_count
        return SystemCounters(
            jobs=jobs,
            control_register_reads=jobs * CONTROL_REGISTER_READS_PER_JOB,
            control_register_writes=jobs * CONTROL_REGISTER_WRITES_PER_JOB,
            interrupts=jobs * INTERRUPTS_PER_JOB,
        )

    def execution_of(self, kernel_name: str) -> List[KernelExecution]:
        """Executions of all kernels with the given name."""

        return [
            execution
            for execution in self.kernel_executions
            if execution.kernel.name == kernel_name
        ]


class GpuSimulator:
    """Simulate kernel plans on an embedded GPU device."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    # ------------------------------------------------------------------
    def utilization(self, kernel: Kernel) -> float:
        """Fraction of the GPU's compute resources the kernel can occupy.

        Work items below the device's full-utilisation threshold leave
        compute units idle; this is what makes the tiny remainder
        kernels of a split GEMM so expensive relative to their size.
        """

        full = self.device.full_utilization_work_items
        # Even a tiny kernel keeps at least one compute unit busy, so the
        # floor is one unit's share of the machine.
        floor = max(_MIN_UTILIZATION, 1.0 / self.device.compute_units)
        return max(floor, min(1.0, kernel.work_items / full))

    def simulate_kernel(self, kernel: Kernel) -> KernelExecution:
        """Compute the execution profile of a single kernel."""

        utilization = self.utilization(kernel)
        arith_throughput = (
            self.device.peak_arith_instructions_per_second
            * kernel.vector_efficiency
            * utilization
        )
        memory_throughput = (
            self.device.peak_memory_instructions_per_second
            * kernel.memory_locality
            * utilization
        )
        arithmetic_time = kernel.arithmetic_instructions / arith_throughput
        memory_time = kernel.memory_instructions / memory_throughput
        return KernelExecution(
            kernel=kernel,
            arithmetic_time_s=arithmetic_time,
            memory_time_s=memory_time,
            overhead_time_s=self.device.kernel_launch_overhead_s,
            utilization=utilization,
        )

    def simulate(self, plan: KernelPlan) -> SimulationResult:
        """Simulate a full kernel plan."""

        executions = [self.simulate_kernel(kernel) for kernel in plan]
        return SimulationResult(device=self.device, plan=plan, kernel_executions=executions)

    def run_time_ms(self, plan: KernelPlan) -> float:
        """Convenience wrapper returning only the total time in ms."""

        return self.simulate(plan).total_time_ms
