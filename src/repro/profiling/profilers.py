"""OpenCL-style and CUDA-style profilers over the GPU simulator.

Both profilers take a kernel plan, run it through the simulator for the
target device, and emit :class:`~repro.profiling.events.KernelEvent`
records as the real interceptors would.  Measurement noise is modelled
as a small deterministic pseudo-random perturbation so that "median of
10 runs" (the paper's methodology, Section III-D) is meaningful and
reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import KernelPlan, PlanTable
from ..gpusim.simulator import GpuSimulator, SimulationResult
from .events import KernelEvent, ProfiledRun

#: Relative standard deviation of the multiplicative measurement noise.
MEASUREMENT_NOISE_STD = 0.02

#: Assumed size of one tensor element (fp32).
_BYTES_PER_ELEMENT = 4


def noise_material(device: DeviceSpec, plan: KernelPlan) -> str:
    """Seed material identifying one measured configuration.

    Both the scalar profilers and the batched measurement path derive
    their noise from this string, so a configuration measured either way
    sees the same deterministic perturbations.
    """

    return _material(device.name, plan.library, plan.layer_name, plan.notes)


def noise_materials(device: DeviceSpec, table: PlanTable) -> List[str]:
    """:func:`noise_material` of every row of a plan table, in row order."""

    return [
        _material(device.name, table.library, layer_name, notes)
        for layer_name, notes in zip(table.layer_names, table.notes)
    ]


def _material(device_name: str, library: str, layer_name: str, notes: str) -> str:
    return f"{device_name}/{library}/{layer_name}/{notes}"


#: splitmix64 constants (Steele et al., "Fast splittable pseudorandom
#: number generators") — a counter-based generator whose draws are pure
#: integer mixing, so whole (configuration x run) matrices vectorize.
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise over a uint64 array."""

    z = (x ^ (x >> np.uint64(30))) * _SPLITMIX_MUL1
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_MUL2
    return z ^ (z >> np.uint64(31))


def _seeds_of(seed_materials: Iterable[str], seed: int = 0) -> np.ndarray:
    """Per-configuration splitmix64 seeds, optionally forked by a stream seed.

    Each seed is the first 8 bytes (little-endian) of the sha256 of its
    UTF-8 material: the whole digests are joined into one buffer, read
    as uint64 words and every fourth word kept.  ``seed == 0`` (the
    default) reproduces the historical stream exactly; any other value
    splits off an independent but equally deterministic stream, so two
    sessions built with the same seed see identical measurements without
    sharing a profile store.
    """

    digests = b"".join(
        [hashlib.sha256(material).digest() for material in map(str.encode, seed_materials)]
    )
    seeds = np.frombuffer(digests, dtype="<u8")[::4].astype(np.uint64)
    if seed:
        # Reduce the offset as a Python int: only whole arrays take part
        # in uint64 arithmetic, which wraps without warning.
        seeds = _splitmix64(seeds + np.uint64(seed * int(_SPLITMIX_GAMMA) % 2**64))
    return seeds


def _seed_of(seed_material: str, seed: int = 0) -> np.uint64:
    """:func:`_seeds_of` of one material."""

    return _seeds_of([seed_material], seed)[0]


def _factors_from_seeds(seeds: np.ndarray, runs: int) -> np.ndarray:
    """(len(seeds), runs) noise factor matrix from per-configuration seeds.

    Two counter-derived uniforms per run are turned into a standard
    normal via Box-Muller; run ``i`` of a configuration depends only on
    (seed, i), so any prefix of the run sequence is stable.
    """

    counters = np.arange(1, 2 * runs + 1, dtype=np.uint64)
    mixed = _splitmix64(seeds[:, np.newaxis] + _SPLITMIX_GAMMA * counters)
    # Top 53 bits, shifted into (0, 1] so the log below is always finite.
    uniform = ((mixed >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u1, u2 = uniform[:, 0::2], uniform[:, 1::2]
    normal = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return 1.0 + MEASUREMENT_NOISE_STD * normal


def noise_factors(seed_material: str, runs: int, seed: int = 0) -> np.ndarray:
    """Deterministic noise factors close to 1.0 for ``runs`` repetitions."""

    return _factors_from_seeds(np.array([_seed_of(seed_material, seed)]), runs)[0]


def noise_matrix(seed_materials: Iterable[str], runs: int, seed: int = 0) -> np.ndarray:
    """Noise factors for many configurations at once, one row each.

    Row ``i`` equals ``noise_factors(seed_materials[i], runs, seed)``;
    the batched measurement path uses this to perturb a whole sweep in
    one array operation.
    """

    seeds = _seeds_of(seed_materials, seed)
    if not len(seeds):
        return np.zeros((0, runs))
    return _factors_from_seeds(seeds, runs)


def _noise_factor(seed_material: str, run_index: int, seed: int = 0) -> float:
    """Deterministic noise factor of one run (the scalar profilers' view)."""

    return float(noise_factors(seed_material, run_index + 1, seed)[-1])


@dataclass
class _ProfilerBase:
    """Shared machinery of the OpenCL and CUDA profilers.

    ``seed`` forks the measurement-noise stream (0 keeps the historical
    stream); it mirrors :class:`~repro.profiling.runner.ProfileRunner.seed`
    so scalar and batched measurements of the same configuration agree
    for any seed.
    """

    device: DeviceSpec
    seed: int = 0

    def __post_init__(self) -> None:
        self.simulator = GpuSimulator(self.device)

    # ------------------------------------------------------------------
    def profile(self, plan: KernelPlan, run_index: int = 0) -> ProfiledRun:
        """Execute one run of a plan and record kernel events."""

        result = self.simulator.simulate(plan)
        noise = _noise_factor(noise_material(self.device, plan), run_index, self.seed)
        return self._build_run(result, noise)

    def _build_run(self, result: SimulationResult, noise: float) -> ProfiledRun:
        run = ProfiledRun(
            label=result.plan.layer_name,
            device_name=self.device.name,
            library_name=result.plan.library,
        )
        clock = 0.0
        job_index = 0
        for execution in result.kernel_executions:
            kernel = execution.kernel
            queued = clock
            dispatch_delay = 0.0
            if kernel.dispatches_job:
                job_index += 1
                dispatch_delay = self.device.job_dispatch_overhead_s * noise
            started = queued + dispatch_delay + self.device.kernel_launch_overhead_s * noise
            finished = started + execution.compute_time_s * noise
            run.events.append(
                KernelEvent(
                    kernel_name=kernel.name,
                    queued_at_s=queued,
                    started_at_s=started,
                    finished_at_s=finished,
                    work_items=kernel.work_items,
                    workgroup=kernel.workgroup.as_tuple(),
                    memory_footprint_bytes=kernel.memory_instructions * _BYTES_PER_ELEMENT,
                    job_index=job_index if kernel.dispatches_job else None,
                )
            )
            clock = finished
        return run


class OpenCLProfiler(_ProfilerBase):
    """Intercepts OpenCL kernel dispatches (used for ACL and TVM on Mali).

    Mirrors the custom interception library of Section III-C.1: each
    enqueued kernel's start/finish time, name and memory footprint are
    recorded.
    """

    api = "opencl"

    def __post_init__(self) -> None:
        if self.device.api != "opencl":
            raise ValueError(
                f"OpenCLProfiler requires an OpenCL device, got {self.device.name}"
            )
        super().__post_init__()


class CudaEventProfiler(_ProfilerBase):
    """Times cuDNN tasks with CUDA-event style begin/end pairs.

    Mirrors Section III-C.2: the time between CUDA events around each
    cuDNN task, cross-checked against nvprof.
    """

    api = "cuda"

    def __post_init__(self) -> None:
        if self.device.api != "cuda":
            raise ValueError(
                f"CudaEventProfiler requires a CUDA device, got {self.device.name}"
            )
        super().__post_init__()


def profiler_for_device(device: DeviceSpec) -> _ProfilerBase:
    """Instantiate the appropriate profiler for a device's API."""

    if device.api == "opencl":
        return OpenCLProfiler(device)
    return CudaEventProfiler(device)


def profile_runs(
    device: DeviceSpec, plan: KernelPlan, runs: int = 10
) -> List[ProfiledRun]:
    """Profile ``runs`` repetitions of a plan (default 10, as in the paper)."""

    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    profiler = profiler_for_device(device)
    return [profiler.profile(plan, run_index=index) for index in range(runs)]
