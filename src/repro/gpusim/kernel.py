"""Kernel and kernel-plan abstractions shared by the library models.

A *library* (ACL, cuDNN, TVM) plans the execution of a convolutional
layer as a sequence of kernels; the *simulator* turns that plan into a
runtime on a particular device.  This mirrors the paper's methodology:
the higher-level library decides how many kernels to dispatch, their
workgroup sizes and how much work each performs (Tables I-V), and the
hardware/driver turns those decisions into time (Figure 18).

A planner computes a whole channel sweep at once: a :class:`PlanTable`
holds every kernel field as a column with one row per configuration,
and :meth:`PlanTable.row` is the :class:`KernelPlan` of one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class KernelPlanError(ValueError):
    """Raised for structurally invalid kernels or plans."""


@dataclass(frozen=True)
class WorkgroupSize:
    """An OpenCL/CUDA workgroup (thread-block) shape."""

    x: int = 1
    y: int = 1
    z: int = 1

    def __post_init__(self) -> None:
        if min(self.x, self.y, self.z) < 1:
            raise KernelPlanError(f"workgroup dimensions must be >= 1, got {self}")

    @property
    def threads(self) -> int:
        return self.x * self.y * self.z

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.x}x{self.y}x{self.z}"


@dataclass(frozen=True)
class Kernel:
    """One GPU kernel dispatch planned by a library.

    ``arithmetic_instructions`` and ``memory_instructions`` are the
    executed-instruction counts the Mali simulator reports in the
    paper's Tables I-IV.  ``work_items`` is the size of the NDRange /
    grid (used by the simulator's utilisation model), ``workgroup`` the
    chosen workgroup size (Table V), and ``vector_efficiency`` the
    fraction of SIMD lanes the kernel keeps busy (planner-provided).
    ``dispatches_job`` marks kernels whose submission creates a new GPU
    job (extra CPU-GPU communication, the source of the split penalty).
    """

    name: str
    arithmetic_instructions: int
    memory_instructions: int
    work_items: int
    workgroup: WorkgroupSize = field(default_factory=WorkgroupSize)
    vector_efficiency: float = 1.0
    memory_locality: float = 1.0
    dispatches_job: bool = True
    tag: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise KernelPlanError("kernel name must be non-empty")
        if self.arithmetic_instructions < 0 or self.memory_instructions < 0:
            raise KernelPlanError(f"negative instruction count in kernel {self.name!r}")
        if self.work_items < 1:
            raise KernelPlanError(f"kernel {self.name!r} must have at least one work item")
        if not 0.0 < self.vector_efficiency <= 1.0:
            raise KernelPlanError(
                f"vector_efficiency must be in (0, 1], got {self.vector_efficiency}"
            )
        if not 0.0 < self.memory_locality <= 1.0:
            raise KernelPlanError(
                f"memory_locality must be in (0, 1], got {self.memory_locality}"
            )

    @property
    def total_instructions(self) -> int:
        return self.arithmetic_instructions + self.memory_instructions


@dataclass(frozen=True)
class KernelPlan:
    """The ordered kernels a library dispatches for one layer inference."""

    library: str
    layer_name: str
    kernels: Tuple[Kernel, ...]
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.kernels:
            raise KernelPlanError(f"plan for {self.layer_name!r} has no kernels")

    def __iter__(self) -> Iterator[Kernel]:
        return iter(self.kernels)

    def __len__(self) -> int:
        return len(self.kernels)

    # ------------------------------------------------------------------
    # Aggregates used by the analysis code and tests
    # ------------------------------------------------------------------
    @property
    def job_count(self) -> int:
        """Number of GPU jobs dispatched for this plan."""

        return sum(1 for kernel in self.kernels if kernel.dispatches_job)

    @property
    def total_arithmetic_instructions(self) -> int:
        return sum(kernel.arithmetic_instructions for kernel in self.kernels)

    @property
    def total_memory_instructions(self) -> int:
        return sum(kernel.memory_instructions for kernel in self.kernels)

    @property
    def total_instructions(self) -> int:
        return self.total_arithmetic_instructions + self.total_memory_instructions

    def kernels_named(self, name: str) -> List[Kernel]:
        """All kernels whose name matches (e.g. the two gemm_mm splits)."""

        return [kernel for kernel in self.kernels if kernel.name == name]

    def kernels_tagged(self, tag: str) -> List[Kernel]:
        return [kernel for kernel in self.kernels if kernel.tag == tag]

    def kernel_names(self) -> List[str]:
        return [kernel.name for kernel in self.kernels]

    def find(self, name: str) -> Optional[Kernel]:
        """First kernel with the given name, or ``None``."""

        for kernel in self.kernels:
            if kernel.name == name:
                return kernel
        return None


#: Column dtype of every :class:`KernelColumns` field.
_COLUMN_DTYPES = {
    "name": object,
    "arithmetic_instructions": np.int64,
    "memory_instructions": np.int64,
    "work_items": np.int64,
    "workgroup": object,
    "vector_efficiency": np.float64,
    "memory_locality": np.float64,
    "dispatches_job": bool,
    "tag": object,
    "present": bool,
}


def _column(value: Any, rows: int, dtype: Any) -> np.ndarray:
    """A per-row array as a column, or a shared value repeated ``rows`` times."""

    if not isinstance(value, np.ndarray):
        column = np.empty(rows, dtype=dtype)
        column[:] = value
        return column
    if value.shape != (rows,):
        raise KernelPlanError(f"column of shape {value.shape} in a table of {rows} rows")
    return value.astype(dtype, copy=False)


@dataclass(frozen=True)
class KernelColumns:
    """One kernel of a :class:`PlanTable`, with a value per configuration.

    Fields mirror :class:`Kernel`; ``present`` marks the rows that
    dispatch this kernel at all (the ACL GEMM remainder kernel exists
    only for split configurations).  A planner may pass a single value
    shared by every row; inside a table every field is a full column.
    """

    name: Any
    arithmetic_instructions: Any
    memory_instructions: Any
    work_items: Any
    workgroup: Any = WorkgroupSize()
    vector_efficiency: Any = 1.0
    memory_locality: Any = 1.0
    dispatches_job: Any = True
    tag: Any = ""
    present: Any = True

    def filled(self, rows: int) -> "KernelColumns":
        """A validated copy whose every field is a column of ``rows`` entries."""

        columns = {
            name: _column(getattr(self, name), rows, dtype)
            for name, dtype in _COLUMN_DTYPES.items()
        }
        self.validate()
        return replace(self, **columns)

    def validate(self) -> None:
        """Apply :class:`Kernel`'s checks to every present row at once.

        A shared value is checked once; a column by its extremes.
        """

        rows: Any = slice(None)
        if isinstance(self.present, np.ndarray):
            if not self.present.all():
                rows = self.present
        elif not self.present:
            return

        def extremes(field_name: str) -> Tuple[Any, Any]:
            value = getattr(self, field_name)
            if not isinstance(value, np.ndarray):
                return value, value
            value = value[rows]
            # An empty table has nothing to check: (1, 1) passes every test.
            return (value.min(), value.max()) if value.size else (1, 1)

        names = self.name[rows] if isinstance(self.name, np.ndarray) else [self.name]
        if not all(names):
            raise KernelPlanError("kernel name must be non-empty")
        for field_name, lowest in (
            ("arithmetic_instructions", 0),
            ("memory_instructions", 0),
            ("work_items", 1),
        ):
            low = extremes(field_name)[0]
            if low < lowest:
                raise KernelPlanError(
                    f"{field_name} of kernel {self.name!r} must be >= {lowest}, got {low}"
                )
        for field_name in ("vector_efficiency", "memory_locality"):
            low, high = extremes(field_name)
            if not (low > 0.0 and high <= 1.0):
                raise KernelPlanError(
                    f"{field_name} must be in (0, 1], got {high if low > 0.0 else low}"
                )

    def kernel(self, index: int) -> Kernel:
        """The :class:`Kernel` of row ``index``."""

        return Kernel(
            name=self.name[index],
            arithmetic_instructions=int(self.arithmetic_instructions[index]),
            memory_instructions=int(self.memory_instructions[index]),
            work_items=int(self.work_items[index]),
            workgroup=self.workgroup[index],
            vector_efficiency=float(self.vector_efficiency[index]),
            memory_locality=float(self.memory_locality[index]),
            dispatches_job=bool(self.dispatches_job[index]),
            tag=self.tag[index],
        )


@dataclass(frozen=True)
class PlanTable:
    """The kernel plans of many configurations as struct-of-arrays columns.

    Row ``i`` is one configuration: ``layer_names[i]`` and ``notes[i]``
    describe it, and kernel slot ``kernels[k]`` holds the fields of its
    ``k``-th kernel.  ``len(table)`` is the number of configurations.
    Construction fills every slot out to full columns and validates
    every present kernel of every row.
    """

    library: str
    layer_names: Sequence[str]
    notes: Sequence[str]
    kernels: Tuple[KernelColumns, ...]

    def __post_init__(self) -> None:
        rows = len(self.notes)
        if len(self.layer_names) != rows:
            raise KernelPlanError(f"{len(self.layer_names)} layer names for {rows} rows")
        kernels = tuple(slot.filled(rows) for slot in self.kernels)
        object.__setattr__(self, "kernels", kernels)
        covered = np.logical_or.reduce([slot.present for slot in kernels])
        if rows and not np.all(covered):
            empty = int(np.argmin(covered)) if np.ndim(covered) else 0
            raise KernelPlanError(f"plan for {self.layer_names[empty]!r} has no kernels")

    def __len__(self) -> int:
        return len(self.notes)

    def matrix(self, name: str) -> np.ndarray:
        """Field ``name`` of every kernel slot as a (rows, slots) array."""

        columns = np.array(
            [getattr(slot, name) for slot in self.kernels], dtype=_COLUMN_DTYPES[name]
        )
        return columns.reshape(len(self.kernels), len(self)).T

    def row(self, index: int) -> KernelPlan:
        """The one-configuration :class:`KernelPlan` of row ``index``."""

        return KernelPlan(
            library=self.library,
            layer_name=self.layer_names[index],
            kernels=tuple(
                slot.kernel(index) for slot in self.kernels if slot.present[index]
            ),
            notes=self.notes[index],
        )

    @classmethod
    def concat(cls, tables: Sequence["PlanTable"]) -> "PlanTable":
        """Stack tables of one library (same kernel slots) row-wise."""

        if len(tables) == 1:
            return tables[0]
        slots = tuple(
            replace(
                slot,
                **{
                    name: np.concatenate([getattr(t.kernels[position], name) for t in tables])
                    for name in _COLUMN_DTYPES
                },
            )
            for position, slot in enumerate(tables[0].kernels)
        )
        return cls(
            library=tables[0].library,
            layer_names=[name for table in tables for name in table.layer_names],
            notes=[note for table in tables for note in table.notes],
            kernels=slots,
        )

    @classmethod
    def from_plans(cls, plans: Iterable[KernelPlan]) -> "PlanTable":
        """Tabulate hand-built plans; shorter plans leave trailing slots absent."""

        plans = tuple(plans)
        slots = []
        for position in range(max((len(plan) for plan in plans), default=0)):
            # Absent slots repeat the plan's last kernel so every column
            # holds valid values; ``present`` masks them out.
            kernels = [plan.kernels[min(position, len(plan) - 1)] for plan in plans]
            columns = {
                name: np.array([getattr(kernel, name) for kernel in kernels], dtype=dtype)
                for name, dtype in _COLUMN_DTYPES.items()
                if name != "present"
            }
            present = np.array([position < len(plan) for plan in plans])
            slots.append(KernelColumns(present=present, **columns))
        return cls(
            library=plans[0].library if plans else "",
            layer_names=[plan.layer_name for plan in plans],
            notes=[plan.notes for plan in plans],
            kernels=tuple(slots),
        )
