"""Common interface for the deep-learning library models.

Each library model reproduces the *planning heuristics* of one of the
libraries the paper characterises (Arm Compute Library GEMM and Direct
convolution, cuDNN, TVM): given a convolutional layer specification and
a target device it decides which kernels to dispatch, how much work each
performs, which workgroup sizes to use and how many GPU jobs are
created.  The resulting :class:`~repro.gpusim.kernel.KernelPlan` is then
costed by the GPU simulator.

Each library has a single planner, :meth:`ConvolutionLibrary.plan`, and
it is array-native: given a channel array it computes every kernel field
for all channel counts at once and returns a
:class:`~repro.gpusim.kernel.PlanTable` with one row per count; without
one it returns the one-row :class:`~repro.gpusim.kernel.KernelPlan` of
the layer as specified.  Instruction counts are int64 columns, and
:func:`exact_product` / :func:`exact_sum` raise on int64 overflow
instead of wrapping.

The split between *planner* (this package) and *simulator*
(:mod:`repro.gpusim`) mirrors the paper's methodology: the unintuitive
latency patterns are caused by library decisions, which the paper makes
visible by replaying them on a Mali GPU simulator.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..api.registry import Registry, UnknownPluginError, warn_deprecated
from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import KernelColumns, KernelPlan, PlanTable
from ..models.layers import ConvLayerSpec

_INT64_MAX = int(np.iinfo(np.int64).max)


class LibraryError(ValueError):
    """Raised when a library cannot plan a layer (wrong API, bad shape)."""


def _bound(value) -> int:
    """Largest entry of a non-negative int column or int (0 when empty)."""

    if isinstance(value, np.ndarray):
        return int(value.max()) if value.size else 0
    return int(value)


def _exactly(combine, operands):
    """Fold ``operands`` with ``combine`` over Python ints, then back to int64."""

    exact = [
        operand.astype(object) if isinstance(operand, np.ndarray) else int(operand)
        for operand in operands
    ]
    result = exact[0]
    for operand in exact[1:]:
        result = combine(result, operand)
    if _bound(np.asarray(result)) > _INT64_MAX:
        raise OverflowError("instruction count overflows int64")
    return np.asarray(result).astype(np.int64) if isinstance(result, np.ndarray) else result


def exact_product(*factors):
    """Elementwise product of non-negative int64 columns and ints.

    Raises :class:`OverflowError` when any element exceeds int64 instead
    of letting NumPy wrap it.  The product of the factors' maxima bounds
    every element, so the exact (Python-int) path only runs when that
    bound itself overflows.
    """

    bound = 1
    for factor in factors:
        bound *= _bound(factor)
    if bound > _INT64_MAX:
        return _exactly(lambda a, b: a * b, factors)
    result = factors[0]
    for factor in factors[1:]:
        result = result * factor
    return result


def exact_sum(*terms):
    """Elementwise sum of non-negative int64 columns and ints (see above)."""

    if sum(_bound(term) for term in terms) > _INT64_MAX:
        return _exactly(lambda a, b: a + b, terms)
    result = terms[0]
    for term in terms[1:]:
        result = result + term
    return result


class UnknownLibraryError(UnknownPluginError):
    """Raised when a library name is not registered."""


class ConvolutionLibrary(abc.ABC):
    """Base class for library planning models."""

    #: Registry name, e.g. ``"acl-gemm"``.
    name: str = ""
    #: Programming API the library targets (``"opencl"`` or ``"cuda"``).
    api: str = ""
    #: Library version the heuristics were modelled after.
    version: str = ""

    def check_device(self, device: DeviceSpec) -> None:
        """Raise :class:`LibraryError` if the device API does not match."""

        if device.api != self.api:
            raise LibraryError(
                f"{self.name} targets {self.api} devices, but {device.board} "
                f"({device.name}) is a {device.api} device"
            )

    @abc.abstractmethod
    def plan(
        self,
        layer: ConvLayerSpec,
        device: DeviceSpec,
        channels: Optional[Sequence[int]] = None,
    ) -> Union[KernelPlan, PlanTable]:
        """Plan the kernels dispatched to run one inference of ``layer``.

        With ``channels``, plan the layer pruned to each of those filter
        counts at once and return a :class:`PlanTable` with one row per
        count; without, return the :class:`KernelPlan` of ``layer``.
        """

    def _planned(
        self,
        layer: ConvLayerSpec,
        channels: Optional[Sequence[int]],
        notes: List[str],
        kernels: Tuple[KernelColumns, ...],
    ) -> Union[KernelPlan, PlanTable]:
        """Wrap a planner's columns: the table, or its row for ``channels=None``."""

        table = PlanTable(
            library=self.name,
            layer_names=[layer.name] * len(notes),
            notes=notes,
            kernels=kernels,
        )
        return table if channels is not None else table.row(0)

    def plan_with_channels(
        self, layer: ConvLayerSpec, out_channels: int, device: DeviceSpec
    ) -> KernelPlan:
        """Plan the layer after pruning it to ``out_channels`` filters."""

        return self.plan(layer.with_out_channels(out_channels), device)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} api={self.api!r}>"


#: The unified library registry (see :mod:`repro.api.registry`); entries
#: are :class:`ConvolutionLibrary` subclasses, instantiated per lookup
#: via ``LIBRARIES.create(name)``.
LIBRARIES: Registry[Type[ConvolutionLibrary]] = Registry(
    "library",
    error_cls=UnknownLibraryError,
    aliases={
        "acl": "acl-gemm",
        "arm-compute-library": "acl-gemm",
        "acl_gemm": "acl-gemm",
        "acl_direct": "acl-direct",
        "cudnn7": "cudnn",
        "tvm-opencl": "tvm",
    },
)


def register_library(cls: Type[ConvolutionLibrary]) -> Type[ConvolutionLibrary]:
    """Class decorator adding a library model to the registry."""

    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty 'name'")
    return LIBRARIES.register(cls.name, cls)


def available_libraries() -> List[str]:
    """Registered library names, sorted."""

    return LIBRARIES.available()


def get_library(name: str) -> ConvolutionLibrary:
    """Instantiate a library model by name or alias.

    .. deprecated::
        Use ``LIBRARIES.create(name)`` or :class:`repro.api.Target` instead.
    """

    warn_deprecated(
        "repro.libraries.get_library",
        "repro.libraries.base.LIBRARIES.create or repro.api.Target",
    )
    return LIBRARIES.create(name)
