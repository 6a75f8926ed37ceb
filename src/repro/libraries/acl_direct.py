"""Arm Compute Library (v19.02) Direct convolution planning model.

Section IV-A.2 and IV-B.2 of the paper characterise ACL's direct
convolution path:

* the convolution is dispatched as a single kernel (no job splits), but
  the library selects the OpenCL **workgroup size** from a small set of
  candidates based on the layer shape, and that selection — invisible to
  the user — determines performance (Table V: 90 channels -> 2x1x8,
  91 -> 1x1x8, 92 -> 4x1x1, 93 -> 1x1x8);
* the result is **three alternating execution levels** (Figure 12) and
  dramatic slowdowns when pruning only one channel from layers whose
  original channel count is a multiple of the vector width (Figure 10
  shows 0.2x-0.9x "speedups", i.e. up to 5x slowdowns, with the 1x1
  layers hit hardest).

The model: the workgroup is chosen by channel divisibility (the rule
that reproduces Table V), and the kernel's SIMD-lane utilisation and
cache locality depend on that choice.  1x1 convolutions vectorise over
output channels, so a channel count that is not a multiple of 4 forces
the narrow variants and costs far more than the ~1% extra instructions
would suggest; 3x3 convolutions vectorise over the spatial window and
only pay a modest penalty.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import KernelColumns, KernelPlan, PlanTable, WorkgroupSize
from ..models.layers import ConvLayerSpec
from .base import ConvolutionLibrary, exact_product, exact_sum, register_library

#: Executed instructions per multiply-accumulate of the direct kernel.
#: Direct convolution is a deep scalar loop nest with explicit address
#: arithmetic, which is why the paper finds it "generally slower than
#: all the other methods".
DIRECT_ARITH_PER_MAC = 24
DIRECT_MEM_PER_MAC = 2

#: Additional per-output-element bookkeeping instructions (loop setup,
#: bias add, output address computation) that do not vectorise.
DIRECT_ARITH_PER_OUTPUT = 16

#: Workgroup candidates the library selects between (Table V).
WORKGROUP_BY_DIVISIBILITY = {
    4: WorkgroupSize(4, 1, 1),
    2: WorkgroupSize(2, 1, 8),
    1: WorkgroupSize(1, 1, 8),
}

#: SIMD-lane utilisation of the kernel by (vector width the channel
#: count supports, kernel size class).  1x1 kernels vectorise over
#: output channels; larger kernels vectorise over the filter window.
_POINTWISE_EFFICIENCY = {4: 1.0, 2: 0.62, 1: 0.42}
_SPATIAL_EFFICIENCY = {4: 1.0, 2: 0.93, 1: 0.82}

#: Cache locality of the selected workgroup: workgroups with a single
#: output column (x == 1) cannot reuse input rows across neighbouring
#: work items; the effect is worst on large feature maps.
_LOCALITY_WIDE = 1.0
_LOCALITY_NARROW_SMALL_MAP = 0.7
_LOCALITY_NARROW_LARGE_MAP = 0.35
_LARGE_MAP_THRESHOLD = 56


def _by_divisibility(values: dict, dtype=None) -> np.ndarray:
    """Lookup array indexed by a divisibility (1, 2 or 4)."""

    table = np.zeros(max(values) + 1, dtype=dtype)
    for divisibility, value in values.items():
        table[divisibility] = value
    return table


_WORKGROUPS = _by_divisibility(WORKGROUP_BY_DIVISIBILITY, dtype=object)
_POINTWISE = _by_divisibility(_POINTWISE_EFFICIENCY)
_SPATIAL = _by_divisibility(_SPATIAL_EFFICIENCY)
#: Whether each workgroup spans several output columns (x >= 2).
_WIDE = _by_divisibility(
    {divisibility: group.x >= 2 for divisibility, group in WORKGROUP_BY_DIVISIBILITY.items()},
    dtype=bool,
)


def channel_divisibility(out_channels):
    """Largest supported vector width (4, 2 or 1) dividing the channels.

    Works elementwise on an array of channel counts.
    """

    return 4 - 2 * (out_channels % 4 != 0) - (out_channels % 2 != 0)


def select_workgroup(layer: ConvLayerSpec, channels=None):
    """ACL's workgroup-size choice for a direct convolution layer.

    With ``channels`` (an array of filter counts), one choice per count.
    """

    counts = layer.out_channels if channels is None else channels
    return _WORKGROUPS[channel_divisibility(counts)]


def kernel_efficiency(layer: ConvLayerSpec, channels=None) -> Tuple:
    """(vector_efficiency, memory_locality) of the direct kernel.

    With ``channels`` (an array of filter counts), one pair of arrays.
    """

    counts = layer.out_channels if channels is None else channels
    divisibility = channel_divisibility(counts)
    efficiencies = _POINTWISE if layer.kernel_size == 1 else _SPATIAL
    if layer.input_hw >= _LARGE_MAP_THRESHOLD:
        narrow = _LOCALITY_NARROW_LARGE_MAP
    else:
        narrow = _LOCALITY_NARROW_SMALL_MAP
    locality = np.where(_WIDE[divisibility], _LOCALITY_WIDE, narrow)
    return efficiencies[divisibility], locality


@register_library
class AclDirectLibrary(ConvolutionLibrary):
    """ACL v19.02 Direct convolution planner for Mali GPUs."""

    name = "acl-direct"
    api = "opencl"
    version = "v19.02"

    def instructions(self, layer: ConvLayerSpec, out_channels) -> Tuple:
        """(arithmetic, memory) executed instructions per filter count."""

        macs = exact_product(layer.macs_per_output_element, out_channels, layer.output_pixels)
        outputs = exact_product(out_channels, layer.output_pixels)
        arith = exact_sum(
            exact_product(DIRECT_ARITH_PER_MAC, macs),
            exact_product(DIRECT_ARITH_PER_OUTPUT, outputs),
        )
        mem = exact_product(DIRECT_MEM_PER_MAC, macs)
        return arith, mem

    def plan(
        self,
        layer: ConvLayerSpec,
        device: DeviceSpec,
        channels: Optional[Sequence[int]] = None,
    ) -> Union[KernelPlan, PlanTable]:
        self.check_device(device)
        counts = layer.out_channel_array(channels)
        workgroups = select_workgroup(layer, counts)
        vector_efficiency, locality = kernel_efficiency(layer, counts)
        arith, mem = self.instructions(layer, counts)
        kernel = KernelColumns(
            name=f"direct_convolution{layer.kernel_size}x{layer.kernel_size}_nhwc",
            arithmetic_instructions=arith,
            memory_instructions=mem,
            work_items=exact_product(counts, layer.output_pixels),
            workgroup=workgroups,
            vector_efficiency=vector_efficiency,
            memory_locality=locality,
            dispatches_job=True,
            tag="direct",
        )
        notes = [
            f"workgroup={workgroup} divisibility={divisibility}"
            for workgroup, divisibility in zip(
                workgroups.tolist(), channel_divisibility(counts).tolist()
            )
        ]
        return self._planned(layer, channels, notes, (kernel,))
