"""cuDNN (v7) convolution planning model for Nvidia Jetson GPUs.

The paper's Section IV-A.1 profiles cuDNN on the Jetson TX2 and Nano and
observes a clean **staircase**: inference time is flat while the number
of output channels stays within the same tile of the implicit-GEMM
algorithm and drops when the channel count crosses a tile boundary
(Figures 2, 4, 5 and 7).  For a 128-filter ResNet-50 layer the stairs
fall at 96 and 64 channels with a 1.3x step (Figure 4) and pruning all
the way to one tile yields 3.3x (Figure 6); for larger layers the tile
is bigger, so the stairs are wider and the gaps uneven (Figure 5).

Model: cuDNN selects an implicit-GEMM algorithm whose thread-block tile
covers ``tile_channels`` output channels; the kernel computes
``ceil(C / tile) * tile`` channels worth of work (the padding inside the
last tile is wasted).  The tile grows with the channel count — 32 up to
128 channels, 64 up to 256, 128 beyond — which is what makes the
staircase of a 512-filter layer coarser than that of a 128-filter layer
and produces the uneven gaps where the algorithm switches.  A fixed
algorithm-selection / launch overhead gives the observed 1.3x (one stair
near the top of a 128-filter layer) and 3.3x (prune to a single tile)
ratios.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import KernelColumns, KernelPlan, PlanTable, WorkgroupSize
from ..models.layers import ConvLayerSpec
from .base import ConvolutionLibrary, exact_product, register_library

#: Executed instructions per multiply-accumulate of the implicit-GEMM
#: kernel (FMA plus the index arithmetic of the implicit im2col).
CUDNN_ARITH_PER_MAC = 24
CUDNN_MEM_PER_MAC = 3

#: Fixed per-call cost (algorithm selection, workspace setup, launch),
#: expressed in arithmetic instructions so it scales with device speed.
CUDNN_FIXED_OVERHEAD_INSTRUCTIONS = 160_000_000

#: Output-channel tile candidates and the channel counts up to which
#: each is selected.
TILE_SELECTION = ((128, 32), (256, 64), (float("inf"), 128))

#: Thread-block shape of the implicit GEMM kernel.
CUDNN_WORKGROUP = WorkgroupSize(32, 4, 1)


def select_tile(out_channels):
    """Output-channel tile the cuDNN heuristic picks (elementwise on arrays)."""

    limits = [limit for limit, _ in TILE_SELECTION]
    tiles = np.array([tile for _, tile in TILE_SELECTION])
    return tiles[np.searchsorted(limits, out_channels)]


def padded_channels(out_channels) -> Tuple:
    """(padded channel count, tile) after rounding up to full tiles."""

    tile = select_tile(out_channels)
    return exact_product(-(-out_channels // tile), tile), tile


@register_library
class CudnnLibrary(ConvolutionLibrary):
    """cuDNN v7 implicit-GEMM planner for Jetson GPUs."""

    name = "cudnn"
    api = "cuda"
    version = "v7"

    def instructions(self, layer: ConvLayerSpec, padded) -> Tuple:
        """(arithmetic, memory) of the conv kernel per padded filter count."""

        padded_macs = exact_product(
            layer.macs_per_output_element, padded, layer.output_pixels
        )
        arith = exact_product(CUDNN_ARITH_PER_MAC, padded_macs)
        mem = exact_product(CUDNN_MEM_PER_MAC, padded_macs)
        return arith, mem

    def plan(
        self,
        layer: ConvLayerSpec,
        device: DeviceSpec,
        channels: Optional[Sequence[int]] = None,
    ) -> Union[KernelPlan, PlanTable]:
        self.check_device(device)
        padded, tile = padded_channels(layer.out_channel_array(channels))
        arith, mem = self.instructions(layer, padded)
        kernels = (
            KernelColumns(
                name="cudnn_convolution_setup",
                arithmetic_instructions=CUDNN_FIXED_OVERHEAD_INSTRUCTIONS,
                memory_instructions=CUDNN_FIXED_OVERHEAD_INSTRUCTIONS // 8,
                work_items=device.full_utilization_work_items,
                workgroup=CUDNN_WORKGROUP,
                dispatches_job=False,
                tag="setup",
            ),
            KernelColumns(
                name="implicit_gemm_conv2d",
                arithmetic_instructions=arith,
                memory_instructions=mem,
                work_items=np.maximum(exact_product(padded, layer.output_pixels) // 4, 1),
                workgroup=CUDNN_WORKGROUP,
                dispatches_job=True,
                tag="conv",
            ),
        )
        notes = [
            f"tile_channels={tile_count} padded_channels={padded_count}"
            for tile_count, padded_count in zip(tile.tolist(), padded.tolist())
        ]
        return self._planned(layer, channels, notes, kernels)
