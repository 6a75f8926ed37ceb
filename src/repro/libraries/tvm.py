"""TVM (0.6) OpenCL code-generator planning model for Mali GPUs.

Section IV-A.4 of the paper finds an "atypical behavior pattern" for
TVM-generated OpenCL code: most channel counts are served by an
efficient GEMM-style schedule, but a significant number of
configurations are *untuned out of the box* and fall back to a
direct-convolution-style schedule that is roughly an order of magnitude
slower (Figure 20 shows a 10.5x spread for ResNet-50 layer 14; Figure 19
shows per-layer outcomes ranging from 0.0x — i.e. dramatic slowdowns
when pruning lands on an untuned size — up to 13.9x speedups).

Model: whether a configuration is covered by the out-of-box tuning log
is a deterministic, pseudo-random function of the full layer
configuration — mirroring the practical experience that, from the
user's point of view, which sizes happen to be tuned is essentially
arbitrary.  Crucially this includes the *original* (unpruned) sizes:
Figure 19's 13.9x speedups and 0.0x slowdowns both arise because the
tuning log covers neither all pruned sizes nor all stock sizes.  Untuned
sizes use the fallback schedule; a further fraction use a mediocre
schedule that is tuned but poorly matched.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import KernelColumns, KernelPlan, PlanTable, WorkgroupSize
from ..models.layers import ConvLayerSpec, round_up
from .base import ConvolutionLibrary, exact_product, register_library

#: Executed instructions per MAC of the tuned (GEMM-style) schedule.
TVM_TUNED_ARITH_PER_MAC = 10
TVM_TUNED_MEM_PER_MAC = 1

#: Executed instructions per MAC of the fallback (direct-style) schedule.
TVM_FALLBACK_ARITH_PER_MAC = 26
TVM_FALLBACK_MEM_PER_MAC = 3

#: SIMD-lane utilisation of each schedule class.
TVM_TUNED_EFFICIENCY = 1.0
TVM_MEDIOCRE_EFFICIENCY = 0.45
TVM_FALLBACK_EFFICIENCY = 0.22

#: Out of 100 pseudo-random buckets: configurations falling in the first
#: ``FALLBACK_BUCKETS`` use the fallback schedule, the next
#: ``MEDIOCRE_BUCKETS`` a mediocre schedule, the rest a tuned schedule.
FALLBACK_BUCKETS = 18
MEDIOCRE_BUCKETS = 12

#: Salt of the pseudo-random bucket hash (identifies the tuning-log
#: snapshot the model represents).
TUNING_LOG_SALT = "mali:"


class ScheduleClass(Enum):
    """Quality class of the schedule TVM emits for a configuration."""

    TUNED = "tuned"
    MEDIOCRE = "mediocre"
    FALLBACK = "fallback"


#: Schedule classes in bucket order (fallback buckets first), and each
#: class's cost model, indexed the same way.
_SCHEDULES = (ScheduleClass.FALLBACK, ScheduleClass.MEDIOCRE, ScheduleClass.TUNED)
_BUCKET_LIMITS = (FALLBACK_BUCKETS, FALLBACK_BUCKETS + MEDIOCRE_BUCKETS)
_ARITH_PER_MAC = np.array(
    [TVM_FALLBACK_ARITH_PER_MAC, TVM_TUNED_ARITH_PER_MAC, TVM_TUNED_ARITH_PER_MAC]
)
_MEM_PER_MAC = np.array([TVM_FALLBACK_MEM_PER_MAC, TVM_TUNED_MEM_PER_MAC, TVM_TUNED_MEM_PER_MAC])
_EFFICIENCY = np.array(
    [TVM_FALLBACK_EFFICIENCY, TVM_MEDIOCRE_EFFICIENCY, TVM_TUNED_EFFICIENCY]
)
_WORKGROUPS = np.array(
    [WorkgroupSize(1, 1, 8), WorkgroupSize(4, 4, 1), WorkgroupSize(16, 4, 1)], dtype=object
)
_TAGS = np.array([klass.value for klass in _SCHEDULES], dtype=object)
_NAMES = np.array([f"tvm_conv2d_{klass.value}" for klass in _SCHEDULES], dtype=object)


def configuration_bucket(layer: ConvLayerSpec, channels=None):
    """Deterministic pseudo-random bucket (0..99) of a configuration.

    With ``channels``, an int64 array with the bucket of each filter count.
    """

    prefix = (
        f"{TUNING_LOG_SALT}{layer.in_channels}x{layer.kernel_size}s{layer.stride}"
        f"h{layer.input_hw}c"
    )
    counts = [layer.out_channels] if channels is None else np.asarray(channels).tolist()
    buckets = [
        int.from_bytes(hashlib.sha256(f"{prefix}{count}".encode("utf-8")).digest()[:4], "little")
        % 100
        for count in counts
    ]
    return buckets[0] if channels is None else np.array(buckets, dtype=np.int64)


def _schedule_index(buckets):
    """Position in ``_SCHEDULES`` of each bucket's schedule class."""

    return np.searchsorted(_BUCKET_LIMITS, buckets, side="right")


def schedule_class(layer: ConvLayerSpec) -> ScheduleClass:
    """Which schedule class TVM uses for this layer configuration."""

    return _SCHEDULES[_schedule_index(configuration_bucket(layer))]


@register_library
class TvmLibrary(ConvolutionLibrary):
    """TVM 0.6 OpenCL code-generator planner for Mali GPUs."""

    name = "tvm"
    api = "opencl"
    version = "0.6"

    def plan(
        self,
        layer: ConvLayerSpec,
        device: DeviceSpec,
        channels: Optional[Sequence[int]] = None,
    ) -> Union[KernelPlan, PlanTable]:
        self.check_device(device)
        counts = layer.out_channel_array(channels)
        buckets = configuration_bucket(layer, counts)
        schedule = _schedule_index(buckets)
        padded_macs = exact_product(
            layer.macs_per_output_element, round_up(counts, 4), layer.output_pixels
        )
        kernel = KernelColumns(
            name=_NAMES[schedule],
            arithmetic_instructions=exact_product(_ARITH_PER_MAC[schedule], padded_macs),
            memory_instructions=exact_product(_MEM_PER_MAC[schedule], padded_macs),
            work_items=exact_product(counts, layer.output_pixels),
            workgroup=_WORKGROUPS[schedule],
            vector_efficiency=_EFFICIENCY[schedule],
            dispatches_job=True,
            tag=_TAGS[schedule],
        )
        notes = [
            f"schedule={tag} bucket={bucket}"
            for tag, bucket in zip(_TAGS[schedule].tolist(), buckets.tolist())
        ]
        return self._planned(layer, channels, notes, (kernel,))
