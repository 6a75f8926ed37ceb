"""Layer specifications for the CNN model zoo.

The paper characterises *single convolutional layers* under channel
pruning, so the model zoo represents networks as graphs of lightweight
layer *specifications* (shapes and hyper-parameters) rather than trained
weight tensors.  Weights can be attached on demand (``repro.nn`` uses
deterministic pseudo-random weights) when a layer has to be executed
numerically.

Terminology follows the paper:

* ``in_channels`` — channels of the input tensor of the layer.
* ``out_channels`` — number of filters of the layer; *channel pruning*
  removes output channels (filters), shrinking ``out_channels``.
* ``input_hw`` — spatial height/width of the input tensor.

All specs are immutable dataclasses; pruning produces *new* spec objects.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np


class LayerSpecError(ValueError):
    """Raised when a layer specification is structurally invalid."""


def _require_positive(name: str, value: int) -> None:
    if value <= 0:
        raise LayerSpecError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class LayerSpec:
    """Base class for all layer specifications."""

    name: str

    @property
    def is_convolution(self) -> bool:
        return isinstance(self, ConvLayerSpec)

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        """Return the output shape ``(channels, height, width)``.

        The default implementation passes the input shape through
        unchanged, which is correct for element-wise layers.
        """

        return input_shape


@dataclass(frozen=True)
class ConvLayerSpec(LayerSpec):
    """A 2D convolutional layer.

    Parameters mirror the layers profiled in the paper: ResNet-50 uses
    1x1 and 3x3 filters, VGG-16 uses 3x3 filters, AlexNet uses 11x11,
    5x5 and 3x3 filters.
    """

    in_channels: int = 1
    out_channels: int = 1
    kernel_size: int = 3
    stride: int = 1
    padding: int = 0
    input_hw: int = 56
    groups: int = 1
    bias: bool = True

    def __post_init__(self) -> None:
        _require_positive("in_channels", self.in_channels)
        _require_positive("out_channels", self.out_channels)
        _require_positive("kernel_size", self.kernel_size)
        _require_positive("stride", self.stride)
        _require_positive("input_hw", self.input_hw)
        _require_positive("groups", self.groups)
        if self.padding < 0:
            raise LayerSpecError(f"padding must be non-negative, got {self.padding}")
        if self.in_channels % self.groups != 0:
            raise LayerSpecError(
                f"in_channels={self.in_channels} not divisible by groups={self.groups}"
            )
        if self.out_channels % self.groups != 0:
            raise LayerSpecError(
                f"out_channels={self.out_channels} not divisible by groups={self.groups}"
            )
        if self.output_hw < 1:
            raise LayerSpecError(
                f"layer {self.name!r} produces empty output: "
                f"input_hw={self.input_hw}, kernel={self.kernel_size}, "
                f"stride={self.stride}, padding={self.padding}"
            )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def output_hw(self) -> int:
        """Spatial size of the output feature map (square)."""

        return (self.input_hw + 2 * self.padding - self.kernel_size) // self.stride + 1

    @property
    def output_pixels(self) -> int:
        """Number of output spatial positions (H_out * W_out)."""

        return self.output_hw * self.output_hw

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        return (self.out_channels, self.output_hw, self.output_hw)

    # ------------------------------------------------------------------
    # Work metrics (used by the library planners and the simulator)
    # ------------------------------------------------------------------
    @property
    def macs_per_output_element(self) -> int:
        """Multiply-accumulates needed for one output activation."""

        return (self.in_channels // self.groups) * self.kernel_size * self.kernel_size

    @property
    def macs(self) -> int:
        """Total multiply-accumulates for one inference of this layer."""

        return self.macs_per_output_element * self.out_channels * self.output_pixels

    @property
    def flops(self) -> int:
        """Total floating point operations (2 per MAC)."""

        return 2 * self.macs

    @property
    def weight_count(self) -> int:
        """Number of weight parameters (excluding bias)."""

        return (
            self.out_channels
            * (self.in_channels // self.groups)
            * self.kernel_size
            * self.kernel_size
        )

    @property
    def bias_count(self) -> int:
        return self.out_channels if self.bias else 0

    @property
    def parameter_count(self) -> int:
        return self.weight_count + self.bias_count

    @property
    def input_activation_count(self) -> int:
        return self.in_channels * self.input_hw * self.input_hw

    @property
    def output_activation_count(self) -> int:
        return self.out_channels * self.output_pixels

    @property
    def im2col_matrix_shape(self) -> Tuple[int, int]:
        """Shape of the unrolled patch matrix (rows=patch size, cols=pixels)."""

        rows = (self.in_channels // self.groups) * self.kernel_size * self.kernel_size
        return (rows, self.output_pixels)

    @property
    def im2col_element_count(self) -> int:
        rows, cols = self.im2col_matrix_shape
        return rows * cols

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------
    def out_channel_array(self, channels: Optional[Sequence[int]] = None) -> np.ndarray:
        """Filter counts of a channel sweep as a validated int64 array.

        ``None`` stands for this layer's own count.  Every count must
        pass the checks :meth:`with_out_channels` would apply to it
        (positive, divisible by ``groups``), so array-wide planning
        rejects exactly the configurations a per-count spec would.
        """

        if channels is None:
            return np.array([self.out_channels], dtype=np.int64)
        counts = np.asarray(channels, dtype=np.int64)
        if counts.ndim != 1:
            raise LayerSpecError(f"channel counts must be one-dimensional, got {counts.shape}")
        if len(counts) and counts.min() <= 0:
            raise LayerSpecError(f"out_channels must be positive, got {counts.min()}")
        if self.groups > 1 and np.any(counts % self.groups):
            bad = counts[counts % self.groups != 0][0]
            raise LayerSpecError(
                f"out_channels={bad} not divisible by groups={self.groups}"
            )
        return counts

    def with_out_channels(self, out_channels: int) -> "ConvLayerSpec":
        """Return a copy of this spec with a different filter count.

        This models channel pruning of the layer itself: the output
        channel dimension shrinks, everything else stays constant.
        """

        _require_positive("out_channels", out_channels)
        return dataclasses.replace(self, out_channels=out_channels)

    def with_in_channels(self, in_channels: int) -> "ConvLayerSpec":
        """Return a copy with a different input channel count.

        Used when the *previous* layer has been pruned and this layer
        consumes its output.
        """

        _require_positive("in_channels", in_channels)
        return dataclasses.replace(self, in_channels=in_channels)

    def pruned(self, n_pruned: int) -> "ConvLayerSpec":
        """Return the spec after removing ``n_pruned`` output channels."""

        if n_pruned < 0:
            raise LayerSpecError(f"cannot prune a negative number of channels: {n_pruned}")
        if n_pruned >= self.out_channels:
            raise LayerSpecError(
                f"cannot prune {n_pruned} channels from a layer with "
                f"{self.out_channels} channels"
            )
        return self.with_out_channels(self.out_channels - n_pruned)

    # ------------------------------------------------------------------
    # Serialization (profile store lines, Plan steps)
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-ready payload with every constructor field."""

        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ConvLayerSpec":
        """Rebuild a spec from :meth:`as_dict` output (validates on init)."""

        fields = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - fields
        if unknown:
            raise LayerSpecError(
                f"unknown layer spec fields: {sorted(unknown)}"
            )
        return cls(**payload)


@dataclass(frozen=True)
class PoolLayerSpec(LayerSpec):
    """Max or average pooling layer."""

    kernel_size: int = 2
    stride: int = 2
    padding: int = 0
    mode: str = "max"

    def __post_init__(self) -> None:
        _require_positive("kernel_size", self.kernel_size)
        _require_positive("stride", self.stride)
        if self.mode not in ("max", "avg"):
            raise LayerSpecError(f"pooling mode must be 'max' or 'avg', got {self.mode!r}")

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        channels, height, width = input_shape
        out_h = (height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (width + 2 * self.padding - self.kernel_size) // self.stride + 1
        if out_h < 1 or out_w < 1:
            raise LayerSpecError(f"pooling layer {self.name!r} produces empty output")
        return (channels, out_h, out_w)


@dataclass(frozen=True)
class ActivationLayerSpec(LayerSpec):
    """Element-wise activation (ReLU, Tanh, Sigmoid)."""

    kind: str = "relu"

    def __post_init__(self) -> None:
        if self.kind not in ("relu", "tanh", "sigmoid"):
            raise LayerSpecError(f"unknown activation kind {self.kind!r}")


@dataclass(frozen=True)
class BatchNormLayerSpec(LayerSpec):
    """Batch normalisation over channels."""

    num_features: int = 1

    def __post_init__(self) -> None:
        _require_positive("num_features", self.num_features)


@dataclass(frozen=True)
class DropoutLayerSpec(LayerSpec):
    """Dropout layer (identity at inference time)."""

    rate: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise LayerSpecError(f"dropout rate must be in [0, 1), got {self.rate}")


@dataclass(frozen=True)
class FullyConnectedLayerSpec(LayerSpec):
    """Dense layer; appears at the tail of VGG-16 and AlexNet."""

    in_features: int = 1
    out_features: int = 1
    bias: bool = True

    def __post_init__(self) -> None:
        _require_positive("in_features", self.in_features)
        _require_positive("out_features", self.out_features)

    @property
    def macs(self) -> int:
        return self.in_features * self.out_features

    @property
    def flops(self) -> int:
        return 2 * self.macs

    @property
    def parameter_count(self) -> int:
        return self.in_features * self.out_features + (
            self.out_features if self.bias else 0
        )

    def output_shape(self, input_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        return (self.out_features, 1, 1)


def conv_output_hw(input_hw: int, kernel_size: int, stride: int, padding: int) -> int:
    """Spatial output size for a square convolution."""

    return (input_hw + 2 * padding - kernel_size) // stride + 1


def same_padding(kernel_size: int) -> int:
    """Padding that preserves spatial size for stride-1 convolutions."""

    return (kernel_size - 1) // 2


def round_up(value, multiple: int):
    """Round ``value`` up to the nearest multiple of ``multiple``.

    Exact integer ceiling division, so it also works elementwise on
    integer arrays and for values beyond float precision (2**53).
    """

    if multiple <= 0:
        raise ValueError(f"multiple must be positive, got {multiple}")
    return -(-value // multiple) * multiple
