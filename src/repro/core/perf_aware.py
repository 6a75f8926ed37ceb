"""Performance-aware channel pruning.

This module implements the paper's proposal (Sections II-B and V): put
the target device and library *inside* the pruning loop.  Instead of
assuming that removing channels always reduces latency, the optimiser

1. profiles each layer's latency across channel counts on the target
   (device, library) pair,
2. analyses the staircase to find the *optimal* channel counts — the
   right edge of every latency plateau,
3. restricts pruning decisions to those counts, and
4. trades latency against an accuracy signal when compressing a whole
   network (the greedy latency-per-accuracy loop of ref. [19]).

It also provides the *uninstructed* baseline — pruning by a uniform
fraction with no knowledge of the target — whose potential slowdowns
(up to 2x in the paper, Figure 1) motivate the whole approach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..gpusim.device import DEVICES, DeviceSpec
from ..libraries.base import LIBRARIES, ConvolutionLibrary
from ..models.graph import Network
from ..models.layers import ConvLayerSpec
from ..numerics import fold_sum
from ..profiling.latency_table import LatencyTable, build_latency_table
from ..profiling.runner import ProfileRunner
from .accuracy_model import AccuracyModel, default_accuracy_model
from .criteria import ImportanceCriterion, SequentialCriterion
from .pruner import ChannelPruner, PruningPlan
from .staircase import StaircaseAnalysis, analyze_table, optimal_pruning_levels

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.target import Target


class OptimizationError(ValueError):
    """Raised when an optimisation target cannot be met."""


@dataclass
class LayerProfile:
    """Latency table and staircase analysis of one layer on one target."""

    layer_index: int
    spec: ConvLayerSpec
    table: LatencyTable
    analysis: StaircaseAnalysis

    @property
    def original_time_ms(self) -> float:
        return self.table.time_ms(self.spec.out_channels)

    @property
    def optimal_channel_counts(self) -> List[int]:
        """Channel counts on the right edge of each plateau (ascending)."""

        return optimal_pruning_levels(self.table, max_channels=self.spec.out_channels)

    def time_at(self, channels: int) -> float:
        return self.table.time_ms(channels)

    def speedup_at(self, channels: int) -> float:
        return self.original_time_ms / self.time_at(channels)


@dataclass(frozen=True)
class PruningOutcome:
    """Result of compressing a network for a target."""

    plan: PruningPlan
    channels: Dict[int, int]
    latency_ms: float
    baseline_latency_ms: float
    predicted_accuracy: float
    baseline_accuracy: float

    @property
    def speedup(self) -> float:
        return self.baseline_latency_ms / self.latency_ms

    @property
    def accuracy_drop(self) -> float:
        return self.baseline_accuracy - self.predicted_accuracy


@dataclass(frozen=True)
class StrategyComparison:
    """Performance-aware vs uninstructed pruning at matched compression."""

    performance_aware: PruningOutcome
    uninstructed: PruningOutcome

    @property
    def latency_advantage(self) -> float:
        """How much faster the performance-aware network is (>1 is a win)."""

        return self.uninstructed.latency_ms / self.performance_aware.latency_ms


class PerformanceAwarePruner:
    """Profile-in-the-loop channel pruning for one (device, library) target.

    The target can be given either as a single :class:`repro.api.Target`
    (the canonical form) or as the legacy (device, library) pair of
    names/objects::

        PerformanceAwarePruner(Target("hikey-970", "acl-gemm", runs=5))
        PerformanceAwarePruner("hikey-970", "acl-gemm", runs=5)   # legacy

    ``runner`` lets a :class:`repro.api.Session` share one memoising
    :class:`ProfileRunner` across pruners and experiments.
    """

    def __init__(
        self,
        device: "Union[Target, DeviceSpec, str, None]" = None,
        library: Optional[ConvolutionLibrary | str] = None,
        criterion: Optional[ImportanceCriterion] = None,
        accuracy_model: Optional[AccuracyModel] = None,
        runs: Optional[int] = None,
        *,
        runner: Optional[ProfileRunner] = None,
    ) -> None:
        from ..api.target import Target  # local import: api sits above core

        if isinstance(device, Target):
            if library is not None:
                raise TypeError(
                    "pass either a Target or a (device, library) pair, not both"
                )
            target = device if runs is None else device.with_runs(runs)
            self.target: Optional[Target] = target
            self.device = target.device_spec
            self.library = target.create_library()
            runs = target.runs
        else:
            if device is None or library is None:
                raise TypeError("a Target or a (device, library) pair is required")
            self.device = DEVICES.get(device) if isinstance(device, str) else device
            self.library = (
                LIBRARIES.create(library) if isinstance(library, str) else library
            )
            runs = 3 if runs is None else runs
            try:
                self.target = Target(self.device.name, self.library.name, runs)
            except ValueError:
                # Mismatched (device, library) APIs never made it past
                # planning before; keep that legacy failure mode.
                self.target = None
        self.criterion = criterion or SequentialCriterion()
        self.accuracy_model = accuracy_model
        self.runner = runner or ProfileRunner(
            device=self.device, library=self.library, runs=runs
        )
        self.pruner = ChannelPruner(self.criterion)
        self._profiles: Dict[Tuple[str, int, int], LayerProfile] = {}

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def profile_layer(
        self,
        spec: ConvLayerSpec,
        layer_index: int = -1,
        channel_counts: Optional[Iterable[int]] = None,
        sweep_step: int = 1,
    ) -> LayerProfile:
        """Measure a layer across channel counts and analyse its staircase."""

        key = (spec.name, spec.out_channels, sweep_step)
        if key in self._profiles and channel_counts is None:
            return self._profiles[key]
        if channel_counts is not None:
            counts = list(channel_counts)
            if not counts:
                raise OptimizationError(
                    f"{spec.name}: cannot profile an empty channel sweep"
                )
        else:
            counts = list(range(1, spec.out_channels + 1, sweep_step))
        if spec.out_channels not in counts:
            counts.append(spec.out_channels)
        table = build_latency_table(self.runner, spec, sorted(set(counts)))
        profile = LayerProfile(
            layer_index=layer_index,
            spec=spec,
            table=table,
            analysis=analyze_table(table),
        )
        if channel_counts is None:
            self._profiles[key] = profile
        return profile

    def profile_network(
        self,
        network: Network,
        layer_indices: Optional[Sequence[int]] = None,
        sweep_step: int = 1,
    ) -> Dict[int, LayerProfile]:
        """Profile every (selected) convolutional layer of a network."""

        indices = list(layer_indices) if layer_indices is not None else network.conv_layer_indices
        return {
            index: self.profile_layer(
                network.conv_layer(index).spec, layer_index=index, sweep_step=sweep_step
            )
            for index in indices
        }

    # ------------------------------------------------------------------
    # Single-layer selection
    # ------------------------------------------------------------------
    def select_channels_for_budget(
        self, spec: ConvLayerSpec, budget_ms: float, sweep_step: int = 1
    ) -> int:
        """Most channels the layer can keep within a latency budget.

        This is the paper's "right side of a performance step" rule: for
        the given execution-time budget, keep the largest channel count
        whose measured latency fits.
        """

        profile = self.profile_layer(spec, sweep_step=sweep_step)
        best = profile.table.best_channels_within(budget_ms)
        if best is None:
            raise OptimizationError(
                f"{spec.name}: no channel count fits a {budget_ms:.3f} ms budget "
                f"(fastest measured {min(profile.table.as_series()[1]):.3f} ms)"
            )
        return best

    def snap_to_step(self, spec: ConvLayerSpec, target_channels: int, sweep_step: int = 1) -> int:
        """Adjust a desired channel count to the nearest step-optimal count.

        Returns the largest step-optimal channel count that is not slower
        than the requested target — i.e. slide right along the plateau
        the target sits on (more channels for the same latency), never
        onto a slower plateau.
        """

        if not 1 <= target_channels <= spec.out_channels:
            raise OptimizationError(
                f"{spec.name}: target {target_channels} outside [1, {spec.out_channels}]"
            )
        profile = self.profile_layer(spec, sweep_step=sweep_step)
        # A coarse sweep may not include the naive target itself; measure
        # it directly (the runner memoises) instead of a table lookup.
        target_time = self.runner.measure(spec, target_channels).median_time_ms
        candidates = [
            count
            for count in profile.optimal_channel_counts
            if count >= target_channels and profile.time_at(count) <= target_time * 1.001
        ]
        return max(candidates) if candidates else target_channels

    # ------------------------------------------------------------------
    # Whole-network compression
    # ------------------------------------------------------------------
    def network_latency_ms(
        self,
        network: Network,
        channels: Optional[Mapping[int, int]] = None,
        layer_indices: Optional[Sequence[int]] = None,
    ) -> float:
        """Sum of measured convolutional layer latencies for a configuration."""

        channels = dict(channels or {})
        indices = list(layer_indices) if layer_indices is not None else network.conv_layer_indices
        total = 0.0
        for index in indices:
            spec = network.conv_layer(index).spec
            count = channels.get(index, spec.out_channels)
            total += self.runner.measure(spec, count).median_time_ms
        return total

    def prune_for_latency(
        self,
        network: Network,
        latency_budget_ms: float,
        layer_indices: Optional[Sequence[int]] = None,
        sweep_step: int = 1,
    ) -> PruningOutcome:
        """Compress a network to meet a latency budget, preserving accuracy.

        Greedy loop: all layers start unpruned; at every step the layer
        whose next step-optimal channel count buys the most latency per
        unit of predicted accuracy loss is pruned, until the summed layer
        latency fits the budget.
        """

        accuracy_model = self.accuracy_model or default_accuracy_model(network)
        indices = list(layer_indices) if layer_indices is not None else network.conv_layer_indices
        profiles = self.profile_network(network, indices, sweep_step=sweep_step)

        channels: Dict[int, int] = {
            index: profiles[index].spec.out_channels for index in indices
        }
        baseline_latency = fold_sum(profiles[index].original_time_ms for index in indices)
        current_latency = baseline_latency
        baseline_accuracy = accuracy_model.predict(network)

        while current_latency > latency_budget_ms:
            best_move: Optional[Tuple[float, int, int, float]] = None
            current_accuracy = accuracy_model.predict(network, channels)
            for index in indices:
                profile = profiles[index]
                current_time = profile.time_at(channels[index])
                # The next step down must actually be faster: with parallel
                # staircases the adjacent plateau can be slower, in which
                # case we skip over it to the next genuinely faster one.
                faster_options = [
                    count
                    for count in profile.optimal_channel_counts
                    if count < channels[index] and profile.time_at(count) < current_time
                ]
                if not faster_options:
                    continue
                candidate = max(faster_options)
                latency_gain = current_time - profile.time_at(candidate)
                trial = dict(channels)
                trial[index] = candidate
                accuracy_loss = current_accuracy - accuracy_model.predict(network, trial)
                score = latency_gain / max(accuracy_loss, 1e-9)
                if best_move is None or score > best_move[0]:
                    best_move = (score, index, candidate, latency_gain)
            if best_move is None:
                raise OptimizationError(
                    f"cannot reach {latency_budget_ms:.2f} ms: the fully pruned "
                    f"network still needs {current_latency:.2f} ms"
                )
            _, index, candidate, latency_gain = best_move
            channels[index] = candidate
            current_latency -= latency_gain

        plan = self.pruner.plan_network(network, channels)
        return PruningOutcome(
            plan=plan,
            channels=dict(channels),
            latency_ms=current_latency,
            baseline_latency_ms=baseline_latency,
            predicted_accuracy=accuracy_model.predict(network, channels),
            baseline_accuracy=baseline_accuracy,
        )

    def prune_uninstructed(
        self,
        network: Network,
        fraction: float,
        layer_indices: Optional[Sequence[int]] = None,
    ) -> PruningOutcome:
        """The baseline: uniform pruning with no device/library knowledge."""

        accuracy_model = self.accuracy_model or default_accuracy_model(network)
        indices = list(layer_indices) if layer_indices is not None else network.conv_layer_indices
        plan = self.pruner.prune_uniform(network, fraction, indices)
        channels = plan.channels_after()
        return PruningOutcome(
            plan=plan,
            channels=channels,
            latency_ms=self.network_latency_ms(network, channels, indices),
            baseline_latency_ms=self.network_latency_ms(network, None, indices),
            predicted_accuracy=accuracy_model.predict(network, channels),
            baseline_accuracy=accuracy_model.predict(network),
        )

    def prune_performance_aware_fraction(
        self,
        network: Network,
        fraction: float,
        layer_indices: Optional[Sequence[int]] = None,
        sweep_step: int = 1,
    ) -> PruningOutcome:
        """Prune roughly ``fraction`` of each layer, snapped to step-optimal counts.

        The per-layer target is the same as the uninstructed baseline's;
        the difference is that each target is slid to the right edge of
        its latency plateau, so the pruned network never pays for
        channels it does not get and never lands just past a step.
        """

        accuracy_model = self.accuracy_model or default_accuracy_model(network)
        indices = list(layer_indices) if layer_indices is not None else network.conv_layer_indices
        channels: Dict[int, int] = {}
        for index in indices:
            spec = network.conv_layer(index).spec
            naive_target = max(1, round(spec.out_channels * (1.0 - fraction)))
            channels[index] = self.snap_to_step(spec, naive_target, sweep_step=sweep_step)
        plan = self.pruner.plan_network(network, channels)
        return PruningOutcome(
            plan=plan,
            channels=channels,
            latency_ms=self.network_latency_ms(network, channels, indices),
            baseline_latency_ms=self.network_latency_ms(network, None, indices),
            predicted_accuracy=accuracy_model.predict(network, channels),
            baseline_accuracy=accuracy_model.predict(network),
        )

    def compare_with_uninstructed(
        self,
        network: Network,
        fraction: float,
        layer_indices: Optional[Sequence[int]] = None,
        sweep_step: int = 1,
    ) -> StrategyComparison:
        """Head-to-head comparison at a matched compression fraction."""

        aware = self.prune_performance_aware_fraction(
            network, fraction, layer_indices, sweep_step=sweep_step
        )
        naive = self.prune_uninstructed(network, fraction, layer_indices)
        return StrategyComparison(performance_aware=aware, uninstructed=naive)
