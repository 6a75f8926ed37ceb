"""Measurement runner: median-of-N latency measurements per configuration.

``ProfileRunner`` is the reproduction of the paper's measurement
protocol (Section III-D): for each (device, library, layer, channel
count) configuration, run the layer several times and report the median.

Sweeps are batched: :meth:`ProfileRunner.measure_sweeps` plans each
layer's requested channel counts with one array-wide library ``plan``
call, costs every layer's plan table in one vectorized
:func:`~repro.gpusim.batch.simulate_batch` call and applies the
repetition noise as a single array operation, so many layers' staircase
sweeps are one NumPy pass instead of ``channels x runs`` scalar
simulations.  :meth:`ProfileRunner.measure_many` is its one-sweep form.
Results are memoised in-process and — when a
:class:`~repro.profiling.store.ProfileStore` is attached — persisted
across processes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from typing import TYPE_CHECKING

import numpy as np

from ..api.registry import warn_deprecated
from ..gpusim.batch import simulate_batch
from ..gpusim.device import DEVICES, DeviceSpec
from ..gpusim.kernel import PlanTable
from ..libraries.base import LIBRARIES, ConvolutionLibrary
from ..models.layers import ConvLayerSpec
from ..obs.metrics import COUNT_BUCKETS, default_registry
from .profilers import noise_materials, noise_matrix

_SIMULATIONS = default_registry().counter(
    "repro_profile_simulations_total",
    "Configurations that actually hit the simulator (cache/store hits excluded).",
    labelnames=("device", "library"),
)
_BATCH_SIZE = default_registry().histogram(
    "repro_profile_batch_size",
    "Configurations per vectorized simulate_batch call.",
    buckets=COUNT_BUCKETS,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.target import Target
    from .store import ProfileStore

#: Number of repetitions per configuration (the paper reports the median
#: of 10 runs).
DEFAULT_RUNS = 10

#: Default bound on memoised measurements per runner.  At ~360 bytes per
#: cached measurement (a 112-byte record, its three floats, its cache key
#: and the cache's own entry) this caps a runner's cache near 24 MB while
#: holding far more configurations than the full model zoo sweeps need.
DEFAULT_MEASUREMENT_CACHE_ENTRIES = 65536


class MeasurementError(ValueError):
    """Raised when a measurement is structurally invalid."""


class _MeasurementFields(NamedTuple):
    """The fields of :class:`Measurement`, which validates them."""

    layer_name: str
    out_channels: int
    device_name: str
    library_name: str
    median_time_ms: float
    min_time_ms: float
    max_time_ms: float
    runs: int
    job_count: int


class Measurement(_MeasurementFields):
    """Median latency of one measured layer configuration.

    An immutable tuple of its nine fields (a :class:`typing.NamedTuple`
    subclass): building one costs a single ``tuple.__new__``, which
    matters because a paper pass builds one per configuration.  Every
    construction path — keyword, positional, :meth:`from_dict`,
    ``_make``/``_replace``, pickle and the store's line parse — runs
    the checks in ``__new__``.  Like any tuple it compares equal to a
    plain tuple of the same values.
    """

    __slots__ = ()

    def __new__(
        cls,
        layer_name: str,
        out_channels: int,
        device_name: str,
        library_name: str,
        median_time_ms: float,
        min_time_ms: float,
        max_time_ms: float,
        runs: int,
        job_count: int,
    ) -> "Measurement":
        if runs < 1:
            raise MeasurementError(
                f"{layer_name}: a measurement needs at least one run, got {runs}"
            )
        if min_time_ms <= 0:
            # A zero-time run would make ``spread`` infinite and poison
            # every downstream stability report; reject it at the source.
            raise MeasurementError(
                f"{layer_name} at {out_channels} channels: non-positive "
                f"minimum run time {min_time_ms} ms"
            )
        if not min_time_ms <= median_time_ms <= max_time_ms:
            raise MeasurementError(
                f"{layer_name} at {out_channels} channels: inconsistent "
                f"run times (min={min_time_ms}, median={median_time_ms}, "
                f"max={max_time_ms})"
            )
        return tuple.__new__(cls, (
            layer_name, out_channels, device_name, library_name,
            median_time_ms, min_time_ms, max_time_ms, runs, job_count,
        ))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "Measurement":
        # The NamedTuple default bypasses ``__new__`` (and so ``_replace``).
        return cls(*iterable)

    @property
    def spread(self) -> float:
        """Max/min ratio across the repeated runs (measurement stability).

        Always finite: construction rejects non-positive run times.
        """

        return self.max_time_ms / self.min_time_ms

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready payload (the profile store's line format)."""

        return {
            "layer_name": self.layer_name,
            "out_channels": self.out_channels,
            "device_name": self.device_name,
            "library_name": self.library_name,
            "median_time_ms": self.median_time_ms,
            "min_time_ms": self.min_time_ms,
            "max_time_ms": self.max_time_ms,
            "runs": self.runs,
            "job_count": self.job_count,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Measurement":
        return cls(**payload)


@dataclass
class ProfileRunner:
    """Measure layer latencies on a (device, library) pair with caching.

    ``store`` optionally backs the in-memory cache with a persistent
    :class:`~repro.profiling.store.ProfileStore`; ``simulations`` counts
    the configurations that actually hit the simulator (cache and store
    hits do not).  The measurement cache holds at most
    ``max_cache_entries`` entries (oldest-inserted evicted first; pass
    ``None`` for unbounded), so a long-lived runner cannot grow without
    limit.

    Runners are thread-safe: measurement and adoption are serialized per
    runner, so concurrent plan steps hammering the same
    (device, library) pair simulate each configuration exactly once and
    record it to the store exactly once.
    """

    device: DeviceSpec
    library: ConvolutionLibrary
    runs: int = DEFAULT_RUNS
    store: Optional["ProfileStore"] = None
    simulations: int = 0
    max_cache_entries: Optional[int] = DEFAULT_MEASUREMENT_CACHE_ENTRIES
    #: Measurement-noise stream seed; 0 is the historical default stream.
    #: Two runners with the same seed produce bitwise-identical
    #: measurements without sharing a store.
    seed: int = 0
    _cache: "OrderedDict[Tuple[str, int], Measurement]" = field(
        default_factory=OrderedDict, repr=False
    )
    #: Serializes cache mutation, simulation and store traffic; RLock so
    #: the public entry points may call each other.
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    @classmethod
    def create(
        cls, device: str, library: str, runs: int = DEFAULT_RUNS, seed: int = 0
    ) -> "ProfileRunner":
        """Build a runner from device and library names."""

        return cls(
            device=DEVICES.get(device),
            library=LIBRARIES.create(library),
            runs=runs,
            seed=seed,
        )

    @classmethod
    def for_target(
        cls,
        target: "Target",
        store: Optional["ProfileStore"] = None,
        seed: int = 0,
    ) -> "ProfileRunner":
        """Build a runner for a :class:`repro.api.Target`."""

        return cls(
            device=target.device_spec,
            library=target.create_library(),
            runs=target.runs,
            store=store,
            seed=seed,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _layer_key(layer: ConvLayerSpec) -> str:
        """Cache-key prefix of a layer; the key is ``(prefix, out_channels)``."""

        return (
            f"{layer.name}|{layer.in_channels}|{layer.kernel_size}|{layer.stride}|"
            f"{layer.padding}|{layer.input_hw}"
        )

    def measure(self, layer: ConvLayerSpec, out_channels: Optional[int] = None) -> Measurement:
        """Median latency of a layer pruned to ``out_channels`` filters."""

        channels = layer.out_channels if out_channels is None else out_channels
        return self.measure_sweeps([(layer, [channels])])[0][0]

    def measure_many(
        self, layer: ConvLayerSpec, channel_counts: Iterable[int]
    ) -> List[Measurement]:
        """Measure the layer at each channel count: one sweep of :meth:`measure_sweeps`."""

        return self.measure_sweeps([(layer, channel_counts)])[0]

    def measure_sweeps(
        self, sweeps: Iterable[Tuple[ConvLayerSpec, Iterable[int]]]
    ) -> List[List[Measurement]]:
        """Measure many (layer, channel counts) sweeps in one batched pass.

        Returns one list per sweep, aligned with its counts (duplicates
        included).  Each configuration is resolved once: from the cache,
        else the store (one ``lookup`` per layer), else one cross-layer
        :func:`~repro.gpusim.batch.simulate_batch` call over every
        remaining configuration, stored with one ``record`` per layer.
        """

        requests = [
            (layer, self._layer_key(layer), [int(count) for count in counts])
            for layer, counts in sweeps
        ]
        invalid = [count for _, _, counts in requests for count in counts if count < 1]
        if invalid:
            raise ValueError(f"out_channels must be >= 1, got {invalid[0]}")
        with self._lock:
            # Resolve against a local view so results survive even when
            # the bounded cache evicts entries of this very call.
            resolved, pending = self._resolve(requests)
            if pending:
                fresh = self._measure_sweeps(pending)
                start = 0
                for layer, counts in pending:
                    measured = fresh[start:start + len(counts)]
                    start += len(counts)
                    key = self._layer_key(layer)
                    resolved.update(((key, m.out_channels), m) for m in measured)
                    self.adopt(layer, measured)
            return [[resolved[key, count] for count in counts] for _, key, counts in requests]

    def _resolve(
        self, requests: List[Tuple[ConvLayerSpec, str, List[int]]]
    ) -> Tuple[Dict[Tuple[str, int], Measurement], List[Tuple[ConvLayerSpec, List[int]]]]:
        """Serve ``(layer, layer key, counts)`` requests from the cache, then
        the store: the served measurements by cache key and the unserved
        ``(layer, counts)`` per layer, each count once."""

        resolved: Dict[Tuple[str, int], Measurement] = {}
        misses: Dict[str, Tuple[ConvLayerSpec, Dict[int, None]]] = {}
        for layer, key, counts in requests:
            layer_misses = misses.setdefault(key, (layer, {}))[1]
            for count in counts:
                cached = self._cache.get((key, count))
                if cached is None:
                    layer_misses[count] = None
                else:
                    resolved[key, count] = cached
        pending = []
        for key, (layer, layer_misses) in misses.items():
            missing = list(layer_misses)
            if missing and self.store is not None:
                stored, missing = self.store.lookup(
                    self.device.name, self.library.name, self.runs, layer, missing,
                    seed=self.seed,
                )
                for count, measurement in stored.items():
                    resolved[key, count] = measurement
                    self._remember(key, count, measurement)
            if missing:
                pending.append((layer, missing))
        return resolved, pending

    def _remember(self, key: str, count: int, measurement: Measurement) -> None:
        self._cache[(key, count)] = measurement
        if self.max_cache_entries is not None and len(self._cache) > self.max_cache_entries:
            self._cache.popitem(last=False)

    def _measure_sweeps(
        self, sweeps: List[Tuple[ConvLayerSpec, List[int]]]
    ) -> List[Measurement]:
        """Simulate every (layer, channel counts) sweep in one pass.

        The library plans each sweep with one array-wide ``plan`` call;
        the tables are stacked and costed by a single
        :func:`~repro.gpusim.batch.simulate_batch` call.  Results follow
        the order of ``sweeps`` and their counts.  Per-configuration
        times are bitwise identical regardless of how configurations are
        grouped into batches: the cost model is elementwise over kernels
        and the noise stream is counter-based per configuration, so
        executors are free to batch across layers.
        """

        if self.runs < 1:
            # The first check of ``Measurement.__new__``, made once per batch.
            raise MeasurementError(
                f"{sweeps[0][0].name}: a measurement needs at least one run, got {self.runs}"
            )
        table = PlanTable.concat(
            [self.library.plan(layer, self.device, channels=counts) for layer, counts in sweeps]
        )
        batch = simulate_batch(table, self.device)
        noise = noise_matrix(noise_materials(self.device, table), self.runs, seed=self.seed)
        times_ms = batch.total_time_ms[:, np.newaxis] * noise
        medians = np.median(times_ms, axis=1)
        minima = times_ms.min(axis=1)
        maxima = times_ms.max(axis=1)
        configurations = len(table)
        self.simulations += configurations
        _SIMULATIONS.inc(
            configurations, device=self.device.name, library=self.library.name
        )
        _BATCH_SIZE.observe(configurations)
        rows = zip(
            table.layer_names,
            [count for _, group in sweeps for count in group],
            repeat(self.device.name),
            repeat(self.library.name),
            medians.tolist(),
            minima.tolist(),
            maxima.tolist(),
            repeat(self.runs),
            batch.job_counts.tolist(),
        )
        # The time checks of ``Measurement.__new__`` as one pass over the
        # columns (NaN fails every comparison); the first bad row is
        # rebuilt through the constructor so it raises the per-row error.
        valid = (minima > 0) & (minima <= medians) & (medians <= maxima)
        if not valid.all():
            Measurement(*next(islice(rows, int(np.argmin(valid)), None)))
        return list(map(tuple.__new__, repeat(Measurement), rows))

    # ------------------------------------------------------------------
    # Executor support: pending counts and cross-process adoption
    # ------------------------------------------------------------------
    def pending_counts(self, layer: ConvLayerSpec, channel_counts: Iterable[int]) -> List[int]:
        """Channel counts not served by the cache or the attached store.

        Store hits found along the way are pulled into the in-memory
        cache, so a subsequent :meth:`measure_many` over the same counts
        touches the simulator only for the returned ones.
        """

        with self._lock:
            counts = [int(count) for count in channel_counts]
            _, pending = self._resolve([(layer, self._layer_key(layer), counts)])
            return pending[0][1] if pending else []

    def adopt(self, layer: ConvLayerSpec, measurements: Iterable[Measurement]) -> int:
        """Inject fresh measurements: this runner's own, or ones made
        elsewhere (e.g. a worker process).

        Already-cached configurations are ignored; fresh ones enter the
        in-memory cache and, when a store is attached, are persisted in
        one ``record`` call.  Returns the number adopted.
        """

        key = self._layer_key(layer)
        with self._lock:
            fresh = [
                measurement
                for measurement in measurements
                if self._cache.get((key, measurement.out_channels)) is None
            ]
            for measurement in fresh:
                self._remember(key, measurement.out_channels, measurement)
            if fresh and self.store is not None:
                self.store.record(
                    self.device.name, self.library.name, self.runs, layer, fresh,
                    seed=self.seed,
                )
            return len(fresh)

    def prefetch(self, sweeps: Iterable[Tuple[ConvLayerSpec, Iterable[int]]]) -> int:
        """Warm the cache for many sweeps; returns the configurations simulated.

        .. deprecated:: Use :meth:`measure_sweeps`, which returns the measurements.
        """

        warn_deprecated("ProfileRunner.prefetch", "ProfileRunner.measure_sweeps")
        with self._lock:
            before = self.simulations
            self.measure_sweeps(sweeps)
            return self.simulations - before

    # ------------------------------------------------------------------
    def measure_channels(
        self, layer: ConvLayerSpec, channel_counts: List[int]
    ) -> List[Measurement]:
        """Measure the layer at each of the given channel counts."""

        return self.measure_many(layer, channel_counts)

    def sweep(
        self,
        layer: ConvLayerSpec,
        min_channels: int = 1,
        max_channels: Optional[int] = None,
        step: int = 1,
    ) -> List[Measurement]:
        """Measure a full channel sweep (the staircase figures)."""

        upper = layer.out_channels if max_channels is None else max_channels
        if upper > layer.out_channels:
            raise ValueError(
                f"cannot sweep beyond the layer's {layer.out_channels} channels"
            )
        counts = list(range(min_channels, upper + 1, step))
        if counts and counts[-1] != upper:
            counts.append(upper)
        return self.measure_many(layer, counts)

    def cache_size(self) -> int:
        with self._lock:
            return len(self._cache)
