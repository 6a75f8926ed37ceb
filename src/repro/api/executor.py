"""Pluggable execution backends for :class:`~repro.api.plan.Plan` graphs.

A plan says *what* to run; an executor decides *how*.  All backends
produce bitwise-identical results for the same plan, session seed and
profile store, because every measurement derives its perturbation from
the counter-based splitmix64 noise stream keyed on the configuration
itself (see :mod:`repro.profiling.profilers`) — not on execution order,
batch composition or process identity.  The backends differ only in how
the measurement workload reaches the simulator:

All backends schedule steps over the plan's *dependency graph* rather
than flat insertion order (see :mod:`repro.api.scheduler`): steps run in
topological wavefronts, and a dependent step becomes runnable as soon as
its inputs — not the whole plan's measurement pool — are ready.

``serial``
    Steps one at a time in deterministic wavefront order, each
    measurement pass per (target, layer) exactly as
    :class:`~repro.api.Session` always did.

``batched``
    Per wavefront, the whole wave's measurement workload is planned up
    front and pushed through one cross-layer
    :meth:`~repro.profiling.runner.ProfileRunner.measure_sweeps` /
    :func:`~repro.gpusim.batch.simulate_batch` pass per target before
    the wave's steps run against warm caches.

``process``
    Per wavefront, the wave's deduplicated measurement workload is
    fanned out across worker processes with
    :class:`concurrent.futures.ProcessPoolExecutor` — one task per
    independent (target, layer) sweep — and adopted into the parent
    session's cache and profile store; the wave's (mutually
    independent) steps then run concurrently on worker threads against
    the thread-safe session.

``remote``
    Per wavefront, the missing measurement workload is published as
    work leases that stateless HTTP workers pull, measure and post
    back (see :mod:`repro.service.fleet`); steps themselves still run
    locally against the warmed session.  Only meaningful inside a
    running ``repro-experiments serve`` process with workers attached.

Executors register in the :data:`EXECUTORS` registry, so third-party
backends plug in the same way devices and libraries do.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..models.layers import ConvLayerSpec
from ..obs.metrics import default_registry
from ..profiling.runner import Measurement, ProfileRunner
from .pipeline import PruningRequest
from .plan import Plan, Step
from .registry import Registry, UnknownPluginError
from .scheduler import scheduled_order, wavefronts
from .target import Target

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import Session

_STEPS_TOTAL = default_registry().counter(
    "repro_executor_steps_total",
    "Plan steps executed, by backend and step kind.",
    labelnames=("backend", "kind"),
)


class UnknownExecutorError(UnknownPluginError):
    """Raised when an executor name is not registered."""


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed."""


#: The executor registry; ``EXECUTORS.create(name, jobs=...)`` builds a
#: backend instance.
EXECUTORS: Registry[type] = Registry("executor", error_cls=UnknownExecutorError)

#: Default worker bound shared by the local process pool and the
#: per-wave step threads when ``jobs`` is not given.
DEFAULT_POOL_WORKERS = 8


def resolve_executor(executor, jobs: Optional[int] = None):
    """Coerce a name or instance into an executor object."""

    if isinstance(executor, str):
        return EXECUTORS.create(executor, jobs=jobs)
    if hasattr(executor, "execute"):
        return executor
    raise TypeError(
        f"executor must be a registered name or provide .execute(), got {executor!r}"
    )


# ----------------------------------------------------------------------
# Workload planning: which (target, layer, counts) does a step measure?
# ----------------------------------------------------------------------
#: target -> layer spec -> channel counts the step will need.
Workload = Dict[Target, Dict[ConvLayerSpec, Set[int]]]


def _merge(into: Workload, target: Target, spec: ConvLayerSpec, counts: Iterable[int]) -> None:
    into.setdefault(target, {}).setdefault(spec, set()).update(counts)


def _sweep_counts(spec: ConvLayerSpec, channel_counts, sweep_step: int) -> Tuple[int, ...]:
    """The exact counts :meth:`Session.profile_layer` will measure.

    Delegates to :meth:`Session._sweep_counts` so workload enumeration
    can never drift from what the serial measurement path does — the
    backends' bitwise-identical / zero-extra-simulation invariant
    depends on the two agreeing.
    """

    from .session import Session

    return Session._sweep_counts(spec, channel_counts, sweep_step)


def _request_workload(session: "Session", request: PruningRequest) -> Workload:
    """The measurements a pruning job will need, enumerated up front.

    Under-enumeration is always safe — whatever is missing is measured
    serially when the step runs — so strategies whose exact
    configurations depend on runtime choices (``uninstructed``)
    contribute nothing here.
    """

    workload: Workload = {}
    if request.strategy == "uninstructed":
        return workload
    network = session.network(request.model)
    indices = (
        list(request.layer_indices)
        if request.layer_indices is not None
        else network.conv_layer_indices
    )
    for index in indices:
        spec = network.conv_layer(index).spec
        counts = set(_sweep_counts(spec, None, request.sweep_step))
        if request.strategy == "performance-aware" and request.fraction is not None:
            # snap_to_step also measures the naive per-layer target.
            counts.add(max(1, round(spec.out_channels * (1.0 - request.fraction))))
        _merge(workload, request.target, spec, counts)
    return workload


def step_workload(session: "Session", step: Step) -> Workload:
    """Enumerate the measurement workload of one plan step."""

    params = step.params
    workload: Workload = {}
    if step.kind == "sweep":
        targets = [Target.of(entry) for entry in params["targets"]]
        specs = [ConvLayerSpec.from_dict(entry) for entry in params["layers"]]
        for target in targets:
            for spec in specs:
                _merge(workload, target, spec, _sweep_counts(
                    spec, params.get("channel_counts"), params["sweep_step"]
                ))
    elif step.kind == "profile":
        target = Target.of(params["target"])
        network = session.network(params["model"])
        indices = params.get("layer_indices")
        indices = list(indices) if indices is not None else network.conv_layer_indices
        for index in indices:
            spec = network.conv_layer(index).spec
            _merge(workload, target, spec, _sweep_counts(spec, None, params["sweep_step"]))
    elif step.kind == "prune":
        request = PruningRequest.from_dict(params["request"])
        workload = _request_workload(session, request)
    elif step.kind == "compare":
        request = PruningRequest.from_dict(params["request"])
        for strategy in params["strategies"]:
            for target, per_spec in _request_workload(
                session, request.with_strategy(strategy)
            ).items():
                for spec, counts in per_spec.items():
                    _merge(workload, target, spec, counts)
    # "figure" steps run arbitrary experiment generators (against this
    # session, passed via run_experiment); their measurement workload is
    # not enumerable here, so they contribute nothing — under-enumeration
    # is safe, the step measures whatever is missing when it runs.
    return workload


# ----------------------------------------------------------------------
# Step execution (shared by all backends)
# ----------------------------------------------------------------------
def run_step(session: "Session", step: Step) -> Any:
    """Execute one validated step against a session's internal engines."""

    params = step.params
    if step.kind == "sweep":
        return session._sweep_impl(
            [Target.of(entry) for entry in params["targets"]],
            [ConvLayerSpec.from_dict(entry) for entry in params["layers"]],
            params.get("channel_counts"),
            params["sweep_step"],
        )
    if step.kind == "profile":
        indices = params.get("layer_indices")
        return session._profile_network_impl(
            Target.of(params["target"]),
            params["model"],
            list(indices) if indices is not None else None,
            params["sweep_step"],
        )
    if step.kind == "prune":
        return session._prune_impl(PruningRequest.from_dict(params["request"]))
    if step.kind == "compare":
        return session._compare_impl(
            PruningRequest.from_dict(params["request"]), params["strategies"]
        )
    if step.kind == "figure":
        return _run_figure(session, step)
    raise ExecutionError(f"no handler for step kind {step.kind!r}")  # pragma: no cover


def traced_step(session: "Session", step: Step, backend: str) -> Any:
    """Run one step inside an ``executor.step`` span, counting it.

    The span and counter are observability only — :func:`run_step` does
    the work and its result is returned untouched, so traced and
    untraced executions stay bitwise identical.
    """

    _STEPS_TOTAL.inc(backend=backend, kind=step.kind)
    with session.tracer.span(
        "executor.step", step=step.id, kind=step.kind, backend=backend
    ):
        return run_step(session, step)


def _run_figure(session: "Session", step: Step) -> Any:
    """Regenerate a registered figure/table through the experiment suite.

    The plan's session is passed straight into the experiment generator
    (every generator accepts ``session=``), so figure measurements use
    this session's noise seed, checkpoint into its profile store and
    share its caches — no process-global state is touched, and figure
    steps from different sessions may run concurrently.
    """

    from ..experiments.registry import run_experiment

    options = dict(step.params.get("options", {}))
    return run_experiment(step.params["experiment"], session=session, **options)


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
def _ordered_results(plan: Plan, results: Dict[str, Any]) -> Dict[str, Any]:
    """Results re-keyed in plan insertion order (stable across backends)."""

    return {step.id: results[step.id] for step in plan}


def _wave_workload(session: "Session", wave: Sequence[Step]) -> Workload:
    """The merged, per-target measurement workload of one wavefront."""

    merged: Workload = {}
    for step in wave:
        for target, per_spec in step_workload(session, step).items():
            for spec, counts in per_spec.items():
                _merge(merged, target, spec, counts)
    return merged


@EXECUTORS.register("serial")
class SerialExecutor:
    """Steps one at a time in wavefront order, measurements per (target,
    layer) — the legacy :class:`Session` call chain, now scheduled over
    the plan's dependency graph."""

    name = "serial"

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = jobs  # accepted for interface uniformity; unused

    def execute(self, session: "Session", plan: Plan) -> Dict[str, Any]:
        results = {
            step.id: traced_step(session, step, self.name)
            for step in scheduled_order(plan)
        }
        return _ordered_results(plan, results)


@EXECUTORS.register("batched")
class BatchedExecutor:
    """One cross-layer simulator batch per (wavefront, target) before the
    wave's step logic runs against a warm cache."""

    name = "batched"

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = jobs  # accepted for interface uniformity; unused

    def execute(self, session: "Session", plan: Plan) -> Dict[str, Any]:
        results: Dict[str, Any] = {}
        for index, wave in enumerate(wavefronts(plan)):
            with session.tracer.span(
                "executor.wave", backend=self.name, wave=index, width=len(wave)
            ):
                for target, per_spec in _wave_workload(session, wave).items():
                    session.runner(target).measure_sweeps(
                        (spec, sorted(counts)) for spec, counts in per_spec.items()
                    )
                for step in wave:
                    results[step.id] = traced_step(session, step, self.name)
        return _ordered_results(plan, results)


def _measure_worker(
    target_payload: Dict[str, Any],
    spec_payload: Dict[str, Any],
    counts: List[int],
    seed: int,
) -> List[Dict[str, Any]]:
    """Measure one (target, layer) sweep in a worker process.

    Runs without a store (the parent owns persistence) and returns plain
    measurement dicts, so the task round-trips through pickling with no
    shared state.  Determinism comes from the counter-based noise
    stream: the same (configuration, seed) yields the same measurement
    in any process.
    """

    target = Target.from_dict(target_payload)
    spec = ConvLayerSpec.from_dict(spec_payload)
    runner = ProfileRunner.for_target(target, seed=seed)
    return [m.as_dict() for m in runner.measure_many(spec, counts)]


@EXECUTORS.register("process")
class ProcessExecutor:
    """Fan measurement workloads across processes, steps across threads.

    The plan is executed wavefront by wavefront.  For each wave, the
    combined workload of its steps is deduplicated against the session
    cache and profile store, split into one task per (target, layer)
    sweep, measured in a shared :class:`ProcessPoolExecutor` and adopted
    back into the parent session (and its store); the wave's mutually
    independent steps then run *concurrently* on worker threads against
    the thread-safe session.  A dependent step therefore starts as soon
    as its inputs' wavefront completes — not after the whole plan's
    measurement pool.  ``jobs`` bounds both the measurement processes
    and the per-wave step threads.  Results stay bitwise identical to
    the serial backend: measurement noise is counter-based on the
    configuration, never on execution order or process identity.
    """

    name = "process"

    def __init__(
        self,
        jobs: Optional[int] = None,
        pool: Optional[ProcessPoolExecutor] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be None or >= 1, got {jobs}")
        self.jobs = jobs
        # An externally-owned pool (the service queue shares one across
        # every step of a job) is used as-is and never shut down here.
        self._external_pool = pool

    def execute(self, session: "Session", plan: Plan) -> Dict[str, Any]:
        results: Dict[str, Any] = {}
        pool = self._external_pool
        owned: Optional[ProcessPoolExecutor] = None
        try:
            for index, wave in enumerate(wavefronts(plan)):
                with session.tracer.span(
                    "executor.wave", backend=self.name, wave=index, width=len(wave)
                ):
                    tasks: List[Tuple[Target, ConvLayerSpec, List[int]]] = []
                    for target, per_spec in _wave_workload(session, wave).items():
                        runner = session.runner(target)
                        for spec, counts in per_spec.items():
                            missing = runner.pending_counts(spec, sorted(counts))
                            if missing:
                                tasks.append((target, spec, missing))
                    if tasks:
                        if pool is None:
                            # Workers spawn on demand, so the bound may exceed
                            # this wave's task count without wasting processes.
                            pool = owned = ProcessPoolExecutor(
                                max_workers=self.jobs if self.jobs is not None else DEFAULT_POOL_WORKERS
                            )
                        self._fan_out(session, pool, tasks)
                    results.update(self._run_wave(session, wave))
        finally:
            if owned is not None:
                owned.shutdown()
        return _ordered_results(plan, results)

    def _run_wave(self, session: "Session", wave: Sequence[Step]) -> Dict[str, Any]:
        """Run one wavefront's steps, concurrently when there are several."""

        if len(wave) == 1:
            return {wave[0].id: traced_step(session, wave[0], self.name)}
        # Same default bound as the measurement pool: a very wide wave
        # must not spawn hundreds of threads contending on the locks.
        max_threads = min(len(wave), self.jobs if self.jobs is not None else DEFAULT_POOL_WORKERS)
        results: Dict[str, Any] = {}
        with ThreadPoolExecutor(max_workers=max_threads) as threads:
            futures = {
                threads.submit(traced_step, session, step, self.name): step
                for step in wave
            }
            failures: List[Tuple[Step, BaseException]] = []
            for future in as_completed(futures):
                step = futures[future]
                try:
                    results[step.id] = future.result()
                except Exception as error:
                    failures.append((step, error))
        if failures:
            # A lone failure propagates untouched (same exception type
            # and traceback as serial execution would raise); only a
            # genuine multi-step pile-up is summarized.
            if len(failures) == 1:
                raise failures[0][1]
            summary = "; ".join(
                sorted(f"step {step.id!r} failed: {error}" for step, error in failures)
            )
            raise ExecutionError(summary) from failures[0][1]
        return results

    def _fan_out(
        self,
        session: "Session",
        pool: ProcessPoolExecutor,
        tasks: List[Tuple[Target, ConvLayerSpec, List[int]]],
    ) -> None:
        futures = {
            pool.submit(
                _measure_worker,
                target.to_dict(),
                spec.as_dict(),
                counts,
                session.seed,
            ): (target, spec)
            for target, spec, counts in tasks
        }
        for future in as_completed(futures):
            target, spec = futures[future]
            try:
                payloads = future.result()
            except Exception as error:
                raise ExecutionError(
                    f"worker measuring {spec.name!r} on {target.label} failed: {error}"
                ) from error
            session.runner(target).adopt(
                spec, [Measurement.from_dict(payload) for payload in payloads]
            )


@EXECUTORS.register("remote")
def _remote_executor(jobs: Optional[int] = None, **options: Any):
    """Build a :class:`~repro.service.fleet.remote.RemoteExecutor`.

    Registered as a factory so ``repro.api`` stays importable without
    the service layer; the import happens only when a remote backend is
    actually resolved.  An instance built by name alone is *unwired* —
    its ``execute`` explains that distribution needs a running service
    (the service's job queue constructs wired instances itself).
    """

    from ..service.fleet.remote import RemoteExecutor

    return RemoteExecutor(jobs=jobs, **options)


__all__ = [
    "EXECUTORS",
    "DEFAULT_POOL_WORKERS",
    "BatchedExecutor",
    "ExecutionError",
    "ProcessExecutor",
    "SerialExecutor",
    "UnknownExecutorError",
    "resolve_executor",
    "step_workload",
    "run_step",
    "traced_step",
]
