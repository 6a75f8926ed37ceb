"""The benchmark's three workloads: ``paper``, ``sweep-store`` and ``service``.

Each workload prepares its inputs from the seed, then repeats its jobs
until the measuring window closes, checking every output.  A *job* is
one unit of work a caller asks for and waits on:

* ``paper`` — one experiment (``run_experiment``); a pass runs all 29
  on a cold ``Session(max_cache_entries=None)`` with no store.
* ``sweep-store`` — one round: an 8-target x 53-layer ResNet-50 sweep
  plan (``sweep_step=4``) run under ``batched`` into an empty sharded
  store (cold), then replayed from that store by a fresh session.
* ``service`` — one HTTP job: a one-target, one-layer sweep plan sent
  to a ``repro-experiments serve`` process by one of two closed-loop
  clients and timed from submit to its ``job-finished`` event.

With ``trace`` set, the in-process workloads alternate untraced and
traced passes (spans from :mod:`spans`); the service workload serves
half the window from an untraced server and half from a traced one.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional

import spans
from hostspeed import HostSpeed
from stats import digest, median, median_of_dicts

SRC = Path(__file__).resolve().parents[1] / "src"

#: ResNet-50 sweep granularity shared by ``sweep-store`` and ``service``.
SWEEP_STEP = 4
#: Host-speed samples before each ``paper`` pass (about 1.3 s) and each
#: ``sweep-store`` round (about 4 s), so both sample the host as densely.
PAPER_SPEED_SAMPLES = 5
SWEEP_SPEED_SAMPLES = 15
#: Targets whose whole ResNet-50 shards the service store holds: one
#: OpenCL and one CUDA board.  The job pool is every (target, layer)
#: pair of these, so the seed changes the job order, not the job mix.
SERVICE_TARGETS = (("hikey-970", "acl-gemm"), ("jetson-tx2", "cudnn"))
SERVICE_CLIENTS = 2
#: The clients pause every SERVICE_SLICE_S so the host speed can be
#: sampled while the server is idle.
SERVICE_SLICE_S = 2.0
SERVICE_SPEED_SAMPLES = 8
SERVER_BOOT_TIMEOUT_S = 60.0


class CheckFailed(AssertionError):
    """An output of the program differs from what the benchmark expects."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _fresh_pass() -> None:
    # Garbage left by the previous pass is collected outside the timed
    # region, so a pass does not pay for its predecessor's objects.
    gc.collect()


# ----------------------------------------------------------------------
# Layer expectations: which wrappers must fire in which phase
# ----------------------------------------------------------------------
def expect_layers(totals: Dict[str, float], busy: List[str], idle: List[str], where: str) -> None:
    """Every ``busy`` span fired and no ``idle`` span did.

    A wrapper bound where the program does not look the function up
    would read as a free layer; this makes such a miss fail loudly.
    """

    for name in busy:
        check(totals.get(f"{name}.calls", 0) > 0, f"{where}: no {name} span recorded")
    for name in idle:
        check(totals.get(f"{name}.calls", 0) == 0, f"{where}: unexpected {name} spans")


def layer_metrics(totals: Dict[str, float]) -> Dict[str, float]:
    """Per-layer figures named as in BENCHMARK.json, from span totals."""

    def get(key: str) -> float:
        return float(totals.get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "libraries.plan_calls": get("libraries.plan.calls"),
        "libraries.plan_s": get("libraries.plan.busy_s"),
        "gpusim.simulate_calls": get("gpusim.simulate.calls"),
        "gpusim.simulate_s": get("gpusim.simulate.busy_s"),
        "gpusim.configs_per_call": ratio(
            get("gpusim.simulate.configs"), get("gpusim.simulate.calls")
        ),
        "profiling.runner.noise_s": get("profiling.runner.noise.busy_s"),
        "profiling.runner.measure_calls": get("profiling.runner.measure.calls"),
        "profiling.runner.measure_self_s": get("profiling.runner.measure.self_s"),
        "profiling.runner.simulated": get("gpusim.simulate.configs"),
        "profiling.runner.served": get("profiling.store.lookup.found"),
        "profiling.latency_table.build_s": get("profiling.latency_table.build.busy_s"),
        "profiling.store.lookup_calls": get("profiling.store.lookup.calls"),
        "profiling.store.lookup_s": get("profiling.store.lookup.busy_s"),
        "profiling.store.hit_ratio": ratio(
            get("profiling.store.lookup.found"), get("profiling.store.lookup.requested")
        ),
        "profiling.store.record_calls": get("profiling.store.record.calls"),
        "profiling.store.record_s": get("profiling.store.record.busy_s"),
        "profiling.store.appended": get("profiling.store.record.appended"),
        "core.staircase.analyze_calls": get("core.staircase.analyze.calls"),
        "core.staircase.analyze_s": get("core.staircase.analyze.busy_s"),
        "api.session.execute_self_s": get("api.session.execute.self_s"),
    }
    out.update(
        (key, value) for key, value in totals.items() if key.startswith("experiments.")
        and key.endswith("_s")
    )
    return out


def _resnet50_layers():
    from repro.api import Session

    network = Session().network("resnet50")
    return [network.conv_layer(index).spec for index in network.conv_layer_indices]


def _store_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.glob("*.jsonl"))


def _cache_ratio(sessions) -> float:
    hits = sum(session.cache_stats.hits for session in sessions)
    lookups = sum(session.cache_stats.lookups for session in sessions)
    return hits / lookups if lookups else 0.0


# ----------------------------------------------------------------------
# Result of one run
# ----------------------------------------------------------------------
class Run:
    """What a workload measured: job latencies and output accounting."""

    def __init__(self) -> None:
        self.job_s: List[float] = []
        self.window_s = 0.0
        self.configs = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.paper_matched = 0
        self.layers: Dict[str, float] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def paper_fidelity(results) -> int:
    """Paper-quoted metrics within MATCH_TOLERANCE over all experiments."""

    from repro.experiments.report import metric_rows

    return sum(
        1 for result in results for row in metric_rows(result) if row["match"] == "✔"
    )


def fidelity_at(seed: int) -> int:
    """``paper_matched`` from one untimed whole-paper pass at ``seed``."""

    from repro.experiments.registry import available_experiments

    results, _ = run_paper_pass(available_experiments(), seed)
    return paper_fidelity(results)


def _experiment_digest(result) -> str:
    return digest([result.experiment_id, result.title, result.measured, result.paper,
                   result.text])


def run_paper_pass(ids: List[str], seed: int, run: Optional[Run] = None):
    """All experiments on one cold session; returns (results, session)."""

    from repro.api import Session
    from repro.experiments import registry

    session = Session(max_cache_entries=None, seed=seed)
    results = []
    for experiment_id in ids:
        started = time.perf_counter()
        # Looked up on the module each call, so a traced pass sees the
        # wrapper installed there.
        results.append(registry.run_experiment(experiment_id, session=session))
        if run is not None:
            run.job_s.append(time.perf_counter() - started)
    return results, session


def alternate(seconds: float, trace: bool, speed: HostSpeed, samples: int,
              one_pass) -> Dict[str, float]:
    """Repeat ``one_pass(traced)`` until the measuring window closes.

    ``one_pass`` returns ``(elapsed_s, per-layer row or None)``.  The
    host speed is sampled ``samples`` times before every pass.  With
    ``trace``, untraced and traced passes alternate (at least one of
    each runs) and the result is the per-layer median over the traced
    passes plus the tracing overhead; without, it is empty.
    """

    untraced: List[float] = []
    traced: List[float] = []
    rows: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    traced_next = False
    while time.perf_counter() < deadline or (trace and not traced):
        speed.sample(samples)
        elapsed, row = one_pass(traced_next)
        if traced_next:
            traced.append(elapsed)
            rows.append(row)
        else:
            untraced.append(elapsed)
        traced_next = trace and not traced_next
    if not trace:
        return {}
    layers = median_of_dicts(rows)
    layers["tracing.overhead_frac"] = median(traced) / median(untraced) - 1
    return layers


# ----------------------------------------------------------------------
# paper
# ----------------------------------------------------------------------
class PaperWorkload:
    name = "paper"

    def prepare(self, workdir: Path, seed: int) -> None:
        from repro.experiments.registry import available_experiments

        self.seed = seed
        self.ids = available_experiments()

    def measure(self, seconds: float, trace: bool, speed: HostSpeed) -> Run:
        run = Run()
        _fresh_pass()
        # Warm-up pass: lazy initialisation finishes before timing, and
        # its outputs are the reference every later pass must match.
        results, session = run_paper_pass(self.ids, self.seed)
        reference = [_experiment_digest(result) for result in results]
        reference_sims = session.simulation_count()
        run.paper_matched = paper_fidelity(results)
        del results, session
        log = spans.SpanLog()

        def one_pass(traced: bool):
            _fresh_pass()
            uninstall = spans.install(log) if traced else None
            mark = log.mark()
            start = time.perf_counter()
            try:
                results, session = run_paper_pass(self.ids, self.seed, None if traced else run)
            finally:
                if uninstall:
                    uninstall()
            elapsed = time.perf_counter() - start
            run.attempted += len(self.ids)
            digests = [_experiment_digest(result) for result in results]
            wrong = sum(1 for got, want in zip(digests, reference) if got != want)
            if wrong:
                run.fail(f"{wrong} experiment result(s) differ from the reference pass"
                         + (" (traced)" if traced else ""))
            if session.simulation_count() != reference_sims:
                run.fail(f"pass simulated {session.simulation_count()} configurations, "
                         f"reference {reference_sims}")
            if not traced:
                run.window_s += elapsed
                run.configs += session.simulation_count()
                return elapsed, None
            totals = spans.layer_totals(log.since(mark), mark)
            expect_layers(
                totals,
                busy=[spans.PLAN, spans.SIMULATE, spans.NOISE, spans.MEASURE,
                      spans.TABLE, spans.ANALYZE, spans.EXECUTE, spans.EXPERIMENT],
                idle=[spans.LOOKUP, spans.RECORD],
                where="paper pass",
            )
            row = layer_metrics(totals)
            row["api.session.cache_hit_ratio"] = _cache_ratio([session])
            return elapsed, row

        run.layers = alternate(seconds, trace, speed, PAPER_SPEED_SAMPLES, one_pass)
        return run

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# sweep-store
# ----------------------------------------------------------------------
class SweepStoreWorkload:
    name = "sweep-store"

    def prepare(self, workdir: Path, seed: int) -> None:
        from repro.api import Plan, iter_all_targets

        self.seed = seed
        self.workdir = workdir
        self.layers = _resnet50_layers()
        self.targets = list(iter_all_targets())
        self.plan = Plan()
        self.step = self.plan.sweep(self.targets, self.layers, sweep_step=SWEEP_STEP)
        # Every (target, layer, channel count) the plan asks for: the
        # store must hold exactly this many entries after the cold run.
        self.planned = len(self.targets) * sum(
            len(set(range(1, spec.out_channels + 1, SWEEP_STEP)) | {spec.out_channels})
            for spec in self.layers
        )

    def _round(self, run: Run, log, reference: Optional[str]):
        """One cold sweep + replay; returns (cold_s, replay_s, digest, layers)."""

        from repro.api import Session
        from repro.profiling.store import ProfileStore

        store_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.workdir))
        try:
            store = ProfileStore(store_dir / "store", layout="sharded")
            cold = Session(max_cache_entries=None, store=store, seed=self.seed)
            _fresh_pass()
            uninstall = spans.install(log) if log else None
            try:
                cold_mark = log.mark() if log else 0
                start = time.perf_counter()
                cold_rows = cold.execute(self.plan, executor="batched")[self.step.id].rows
                cold_s = time.perf_counter() - start
                replay = Session(max_cache_entries=None,
                                 store=ProfileStore(store_dir / "store"), seed=self.seed)
                _fresh_pass()
                replay_mark = log.mark() if log else 0
                start = time.perf_counter()
                replay_rows = replay.execute(self.plan, executor="batched")[self.step.id].rows
                replay_s = time.perf_counter() - start
            finally:
                if uninstall:
                    uninstall()
            run.attempted += 2
            if cold.simulation_count() != self.planned:
                run.fail(f"cold sweep simulated {cold.simulation_count()}, "
                         f"planned {self.planned}")
            if len(store) != self.planned:
                run.fail(f"store holds {len(store)} entries, planned {self.planned}")
            if replay.simulation_count() != 0:
                run.fail(f"replay simulated {replay.simulation_count()} configurations")
            got = digest(cold_rows)
            if digest(replay_rows) != got:
                run.fail("replay rows differ from the cold sweep's")
            if reference is not None and got != reference:
                run.fail("sweep rows differ from the first round's"
                         + (" (traced)" if log else ""))
            layers = None
            if log:
                cold_totals = spans.layer_totals(log.since(cold_mark)[: replay_mark - cold_mark],
                                                 cold_mark)
                replay_totals = spans.layer_totals(log.since(replay_mark), replay_mark)
                expect_layers(
                    cold_totals,
                    busy=[spans.PLAN, spans.SIMULATE, spans.NOISE, spans.MEASURE,
                          spans.TABLE, spans.LOOKUP, spans.RECORD, spans.ANALYZE,
                          spans.EXECUTE],
                    idle=[spans.EXPERIMENT], where="sweep-store cold",
                )
                expect_layers(
                    replay_totals,
                    busy=[spans.MEASURE, spans.TABLE, spans.LOOKUP, spans.ANALYZE,
                          spans.EXECUTE],
                    idle=[spans.PLAN, spans.SIMULATE, spans.NOISE, spans.RECORD,
                          spans.EXPERIMENT],
                    where="sweep-store replay",
                )
                merged = dict(cold_totals)
                for key, value in replay_totals.items():
                    merged[key] = merged.get(key, 0.0) + value
                layers = layer_metrics(merged)
                layers["api.session.cache_hit_ratio"] = _cache_ratio([cold, replay])
                layers["profiling.store.bytes"] = _store_bytes(store_dir / "store")
                layers["phase.cold_s"] = cold_s
                layers["phase.replay_s"] = replay_s
            return cold_s, replay_s, got, layers
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def measure(self, seconds: float, trace: bool, speed: HostSpeed) -> Run:
        run = Run()
        # The untimed paper pass also warms the planner and simulator.
        run.paper_matched = fidelity_at(self.seed)
        log = spans.SpanLog()
        reference: List[str] = []

        def one_round(traced: bool):
            cold_s, replay_s, got, row = self._round(
                run, log if traced else None, reference[0] if reference else None
            )
            reference[:] = reference or [got]
            if not traced:
                run.job_s.append(cold_s + replay_s)
                run.window_s += cold_s + replay_s
                run.configs += 2 * self.planned
            return cold_s + replay_s, row

        run.layers = alternate(seconds, trace, speed, SWEEP_SPEED_SAMPLES, one_round)
        return run

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
class Server:
    """A ``repro-experiments serve --port 0`` child process."""

    def __init__(self, workdir: Path, store: Path, traced_spans: Optional[Path] = None):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        serve_args = ["serve", "--port", "0", "--profile-store", str(store)]
        if traced_spans is None:
            command = [sys.executable, "-m", "repro.experiments", *serve_args]
        else:
            command = [sys.executable, str(Path(__file__).with_name("serve.py")),
                       str(traced_spans), *serve_args]
        self.log_path = Path(tempfile.mkstemp(prefix="server-", suffix=".log",
                                              dir=workdir)[1])
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=env,
            cwd=str(workdir), text=True,
        )
        self.url = self._read_url()

    def _read_url(self) -> str:
        deadline = time.monotonic() + SERVER_BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                self.stop()
                raise RuntimeError(f"server exited during boot; see {self.log_path}")
            if " listening on " in line:
                url = line.rsplit(" ", 1)[-1].strip()
                # Drain the rest of stdout so the child never blocks on it.
                threading.Thread(target=self.process.stdout.read, daemon=True).start()
                with urllib.request.urlopen(f"{url}/v1/healthz", timeout=10) as response:
                    response.read()
                return url
        self.stop()
        raise RuntimeError("server did not report its URL in time")

    def stop(self) -> int:
        """Interrupt the server (it drains its queue) and return its exit status."""

        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return self.process.returncode


def _counter_total(snapshot: Dict[str, Any], name: str) -> float:
    family = snapshot.get(name)
    return sum(series["value"] for series in family["series"]) if family else 0.0


class ServiceWorkload:
    name = "service"

    def prepare(self, workdir: Path, seed: int) -> None:
        from repro.api import Plan, Session, Target
        from repro.profiling.store import ProfileStore

        self.seed = seed
        self.workdir = workdir
        layers = _resnet50_layers()
        targets = [Target(device, library) for device, library in SERVICE_TARGETS]
        self.store_path = workdir / "service-store"
        # Whole ResNet-50 shards, so every job opens a fresh session that
        # parses a realistically sized shard.
        fill = Plan()
        fill.sweep(targets, layers, sweep_step=SWEEP_STEP)
        Session(max_cache_entries=None, store=ProfileStore(self.store_path, layout="sharded"),
                seed=seed).execute(fill, executor="batched")
        self.plans = []
        for target in targets:
            for spec in layers:
                plan = Plan()
                plan.sweep([target], [spec], sweep_step=SWEEP_STEP)
                self.plans.append(plan)
        self.server = Server(workdir, self.store_path)

    def _expected(self, indexes) -> Dict[int, str]:
        """Digest of each plan's result executed in-process from the store."""

        from repro.api import Session
        from repro.service.results import step_result_payload

        session = Session(max_cache_entries=None, store=self.store_path, seed=self.seed)
        expected = {}
        for index in sorted(indexes):
            results = session.execute(self.plans[index])
            payload = {step: step_result_payload(result) for step, result in results.items()}
            expected[index] = digest(json.loads(json.dumps(payload)))
        check(session.simulation_count() == 0, "in-process replay simulated configurations")
        return expected

    def _drive(self, url: str, seconds: float, order: List[int], cursor: List[int]):
        """Closed loop: each client submits, waits for job-finished, repeats."""

        from repro.service.client import ServiceClient

        jobs: List[Dict[str, Any]] = []
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds
        errors: List[BaseException] = []

        def client() -> None:
            service = ServiceClient(url, timeout=60)
            try:
                while time.perf_counter() < deadline:
                    with lock:
                        index = order[cursor[0] % len(order)]
                        cursor[0] += 1
                    sent_wall = time.time()
                    started = time.perf_counter()
                    job = service.submit(self.plans[index], seed=self.seed)
                    finished = None
                    for event in service.iter_events(job["id"], timeout=60):
                        if event.get("event") == "job-finished":
                            finished = event
                            break
                    latency = time.perf_counter() - started
                    with lock:
                        jobs.append({
                            "id": job["id"], "index": index, "latency": latency,
                            "event": finished, "sent": sent_wall, "received": time.time(),
                        })
            except BaseException as error:  # reported by the caller
                errors.append(error)

        threads = [threading.Thread(target=client) for _ in range(SERVICE_CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 120)
        window = time.perf_counter() - started
        if errors:
            raise errors[0]
        # Records are fetched once the loop is over, so the clients submit
        # their next job as soon as the last one finished.
        service = ServiceClient(url, timeout=60)
        for job in jobs:
            job["record"] = service.job(job["id"])
        return jobs, window

    def _drive_sliced(self, url: str, seconds: float, order: List[int], cursor: List[int],
                      speed: HostSpeed):
        """:meth:`_drive` in slices, sampling the host speed between them."""

        jobs: List[Dict[str, Any]] = []
        elapsed = 0.0
        while elapsed < seconds:
            speed.sample(SERVICE_SPEED_SAMPLES)
            sliced, took = self._drive(url, min(SERVICE_SLICE_S, seconds - elapsed),
                                       order, cursor)
            jobs.extend(sliced)
            elapsed += took
        speed.sample(SERVICE_SPEED_SAMPLES)
        return jobs, elapsed

    @staticmethod
    def _stop(server: Server, run: Run) -> None:
        """Stop a server with SIGINT; it must drain and exit cleanly."""

        status = server.stop()
        if status != 0:
            run.fail(f"server exited with status {status}; see {server.log_path}")

    def _account(self, jobs, run: Run, expected: Dict[int, str]) -> None:
        for job in jobs:
            run.attempted += 1
            record, event = job["record"], job["event"]
            if event is None or record["status"] != "succeeded":
                run.fail(f"job {record['id']} ended {record['status']}: {record.get('error')}")
                continue
            if record["simulations"] != 0:
                run.fail(f"job {record['id']} simulated {record['simulations']} configurations")
            payload = {step["id"]: step.get("result") for step in record["steps"]}
            if digest(payload) != expected[job["index"]]:
                run.fail(f"job {record['id']} result differs from in-process execution")

    def measure(self, seconds: float, trace: bool, speed: HostSpeed) -> Run:
        from repro.service.client import ServiceClient

        run = Run()
        run.paper_matched = fidelity_at(self.seed)
        order = list(range(len(self.plans)))
        random.Random(self.seed).shuffle(order)
        cursor = [0]
        window = seconds / 2 if trace else seconds

        before = ServiceClient(self.server.url).metrics()
        jobs, elapsed = self._drive_sliced(self.server.url, window, order, cursor, speed)
        after = ServiceClient(self.server.url).metrics()
        self._stop(self.server, run)
        run.window_s = elapsed
        run.job_s = [job["latency"] for job in jobs]
        run.configs = sum(
            len(step.get("result", {}).get("rows", ()))
            for job in jobs for step in job["record"]["steps"]
        )
        all_jobs = list(jobs)
        if trace:
            spans_path = Path(tempfile.mkstemp(prefix="spans-", suffix=".json",
                                               dir=self.workdir)[1])
            traced_server = Server(self.workdir, self.store_path, traced_spans=spans_path)
            try:
                before = ServiceClient(traced_server.url).metrics()
                traced_jobs, _ = self._drive_sliced(traced_server.url, window, order, cursor,
                                                    speed)
                after = ServiceClient(traced_server.url).metrics()
            finally:
                self._stop(traced_server, run)
            all_jobs.extend(traced_jobs)
            recorded = json.loads(spans_path.read_text(encoding="utf-8"))
            totals = spans.layer_totals(recorded)
            expect_layers(
                totals,
                busy=[spans.MEASURE, spans.TABLE, spans.LOOKUP, spans.ANALYZE, spans.EXECUTE],
                idle=[spans.PLAN, spans.SIMULATE, spans.NOISE, spans.RECORD, spans.EXPERIMENT],
                where="service server",
            )
            # Per job: scaling the additive totals leaves the ratios as they are.
            count = max(1, len(traced_jobs))
            run.layers = layer_metrics({key: value / count for key, value in totals.items()})
            run.layers.update(self._service_split(traced_jobs, before, after))
            run.layers["profiling.store.bytes"] = _store_bytes(self.store_path)
            run.layers["tracing.overhead_frac"] = (
                median(job["latency"] for job in traced_jobs) / median(run.job_s) - 1
            )
        self._account(all_jobs, run, self._expected({job["index"] for job in all_jobs}))
        return run

    @staticmethod
    def _service_split(jobs, before, after) -> Dict[str, float]:
        """Median submit/queue/run/delivery split from the job records."""

        def med(values) -> float:
            values = list(values)
            return median(values) * 1000 if values else 0.0

        records = [(job, job["record"]) for job in jobs if job["record"]["started_at"]]
        count = max(1, len(jobs))

        def delta(name: str) -> float:
            return _counter_total(after, name) - _counter_total(before, name)

        hits = delta("repro_session_cache_hits_total")
        lookups = hits + delta("repro_session_cache_misses_total")
        return {
            "service.submit_ms": med(r["submitted_at"] - j["sent"] for j, r in records),
            "service.queue_wait_ms": med(r["started_at"] - r["submitted_at"] for j, r in records),
            "service.run_ms": med(r["finished_at"] - r["started_at"] for j, r in records),
            "service.delivery_ms": med(j["received"] - r["finished_at"] for j, r in records),
            "service.shard_reloads_per_job": delta("repro_store_reloads_total") / count,
            "api.session.cache_hit_ratio": hits / lookups if lookups else 0.0,
        }

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()


WORKLOADS = {
    workload.name: workload
    for workload in (PaperWorkload, SweepStoreWorkload, ServiceWorkload)
}
