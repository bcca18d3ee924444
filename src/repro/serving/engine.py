"""The multi-worker serving engine (concurrent request dispatch).

``ServingEngine`` drives thousands of simulated connections through the
defended allocator:

* **Admission & batching** — the deterministic request stream is chunked
  into fixed-size batches; every batch is stamped at admission with the
  patch-table version current on the controller's
  :class:`~repro.serving.handle.PatchTableHandle`.  Copy-on-write swaps
  therefore take effect at the next batch boundary for every worker at
  once — no worker can serve one batch under two table versions.
* **Dispatch** — every batch is submitted at once to the ``N`` worker
  processes of a kept :class:`~repro.parallel.workers.WorkerPool`; the
  executor's call queue hands a worker its next batch as soon as it
  finishes one, so no worker waits on the parent between batches.
  Each worker also renders its batch's outcomes as a JSON fragment, so
  the parent's serial tail after the last batch is one hash.
  The instrumented program plan — program, deployed codec, every
  published table text — ships once when the pool forks and per-batch
  messages carry only the batch index (as
  :class:`~repro.parallel.engine.DiagnosisPool` ships its plans once
  and sends only corpus entries).  A worker that dies mid-batch costs a
  re-fork and a rerun of the unfinished batches.  With
  ``shared_pages`` the workers draw page frames from a shared-memory
  arena (:mod:`repro.machine.pagestore`) instead of private buffers.
* **Per-worker CCE state** — each batch is served by a fresh
  :class:`~repro.serving.session.ServingSession` owning its own encoding
  runtime (the paper's thread-local V register), allocator and process.
* **Determinism** — a batch's outcome is a pure function of (batch
  contents, table version): sessions are fresh per batch, the report
  excludes wall-clock time, and results merge in batch order.  Hence a
  ``workers=N`` report is byte-identical to ``workers=1`` modulo the
  ``workers`` field itself — the engine's distribution of work is
  unobservable in its output, which is what makes the scaling curve an
  apples-to-apples measurement.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..ccencoding import Strategy
from ..ccencoding.base import Codec
from ..core.instrument import instrument
from ..defense.interpose import DEFAULT_ONLINE_QUOTA
from ..defense.patch_table import PatchTable
from ..parallel.workers import WorkerPool
from ..patch import config as patch_config
from ..program.program import Program
from .handle import PatchTableHandle
from .services import (
    ServedService,
    inject_attacks,
    serving_registry,
    split_rounds,
)
from .session import BatchResult, ServingSession, outcomes_fragment
from .stream import LazyRequestStream

#: Report schema identifier (bump on layout changes).
REPORT_SCHEMA = "repro/serving-report/v1"

class ServingError(RuntimeError):
    """Engine misconfiguration or worker failure (picklable message)."""


@dataclass(frozen=True)
class ServingOptions:
    """Everything that shapes one serving run (all deterministic)."""

    service: str = "nginx"
    workers: int = 1
    requests: int = 1024
    batch_size: int = 256
    defended: bool = True
    allocator: str = "segregated"
    strategy: str = "incremental"
    #: Initial patch-table configuration text ("" = empty table).
    patches_text: str = ""
    #: Copy-on-write swaps: (batch_index, table config text).  The swap
    #: is applied at the admission of that batch index.
    swap_schedule: Tuple[Tuple[int, str], ...] = ()
    #: Inject the service's attack token after every N benign requests
    #: (0 = no attacks).
    attack_every: int = 0
    #: Back worker page frames with shared-memory arenas (workers > 1).
    shared_pages: bool = False
    quarantine_quota: int = DEFAULT_ONLINE_QUOTA
    #: Bounded admission: hold at most this many admitted batches in
    #: memory at a time (0 = legacy eager admission of the full
    #: stream).  Outcomes are byte-identical either way; the knob only
    #: bounds peak request memory, which matters when a fleet run
    #: drives many engines at once.
    max_admitted: int = 0


@dataclass(frozen=True)
class ServingPlan:
    """Worker-shipped state: program, codec, requests, table versions."""

    options: ServingOptions
    program: Program
    codec: Codec
    #: The admitted request stream (attack tokens included): the full
    #: tuple under eager admission, or a windowed
    #: :class:`~repro.serving.stream.LazyRequestStream` when
    #: ``max_admitted`` bounds admission.
    requests: Sequence[Any]
    #: version -> canonical table config text, for every published
    #: version (the copy-on-write wire format).
    tables: Tuple[Tuple[int, str], ...]
    #: Per-batch table version, stamped at admission.
    batch_versions: Tuple[int, ...]
    #: The service's attack token (None: no attack path).
    attack_token: Optional[Any]

    def batch(self, index: int) -> Tuple[Any, ...]:
        """The admitted request slice of batch ``index``."""
        if isinstance(self.requests, LazyRequestStream):
            return self.requests.batch(index)
        size = self.options.batch_size
        return tuple(self.requests[index * size:(index + 1) * size])


@dataclass
class ServingResult:
    """One engine run: the canonical report plus timing telemetry."""

    report: Dict[str, Any]
    batches: List[BatchResult]
    #: Wall-clock seconds of the dispatch loop (excluded from report).
    seconds: float
    workers: int
    #: High-water mark of admitted-but-live batches under bounded
    #: admission, observed on the controller-side stream (None when
    #: admission was eager, or when every batch ran in pool workers
    #: whose window state is per-process).  Telemetry, not report data.
    peak_admitted: Optional[int] = None

    @property
    def requests_per_second(self) -> float:
        """Wall-clock serving rate of this run."""
        if self.seconds <= 0:
            return 0.0
        return self.report["served"] / self.seconds

    @property
    def total_cycles(self) -> float:
        """Simulated cycles across all batches."""
        return sum(self.report["cycles"].values())


class _WorkerServeState:
    """Per-process serving state (pool worker, or in-process for the
    ``workers=1`` oracle — both run the identical code path)."""

    def __init__(self, plan: ServingPlan) -> None:
        self.plan = plan
        self.options = plan.options
        self._tables: Dict[int, PatchTable] = {}
        self._table_text = dict(plan.tables)

    def _table(self, version: int) -> PatchTable:
        table = self._tables.get(version)
        if table is None:
            text = self._table_text.get(version)
            if text is None:
                raise ServingError(f"batch stamped with unpublished "
                                   f"table version {version}")
            table = PatchTable(patch_config.loads(text))
            self._tables[version] = table
        return table

    def serve_batch(self, index: int) -> BatchResult:
        plan = self.plan
        options = self.options
        version = plan.batch_versions[index]
        session = ServingSession(
            plan.program, plan.codec,
            defended=options.defended,
            table=self._table(version),
            allocator=options.allocator,
            quarantine_quota=options.quarantine_quota)
        rounds = split_rounds(list(plan.batch(index)), plan.attack_token)
        outcomes, served, bytes_sent = session.serve_rounds(rounds)
        process = session.process
        return BatchResult(
            index=index,
            outcomes=tuple(outcomes),
            outcomes_json=outcomes_fragment(outcomes),
            served=served,
            bytes_sent=bytes_sent,
            cycles=tuple(sorted(session.meter.snapshot().items())),
            profile=tuple(sorted(process.alloc_profile.items())),
            table_version=version,
            wall=time.monotonic(),
        )


def _serve_index(state: _WorkerServeState, index: int) -> BatchResult:
    """Pool task: serve one admitted batch by index."""
    return state.serve_batch(index)


class ServingEngine:
    """Admits, batches and dispatches a serving run."""

    def __init__(self, options: ServingOptions,
                 service: Optional[ServedService] = None,
                 program: Optional[Program] = None,
                 codec: Optional[Codec] = None) -> None:
        #: Preforked worker pool (nginx's master/worker model): spawned
        #: lazily on the first parallel ``serve`` and reused across
        #: calls, so repeated runs pay the fork cost once.
        self.worker_pool = WorkerPool(
            "serve", options.workers, _serve_index, _WorkerServeState,
            error=ServingError, shared_pages=options.shared_pages)
        if options.batch_size < 1:
            raise ServingError(
                f"batch_size must be >= 1, got {options.batch_size}")
        if service is None:
            registry = serving_registry()
            service = registry.get(options.service)
            if service is None:
                raise ServingError(
                    f"unknown service {options.service!r}; choose from "
                    f"{', '.join(sorted(registry))}")
        self.options = options
        self.service = service
        if program is None:
            program = service.program_factory()
        self.program = program
        if codec is None:
            codec = instrument(
                program,
                strategy=Strategy.from_name(options.strategy)).codec
        self.codec = codec
        #: Controller-side versioned table (the copy-on-write handle).
        self.handle = PatchTableHandle(
            PatchTable(patch_config.loads(options.patches_text))
            if options.patches_text else PatchTable.empty())
        self.plan = self._admit()

    # -- admission -----------------------------------------------------

    def _admit(self) -> ServingPlan:
        """Build the request stream and stamp batches with versions.

        With ``max_admitted`` set, the stream is a windowed
        :class:`LazyRequestStream` instead of one eager tuple: batches
        materialize on demand and at most ``max_admitted`` of them are
        held at a time, in the controller and in every worker alike.
        Version stamping is unchanged — it is pure arithmetic over the
        batch count and the swap schedule, no request content needed.
        """
        options = self.options
        if options.max_admitted < 0:
            raise ServingError(
                f"max_admitted must be >= 0, got {options.max_admitted}")
        if options.attack_every and self.service.attack_token is None:
            raise ServingError(
                f"service {self.service.key!r} has no attack path")
        requests: Sequence[Any]
        if options.max_admitted:
            requests = LazyRequestStream(
                self.service.key, options.requests, options.batch_size,
                attack_every=options.attack_every,
                max_admitted=options.max_admitted)
        else:
            eager: List[Any] = self.service.stream(options.requests)
            if options.attack_every:
                eager = inject_attacks(eager, self.service.attack_token,
                                       options.attack_every)
            requests = tuple(eager)
        size = options.batch_size
        n_batches = (len(requests) + size - 1) // size
        schedule = dict(options.swap_schedule)
        versions: List[int] = []
        for index in range(n_batches):
            text = schedule.pop(index, None)
            if text is not None:
                self.handle.swap(PatchTable(patch_config.loads(text)))
            versions.append(self.handle.entry.version)
        if schedule:
            raise ServingError(
                f"swap schedule references batch indices beyond the "
                f"run: {sorted(schedule)} (only {n_batches} batches)")
        tables = tuple((entry.version, entry.config_text)
                       for entry in self.handle.history)
        return ServingPlan(
            options=options,
            program=self.program,
            codec=self.codec,
            requests=requests,
            tables=tables,
            batch_versions=tuple(versions),
            attack_token=self.service.attack_token,
        )

    # -- dispatch ------------------------------------------------------

    def serve(self) -> ServingResult:
        """Run every admitted batch; merge results in batch order."""
        plan = self.plan
        start = time.perf_counter()
        batches = self.worker_pool.map(
            range(len(plan.batch_versions)), plan)
        seconds = time.perf_counter() - start
        report = self._build_report(batches)
        peak = (plan.requests.peak_admitted
                if isinstance(plan.requests, LazyRequestStream) else None)
        return ServingResult(report=report, batches=batches,
                             seconds=seconds,
                             workers=self.options.workers,
                             peak_admitted=peak)

    def close(self) -> None:
        """Shut down the preforked worker pool (idempotent)."""
        self.worker_pool.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- deterministic merge -------------------------------------------

    def _build_report(self, batches: List[BatchResult]) -> Dict[str, Any]:
        """The canonical report: a pure function of batch results.

        Cycles sum in batch order (fixed float-addition order), the
        outcome digest hashes the JSON list of every per-request
        outcome in batch order, joined from the fragments the workers
        rendered, and no wall-clock quantity enters — so any worker
        count that serves the same batches produces a byte-identical
        report modulo the ``workers`` field.
        """
        options = self.options
        outcome_counts: Dict[str, int] = {}
        cycles: Dict[str, float] = {}
        profile: Dict[Tuple[str, int], int] = {}
        served = 0
        bytes_sent = 0
        for batch in batches:
            served += batch.served
            bytes_sent += batch.bytes_sent
            for status, _ in batch.outcomes:
                outcome_counts[status] = outcome_counts.get(status, 0) + 1
            for category, value in batch.cycles:
                cycles[category] = cycles.get(category, 0) + value
            for key, count in batch.profile:
                profile[key] = profile.get(key, 0) + count
        rendered = ",".join(batch.outcomes_json for batch in batches
                            if batch.outcomes_json)
        digest = hashlib.sha256(f"[{rendered}]".encode()).hexdigest()
        return {
            "schema": REPORT_SCHEMA,
            "service": options.service,
            "workers": options.workers,
            "requests": options.requests,
            "batch_size": options.batch_size,
            "defended": options.defended,
            "allocator": options.allocator,
            "strategy": options.strategy,
            "attack_every": options.attack_every,
            "max_admitted": options.max_admitted,
            "batches": len(batches),
            "table_versions": [batch.table_version for batch in batches],
            "served": served,
            "bytes_sent": bytes_sent,
            "outcomes": dict(sorted(outcome_counts.items())),
            "outcomes_digest": digest,
            "cycles": {category: cycles[category]
                       for category in sorted(cycles)},
            "profile": [[fun, ccid, profile[(fun, ccid)]]
                        for fun, ccid in sorted(profile)],
        }


def serve(options: ServingOptions, **engine_kwargs: Any) -> ServingResult:
    """Convenience one-shot: build an engine, run it, reap the pool."""
    with ServingEngine(options, **engine_kwargs) as engine:
        return engine.serve()
