"""Multi-process offline diagnosis: the parallel patch factory.

HeapTherapy+'s offline phase is embarrassingly parallel — each attack
report is an independent shadow-memory replay yielding ``{FUN, CCID, T}``
patches — so :class:`DiagnosisPool` fans a corpus out over worker
processes:

* The parent instruments every workload in the corpus **once** and ships
  the pickled program plans (program + deployed codec) to each worker
  through the pool *initializer* — per-task messages carry only the
  :class:`~repro.workloads.corpus.CorpusEntry` to replay, so a plan is
  never re-shipped per attack.
* Each worker replays its entries under
  :class:`~repro.patch.generator.OfflinePatchGenerator` and returns a
  compact :class:`~repro.parallel.result.DiagnosisResult` (patches,
  vulnerability classification, cycle totals) — plain data, no live
  allocator or machine references.
* The parent merges all results into per-workload
  :class:`~repro.defense.patch_table.PatchTable` objects with the
  order-independent merge of :func:`repro.patch.model.merge_patches`
  (widest-``T`` conflict policy, canonical sort), so ``jobs=N`` output
  is bit-identical to ``jobs=1``.

Worker lifecycle: the pool runs on a
:class:`~repro.parallel.workers.WorkerPool`, which forks lazily on the
first parallel call, keeps its workers across
:meth:`DiagnosisPool.diagnose` calls and recovers from a worker that
dies mid-task.  Each worker builds its per-workload generators lazily
on first use, so it only pays for the workloads it actually sees.  The
pool re-forks only when a call brings a different set of
``(key, program, codec)`` objects than the live workers were shipped
(compared by identity).  :meth:`close`, the context-manager exit or
garbage collection release the workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..ccencoding import Strategy
from ..ccencoding.base import Codec
from ..core.instrument import instrument
from ..defense.patch_table import PatchTable
from ..patch.generator import OfflinePatchGenerator
from ..patch.model import HeapPatch
from ..program.program import Program
from ..shadow.analyzer import DEFAULT_QUOTA
from ..workloads.corpus import (
    AttackCorpus,
    CorpusEntry,
    CorpusError,
    fuzz_workload_seed,
    is_fuzz_workload,
)
from ..workloads.vulnerable import workload_registry
from .result import CorpusDiagnosis, DiagnosisResult
from .workers import WorkerPool, resolve_jobs


#: Tasks per worker in one parallel ``diagnose``: each task replays a
#: contiguous run of entries.  Replays take well under a millisecond
#: each, so one message per entry would cost as much as the replay;
#: two runs per worker still let a fast worker take over the work
#: behind a slow entry (Heartbleed's replay dominates the default
#: corpus).
CHUNKS_PER_JOB = 2


class DiagnosisError(RuntimeError):
    """A worker failed to diagnose an entry (message-only: picklable)."""


@dataclass(frozen=True)
class ProgramPlan:
    """One workload's shipped state: the program and its deployed codec.

    Shipping the parent's codec (rather than re-instrumenting in the
    worker) guarantees every process keys patches off the *same* CCID
    space — re-deriving the plan per worker would merely repeat work,
    but shipping it makes the invariant structural.
    """

    key: str
    program: Program
    codec: Codec


@dataclass(frozen=True)
class DiagnosisPlan:
    """One corpus ready to replay: the program plans (shipped once via
    the pool initializer) and the entries (sent in runs, one per
    task)."""

    programs: Tuple[ProgramPlan, ...]
    entries: Tuple[CorpusEntry, ...]
    quarantine_quota: int = DEFAULT_QUOTA


class _WorkerState:
    """Per-process diagnosis state (one per pool worker, or in-process
    for the serial path — both run the identical code)."""

    def __init__(self, plan: DiagnosisPlan) -> None:
        self.quarantine_quota = plan.quarantine_quota
        self._programs: Dict[str, ProgramPlan] = {
            program_plan.key: program_plan
            for program_plan in plan.programs}
        self._generators: Dict[str, OfflinePatchGenerator] = {}

    def _generator(self, key: str) -> OfflinePatchGenerator:
        generator = self._generators.get(key)
        if generator is None:
            program_plan = self._programs[key]
            generator = OfflinePatchGenerator(
                program_plan.program, program_plan.codec,
                quarantine_quota=self.quarantine_quota)
            self._generators[key] = generator
        return generator

    def diagnose(self, entry: CorpusEntry) -> DiagnosisResult:
        program_plan = self._programs.get(entry.workload)
        if program_plan is None:
            raise DiagnosisError(
                f"{entry.entry_id}: workload {entry.workload!r} has no "
                f"shipped program plan")
        args = entry.resolve_args(program_plan.program)
        start = time.perf_counter()
        try:
            generation = self._generator(entry.workload).replay(*args)
        except Exception as exc:  # pragma: no cover - workload bugs
            raise DiagnosisError(
                f"{entry.entry_id}: replay failed: {exc!r}") from None
        seconds = time.perf_counter() - start
        summary = generation.report.summary()
        cycles: Tuple[Tuple[str, float], ...] = ()
        if generation.meter is not None:
            cycles = tuple(sorted(generation.meter.snapshot().items()))
        return DiagnosisResult(
            entry_id=entry.entry_id,
            workload=entry.workload,
            input_name=entry.input_name,
            expects_detection=entry.expects_detection,
            patches=tuple(generation.patches),
            vulns=summary.kinds,
            summary=summary,
            crashed=generation.crashed,
            cycles=cycles,
            seconds=seconds,
        )


def _diagnose_chunk(state: _WorkerState,
                    entries: Tuple[CorpusEntry, ...]
                    ) -> List[DiagnosisResult]:
    """Pool task: diagnose a run of corpus entries, in order."""
    return [state.diagnose(entry) for entry in entries]


def _chunked(entries: Tuple[CorpusEntry, ...],
             count: int) -> List[Tuple[CorpusEntry, ...]]:
    """Split ``entries`` into at most ``count`` contiguous runs."""
    size = max(1, -(-len(entries) // count))
    return [entries[i:i + size] for i in range(0, len(entries), size)]


def _shipped_identity(plan: DiagnosisPlan) -> Any:
    """What live workers depend on: *which* program and codec objects
    they were shipped, not their bytes (``plan.programs`` follows corpus
    order, so equal plans pickle differently whenever the corpus is
    reordered)."""
    return (plan.quarantine_quota,
            frozenset((program_plan.key, id(program_plan.program),
                       id(program_plan.codec))
                      for program_plan in plan.programs))


class DiagnosisPool:
    """Process-pool diagnosis engine over an attack corpus.

    Args:
        jobs: worker processes; ``1`` (the default) runs in-process
            through the identical worker code path, and ``0`` or
            ``None`` uses every usable CPU
            (:func:`~repro.parallel.workers.resolve_jobs`).
        strategy/scheme/prune: instrumentation options applied when the
            pool instruments corpus workloads itself (ignored for plans
            passed explicitly to :meth:`diagnose`).
        quarantine_quota: offline freed-block FIFO quota per replay.
    """

    def __init__(self, jobs: Optional[int] = 1, *,
                 strategy: Strategy = Strategy.INCREMENTAL,
                 scheme: str = "pcc",
                 prune: bool = False,
                 quarantine_quota: int = DEFAULT_QUOTA,
                 shared_pages: bool = False) -> None:
        self.jobs = resolve_jobs(jobs)
        self.strategy = strategy
        self.scheme = scheme
        self.prune = prune
        self.quarantine_quota = quarantine_quota
        #: Worker pool kept across calls (forked on the first parallel
        #: ``diagnose``), and the plan its workers were shipped — held
        #: strongly so the shipped objects' ``id``s stay unique.
        self.worker_pool = WorkerPool(
            "diag", self.jobs, _diagnose_chunk, _WorkerState,
            error=DiagnosisError, shared_pages=shared_pages)
        self._shipped: Optional[DiagnosisPlan] = None

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------

    def build_plan(self, corpus: AttackCorpus,
                   programs: Optional[Mapping[str, Tuple[Program, Codec]]]
                   = None) -> DiagnosisPlan:
        """Instrument each corpus workload once and freeze the plan.

        ``programs`` overrides registry resolution with pre-instrumented
        ``key -> (program, codec)`` pairs (the pipeline integration path,
        where :class:`~repro.core.pipeline.HeapTherapy` already holds a
        deployed codec).
        """
        plans: List[ProgramPlan] = []
        registry = None
        for key in corpus.workloads():
            if programs is not None and key in programs:
                program, codec = programs[key]
            else:
                if is_fuzz_workload(key):
                    # Synthesized corpora reference the deterministic
                    # fuzz generator by seed; the import is lazy because
                    # the fuzz package itself fans out through
                    # repro.parallel (a cycle at module level).
                    from ..fuzz.generator import (
                        build_program,
                        spec_for_seed,
                    )

                    program = build_program(
                        spec_for_seed(fuzz_workload_seed(key)))
                else:
                    if registry is None:
                        registry = workload_registry()
                    factory = registry.get(key)
                    if factory is None:
                        raise CorpusError(
                            f"unknown workload {key!r} in corpus"
                            + (f" {corpus.source!r}"
                               if corpus.source else ""))
                    program = factory()
                codec = instrument(program, strategy=self.strategy,
                                   scheme=self.scheme,
                                   prune=self.prune).codec
            plans.append(ProgramPlan(key, program, codec))
        return DiagnosisPlan(tuple(plans), tuple(corpus.entries),
                             self.quarantine_quota)

    # ------------------------------------------------------------------
    # Fan-out
    # ------------------------------------------------------------------

    def diagnose(self, corpus: AttackCorpus,
                 programs: Optional[Mapping[str, Tuple[Program, Codec]]]
                 = None) -> CorpusDiagnosis:
        """Replay every corpus entry; merge patches deterministically."""
        plan = self.build_plan(corpus, programs)
        shipped = self._shipped
        if (shipped is None
                or _shipped_identity(plan) != _shipped_identity(shipped)):
            self.worker_pool.close()
            self._shipped = plan
        start = time.perf_counter()
        chunks = _chunked(plan.entries, self.jobs * CHUNKS_PER_JOB)
        results = [result
                   for chunk in self.worker_pool.map(chunks, plan)
                   for result in chunk]
        seconds = time.perf_counter() - start
        merge_start = time.perf_counter()
        tables = self._merge(results)
        merge_seconds = time.perf_counter() - merge_start
        return CorpusDiagnosis(results=results, jobs=self.jobs,
                               seconds=seconds,
                               merge_seconds=merge_seconds,
                               tables=tables)

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        self.worker_pool.close()

    def __enter__(self) -> "DiagnosisPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Deterministic merge
    # ------------------------------------------------------------------

    @staticmethod
    def _merge(results: List[DiagnosisResult]) -> Dict[str, PatchTable]:
        """Per-workload, order-independent patch-table merge.

        Determinism argument: grouping is by workload key (a pure
        function of each result), and within a group the merge of
        :meth:`PatchTable.merged` unions vulnerability masks and params
        — commutative, associative operations — then sorts canonically.
        No step observes arrival order, worker identity or wall time, so
        any ``jobs`` count yields byte-identical serialized tables.
        """
        groups: Dict[str, List[Tuple[HeapPatch, ...]]] = {}
        for result in results:
            groups.setdefault(result.workload, []).append(result.patches)
        return {workload: PatchTable.merged(patch_groups)
                for workload, patch_groups in groups.items()}
