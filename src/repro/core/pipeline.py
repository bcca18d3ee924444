"""End-to-end HeapTherapy+ pipeline.

``HeapTherapy`` wires the three components of Figure 1 around one program:

1. instrument once (:mod:`repro.core.instrument`) and statically
   verify the encoding's soundness before deployment
   (:mod:`repro.analysis.encverify`; policy via ``verify_encoding=``),
2. :meth:`generate_patches` — replay an attack input offline under shadow
   analysis and emit configuration-file patches,
3. :meth:`run_defended` — execute with the Online Defense Generator
   interposed, patches loaded into the frozen hash table.

A defended run ends in one of two ways: it completes (possibly with the
attack neutralized silently — zero-filled leaks, deferred reuse) or it is
*blocked* by a guard-page fault, which the pipeline reports instead of
propagating, mirroring a process crash stopping an overflow before data
corruption.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Optional,
                    Sequence, Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.encverify import EncodingCertificate
    from ..analysis.staticpatch import StaticPatchResult
    from ..parallel.result import CorpusDiagnosis

from ..allocator.libc import LibcAllocator
from ..ccencoding import Strategy
from ..defense.interpose import DEFAULT_ONLINE_QUOTA, DefendedAllocator
from ..defense.patch_table import PatchTable
from ..machine.errors import SegmentationFault
from ..patch.generator import OfflinePatchGenerator, PatchGenerationResult
from ..patch.model import HeapPatch
from ..program.cost import CycleMeter
from ..program.monitor import DirectMonitor
from ..program.process import Process
from ..program.program import Program
from .instrument import InstrumentedProgram, instrument


@dataclass
class NativeRun:
    """Outcome of an uninstrumented-defense (baseline) execution."""

    result: Any
    meter: CycleMeter
    process: Process
    allocator: Any  # the underlying Allocator used for this run


@dataclass
class DefendedRun:
    """Outcome of one execution under the online defense."""

    result: Any
    #: True when a guard page stopped the run (overflow defeated).
    blocked: bool
    #: The fault message when blocked.
    fault: Optional[str]
    meter: CycleMeter
    process: Process
    allocator: DefendedAllocator

    @property
    def completed(self) -> bool:
        """True when the program ran to completion."""
        return not self.blocked


class HeapTherapy:
    """The full system around one instrumented program."""

    def __init__(self, program: Program,
                 strategy: Strategy = Strategy.INCREMENTAL,
                 scheme: str = "pcc",
                 targets: Optional[Sequence[str]] = None,
                 quarantine_quota: int = DEFAULT_ONLINE_QUOTA,
                 allocator_factory: Optional[Callable[[], Any]] = None,
                 prune: bool = False,
                 verify_encoding: str = "warn") -> None:
        """Build the system around one instrumented program.

        Args:
            verify_encoding: encoding-soundness policy applied at
                deployment time (``repro.analysis.encverify``):
                ``"warn"`` (default) statically verifies the plan and
                warns on a definite CCID collision; ``"strict"``
                refuses to deploy any plan that cannot be certified
                (collisions *and* unverifiable recursive graphs);
                ``"off"`` skips verification.  The certificate is kept
                on :attr:`encoding_certificate`.
        """
        if verify_encoding not in ("off", "warn", "strict"):
            raise ValueError(
                f"verify_encoding must be 'off', 'warn' or 'strict', "
                f"got {verify_encoding!r}")
        self.program = program
        self.strategy = strategy
        self.scheme = scheme
        self.prune = prune
        self.instrumented: InstrumentedProgram = instrument(
            program, strategy=strategy, scheme=scheme, targets=targets,
            prune=prune)
        #: The static soundness certificate of the deployed encoding
        #: (None when ``verify_encoding="off"``).
        self.encoding_certificate: Optional["EncodingCertificate"] = None
        if verify_encoding != "off":
            from ..analysis.encverify import (EncodingSoundnessWarning,
                                              verify_codec)
            certificate = verify_codec(self.instrumented.codec,
                                       program_name=program.name)
            self.encoding_certificate = certificate
            if not certificate.certified:
                if verify_encoding == "strict":
                    from ..ccencoding.base import EncodingError
                    raise EncodingError(
                        f"refusing to deploy unverified encoding for "
                        f"{program.name!r} "
                        f"[{certificate.scheme}/{certificate.strategy}]"
                        f": " + ("; ".join(certificate.notes)
                                 if certificate.abstained else
                                 f"{len(certificate.collisions)} CCID "
                                 f"collision(s); run `repro "
                                 f"verify-encoding` for counterexamples"))
                if not certificate.abstained:
                    warnings.warn(
                        f"encoding for {program.name!r} has "
                        f"{len(certificate.collisions)} CCID "
                        f"collision(s); patches may over- or "
                        f"under-apply (see encoding_certificate)",
                        EncodingSoundnessWarning, stacklevel=2)
        self.quarantine_quota = quarantine_quota
        #: Constructs the underlying allocator per run; any
        #: :class:`~repro.allocator.base.Allocator` works (the defense is
        #: allocator-transparent — paper property 5).
        self.allocator_factory = (allocator_factory
                                  if allocator_factory is not None
                                  else LibcAllocator)

    # ------------------------------------------------------------------
    # Offline
    # ------------------------------------------------------------------

    def generate_patches(self, *attack_args: Any,
                         jobs: Optional[int] = None,
                         **attack_kwargs: Any
                         ) -> Union[PatchGenerationResult,
                                    "CorpusDiagnosis"]:
        """Replay attack input(s) offline; return patches + analysis.

        Without ``jobs`` (the default), replays one attack input and
        returns a :class:`PatchGenerationResult`.  With ``jobs=N``, the
        single positional argument is a *corpus* — an iterable of attack
        inputs — fanned out over ``N`` worker processes, returning a
        :class:`~repro.parallel.result.CorpusDiagnosis` whose merged
        table is bit-identical to a serial (``jobs=1``) run.
        """
        if jobs is not None:
            if len(attack_args) != 1 or attack_kwargs:
                raise TypeError(
                    "generate_patches(corpus, jobs=N) takes exactly one "
                    "positional argument: an iterable of attack inputs")
            return self.generate_patches_parallel(attack_args[0],
                                                  jobs=jobs)
        generator = OfflinePatchGenerator(self.program,
                                          self.instrumented.codec)
        return generator.replay(*attack_args, **attack_kwargs)

    def generate_patches_parallel(
            self, corpus: Iterable[Any],
            jobs: Optional[int] = None) -> "CorpusDiagnosis":
        """Diagnose a whole attack corpus for this program, in parallel.

        ``corpus`` is an iterable of attack inputs (each item either one
        input object or a tuple of replay arguments).  The corpus is
        fanned out over ``jobs`` worker processes (``None`` = host CPU
        count) through :class:`~repro.parallel.engine.DiagnosisPool`;
        every worker receives this system's program and *deployed codec*
        once, so patches from all workers share one CCID space.  The
        merged table is deterministic: any ``jobs`` value serializes
        bit-identical to a serial run.
        """
        from ..parallel.engine import DiagnosisPool
        from ..workloads.corpus import AttackCorpus, CorpusEntry

        key = self.program.name
        entries = []
        for index, item in enumerate(corpus):
            args = item if isinstance(item, tuple) else (item,)
            entries.append(CorpusEntry(f"{key}:input#{index}", key,
                                       input_name=None, args=args))
        with DiagnosisPool(jobs=jobs, strategy=self.strategy,
                           scheme=self.scheme, prune=self.prune) as pool:
            return pool.diagnose(
                AttackCorpus(tuple(entries), source=f"pipeline:{key}"),
                programs={key: (self.program, self.instrumented.codec)})

    def generate_static_patches(self) -> "StaticPatchResult":
        """Derive speculative patches statically — no attack input.

        The attack-input-free alternative to :meth:`generate_patches`:
        the abstract interpreter flags candidate vulnerable allocation
        sites and every calling context reaching them is lowered to a
        {FUN, CCID, T} patch under the deployed codec.  The resulting
        :class:`~repro.analysis.staticpatch.StaticPatchResult` feeds
        :meth:`run_defended` exactly like a replay-generated patch set.
        """
        from ..analysis.staticpatch import StaticPatchGenerator
        generator = StaticPatchGenerator(self.program,
                                         self.instrumented.codec)
        return generator.generate()

    # ------------------------------------------------------------------
    # Online
    # ------------------------------------------------------------------

    def run_native(self, *args: Any, **kwargs: Any) -> NativeRun:
        """Run without interposition (but with encoding instrumentation,
        matching the deployed binary)."""
        meter = CycleMeter()
        allocator = self.allocator_factory()
        runtime = self.instrumented.runtime(meter)
        process = Process(self.program.graph, heap=allocator,
                          context_source=runtime, meter=meter,
                          record_allocations=False)
        result = process.run(self.program, *args, **kwargs)
        return NativeRun(result, meter, process, allocator)

    def run_defended(self, patches: Union[PatchTable, Iterable[HeapPatch]],
                     *args: Any, **kwargs: Any) -> DefendedRun:
        """Run with the Online Defense Generator interposed."""
        table = (patches if isinstance(patches, PatchTable)
                 else PatchTable(patches))
        meter = CycleMeter()
        underlying = self.allocator_factory()
        runtime = self.instrumented.runtime(meter)
        defended = DefendedAllocator(
            underlying, table, context_source=runtime, meter=meter,
            quarantine_quota=self.quarantine_quota)
        monitor = DirectMonitor(underlying.memory, defended, meter)
        process = Process(self.program.graph, monitor=monitor,
                          context_source=runtime, meter=meter,
                          record_allocations=False)
        blocked = False
        fault: Optional[str] = None
        result: Any = None
        try:
            result = process.run(self.program, *args, **kwargs)
        except SegmentationFault as exc:
            blocked = True
            fault = str(exc)
        return DefendedRun(result, blocked, fault, meter, process, defended)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def patch_and_defend(
            self, attack_args: Tuple[Any, ...],
            replay_args: Optional[Tuple[Any, ...]] = None,
    ) -> Tuple[PatchGenerationResult, DefendedRun]:
        """Generate patches from an attack, then re-run it defended."""
        generation = self.generate_patches(*attack_args)
        if replay_args is None:
            replay_args = attack_args
        defended = self.run_defended(generation.patches, *replay_args)
        return generation, defended
