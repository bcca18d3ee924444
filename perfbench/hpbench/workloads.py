"""The four benchmark workloads, built from public constructors only.

Every workload has the same life cycle, driven by :mod:`hpbench.runner`:

* ``setup()`` builds everything up to ready-to-serve (timed as
  ``setup_s``; the runner calls it several times and keeps the last);
* ``reference()`` runs the off-the-clock passes: the native
  (undefended) pass behind ``sim_overhead_pct`` and the in-process
  oracle the output checks compare against;
* ``round()`` does one closed-loop unit of work, times the program
  calls in it, and checks the outputs;
* ``close()`` stops every worker process the workload started.

Inputs come from the seed only: nginx paths and mysql queries are drawn
with the programs' own mix shares, spec profiles are renamed so their
trace RNG changes while the call-graph shape stays, and respond rounds
shuffle the corpus order.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.ccencoding import Strategy
from repro.core.instrument import instrument
from repro.core.pipeline import HeapTherapy
from repro.defense.patch_table import PatchTable
from repro.fleet import PatchRegistry, RegistryError, Subscriber
from repro.parallel import DiagnosisPool
from repro.patch import config as patch_config
from repro.serving import (ServedService, ServingEngine, ServingOptions,
                           ServingResult, nginx_body_patch)
from repro.workloads.corpus import AttackCorpus, default_corpus
from repro.workloads.services import mysql, nginx
from repro.workloads.services.harness import median_frequency_patches
from repro.workloads.spec import SPEC_PROFILES, SyntheticSpecProgram
from repro.workloads.vulnerable import workload_registry

#: Benign nginx requests per serving round (attacks come on top).
NGINX_REQUESTS = 2048
#: One ``!leak`` attack after every this many benign requests.
NGINX_ATTACK_EVERY = 200
#: Queries per mysql serving round.
MYSQL_QUERIES = 8192
#: Engine batch size (the engine default).
BATCH_SIZE = 256
#: Extra multiplier on the SPEC-like allocation counts; one pass over
#: the 12 programs then takes ~0.2 s, so a run holds dozens of passes.
SPEC_SCALE = 0.02
#: Median-frequency patches per SPEC program (Figure 8's fifth bar).
SPEC_PATCHES = 5
#: Fleet key the respond rounds sign and verify under.
FLEET_KEY = b"perfbench-fleet-key"


@dataclass
class Round:
    """One closed-loop unit of work and its checked outcome."""

    #: Wall seconds of the program calls (checks excluded).
    seconds: float
    #: Work done, in the workload's throughput unit.
    work: float
    attempted: int
    failed: int
    #: Simulated cycles of the round by ``CycleMeter`` category.
    cycles: Dict[str, float]
    #: Workload-specific layer data (replay seconds, pool figures).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Host-speed scale the runner sets (see :mod:`hpbench.hostspeed`).
    host_factor: float = 1.0

    @property
    def norm_seconds(self) -> float:
        """``seconds`` on the nominal host."""
        return self.seconds * self.host_factor


def add_cycles(into: Dict[str, float], items: Any) -> None:
    """Accumulate ``(category, cycles)`` pairs or a mapping."""
    pairs = items.items() if isinstance(items, dict) else items
    for category, value in pairs:
        into[category] = into.get(category, 0) + value


class Workload:
    """Base class: names, units and the life-cycle interface."""

    name = ""
    #: Throughput unit printed for humans (the JSON says ``ops/s``).
    unit = ""
    #: What one ``op`` is, for the per-op cycle figures.
    op = ""
    #: Whether ``workers`` changes how the work runs.
    parallel = True

    def __init__(self, seed: int, workers: int) -> None:
        self.seed = seed
        self.workers = workers

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> float:
        """Run the off-the-clock passes; return ``sim_overhead_pct``:
        defended over native ``CycleMeter`` totals on the same inputs."""
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def ops_per_round(self) -> int:
        raise NotImplementedError

    def plan_bytes(self) -> int:
        """Bytes shipped once per worker (0: no worker plan)."""
        return 0

    def close(self) -> None:
        """Stop worker processes (idempotent)."""


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------


class _Serving(Workload):
    """Traffic through :class:`ServingEngine` with a seeded stream."""

    key = ""
    attack_token: Optional[Any] = None
    attack_every = 0

    def __init__(self, seed: int, workers: int) -> None:
        super().__init__(seed, workers)
        self.tokens: List[Any] = self.make_tokens(
            random.Random(f"perfbench:{self.name}:{seed}"))
        self.engine: Optional[ServingEngine] = None
        self.digest = ""

    def make_tokens(self, rng: random.Random) -> List[Any]:
        raise NotImplementedError

    def program_factory(self) -> Any:
        raise NotImplementedError

    def patches_text(self, program: Any, codec: Any) -> str:
        return ""

    def service(self) -> ServedService:
        tokens = self.tokens
        return ServedService(self.key, self.program_factory,
                             stream=lambda count: list(tokens[:count]),
                             attack_token=self.attack_token)

    def _engine(self, workers: int, defended: bool = True
                ) -> ServingEngine:
        program = self.program_factory()
        codec = instrument(program, strategy=Strategy.INCREMENTAL).codec
        options = ServingOptions(
            service=self.key, workers=workers, requests=len(self.tokens),
            batch_size=BATCH_SIZE, defended=defended,
            patches_text=(self.patches_text(program, codec)
                          if defended else ""),
            attack_every=self.attack_every)
        return ServingEngine(options, service=self.service(),
                             program=program, codec=codec)

    def setup(self) -> None:
        self.close()
        self.engine = self._engine(self.workers)
        # The first serve forks the preforked worker pool: the engine is
        # ready to serve only after it.
        self.engine.serve()

    def reference(self) -> float:
        with self._engine(1) as oracle:
            defended = oracle.serve()
        with self._engine(1, defended=False) as native:
            undefended = native.serve()
        self.digest = defended.report["outcomes_digest"]
        return (defended.total_cycles / undefended.total_cycles - 1) * 100

    def plan_bytes(self) -> int:
        assert self.engine is not None
        return len(pickle.dumps(self.engine.plan,
                                protocol=pickle.HIGHEST_PROTOCOL))

    def ops_per_round(self) -> int:
        assert self.engine is not None
        return len(self.engine.plan.requests)

    def round(self) -> Round:
        engine = self.engine
        assert engine is not None
        start = time.perf_counter()
        result = engine.serve()
        seconds = time.perf_counter() - start
        admitted = engine.plan.requests
        failed = self.check(admitted, result)
        return Round(seconds=seconds, work=len(admitted),
                     attempted=len(admitted), failed=failed,
                     cycles=dict(result.report["cycles"]))

    def check(self, admitted: Any, result: ServingResult) -> int:
        """Failed requests of one serve: wrong outcomes, or every
        request when the digest differs from the in-process oracle's."""
        outcomes = [outcome for batch in result.batches
                    for outcome in batch.outcomes]
        failed = sum(1 for token, outcome in zip(admitted, outcomes)
                     if outcome != self.expected(token))
        failed += abs(len(admitted) - len(outcomes))
        if result.report["outcomes_digest"] != self.digest:
            failed = len(admitted)
        return failed

    def expected(self, token: Any) -> Tuple[str, int]:
        raise NotImplementedError

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None


class NginxGuarded(_Serving):
    """nginx traffic with the leak diagnosis deployed (guard page on the
    response-body context) and ``!leak`` attacks at a fixed interval."""

    name = "nginx_guarded"
    unit = "req/s"
    op = "request"
    key = "nginx"
    attack_token = nginx.LEAK_REQUEST
    attack_every = NGINX_ATTACK_EVERY

    def make_tokens(self, rng: random.Random) -> List[Any]:
        paths = sorted(nginx.DOCUMENT_TREE)
        return [nginx.MISSING_PATH
                if rng.random() < nginx.MISSING_PATH_WEIGHT
                else paths[rng.randrange(len(paths))]
                for _ in range(NGINX_REQUESTS)]

    def program_factory(self) -> Any:
        return nginx.NginxServer()

    def patches_text(self, program: Any, codec: Any) -> str:
        return patch_config.dumps([nginx_body_patch(program, codec)])

    def expected(self, token: Any) -> Tuple[str, int]:
        if token == nginx.LEAK_REQUEST:
            return ("blocked", 0)
        if token == nginx.MISSING_PATH:
            return ("ok", nginx.ERROR_PAGE_SIZE)
        return ("ok", nginx.DOCUMENT_TREE[token])


class MysqlPool(_Serving):
    """The mysql point-query mix over ``nproc`` workers, empty table."""

    name = "mysql_pool"
    unit = "queries/s"
    op = "query"
    key = "mysql"

    def make_tokens(self, rng: random.Random) -> List[Any]:
        return [(rng.randrange(mysql.BUFFER_POOL_PAGES),
                 rng.random() < mysql.SORT_QUERY_FRACTION)
                for _ in range(MYSQL_QUERIES)]

    def program_factory(self) -> Any:
        return mysql.MySqlServer()

    def expected(self, token: Any) -> Tuple[str, int]:
        return ("ok", 1)

    def check(self, admitted: Any, result: ServingResult) -> int:
        failed = super().check(admitted, result)
        # One row per query.
        if result.report["bytes_sent"] != len(admitted):
            failed = len(admitted)
        return failed


# ----------------------------------------------------------------------
# SPEC-like Figure 8 pass
# ----------------------------------------------------------------------


class SpecFig8(Workload):
    """Figure 8's "5 patches" bar: every SPEC-like program run defended
    with five median-frequency overflow patches, op by op."""

    name = "spec_fig8"
    unit = "guest Mcycles/s"
    op = "program run"
    parallel = False

    def __init__(self, seed: int, workers: int) -> None:
        super().__init__(seed, workers)
        #: Same shape, new trace: ``SpecProfile.name`` keys the RNG.
        self.profiles = [dataclasses.replace(
            profile, name=f"{profile.name}~s{seed}")
            for profile in SPEC_PROFILES]
        self.systems: List[Tuple[HeapTherapy, PatchTable]] = []
        self.expected_cycles: List[float] = []

    def setup(self) -> None:
        systems = []
        for profile in self.profiles:
            system = HeapTherapy(SyntheticSpecProgram(profile,
                                                      scale=SPEC_SCALE))
            table = PatchTable(median_frequency_patches(
                system, count=SPEC_PATCHES))
            systems.append((system, table))
        self.systems = systems

    def reference(self) -> float:
        native = 0.0
        self.expected_cycles = []
        for system, table in self.systems:
            native += system.run_native().meter.total
            self.expected_cycles.append(
                system.run_defended(table).meter.total)
        return (sum(self.expected_cycles) / native - 1) * 100

    def ops_per_round(self) -> int:
        return len(self.systems)

    def round(self) -> Round:
        seconds = 0.0
        failed = 0
        cycles: Dict[str, float] = {}
        for (system, table), expected in zip(self.systems,
                                             self.expected_cycles):
            start = time.perf_counter()
            run = system.run_defended(table)
            seconds += time.perf_counter() - start
            if run.blocked or run.meter.total != expected:
                failed += 1
            add_cycles(cycles, run.meter.snapshot())
        return Round(seconds=seconds, work=sum(cycles.values()) / 1e6,
                     attempted=len(self.systems), failed=failed,
                     cycles=cycles)


# ----------------------------------------------------------------------
# Incident response
# ----------------------------------------------------------------------


class Respond(Workload):
    """Attack reports in, verified signed tables out, in rounds.

    A round diagnoses the 30 Table II + SAMATE reports in a seeded
    order through :class:`DiagnosisPool`, then per program submits the
    merged patches to a fresh :class:`PatchRegistry`, accepts the signed
    snapshot through a :class:`Subscriber`, and re-runs the attack and
    the benign input defended under the accepted table.
    """

    name = "respond"
    unit = "reports/s"
    op = "report"

    def __init__(self, seed: int, workers: int) -> None:
        super().__init__(seed, workers)
        self.corpus = default_corpus()
        self._orders = self._shuffled(random.Random(
            f"perfbench:respond:{seed}"))
        self.systems: Dict[str, HeapTherapy] = {}
        self.pool = DiagnosisPool(jobs=workers)

    def _shuffled(self, rng: random.Random) -> Iterator[AttackCorpus]:
        entries = list(self.corpus.entries)
        while True:
            rng.shuffle(entries)
            yield AttackCorpus(tuple(entries), source="perfbench:respond")

    def setup(self) -> None:
        registry = workload_registry()
        self.systems = {key: HeapTherapy(registry[key]())
                        for key in self.corpus.workloads()}

    def _programs(self) -> Dict[str, Tuple[Any, Any]]:
        return {key: (system.program, system.instrumented.codec)
                for key, system in self.systems.items()}

    def reference(self) -> float:
        diagnosis = DiagnosisPool(jobs=1).diagnose(
            self.corpus, programs=self._programs())
        native = defended = 0.0
        for key, system in self.systems.items():
            program = system.program
            native += system.run_native(program.benign_input()).meter.total
            defended += system.run_defended(
                diagnosis.table_for(key), program.benign_input()).meter.total
        return (defended / native - 1) * 100

    def ops_per_round(self) -> int:
        return len(self.corpus)

    def round(self) -> Round:
        corpus = next(self._orders)
        programs = self._programs()
        cycles: Dict[str, float] = {}
        start = time.perf_counter()
        diagnosis = self.pool.diagnose(corpus, programs=programs)
        verdicts: Dict[str, bool] = {}
        for key, system in self.systems.items():
            verdicts[key] = self._deploy(system, diagnosis.table_for(key),
                                         cycles)
        seconds = time.perf_counter() - start
        failed = 0
        for result in diagnosis.results:
            add_cycles(cycles, result.cycles)
            if not result.ok or not verdicts.get(result.workload, False):
                failed += 1
        replay = [result.seconds for result in diagnosis.results]
        return Round(
            seconds=seconds, work=len(corpus), attempted=len(corpus),
            failed=failed, cycles=cycles,
            extra={"replay_seconds": replay,
                   "diagnose_seconds": diagnosis.seconds,
                   "merge_seconds": diagnosis.merge_seconds,
                   "jobs": diagnosis.jobs})

    @staticmethod
    def _deploy(system: HeapTherapy, table: PatchTable,
                cycles: Dict[str, float]) -> bool:
        """Sign, verify, accept and re-verify one program's table."""
        try:
            snapshot = PatchRegistry(FLEET_KEY).submit(table.patches)
            accepted = Subscriber(FLEET_KEY).accept(snapshot)
        except RegistryError:
            return False
        program = system.program
        attack = system.run_defended(accepted, program.attack_input())
        benign = system.run_defended(accepted, program.benign_input())
        add_cycles(cycles, attack.meter.snapshot())
        add_cycles(cycles, benign.meter.snapshot())
        defeated = not program.attack_succeeded(
            None if attack.blocked else attack.result)
        works = (not benign.blocked
                 and program.benign_works(benign.result))
        return bool(len(accepted)) and defeated and works


WORKLOADS = {cls.name: cls
             for cls in (NginxGuarded, MysqlPool, SpecFig8, Respond)}
