"""Every process fan-out survives a SIGKILLed worker.

``repro diagnose``, ``repro serve`` and the three
:func:`~repro.parallel.fanout.fanout_map` callers (``repro fuzz``,
``repro synth``, ``repro fleet``) all run on one
:class:`~repro.parallel.workers.WorkerPool`, so one injector arms them
all: ``REPRO_CRASH_TASK=<pool>:<index>`` SIGKILLs the worker about to
run that task, and ``REPRO_CRASH_FLAG`` makes the crash once-only.  A
once-only crash must leave each caller's canonical report
byte-identical to its one-worker run; a crash loop must fail with the
caller's typed error after :data:`MAX_POOL_REBUILDS` rebuilds.
"""

import json
from dataclasses import replace

import pytest

from repro.fleet import FleetOptions, run_fleet
from repro.fuzz import run_campaign
from repro.parallel import DiagnosisError, DiagnosisPool
from repro.parallel.workers import MAX_POOL_REBUILDS, WorkerPoolError
from repro.serving import ServingError, ServingOptions, serve
from repro.synth import synthesize_range
from repro.workloads.corpus import table2_corpus

SERVE = ServingOptions(service="nginx", requests=80, batch_size=10,
                       attack_every=9)


def diagnose(jobs):
    with DiagnosisPool(jobs=jobs) as pool:
        return pool.diagnose(table2_corpus()).serialize()


def serve_report(jobs):
    report = dict(serve(replace(SERVE, workers=jobs)).report)
    report.pop("workers")
    return json.dumps(report, sort_keys=True)


def fleet_report(jobs):
    return json.dumps(run_fleet(FleetOptions(instances=4, jobs=jobs)).report,
                      sort_keys=True)


#: caller -> (report as a function of the worker count, the task the
#: injector targets, the typed error of a crash loop).
CALLERS = {
    "diagnose": (diagnose, "diag:1", DiagnosisError),
    "serve": (serve_report, "serve:3", ServingError),
    "fuzz": (lambda jobs: run_campaign(0, 12, jobs=jobs).render(),
             "fanout:5", WorkerPoolError),
    "synth": (lambda jobs: synthesize_range(0, 4, jobs=jobs).render_json(),
              "fanout:2", WorkerPoolError),
    "fleet": (fleet_report, "fanout:1", WorkerPoolError),
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
class TestEveryCaller:
    def test_once_only_crash_matches_one_worker(self, caller, monkeypatch,
                                                tmp_path):
        report, task, _ = CALLERS[caller]
        oracle = report(1)
        flag = tmp_path / "crash-once"
        monkeypatch.setenv("REPRO_CRASH_TASK", task)
        monkeypatch.setenv("REPRO_CRASH_FLAG", str(flag))
        crashed = report(2)
        assert flag.exists(), "fault injection never fired"
        assert crashed == oracle

    def test_crash_loop_fails_typed_after_bounded_rebuilds(
            self, caller, monkeypatch):
        report, task, error = CALLERS[caller]
        monkeypatch.setenv("REPRO_CRASH_TASK", task)
        monkeypatch.delenv("REPRO_CRASH_FLAG", raising=False)
        with pytest.raises(error) as excinfo:
            report(2)
        assert "giving up" in str(excinfo.value)
        assert str(MAX_POOL_REBUILDS) in str(excinfo.value)
