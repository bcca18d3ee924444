"""Automatic instrumentation verification (paper §VII)."""

import dataclasses

import pytest

from repro.ccencoding import Strategy
from repro.core.instrument import instrument, verify_instrumentation
from repro.workloads.vulnerable import (
    HeartbleedService,
    OptiPngOptimizer,
    table2_programs,
)


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("scheme", ["pcc", "pcce", "deltapath"])
def test_heartbleed_instrumentation_verifies(strategy, scheme):
    inst = instrument(HeartbleedService(), strategy=strategy, scheme=scheme)
    result = inst.verify()
    assert result.ok, result.render()
    assert not result.failures
    assert any("site set matches" in check for check in result.checks)
    assert any("distinguishable" in check for check in result.checks)


@pytest.mark.parametrize("program", table2_programs(),
                         ids=lambda prog: prog.name)
def test_every_table2_workload_verifies(program):
    result = instrument(program).verify()
    assert result.ok, result.render()


def test_tampered_plan_fails():
    inst = instrument(OptiPngOptimizer(), strategy=Strategy.TCS)
    plan = inst.plan
    # Drop one instrumented site — no longer the TCS selection.
    tampered = dataclasses.replace(
        plan, sites=frozenset(list(plan.sites)[1:]))
    result = verify_instrumentation(tampered, inst.codec)
    assert not result.ok
    assert any("diverges" in failure for failure in result.failures)


def test_stray_site_ids_fail():
    inst = instrument(OptiPngOptimizer())
    tampered = dataclasses.replace(
        inst.plan, sites=inst.plan.sites | {9999})
    result = verify_instrumentation(tampered, inst.codec)
    assert not result.ok
    assert any("unknown site ids" in failure
               for failure in result.failures)


def test_recursive_graph_verifies_with_warning():
    from repro.program.callgraph import CallGraph
    from repro.program.program import Program

    class Rec(Program):
        name = "rec"

        def build_graph(self):
            graph = CallGraph()
            graph.add_call_site("main", "walk")
            graph.add_call_site("walk", "walk", "self")
            graph.add_call_site("walk", "malloc")
            return graph

        def main(self, p):
            pass

    result = instrument(Rec()).verify()
    assert result.ok
    assert any("recursive" in warning for warning in result.warnings)


def test_render_transcript():
    result = instrument(HeartbleedService()).verify()
    text = result.render()
    assert text.startswith("instrumentation verification: PASS")
    assert "[ok]" in text


def test_total_collision_codec_warns_not_fails():
    """A colliding codec is a warning (spurious enhancement), not an
    instrumentation failure — matching the paper's collision argument."""
    from repro.ccencoding.base import Codec

    class Colliding(Codec):
        scheme_name = "colliding"

        def seed(self):
            return 1

        def mix(self, value, site):
            return 1

    inst = instrument(HeartbleedService(), strategy=Strategy.TCS)
    result = verify_instrumentation(inst.plan, Colliding(inst.plan))
    assert result.ok
    assert any("collides" in warning for warning in result.warnings)


# ---------------------------------------------------------------------------
# Cyclic graphs: enumeration-based checks are skipped, but well-formedness
# (check 1) must still catch tampering — for every strategy and scheme.
# ---------------------------------------------------------------------------


def _recursive_program():
    from repro.program.callgraph import CallGraph
    from repro.program.program import Program

    class RecursiveMutual(Program):
        name = "rec-mutual"

        def build_graph(self):
            graph = CallGraph()
            graph.add_call_site("main", "parse")
            graph.add_call_site("parse", "descend", "d")
            graph.add_call_site("descend", "parse", "up")  # cycle
            graph.add_call_site("descend", "malloc", "node")
            graph.add_call_site("parse", "free", "")
            return graph

        def main(self, p):
            pass

    return RecursiveMutual()


@pytest.mark.parametrize("strategy", list(Strategy))
def test_cyclic_graph_verifies_for_all_strategies(strategy):
    """PCC (the paper's scheme) supports recursion; every strategy's
    plan must verify on a cyclic graph via the structural argument."""
    program = _recursive_program()
    assert not program.graph.is_acyclic()
    result = instrument(program, strategy=strategy, scheme="pcc").verify()
    assert result.ok, result.render()
    assert any("recursive" in warning for warning in result.warnings)
    # Enumeration-based checks must NOT have run.
    assert not any("distinguishable" in check for check in result.checks)
    assert any("site set matches" in check for check in result.checks)


@pytest.mark.parametrize("scheme", ["pcce", "deltapath"])
def test_acyclic_only_schemes_refuse_recursive_graphs(scheme):
    from repro.ccencoding.base import EncodingError
    from repro.program.callgraph import CallGraphError

    with pytest.raises((EncodingError, CallGraphError)):
        instrument(_recursive_program(), scheme=scheme)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_cyclic_graph_tampered_plan_still_fails(strategy):
    """Check 1 (site set matches the strategy selection) is the only
    defense on recursive graphs; it must detect a dropped site."""
    program = _recursive_program()
    inst = instrument(program, strategy=strategy)
    if not inst.plan.sites:
        pytest.skip(f"{strategy.value} selects no sites here")
    tampered = dataclasses.replace(
        inst.plan, sites=frozenset(list(inst.plan.sites)[1:]))
    result = verify_instrumentation(tampered, inst.codec)
    assert not result.ok
    assert any("diverges" in failure for failure in result.failures)


def test_cyclic_graph_stray_site_still_fails():
    program = _recursive_program()
    inst = instrument(program)
    tampered = dataclasses.replace(
        inst.plan, sites=inst.plan.sites | {12345})
    result = verify_instrumentation(tampered, inst.codec)
    assert not result.ok
    assert any("unknown site ids" in failure
               for failure in result.failures)


# ---------------------------------------------------------------------------
# Pruned plans: verification re-runs the selection with the pre-pass.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", list(Strategy))
def test_pruned_plan_verifies(strategy):
    inst = instrument(HeartbleedService(), strategy=strategy, prune=True)
    assert inst.plan.pruned
    result = inst.verify()
    assert result.ok, result.render()
    assert any("+prune" in check for check in result.checks)


def test_pruned_plan_mislabeled_as_unpruned_fails():
    """A pruned site set claiming to be the plain selection (or vice
    versa) is tampering and must fail check 1."""
    pruned = instrument(HeartbleedService(), prune=True)
    plain = instrument(HeartbleedService())
    if pruned.plan.sites == plain.plan.sites:
        pytest.skip("pruning removed nothing on this workload")
    mislabeled = dataclasses.replace(pruned.plan, pruned=False)
    result = verify_instrumentation(mislabeled, pruned.codec)
    assert not result.ok
