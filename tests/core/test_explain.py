"""Patch explanation tooling."""

import pytest

from repro.ccencoding import SCHEMES, InstrumentationPlan, Strategy
from repro.core.explain import explain_patch
from repro.patch.model import HeapPatch
from repro.vulntypes import VulnType
from repro.workloads.vulnerable import HeartbleedService


@pytest.fixture(scope="module")
def program():
    return HeartbleedService()


def codec_for(program, scheme, strategy=Strategy.TCS):
    plan = InstrumentationPlan.build(program.graph,
                                     program.graph.allocation_targets,
                                     strategy)
    return SCHEMES[scheme].build(plan)


def patch_for(program, codec):
    """A patch on the hb_request buffer context, derived honestly."""
    from repro.patch.generator import OfflinePatchGenerator
    result = OfflinePatchGenerator(program, codec).replay(
        HeartbleedService.attack_input())
    # Pick the patch whose context profiling will match the 34KB buffer.
    return result.patches[0]


def test_profiled_explanation_with_pcc(program):
    codec = codec_for(program, "pcc")
    patch = patch_for(program, codec)
    explanation = explain_patch(
        program, codec, patch,
        profile_args=(HeartbleedService.attack_input(),))
    assert explanation.resolved
    context = explanation.contexts[0]
    assert context.how == "profiled"
    assert context.observed_allocations >= 1
    assert context.chain[0] == "main"
    assert context.chain[-1] == "malloc"


def test_decoded_explanation_with_pcce(program):
    codec = codec_for(program, "pcce")
    patch = patch_for(program, codec)
    explanation = explain_patch(program, codec, patch)
    assert explanation.resolved
    assert explanation.contexts[0].how == "decoded"
    assert explanation.contexts[0].chain[-1] == "malloc"


def test_decoded_and_profiled_agree(program):
    codec = codec_for(program, "pcce")
    patch = patch_for(program, codec)
    explanation = explain_patch(
        program, codec, patch,
        profile_args=(HeartbleedService.attack_input(),))
    # One entry, recovered by decoding and confirmed by profiling.
    assert len(explanation.contexts) == 1
    context = explanation.contexts[0]
    assert context.how == "decoded"
    assert context.observed_allocations >= 1
    assert not explanation.ambiguous


def test_unmatched_patch_unresolved(program):
    codec = codec_for(program, "pcc")
    bogus = HeapPatch("malloc", 0x1234, VulnType.OVERFLOW)
    explanation = explain_patch(
        program, codec, bogus,
        profile_args=(HeartbleedService.benign_input(),))
    assert not explanation.resolved
    assert "no matching" in explanation.render()


def test_render_mentions_context(program):
    codec = codec_for(program, "pcce")
    patch = patch_for(program, codec)
    text = explain_patch(program, codec, patch).render()
    assert "decoded" in text
    assert "malloc" in text
