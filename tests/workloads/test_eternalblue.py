"""EternalBlue-like extension workload."""

import pytest

from repro.core.pipeline import HeapTherapy
from repro.vulntypes import VulnType
from repro.workloads.vulnerable import SmbServer, extension_programs
from repro.workloads.vulnerable.eternalblue import LEGIT_HANDLER, SHELLCODE


@pytest.fixture(scope="module")
def system():
    return HeapTherapy(SmbServer())


def test_word_truncation_is_the_bug():
    attack = SmbServer.attack_input()
    assert attack.fea_total > 0xFFFF
    assert attack.truncated_total < len(attack.fea_data)
    benign = SmbServer.benign_input()
    assert benign.truncated_total == len(benign.fea_data)


def test_grooming_plants_hijack(system):
    program = system.program
    native = system.run_native(SmbServer.attack_input())
    assert native.result.facts["dispatched_handler"] == SHELLCODE
    assert program.attack_succeeded(native.result)


def test_benign_session_dispatches_legit_handler(system):
    program = system.program
    native = system.run_native(SmbServer.benign_input())
    assert native.result.facts["dispatched_handler"] == LEGIT_HANDLER
    assert program.benign_works(native.result)


def test_offline_analysis_pins_the_fea_buffer(system):
    generation = system.generate_patches(SmbServer.attack_input())
    assert generation.detected
    assert all(patch.vuln & VulnType.OVERFLOW
               for patch in generation.patches)


def test_defense_prevents_hijack(system):
    program = system.program
    generation = system.generate_patches(SmbServer.attack_input())
    run = system.run_defended(generation.patches, SmbServer.attack_input())
    outcome = None if run.blocked else run.result
    assert not program.attack_succeeded(outcome)
    if run.completed:
        assert run.result.facts["dispatched_handler"] == LEGIT_HANDLER


def test_benign_unaffected_by_patch(system):
    program = system.program
    generation = system.generate_patches(SmbServer.attack_input())
    run = system.run_defended(generation.patches, SmbServer.benign_input())
    assert run.completed
    assert program.benign_works(run.result)


def test_extension_registry():
    assert any(isinstance(program, SmbServer)
               for program in extension_programs())
