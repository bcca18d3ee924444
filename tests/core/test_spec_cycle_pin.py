"""Pinned cycle model of the Figure 8 five-patch runs.

Three SPEC-like programs run through ``HeapTherapy.run_defended`` with
their five median-frequency overflow patches, exactly as the
``spec_fig8`` benchmark runs them.  The per-category cycles (in meter
order), the result checksum and a digest of the sorted allocation
profile (which holds every CCID) are fixed constants: a change to the
call protocol, the encoding or the defense that moves any of them
changes the paper's overhead figures and must be deliberate.
"""

import hashlib

import pytest

from repro.core.pipeline import HeapTherapy
from repro.defense.patch_table import PatchTable
from repro.workloads.services.harness import median_frequency_patches
from repro.workloads.spec import SPEC_PROFILES, SyntheticSpecProgram

PINNED = {
    "400.perlbench": (
        [("encoding", 7866), ("base", 1898884), ("interpose", 87180),
         ("metadata", 94445), ("lookup", 6435), ("defense", 36000)],
        399287100,
        "3bb8864088d41636a8c4a5ea2b4b7678133834ba83126e3959a538fc150815fb"),
    "403.gcc": (
        [("encoding", 628), ("base", 2706392), ("interpose", 6900),
         ("metadata", 7475), ("lookup", 513), ("defense", 30000)],
        2077052485,
        "66343d4fe65abf1f4874979921ae6645850de0cdb2ad8777f69c73f1c1e88e2a"),
    "471.omnetpp": (
        [("encoding", 5875), ("base", 1550570), ("interpose", 64080),
         ("metadata", 69420), ("lookup", 4806), ("defense", 60000)],
        965810250,
        "e9a387ccfc3ffb2904142ee3b7bc2fb14b35f312c425a86fed8b3a129f85c517"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_five_patch_run_is_pinned(name):
    profile = next(p for p in SPEC_PROFILES if p.name == name)
    system = HeapTherapy(SyntheticSpecProgram(profile, scale=0.02))
    table = PatchTable(median_frequency_patches(system, count=5))
    run = system.run_defended(table)
    cycles, checksum, profile_digest = PINNED[name]
    assert not run.blocked
    assert list(run.meter.snapshot().items()) == cycles
    assert run.result["checksum"] == checksum
    digest = hashlib.sha256(
        repr(sorted(run.process.alloc_profile.items())).encode()).hexdigest()
    assert digest == profile_digest
