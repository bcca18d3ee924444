"""Every allocation entry point works through the whole pipeline.

The paper's patch tuple keys on the allocation FUNCTION; this test sweeps
the complete family — malloc, calloc, realloc, memalign, aligned_alloc,
posix_memalign — through offline detection and online defense, verifying
the patch carries the right FUN and matches only that entry point.
"""

import pytest

from repro.core.pipeline import HeapTherapy
from repro.program.callgraph import CallGraph
from repro.program.process import Process
from repro.vulntypes import VulnType
from repro.workloads.vulnerable.base import RunOutcome, VulnerableProgram

FUNS = ("malloc", "calloc", "realloc", "memalign", "aligned_alloc",
        "posix_memalign")


class AnyFunLeaker(VulnerableProgram):
    """Allocates via a chosen entry point and leaks uninitialized bytes."""

    vulnerability = "UR"
    reference = "api-coverage"

    def __init__(self, fun: str):
        super().__init__()
        self.fun = fun
        self.name = f"leaker-{fun}"

    def build_graph(self):
        graph = CallGraph()
        graph.add_call_site("main", "malloc", "seed")
        graph.add_call_site("main", "free")
        if self.fun == "realloc":
            graph.add_call_site("main", "malloc", "initial")
        graph.add_call_site("main", self.fun, "vuln")
        return graph

    def attack_input(self):
        return 8     # initialize only 8 of 64 bytes

    def benign_input(self):
        return 64    # fully initialized

    def main(self, p: Process, initialized: int) -> RunOutcome:
        # A large dirty region, so the vulnerable buffer lands on stale
        # bytes wherever the aligned variants place it.
        seed = p.malloc(512, site="seed")
        p.fill(seed, 512, 0x77)
        p.free(seed)
        buf = self._allocate(p)
        p.syscall_in(buf, b"I" * initialized)
        leaked = p.syscall_out(buf, 64)
        return RunOutcome(response=leaked)

    def _allocate(self, p: Process) -> int:
        if self.fun == "malloc":
            return p.malloc(64, site="vuln")
        if self.fun == "calloc":
            return p.calloc(1, 64, site="vuln")
        if self.fun == "realloc":
            initial = p.malloc(32, site="initial")
            return p.realloc(initial, 64, site="vuln")
        if self.fun == "memalign":
            return p.memalign(32, 64, site="vuln")
        if self.fun == "aligned_alloc":
            return p.aligned_alloc(64, 64, site="vuln")
        if self.fun == "posix_memalign":
            return p.posix_memalign(128, 64, site="vuln")
        raise AssertionError(self.fun)

    def attack_succeeded(self, outcome):
        if outcome is None:
            return False
        return any(byte != 0 for byte in outcome.response[8:])

    def benign_works(self, outcome):
        return outcome is not None and \
            outcome.response == b"I" * 64


@pytest.mark.parametrize("fun", FUNS)
def test_full_cycle_per_entry_point(fun):
    program = AnyFunLeaker(fun)
    system = HeapTherapy(program)

    if fun == "calloc":
        # calloc zeroes: there is nothing to leak — the clean-by-
        # construction entry point.
        native = system.run_native(program.attack_input())
        assert not program.attack_succeeded(native.result)
        generation = system.generate_patches(program.attack_input())
        assert not generation.detected
        return

    native = system.run_native(program.attack_input())
    assert program.attack_succeeded(native.result), fun

    generation = system.generate_patches(program.attack_input())
    assert generation.detected, fun
    funs_in_patches = {patch.fun for patch in generation.patches}
    assert fun in funs_in_patches, (fun, funs_in_patches)

    defended = system.run_defended(generation.patches,
                                   program.attack_input())
    assert defended.completed
    assert not program.attack_succeeded(defended.result), fun

    benign = system.run_defended(generation.patches,
                                 program.benign_input())
    assert program.benign_works(benign.result), fun


@pytest.mark.parametrize("fun", ["memalign", "aligned_alloc",
                                 "posix_memalign"])
def test_aligned_family_returns_aligned_defended(fun):
    """Alignment guarantees survive the defense's Structure 3 layout."""
    program = AnyFunLeaker(fun)
    system = HeapTherapy(program)
    generation = system.generate_patches(program.attack_input())

    observed = {}

    class Spy(AnyFunLeaker):
        """Capture the allocated address for the alignment check."""

        def _allocate(self, p):
            address = super()._allocate(p)
            observed["address"] = address
            return address

    spy = Spy(fun)
    spy_system = HeapTherapy(spy)
    spy_system.run_defended(generation.patches, spy.attack_input())
    alignment = {"memalign": 32, "aligned_alloc": 64,
                 "posix_memalign": 128}[fun]
    assert observed["address"] % alignment == 0


def test_patch_on_one_fun_ignores_others():
    """A patch keyed fun=aligned_alloc must not fire for memalign even
    at an identical CCID — the paper pairs {Target_fun, CCID}."""
    from repro.defense.interpose import DefendedAllocator
    from repro.defense.patch_table import PatchTable
    from repro.patch.model import HeapPatch
    from repro.allocator.libc import LibcAllocator
    from repro.program.context import ContextSource

    class Fixed(ContextSource):
        def current_ccid(self):
            return 0x66

    table = PatchTable([HeapPatch("aligned_alloc", 0x66,
                                  VulnType.UNINIT_READ)])
    defended = DefendedAllocator(LibcAllocator(), table,
                                 context_source=Fixed())
    defended.memalign(32, 64)
    assert defended.enhanced_counts[VulnType.UNINIT_READ] == 0
    defended.aligned_alloc(32, 64)
    assert defended.enhanced_counts[VulnType.UNINIT_READ] == 1
