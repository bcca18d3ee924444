"""Fine-grained attack mechanics of the vulnerable workloads.

The Table II sweep (test_vulnerable.py) checks outcomes; these tests pin
*how* each attack works — heap-layout facts the simulations rely on —
so a refactor of the allocator or workloads that silently breaks an
exploitation precondition fails loudly here rather than making Table II
vacuously pass.
"""


from repro.core.pipeline import HeapTherapy
from repro.vulntypes import VulnType
from repro.workloads.vulnerable import (
    BcCalculator,
    GhostXpsRenderer,
    HeartbleedService,
    LibmingParser,
    OptiPngOptimizer,
    TiffToPdf,
    WavPackDecoder,
)
from repro.workloads.vulnerable.heartbleed import (
    REQUEST_BUFFER_SIZE,
    SESSION_SECRET,
)
from repro.workloads.vulnerable.ghostxps import FONT_CACHE_SECRET
from repro.workloads.vulnerable.optipng import (
    HIJACKED_HANDLER,
    LEGIT_HANDLER,
)
from repro.workloads.vulnerable.wavpack import EVIL_MASK, LEGIT_MASK
from repro.workloads.vulnerable.bc import EXPECTED_ACCUMULATOR


class TestHeartbleedMechanics:
    def test_request_buffer_reuses_session_memory(self):
        """The leak requires the allocator to hand the heartbeat buffer
        the memory the freed session buffer occupied."""
        program = HeartbleedService()
        system = HeapTherapy(program)
        native = system.run_native(HeartbleedService.attack_input())
        assert SESSION_SECRET in native.result.response

    def test_leak_length_matches_claimed(self):
        program = HeartbleedService()
        system = HeapTherapy(program)
        attack = HeartbleedService.attack_input()
        native = system.run_native(attack)
        assert len(native.result.response) == 3 + attack.claimed_length

    def test_uninit_only_variant_stays_inside_buffer(self):
        request = HeartbleedService.uninit_only_input()
        assert request.claimed_length < REQUEST_BUFFER_SIZE

    def test_benign_echo_is_exact(self):
        program = HeartbleedService()
        system = HeapTherapy(program)
        benign = HeartbleedService.benign_input()
        native = system.run_native(benign)
        body = native.result.response[3:]
        assert body[:len(benign.payload)] == benign.payload


class TestUafMechanics:
    def test_optipng_attacker_data_occupies_freed_descriptor(self):
        program = OptiPngOptimizer()
        system = HeapTherapy(program)
        native = system.run_native(OptiPngOptimizer.attack_input())
        assert native.result.facts["dispatched_handler"] \
            == HIJACKED_HANDLER

    def test_optipng_benign_path_keeps_legit_handler(self):
        program = OptiPngOptimizer()
        system = HeapTherapy(program)
        native = system.run_native(OptiPngOptimizer.benign_input())
        assert native.result.facts["dispatched_handler"] == LEGIT_HANDLER

    def test_wavpack_mask_swapped_by_reuse(self):
        program = WavPackDecoder()
        system = HeapTherapy(program)
        native = system.run_native(WavPackDecoder.attack_input())
        assert native.result.facts["channel_mask"] == EVIL_MASK
        benign = system.run_native(WavPackDecoder.benign_input())
        assert benign.result.facts["channel_mask"] == LEGIT_MASK

    def test_deferred_free_breaks_reuse_not_access(self):
        """The online UAF defense is mitigation-by-deferral: the stale
        read still happens, it just sees the original data."""
        program = OptiPngOptimizer()
        system = HeapTherapy(program)
        generation = system.generate_patches(
            OptiPngOptimizer.attack_input())
        run = system.run_defended(generation.patches,
                                  OptiPngOptimizer.attack_input())
        assert run.completed  # no fault: access allowed
        assert run.result.facts["dispatched_handler"] == LEGIT_HANDLER


class TestOverflowMechanics:
    def test_bc_marker_takes_a_slot_value(self):
        """The runaway loop writes slot indices; the clobbered marker
        must hold one of them (not arbitrary corruption)."""
        program = BcCalculator()
        system = HeapTherapy(program)
        native = system.run_native(BcCalculator.attack_input())
        marker = native.result.facts["accumulator_marker"]
        assert marker != EXPECTED_ACCUMULATOR
        assert marker in range(1, BcCalculator.attack_input()
                               .variable_count + 1)

    def test_bc_sum_still_correct_despite_corruption(self):
        program = BcCalculator()
        system = HeapTherapy(program)
        native = system.run_native(BcCalculator.attack_input())
        assert native.result.facts["sum"] \
            == BcCalculator.attack_input().expected_sum

    def test_tiff_xref_clobbered_with_sample_bytes(self):
        program = TiffToPdf()
        system = HeapTherapy(program)
        native = system.run_native(TiffToPdf.attack_input())
        clobbered = native.result.facts["xref_magic"]
        # Written records are repeated 0x40..0x5F bytes.
        low = clobbered & 0xFF
        assert 0x40 <= low < 0x60

    def test_libming_realloc_origin(self):
        """libming's patch must be keyed on the realloc entry point."""
        program = LibmingParser()
        system = HeapTherapy(program)
        generation = system.generate_patches(LibmingParser.attack_input())
        assert any(patch.fun == "realloc" for patch in generation.patches)

    def test_wavpack_patch_is_memalign_keyed(self):
        program = WavPackDecoder()
        system = HeapTherapy(program)
        generation = system.generate_patches(WavPackDecoder.attack_input())
        assert any(patch.fun == "memalign" for patch in generation.patches)


class TestUninitMechanics:
    def test_ghostxps_leak_contains_font_secret(self):
        program = GhostXpsRenderer()
        system = HeapTherapy(program)
        native = system.run_native(GhostXpsRenderer.attack_input())
        assert FONT_CACHE_SECRET in native.result.response

    def test_ghostxps_defense_leaks_only_zeros(self):
        program = GhostXpsRenderer()
        system = HeapTherapy(program)
        generation = system.generate_patches(
            GhostXpsRenderer.attack_input())
        run = system.run_defended(generation.patches,
                                  GhostXpsRenderer.attack_input())
        assert run.completed
        shipped = len(GhostXpsRenderer.attack_input().glyph_data)
        assert all(byte == 0 for byte in run.result.response[shipped:])

    def test_ghostxps_patch_type_is_uninit_only(self):
        program = GhostXpsRenderer()
        system = HeapTherapy(program)
        generation = system.generate_patches(
            GhostXpsRenderer.attack_input())
        combined = VulnType.NONE
        for patch in generation.patches:
            combined |= patch.vuln
        assert combined == VulnType.UNINIT_READ
