"""Figure 9 — memory (RSS) overhead of the defense.

Paper: average 4.3% RSS overhead on SPEC CPU2006, attributed to the
per-buffer metadata the system maintains; guard pages themselves do not
increase memory use because they are virtual pages.

The reproduction compares peak resident set size (the simulated VmRSS
high-water mark) between native and defended runs, and additionally
verifies the guard-page claim directly: a run with many guarded buffers
must not become proportionally more resident.
"""

from __future__ import annotations

from repro.core.pipeline import HeapTherapy
from repro.defense.patch_table import PatchTable
from repro.patch.model import HeapPatch
from repro.vulntypes import VulnType
from repro.workloads.spec.profiles import SPEC_PROFILES
from repro.workloads.spec.synth import SyntheticSpecProgram

from conftest import BENCH_SCALE, format_table, write_result


def measure(profile):
    """Peak RSS pages, native vs defended (no patches)."""
    program = SyntheticSpecProgram(profile, scale=BENCH_SCALE)
    system = HeapTherapy(program)
    native = system.run_native()
    defended = system.run_defended(PatchTable.empty())
    native_pages = native.allocator.memory.peak_resident_pages
    defended_pages = defended.allocator.memory.peak_resident_pages
    return native_pages, defended_pages


def test_figure9_memory_overhead(results_dir, benchmark):
    measured = {profile.name: measure(profile)
                for profile in SPEC_PROFILES}

    benchmark.pedantic(measure, args=(SPEC_PROFILES[3],),
                       rounds=1, iterations=1)

    rows = []
    overheads = []
    for profile in SPEC_PROFILES:
        native_pages, defended_pages = measured[profile.name]
        overhead = (defended_pages / native_pages - 1) * 100
        overheads.append(overhead)
        rows.append((profile.name, native_pages, defended_pages,
                     f"{overhead:.1f}"))
    average = sum(overheads) / len(overheads)
    rows.append(("AVERAGE", "", "", f"{average:.1f}"))
    text = format_table(
        "Figure 9 — peak RSS overhead (%, simulated VmRSS pages)",
        ["benchmark", "native pages", "defended pages", "overhead %"],
        rows,
        note=("Paper: 4.3% average, due to per-buffer metadata.  Guard "
              "pages are virtual and never resident (verified by the "
              "companion test)."))
    write_result(results_dir, "figure9_memory_overhead", text)

    assert 0 <= average < 15, f"average RSS overhead {average:.1f}%"
    # Every benchmark: defended uses about as much or a little more,
    # never wildly more.  (A page or two of negative jitter is possible:
    # the metadata words shift chunk layout, which can change which
    # pages the peak happens to touch.)
    for profile in SPEC_PROFILES:
        native_pages, defended_pages = measured[profile.name]
        assert defended_pages >= native_pages - 3
        assert defended_pages <= native_pages * 1.4 + 4


def test_guard_pages_are_memory_free(results_dir):
    """The paper's virtual-page claim, with one honest nuance.

    Patch the hottest context with OVERFLOW so hundreds of guard pages
    are installed.  The padding and the protected body of each guard
    page never become resident; the one page holding the user-size word
    (Figure 6 stores it in the guard page's first word) does, but only
    while the buffer is live — so extra residency is bounded by the live
    set, not by the number of guarded allocations, and address-space
    consumption vastly exceeds residency growth.
    """
    profile = SPEC_PROFILES[0]
    program = SyntheticSpecProgram(profile, scale=min(BENCH_SCALE, 0.1))
    system = HeapTherapy(program)
    profiling = system.run_native()
    (fun, ccid), count = profiling.process.alloc_profile.most_common(1)[0]
    assert count > 50, "need a hot context for this experiment"

    guarded = system.run_defended(
        PatchTable([HeapPatch(fun, ccid, VulnType.OVERFLOW)]))
    unguarded = system.run_defended(
        PatchTable([HeapPatch(fun, ccid, VulnType.USE_AFTER_FREE)]),
    )
    guarded_pages = guarded.allocator.memory.peak_resident_pages
    unguarded_pages = unguarded.allocator.memory.peak_resident_pages
    extra_resident = guarded_pages - unguarded_pages

    mprotects = guarded.allocator.memory.mprotect_count
    assert mprotects > count, "every patched allocation sealed a guard"
    # Far fewer extra resident pages than guarded allocations: guards are
    # virtual; only live size-words pin pages.
    assert extra_resident < count * 0.6
    assert extra_resident <= guarded.allocator.stats.peak_buffers + 64
