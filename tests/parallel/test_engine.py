"""DiagnosisPool: fan-out semantics and the bit-identity guarantee."""

import random

import pytest

from repro.core.pipeline import HeapTherapy
from repro.parallel import DiagnosisPool
from repro.parallel.workers import JobsError, usable_cpus
from repro.patch.model import HeapPatch, merge_patches, patch_sort_key
from repro.vulntypes import VulnType
from repro.workloads.corpus import (
    AttackCorpus,
    CorpusEntry,
    default_corpus,
    samate_corpus,
    table2_corpus,
)
from repro.workloads.vulnerable import HeartbleedService


class TestSerialPath:
    def test_table2_corpus_all_detected(self):
        diagnosis = DiagnosisPool(jobs=1).diagnose(table2_corpus())
        assert diagnosis.attacks == 7
        assert not diagnosis.failures()
        assert all(result.detected for result in diagnosis.results)
        assert set(diagnosis.tables) == {
            "heartbleed", "bc", "ghostxps", "optipng", "tiff", "wavpack",
            "libming"}

    def test_results_keep_corpus_order(self):
        corpus = table2_corpus()
        diagnosis = DiagnosisPool(jobs=1).diagnose(corpus)
        assert ([result.entry_id for result in diagnosis.results]
                == [entry.entry_id for entry in corpus.entries])

    def test_result_carries_cycles_and_summary(self):
        diagnosis = DiagnosisPool(jobs=1).diagnose(AttackCorpus(
            (CorpusEntry("hb", "heartbleed", "attack"),)))
        (result,) = diagnosis.results
        assert result.cycle_total() > 0
        assert result.summary.warnings > 0
        assert result.summary.candidates
        assert result.vulns & (VulnType.UNINIT_READ | VulnType.OVERFLOW)

    def test_benign_entry_is_ok_without_patches(self):
        diagnosis = DiagnosisPool(jobs=1).diagnose(AttackCorpus(
            (CorpusEntry("hb-benign", "heartbleed", "benign"),)))
        (result,) = diagnosis.results
        assert not result.expects_detection
        assert result.ok
        assert not diagnosis.failures()


class TestJobsValidation:
    def test_zero_jobs_means_usable_cpus(self):
        assert DiagnosisPool(jobs=0).jobs == usable_cpus()

    def test_negative_jobs_rejected(self):
        with pytest.raises(JobsError):
            DiagnosisPool(jobs=-2)

    def test_none_means_cpu_count(self):
        assert DiagnosisPool(jobs=None).jobs >= 1


class TestBitIdentity:
    """The acceptance criterion: ``--jobs N`` output is byte-identical
    to serial, for every bench corpus."""

    @pytest.mark.parametrize("corpus_factory", [
        table2_corpus, samate_corpus, default_corpus,
    ], ids=["table2", "samate", "default"])
    def test_parallel_serializes_identically_to_serial(
            self, corpus_factory):
        corpus = corpus_factory()
        serial = DiagnosisPool(jobs=1).diagnose(corpus)
        parallel = DiagnosisPool(jobs=2).diagnose(corpus)
        assert parallel.serialize() == serial.serialize()
        for workload in serial.tables:
            assert (parallel.table_for(workload).serialize()
                    == serial.table_for(workload).serialize())

    def test_parallel_detects_everything_serial_does(self):
        corpus = default_corpus()
        serial = DiagnosisPool(jobs=1).diagnose(corpus)
        parallel = DiagnosisPool(jobs=2).diagnose(corpus)
        assert ([r.detected for r in parallel.results]
                == [r.detected for r in serial.results])
        assert not parallel.failures()


class TestMerge:
    def test_merge_is_order_independent(self):
        corpus = default_corpus()
        diagnosis = DiagnosisPool(jobs=1).diagnose(corpus)
        results = list(diagnosis.results)
        shuffled = results[:]
        random.Random(42).shuffle(shuffled)
        straight = DiagnosisPool._merge(results)
        scrambled = DiagnosisPool._merge(shuffled)
        assert set(straight) == set(scrambled)
        for workload in straight:
            assert (straight[workload].serialize()
                    == scrambled[workload].serialize())

    def test_conflict_policy_widens_the_mask(self):
        narrow = HeapPatch("malloc", 0x10, VulnType.OVERFLOW)
        other = HeapPatch("malloc", 0x10, VulnType.UNINIT_READ,
                          params=(("quota", "8"),))
        merged = merge_patches([[narrow], [other]])
        assert len(merged) == 1
        assert merged[0].vuln == VulnType.OVERFLOW | VulnType.UNINIT_READ
        assert merged[0].params == (("quota", "8"),)
        # Group order must not matter.
        assert merge_patches([[other], [narrow]]) == merged

    def test_distinct_keys_stay_distinct_and_sorted(self):
        patches = [
            HeapPatch("malloc", 0x20, VulnType.OVERFLOW),
            HeapPatch("calloc", 0x10, VulnType.UNINIT_READ),
            HeapPatch("malloc", 0x10, VulnType.USE_AFTER_FREE),
        ]
        merged = merge_patches([patches])
        assert merged == sorted(merged, key=patch_sort_key)
        assert len(merged) == 3


class TestPipelineIntegration:
    def test_generate_patches_jobs_matches_serial_replays(self):
        program = HeartbleedService()
        system = HeapTherapy(program)
        corpus = [program.attack_input(), program.attack_input()]
        diagnosis = system.generate_patches(corpus, jobs=2)
        assert diagnosis.attacks == 2
        assert not diagnosis.failures()

        serial = system.generate_patches(program.attack_input())
        merged_serial = merge_patches([serial.patches, serial.patches])
        table = diagnosis.table_for(program.name)
        assert (sorted(table.patches, key=patch_sort_key)
                == merged_serial)

    def test_generate_patches_jobs_rejects_extra_args(self):
        program = HeartbleedService()
        system = HeapTherapy(program)
        with pytest.raises(TypeError):
            system.generate_patches("a", "b", jobs=2)


class TestSchemas:
    def test_to_dict_shape(self):
        diagnosis = DiagnosisPool(jobs=1).diagnose(table2_corpus())
        payload = diagnosis.to_dict()
        assert payload["jobs"] == 1
        assert payload["entries"] == 7
        assert payload["detected"] == 7
        assert payload["failures"] == []
        assert len(payload["results"]) == 7
        assert set(payload["patch_tables"]) == set(diagnosis.tables)
        first = payload["results"][0]
        for key in ("entry", "workload", "input", "detected", "vulns",
                    "patches", "cycles", "seconds"):
            assert key in first

    def test_serialize_is_a_loadable_config(self):
        # loads() merges duplicate (fun, ccid) keys, so cross-workload
        # CCID coincidences collapse — compare against the same merge.
        from repro.patch.config import loads
        diagnosis = DiagnosisPool(jobs=1).diagnose(table2_corpus())
        loaded = sorted(loads(diagnosis.serialize()), key=patch_sort_key)
        expected = merge_patches(
            table.patches for table in diagnosis.tables.values())
        assert loaded == expected

    def test_render_mentions_every_entry(self):
        diagnosis = DiagnosisPool(jobs=1).diagnose(table2_corpus())
        text = diagnosis.render()
        for entry_id in ("heartbleed:attack", "libming:attack"):
            assert entry_id in text
        assert "DETECTED" in text
        assert "merged:" in text
