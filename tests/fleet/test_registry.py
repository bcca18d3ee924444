"""Registry protocol: convergence, signatures, replay protection.

The fleet's safety case rests on two properties pinned down here:

* **Convergence** — registry state is a pure function of the *set* of
  patches ever submitted.  Hypothesis drives arbitrary permutations and
  partitions of arbitrary patch groups into independent replicas and
  asserts byte-identical state (version, content hash, canonical text,
  signature) — the same byte-level criterion the serving engine's
  determinism contract uses.
* **Rejection** — a bit-flipped table, a wrong-key signature and a
  replayed stale snapshot each raise their precise typed error, and a
  subscriber's applied version never moves on a rejected snapshot.
"""

import hashlib

import pytest

from repro.defense.patch_table import PatchTable
from repro.fleet import registry as registry_module
from repro.fleet.registry import (
    ContentMismatch,
    PatchRegistry,
    RegistryError,
    SignatureMismatch,
    SignedTable,
    StaleVersion,
    Subscriber,
    content_hash,
    sign_table,
    table_height,
)
from repro.patch.model import HeapPatch
from repro.vulntypes import VulnType

KEY = b"test-fleet-key"

P1 = HeapPatch("malloc", 3, VulnType.OVERFLOW)
P2 = HeapPatch("malloc", 3, VulnType.UNINIT_READ, (("quota", "4"),))
P3 = HeapPatch("calloc", 7, VulnType.USE_AFTER_FREE)


def state_tuple(registry):
    state = registry.state
    return (state.version, state.content_hash, state.config_text,
            state.signature)


class TestHeightVersion:
    def test_empty_table_is_version_zero(self):
        assert PatchRegistry(KEY).version == 0
        assert table_height([]) == 0

    def test_height_counts_mask_bits_and_params(self):
        assert table_height([P1]) == 1
        assert table_height([P2]) == 2  # one mask bit + one param
        assert table_height([P1, P2, P3]) == table_height([P1]) + \
            table_height([P2]) + table_height([P3])

    def test_version_grows_monotonically(self):
        registry = PatchRegistry(KEY)
        seen = [registry.version]
        for group in ([P1], [P1], [P2], [P3], [P1, P2]):
            registry.submit(group)
            seen.append(registry.version)
        assert seen == sorted(seen)

    def test_idempotent_resubmit_is_a_noop(self):
        registry = PatchRegistry(KEY)
        first = registry.submit([P1, P2])
        again = registry.submit([P2, P1])
        assert again is first
        assert len(registry.history) == 2  # v0 plus one publish

    def test_strict_increase_exactly_on_content_change(self):
        registry = PatchRegistry(KEY)
        v1 = registry.submit([P1]).version
        v2 = registry.submit([P1]).version  # unchanged content
        v3 = registry.submit([P2]).version  # widened key
        assert v1 == v2 < v3


def transcript(registry, returned, history_first):
    """Every byte a caller can read back: the snapshots ``submit`` or
    ``reconcile`` returned, then ``state``/``version`` and ``history``
    (in either order, since the initial snapshot is built on first
    read)."""
    reads = [registry.state.dumps(), str(registry.version)]
    history = [snapshot.dumps() for snapshot in registry.history]
    reads = history + reads if history_first else reads + history
    return "".join([*(snapshot.dumps() for snapshot in returned), *reads])


def transcripts(history_first):
    fresh = PatchRegistry(KEY)
    yield transcript(fresh, [], history_first)
    empty_first = PatchRegistry(KEY)
    yield transcript(empty_first, [empty_first.submit([])], history_first)
    feed = PatchRegistry(KEY)
    yield transcript(
        feed, [feed.submit(group)
               for group in ([P1], [P1], [P2], [P3], [P1, P2])],
        history_first)
    peer = PatchRegistry(KEY)
    peer.submit([P1, P3])
    joined = PatchRegistry(KEY)
    yield transcript(joined, [joined.reconcile(peer.state),
                              joined.reconcile(peer.state)],
                     history_first)
    seeded = PatchRegistry(KEY, PatchTable([P2]))
    yield transcript(seeded, [seeded.submit([P2]), seeded.submit([P3])],
                     history_first)


#: sha256 over :func:`transcripts` (both read orders) as produced when
#: every registry signed its initial snapshot at construction.
TRANSCRIPT_DIGEST = (
    "6035eb0767ecd8e8fdf93ce0463ded35a8ae99213fc290ab9f60b110740d37a9")


class TestLazyInitialSnapshot:
    """The initial snapshot is signed on first read, not at
    construction; nothing a caller reads back may change."""

    def test_transcripts_match_eager_signing(self):
        digest = hashlib.sha256()
        for history_first in (False, True):
            for text in transcripts(history_first):
                digest.update(text.encode())
        assert digest.hexdigest() == TRANSCRIPT_DIGEST

    def test_first_changing_submit_signs_once(self, monkeypatch):
        calls = []
        real = registry_module.sign_table

        def counting(key, version, text):
            calls.append(version)
            return real(key, version, text)

        monkeypatch.setattr(registry_module, "sign_table", counting)
        registry = PatchRegistry(KEY)
        assert calls == []
        snapshot = registry.submit([P1])
        assert calls == [snapshot.version]
        # The initial snapshot is still there for the audit trail.
        assert [s.version for s in registry.history] == [0, 1]
        assert calls == [1, 0]


class TestSignatures:
    def test_honest_snapshot_verifies(self):
        registry = PatchRegistry(KEY)
        snapshot = registry.submit([P1, P2])
        snapshot.verify(KEY)  # does not raise

    def test_bitflip_in_table_bytes_is_content_mismatch(self):
        snapshot = PatchRegistry(KEY).submit([P1])
        text = snapshot.config_text
        flipped = text[:-1] + chr(ord(text[-1]) ^ 0x01)
        tampered = SignedTable(snapshot.version, snapshot.content_hash,
                               flipped, snapshot.signature)
        with pytest.raises(ContentMismatch):
            tampered.verify(KEY)

    def test_bitflip_with_recomputed_hash_is_signature_mismatch(self):
        """An attacker who fixes up the content address still cannot
        forge the HMAC."""
        snapshot = PatchRegistry(KEY).submit([P1])
        flipped = snapshot.config_text + "# note\n"
        tampered = SignedTable(snapshot.version, content_hash(flipped),
                               flipped, snapshot.signature)
        with pytest.raises(SignatureMismatch):
            tampered.verify(KEY)

    def test_wrong_key_is_signature_mismatch(self):
        snapshot = PatchRegistry(KEY).submit([P1])
        forged = SignedTable(
            snapshot.version, snapshot.content_hash,
            snapshot.config_text,
            sign_table(b"other-key", snapshot.version,
                       snapshot.config_text))
        with pytest.raises(SignatureMismatch):
            forged.verify(KEY)

    def test_version_is_signed(self):
        """Bumping the version without re-signing breaks the MAC, so a
        forged 'newer' snapshot cannot defeat replay protection."""
        snapshot = PatchRegistry(KEY).submit([P1])
        bumped = SignedTable(snapshot.version + 10,
                             snapshot.content_hash,
                             snapshot.config_text, snapshot.signature)
        with pytest.raises(SignatureMismatch):
            bumped.verify(KEY)

    def test_empty_key_rejected(self):
        with pytest.raises(RegistryError):
            PatchRegistry(b"")


class TestSubscriber:
    def test_accept_returns_frozen_table_and_advances(self):
        registry = PatchRegistry(KEY)
        snapshot = registry.submit([P1, P2])
        subscriber = Subscriber(KEY)
        table = subscriber.accept(snapshot)
        assert table.frozen
        assert table.serialize() == snapshot.config_text
        assert subscriber.applied_version == snapshot.version

    def test_replayed_snapshot_is_stale(self):
        registry = PatchRegistry(KEY)
        old = registry.submit([P1])
        new = registry.submit([P2, P3])
        subscriber = Subscriber(KEY)
        subscriber.accept(new)
        with pytest.raises(StaleVersion):
            subscriber.accept(old)
        with pytest.raises(StaleVersion):
            subscriber.accept(new)  # exactly-once per content change
        assert subscriber.applied_version == new.version

    def test_rejected_snapshot_never_advances_version(self):
        registry = PatchRegistry(KEY)
        snapshot = registry.submit([P1])
        subscriber = Subscriber(KEY)
        with pytest.raises(SignatureMismatch):
            subscriber.accept(SignedTable(
                snapshot.version, snapshot.content_hash,
                snapshot.config_text, "00" * 32))
        assert subscriber.applied_version == 0


class TestWireFormat:
    def test_dumps_loads_roundtrip(self):
        snapshot = PatchRegistry(KEY).submit([P1, P2, P3])
        again = SignedTable.loads(snapshot.dumps())
        assert again == snapshot
        again.verify(KEY)

    def test_unknown_schema_rejected(self):
        doc = PatchRegistry(KEY).submit([P1]).to_json()
        doc["schema"] = "repro/fleet-snapshot/v999"
        with pytest.raises(RegistryError):
            SignedTable.from_json(doc)

    def test_missing_field_rejected(self):
        doc = PatchRegistry(KEY).submit([P1]).to_json()
        del doc["signature"]
        with pytest.raises(RegistryError):
            SignedTable.from_json(doc)


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.allocator.base import ALLOCATION_FUNCTIONS  # noqa: E402

#: Small key spaces force (fun, ccid) collisions, the interesting case.
_funs = st.sampled_from(ALLOCATION_FUNCTIONS[:4])
_ccids = st.integers(min_value=0, max_value=3)
_masks = st.integers(min_value=1, max_value=7).map(VulnType)
_params = st.lists(
    st.tuples(st.sampled_from(["quota", "scope", "ttl"]),
              st.sampled_from(["1", "2", "4096"])),
    max_size=2).map(tuple)

_patches = st.builds(HeapPatch, fun=_funs, ccid=_ccids, vuln=_masks,
                     params=_params)
_groups = st.lists(st.lists(_patches, max_size=4), max_size=4)


class TestConvergenceProperties:
    @given(groups=_groups, seed=st.randoms(use_true_random=False))
    def test_any_permutation_converges(self, groups, seed):
        """Replicas fed the same groups in different orders end up with
        byte-identical signed state."""
        shuffled = list(groups)
        seed.shuffle(shuffled)
        a, b = PatchRegistry(KEY), PatchRegistry(KEY)
        for group in groups:
            a.submit(group)
        for group in shuffled:
            b.submit(group)
        assert state_tuple(a) == state_tuple(b)

    @given(groups=_groups, split=st.integers(min_value=0, max_value=4))
    def test_any_partition_converges(self, groups, split):
        """One big submission, per-group submissions, and any two-way
        split of the groups all publish identical state."""
        flat = [patch for group in groups for patch in group]
        bulk = PatchRegistry(KEY)
        bulk.submit(flat)
        stepped = PatchRegistry(KEY)
        for group in groups:
            stepped.submit(group)
        halves = PatchRegistry(KEY)
        cut = min(split, len(groups))
        halves.submit([p for g in groups[:cut] for p in g])
        halves.submit([p for g in groups[cut:] for p in g])
        assert state_tuple(bulk) == state_tuple(stepped) \
            == state_tuple(halves)

    @given(groups=_groups)
    def test_reconcile_is_anti_entropy(self, groups):
        """Two replicas with disjoint views converge by exchanging
        snapshots — in either exchange order."""
        cut = len(groups) // 2
        a, b = PatchRegistry(KEY), PatchRegistry(KEY)
        for group in groups[:cut]:
            a.submit(group)
        for group in groups[cut:]:
            b.submit(group)
        a.reconcile(b.state)
        b.reconcile(a.state)
        assert state_tuple(a) == state_tuple(b)

    @given(groups=_groups)
    def test_versions_monotone_under_any_feed(self, groups):
        registry = PatchRegistry(KEY)
        previous = registry.version
        for group in groups:
            before = registry.state
            registry.submit(group)
            assert registry.version >= previous
            changed = registry.state.config_text != before.config_text
            assert (registry.version > previous) == changed
            previous = registry.version
