"""The fleet patch registry: versioned, content-addressed, signed tables.

The arXiv "code-less patching" companion of the paper spells out the
endgame of configuration-only heap patches: *community immunization* —
one site diagnoses an attack, and every site deploys the resulting
``{FUN, CCID, T}`` patch table without rebuilding or restarting anything.
For that to be safe at fleet scale, the distribution channel needs three
properties this module provides:

* **Content addressing** — a published table is identified by the SHA-256
  of its canonical configuration text (:meth:`PatchTable.serialize` is a
  content hash by construction: same patches ⇒ same bytes).  Two
  registries holding the same patches publish byte-identical snapshots.
* **Authenticity** — every snapshot carries an HMAC-SHA256 signature
  over the canonical bytes under the fleet key.  A subscriber verifies
  before swapping; a bit-flipped table, a replayed stale version or a
  signature under the wrong key is rejected with a typed error and the
  running table stays in place.
* **Deterministic reconciliation** — submissions merge through
  :func:`repro.patch.model.merge_patches`, whose conflict policy (widest
  vulnerability mask, unioned params) is commutative, associative and
  idempotent.  The registry's version number is not a wall-clock or
  submission counter but the table's *height* — the number of
  ``(key, vulnerability-bit)`` and ``(key, param)`` atoms it contains.
  Merging only ever adds atoms, so the height is monotone, strictly
  increases exactly when the content changes, and is independent of the
  order or partitioning of submissions.  Hence any two registries that
  receive the same patch sets — in any permutation, grouped any way —
  converge to byte-identical state: same version, same content hash,
  same canonical text, same signature.

The protocol is deliberately defense-agnostic: a snapshot is "canonical
patch-configuration bytes plus provenance", so alternative backends
(CAMP-style seglists, shadow-bound metadata) can ride the same channel
as long as their patches serialize canonically.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..defense.patch_table import PatchTable
from ..patch import config as patch_config
from ..patch.model import HeapPatch, merge_patches

#: Wire-format identifier mixed into every signature, so tables signed
#: for a future incompatible layout can never verify under this one.
SIGNATURE_DOMAIN = b"repro/fleet-table/v1"

#: Snapshot JSON schema identifier.
SNAPSHOT_SCHEMA = "repro/fleet-snapshot/v1"


class RegistryError(ValueError):
    """Base class for registry protocol violations (picklable)."""


class SignatureMismatch(RegistryError):
    """The snapshot's HMAC does not verify: tampered bytes or wrong key."""


class StaleVersion(RegistryError):
    """A replayed snapshot at or below the subscriber's applied version."""


class ContentMismatch(RegistryError):
    """The snapshot's content hash does not match its table bytes."""


def table_height(patches: Iterable[HeapPatch]) -> int:
    """The grow-only version counter: atoms contained in the table.

    One atom per ``(patch key, vulnerability bit)`` plus one per
    ``(patch key, param)``.  :func:`merge_patches` unions masks and
    params and never removes a key, so a merge's height is ≥ every
    input's and strictly greater than the current table's exactly when
    the merged content differs — the monotonicity the replay protection
    leans on, with no dependence on submission order or grouping.
    """
    return sum(bin(int(patch.vuln)).count("1") + len(patch.params)
               for patch in patches)


def content_hash(config_text: str) -> str:
    """SHA-256 of the canonical configuration text (the content address)."""
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()


def sign_table(key: bytes, version: int, config_text: str) -> str:
    """HMAC-SHA256 over (domain, version, canonical table bytes)."""
    mac = hmac.new(key, digestmod=hashlib.sha256)
    mac.update(SIGNATURE_DOMAIN)
    mac.update(b"\x00" + str(version).encode("ascii") + b"\x00")
    mac.update(config_text.encode("utf-8"))
    return mac.hexdigest()


@dataclass(frozen=True)
class SignedTable:
    """One published registry snapshot (immutable, picklable).

    Everything a subscriber needs to verify-then-swap: the monotone
    version, the content address, the canonical configuration text and
    the fleet signature.  ``config_text`` is the same wire format the
    serving engine ships to workers, so a verified snapshot plugs
    straight into :class:`~repro.serving.handle.PatchTableHandle`.
    """

    version: int
    content_hash: str
    config_text: str
    signature: str

    def verify(self, key: bytes) -> None:
        """Check integrity and authenticity; raise a typed error if not.

        Content is checked before the MAC so a corrupted snapshot is
        classified as precisely as possible; both failures are
        :class:`RegistryError` subclasses, and neither ever installs
        anything.
        """
        if content_hash(self.config_text) != self.content_hash:
            raise ContentMismatch(
                f"snapshot v{self.version}: table bytes do not match the "
                f"content address {self.content_hash[:12]}… — refusing a "
                f"corrupted table")
        expected = sign_table(key, self.version, self.config_text)
        if not hmac.compare_digest(expected, self.signature):
            raise SignatureMismatch(
                f"snapshot v{self.version} "
                f"({self.content_hash[:12]}…): HMAC verification failed "
                f"— tampered table or wrong fleet key")

    def table(self) -> PatchTable:
        """Materialize the frozen patch table this snapshot describes."""
        return PatchTable(patch_config.loads(self.config_text))

    def to_json(self) -> Dict[str, Any]:
        """Plain-data snapshot document (for artifacts and transport)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "version": self.version,
            "content_hash": self.content_hash,
            "config_text": self.config_text,
            "signature": self.signature,
        }

    @staticmethod
    def from_json(doc: Dict[str, Any]) -> "SignedTable":
        """Parse a snapshot document (schema-checked)."""
        if doc.get("schema") != SNAPSHOT_SCHEMA:
            raise RegistryError(
                f"unknown snapshot schema {doc.get('schema')!r} "
                f"(expected {SNAPSHOT_SCHEMA})")
        try:
            return SignedTable(
                version=int(doc["version"]),
                content_hash=str(doc["content_hash"]),
                config_text=str(doc["config_text"]),
                signature=str(doc["signature"]))
        except KeyError as exc:
            raise RegistryError(
                f"snapshot document missing field {exc}") from None

    def dumps(self) -> str:
        """Canonical JSON serialization (sorted keys, stable bytes)."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def loads(text: str) -> "SignedTable":
        """Parse :meth:`dumps` output."""
        return SignedTable.from_json(json.loads(text))


class PatchRegistry:
    """One registry replica: merge submissions, publish signed snapshots.

    State is a pure function of the *set* of patches ever submitted —
    submissions commute, associate and are idempotent (inherited from
    :func:`merge_patches`), and the version is the content-derived
    height — so replicas fed the same submissions in any order converge
    to byte-identical :attr:`state`.  ``history`` records the distinct
    versions this replica moved through, for audit; it is the one
    order-dependent quantity and is deliberately excluded from the
    canonical state.
    """

    def __init__(self, key: bytes,
                 table: PatchTable = None) -> None:  # type: ignore[assignment]
        if not isinstance(key, (bytes, bytearray)) or not key:
            raise RegistryError("fleet key must be non-empty bytes")
        self._key = bytes(key)
        initial = table if table is not None else PatchTable.empty()
        if not initial.frozen:
            raise RegistryError("registry tables must be frozen")
        self._patches: List[HeapPatch] = merge_patches([initial.patches])
        #: The initial table's snapshot is signed the first time it is
        #: read (a registry whose first submit changes the table never
        #: needs it unless ``history`` is asked for).
        self._initial_patches = self._patches
        self._initial: Optional[SignedTable] = None
        #: Snapshots published after the initial one; the last is the
        #: current one.
        self._history: List[SignedTable] = []

    def _publish(self, patches: List[HeapPatch]) -> SignedTable:
        text = PatchTable(patches).serialize()
        version = table_height(patches)
        return SignedTable(
            version=version,
            content_hash=content_hash(text),
            config_text=text,
            signature=sign_table(self._key, version, text))

    def _initial_state(self) -> SignedTable:
        if self._initial is None:
            self._initial = self._publish(self._initial_patches)
        return self._initial

    # -- read side -----------------------------------------------------

    @property
    def state(self) -> SignedTable:
        """The current signed snapshot (canonical, convergent)."""
        if self._history:
            return self._history[-1]
        return self._initial_state()

    @property
    def version(self) -> int:
        """The current table height."""
        return self.state.version

    @property
    def patches(self) -> Tuple[HeapPatch, ...]:
        """The merged patches, in canonical sort order."""
        return tuple(self._patches)

    @property
    def history(self) -> Tuple[SignedTable, ...]:
        """Distinct snapshots this replica published, oldest first."""
        return (self._initial_state(), *self._history)

    # -- write side ----------------------------------------------------

    def submit(self, patches: Iterable[HeapPatch]) -> SignedTable:
        """Merge a patch set into the registry; publish if it changed.

        Resubmitting already-contained patches is a no-op (idempotence):
        the version does not move and nothing new is published, so a
        site can safely re-announce its diagnosis after a reconnect.
        """
        merged = merge_patches([self._patches, patches])
        if merged == self._patches:
            return self.state
        self._patches = merged
        state = self._publish(merged)
        self._history.append(state)
        return state

    def reconcile(self, snapshot: SignedTable) -> SignedTable:
        """Merge a *peer registry's* verified snapshot into this one.

        The peer's snapshot is verified first (same key fleet-wide);
        its patches then submit like any local diagnosis.  Because the
        merge is a join in the patch-set lattice, ``a.reconcile(b.state)``
        and ``b.reconcile(a.state)`` leave both replicas with
        byte-identical state — the anti-entropy step of the protocol.
        """
        snapshot.verify(self._key)
        return self.submit(patch_config.loads(snapshot.config_text))


class Subscriber:
    """Replay-protected snapshot verification for one fleet site.

    Tracks the highest registry version this site has applied; a
    snapshot is accepted exactly once per content change, in monotone
    version order.  The verified table is returned ready to hand to
    :meth:`PatchTableHandle.swap <repro.serving.handle.PatchTableHandle>`
    or :meth:`DefendedAllocator.swap_table
    <repro.defense.interpose.DefendedAllocator.swap_table>`.
    """

    def __init__(self, key: bytes, applied_version: int = 0) -> None:
        self._key = bytes(key)
        self.applied_version = applied_version

    def accept(self, snapshot: SignedTable) -> PatchTable:
        """Verify a snapshot and mark it applied; raise typed errors.

        Rejection order: integrity/authenticity first (a forged version
        number must never influence replay bookkeeping), then replay
        protection against the monotone version.
        """
        snapshot.verify(self._key)
        if snapshot.version <= self.applied_version:
            raise StaleVersion(
                f"snapshot v{snapshot.version} replayed at or below the "
                f"applied version v{self.applied_version} — refusing to "
                f"roll back or re-apply")
        table = snapshot.table()
        self.applied_version = snapshot.version
        return table
