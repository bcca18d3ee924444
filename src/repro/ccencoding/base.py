"""Encoding scheme interfaces and shared arithmetic.

A *scheme* (PCC, PCCE, DeltaPath) turns an
:class:`~repro.ccencoding.instrumentation.InstrumentationPlan` into a
*codec*: the per-site constants plus the mixing function.  A codec can

* produce a :class:`~repro.ccencoding.runtime.EncodingRuntime` — the
  online, thread-local-V state machine driven by the process,
* statically encode a known calling context (for tests and offline
  tooling), and
* decode a CCID back to a context where the scheme supports it.

The mixing discipline shared by all schemes here: the value ``V`` carried
by the runtime is always a fold of the *instrumented* call sites along the
current stack path, in order::

    V = mix(mix(mix(seed, c1), c2), c3)      # instrumented sites only

Uninstrumented sites contribute nothing.  Our runtime restores ``V`` on
return — each frame keeps its own entry value ``t`` (one extra store per
call in instrumented functions, folded into the cost model); this keeps
``V`` a pure function of the current path even under the pruned
Slim/Incremental plans, where original PCC would leave a sibling
subtree's value behind.  See ``DESIGN.md`` §5 and §10.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence, Tuple

from ..program.callgraph import CallGraph, CallSite

MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer — turns dense site ids into dispersed constants."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


class EncodingError(ValueError):
    """Scheme cannot encode/decode the requested graph or id."""


class Codec(abc.ABC):
    """Per-site constants + mixing for one (scheme, plan) pair."""

    #: Scheme name, e.g. ``"pcc"``.
    scheme_name: str

    def __init__(self, plan: "InstrumentationPlan") -> None:
        self.plan = plan

    @property
    def graph(self) -> CallGraph:
        """The call graph the plan was computed on."""
        return self.plan.graph

    @abc.abstractmethod
    def seed(self) -> int:
        """Initial value of V at program entry."""

    @abc.abstractmethod
    def mix(self, value: int, site: CallSite) -> int:
        """Fold one instrumented call site into ``value``."""

    def encode_path(self, path: Sequence[CallSite]) -> int:
        """Statically encode a calling context (a root-to-target path)."""
        value = self.seed()
        instrumented = self.plan.sites
        for site in path:
            if site.site_id in instrumented:
                value = self.mix(value, site)
        return value

    def encode_context_ids(self, site_ids: Sequence[int]) -> int:
        """Like :meth:`encode_path` but from raw site ids."""
        path = [self.graph.site_by_id(sid) for sid in site_ids]
        return self.encode_path(path)

    @property
    def supports_decoding(self) -> bool:
        """True if :meth:`decode` is implemented for this codec."""
        return False

    def decode(self, target: str, ccid: int) -> Tuple[CallSite, ...]:
        """Recover the calling context of ``target`` encoded as ``ccid``.

        Only available on precise schemes; see subclasses.
        """
        raise EncodingError(f"{self.scheme_name} does not support decoding")

    # ------------------------------------------------------------------
    # Verification helpers
    # ------------------------------------------------------------------

    def context_table(self, target: str) -> Dict[int, List[Tuple[CallSite, ...]]]:
        """Map each CCID to the contexts of ``target`` that produce it."""
        table: Dict[int, List[Tuple[CallSite, ...]]] = {}
        for context in self.graph.enumerate_contexts(target):
            table.setdefault(self.encode_path(context), []).append(context)
        return table

    def collisions(self, target: str) -> List[List[Tuple[CallSite, ...]]]:
        """Groups of distinct contexts of ``target`` sharing one CCID."""
        return [group for group in self.context_table(target).values()
                if len(group) > 1]

    def is_injective_for(self, target: str) -> bool:
        """True when every context of ``target`` has a unique CCID."""
        return not self.collisions(target)


class EncodingScheme(abc.ABC):
    """Factory turning an instrumentation plan into a codec."""

    #: Scheme name used in reports (``"pcc"``, ``"pcce"``, ``"deltapath"``).
    name: str

    @abc.abstractmethod
    def build(self, plan: "InstrumentationPlan") -> Codec:
        """Compute constants for ``plan`` and return the codec."""


def decode_by_enumeration(codec: Codec, target: str,
                          ccid: int) -> Tuple[CallSite, ...]:
    """Decode by searching all contexts of ``target`` — precise but
    enumeration-bounded; used where closed-form reverse decoding does not
    apply (Slim/Incremental plans on additive schemes)."""
    matches = [context for context in codec.graph.enumerate_contexts(target)
               if codec.encode_path(context) == ccid]
    if not matches:
        raise EncodingError(
            f"no context of {target!r} encodes to {ccid}")
    if len(matches) > 1:
        raise EncodingError(
            f"CCID {ccid} of {target!r} is ambiguous "
            f"({len(matches)} contexts)")
    return matches[0]


# Imported at the bottom to avoid a circular import at module load time.
from .instrumentation import InstrumentationPlan  # noqa: E402  (cycle guard)
