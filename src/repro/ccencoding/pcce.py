"""Precise Calling Context Encoding (PCCE) [Sumner et al., ICSE'10].

An additive scheme descended from Ball–Larus path numbering: each edge
carries a constant ``c`` and the update is ``V = t + c``, chosen so that at
any function ``f`` the value ``V`` is a *dense index* in
``[0, numContexts(f))`` — a bijection between contexts and ids, hence
decodable in closed form.

Interaction with the targeted optimizations:

* **FCS** — classic numbering over the whole (acyclic) call graph.
* **TCS** — numbering over the target-reaching subgraph.  Every edge on a
  path to a target is itself target-reaching, so the encoding of target
  contexts stays dense and exactly decodable.
* **Slim / Incremental** — the instrumented set is no longer closed under
  path prefixes, so dense numbering does not apply.  The codec falls back
  to randomized additive constants whose per-target injectivity is
  *verified at build time* (re-salted on collision) and decodes by bounded
  enumeration.  The paper demonstrates its optimizations on PCC; this is
  the natural precise-scheme analogue.

This implementation requires an acyclic call graph (the original handles
recursion by spilling ``V`` at back edges; HeapTherapy+ itself uses PCC,
which needs no such machinery).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..program.callgraph import CallGraph, CallSite
from .base import (
    Codec,
    EncodingError,
    EncodingScheme,
    decode_by_enumeration,
    splitmix64,
)
from .instrumentation import InstrumentationPlan
from .targeting import Strategy


def _topological_order(graph: CallGraph) -> List[str]:
    """Topological order of functions; raises on cycles.

    Delegates to the iterative :meth:`CallGraph.topological_order`, so
    arbitrarily deep call chains cannot exhaust the recursion limit.
    """
    if not graph.is_acyclic():
        raise EncodingError(
            "PCCE/DeltaPath require an acyclic call graph "
            "(use PCC for recursive programs)")
    return graph.topological_order()


class AdditiveCodec(Codec):
    """Shared machinery for PCCE and DeltaPath: ``V = t + c`` (mod 2**bits).

    Depending on the plan's strategy, constants come from dense numbering
    (decodable in closed form) or from verified random salts (decodable by
    enumeration).
    """

    scheme_name = "additive"
    value_bits = 64

    def __init__(self, plan: InstrumentationPlan,
                 auto_repair: bool = True) -> None:
        super().__init__(plan)
        self._mask = (1 << self.value_bits) - 1
        self._constants: Dict[int, int] = {}
        #: Per-site re-salt counters (random strategies only); advanced
        #: deterministically by the repair planner.
        self._salt_attempts: Dict[int, int] = {}
        #: numContexts per function (dense strategies only).
        self.num_contexts: Dict[str, int] = {}
        self._dense = plan.strategy in (Strategy.FCS, Strategy.TCS)
        if self._dense:
            self._assign_dense_constants()
        else:
            self._assign_random_constants()
            if auto_repair:
                self._repair_random_constants()

    @property
    def dense(self) -> bool:
        """True when constants come from dense numbering (FCS/TCS)."""
        return self._dense

    # ------------------------------------------------------------------
    # Constant assignment
    # ------------------------------------------------------------------

    def _dense_nodes_and_edges(
            self) -> Tuple[List[str], Dict[str, List[CallSite]]]:
        """Functions and incoming instrumented edges, restricted to the
        subgraph both reachable from the entry and participating in the
        plan (for TCS: the target-reaching subgraph)."""
        graph = self.graph
        forward = graph.reachable_from_entry()
        order = [name for name in _topological_order(graph)
                 if name in forward]
        incoming: Dict[str, List[CallSite]] = {name: [] for name in order}
        for site in graph.sites:
            if (site.site_id in self.plan.sites
                    and site.caller in forward
                    and site.callee in incoming):
                incoming[site.callee].append(site)
        for edges in incoming.values():
            edges.sort(key=lambda s: s.site_id)
        return order, incoming

    def _assign_dense_constants(self) -> None:
        order, incoming = self._dense_nodes_and_edges()
        counts: Dict[str, int] = {}
        for name in order:
            if name == self.graph.entry:
                counts[name] = 1
                continue
            offset = 0
            for site in incoming[name]:
                caller_count = counts.get(site.caller, 0)
                if caller_count == 0:
                    continue
                self._constants[site.site_id] = offset
                offset += caller_count
            counts[name] = offset
        self.num_contexts = counts

    def _random_constant(self, site_id: int, attempt: int) -> int:
        """The deterministic salt of one site at one re-salt attempt."""
        return splitmix64(site_id * 0x1_0000 + attempt) & self._mask

    def _assign_random_constants(self) -> None:
        for site_id in self.plan.sites:
            self._constants[site_id] = self._random_constant(
                site_id, self._salt_attempts.get(site_id, 0))

    def resalt_site(self, site_id: int) -> int:
        """Advance one site's salt; returns the new constant.

        The hook the static repair planner uses to separate a concrete
        pair of colliding contexts: only the sites that actually
        distinguish the pair are re-salted, deterministically, instead
        of the old blind whole-plan re-salt loop.
        """
        if site_id not in self.plan.sites:
            raise EncodingError(
                f"site {site_id} is not instrumented; cannot re-salt")
        attempt = self._salt_attempts.get(site_id, 0) + 1
        self._salt_attempts[site_id] = attempt
        constant = self._random_constant(site_id, attempt)
        self._constants[site_id] = constant
        return constant

    def _repair_random_constants(self) -> None:
        # Certify per-target injectivity statically and, on the
        # (astronomically unlikely) collision, re-salt exactly the sites
        # that distinguish the colliding pair.  The value-set pass keeps
        # this build-time only and replaces the blind re-salt loop that
        # used to enumerate every context per attempt.
        from ..analysis.encverify import repair_salt_collisions
        repair_salt_collisions(self)

    # ------------------------------------------------------------------
    # Codec interface
    # ------------------------------------------------------------------

    def seed(self) -> int:
        return 0

    def site_constant(self, site: CallSite) -> int:
        """The additive constant of an instrumented site."""
        return self._constants.get(site.site_id, 0)

    def mix(self, value: int, site: CallSite) -> int:
        return (value + self._constants.get(site.site_id, 0)) & self._mask

    @property
    def supports_decoding(self) -> bool:
        return True

    def decode(self, target: str, ccid: int) -> Tuple[CallSite, ...]:
        if not self._dense:
            return decode_by_enumeration(self, target, ccid)
        graph = self.graph
        if not graph.has_function(target):
            raise EncodingError(f"unknown target {target!r}")
        _, incoming = self._dense_nodes_and_edges()
        path: List[CallSite] = []
        node = target
        value = ccid
        while node != graph.entry:
            edges = [site for site in incoming.get(node, ())
                     if site.site_id in self._constants]
            edges.sort(key=lambda s: self._constants[s.site_id])
            chosen = None
            for site in edges:
                if self._constants[site.site_id] <= value:
                    chosen = site
                else:
                    break
            if chosen is None:
                raise EncodingError(
                    f"CCID {ccid} is not a valid context id for {target!r}")
            path.append(chosen)
            value -= self._constants[chosen.site_id]
            node = chosen.caller
        if value != 0:
            raise EncodingError(
                f"CCID {ccid} is not a valid context id for {target!r}")
        path.reverse()
        return tuple(path)


class PCCECodec(AdditiveCodec):
    """64-bit additive codec."""

    scheme_name = "pcce"
    value_bits = 64


class PCCEScheme(EncodingScheme):
    """Factory for :class:`PCCECodec`."""

    name = "pcce"

    def build(self, plan: InstrumentationPlan) -> PCCECodec:
        return PCCECodec(plan)
