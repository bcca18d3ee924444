"""Static call-graph model: functions, call sites, reachability.

The call graph is the structure on which everything in Section IV of the
paper operates.  It is a *multigraph*: two distinct call sites between the
same caller/callee pair are distinct edges, because they produce distinct
calling contexts and each carries its own encoding constant.

Allocation entry points (``malloc`` & co.) appear as ordinary nodes, and a
program's allocation statements are call-site edges into them — exactly how
an LLVM call graph would see calls into libc.  The *target functions* of
targeted calling-context encoding are, for HeapTherapy+, precisely these
allocation nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Set,
    Tuple,
)

from ..allocator.base import ALLOCATION_FUNCTIONS


@dataclass(frozen=True)
class Function:
    """A node in the call graph."""

    name: str
    #: True for allocation API nodes (``malloc``, ``calloc``, ...).
    is_allocation_api: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Function({self.name!r})"


@dataclass(frozen=True)
class CallSite:
    """An edge in the call graph: one textual call site in the caller.

    Attributes:
        site_id: dense integer id, unique per graph; doubles as the PCC
            encoding constant seed for this site.
        caller: name of the containing function.
        callee: name of the invoked function.
        label: disambiguates multiple sites between the same pair; unique
            within (caller, callee).
    """

    site_id: int
    caller: str
    callee: str
    label: str = ""

    @property
    def key(self) -> Tuple[str, str, str]:
        """The stable identity of the site across graph rebuilds."""
        return (self.caller, self.callee, self.label)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        suffix = f"#{self.label}" if self.label else ""
        return f"CallSite({self.caller}->{self.callee}{suffix})"


class CallGraphError(ValueError):
    """Malformed call-graph construction or query."""


class CallGraph:
    """A program's static call multigraph.

    Construction is explicit — the program model declares its functions and
    call sites up front, playing the role of the compiler's call-graph
    analysis.  The graph then answers the reachability and branching
    queries the targeted-encoding algorithms need.
    """

    def __init__(self, entry: str = "main") -> None:
        self.entry = entry
        self._functions: Dict[str, Function] = {}
        self._sites: List[CallSite] = []
        self._sites_by_key: Dict[Tuple[str, str, str], CallSite] = {}
        self._out: Dict[str, List[CallSite]] = {}
        self._in: Dict[str, List[CallSite]] = {}
        self._frozen = False
        #: Record key -> (call-site, allocation-site) record tables
        #: shared by the processes run on this graph once frozen (see
        #: :meth:`site_records`); a pure cache, never pickled.
        self._site_records: Dict[Hashable, Tuple[Dict[Any, Any],
                                                 Dict[Any, Any]]] = {}
        self.add_function(entry)

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["_site_records"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._site_records = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @property
    def frozen(self) -> bool:
        """True once the graph is sealed against further construction."""
        return self._frozen

    def freeze(self) -> "CallGraph":
        """Seal the graph; later mutation raises :class:`CallGraphError`.

        Instrumentation plans, codecs, and static analyses all key off
        the site-id numbering; mutating a graph they already saw would
        silently desynchronize CCIDs.  :attr:`Program.graph` freezes the
        cached graph so that cannot happen.  Returns ``self`` for
        chaining.
        """
        self._frozen = True
        return self

    def _mutable(self, what: str) -> None:
        if self._frozen:
            raise CallGraphError(
                f"cannot {what}: call graph is frozen (mutating a graph "
                f"after instrumentation would desynchronize site ids "
                f"and CCIDs); build a new graph instead")

    def add_function(self, name: str) -> Function:
        """Declare a function; idempotent."""
        existing = self._functions.get(name)
        if existing is not None:
            return existing
        self._mutable(f"add function {name!r}")
        fn = Function(name, is_allocation_api=name in ALLOCATION_FUNCTIONS)
        self._functions[name] = fn
        self._out.setdefault(name, [])
        self._in.setdefault(name, [])
        return fn

    def add_call_site(self, caller: str, callee: str,
                      label: str = "") -> CallSite:
        """Declare a call site; callers/callees are auto-declared."""
        self._mutable(f"add call site {caller}->{callee}")
        self.add_function(caller)
        self.add_function(callee)
        key = (caller, callee, label)
        if key in self._sites_by_key:
            raise CallGraphError(
                f"duplicate call site {caller}->{callee}#{label!r}; "
                f"give the second site a distinct label")
        site = CallSite(len(self._sites), caller, callee, label)
        self._sites.append(site)
        self._sites_by_key[key] = site
        self._out[caller].append(site)
        self._in[callee].append(site)
        return site

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def function(self, name: str) -> Function:
        """Return the declared function ``name`` or raise."""
        try:
            return self._functions[name]
        except KeyError:
            raise CallGraphError(f"unknown function {name!r}") from None

    def has_function(self, name: str) -> bool:
        """True if ``name`` is declared."""
        return name in self._functions

    def site(self, caller: str, callee: str, label: str = "") -> CallSite:
        """Return the unique site ``caller->callee#label`` or raise."""
        key = (caller, callee, label)
        site = self._sites_by_key.get(key)
        if site is not None:
            return site
        # Convenience: if exactly one site exists between the pair and no
        # label was given, resolve it.
        if not label:
            candidates = [s for s in self._out.get(caller, ())
                          if s.callee == callee]
            if len(candidates) == 1:
                return candidates[0]
            if len(candidates) > 1:
                raise CallGraphError(
                    f"ambiguous call site {caller}->{callee}: "
                    f"{len(candidates)} sites; pass label=")
        raise CallGraphError(
            f"unknown call site {caller}->{callee}#{label!r}")

    def site_records(self, key: Hashable) -> Tuple[Dict[Any, Any],
                                                   Dict[Any, Any]]:
        """The ``(call-site, allocation-site)`` record tables shared by
        every process run on this graph whose context source has record
        key ``key``.

        A :class:`~repro.program.process.Process` caches each site it
        resolves, keyed ``(caller, callee, label)``, while the graph is
        frozen (site ids are stable then).  A record is a pure function
        of the site and the key (for an encoding runtime: its codec and
        cost model), so a fresh run starts with every site an earlier
        run of the same key resolved.
        """
        tables = self._site_records.get(key)
        if tables is None:
            tables = self._site_records[key] = ({}, {})
        return tables

    def site_by_id(self, site_id: int) -> CallSite:
        """Return the site with dense id ``site_id``."""
        return self._sites[site_id]

    @property
    def functions(self) -> List[Function]:
        """All declared functions."""
        return list(self._functions.values())

    @property
    def function_names(self) -> List[str]:
        """All declared function names."""
        return list(self._functions)

    @property
    def sites(self) -> List[CallSite]:
        """All call sites, in declaration (= id) order."""
        return list(self._sites)

    @property
    def site_count(self) -> int:
        """Number of call sites."""
        return len(self._sites)

    def out_sites(self, name: str) -> List[CallSite]:
        """Call sites textually inside function ``name``."""
        return list(self._out.get(name, ()))

    def in_sites(self, name: str) -> List[CallSite]:
        """Call sites that invoke function ``name``."""
        return list(self._in.get(name, ()))

    @property
    def allocation_targets(self) -> List[str]:
        """Names of allocation-API nodes present in this graph."""
        return [f.name for f in self._functions.values()
                if f.is_allocation_api]

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------

    def reachable_to(self, targets: Iterable[str]) -> FrozenSet[str]:
        """Functions from which some target is reachable (targets incl.).

        This is the backward reachability underlying the TCS optimization.
        """
        worklist = deque()
        seen: Set[str] = set()
        for t in targets:
            if t in self._functions and t not in seen:
                seen.add(t)
                worklist.append(t)
        while worklist:
            node = worklist.popleft()
            for site in self._in.get(node, ()):
                if site.caller not in seen:
                    seen.add(site.caller)
                    worklist.append(site.caller)
        return frozenset(seen)

    def reachable_from_entry(self) -> FrozenSet[str]:
        """Functions reachable from the entry point (forward)."""
        worklist = deque([self.entry])
        seen: Set[str] = {self.entry}
        while worklist:
            node = worklist.popleft()
            for site in self._out.get(node, ()):
                if site.callee not in seen:
                    seen.add(site.callee)
                    worklist.append(site.callee)
        return frozenset(seen)

    def is_acyclic(self) -> bool:
        """True if the simple call graph has no cycles (incl. self loops)."""
        # Iterative DFS: synthetic call chains routinely exceed Python's
        # recursion limit, and this predicate guards every encoding build.
        color: Dict[str, int] = {}
        for root in self._functions:
            if color.get(root, 0):
                continue
            color[root] = 1
            stack: List[Tuple[str, List[CallSite], int]] = [
                (root, self._out.get(root, []), 0)]
            while stack:
                node, sites, index = stack[-1]
                if index < len(sites):
                    stack[-1] = (node, sites, index + 1)
                    child = sites[index].callee
                    state = color.get(child, 0)
                    if state == 1:
                        return False
                    if state == 0:
                        color[child] = 1
                        stack.append((child, self._out.get(child, []), 0))
                else:
                    color[node] = 2
                    stack.pop()
        return True

    def back_edges(self) -> FrozenSet[int]:
        """Site ids whose edges close a cycle (DFS back/cross into stack)."""
        color: Dict[str, int] = {}
        back: Set[int] = set()
        for root in self._functions:
            if color.get(root, 0):
                continue
            color[root] = 1
            stack: List[Tuple[str, List[CallSite], int]] = [
                (root, self._out.get(root, []), 0)]
            while stack:
                node, sites, index = stack[-1]
                if index < len(sites):
                    stack[-1] = (node, sites, index + 1)
                    site = sites[index]
                    state = color.get(site.callee, 0)
                    if state == 1:
                        back.add(site.site_id)
                    elif state == 0:
                        color[site.callee] = 1
                        stack.append(
                            (site.callee, self._out.get(site.callee, []), 0))
                else:
                    color[node] = 2
                    stack.pop()
        return frozenset(back)

    def topological_order(self) -> List[str]:
        """All functions, callers before callees; raises on cycles.

        Iterative (deep synthetic call chains exceed the recursion
        limit); declaration order breaks ties, so the order is stable
        across calls on the same graph.
        """
        if not self.is_acyclic():
            raise CallGraphError(
                "topological order requires an acyclic call graph")
        order: List[str] = []
        state: Dict[str, int] = {}
        for root in self._functions:
            if state.get(root, 0):
                continue
            state[root] = 1
            stack: List[Tuple[str, List[CallSite], int]] = [
                (root, self._out.get(root, []), 0)]
            while stack:
                node, sites, index = stack[-1]
                if index < len(sites):
                    stack[-1] = (node, sites, index + 1)
                    child = sites[index].callee
                    if state.get(child, 0) == 0:
                        state[child] = 1
                        stack.append((child, self._out.get(child, []), 0))
                else:
                    state[node] = 2
                    order.append(node)
                    stack.pop()
        order.reverse()
        return order

    def enumerate_contexts(self, target: str,
                           limit: int = 1_000_000
                           ) -> List[Tuple[CallSite, ...]]:
        """All acyclic call paths from entry to ``target``.

        A *calling context* of ``target`` is the sequence of call sites on
        the path.  Used by tests and by enumeration-based decoding; raises
        if the graph is cyclic or the context count exceeds ``limit``.
        """
        if not self.is_acyclic():
            raise CallGraphError(
                "enumerate_contexts requires an acyclic call graph")
        results: List[Tuple[CallSite, ...]] = []
        path: List[CallSite] = []
        # Iterative DFS (deep chains exceed the recursion limit); each
        # stack frame above the first owns the path entry that led to it.
        stack: List[Tuple[str, int]] = [(self.entry, 0)]
        while stack:
            node, index = stack[-1]
            if index == 0 and node == target:
                results.append(tuple(path))
                if len(results) > limit:
                    raise CallGraphError(
                        f"more than {limit} contexts for {target!r}")
                stack.pop()
                if stack:
                    path.pop()
                continue
            sites = self._out.get(node, ())
            if index < len(sites):
                stack[-1] = (node, index + 1)
                path.append(sites[index])
                stack.append((sites[index].callee, 0))
            else:
                stack.pop()
                if stack:
                    path.pop()
        return results

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_dot(self) -> str:
        """Graphviz DOT rendering, handy for debugging workloads."""
        lines = ["digraph callgraph {"]
        for fn in self._functions.values():
            shape = "doubleoctagon" if fn.is_allocation_api else "box"
            lines.append(f'  "{fn.name}" [shape={shape}];')
        for site in self._sites:
            label = site.label or str(site.site_id)
            lines.append(
                f'  "{site.caller}" -> "{site.callee}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __iter__(self) -> Iterator[CallSite]:
        return iter(self._sites)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"CallGraph(entry={self.entry!r}, "
                f"functions={len(self._functions)}, "
                f"sites={len(self._sites)})")
