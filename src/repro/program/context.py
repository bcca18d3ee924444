"""Context-source protocol: who answers "what is the current CCID?".

The online system reads the current calling-context ID from the encoding
runtime (one thread-local integer); the offline analyzer may instead walk
the simulated call stack.  Both are :class:`ContextSource` implementations,
and the defense/analysis layers query :meth:`current_ccid` at each
allocation.  The :class:`~repro.program.process.Process` drives a source
in one of two ways:

* **targeted** (:class:`TargetedContextSource`: the encoding runtime and
  the null source) — the encoding value rides on the process's frames.
  A call site is resolved once into a *site record*; only instrumented
  sites fold, a return just pops the frame, and the CCID is published to
  the source at each allocation site;
* **hooks** (every other source: the stack walker, the coverage tracker,
  test doubles) — the process invokes :meth:`ContextSource.at_call_site`,
  :meth:`~ContextSource.enter_function` and
  :meth:`~ContextSource.exit_function` on every call.  Wrapping an
  encoding runtime in a hooks-only source (``CoverageTracker(inner=
  runtime)``) drives it through this path, which makes the hook protocol
  the reference the targeted one is tested against.

Keeping the protocol here (rather than in :mod:`repro.ccencoding`) breaks
the import cycle between the program model and the encoders.
"""

from __future__ import annotations

import abc
from typing import Callable, Hashable, Optional, Tuple

from .callgraph import CallSite
from .cost import CycleMeter

#: What a targeted source tells the process about one call site:
#: ``(site, fold, cycles)``.  ``fold(t, site)`` folds the site into the
#: frame value ``t`` and is None at uninstrumented sites; ``cycles`` is
#: the encoding cost of one crossing.
SiteRecord = Tuple[CallSite, Optional[Callable[[int, CallSite], int]], int]


class ContextSource(abc.ABC):
    """Provider of allocation-time calling-context identifiers."""

    #: True when :meth:`current_ccid` is a *pure read* — no counters, no
    #: cycle charges, no state changes.  The interposer may skip the
    #: read entirely for allocation functions that provably have no
    #: patches, but only when skipping it is unobservable.  A
    #: stack walker (whose walks are counted and charged) must leave
    #: this False.
    pure_ccid: bool = False

    @abc.abstractmethod
    def current_ccid(self) -> int:
        """The CCID to associate with an allocation happening now."""

    def enter_function(self, name: str) -> None:
        """The process entered function ``name``."""

    def exit_function(self, name: str) -> None:
        """The process is returning from function ``name``."""

    def at_call_site(self, site: CallSite) -> None:
        """The process is about to call through ``site``."""


class TargetedContextSource(ContextSource):
    """A source driven by the targeted call protocol.

    The process keeps ``t`` — the encoding value at function entry — on
    each of its frames and asks the source once per call site (and
    allocation site) for a :data:`SiteRecord`.  A crossing folds ``t``
    only where the record has a fold, charges the record's cycles to
    :attr:`meter` in one step and bumps the two counters; a return pops
    the frame and runs nothing.  At an allocation site the process stores
    the CCID in :attr:`v`, which :meth:`current_ccid` reads.
    """

    pure_ccid = True
    #: Meter the record cycles are charged to (None: encoding is free).
    meter: Optional[CycleMeter] = None

    def __init__(self) -> None:
        #: The V register as of the last allocation site.
        self.v: int = 0
        #: How many call sites were crossed in total (dynamic count).
        self.sites_crossed: int = 0
        #: How many encoding updates actually executed (dynamic count).
        self.updates_executed: int = 0

    @abc.abstractmethod
    def site_record(self, site: CallSite, enters: bool) -> SiteRecord:
        """The record of ``site``; ``enters`` is False for allocation
        sites, which push no frame and so run no callee prologue.

        It must be a pure function of ``site``, ``enters`` and
        :meth:`record_key`: processes share records across runs."""

    @abc.abstractmethod
    def record_key(self) -> Hashable:
        """What this source's site records depend on besides the site.

        Processes on one frozen graph whose sources return equal keys
        share one record table (:meth:`CallGraph.site_records
        <repro.program.callgraph.CallGraph.site_records>`).  The key is
        held by the graph, so it must not be an ``id()``, which a later
        object can reuse.  ``None`` is the key of ``(site, None, 0)``
        records, which every source without targeted encoding gives.
        """

    def start(self, entry: str) -> int:
        """The process enters ``entry`` with no call site in front of
        it: charge its prologue and return the entry frame's ``t``."""
        return self.v

    def finish(self) -> None:
        """The run ended (normally or not): V returns to its seed."""
        self.v = 0

    def current_ccid(self) -> int:
        """Read V — one register read, no extra cost category."""
        return self.v


class NullContextSource(TargetedContextSource):
    """No context tracking at all (pure native execution): no site
    folds, nothing is charged and every CCID is 0."""

    def site_record(self, site: CallSite, enters: bool) -> SiteRecord:
        return (site, None, 0)

    def record_key(self) -> Hashable:
        return None
