"""Program model: call graphs, guest processes, execution monitors, costs.

This package stands in for "a compiled C program" in the paper's pipeline:
programs declare a static call graph (what the LLVM pass would analyze) and
execute through a :class:`Process` that tracks dynamic calling contexts and
routes all memory traffic through a pluggable monitor.
"""

from .callgraph import CallGraph, CallGraphError, CallSite, Function
from .context import ContextSource, NullContextSource
from .coverage import CoverageReport, CoverageTracker, merge_coverage
from .cost import DEFAULT_COST_MODEL, CostModel, CycleMeter
from .monitor import DirectMonitor, ExecutionMonitor
from .process import AllocationEvent, Process, ProcessError
from .program import Program
from .threads import (
    GuestThreadResult,
    LockStepScheduler,
    ThreadedExecution,
)
from .values import TaggedValue

__all__ = [
    "AllocationEvent",
    "CallGraph",
    "CallGraphError",
    "CallSite",
    "ContextSource",
    "CoverageReport",
    "CoverageTracker",
    "CostModel",
    "CycleMeter",
    "DEFAULT_COST_MODEL",
    "DirectMonitor",
    "ExecutionMonitor",
    "Function",
    "GuestThreadResult",
    "LockStepScheduler",
    "NullContextSource",
    "Process",
    "ProcessError",
    "Program",
    "TaggedValue",
    "ThreadedExecution",
    "merge_coverage",
]
