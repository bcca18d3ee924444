"""In-memory span tracer installed around public methods at class level.

The serving session, the process and the defended allocator prebind
their callees when they are constructed.  Wrappers must therefore be
installed *before* any engine or program is built: the bound methods
captured at construction are then the wrappers.

Each span records its id, name, layer, start, end, parent span id and
the round it ran in.  Self time is accounted online: when a span ends,
its duration is added to its parent's child time, and its self time is
its duration minus the time its children covered.  Work a layer does
through a private fast path never opens a span, so it counts toward the
caller's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from types import ModuleType
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple)

#: Arguments -> number of objects one call handles (``malloc_run``).
ItemsFn = Callable[[Tuple[Any, ...]], int]
#: Arguments -> a gauge read after the call (a high-water mark).
GaugeFn = Callable[[Tuple[Any, ...]], float]

#: Spans kept for the Chrome trace file; later spans are still
#: accounted but not stored, so a long traced run stays bounded.
MAX_SPANS = 25_000


def first_arg_len(args: Tuple[Any, ...]) -> int:
    """Items of a ``*_run`` call: the length of its sequence argument."""
    return len(args[1])


def block_rows(args: Tuple[Any, ...]) -> int:
    """Rows of ``Process.exec_block_run(block, rows)``."""
    return len(args[2])


class Tracer:
    """Span recorder with online self-time accounting.

    Args:
        clock: monotonic seconds source (tests inject a fake clock).
        max_spans: spans kept in memory for the trace file.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_spans: int = MAX_SPANS) -> None:
        self.clock = clock
        self.max_spans = max_spans
        #: Round id stamped on new spans (-1: set-up).
        self.round = -1
        self.spans: List[Tuple[int, str, str, float, float, int, int]] = []
        self.dropped = 0
        self._next_id = 0
        #: Open spans: [id, name, layer, start, child_seconds].
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self.keep_durations: set = set()
        self.reset_stats()

    # -- accounting ----------------------------------------------------

    def reset_stats(self) -> None:
        """Zero every accumulator (stored spans are kept)."""
        #: name -> calls (every call, nested ones included).
        self.calls: Dict[str, int] = {}
        #: name -> objects handled; for ``outer_only`` names only by
        #: calls that entered the layer from another layer (so
        #: ``realloc`` calling ``free`` counts once).
        self.items: Dict[str, int] = {}
        #: name -> self seconds.
        self.self_time: Dict[str, float] = {}
        #: name -> max gauge reading.
        self.gauges: Dict[str, float] = {}
        #: name -> [(round, seconds)] for names in ``keep_durations``.
        self.durations: Dict[str, List[Tuple[int, float]]] = {}

    def enter(self, name: str, layer: str) -> None:
        """Open a span."""
        span_id = self._next_id
        self._next_id = span_id + 1
        self._stack.append([span_id, name, layer, self.clock(), 0.0])

    def exit(self, items: int = 1, outer_only: bool = True) -> float:
        """Close the innermost span; return its duration."""
        end = self.clock()
        span_id, name, layer, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        if not outer_only or parent is None or parent[2] != layer:
            self.items[name] = self.items.get(name, 0) + items
        self.self_time[name] = (self.self_time.get(name, 0.0)
                                + duration - child)
        if name in self.keep_durations:
            self.durations.setdefault(name, []).append(
                (self.round, duration))
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, layer, start, end,
                               parent[0] if parent is not None else -1,
                               self.round))
        else:
            self.dropped += 1
        return duration

    def gauge(self, name: str, value: float) -> None:
        """Record a high-water reading."""
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    # -- per-layer views -----------------------------------------------

    @staticmethod
    def layer_of(name: str) -> str:
        """Span names are ``<layer>.<qualified name>``."""
        return name.split(".", 1)[0]

    def layer_self(self) -> Dict[str, float]:
        """Self seconds summed per layer."""
        out: Dict[str, float] = {}
        for name, seconds in self.self_time.items():
            layer = self.layer_of(name)
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def sum_items(self, names: Sequence[str]) -> int:
        """Objects handled by the named spans."""
        return sum(self.items.get(name, 0) for name in names)

    def sum_calls(self, names: Sequence[str]) -> int:
        """Calls of the named spans."""
        return sum(self.calls.get(name, 0) for name in names)

    # -- installation --------------------------------------------------

    def wrap_method(self, cls: type, attr: str, layer: str,
                    items: Optional[ItemsFn] = None,
                    gauge: Optional[GaugeFn] = None,
                    outer_only: bool = True) -> str:
        """Replace ``cls.attr`` with a span-recording wrapper.

        Returns the span name, ``<layer>.<Class>.<attr>``.
        """
        name = f"{layer}.{cls.__name__}.{attr}"
        owned = attr in cls.__dict__
        original = getattr(cls, attr)
        wrapper = self._wrapper(original, name, layer, items, gauge,
                                outer_only)
        setattr(cls, attr, wrapper)
        self._patches.append((cls, attr, original, owned))
        return name

    def wrap_function(self, module: ModuleType, attr: str,
                      layer: str) -> str:
        """Wrap a module-level function in every ``repro`` and
        ``hpbench`` module that imported it by name (``from .instrument
        import instrument``)."""
        original = getattr(module, attr)
        name = f"{layer}.{attr}"
        wrapper = self._wrapper(original, name, layer, None, None, True)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".", 1)[0] not in ("repro", "hpbench"):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, original, True))
        return name

    def _wrapper(self, original: Callable[..., Any], name: str, layer: str,
                 items: Optional[ItemsFn], gauge: Optional[GaugeFn],
                 outer_only: bool) -> Callable[..., Any]:
        enter = self.enter
        exit_ = self.exit

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            enter(name, layer)
            try:
                return original(*args, **kwargs)
            finally:
                exit_(items(args) if items is not None else 1, outer_only)
                if gauge is not None:
                    self.gauge(name, gauge(args))
        return wrapper

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def chrome_trace(self, metadata: Dict[str, Any]) -> Dict[str, Any]:
        """The stored spans as a Chrome trace-event document.

        Perfetto and ``chrome://tracing`` open it offline.  Complete
        (``"ph": "X"``) events carry microsecond start and duration; the
        span id, parent id and round ride in ``args``.
        """
        origin = min((span[3] for span in self.spans), default=0.0)
        events = [{
            "name": name.split(".", 1)[1],
            "cat": layer,
            "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {"id": span_id, "parent": parent, "round": rnd},
        } for span_id, name, layer, start, end, parent, rnd in self.spans]
        other = dict(metadata)
        other["stored_spans"] = len(self.spans)
        other["dropped_spans"] = self.dropped
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": other}

    def write_chrome_trace(self, path: str,
                           metadata: Dict[str, Any]) -> None:
        """Write :meth:`chrome_trace` as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(metadata), handle)
