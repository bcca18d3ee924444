"""Bounded admission: a lazy, windowed request source.

The engine historically admitted the full request stream up front — one
tuple holding every request of the run.  That is fine for one engine,
but a fleet run drives N engines at once and each would pin its whole
stream in memory.  :class:`LazyRequestStream` is the bounded-admission
alternative behind ``ServingOptions.max_admitted``: it materializes
request batches on demand from the service's deterministic token
generator and keeps at most ``max_admitted`` batches alive at a time.

Determinism is unchanged — the generator yields the exact token
sequence the eager path builds (attack injection included), so reports
are byte-identical whether admission is bounded or not.  The stream is
picklable (the generator and window cache are per-process state and
rebuilt lazily), so it ships to pool workers exactly like the eager
request tuple.  Batch access is effectively monotone (every index is
submitted at once, in order, and each worker takes the next one from
the executor's queue), which the window exploits; a backward access replays the generator from the start —
correct, merely slower, and only reachable through crash-recovery
resubmission.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple


class LazyRequestStream:
    """Windowed view over a deterministic request-token generator.

    ``service_key`` names a :func:`~repro.serving.services.
    serving_registry` entry whose token generator is replayed
    per-process; ``attack_every`` injects the service's attack token
    after every N benign requests, mirroring
    :func:`~repro.serving.services.inject_attacks` draw for draw.
    """

    def __init__(self, service_key: str, count: int, batch_size: int,
                 attack_every: int = 0, max_admitted: int = 1) -> None:
        if max_admitted < 1:
            raise ValueError(
                f"max_admitted must be >= 1, got {max_admitted}")
        self.service_key = service_key
        self.count = count
        self.batch_size = batch_size
        self.attack_every = attack_every
        self.max_admitted = max_admitted
        self._reset_window()

    # -- pickling (window state is per-process) ------------------------

    def __getstate__(self) -> Dict[str, Any]:
        return {"service_key": self.service_key, "count": self.count,
                "batch_size": self.batch_size,
                "attack_every": self.attack_every,
                "max_admitted": self.max_admitted}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._reset_window()

    def _reset_window(self) -> None:
        self._iter: Optional[Iterator[Any]] = None
        self._next_batch = 0
        #: FIFO window of materialized batches (dict preserves order).
        self._window: Dict[int, Tuple[Any, ...]] = {}
        self.peak_admitted = 0
        self.restarts = 0

    # -- the deterministic token sequence ------------------------------

    def _tokens(self) -> Iterator[Any]:
        """Benign tokens with attacks injected, one at a time."""
        from .services import serving_registry

        service = serving_registry()[self.service_key]
        if service.stream_iter is not None:
            benign: Iterator[Any] = service.stream_iter(self.count)
        else:
            benign = iter(service.stream(self.count))
        every = self.attack_every
        served = 0
        for token in benign:
            yield token
            served += 1
            if every and served % every == 0:
                yield service.attack_token

    def __len__(self) -> int:
        """Total admitted requests (attack injections included)."""
        extra = self.count // self.attack_every if self.attack_every else 0
        return self.count + extra

    @property
    def n_batches(self) -> int:
        """Number of batches the stream chunks into."""
        size = self.batch_size
        return (len(self) + size - 1) // size

    # -- windowed access -----------------------------------------------

    def batch(self, index: int) -> Tuple[Any, ...]:
        """The requests of batch ``index`` (materialized on demand).

        At most :attr:`max_admitted` batches are held after the call;
        :attr:`peak_admitted` records the high-water mark, which the
        admission regression test pins to the knob.
        """
        cached = self._window.get(index)
        if cached is not None:
            return cached
        if self._iter is None or index < self._next_batch:
            # Backward access (crash-recovery resubmission): replay the
            # deterministic generator from the start.
            if self._iter is not None:
                self.restarts += 1
            self._iter = self._tokens()
            self._next_batch = 0
            self._window.clear()
        size = self.batch_size
        batch: Tuple[Any, ...] = ()
        while self._next_batch <= index:
            chunk = []
            for _ in range(size):
                try:
                    chunk.append(next(self._iter))
                except StopIteration:
                    break
            batch = tuple(chunk)
            current = self._next_batch
            self._next_batch += 1
            if current >= index:
                # Only the window ahead of the dispatcher is retained;
                # skipped-over batches were admitted transiently and
                # dropped (they never exceed the window either).
                self._window[current] = batch
                while len(self._window) > self.max_admitted:
                    self._window.pop(next(iter(self._window)))
                self.peak_admitted = max(self.peak_admitted,
                                         len(self._window))
        return batch
