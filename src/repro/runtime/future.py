"""Futures for asynchronous one-sided operations.

``get_tile_async`` in the paper returns a future that is waited on one or two
iterations later (prefetch depth 2).  In this reproduction the data movement
itself is performed eagerly (it is a NumPy copy), but the future records the
*modelled* completion time and the number of bytes moved so that execution
engines can reason about overlap, and so that tests can assert that prefetch
actually happens before the consuming iteration.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional


class Future:
    """A single-assignment result container with an optional completion callback."""

    def __init__(self, description: str = "") -> None:
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: list[Callable[["Future"], None]] = []
        self.description = description
        #: Modelled completion time (seconds on the simulated clock); set by
        #: the issuing engine, not by the runtime.
        self.sim_ready_time: float = 0.0
        #: Number of bytes whose transfer this future represents.
        self.nbytes: int = 0

    # ------------------------------------------------------------------ #
    def set_result(self, value: Any) -> None:
        """Fulfil the future.  May only be called once."""
        if self._event.is_set():
            raise RuntimeError("future already completed")
        self._value = value
        self._event.set()
        for callback in self._callbacks:
            callback(self)

    def set_exception(self, error: BaseException) -> None:
        """Fail the future.  ``wait()`` re-raises the stored exception."""
        if self._event.is_set():
            raise RuntimeError("future already completed")
        self._error = error
        self._event.set()
        for callback in self._callbacks:
            callback(self)

    # ------------------------------------------------------------------ #
    def done(self) -> bool:
        """Whether the result (or error) is set."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block until the result is available and return it."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"future {self.description!r} did not complete")
        if self._error is not None:
            raise self._error
        return self._value

    # ``result`` alias mirrors concurrent.futures naming.
    result = wait

    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        """Call ``callback(self)`` once done (now, if already done)."""
        if self.done():
            callback(self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done() else "pending"
        return f"Future({self.description!r}, {state})"


class CompletedFuture(Future):
    """A future that is already fulfilled at construction time.

    Used for local tiles: ``get_tile_async`` on a tile the caller already owns
    returns a view immediately, with zero modelled transfer time.
    """

    def __init__(self, value: Any, description: str = "local") -> None:
        super().__init__(description)
        self.set_result(value)
