"""Execution backends for SPMD regions.

The universal algorithm is an SPMD program: every rank independently
generates and executes its own list of local matrix multiplies.  Two backends
run such regions:

* :class:`SequentialBackend` executes ranks one after another in rank order.
  This is deterministic and fast, and is correct for the algorithm because
  the one-sided operations it performs are order-insensitive (gets read
  immutable inputs; accumulates are commutative additions).
* :class:`ThreadedBackend` runs each rank on its own thread, providing real
  concurrency (and a genuine ``barrier``), which exercises the atomicity of
  remote accumulates and the thread-safety of the memory pool and traffic
  counters.
"""

from __future__ import annotations

import abc
import threading
from typing import Any, Callable, List, Optional, Sequence


class Backend(abc.ABC):
    """Strategy object deciding how per-rank functions are executed."""

    name: str = "abstract"

    @abc.abstractmethod
    def run(self, functions: Sequence[Callable[[], Any]]) -> List[Any]:
        """Execute one zero-argument callable per rank and collect results."""

    @abc.abstractmethod
    def make_barrier(self, num_ranks: int) -> Callable[[], None]:
        """Return a barrier callable usable from inside SPMD functions."""


class SequentialBackend(Backend):
    """Run each rank's function to completion, in rank order.

    A barrier in this backend is a no-op: since ranks never interleave, all
    side effects of rank *r* are visible to rank *r+1* anyway.  SPMD code that
    relies on two-way synchronisation (rank 0 waiting for data rank 1 has not
    produced yet) must use the threaded backend; none of the algorithms in
    this library require that.
    """

    name = "sequential"

    def run(self, functions: Sequence[Callable[[], Any]]) -> List[Any]:
        """Call each rank's function in rank order."""
        return [function() for function in functions]

    def make_barrier(self, num_ranks: int) -> Callable[[], None]:
        """A no-op barrier: sequential ranks never wait for each other."""
        def barrier() -> None:
            return None

        return barrier


class ThreadedBackend(Backend):
    """Run each rank's function on a dedicated thread.

    Exceptions raised by any rank are re-raised in the caller after all
    threads have been joined, with the failing rank identified.
    """

    name = "threaded"

    def __init__(self, timeout: Optional[float] = None) -> None:
        self.timeout = timeout

    def run(self, functions: Sequence[Callable[[], Any]]) -> List[Any]:
        """Run each rank's function on its own thread; a failed rank raises ``RuntimeError``."""
        results: List[Any] = [None] * len(functions)
        errors: List[Optional[BaseException]] = [None] * len(functions)

        def runner(index: int, function: Callable[[], Any]) -> None:
            try:
                results[index] = function()
            except BaseException as exc:  # noqa: BLE001 - propagated below
                errors[index] = exc

        threads = [
            threading.Thread(target=runner, args=(i, fn), name=f"rank-{i}", daemon=True)
            for i, fn in enumerate(functions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(self.timeout)
            if thread.is_alive():
                raise TimeoutError(f"SPMD thread {thread.name} did not finish")
        for rank, error in enumerate(errors):
            if error is not None:
                raise RuntimeError(f"rank {rank} failed in SPMD region") from error
        return results

    def make_barrier(self, num_ranks: int) -> Callable[[], None]:
        """A ``threading.Barrier`` over ``num_ranks`` threads."""
        barrier = threading.Barrier(num_ranks)

        def wait() -> None:
            barrier.wait()

        return wait


def make_backend(name: str, **kwargs: Any) -> Backend:
    """Construct a backend by name (``"sequential"`` or ``"threaded"``)."""
    key = name.lower()
    if key == "sequential":
        return SequentialBackend()
    if key == "threaded":
        return ThreadedBackend(**kwargs)
    raise ValueError(f"unknown backend {name!r}; expected 'sequential' or 'threaded'")
