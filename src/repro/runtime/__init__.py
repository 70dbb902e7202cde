"""A simulated PGAS / SHMEM-style runtime with one-sided communication.

The paper implements its algorithm on top of a C++ PGAS framework (a fork of
Distributed Ranges) whose tiles live in *symmetric memory* so that any device
can read (``get``), write (``put``), or atomically accumulate into any other
device's tiles without the target's participation.  This package provides the
Python equivalent:

* :class:`~repro.runtime.memory.SymmetricHeap` — per-rank symmetric
  allocations backed by NumPy arrays.
* :class:`~repro.runtime.memory.MemoryPool` — the paper's §4.2 optimisation:
  one up-front allocation, sub-allocated from the host side to avoid repeated
  device allocations.
* :class:`~repro.runtime.future.Future` — handles returned by asynchronous
  one-sided operations (``get_tile_async``-style).
* :class:`~repro.runtime.runtime.Runtime` — the facade that owns the ranks,
  the machine model, the traffic counters, and the one-sided primitives.
* Sequential and threaded execution backends for SPMD regions.

Data movement is *real* (NumPy copies between per-rank heaps), so algorithm
correctness is genuinely exercised; time is *modelled* (charged against the
machine's link bandwidths and FLOP peaks) so that the benchmark harness can
report percent-of-peak numbers comparable in shape to the paper's figures.
"""

from repro.runtime.future import Future, CompletedFuture
from repro.runtime.memory import MemoryPool, SymmetricHeap, SymmetricHandle
from repro.runtime.traffic import TrafficCounter, TransferRecord
from repro.runtime.backend import Backend, SequentialBackend, ThreadedBackend
from repro.runtime.runtime import Runtime, RankContext

__all__ = [
    "Future",
    "CompletedFuture",
    "MemoryPool",
    "SymmetricHeap",
    "SymmetricHandle",
    "TrafficCounter",
    "TransferRecord",
    "Backend",
    "SequentialBackend",
    "ThreadedBackend",
    "Runtime",
    "RankContext",
]
