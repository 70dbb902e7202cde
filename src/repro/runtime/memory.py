"""Symmetric heaps and the memory pool.

A *symmetric allocation* is an array that exists, with identical shape and
dtype, on every rank.  One-sided operations identify a remote buffer by its
symmetric handle plus a target rank, exactly like an (I)SHMEM symmetric-heap
pointer.  Tiles of distributed matrices are symmetric allocations sized to
each rank's local tile.

The :class:`MemoryPool` reproduces the paper's fourth direct-execution
optimisation: GPU allocations are expensive and can synchronise the device,
so the implementation grabs one large slab up front and sub-allocates
temporary tile buffers from the host side.  Here the pool recycles NumPy
buffers keyed by (shape, dtype), which both exercises the same code structure
and genuinely reduces allocator pressure for large benchmark runs.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.util.validation import check_non_negative_int


@dataclass(frozen=True, slots=True)
class SymmetricHandle:
    """Opaque identifier of a symmetric allocation.

    The same handle is valid on every rank; pairing it with a rank selects a
    concrete buffer.  Shape and dtype are carried for validation and for
    modelling transfer sizes without touching the data.
    """

    alloc_id: int
    shape: Tuple[int, ...]
    dtype: np.dtype
    label: str = ""

    @property
    def nbytes(self) -> int:
        """Bytes of the allocation on one rank."""
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


class SymmetricHeap:
    """Per-rank storage for symmetric allocations.

    The heap of rank *r* maps allocation ids to NumPy arrays.  A
    :class:`Runtime` owns one heap per rank and guarantees that every
    ``allocate`` call creates the allocation in all heaps ("symmetric"
    semantics).  Per-allocation locks make remote accumulates atomic under the
    threaded backend.
    """

    def __init__(self, rank: int) -> None:
        self.rank = check_non_negative_int(rank, "rank")
        self._arrays: Dict[int, np.ndarray] = {}
        self._locks: Dict[int, threading.Lock] = {}

    def register(self, handle: SymmetricHandle, array: np.ndarray) -> None:
        """Store ``array`` as this rank's buffer of ``handle``."""
        if handle.alloc_id in self._arrays:
            raise ValueError(f"allocation {handle.alloc_id} already exists on rank {self.rank}")
        if tuple(array.shape) != tuple(handle.shape):
            raise ValueError(
                f"array shape {array.shape} does not match handle shape {handle.shape}"
            )
        self._arrays[handle.alloc_id] = array
        self._locks[handle.alloc_id] = threading.Lock()

    def deregister(self, handle: SymmetricHandle) -> None:
        """Drop this rank's buffer of ``handle`` (no-op if absent)."""
        self._arrays.pop(handle.alloc_id, None)
        self._locks.pop(handle.alloc_id, None)

    def array(self, handle: SymmetricHandle) -> np.ndarray:
        """This rank's buffer of ``handle``; ``KeyError`` if absent."""
        try:
            return self._arrays[handle.alloc_id]
        except KeyError:
            raise KeyError(
                f"allocation {handle.alloc_id} ({handle.label!r}) not present on rank {self.rank}"
            ) from None

    def lock(self, handle: SymmetricHandle) -> threading.Lock:
        """The lock that makes accumulates into ``handle`` atomic."""
        return self._locks[handle.alloc_id]

    def __contains__(self, handle: SymmetricHandle) -> bool:
        return handle.alloc_id in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)

    @property
    def allocated_bytes(self) -> int:
        """Bytes of every buffer on this rank."""
        return sum(arr.nbytes for arr in self._arrays.values())


class _HandleCounter:
    """Process-wide monotonically increasing allocation-id source."""

    _counter = itertools.count(1)
    _lock = threading.Lock()

    @classmethod
    def next_id(cls) -> int:
        with cls._lock:
            return next(cls._counter)


def make_handle(shape: Tuple[int, ...], dtype, label: str = "") -> SymmetricHandle:
    """Create a fresh symmetric handle (does not allocate storage)."""
    return SymmetricHandle(
        alloc_id=_HandleCounter.next_id(),
        shape=tuple(int(s) for s in shape),
        dtype=np.dtype(dtype),
        label=label,
    )


@dataclass
class _PoolStats:
    allocations: int = 0
    reuses: int = 0
    releases: int = 0
    outstanding: int = 0
    peak_outstanding: int = 0
    bytes_allocated: int = 0


class MemoryPool:
    """Reusable buffer pool for temporary tile copies.

    Buffers are keyed by ``(shape, dtype)``.  ``acquire`` hands out a zeroed
    or uninitialised buffer; ``release`` returns it to the free list.  A cap
    on retained buffers per key avoids unbounded growth during large sweeps.
    """

    def __init__(self, max_buffers_per_key: int = 16, zero_on_acquire: bool = False) -> None:
        if max_buffers_per_key < 0:
            raise ValueError("max_buffers_per_key must be non-negative")
        self._free: Dict[Tuple[Tuple[int, ...], np.dtype], List[np.ndarray]] = {}
        self._max_per_key = max_buffers_per_key
        self._zero = zero_on_acquire
        self._lock = threading.Lock()
        self.stats = _PoolStats()

    def acquire(self, shape: Tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """Obtain a buffer of the requested shape/dtype, reusing one if possible."""
        key = (tuple(int(s) for s in shape), np.dtype(dtype))
        with self._lock:
            free_list = self._free.get(key)
            if free_list:
                buffer = free_list.pop()
                self.stats.reuses += 1
            else:
                buffer = np.empty(key[0], dtype=key[1])
                self.stats.allocations += 1
                self.stats.bytes_allocated += buffer.nbytes
            self.stats.outstanding += 1
            self.stats.peak_outstanding = max(
                self.stats.peak_outstanding, self.stats.outstanding
            )
        if self._zero:
            buffer.fill(0)
        return buffer

    def release(self, buffer: np.ndarray) -> None:
        """Return a buffer to the pool."""
        key = (tuple(buffer.shape), buffer.dtype)
        with self._lock:
            self.stats.releases += 1
            self.stats.outstanding = max(0, self.stats.outstanding - 1)
            free_list = self._free.setdefault(key, [])
            if len(free_list) < self._max_per_key:
                free_list.append(buffer)

    def clear(self) -> None:
        """Drop all retained buffers."""
        with self._lock:
            self._free.clear()

    @property
    def retained_bytes(self) -> int:
        """Bytes held in the free lists."""
        with self._lock:
            return sum(
                buf.nbytes for buffers in self._free.values() for buf in buffers
            )
