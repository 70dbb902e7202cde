"""The PGAS runtime facade.

A :class:`Runtime` owns

* one :class:`~repro.runtime.memory.SymmetricHeap` per rank,
* one :class:`~repro.runtime.memory.MemoryPool` per rank,
* the machine model (:class:`~repro.topology.machines.MachineSpec`) whose
  topology prices every transfer,
* a :class:`~repro.runtime.traffic.TrafficCounter`, and
* an execution :class:`~repro.runtime.backend.Backend` for SPMD regions.

One-sided operations (`get`, `put`, `accumulate`) address a buffer by
``(handle, target_rank)`` and never require the target rank's participation,
matching the SHMEM/RDMA semantics the paper's implementation relies on.
Data movement is performed eagerly with NumPy; the machine's topology prices
it (``runtime.topology.transfer_time``), and the cost model and event engine
keep all modelled time.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.runtime.backend import Backend, SequentialBackend, make_backend
from repro.runtime.future import CompletedFuture, Future
from repro.runtime.memory import MemoryPool, SymmetricHandle, SymmetricHeap, make_handle
from repro.runtime.traffic import ACCUMULATE, GET, PUT, TrafficCounter, TransferRecord
from repro.topology.machines import MachineSpec, uniform_system
from repro.util.indexing import Rect
from repro.util.validation import CommunicationError, check_in_range


class RankContext:
    """Per-rank view of the runtime handed to SPMD functions.

    All one-sided calls made through a context are attributed to its rank in
    the traffic counters, and local allocations / pool buffers come from that
    rank's resources.
    """

    def __init__(self, runtime: "Runtime", rank: int, barrier: Callable[[], None]) -> None:
        self.runtime = runtime
        self.rank = rank
        self._barrier = barrier

    # -- delegation helpers ------------------------------------------------
    def barrier(self) -> None:
        """Wait until every rank of the SPMD region reaches the barrier."""
        self._barrier()

    def get(self, handle: SymmetricHandle, target_rank: int, rect: Optional[Rect] = None,
            out: Optional[np.ndarray] = None) -> np.ndarray:
        """One-sided get from ``target_rank``, initiated by this rank."""
        return self.runtime.get(handle, target_rank, initiator=self.rank, rect=rect, out=out)

    def get_async(self, handle: SymmetricHandle, target_rank: int,
                  rect: Optional[Rect] = None) -> Future:
        """Asynchronous one-sided get, initiated by this rank."""
        return self.runtime.get_async(handle, target_rank, initiator=self.rank, rect=rect)

    def put(self, handle: SymmetricHandle, target_rank: int, data: np.ndarray,
            rect: Optional[Rect] = None) -> None:
        """One-sided put into ``target_rank``, initiated by this rank."""
        self.runtime.put(handle, target_rank, data, initiator=self.rank, rect=rect)

    def accumulate(self, handle: SymmetricHandle, target_rank: int, data: np.ndarray,
                   rect: Optional[Rect] = None) -> None:
        """One-sided accumulate into ``target_rank``, initiated by this rank."""
        self.runtime.accumulate(handle, target_rank, data, initiator=self.rank, rect=rect)

    def local_view(self, handle: SymmetricHandle, rect: Optional[Rect] = None) -> np.ndarray:
        """A view of this rank's own buffer of ``handle``."""
        return self.runtime.local_view(handle, self.rank, rect=rect)

    @property
    def pool(self) -> MemoryPool:
        """This rank's memory pool."""
        return self.runtime.pool(self.rank)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankContext(rank={self.rank})"


class Runtime:
    """Hosts ``num_ranks`` simulated processes with one-sided communication."""

    def __init__(
        self,
        machine: Optional[MachineSpec] = None,
        num_ranks: Optional[int] = None,
        backend: Union[str, Backend] = "sequential",
        keep_traffic_records: bool = True,
        pool_buffers_per_key: int = 16,
    ) -> None:
        if machine is None:
            if num_ranks is None:
                raise ValueError("either a machine spec or num_ranks is required")
            machine = uniform_system(num_ranks)
        if num_ranks is not None and num_ranks != machine.num_devices:
            machine = machine.with_devices(num_ranks)
        self.machine = machine
        self.num_ranks = machine.num_devices
        self.topology = machine.topology
        self.backend = backend if isinstance(backend, Backend) else make_backend(backend)
        self.traffic = TrafficCounter(keep_records=keep_traffic_records)
        self._heaps = [SymmetricHeap(rank) for rank in range(self.num_ranks)]
        self._pools = [MemoryPool(pool_buffers_per_key) for _ in range(self.num_ranks)]
        self._alloc_lock = threading.Lock()
        self._handles: Dict[int, SymmetricHandle] = {}

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #
    def allocate(self, shape: Sequence[int], dtype=np.float32, label: str = "",
                 fill: Optional[float] = 0.0) -> SymmetricHandle:
        """Create a symmetric allocation present on every rank."""
        handle = make_handle(tuple(shape), dtype, label)
        with self._alloc_lock:
            for heap in self._heaps:
                array = np.empty(handle.shape, dtype=handle.dtype)
                if fill is not None:
                    array.fill(fill)
                heap.register(handle, array)
            self._handles[handle.alloc_id] = handle
        return handle

    def allocate_on(self, ranks: Sequence[int], shape: Sequence[int], dtype=np.float32,
                    label: str = "", fill: Optional[float] = 0.0) -> SymmetricHandle:
        """Create an allocation present only on the given ranks.

        Distributed-matrix tiles use this: the tile buffer physically exists
        on its owner rank(s) (one per replica) while any rank may address it
        remotely through one-sided operations.
        """
        handle = make_handle(tuple(shape), dtype, label)
        unique_ranks = sorted(set(int(r) for r in ranks))
        with self._alloc_lock:
            for rank in unique_ranks:
                check_in_range(rank, 0, self.num_ranks, "rank")
                array = np.empty(handle.shape, dtype=handle.dtype)
                if fill is not None:
                    array.fill(fill)
                self._heaps[rank].register(handle, array)
            self._handles[handle.alloc_id] = handle
        return handle

    def free(self, handle: SymmetricHandle) -> None:
        """Release an allocation on every rank that holds it."""
        with self._alloc_lock:
            for heap in self._heaps:
                heap.deregister(handle)
            self._handles.pop(handle.alloc_id, None)

    def holds(self, handle: SymmetricHandle, rank: int) -> bool:
        """True if ``rank`` has local storage for ``handle``."""
        check_in_range(rank, 0, self.num_ranks, "rank")
        return handle in self._heaps[rank]

    def pool(self, rank: int) -> MemoryPool:
        """The memory pool of ``rank``."""
        check_in_range(rank, 0, self.num_ranks, "rank")
        return self._pools[rank]

    # ------------------------------------------------------------------ #
    # local access
    # ------------------------------------------------------------------ #
    def local_view(self, handle: SymmetricHandle, rank: int,
                   rect: Optional[Rect] = None) -> np.ndarray:
        """Return a view (no copy) of a locally held buffer."""
        check_in_range(rank, 0, self.num_ranks, "rank")
        array = self._heaps[rank].array(handle)
        if rect is None:
            return array
        self._check_rect(handle, rect)
        return array[rect.as_slices()]

    # ------------------------------------------------------------------ #
    # one-sided operations
    # ------------------------------------------------------------------ #
    def _check_rect(self, handle: SymmetricHandle, rect: Rect) -> None:
        if len(handle.shape) != 2:
            raise CommunicationError(
                f"rect access requires a 2-D allocation, got shape {handle.shape}"
            )
        full = Rect.full(handle.shape)
        if not full.contains(rect):
            raise CommunicationError(
                f"rect {rect} exceeds allocation bounds {handle.shape}"
            )

    def _resolve(self, handle: SymmetricHandle, target_rank: int,
                 rect: Optional[Rect]) -> np.ndarray:
        check_in_range(target_rank, 0, self.num_ranks, "target_rank")
        array = self._heaps[target_rank].array(handle)
        if rect is None:
            return array
        self._check_rect(handle, rect)
        return array[rect.as_slices()]

    def get(self, handle: SymmetricHandle, target_rank: int, *, initiator: int,
            rect: Optional[Rect] = None, out: Optional[np.ndarray] = None) -> np.ndarray:
        """One-sided read of (a sub-rectangle of) a remote buffer into a local copy."""
        source = self._resolve(handle, target_rank, rect)
        if out is None:
            result = source.copy()
        else:
            if out.shape != source.shape:
                raise CommunicationError(
                    f"output buffer shape {out.shape} does not match source {source.shape}"
                )
            np.copyto(out, source)
            result = out
        self.traffic.record(TransferRecord(GET, initiator, target_rank, source.nbytes,
                                           handle.label))
        return result

    def get_async(self, handle: SymmetricHandle, target_rank: int, *, initiator: int,
                  rect: Optional[Rect] = None) -> Future:
        """Asynchronous one-sided read returning a :class:`Future`.

        If the target is the initiator itself a completed future wrapping a
        *view* is returned with zero modelled cost, mirroring the paper's
        ``tile()`` vs ``get_tile()`` distinction.
        """
        if target_rank == initiator:
            view = self.local_view(handle, initiator, rect=rect)
            future = CompletedFuture(view, description=f"local:{handle.label}")
            future.nbytes = 0
            return future
        data = self.get(handle, target_rank, initiator=initiator, rect=rect)
        future = CompletedFuture(data, description=f"get:{handle.label}@{target_rank}")
        future.nbytes = data.nbytes
        return future

    def put(self, handle: SymmetricHandle, target_rank: int, data: np.ndarray, *,
            initiator: int, rect: Optional[Rect] = None) -> None:
        """One-sided write of a local array into (a sub-rectangle of) a remote buffer."""
        destination = self._resolve(handle, target_rank, rect)
        data = np.asarray(data, dtype=handle.dtype)
        if destination.shape != data.shape:
            raise CommunicationError(
                f"put shape mismatch: destination {destination.shape}, data {data.shape}"
            )
        lock = self._heaps[target_rank].lock(handle)
        with lock:
            np.copyto(destination, data)
        self.traffic.record(TransferRecord(PUT, initiator, target_rank, data.nbytes,
                                           handle.label))

    def accumulate(self, handle: SymmetricHandle, target_rank: int, data: np.ndarray, *,
                   initiator: int, rect: Optional[Rect] = None) -> None:
        """One-sided atomic accumulate (+=) into a remote buffer.

        Under the threaded backend the per-allocation lock makes concurrent
        accumulates from different ranks linearise, mirroring the atomic
        accumulate kernel of the paper's implementation.
        """
        destination = self._resolve(handle, target_rank, rect)
        data = np.asarray(data)
        if destination.shape != data.shape:
            raise CommunicationError(
                f"accumulate shape mismatch: destination {destination.shape}, data {data.shape}"
            )
        lock = self._heaps[target_rank].lock(handle)
        with lock:
            destination += data
        self.traffic.record(TransferRecord(ACCUMULATE, initiator, target_rank, data.nbytes,
                                           handle.label))

    # ------------------------------------------------------------------ #
    # SPMD execution
    # ------------------------------------------------------------------ #
    def run_spmd(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Run ``fn(ctx, *args, **kwargs)`` once per rank and return per-rank results."""
        barrier = self.backend.make_barrier(self.num_ranks)
        contexts = [RankContext(self, rank, barrier) for rank in range(self.num_ranks)]

        def make_call(ctx: RankContext) -> Callable[[], Any]:
            def call() -> Any:
                return fn(ctx, *args, **kwargs)

            return call

        return self.backend.run([make_call(ctx) for ctx in contexts])

    def reset_counters(self) -> None:
        """Clear the traffic counters (allocations are kept)."""
        self.traffic.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Runtime(machine={self.machine.name!r}, num_ranks={self.num_ranks}, "
            f"backend={self.backend.name!r})"
        )
