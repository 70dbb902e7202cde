"""Communication-traffic accounting.

Every one-sided operation executed through the runtime is recorded here, so
that tests can assert communication-volume properties (for example, that a
column-block MLP-1 multiply only moves the A matrix, or that replication
reduces the bytes fetched per rank) and so the benchmark harness can report
communication volumes alongside percent-of-peak.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

GET = "get"
PUT = "put"
ACCUMULATE = "accumulate"

KINDS = (GET, PUT, ACCUMULATE)


@dataclass(frozen=True, slots=True)
class TransferRecord:
    """One one-sided transfer: who initiated it, where the data lives, its size."""

    kind: str
    initiator: int
    target: int
    nbytes: int
    label: str = ""

    @property
    def is_local(self) -> bool:
        """Whether the initiator is the target."""
        return self.initiator == self.target


class TrafficCounter:
    """Thread-safe accumulator of :class:`TransferRecord` entries."""

    def __init__(self, keep_records: bool = True) -> None:
        self._lock = threading.Lock()
        self._keep = keep_records
        self._records: List[TransferRecord] = []
        self._bytes_by_kind: Dict[str, int] = {kind: 0 for kind in KINDS}
        self._count_by_kind: Dict[str, int] = {kind: 0 for kind in KINDS}
        self._remote_bytes_by_kind: Dict[str, int] = {kind: 0 for kind in KINDS}
        self._bytes_by_initiator: Dict[int, int] = {}

    def record(self, record: TransferRecord) -> None:
        """Count one transfer (and keep it, if records are kept)."""
        if record.kind not in KINDS:
            raise ValueError(f"unknown transfer kind {record.kind!r}")
        with self._lock:
            if self._keep:
                self._records.append(record)
            self._bytes_by_kind[record.kind] += record.nbytes
            self._count_by_kind[record.kind] += 1
            if not record.is_local:
                self._remote_bytes_by_kind[record.kind] += record.nbytes
            self._bytes_by_initiator[record.initiator] = (
                self._bytes_by_initiator.get(record.initiator, 0) + record.nbytes
            )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def records(self) -> List[TransferRecord]:
        """A copy of the kept transfer records."""
        with self._lock:
            return list(self._records)

    def total_bytes(self, kind: Optional[str] = None, remote_only: bool = False) -> int:
        """Bytes moved, of one ``kind`` or all, optionally remote only."""
        with self._lock:
            source = self._remote_bytes_by_kind if remote_only else self._bytes_by_kind
            if kind is None:
                return sum(source.values())
            return source.get(kind, 0)

    def operation_count(self, kind: Optional[str] = None) -> int:
        """Transfers counted, of one ``kind`` or all."""
        with self._lock:
            if kind is None:
                return sum(self._count_by_kind.values())
            return self._count_by_kind.get(kind, 0)

    def bytes_by_initiator(self) -> Dict[int, int]:
        """Bytes moved per initiating rank."""
        with self._lock:
            return dict(self._bytes_by_initiator)

    def remote_bytes(self) -> int:
        """Bytes moved between distinct ranks."""
        return self.total_bytes(remote_only=True)

    def reset(self) -> None:
        """Clear every counter and kept record."""
        with self._lock:
            self._records.clear()
            for kind in KINDS:
                self._bytes_by_kind[kind] = 0
                self._count_by_kind[kind] = 0
                self._remote_bytes_by_kind[kind] = 0
            self._bytes_by_initiator.clear()

    def summary(self) -> Dict[str, int]:
        """Flat dict suitable for printing in benchmark reports."""
        with self._lock:
            out = {}
            for kind in KINDS:
                out[f"{kind}_bytes"] = self._bytes_by_kind[kind]
                out[f"{kind}_remote_bytes"] = self._remote_bytes_by_kind[kind]
                out[f"{kind}_count"] = self._count_by_kind[kind]
            out["total_bytes"] = sum(self._bytes_by_kind.values())
            out["total_remote_bytes"] = sum(self._remote_bytes_by_kind.values())
            return out
