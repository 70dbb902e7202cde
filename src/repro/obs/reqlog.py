"""Append-only serving telemetry log: size-rotated JSONL, crash-safe appends.

Every served planning request becomes one JSON line (a
:class:`RequestRecord`): which signature, hit or miss or coalesced, how old
the served plan was, where the latency went, which worker answered, and the
trace id tying the line to a recorded trace.  This is the raw stream the
ROADMAP's telemetry-driven adaptive planning consumes — the rollup pass
(:mod:`repro.obs.rollup`) compacts it into per-signature aggregates that
feed eviction weighting.

Durability model:

* **line-atomic appends** — each record is written as ONE ``os.write`` to a
  descriptor opened ``O_APPEND``; POSIX appends of this size are atomic, so
  a crash can truncate only the final line, never interleave two;
* **size rotation** — when the active file would exceed ``max_bytes`` the
  log rotates (``log.jsonl`` -> ``log.jsonl.1`` -> ``.2`` ...), keeping at
  most ``max_files`` rotated generations;
* **tolerant reads** — :func:`iter_records` skips undecodable lines (the
  truncated tail a crash leaves behind) instead of failing the whole replay.

One writer per file: in a pre-forked fleet each worker owns
``requests-<worker>.jsonl`` in a shared directory, and the rollup pass reads
the whole directory.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Union

#: Default rotation threshold for one log file, in bytes.
DEFAULT_MAX_BYTES = 16 << 20

#: Default number of rotated generations kept next to the active file.
DEFAULT_MAX_FILES = 4


@dataclass
class RequestRecord:
    """One served request, as logged (see module docs for the lifecycle)."""

    #: Wall-clock epoch seconds when the request finished.
    ts: float
    #: The canonical signature key the request mapped to (cache identity).
    signature: str
    #: The requesting workload's name (human-readable context).
    workload: str
    #: ``"hit"`` (plan cache), ``"stale"`` (expired-but-in-grace cache entry
    #: served while a background refresh recomputes it), ``"computed"`` (ran
    #: the search), or ``"coalesced"`` (waited on an identical in-flight
    #: computation).
    outcome: str
    #: Age in seconds of the served plan at serve time (0.0 when computed).
    plan_age: float
    #: End-to-end serving latency in seconds.
    latency: float
    #: Per-phase seconds for computed plans (opgen/bound/refine/simulate);
    #: empty for hits and coalesced waits.
    phases: Dict[str, float] = field(default_factory=dict)
    #: Index of the serving worker (-1 for in-process services).
    worker: int = -1
    #: OS pid of the serving process.
    pid: int = 0
    #: Trace id of the request, when tracing was active.
    trace_id: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (one log line's payload)."""
        return {
            "ts": self.ts, "signature": self.signature,
            "workload": self.workload, "outcome": self.outcome,
            "plan_age": self.plan_age, "latency": self.latency,
            "phases": self.phases, "worker": self.worker, "pid": self.pid,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RequestRecord":
        """Rebuild a record from :meth:`to_dict` output (tolerant of extras)."""
        trace_id = payload.get("trace_id")
        return cls(
            ts=float(payload.get("ts", 0.0)),  # type: ignore[arg-type]
            signature=str(payload.get("signature", "")),
            workload=str(payload.get("workload", "")),
            outcome=str(payload.get("outcome", "")),
            plan_age=float(payload.get("plan_age", 0.0)),  # type: ignore[arg-type]
            latency=float(payload.get("latency", 0.0)),  # type: ignore[arg-type]
            phases={str(k): float(v) for k, v in  # type: ignore[union-attr]
                    (payload.get("phases") or {}).items()},  # type: ignore[union-attr]
            worker=int(payload.get("worker", -1)),  # type: ignore[arg-type]
            pid=int(payload.get("pid", 0)),  # type: ignore[arg-type]
            trace_id=str(trace_id) if trace_id is not None else None,
        )


class RequestLog:
    """Appender for one request-log file (thread-safe, size-rotated).

    Args:
        path: the active log file (created on first append; parent
            directories are created too).
        max_bytes: rotation threshold — an append that would push the active
            file past this rotates first.
        max_files: how many rotated generations (``path.1`` .. ``path.N``)
            survive; older generations are unlinked at rotation.
    """

    def __init__(self, path: str, *, max_bytes: int = DEFAULT_MAX_BYTES,
                 max_files: int = DEFAULT_MAX_FILES) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_files < 0:
            raise ValueError(f"max_files must be >= 0, got {max_files}")
        self.path = path
        self.max_bytes = max_bytes
        self.max_files = max_files
        self._fd: Optional[int] = None
        self._size = 0
        self._lock = threading.Lock()
        self._records_written = 0

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def _open(self) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._fd = os.open(self.path,
                           os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        self._size = os.fstat(self._fd).st_size
        if self._size > 0:
            # Seal a torn tail left by a crash mid-append: without the
            # newline, the next append would concatenate onto the partial
            # line and corrupt a good record along with the torn one.
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                last = handle.read(1)
            if last != b"\n":
                os.write(self._fd, b"\n")
                self._size += 1

    def _rotate(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self.max_files == 0:
            # No generations kept: truncate by replacing the active file.
            try:
                os.unlink(self.path)
            except OSError:
                pass
        else:
            oldest = f"{self.path}.{self.max_files}"
            try:
                os.unlink(oldest)
            except OSError:
                pass
            for index in range(self.max_files - 1, 0, -1):
                source = f"{self.path}.{index}"
                if os.path.exists(source):
                    os.replace(source, f"{self.path}.{index + 1}")
            if os.path.exists(self.path):
                os.replace(self.path, f"{self.path}.1")
        self._open()

    def append(self, record: RequestRecord) -> None:
        """Write one record as a single atomic line (rotating if needed)."""
        line = (json.dumps(record.to_dict(), separators=(",", ":")) + "\n"
                ).encode("utf-8")
        with self._lock:
            if self._fd is None:
                self._open()
            if self._size > 0 and self._size + len(line) > self.max_bytes:
                self._rotate()
            os.write(self._fd, line)  # type: ignore[arg-type]
            self._size += len(line)
            self._records_written += 1

    @property
    def records_written(self) -> int:
        """How many records this appender has written (lifetime)."""
        with self._lock:
            return self._records_written

    def close(self) -> None:
        """Close the file descriptor (idempotent; appends reopen)."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "RequestLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# reading
# ---------------------------------------------------------------------- #
def generations(path: str) -> List[str]:
    """Every existing file of one log, oldest first (``.N`` .. ``.1``, active)."""
    found: List[str] = []
    index = 1
    while os.path.exists(f"{path}.{index}"):
        found.append(f"{path}.{index}")
        index += 1
    found.reverse()
    if os.path.exists(path):
        found.append(path)
    return found


def discover_logs(target: Union[str, Sequence[str]]) -> List[str]:
    """Resolve a directory / file / list of either into readable log files.

    A directory contributes every ``*.jsonl`` file in it (plus rotated
    generations, oldest first); a file contributes its generations.
    """
    if isinstance(target, str):
        targets: Sequence[str] = [target]
    else:
        targets = target
    resolved: List[str] = []
    for item in targets:
        if os.path.isdir(item):
            actives = sorted(
                os.path.join(item, name) for name in os.listdir(item)
                if name.endswith(".jsonl"))
            for active in actives:
                resolved.extend(generations(active))
        else:
            resolved.extend(generations(item))
    # generations() already returns existing files; de-dup, keep order.
    seen: set = set()
    unique = []
    for path in resolved:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def iter_records(target: Union[str, Sequence[str]]) -> Iterator[RequestRecord]:
    """Replay every record from a log file / directory / list of either.

    Undecodable lines — the torn tail a crash can leave, or foreign junk —
    are skipped: a telemetry replay must survive the failure modes the log
    is meant to diagnose.
    """
    for path in discover_logs(target):
        try:
            handle = open(path, "rb")
        except OSError:
            continue
        with handle:
            for raw in handle:
                line = raw.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    continue
                if not isinstance(payload, dict):
                    continue
                try:
                    yield RequestRecord.from_dict(payload)
                except (TypeError, ValueError):
                    continue
