"""The optimized IR with explicit communication (paper Section 4.3).

An IR program is a sequence of :class:`IRStep` objects per rank.  Each step
bundles zero or more compute operations with zero or more communication
operations that execute concurrently; the step completes when the slower of
the two finishes, and communication performed in a step satisfies its data
dependencies for *subsequent* steps — exactly the structure described in the
paper ("The output IR ops consist of a list of zero or more compute
operations and zero or more communication operations ...").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.graph import DataKey


@dataclass(frozen=True, slots=True)
class IRCommOp:
    """One communication operation: fetch a (remote) tile into local memory."""

    data: DataKey
    owner: int
    nbytes: int
    #: Modelled duration of the fetch.
    seconds: float


@dataclass(frozen=True, slots=True)
class IRComputeOp:
    """One compute operation: execute op ``op_index`` of the rank's op list."""

    op_index: int


@dataclass
class IRStep:
    """One output IR op: concurrent communication and computation."""

    computes: List[IRComputeOp] = field(default_factory=list)
    comms: List[IRCommOp] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True when the step neither computes nor communicates."""
        return not self.computes and not self.comms


@dataclass
class IRProgram:
    """The schedule for a single rank."""

    rank: int
    steps: List[IRStep] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        """Steps in the program."""
        return len(self.steps)

    def compute_indices(self) -> List[int]:
        """All scheduled op indices in execution order (used by validity checks)."""
        return [op.op_index for step in self.steps for op in step.computes]

    def comm_keys(self) -> List[DataKey]:
        """The data key of every communication, in step order."""
        return [comm.data for step in self.steps for comm in step.comms]

    def validate(self, num_ops: int) -> None:
        """Check that every op is scheduled exactly once and comms precede their use."""
        scheduled = self.compute_indices()
        if sorted(scheduled) != list(range(num_ops)):
            raise ValueError(
                f"IR program for rank {self.rank} schedules ops {sorted(scheduled)} "
                f"but the op list has {num_ops} ops"
            )
        if len(set(self.comm_keys())) != len(self.comm_keys()):
            raise ValueError(f"IR program for rank {self.rank} fetches a tile twice")
