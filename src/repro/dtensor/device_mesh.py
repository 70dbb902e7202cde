"""Device meshes for the DTensor-like comparator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.cost_model import CostModel
from repro.topology.machines import MachineSpec
from repro.util.validation import check_positive_int


@dataclass
class DeviceMesh:
    """A 1-D arrangement of devices participating in SPMD execution.

    The paper's DTensor experiments use 1-D shardings (row / column); it also
    notes that DTensor could not run its 2-D partitionings because the packed
    collectives they require are not available from all vendor backends.  To
    keep the comparator behaviourally faithful, this mesh is 1-D only.
    """

    machine: MachineSpec
    ranks: Optional[Sequence[int]] = None
    _ranks: List[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.ranks is None:
            self._ranks = list(range(self.machine.num_devices))
        else:
            self._ranks = [int(r) for r in self.ranks]
            for rank in self._ranks:
                if not 0 <= rank < self.machine.num_devices:
                    raise ValueError(
                        f"mesh rank {rank} out of range for machine with "
                        f"{self.machine.num_devices} devices"
                    )
        check_positive_int(len(self._ranks), "mesh size")

    @property
    def size(self) -> int:
        return len(self._ranks)

    @property
    def device_ranks(self) -> List[int]:
        return list(self._ranks)

    def cost_model(self) -> CostModel:
        return CostModel(self.machine)

    def __iter__(self):
        return iter(self._ranks)
