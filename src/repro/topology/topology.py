"""Interconnect topology: per-pair link lookup and transfer-time estimation."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.topology.links import Link, LinkKind
from repro.util.validation import check_positive_int


class Topology:
    """Bandwidth/latency model between ``num_devices`` devices.

    A topology is a dense map from ordered device pairs to :class:`Link`
    objects.  Local (same-device) accesses use a dedicated "self" link whose
    bandwidth is the device's memory bandwidth, so that even local tile copies
    have a non-zero modelled cost.

    The class is intentionally backend-agnostic: the PGAS runtime asks it for
    transfer times, and the cost model asks it for bandwidths when estimating
    schedules.
    """

    def __init__(
        self,
        num_devices: int,
        default_link: Link,
        self_link: Link,
        overrides: Optional[Dict[Tuple[int, int], Link]] = None,
    ) -> None:
        self.num_devices = check_positive_int(num_devices, "num_devices")
        self._default_link = default_link
        self._self_link = self_link
        self._links: Dict[Tuple[int, int], Link] = dict(overrides or {})
        for (src, dst) in self._links:
            self._check_device(src)
            self._check_device(dst)
        self._pair_tables: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def uniform(
        cls,
        num_devices: int,
        link_bandwidth: float,
        link_latency: float = 2.0e-6,
        self_bandwidth: float = 1.0e12,
        self_latency: float = 1.0e-7,
    ) -> "Topology":
        """All-to-all topology with identical links between distinct devices."""
        default = Link(link_bandwidth, link_latency, LinkKind.INTRA_NODE)
        self_link = Link(self_bandwidth, self_latency, LinkKind.SELF)
        return cls(num_devices, default, self_link)

    @classmethod
    def from_function(
        cls,
        num_devices: int,
        link_fn: Callable[[int, int], Link],
        self_link: Optional[Link] = None,
    ) -> "Topology":
        """Build a topology by evaluating ``link_fn`` on every ordered pair."""
        overrides: Dict[Tuple[int, int], Link] = {}
        default = None
        for src in range(num_devices):
            for dst in range(num_devices):
                if src == dst:
                    continue
                link = link_fn(src, dst)
                overrides[(src, dst)] = link
                default = default or link
        if default is None:
            default = Link(1.0e12, 0.0, LinkKind.SELF)
        if self_link is None:
            self_link = Link(1.0e12, 1.0e-7, LinkKind.SELF)
        return cls(num_devices, default, self_link, overrides)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.num_devices:
            raise ValueError(
                f"device {device} out of range for topology with "
                f"{self.num_devices} devices"
            )

    def link(self, src: int, dst: int) -> Link:
        """Return the link used for transfers from ``src`` to ``dst``."""
        self._check_device(src)
        self._check_device(dst)
        if src == dst:
            return self._self_link
        return self._links.get((src, dst), self._default_link)

    def bandwidth(self, src: int, dst: int) -> float:
        """Unidirectional bandwidth in bytes/s between two devices."""
        return self.link(src, dst).bandwidth

    def latency(self, src: int, dst: int) -> float:
        """One-way latency in seconds between two devices."""
        return self.link(src, dst).latency

    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Modelled time to move ``nbytes`` from ``src`` to ``dst``."""
        return self.link(src, dst).transfer_time(nbytes)

    def pair_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(latency, bandwidth)`` arrays indexed ``[src, dst]``, built once."""
        if self._pair_tables is None:
            devices = range(self.num_devices)
            links = [[self.link(src, dst) for dst in devices] for src in devices]
            tables = tuple(np.array([[getattr(link, name) for link in row] for row in links],
                                    dtype=np.float64)
                           for name in ("latency", "bandwidth"))
            for table in tables:
                table.setflags(write=False)
            self._pair_tables = tables
        return self._pair_tables

    def is_local(self, src: int, dst: int) -> bool:
        """Whether a transfer from ``src`` to ``dst`` stays on one device."""
        return src == dst

    def min_remote_bandwidth(self) -> float:
        """Slowest link bandwidth between distinct devices (bottleneck tier)."""
        if self.num_devices == 1:
            return self._self_link.bandwidth
        candidates = [self._default_link.bandwidth]
        candidates.extend(link.bandwidth for link in self._links.values())
        return min(candidates)

    def max_remote_bandwidth(self) -> float:
        """Fastest link bandwidth between distinct devices."""
        if self.num_devices == 1:
            return self._self_link.bandwidth
        candidates = [self._default_link.bandwidth]
        candidates.extend(link.bandwidth for link in self._links.values())
        return max(candidates)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(num_devices={self.num_devices}, "
            f"default={self._default_link!r})"
        )
