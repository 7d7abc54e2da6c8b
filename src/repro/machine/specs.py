"""Node and machine specifications.

A :class:`MachineSpec` bundles the three models the cost layer needs:
compute (per-core rates), network (:class:`~repro.machine.gemini.GeminiNetwork`)
and storage (:class:`~repro.machine.lustre.LustreModel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.machine.gemini import GeminiNetwork
from repro.machine.lustre import LustreModel
from repro.util.units import GB, TB


@dataclass(frozen=True)
class NodeSpec:
    """A single compute node."""

    cores: int
    memory_bytes: int
    #: Sustained double-precision rate per core used for flop-class costing.
    core_gflops: float

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if self.core_gflops <= 0:
            raise ValueError("core_gflops must be positive")


@dataclass(frozen=True)
class MachineSpec:
    """A full system: nodes + interconnect + parallel filesystem."""

    name: str
    n_nodes: int
    node: NodeSpec
    network: GeminiNetwork = field(default_factory=GeminiNetwork)
    filesystem: LustreModel = field(default_factory=LustreModel)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.node.cores

    def validate_allocation(self, n_cores: int) -> None:
        """Raise if an allocation request exceeds the machine."""
        if n_cores < 1:
            raise ValueError(f"allocation must be >= 1 core, got {n_cores}")
        if n_cores > self.total_cores:
            raise ValueError(
                f"allocation of {n_cores} cores exceeds {self.name}'s "
                f"{self.total_cores} cores"
            )


def jaguar_xk6() -> MachineSpec:
    """The paper's testbed: Jaguar XK6 at ORNL.

    18,688 nodes, one 16-core AMD Opteron 6200 per node, Gemini interconnect,
    600 TB total memory (= 32 GB/node), Lustre ("Spider") storage.
    """
    return MachineSpec(
        name="Jaguar-XK6",
        n_nodes=18688,
        node=NodeSpec(cores=16, memory_bytes=32 * GB, core_gflops=9.2),
        network=GeminiNetwork(),
        filesystem=LustreModel(),
    )


# Sanity constant used in docs/tests: Jaguar's total memory as reported.
JAGUAR_TOTAL_MEMORY_BYTES = 18688 * 32 * GB
assert JAGUAR_TOTAL_MEMORY_BYTES // TB == 584  # ~600 TB as reported in §V


def machine_fingerprint(spec: MachineSpec) -> dict[str, Any]:
    """The modeled machine reduced to the fields that pin the cost model.

    Deliberately excludes anything host-specific: two machines replaying
    the same modeled system must produce identical fingerprints, so the
    deterministic metrics stay comparable across laptops and CI.
    """
    return {
        "name": spec.name,
        "n_nodes": spec.n_nodes,
        "cores_per_node": spec.node.cores,
        "node_memory_bytes": spec.node.memory_bytes,
        "core_gflops": spec.node.core_gflops,
    }
