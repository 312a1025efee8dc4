"""Hardware catalog: the worker-node shapes from Table II of the paper.

The paper's 6-worker cluster spans three GPU generations (V100, K80, M60)
and three CPU shapes (two IceLake c6i sizes and a Broadwell m4).  Each entry
carries the attributes the scheduler and the simulator need:

* pricing (AWS on-demand, $/hour — the cost metric of Section VI-A2),
* a *throughput speed factor* relative to the V100 (calibrated from public
  inference benchmarks; see ``repro.hardware.profiles``),
* GPU memory capacity (bounds how many batches can co-reside under MPS),
* memory bandwidth (drives the per-GPU Fractional Bandwidth Requirement),
* power draw (Fig 7b) and cold-start/provisioning latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "HardwareKind",
    "HardwareSpec",
    "HardwareCatalog",
    "TABLE_II",
    "default_catalog",
]


class HardwareKind:
    """Node classes: GPU-accelerated or CPU-only."""

    GPU = "gpu"
    CPU = "cpu"


@dataclass(frozen=True)
class HardwareSpec:
    """A worker-node hardware configuration.

    Attributes
    ----------
    name:
        AWS instance name (the paper identifies nodes by instance type).
    kind:
        ``HardwareKind.GPU`` or ``HardwareKind.CPU``.
    device:
        Human-readable primary compute device (e.g. ``NVIDIA V100``).
    price_per_hour:
        On-demand price in $/h (Table II).
    memory_gb:
        GPU memory for GPU nodes, host memory for CPU nodes (Table II).
    vcpus:
        Host vCPU count (drives CPU-node parallelism and Table III
        contention).
    speed_factor:
        Inference throughput relative to the V100 (1.0).  Used by the
        profile tables to derive solo latencies on every node from a single
        per-model V100 anchor.
    mem_bandwidth_gbps:
        Device memory bandwidth; the per-GPU FBR of a model scales with the
        ratio of demanded to available bandwidth.
    idle_watts / peak_watts:
        Node power draw when idle / fully busy (Fig 7b's power model).
    cold_start_seconds:
        Container cold start on this node (GPU images are heavier).
    provision_seconds:
        Time to acquire the node (VM launch) during reconfiguration.
    cpu_lanes:
        For CPU nodes: how many batches can execute concurrently
        (vCPUs / cores-per-container).
    perf_rank:
        Total ordering from most to least performant (0 = most performant).
        Note the M60 (Maxwell) outranks the K80 (Kepler) for inference
        despite the lower price — Table II is sorted by price, not speed.
        Used by the failure-handling policy ("switch to the more performant
        hardware with the least cost").
    """

    name: str
    kind: str
    device: str
    price_per_hour: float
    memory_gb: float
    vcpus: int
    speed_factor: float
    mem_bandwidth_gbps: float
    idle_watts: float
    peak_watts: float
    cold_start_seconds: float
    provision_seconds: float
    cpu_lanes: int = 1
    perf_rank: int = 0
    #: ``kind == HardwareKind.GPU``, derived once at construction (the
    #: dispatcher and the devices read it per batch).
    is_gpu: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_gpu", self.kind == HardwareKind.GPU)

    @property
    def price_per_second(self) -> float:
        return self.price_per_hour / 3600.0

    def __str__(self) -> str:
        return f"{self.name} ({self.device})"


#: Table II of the paper, augmented with simulator parameters.
#:
#: Speed factors are anchored to published ResNet-class inference
#: throughput ratios: V100 ~ 2.5x M60, ~ 3.6x K80; a 16-vCPU IceLake is
#: ~20x slower than a V100 for batched vision inference and the 2-vCPU
#: Broadwell ~120x.  Bandwidths are the devices' public specs (V100 900
#: GB/s HBM2, K80 240 GB/s per GK210, M60 160 GB/s per GM204; CPU nodes
#: get their DDR4 channel bandwidth, which the GPU FBR model never uses).
TABLE_II: tuple[HardwareSpec, ...] = (
    HardwareSpec(
        name="p3.2xlarge",
        kind=HardwareKind.GPU,
        device="NVIDIA V100",
        price_per_hour=3.06,
        memory_gb=16.0,
        vcpus=8,
        speed_factor=1.00,
        mem_bandwidth_gbps=900.0,
        idle_watts=140.0,
        peak_watts=420.0,
        cold_start_seconds=2.5,
        provision_seconds=3.0,
        perf_rank=0,
    ),
    HardwareSpec(
        name="p2.xlarge",
        kind=HardwareKind.GPU,
        device="NVIDIA K80",
        price_per_hour=0.90,
        memory_gb=12.0,
        vcpus=4,
        speed_factor=0.28,
        mem_bandwidth_gbps=240.0,
        idle_watts=110.0,
        peak_watts=300.0,
        cold_start_seconds=2.5,
        provision_seconds=3.0,
        perf_rank=2,
    ),
    HardwareSpec(
        name="g3s.xlarge",
        kind=HardwareKind.GPU,
        device="NVIDIA M60",
        price_per_hour=0.75,
        memory_gb=8.0,
        vcpus=4,
        speed_factor=0.40,
        mem_bandwidth_gbps=160.0,
        idle_watts=80.0,
        peak_watts=220.0,
        cold_start_seconds=2.5,
        provision_seconds=3.0,
        perf_rank=1,
    ),
    HardwareSpec(
        name="c6i.4xlarge",
        kind=HardwareKind.CPU,
        device="Intel IceLake CPU, 16 vCPUs",
        price_per_hour=0.68,
        memory_gb=32.0,
        vcpus=16,
        speed_factor=0.052,
        mem_bandwidth_gbps=80.0,
        idle_watts=40.0,
        peak_watts=130.0,
        cold_start_seconds=2.5,
        provision_seconds=2.0,
        cpu_lanes=4,
        perf_rank=3,
    ),
    HardwareSpec(
        name="c6i.2xlarge",
        kind=HardwareKind.CPU,
        device="Intel IceLake CPU, 8 vCPUs",
        price_per_hour=0.34,
        memory_gb=16.0,
        vcpus=8,
        speed_factor=0.029,
        mem_bandwidth_gbps=60.0,
        idle_watts=30.0,
        peak_watts=90.0,
        cold_start_seconds=2.5,
        provision_seconds=2.0,
        cpu_lanes=2,
        perf_rank=4,
    ),
    HardwareSpec(
        name="m4.xlarge",
        kind=HardwareKind.CPU,
        device="Intel Broadwell CPU, 2 vCPUs",
        price_per_hour=0.20,
        memory_gb=8.0,
        vcpus=2,
        speed_factor=0.020,
        mem_bandwidth_gbps=30.0,
        idle_watts=20.0,
        peak_watts=60.0,
        cold_start_seconds=2.5,
        provision_seconds=2.0,
        cpu_lanes=1,
        perf_rank=5,
    ),
)


class HardwareCatalog:
    """A queryable set of hardware configurations.

    The catalog is what the Hardware Selection module's ``get_HW_pool``
    consults: it can list nodes by kind, sort them by cost, and resolve by
    name.  Experiments may build restricted catalogs (e.g. the motivation
    study uses only the M60 and V100).
    """

    def __init__(self, specs: Iterable[HardwareSpec] = TABLE_II) -> None:
        self._specs: dict[str, HardwareSpec] = {}
        for spec in specs:
            if spec.name in self._specs:
                raise ValueError(f"duplicate hardware name {spec.name!r}")
            self._specs[spec.name] = spec
        if not self._specs:
            raise ValueError("catalog must contain at least one node type")

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self):
        return iter(self._specs.values())

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def get(self, name: str) -> HardwareSpec:
        """Resolve a spec by instance name; raises ``KeyError`` if absent."""
        return self._specs[name]

    def names(self) -> list[str]:
        return list(self._specs)

    def gpus(self) -> list[HardwareSpec]:
        """GPU nodes, cheapest first."""
        return sorted(
            (s for s in self._specs.values() if s.is_gpu),
            key=lambda s: s.price_per_hour,
        )

    def by_cost(self) -> list[HardwareSpec]:
        """All nodes sorted by ascending hourly price (Algorithm 1's
        ``sort_by_cost_ascending``)."""
        return sorted(self._specs.values(), key=lambda s: s.price_per_hour)

    def most_performant_gpu(self) -> HardwareSpec:
        """The brawniest GPU (the paper's V100), used by (P) baselines."""
        gpus = self.gpus()
        if not gpus:
            raise ValueError("catalog has no GPU nodes")
        return min(gpus, key=lambda s: s.perf_rank)

    def restricted(self, names: Iterable[str]) -> "HardwareCatalog":
        """A sub-catalog containing only ``names`` (order preserved)."""
        return HardwareCatalog([self._specs[n] for n in names])


def default_catalog() -> HardwareCatalog:
    """The paper's Table II cluster."""
    return HardwareCatalog(TABLE_II)
