"""Discrete-event heterogeneous cluster simulator (the paper's testbed)."""

from repro.simulator.cluster import Cluster, LeaseRecord, NodeInstance
from repro.simulator.containers import AcquireTicket, ContainerPool
from repro.simulator.cpu import CPUDevice
from repro.simulator.engine import Event, SimulationError, Simulator
from repro.simulator.gpu import GPUDevice
from repro.simulator.interference import DEFAULT_INTERFERENCE, InterferenceModel
from repro.simulator.job import Job
from repro.simulator.metrics import BatchLog, MetricsCollector
from repro.simulator.power import Bill, bill, node_energy_joules

__all__ = [
    "AcquireTicket", "BatchLog", "Bill", "CPUDevice", "Cluster",
    "ContainerPool", "DEFAULT_INTERFERENCE", "Event", "GPUDevice",
    "InterferenceModel", "Job", "LeaseRecord", "MetricsCollector",
    "NodeInstance", "SimulationError", "Simulator", "bill",
    "node_energy_joules",
]
