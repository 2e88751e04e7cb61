"""Execution runtime: simulated MPI, fault injection, the network
timing model, and the distributed stencil executor."""

from .simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    CartComm,
    Communicator,
    RankCrashedError,
    Request,
    SimMPIError,
    SimMPITimeout,
    run_ranks,
)
from .faults import FaultInjector, FaultSpec, parse_fault_spec
from .network import NetworkModel, ScalePoint, scaling_run
from .topology import ExchangeLoad, Topology, fat_tree, route_exchange, torus
from .executor import DistributedStencil, UnsupportedRun, distributed_run

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "CartComm", "Communicator", "Request",
    "RankCrashedError", "SimMPIError", "SimMPITimeout", "run_ranks",
    "FaultInjector", "FaultSpec", "parse_fault_spec",
    "NetworkModel", "ScalePoint", "scaling_run",
    "ExchangeLoad", "Topology", "fat_tree", "route_exchange", "torus",
    "DistributedStencil", "UnsupportedRun", "distributed_run",
]
