"""Graph-based interconnect topologies (networkx).

The closed-form :class:`~repro.runtime.network.NetworkModel` captures
endpoint and bisection limits with two constants; this module builds
the *actual* interconnect graph — fat trees and tori — routes every
halo message along shortest paths, and reports per-link loads.  It
serves two purposes:

- validating the closed-form model's congestion constants (the max
  link load over a full exchange wavefront is the quantity
  ``bisection_GBs`` abstracts), and
- supporting the paper's claim that the communication library "enables
  easy adaption to supercomputers or large clusters installed with
  exotic network topologies": a topology is just a graph + placement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..comm.decomposition import decompose
from ..ir.stencil import Stencil

if TYPE_CHECKING:
    import networkx as nx

# networkx (~290 modules, ~16 MiB resident) is imported by the three
# functions that build or route on a graph, not with the package:
# `import repro.runtime` / `repro.evalsuite` must not charge every
# process that never asks for a topology

__all__ = [
    "Topology",
    "fat_tree",
    "torus",
    "route_exchange",
    "ExchangeLoad",
]


@dataclass(frozen=True)
class Topology:
    """An interconnect graph plus a rank→node placement.

    Nodes carry a ``kind`` attribute (``"host"`` or ``"switch"``);
    ranks are placed on hosts round-robin in rank order (the default
    scheduler placement).
    """

    graph: "nx.Graph"
    hosts: Tuple[str, ...]
    link_bw_GBs: float

    def host_of(self, rank: int) -> str:
        return self.hosts[rank % len(self.hosts)]

    @property
    def nswitches(self) -> int:
        return sum(
            1 for _, d in self.graph.nodes(data=True)
            if d.get("kind") == "switch"
        )


def fat_tree(nhosts: int, radix: int = 8,
             link_bw_GBs: float = 8.0,
             up_ratio: float = 1.0) -> Topology:
    """A two-level fat tree: leaf switches of ``radix`` hosts, one core
    layer.  ``up_ratio`` < 1 models over-subscription (fewer uplinks
    than downlinks — the cheap-cluster configuration that congests).
    """
    if nhosts < 1:
        raise ValueError("nhosts must be >= 1")
    import networkx as nx

    graph = nx.Graph()
    hosts: List[str] = []
    nleaf = -(-nhosts // radix)
    nup = max(1, int(radix * up_ratio / 2))
    ncore = max(1, nup)
    for c in range(ncore):
        graph.add_node(f"core{c}", kind="switch")
    for leaf in range(nleaf):
        lname = f"leaf{leaf}"
        graph.add_node(lname, kind="switch")
        for c in range(ncore):
            graph.add_edge(lname, f"core{c}")
        for h in range(radix):
            idx = leaf * radix + h
            if idx >= nhosts:
                break
            hname = f"host{idx}"
            graph.add_node(hname, kind="host")
            graph.add_edge(hname, lname)
            hosts.append(hname)
    return Topology(graph, tuple(hosts), link_bw_GBs)


def torus(dims: Sequence[int], link_bw_GBs: float = 8.0) -> Topology:
    """A k-ary n-dimensional torus of hosts (no separate switches)."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"invalid torus dims {dims}")
    import networkx as nx

    graph = nx.Graph()
    hosts: List[str] = []
    coords = list(itertools.product(*(range(d) for d in dims)))
    name = {c: "t" + "_".join(map(str, c)) for c in coords}
    for c in coords:
        graph.add_node(name[c], kind="host")
        hosts.append(name[c])
    for c in coords:
        for d in range(len(dims)):
            nb = list(c)
            nb[d] = (nb[d] + 1) % dims[d]
            if dims[d] > 1:
                graph.add_edge(name[c], name[tuple(nb)])
    return Topology(graph, tuple(hosts), link_bw_GBs)


@dataclass(frozen=True)
class ExchangeLoad:
    """Per-link loads of one full halo-exchange wavefront."""

    link_bytes: Dict[Tuple[str, str], float]
    total_bytes: int
    max_link_bytes: float
    link_bw_GBs: float

    @property
    def congestion_time_s(self) -> float:
        """Serialisation time of the hottest link."""
        return self.max_link_bytes / (self.link_bw_GBs * 1e9)

    @property
    def mean_link_bytes(self) -> float:
        if not self.link_bytes:
            return 0.0
        return self.total_bytes_on_links / len(self.link_bytes)

    @property
    def total_bytes_on_links(self) -> int:
        return sum(self.link_bytes.values())

    @property
    def hotspot_factor(self) -> float:
        """max/mean link load — 1.0 means perfectly spread traffic."""
        mean = self.mean_link_bytes
        return self.max_link_bytes / mean if mean else 0.0


def route_exchange(stencil: Stencil, grid: Sequence[int],
                   topology: Topology,
                   periodic: bool = True) -> ExchangeLoad:
    """Route one timestep's halo exchange over the topology.

    Every process sends each neighbour its face bytes; message bytes
    are split evenly over all shortest paths (ECMP routing).  Returns
    the per-link byte loads.
    """
    import networkx as nx

    grid = tuple(int(g) for g in grid)
    nprocs = 1
    for g in grid:
        nprocs *= g
    if nprocs > len(topology.hosts):
        raise ValueError(
            f"{nprocs} ranks need more hosts than the topology's "
            f"{len(topology.hosts)}"
        )
    subdomains = decompose(stencil.output.shape, grid)
    elem = stencil.output.dtype.nbytes
    rad = stencil.radius
    ndim = len(grid)

    link_bytes: Dict[Tuple[str, str], float] = {}
    total = 0
    path_cache: Dict[Tuple[str, str], List[List[str]]] = {}

    def add(src_host: str, dst_host: str, nbytes: int) -> None:
        """ECMP routing: bytes split evenly over all shortest paths."""
        nonlocal total
        total += nbytes
        key_pair = (src_host, dst_host)
        if key_pair not in path_cache:
            path_cache[key_pair] = list(
                nx.all_shortest_paths(topology.graph, src_host, dst_host)
            )
        routes = path_cache[key_pair]
        share = nbytes / len(routes)
        for path in routes:
            for a, b in zip(path, path[1:]):
                key = (a, b) if a < b else (b, a)
                link_bytes[key] = link_bytes.get(key, 0.0) + share

    for sd in subdomains:
        for d in range(ndim):
            if rad[d] == 0:
                continue
            face = elem * rad[d]
            for dd, s in enumerate(sd.shape):
                if dd != d:
                    face *= s
            for delta in (-1, +1):
                coords = list(sd.coords)
                coords[d] += delta
                if periodic:
                    coords[d] %= grid[d]
                elif not 0 <= coords[d] < grid[d]:
                    continue
                peer = 0
                for c, g in zip(coords, grid):
                    peer = peer * g + c
                src = topology.host_of(sd.rank)
                dst = topology.host_of(peer)
                if src != dst:
                    add(src, dst, face)
    max_link = max(link_bytes.values(), default=0.0)
    return ExchangeLoad(
        link_bytes=link_bytes,
        total_bytes=total,
        max_link_bytes=max_link,
        link_bw_GBs=topology.link_bw_GBs,
    )
