"""End-to-end path resolution: BGP + IGP + PBR, hop by hop.

:class:`Router` walks a packet's path the way the network forwards it:

1. a PBR rule at the current node wins (source-sensitive overrides),
2. inside the destination AS, follow the IGP shortest path to the host,
3. otherwise follow BGP's next AS, exiting via the *hot-potato* border
   (the border router nearest in IGP cost), then cross the inter-AS link.

The resulting :class:`ResolvedPath` carries everything the transfer models
need: the node sequence, the directed link resources, end-to-end RTT and
loss, and the bottleneck capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import RoutingError, TopologyError
from repro.net.asn import ASGraph
from repro.net.bgp import BgpRouteComputer
from repro.net.policy import PolicyTable
from repro.net.topology import Link, LinkDirection, Node, Topology

__all__ = ["ResolvedPath", "Router", "preloaded_hops"]

_MAX_HOPS = 64


@dataclass(frozen=True)
class ResolvedPath:
    """A concrete forwarding path between two hosts."""

    src: str
    dst: str
    nodes: Tuple[str, ...]
    rtt_s: float
    loss: float
    bottleneck_bps: float
    as_sequence: Tuple[int, ...]
    #: tightest per-flow stateful-inspection cap among transited
    #: middleboxes (inf when no firewall is on the path)
    per_flow_cap_bps: float = float("inf")

    @property
    def hop_count(self) -> int:
        return len(self.nodes) - 1

    def describe(self) -> str:
        return " -> ".join(self.nodes)


class _PreloadedHops:
    """A preloaded hop list, finalized on first use (see :meth:`Router.preload_pending`).

    Immutable, so one instance can sit in many routers' caches.
    """

    __slots__ = ("names", "flat", "start", "end")

    def __init__(self, names: Sequence[str], flat: Sequence[int],
                 start: int, end: int):
        self.names = names
        self.flat = flat
        self.start = start
        self.end = end

    def hops(self) -> List[str]:
        names = self.names
        return [names[j] for j in self.flat[self.start:self.end]]


def preloaded_hops(names: Sequence[str], indptr: Sequence[int],
                   flat: Sequence[int]) -> Dict[Tuple[str, str], _PreloadedHops]:
    """(src, dst) -> pending hop list for precompiled paths in CSR form.

    Path *i* is ``[names[j] for j in flat[indptr[i]:indptr[i + 1]]]``,
    the full hop list of one forwarding path (as
    :class:`ResolvedPath.nodes` would report it); a later path for the
    same pair replaces an earlier one.
    """
    out: Dict[Tuple[str, str], _PreloadedHops] = {}
    for i in range(len(indptr) - 1):
        start, end = indptr[i], indptr[i + 1]
        out[(names[flat[start]], names[flat[end - 1]])] = _PreloadedHops(
            names, flat, start, end)
    return out


class Router:
    """Resolves forwarding paths over a topology + AS graph + PBR table."""

    def __init__(
        self,
        topology: Topology,
        as_graph: ASGraph,
        policy: Optional[PolicyTable] = None,
        per_hop_latency_s: float = 50e-6,
    ):
        self.topology = topology
        self.as_graph = as_graph
        self.policy = policy if policy is not None else PolicyTable()
        # BGP adjacencies require a live inter-AS link (failures reset
        # the session and withdraw the routes learned over it)
        self.bgp = BgpRouteComputer(
            as_graph,
            edge_usable=lambda a, b: bool(topology.inter_as_links(a, b)),
        )
        #: store-and-forward / switching latency added per hop to RTT
        self.per_hop_latency_s = per_hop_latency_s
        #: resolved paths, plus preloaded hop lists not yet finalized
        self._path_cache: Dict[Tuple[str, str],
                               Union[ResolvedPath, _PreloadedHops]] = {}
        self._igp_cost_cache: Dict[Tuple[str, str], float] = {}

    # -- public API ---------------------------------------------------------

    def resolve(self, src: str, dst: str) -> ResolvedPath:
        """Forwarding path from host *src* to host *dst* (cached)."""
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is None:
            path = self._resolve_uncached(src, dst)
        elif type(cached) is _PreloadedHops:
            path = self._finalize(cached.hops())
        else:
            return cached
        self._path_cache[key] = path
        return path

    def invalidate(self) -> None:
        """Drop caches (preloaded paths too) after topology or policy changes."""
        self._path_cache.clear()
        self._igp_cost_cache.clear()
        self.bgp.invalidate()

    def preload_pending(self, pending: Mapping[Tuple[str, str], _PreloadedHops]) -> int:
        """Seed the path cache from a :func:`preloaded_hops` map.

        Only hop lists are recorded here; the derived attributes — RTT,
        loss, bottleneck, AS sequence, firewall caps — are computed from
        the live topology on the first :meth:`resolve` of the pair, so a
        preloaded path is bit-identical to what :meth:`resolve` would
        return for the same hops, and a world pays only for the paths
        it uses.  A malformed hop list raises there, not here.  A
        preload replaces any cached path for the same pair;
        :meth:`invalidate` drops pending paths like finalized ones.
        Used by ``repro.topo`` to warm compiled worlds so the first
        transfer doesn't pay BGP resolution.  The map is copied
        (shallowly), not adopted, so many routers can start from one
        shared map.  Returns the number of pairs.
        """
        self._path_cache.update(pending)
        return len(pending)

    def path_directions(self, path: ResolvedPath) -> List[LinkDirection]:
        """Directed link resources traversed by *path*."""
        return self.topology.path_directions(list(path.nodes))

    # -- resolution ------------------------------------------------------------

    def _resolve_uncached(self, src: str, dst: str) -> ResolvedPath:
        topo = self.topology
        s, d = topo.node(src), topo.node(dst)
        if src == dst:
            raise RoutingError(f"source and destination are the same host: {src}")
        nodes = [s.name]
        cur = s
        for _ in range(_MAX_HOPS):
            if cur.name == d.name:
                break
            nxt = self._next_hop(cur, s, d)
            if nxt in nodes:
                raise RoutingError(
                    f"forwarding loop resolving {src}->{dst}: revisit {nxt} "
                    f"(path so far: {' -> '.join(nodes)})"
                )
            nodes.append(nxt)
            cur = topo.node(nxt)
        else:
            raise RoutingError(f"path {src}->{dst} exceeds {_MAX_HOPS} hops")

        return self._finalize(nodes)

    def _finalize(self, nodes: List[str]) -> ResolvedPath:
        """Derive the :class:`ResolvedPath` attributes from a hop list."""
        topo = self.topology
        if len(nodes) < 2:
            raise RoutingError(f"path needs at least two hops, got {nodes!r}")
        src, dst = nodes[0], nodes[-1]
        links = topo.path_links(nodes)
        one_way = topo.path_delay_s(nodes) + self.per_hop_latency_s * (len(nodes) - 1)
        bottleneck = min(
            link.effective_capacity_bps(u) for u, link in zip(nodes, links)
        )
        as_seq: List[int] = []
        for name in nodes:
            asn = topo.node(name).asn
            if not as_seq or as_seq[-1] != asn:
                as_seq.append(asn)
        # per-flow firewall caps apply to transit through middleboxes
        # (endpoints inspect their own traffic for free)
        fw_cap = float("inf")
        for name in nodes[1:-1]:
            cap = topo.node(name).firewall_per_flow_bps
            if cap is not None:
                fw_cap = min(fw_cap, cap)
        return ResolvedPath(
            src=src,
            dst=dst,
            nodes=tuple(nodes),
            rtt_s=2.0 * one_way,
            loss=topo.path_loss(nodes),
            bottleneck_bps=bottleneck,
            as_sequence=tuple(as_seq),
            per_flow_cap_bps=fw_cap,
        )

    def _next_hop(self, cur: Node, src: Node, dst: Node) -> str:
        topo = self.topology

        # 1. policy-based routing overrides (a failed out-link falls
        #    through to BGP, like a next-hop-unreachable PBR rule)
        rule = self.policy.match(cur.name, src.address, dst.asn)
        if rule is not None:
            link = topo.link(rule.out_link)
            if cur.name not in (link.u, link.v):
                raise RoutingError(
                    f"PBR rule at {cur.name} names link {rule.out_link} not attached to it"
                )
            if not link.failed:
                return link.other(cur.name)

        # 2. destination AS: plain IGP
        if cur.asn == dst.asn:
            path = topo.intra_as_path(cur.name, dst.name)
            if len(path) < 2:
                raise RoutingError(f"no next hop from {cur.name} to {dst.name}")
            return path[1]

        # 3. BGP next AS, hot-potato egress selection
        route = self.bgp.best_route(cur.asn, dst.asn)
        next_as = route.next_as
        candidates = topo.inter_as_links(cur.asn, next_as)
        if not candidates:
            raise RoutingError(
                f"BGP at AS{cur.asn} selects AS{next_as} toward AS{dst.asn} "
                f"but no inter-AS link exists"
            )
        best: Optional[Tuple[float, str, Link]] = None
        for link in candidates:
            border = link.u if topo.node(link.u).asn == cur.asn else link.v
            cost = self._igp_cost(cur.name, border)
            if cost is None:
                continue
            key = (cost, border)
            if best is None or key < (best[0], best[1]):
                best = (cost, border, link)
        if best is None:
            raise RoutingError(
                f"no IGP path from {cur.name} to any AS{next_as}-facing border of AS{cur.asn}"
            )
        _, border, link = best
        if border == cur.name:
            return link.other(cur.name)
        return topo.intra_as_path(cur.name, border)[1]

    def _igp_cost(self, a: str, b: str) -> Optional[float]:
        """Total IGP cost a->b within one AS, or None if unreachable."""
        if a == b:
            return 0.0
        key = (a, b)
        if key in self._igp_cost_cache:
            return self._igp_cost_cache[key]
        try:
            path = self.topology.intra_as_path(a, b)
        except TopologyError:
            self._igp_cost_cache[key] = None  # type: ignore[assignment]
            return None
        cost = sum(link.igp_cost for link in self.topology.path_links(path))
        self._igp_cost_cache[key] = cost
        return cost
