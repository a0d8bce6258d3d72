"""The compact compiled topology: flat numpy arrays + content digest.

A :class:`CompiledTopology` is the storage/runtime form of a world: every
graph record flattened into columnar numpy arrays (nodes, links, a CSR
adjacency, AS relationships, providers, hosts, and the precompiled
forwarding paths), plus a JSON ``meta`` block naming the spec that
produced it.  Array order preserves graph insertion order — order is
semantic (IGP tie-breaks follow adjacency insertion, see
``docs/invariants.md``) — so compiling the same spec always reproduces
the same arrays, and :meth:`content_digest` (sha256 over every array's
bytes in canonical field order) is the cross-process byte-identity
witness the tests assert on.

The array schema (``ARRAY_FIELDS``) is closed: save/load round-trips
exactly this set, and the digest covers exactly this set plus ``meta``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopoError
from repro.net.routing import preloaded_hops
from repro.topo.spec import (
    AsRec,
    LinkRec,
    NodeRec,
    PbrRec,
    ProviderRec,
    SiteRec,
    TopoGraph,
    canonical_json,
)

__all__ = ["CompiledTopology", "compile_graph"]

#: Bump on any schema change; load refuses mismatches.
COMPILED_VERSION = 1

#: Every array key, in digest order.  Grouped: sites, nodes, CSR
#: adjacency, links, policers, ASes, relationships, export filters,
#: PBR, providers, hosts/DTNs/populations, routes.
ARRAY_FIELDS: Tuple[str, ...] = (
    "site_name", "site_kind", "site_lat", "site_lon", "site_city",
    "site_desc", "site_planetlab",
    "node_name", "node_kind", "node_asn", "node_addr", "node_hostname",
    "node_site", "node_responds", "node_fw_bps",
    "adj_indptr", "adj_nbr", "adj_link",
    "link_u", "link_v", "link_cap_bps", "link_delay_s", "link_loss",
    "link_igp", "link_jitter",
    "policer_link", "policer_node", "policer_bps",
    "as_number", "as_name", "as_tier",
    "rel_customers", "rel_peerings",
    "deny_announcer", "deny_neighbor", "deny_indptr", "deny_dest",
    "pbr_node", "pbr_link", "pbr_prefixes", "pbr_indptr", "pbr_dest",
    "pbr_desc",
    "prov_name", "prov_display", "prov_api", "prov_auth", "prov_proto",
    "prov_indptr", "prov_frontend",
    "host_site", "host_node",
    "dtn_site",
    "pop_site", "pop_weight",
    "route_indptr", "route_node",
)


def _sarr(values: Sequence[str]) -> np.ndarray:
    """String array with a stable dtype for the empty case."""
    values = list(values)
    if not values:
        return np.array([], dtype="U1")
    return np.array(values)


def _iarr(values: Sequence[int]) -> np.ndarray:
    return np.array(list(values), dtype=np.int64)


def _farr(values: Sequence[float]) -> np.ndarray:
    return np.array(list(values), dtype=np.float64)


def _barr(values: Sequence[bool]) -> np.ndarray:
    return np.array(list(values), dtype=bool)


def _pairs(values: Sequence[Tuple[int, int]]) -> np.ndarray:
    return np.array(list(values), dtype=np.int64).reshape(-1, 2)


def _indptr_flat(groups: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """CSR-style (indptr, flat) encoding of a list of int lists."""
    indptr = [0]
    flat: List[int] = []
    for group in groups:
        flat.extend(group)
        indptr.append(len(flat))
    return _iarr(indptr), _iarr(flat)


class CompiledTopology:
    """Columnar world representation (see module docstring for schema)."""

    def __init__(self, arrays: Dict[str, np.ndarray], meta: Dict[str, object]):
        missing = [k for k in ARRAY_FIELDS if k not in arrays]
        if missing:
            raise TopoError(f"compiled topology missing arrays: {missing}")
        self.arrays = arrays
        self.meta = meta
        # Read-only after compilation, so shared by every world
        # materialized from it (see to_graph and pending_routes).
        self._graph: Optional[TopoGraph] = None
        self._pending: Optional[Dict[Tuple[str, str], object]] = None

    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]

    # -- shape ----------------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return int(self.arrays["site_name"].shape[0])

    @property
    def n_nodes(self) -> int:
        return int(self.arrays["node_name"].shape[0])

    @property
    def n_links(self) -> int:
        return int(self.arrays["link_u"].shape[0])

    @property
    def n_routes(self) -> int:
        return int(self.arrays["route_indptr"].shape[0]) - 1 \
            if self.arrays["route_indptr"].size else 0

    def describe(self) -> Dict[str, object]:
        """Headline stats for ``repro topo inspect`` and the benches."""
        indptr = self.arrays["adj_indptr"]
        degrees = np.diff(indptr) if indptr.size > 1 else np.array([0])
        return {
            "name": self.meta.get("name"),
            "spec_hash": self.meta.get("spec_hash"),
            "sites": self.n_sites,
            "nodes": self.n_nodes,
            "links": self.n_links,
            "ases": int(self.arrays["as_number"].shape[0]),
            "hosts": int(self.arrays["host_site"].shape[0]),
            "dtns": int(self.arrays["dtn_site"].shape[0]),
            "providers": int(self.arrays["prov_name"].shape[0]),
            "routes": self.n_routes,
            "max_degree": int(degrees.max()) if degrees.size else 0,
            "mean_degree": float(degrees.mean()) if degrees.size else 0.0,
        }

    # -- identity -------------------------------------------------------------

    def content_digest(self) -> str:
        """sha256 over meta + every array, in canonical field order.

        This is the byte-identity witness: two compilations agree on the
        digest iff they agree on every array element (npz *file* bytes
        are not comparable — zip headers embed timestamps).
        """
        h = hashlib.sha256()
        h.update(canonical_json(dict(self.meta)).encode())
        for key in ARRAY_FIELDS:
            arr = self.arrays[key]
            h.update(key.encode())
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    # -- persistence ----------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, __meta__=np.array([canonical_json(dict(self.meta))]),
            **self.arrays)

    @classmethod
    def load(cls, path: str) -> "CompiledTopology":
        try:
            with np.load(path, allow_pickle=False) as payload:
                raw = {k: payload[k] for k in payload.files if k != "__meta__"}
                if "__meta__" not in payload.files:
                    raise TopoError(f"{path}: not a compiled topology (no meta)")
                meta = json.loads(str(payload["__meta__"][0]))
        except (OSError, ValueError, KeyError) as exc:
            raise TopoError(f"cannot load compiled topology {path}: {exc}") from None
        if meta.get("version") != COMPILED_VERSION:
            raise TopoError(
                f"{path}: compiled version {meta.get('version')} "
                f"(expected {COMPILED_VERSION})")
        return cls(raw, meta)

    # -- routes ---------------------------------------------------------------

    def attach_routes(self, node_paths: Sequence[Sequence[int]]) -> None:
        """Install precompiled forwarding paths (node indices)."""
        self.install_routes(*_indptr_flat(node_paths))

    def install_routes(self, indptr: np.ndarray, flat: np.ndarray) -> None:
        """Install precompiled paths already in CSR form (a route-cache hit)."""
        self.arrays["route_indptr"] = indptr
        self.arrays["route_node"] = flat
        self.meta["routes"] = int(indptr.shape[0]) - 1
        self._pending = None

    def pending_routes(self) -> Dict[Tuple[str, str], object]:
        """The (src, dst) -> pending hop list map a world's router starts
        from (:meth:`Router.preload_pending`), built once and shared: each
        router copies the map and finalizes its own entries."""
        if self._pending is None:
            self._pending = preloaded_hops(
                [str(s) for s in self.arrays["node_name"]],
                self.arrays["route_indptr"].tolist(),
                self.arrays["route_node"].tolist())
        return self._pending

    def route_name_paths(self) -> List[List[str]]:
        """Precompiled paths as node-name lists (what Router.preload_pending records)."""
        names = self.arrays["node_name"]
        indptr = self.arrays["route_indptr"]
        flat = self.arrays["route_node"]
        out = []
        for i in range(len(indptr) - 1):
            out.append([str(names[j]) for j in flat[indptr[i]:indptr[i + 1]]])
        return out

    # -- back to records ------------------------------------------------------

    def to_graph(self) -> TopoGraph:
        """Reconstruct the record form (lossless inverse of compile).

        Memoized: the records are immutable, so every world materialized
        from this topology shares one copy.
        """
        if self._graph is None:
            self._graph = self._build_graph()
        return self._graph

    def _build_graph(self) -> TopoGraph:
        a = self.arrays
        site_names = [str(s) for s in a["site_name"]]
        node_names = [str(s) for s in a["node_name"]]

        sites = tuple(
            SiteRec(site_names[i], str(a["site_kind"][i]),
                    float(a["site_lat"][i]), float(a["site_lon"][i]),
                    city=str(a["site_city"][i]), description=str(a["site_desc"][i]),
                    planetlab=bool(a["site_planetlab"][i]))
            for i in range(self.n_sites))

        def node(i: int) -> NodeRec:
            fw = float(a["node_fw_bps"][i])
            site_idx = int(a["node_site"][i])
            return NodeRec(
                node_names[i], str(a["node_kind"][i]), int(a["node_asn"][i]),
                str(a["node_addr"][i]), hostname=str(a["node_hostname"][i]),
                site=site_names[site_idx] if site_idx >= 0 else "",
                responds=bool(a["node_responds"][i]),
                firewall_per_flow_bps=None if np.isnan(fw) else fw)

        nodes = tuple(node(i) for i in range(self.n_nodes))

        policers_by_link: Dict[int, List[Tuple[str, float]]] = {}
        for j in range(a["policer_link"].shape[0]):
            policers_by_link.setdefault(int(a["policer_link"][j]), []).append(
                (node_names[int(a["policer_node"][j])], float(a["policer_bps"][j])))

        links = tuple(
            LinkRec(node_names[int(a["link_u"][i])], node_names[int(a["link_v"][i])],
                    capacity_bps=float(a["link_cap_bps"][i]),
                    delay_s=float(a["link_delay_s"][i]),
                    loss=float(a["link_loss"][i]), igp_cost=float(a["link_igp"][i]),
                    policers=tuple(policers_by_link.get(i, ())),
                    jitter_sigma=float(a["link_jitter"][i]))
            for i in range(self.n_links))

        ases = tuple(
            AsRec(int(a["as_number"][i]), str(a["as_name"][i]), str(a["as_tier"][i]))
            for i in range(a["as_number"].shape[0]))

        deny_indptr = a["deny_indptr"]
        export_deny = tuple(
            (int(a["deny_announcer"][i]), int(a["deny_neighbor"][i]),
             tuple(int(x) for x in a["deny_dest"][deny_indptr[i]:deny_indptr[i + 1]]))
            for i in range(a["deny_announcer"].shape[0]))

        pbr_indptr = a["pbr_indptr"]
        link_names = [f"{node_names[int(a['link_u'][i])]}--"
                      f"{node_names[int(a['link_v'][i])]}"
                      for i in range(self.n_links)]
        pbr_rules = tuple(
            PbrRec(node_names[int(a["pbr_node"][i])],
                   link_names[int(a["pbr_link"][i])],
                   src_prefixes=tuple(
                       p for p in str(a["pbr_prefixes"][i]).split(";") if p),
                   dest_asns=tuple(
                       int(x) for x in a["pbr_dest"][pbr_indptr[i]:pbr_indptr[i + 1]]),
                   description=str(a["pbr_desc"][i]))
            for i in range(a["pbr_node"].shape[0]))

        prov_indptr = a["prov_indptr"]
        providers = tuple(
            ProviderRec(str(a["prov_name"][i]), str(a["prov_display"][i]),
                        str(a["prov_api"][i]), str(a["prov_auth"][i]),
                        frontends=tuple(
                            node_names[int(x)]
                            for x in a["prov_frontend"][prov_indptr[i]:prov_indptr[i + 1]]),
                        protocol=str(a["prov_proto"][i]))
            for i in range(a["prov_name"].shape[0]))

        return TopoGraph(
            sites=sites, ases=ases, nodes=nodes, links=links,
            customers=tuple((int(x), int(y)) for x, y in a["rel_customers"]),
            peerings=tuple((int(x), int(y)) for x, y in a["rel_peerings"]),
            export_deny=export_deny, pbr_rules=pbr_rules, providers=providers,
            hosts=tuple((site_names[int(s)], node_names[int(n)])
                        for s, n in zip(a["host_site"], a["host_node"])),
            dtn_sites=tuple(site_names[int(s)] for s in a["dtn_site"]),
            populations=tuple((site_names[int(s)], float(w))
                              for s, w in zip(a["pop_site"], a["pop_weight"])),
        )


def compile_graph(graph: TopoGraph, name: str, source: str,
                  spec_hash: str, tag: str) -> CompiledTopology:
    """Flatten a :class:`TopoGraph` into a :class:`CompiledTopology`.

    Routes start empty; the compile pipeline attaches them after
    resolution (or from the route cache).
    """
    site_idx = {s.name: i for i, s in enumerate(graph.sites)}
    node_idx = {n.name: i for i, n in enumerate(graph.nodes)}
    link_idx: Dict[str, int] = {}

    arrays: Dict[str, np.ndarray] = {}
    arrays["site_name"] = _sarr([s.name for s in graph.sites])
    arrays["site_kind"] = _sarr([s.kind for s in graph.sites])
    arrays["site_lat"] = _farr([s.lat for s in graph.sites])
    arrays["site_lon"] = _farr([s.lon for s in graph.sites])
    arrays["site_city"] = _sarr([s.city for s in graph.sites])
    arrays["site_desc"] = _sarr([s.description for s in graph.sites])
    arrays["site_planetlab"] = _barr([s.planetlab for s in graph.sites])

    for n in graph.nodes:
        if n.site and n.site not in site_idx:
            raise TopoError(f"node {n.name!r} references unknown site {n.site!r}")
    arrays["node_name"] = _sarr([n.name for n in graph.nodes])
    arrays["node_kind"] = _sarr([n.kind for n in graph.nodes])
    arrays["node_asn"] = _iarr([n.asn for n in graph.nodes])
    arrays["node_addr"] = _sarr([n.address for n in graph.nodes])
    arrays["node_hostname"] = _sarr([n.hostname or n.name for n in graph.nodes])
    arrays["node_site"] = _iarr(
        [site_idx[n.site] if n.site else -1 for n in graph.nodes])
    arrays["node_responds"] = _barr([n.responds for n in graph.nodes])
    arrays["node_fw_bps"] = _farr(
        [float("nan") if n.firewall_per_flow_bps is None
         else n.firewall_per_flow_bps for n in graph.nodes])

    policer_link: List[int] = []
    policer_node: List[int] = []
    policer_bps: List[float] = []
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in graph.nodes]
    for i, link in enumerate(graph.links):
        for end in (link.u, link.v):
            if end not in node_idx:
                raise TopoError(f"link {link.name!r} references unknown node {end!r}")
        link_idx[link.name] = i
        u, v = node_idx[link.u], node_idx[link.v]
        adjacency[u].append((v, i))
        adjacency[v].append((u, i))
        for node_name, rate in link.policers:
            policer_link.append(i)
            policer_node.append(node_idx[node_name])
            policer_bps.append(rate)
    arrays["link_u"] = _iarr([node_idx[l.u] for l in graph.links])
    arrays["link_v"] = _iarr([node_idx[l.v] for l in graph.links])
    arrays["link_cap_bps"] = _farr([l.capacity_bps for l in graph.links])
    arrays["link_delay_s"] = _farr([l.delay_s for l in graph.links])
    arrays["link_loss"] = _farr([l.loss for l in graph.links])
    arrays["link_igp"] = _farr([l.igp_cost for l in graph.links])
    arrays["link_jitter"] = _farr([l.jitter_sigma for l in graph.links])
    arrays["policer_link"] = _iarr(policer_link)
    arrays["policer_node"] = _iarr(policer_node)
    arrays["policer_bps"] = _farr(policer_bps)

    indptr, flat = _indptr_flat([[n for n, _ in adj] for adj in adjacency])
    _, flat_links = _indptr_flat([[lk for _, lk in adj] for adj in adjacency])
    arrays["adj_indptr"] = indptr
    arrays["adj_nbr"] = flat
    arrays["adj_link"] = flat_links

    arrays["as_number"] = _iarr([a.asn for a in graph.ases])
    arrays["as_name"] = _sarr([a.name for a in graph.ases])
    arrays["as_tier"] = _sarr([a.tier for a in graph.ases])
    arrays["rel_customers"] = _pairs(graph.customers)
    arrays["rel_peerings"] = _pairs(graph.peerings)

    arrays["deny_announcer"] = _iarr([a for a, _, _ in graph.export_deny])
    arrays["deny_neighbor"] = _iarr([n for _, n, _ in graph.export_deny])
    deny_indptr, deny_flat = _indptr_flat(
        [list(d) for _, _, d in graph.export_deny])
    arrays["deny_indptr"] = deny_indptr
    arrays["deny_dest"] = deny_flat

    arrays["pbr_node"] = _iarr([node_idx[r.node] for r in graph.pbr_rules])
    arrays["pbr_link"] = _iarr([link_idx[r.out_link] for r in graph.pbr_rules])
    arrays["pbr_prefixes"] = _sarr([";".join(r.src_prefixes)
                                    for r in graph.pbr_rules])
    pbr_indptr, pbr_flat = _indptr_flat(
        [list(r.dest_asns) for r in graph.pbr_rules])
    arrays["pbr_indptr"] = pbr_indptr
    arrays["pbr_dest"] = pbr_flat
    arrays["pbr_desc"] = _sarr([r.description for r in graph.pbr_rules])

    arrays["prov_name"] = _sarr([p.name for p in graph.providers])
    arrays["prov_display"] = _sarr([p.display_name for p in graph.providers])
    arrays["prov_api"] = _sarr([p.api_hostname for p in graph.providers])
    arrays["prov_auth"] = _sarr([p.auth_hostname for p in graph.providers])
    arrays["prov_proto"] = _sarr([p.protocol for p in graph.providers])
    prov_indptr, prov_flat = _indptr_flat(
        [[node_idx[f] for f in p.frontends] for p in graph.providers])
    arrays["prov_indptr"] = prov_indptr
    arrays["prov_frontend"] = prov_flat

    arrays["host_site"] = _iarr([site_idx[s] for s, _ in graph.hosts])
    arrays["host_node"] = _iarr([node_idx[n] for _, n in graph.hosts])
    arrays["dtn_site"] = _iarr([site_idx[s] for s in graph.dtn_sites])
    arrays["pop_site"] = _iarr([site_idx[s] for s, _ in graph.populations])
    arrays["pop_weight"] = _farr([w for _, w in graph.populations])

    arrays["route_indptr"] = _iarr([0])
    arrays["route_node"] = _iarr([])

    meta: Dict[str, object] = {
        "version": COMPILED_VERSION,
        "name": name,
        "source": source,
        "spec_hash": spec_hash,
        "tag": tag,
        "routes": 0,
    }
    return CompiledTopology(arrays, meta)
