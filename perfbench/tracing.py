"""Benchmark-side tracing: spans and counters around calls into each layer.

Nothing inside ``src/repro`` is instrumented for the benchmark.  Instead,
:func:`install` replaces public functions and methods of the simulator's
layers with thin wrappers, from outside the package, and
:meth:`Patches.undo` puts the originals back.  A *timed* wrapper records one span per call —
``(name, start, end, parent, unit)`` — where ``parent`` is the index of
the innermost enclosing span and ``unit`` is the id of the cell, compile
or fleet run that was executing.  A *counted* wrapper only counts calls;
it is used for generator-based layers (the work of a generator happens
when the kernel resumes it, not inside the call) and for calls too
frequent to time without distorting the run.

Spans stay in memory until the run ends; :meth:`Tracer.dump` writes them
out.  A layer's self time is its spans' total duration minus the part
covered by their wrapped children, so ``sim.step_self_s`` is the kernel's
dispatch time plus every unwrapped process body it resumed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, unit id)
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self.counts: Counter = Counter()
        self.sums: Counter = Counter()
        self.unit = 0
        self._stack: List[int] = []

    def open(self) -> Tuple[int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, perf()

    def close(self, name: str, idx: int, t0: float) -> None:
        t1 = perf()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, t0, t1, parent, self.unit)

    def timed(self, name: str, fn: Callable,
              tally: Optional[Callable] = None) -> Callable:
        """Wrap *fn*: one span per call; *tally(args, kwargs, result)* may
        add to ``sums`` after the call returns."""
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, t0 = open_()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, idx, t0)
            if tally is not None:
                tally(self, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable,
                tally: Optional[Callable] = None) -> Callable:
        """Wrap *fn*: count calls only (used for generators and hot calls)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if tally is not None:
                tally(self, args, kwargs, None)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, name: str):
        idx, t0 = self.open()
        try:
            yield
        finally:
            self.close(name, idx, t0)

    # -- reduction -------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: Dict[str, Dict[str, float]] = {}
        for idx, s in enumerate(self.spans):
            if s is None:
                continue
            name, t0, t1, _parent, _unit = s
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[idx]
        return out

    def dump(self, path: str) -> None:
        """Write every span as compact JSON (names interned)."""
        names: Dict[str, int] = {}
        rows = []
        for s in self.spans:
            if s is None:
                continue
            name, t0, t1, parent, unit = s
            rows.append([names.setdefault(name, len(names)),
                         round(t0, 7), round(t1, 7), parent, unit])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"names": sorted(names, key=names.get),
                       "columns": ["name", "start_s", "end_s", "parent",
                                   "unit"],
                       "spans": rows, "counts": dict(self.counts),
                       "sums": dict(self.sums)}, fh)


# -- tallies -----------------------------------------------------------------

def _flows(tr, args, kwargs, _result):
    flows = args[0] if args else kwargs["flows"]
    tr.sums["net.flows.flows"] += len(flows)


def _digest_bytes(tr, args, _kwargs, _result):
    from repro.transfer.files import MAX_MATERIALIZE_BYTES

    size = args[0].size_bytes
    tr.sums["transfer.digest_bytes"] += size if size <= MAX_MATERIALIZE_BYTES else 0


def _plan_route(tr, args, kwargs, _result):
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    if getattr(plan.route, "via", None):
        tr.sums["core.detour_plans"] += 1


def _store_bytes(tr, _args, _kwargs, result):
    tr.sums["campaign.store_bytes"] += os.path.getsize(result)


# -- installation ------------------------------------------------------------

def _targets():
    """(owner, attribute, span/count name, kind, tally) for every wrapper.

    ``kind`` is ``"timed"`` or ``"counted"``.  ``Simulator.schedule_at``
    is not listed: it calls ``schedule``, which is counted once.
    """
    from repro.broker.service import DetourBroker
    from repro.campaign import pool as campaign_pool
    from repro.campaign.store import ResultStore
    from repro.cloud.http import HttpsSession
    from repro.cloud.oauth import OAuth2Server
    from repro.core.executor import PlanExecutor
    from repro.measure.harness import ExperimentRunner
    from repro.net import engine as net_engine
    from repro.net.engine import NetworkEngine
    from repro.net.routing import Router
    from repro.net.tcp import TcpModel
    from repro.shard import runner as shard_runner
    from repro.shard.service import SharedDirectoryService
    from repro.sim.kernel import Handle, Simulator
    from repro.testbed import build as testbed_build
    from repro.topo.routecache import RouteCache
    from repro.transfer.dtn import DataTransferNode
    from repro.transfer.files import FileSpec
    from repro.transfer.rsync import RsyncSession
    from repro.workloads import generator as workloads_gen

    return [
        (Simulator, "step", "sim.step", "timed", None),
        (Simulator, "schedule", "sim.scheduled", "counted", None),
        (Handle, "cancel", "sim.cancelled", "counted", None),
        (net_engine, "max_min_allocation", "net.flows.alloc", "timed", _flows),
        (NetworkEngine, "start_transfer", "net.engine", "timed", None),
        (NetworkEngine, "start_transfer", "net.engine.transfers", "counted", None),
        (NetworkEngine, "estimate_rate", "net.engine", "timed", None),
        (NetworkEngine, "cancel", "net.engine", "timed", None),
        # the reallocation boundary the kernel profiler already names
        # ("net.engine.reallocate"); completions reach it from the heap
        (NetworkEngine, "_reallocate", "net.engine", "timed", None),
        (FileSpec, "content_digest", "transfer.digest", "timed", _digest_bytes),
        (DataTransferNode, "stage", "transfer.dtn_stages", "counted", None),
        (RsyncSession, "push", "transfer.rsync_pushes", "counted", None),
        (TcpModel, "connect_time_s", "net.tcp", "timed", None),
        (TcpModel, "rate_ceiling_bps", "net.tcp", "timed", None),
        (TcpModel, "startup_penalty_s", "net.tcp", "timed", None),
        (TcpModel, "request_response_time_s", "net.tcp", "timed", None),
        (HttpsSession, "request", "cloud.requests", "counted", None),
        (OAuth2Server, "issue_token", "cloud.token_issues", "counted", None),
        (PlanExecutor, "execute", "core.plans", "counted", _plan_route),
        (DetourBroker, "recommend", "broker.recommend", "timed", None),
        (DetourBroker, "report", "broker.report", "timed", None),
        (Router, "resolve", "net.routing.resolve", "timed", None),
        (RouteCache, "load", "topo.route_cache_load", "timed", None),
        (testbed_build, "build_case_study", "testbed.build", "timed", None),
        (ExperimentRunner, "measure", "measure.cell", "timed", None),
        (ResultStore, "put", "campaign.store_put", "timed", _store_bytes),
        (ResultStore, "get", "campaign.store_get", "timed", None),
        (campaign_pool, "execute_cells", "campaign.cells_run", "counted",
         lambda tr, args, kw, _r: tr.sums.update(
             {"campaign.cells": len(args[0] if args else kw["cells"])})),
        (shard_runner, "merge_sharded", "shard.merge", "timed", None),
        (SharedDirectoryService, "publish_snapshot", "shard.dir_publish", "timed", None),
        (SharedDirectoryService, "publish_report", "shard.dir_publish", "timed", None),
        (SharedDirectoryService, "fetch_snapshot", "shard.dir_fetch", "timed", None),
        (SharedDirectoryService, "fetch_report", "shard.dir_fetch", "timed", None),
        (workloads_gen, "fleet_population_schedule", "workloads.schedule", "timed", None),
    ]


def _rebind(original, replacement) -> List[Tuple[object, str, object]]:
    """Point every ``repro`` module global bound to *original* at
    *replacement* (covers ``from x import f`` copies); returns undo info."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, replacement)
    return undo


class Patches:
    """A set of attribute replacements that can be undone in reverse."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (a class attribute, or a module function
        together with every ``repro`` alias of it) by ``make(original)``."""
        original = vars(owner)[attr]
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(original))
        else:
            self._undo.extend(_rebind(original, make(original)))

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary in :func:`_targets` with *tracer*."""
    from repro.topo.instrument import TopoInstrumentation

    patches = Patches()
    for owner, attr, name, kind, tally in _targets():
        wrap = tracer.timed if kind == "timed" else tracer.counted
        patches.replace(owner, attr,
                        lambda fn, _n=name, _w=wrap, _t=tally: _w(_n, fn, _t))

    # compile phases: generate / arrays / routes / routes_cached / materialize
    def traced_phase(phase):
        @contextmanager
        def wrapper(self, name):
            with tracer.span(f"topo.{name}"), phase(self, name):
                yield
        return wrapper

    patches.replace(TopoInstrumentation, "phase", traced_phase)
    return patches


# -- injected slowdown (self-test only) ---------------------------------------

def _twice(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        fn(*args, **kwargs)
        return fn(*args, **kwargs)
    return wrapper


def _resolve_twice(resolve):
    # Router.resolve memoizes, so a plain second call would be a cache
    # hit: repeat the uncached resolution instead, on misses only.
    @functools.wraps(resolve)
    def wrapper(self, src, dst):
        if (src, dst) not in self._path_cache:
            self._resolve_uncached(src, dst)
        return resolve(self, src, dst)
    return wrapper


def inject(layer: str) -> Patches:
    """Make one layer's public function do its work twice."""
    from repro.net import engine as net_engine
    from repro.net.routing import Router
    from repro.transfer.files import FileSpec

    owner, attr, make = {
        "alloc": (net_engine, "max_min_allocation", _twice),
        "digest": (FileSpec, "content_digest", _twice),
        "resolve": (Router, "resolve", _resolve_twice),
    }[layer]
    patches = Patches()
    patches.replace(owner, attr, make)
    return patches



# -- per-layer metrics --------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, broker_stats: Dict[str, float]
                  ) -> Dict[str, float]:
    """The per-layer table: counts, self seconds and ratios per layer.

    Every ``*_s`` figure is self time (span time minus wrapped children).
    *broker_stats* carries the directory hit ratio and probes per upload
    that the workload read off its fleet results.
    """
    t = tracer.totals()
    c, s = tracer.counts, tracer.sums

    def self_s(name: str) -> float:
        return t.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(t.get(name, {}).get("calls", 0))

    alloc_calls = calls("net.flows.alloc")
    transfers = c["net.engine.transfers"]
    plans = c["core.plans"]
    return {
        "transfer.digest_calls": calls("transfer.digest"),
        "transfer.digest_bytes": s["transfer.digest_bytes"],
        "transfer.digest_s": self_s("transfer.digest"),
        "transfer.dtn_stages": c["transfer.dtn_stages"],
        "transfer.rsync_pushes": c["transfer.rsync_pushes"],
        "net.flows.alloc_calls": alloc_calls,
        "net.flows.alloc_s": self_s("net.flows.alloc"),
        "net.flows.flows_per_alloc": _ratio(s["net.flows.flows"], alloc_calls),
        "net.engine.transfers": transfers,
        "net.engine.allocs_per_transfer": _ratio(alloc_calls, transfers),
        "net.engine.self_s": self_s("net.engine"),
        "sim.events": calls("sim.step"),
        "sim.scheduled": c["sim.scheduled"],
        "sim.cancelled": c["sim.cancelled"],
        "sim.cancel_ratio": _ratio(c["sim.cancelled"], c["sim.scheduled"]),
        "sim.step_self_s": self_s("sim.step"),
        "net.tcp.calls": calls("net.tcp"),
        "net.tcp.s": self_s("net.tcp"),
        "cloud.requests": c["cloud.requests"],
        "cloud.token_issues": c["cloud.token_issues"],
        "core.plans": plans,
        "core.detour_share": _ratio(s["core.detour_plans"], plans),
        "broker.recommend_calls": calls("broker.recommend"),
        "broker.recommend_s": self_s("broker.recommend"),
        "broker.report_s": self_s("broker.report"),
        "broker.hit_ratio": broker_stats.get("hit_ratio", 0.0),
        "broker.probes_per_upload": broker_stats.get("probes_per_upload", 0.0),
        "net.routing.resolve_calls": calls("net.routing.resolve"),
        "net.routing.resolve_s": self_s("net.routing.resolve"),
        "topo.generate_s": self_s("topo.generate"),
        "topo.arrays_s": self_s("topo.arrays"),
        "topo.routes_s": self_s("topo.routes"),
        "topo.route_cache_load_s": (self_s("topo.route_cache_load")
                                    + self_s("topo.routes_cached")),
        "topo.materialize_s": self_s("topo.materialize"),
        "testbed.builds": calls("testbed.build"),
        "testbed.build_s": self_s("testbed.build"),
        "measure.cell_s": self_s("measure.cell"),
        "campaign.cells_run": s["campaign.cells"],
        "campaign.store_put_s": self_s("campaign.store_put"),
        "campaign.store_get_s": self_s("campaign.store_get"),
        "campaign.store_bytes": s["campaign.store_bytes"],
        "shard.merge_s": self_s("shard.merge"),
        "shard.dir_publish_s": self_s("shard.dir_publish"),
        "shard.dir_fetch_s": self_s("shard.dir_fetch"),
        "workloads.schedule_s": self_s("workloads.schedule"),
    }
