"""The detour broker: one control plane serving a fleet of clients.

``DetourBroker`` wires the pieces together inside one :class:`World`:

* a shared :class:`~repro.core.selection.HistorySelector` (EWMA per
  (client, provider, route), with sim-clock staleness decay) fed by both
  scheduler probes and served clients' transfer reports,
* per-pair :class:`~repro.core.monitor.BottleneckMonitor` instances whose
  dead-route events invalidate the directory,
* the TTL'd :class:`~repro.broker.directory.RouteDirectory` serving tier,
* the budgeted :class:`~repro.broker.scheduler.ProbeScheduler` process,
* DTN load-aware :class:`~repro.broker.admission.AdmissionController`.

The serving path (:meth:`DetourBroker.recommend`) is pure bookkeeping —
no simulated time passes answering a query, matching a control plane
whose RPC latency is negligible next to a multi-minute upload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.monitor import BottleneckMonitor
from repro.core.routes import DirectRoute, Route
from repro.core.selection import HistorySelector, SelectionContext
from repro.core.world import World
from repro.errors import BrokerError
from repro.sim.kernel import Process

from repro.broker.admission import AdmissionController
from repro.broker.config import BrokerConfig
from repro.broker.directory import DirectorySnapshot, RouteDirectory
from repro.broker.scheduler import ProbeScheduler

__all__ = ["Recommendation", "DetourBroker"]


@dataclass(frozen=True)
class Recommendation:
    """One answer from the broker's serving path."""

    route: Route
    #: "directory" (cache hit), "history" (estimate-backed miss), or
    #: "default" (no usable information: direct).
    source: str
    #: True when DTN admission spilled a detour onto the direct route.
    spilled: bool
    #: Age (sim seconds) of the information backing the answer.
    staleness_s: float


class DetourBroker:
    """In-simulation detour-brokerage control plane."""

    def __init__(
        self,
        world: World,
        pairs: Optional[Sequence[Tuple[str, str]]] = None,
        config: Optional[BrokerConfig] = None,
        warm: Optional[DirectorySnapshot] = None,
    ):
        self.world = world
        self.config = config if config is not None else BrokerConfig()
        if pairs is None:
            pairs = [(c, p) for c in world.client_sites()
                     for p in sorted(world.providers)]
        if not pairs:
            raise BrokerError("broker needs at least one (client, provider) pair")
        self.pairs = tuple(pairs)
        #: candidate detour sites per client: every DTN site except itself
        self.vias: Dict[str, Tuple[str, ...]] = {}
        for client, _provider in self.pairs:
            self.vias.setdefault(
                client,
                tuple(v for v in sorted(world.dtns) if v != client))

        self.history = HistorySelector(
            alpha=self.config.history_alpha,
            epsilon=0.0,
            rng=world.rng.stream("broker.explore"),
            half_life_s=self.config.half_life_s,
            clock=lambda: world.sim.now,
            min_freshness=self.config.min_freshness,
        )
        self.directory = RouteDirectory(world, self.config)
        if warm is not None:
            # Warm the serving tier from a shared snapshot, restricted to
            # the pairs this broker actually serves: entries for foreign
            # cohorts would only distort the entries gauge and
            # invalidation counts without ever being looked up.
            self.directory.preload(warm.restricted(self.pairs))
        self.admission = AdmissionController(world, self.config)
        self.monitors: Dict[Tuple[str, str], BottleneckMonitor] = {}
        for client, provider in self.pairs:
            monitor = BottleneckMonitor(
                world, client, provider, self.vias[client],
                probe_bytes=self.config.probe_bytes)
            monitor.on_dead(self.directory.invalidate_route)
            self.monitors[(client, provider)] = monitor
        self.scheduler = ProbeScheduler(
            world, self.pairs, self.vias, self.history, self.monitors,
            self.directory, self.config)
        self._process: Optional[Process] = None

        metrics = world.metrics
        self._m_recommendations = metrics.counter(
            "repro_broker_recommendations_total",
            "Recommendations served, by information source")
        self._m_reports = metrics.counter(
            "repro_broker_reports_total", "Transfer outcomes reported back")
        self._m_staleness = metrics.histogram(
            "repro_broker_recommendation_staleness_seconds",
            "Age of the information backing each recommendation")
        self._m_hit_ratio = metrics.gauge(
            "repro_broker_directory_hit_ratio", "Directory hit rate so far")

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> Process:
        """Spawn the control plane's kernel process (warmup, then the loop)."""
        if self._process is not None:
            raise BrokerError("broker already started")

        # Closes over the scheduler, not the broker: the broker holds this
        # process, so a generator referring back to it would be a
        # reference cycle keeping an abandoned broker and its world alive.
        scheduler, warmup = self.scheduler, self.config.warmup

        def _main():
            if warmup:
                yield from scheduler.warmup()
            yield from scheduler.run()

        self._process = self.world.sim.process(_main(), name="broker")
        return self._process

    def stop(self) -> None:
        if self._process is not None and not self._process.finished:
            self._process.interrupt("broker stopped")

    @property
    def probes_issued(self) -> int:
        return self.scheduler.probes_issued

    # -- the serving path ------------------------------------------------------

    def _ctx(self, client: str, provider: str, size_bytes: int) -> SelectionContext:
        try:
            vias = self.vias[client]
        except KeyError:
            raise BrokerError(
                f"broker does not serve client {client!r}; pairs: "
                f"{sorted(set(c for c, _ in self.pairs))}") from None
        return SelectionContext(self.world, client, provider, size_bytes, vias)

    def _best_from_history(self, ctx: SelectionContext) -> Optional[Route]:
        """The freshest-informed fastest route, or None if nothing usable."""
        best: Optional[Route] = None
        best_est = float("inf")
        for route in ctx.routes():
            if self.history.freshness(ctx, route) < self.config.min_freshness:
                continue
            est = self.history.estimate_s(ctx, route)
            if est is not None and est > 0 and est < best_est:
                best, best_est = route, est
        return best

    def recommend(self, client_site: str, provider_name: str,
                  size_bytes: int) -> Recommendation:
        """Answer one client query (no simulated time passes)."""
        from repro.campaign.spec import route_from_string

        now = self.world.sim.now
        ctx = self._ctx(client_site, provider_name, size_bytes)
        entry = self.directory.lookup(client_site, provider_name, size_bytes)
        if entry is not None:
            route: Route = route_from_string(entry.route_descr)
            source = "directory"
            # Clamp: a warm-preloaded entry can carry an install time
            # ahead of this (fresh) world's clock; in-process entries are
            # always in the past, so the clamp never changes them.
            staleness_s = max(0.0, entry.age_s(now))
        else:
            best = self._best_from_history(ctx)
            if best is not None:
                route = best
                source = "history"
                updated = self.history.last_update_s(ctx, best)
                staleness_s = now - updated if updated is not None else 0.0
                self.directory.install(client_site, provider_name, size_bytes,
                                       route.describe(), source="history")
            else:
                route = DirectRoute()
                source = "default"
                staleness_s = 0.0
        if source != "default":
            self._m_staleness.observe(staleness_s)
        route, spilled = self.admission.admit(route)
        self._m_recommendations.inc(source=source,
                                    client=client_site, provider=provider_name)
        self._m_hit_ratio.set(self.directory.hit_ratio)
        return Recommendation(route=route, source=source, spilled=spilled,
                              staleness_s=staleness_s)

    def report(self, client_site: str, provider_name: str, route: Route,
               size_bytes: int, duration_s: float) -> None:
        """Feed a realized transfer outcome back into the shared history.

        If the new evidence dethrones the route the directory is serving
        this cohort, the cached entry is superseded (invalidated), so the
        next query re-derives from history instead of riding a refuted
        recommendation to the end of its TTL.
        """
        ctx = self._ctx(client_site, provider_name, size_bytes)
        self.history.update(ctx, route, size_bytes, duration_s)
        self._m_reports.inc(client=client_site, provider=provider_name,
                            route=route.describe())
        entry = self.directory.peek(client_site, provider_name, size_bytes)
        if entry is not None:
            best = self._best_from_history(ctx)
            if best is not None and best.describe() != entry.route_descr:
                self.directory.invalidate_entry(client_site, provider_name,
                                                size_bytes, reason="superseded")
