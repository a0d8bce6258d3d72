"""Fluid flow-level transfer engine on the discrete-event kernel.

Active transfers are fluid flows draining at their max-min fair share of
the directed link capacities they cross (recomputed on every flow arrival
or departure).  This is the standard flow-level abstraction for WAN
capacity studies: it keeps per-transfer cost at "a handful of events"
instead of per-packet, while preserving the bandwidth-sharing phenomena
the paper measures (congested peerings, policed egresses, last-mile caps).

Each transfer's link directions are interned once, at start, to dense
``int`` ids, so an allocation runs over int-keyed specs and a capacity
list indexed by id.  A reallocation reschedules a flow's completion
event only when the flow's rate changed; a flow whose rate held keeps
the completion time computed when that rate was set.

TCP behaviour enters in two places:

* a per-flow **rate ceiling** (the Mathis loss ceiling, computed by the
  caller from path loss/RTT) bounds the fair share,
* a **slow-start deficit**: the engine converts the ramp-up byte deficit
  into extra wire bytes at flow-start time (see ``start_transfer``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import inf, isfinite, ulp
from typing import Dict, List, Optional, Sequence

from repro import units
from repro.errors import TransferError
from repro.net.flows import FlowSpec, max_min_allocation
from repro.net.topology import LinkDirection, Topology
from repro.obs.metrics import DURATION_BUCKETS, RATE_BUCKETS, MetricsRegistry
from repro.sim.kernel import Handle, Signal, Simulator
from repro.sim.trace import Tracer

__all__ = ["NetworkEngine", "Transfer", "TransferResult"]

#: Completion-event drift allowance, in ulps of the sim clock: a flow's
#: own completion event may under-credit progress by at most this many
#: float-time grains times its byte rate (see ``_complete``).
_DRIFT_ULPS = 64.0


@dataclass(frozen=True)
class TransferResult:
    """Completion record for one flow."""

    label: str
    nbytes: float
    start_time: float
    end_time: float

    @property
    def duration_s(self) -> float:
        return self.end_time - self.start_time

    @property
    def mean_rate_bps(self) -> float:
        return units.throughput_bps(self.nbytes, self.duration_s)


@dataclass
class Transfer:
    """Handle for an in-flight flow."""

    flow_id: int
    label: str
    spec: FlowSpec
    payload_bytes: float
    wire_bytes: float  # payload + slow-start deficit
    start_time: float
    done: Signal
    remaining_bytes: float = 0.0
    rate_bps: float = 0.0
    _last_update: float = 0.0
    _completion_handle: Optional[Handle] = None
    #: ``spec`` over the engine's interned link ids (what is allocated)
    _alloc_spec: Optional[FlowSpec] = None

    @property
    def finished(self) -> bool:
        return self.done.triggered


class NetworkEngine:
    """Shared-bandwidth transfer execution over a topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        tracer: Optional[Tracer] = None,
        capacity_scale: Optional[Dict[str, float]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.topology = topology
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: optional per-link multiplicative capacity jitter for this run,
        #: keyed by link name (applied to both directions).
        self.capacity_scale = capacity_scale or {}
        self._flows: Dict[int, Transfer] = {}
        self._ids = itertools.count(1)
        #: dense id per link direction seen so far, and the capacity of
        #: each id (the allocator's capacity table)
        self._link_ids: Dict[LinkDirection, int] = {}
        self._link_caps: List[float] = []
        metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self.metrics = metrics
        self._m_started = metrics.counter(
            "repro_engine_flows_started_total", "Flows started")
        self._m_completed = metrics.counter(
            "repro_engine_flows_completed_total", "Flows completed")
        self._m_cancelled = metrics.counter(
            "repro_engine_flows_cancelled_total", "Flows cancelled")
        self._m_payload = metrics.counter(
            "repro_engine_payload_bytes_total", "Payload bytes delivered")
        self._m_reallocs = metrics.counter(
            "repro_engine_reallocations_total", "Max-min reallocation passes")
        self._m_active = metrics.gauge(
            "repro_engine_active_flows_count", "Flows currently in flight")
        self._m_duration = metrics.histogram(
            "repro_engine_flow_duration_seconds", "Per-flow transfer duration",
            buckets=DURATION_BUCKETS)
        self._m_throughput = metrics.histogram(
            "repro_engine_flow_throughput_bps", "Per-flow mean throughput",
            buckets=RATE_BUCKETS)

    # -- capacities -----------------------------------------------------------

    def capacity_of(self, direction: LinkDirection) -> float:
        """Effective capacity of one link direction (policed + jittered)."""
        return self._link_caps[self._link_id(direction)]

    def on_link_state_change(self, link_name: str) -> None:
        """React to a link failing or recovering: re-derive capacities and
        re-share bandwidth (flows pinned to a failed link starve at the
        residual rate until cancelled or the link returns)."""
        self.topology.link(link_name)  # validate
        for direction, link_id in self._link_ids.items():
            if direction.link_name == link_name:
                self._link_caps[link_id] = self._derive_capacity(direction)
        self._reallocate()

    def _link_id(self, direction: LinkDirection) -> int:
        """Dense id of *direction*, interning it (and its capacity) on first use."""
        link_id = self._link_ids.get(direction)
        if link_id is None:
            cap = self._derive_capacity(direction)
            link_id = self._link_ids[direction] = len(self._link_caps)
            self._link_caps.append(cap)
        return link_id

    def _derive_capacity(self, direction: LinkDirection) -> float:
        link = self.topology.link(direction.link_name)
        cap = link.effective_capacity_bps(direction.src)
        if not link.failed:
            cap *= self.capacity_scale.get(link.name, 1.0)
        return cap

    # -- public API -------------------------------------------------------------

    def start_transfer(
        self,
        directions: Sequence[LinkDirection],
        nbytes: float,
        ceiling_bps: float = inf,
        label: str = "",
        startup_deficit_bytes: float = 0.0,
    ) -> Transfer:
        """Begin a fluid transfer; returns a handle whose ``done`` signal
        fires with a :class:`TransferResult`.

        ``startup_deficit_bytes`` adds wire bytes representing the
        slow-start ramp deficit (computed by the caller's TCP model from
        the estimated initial rate).
        """
        if nbytes <= 0:
            raise TransferError(f"transfer size must be positive, got {nbytes}")
        if startup_deficit_bytes < 0:
            raise TransferError("startup deficit cannot be negative")
        if not directions and not isfinite(ceiling_bps):
            raise TransferError("transfer needs a path or a finite rate ceiling")
        flow_id = next(self._ids)
        wire = nbytes + startup_deficit_bytes
        link_ids = tuple(map(self._link_id, directions))
        transfer = Transfer(
            flow_id=flow_id,
            label=label or f"flow-{flow_id}",
            spec=FlowSpec(flow_id, tuple(directions), ceiling_bps),
            payload_bytes=nbytes,
            wire_bytes=wire,
            start_time=self.sim.now,
            done=Signal(self.sim, name=f"transfer-{flow_id}"),
            remaining_bytes=wire,
            _last_update=self.sim.now,
            _alloc_spec=FlowSpec(flow_id, link_ids, ceiling_bps),
        )
        self._flows[flow_id] = transfer
        self.tracer.emit(
            self.sim.now, "net.engine", "flow_start",
            flow=flow_id, label=transfer.label, bytes=int(nbytes),
        )
        self._m_started.inc()
        self._m_active.set(len(self._flows))
        self._reallocate()
        return transfer

    def estimate_rate(
        self, directions: Sequence[LinkDirection], ceiling_bps: float = inf
    ) -> float:
        """Rate a new flow would get right now (phantom allocation)."""
        phantom = FlowSpec("__phantom__", tuple(map(self._link_id, directions)),
                           ceiling_bps)
        specs = [t._alloc_spec for t in self._flows.values()] + [phantom]
        return max_min_allocation(specs, self._link_caps)["__phantom__"]

    def cancel(self, transfer: Transfer) -> None:
        """Abort an in-flight transfer; its ``done`` signal fails."""
        if transfer.finished or transfer.flow_id not in self._flows:
            return
        self._drain_all()
        self._remove(transfer)
        self._m_cancelled.inc()
        self._m_active.set(len(self._flows))
        transfer.done.fail(TransferError(f"transfer {transfer.label} cancelled"))
        self._reallocate()

    @property
    def active_count(self) -> int:
        return len(self._flows)

    def active_transfers(self) -> List[Transfer]:
        return list(self._flows.values())

    def utilization_of(self, direction: LinkDirection) -> float:
        """Fraction of a link direction's capacity currently allocated."""
        cap = self.capacity_of(direction)
        used = sum(
            t.rate_bps for t in self._flows.values() if direction in t.spec.resources
        )
        return used / cap

    # -- internals -----------------------------------------------------------

    def _drain_all(self) -> None:
        """Credit progress to every flow up to the current instant."""
        now = self.sim.now
        for t in self._flows.values():
            elapsed = now - t._last_update
            if elapsed > 0:
                t.remaining_bytes = max(
                    0.0, t.remaining_bytes - units.bytes_per_sec(t.rate_bps) * elapsed
                )
            t._last_update = now

    def _reallocate(self) -> None:
        self._drain_all()
        if not self._flows:
            return
        prof = self.sim.profiler
        if prof is None:
            self._do_reallocate()
        else:
            prof.count("net.engine.flows_touched", len(self._flows))
            t0 = prof.begin()
            try:
                rescheduled = self._do_reallocate()
            finally:
                prof.end_section("net.engine.reallocate", t0, self.sim.now)
            prof.count("net.engine.flows_rescheduled", rescheduled)

    def _do_reallocate(self) -> int:
        """Re-share bandwidth; returns how many completions it scheduled."""
        self._m_reallocs.inc()
        transfers = self._flows.values()
        alloc = max_min_allocation([t._alloc_spec for t in transfers], self._link_caps)
        _complete = self._complete
        sim_schedule = self.sim.schedule
        schedule_completion = self._schedule_completion
        rescheduled = 0
        for t in transfers:
            rate = alloc[t.flow_id]
            if t.remaining_bytes <= 1e-9:
                # Completed exactly at this instant.
                t.rate_bps = rate
                if t._completion_handle is not None:
                    t._completion_handle.cancel()
                    t._completion_handle = None
                sim_schedule(0.0, lambda t=t: _complete(t))
                rescheduled += 1
            elif rate != t.rate_bps or t._completion_handle is None:
                # An unchanged rate keeps its live completion event: its
                # time equals a recomputed now + remaining/rate up to the
                # rounding of the drains in between.
                t.rate_bps = rate
                rescheduled += schedule_completion(t)
        return rescheduled

    def _schedule_completion(self, t: Transfer) -> bool:
        """(Re)schedule *t*'s completion at its current rate; returns False
        for a starved flow (rate 0), which gets no event and stays until a
        reallocation frees capacity."""
        if t._completion_handle is not None:
            t._completion_handle.cancel()
            t._completion_handle = None
        if t.rate_bps <= 0:
            return False
        eta = units.transfer_seconds(t.remaining_bytes, t.rate_bps)
        t._completion_handle = self.sim.schedule(eta, lambda: self._complete(t))
        return True

    def _complete(self, transfer: Transfer) -> None:
        if transfer.finished or transfer.flow_id not in self._flows:
            return
        self._drain_all()
        # Draining quantizes progress on the float time axis, so at multi-
        # Gbit/s rates a flow's own completion event can arrive with a few
        # time-ulps' worth of bytes still on the books (eps(now) * rate/8 —
        # ~1e-4 B at t=4e3 s and 10 Gbit/s, above any fixed byte epsilon).
        # Anything beyond that drift must not complete the flow early.
        # Cancelled events never fire, so this is the flow's live event,
        # and a flow whose rate holds is never rescheduled by a
        # reallocation: schedule the rest now, or the flow would wedge.
        drift = (units.bytes_per_sec(transfer.rate_bps)
                 * _DRIFT_ULPS * ulp(max(self.sim.now, 1.0)))
        if transfer.remaining_bytes > max(1e-6, drift):
            self._schedule_completion(transfer)
            return
        self._remove(transfer)
        result = TransferResult(
            label=transfer.label,
            nbytes=transfer.payload_bytes,
            start_time=transfer.start_time,
            end_time=self.sim.now,
        )
        self.tracer.emit(
            self.sim.now, "net.engine", "flow_end",
            flow=transfer.flow_id, label=transfer.label,
            duration=round(result.duration_s, 6),
        )
        self._m_completed.inc()
        self._m_payload.inc(transfer.payload_bytes)
        prof = self.sim.profiler
        if prof is not None:
            prof.count_bytes("net.engine.payload", transfer.payload_bytes)
        self._m_active.set(len(self._flows))
        self._m_duration.observe(result.duration_s)
        self._m_throughput.observe(result.mean_rate_bps)
        transfer.done.trigger(result)
        self._reallocate()

    def _remove(self, transfer: Transfer) -> None:
        if transfer._completion_handle is not None:
            transfer._completion_handle.cancel()
            transfer._completion_handle = None
        self._flows.pop(transfer.flow_id, None)
