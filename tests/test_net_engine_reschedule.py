"""Engine completion scheduling: reschedule only on a rate change.

A reallocation keeps a flow's live completion event when the flow's
rate did not change.  These tests pin that such a flow still completes
at the time an eager reschedule would give, that the kernel sees far
fewer ``Simulator.schedule`` calls, and that a live completion event
arriving early (residual above the drift allowance) is rescheduled, not
dropped — dropping it would wedge a flow no reallocation touches again.
"""

import pytest

from repro import units
from repro.net import NetworkEngine
from repro.net.topology import Link, Node, NodeKind, Topology
from repro.obs import KernelProfiler
from repro.sim import Simulator
from repro.units import gbps, mb, mbps

N_SIDE_FLOWS = 1000


def two_link_topology(long_bps: float, side_bps: float) -> Topology:
    """a--b carries the long flow; c--d, disjoint from it, carries the rest."""
    topo = Topology()
    for i, name in enumerate("abcd"):
        topo.add_node(Node(name, NodeKind.HOST, 1, f"10.0.0.{i + 1}"))
    topo.add_link(Link("a", "b", capacity_bps=long_bps, delay_s=0.001))
    topo.add_link(Link("c", "d", capacity_bps=side_bps, delay_s=0.001))
    return topo


class CountingSimulator(Simulator):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.schedule_calls = 0

    def schedule(self, delay, fn, priority=0):
        self.schedule_calls += 1
        return super().schedule(delay, fn, priority)


def test_unchanged_rate_flow_keeps_its_completion_among_1000_side_flows():
    # Start late on the clock and at 10 Gbit/s: the float-drift regime in
    # which a recomputed completion used to arrive early and wedge.
    start = 4000.0
    long_bps, side_bps = gbps(10), gbps(40)
    topo = two_link_topology(long_bps, side_bps)
    sim = CountingSimulator(start=start)
    engine = NetworkEngine(sim, topo)
    long_path = topo.path_directions(["a", "b"])
    side_path = topo.path_directions(["c", "d"])
    nbytes = mb(10_000)  # 8 s at 10 Gbit/s
    side_bytes = mb(10)  # 2 ms at 40 Gbit/s

    transfer = engine.start_transfer(long_path, nbytes)
    for k in range(N_SIDE_FLOWS):
        sim.schedule(0.005 * k + 0.001,
                     lambda: engine.start_transfer(side_path, side_bytes))
    calls_before_run = sim.schedule_calls
    sim.run()

    assert transfer.finished, "the long flow wedged"
    assert engine.active_count == 0
    eager = start + units.transfer_seconds(nbytes, long_bps)
    assert transfer.done.value.end_time == pytest.approx(eager, rel=1e-12, abs=0)
    # Each side flow costs one completion event; its start and finish
    # reallocations leave the long flow's event alone.  Rescheduling every
    # flow on every reallocation would add 2 * N_SIDE_FLOWS more.
    run_calls = sim.schedule_calls - calls_before_run
    assert run_calls <= N_SIDE_FLOWS + 10


def test_flows_rescheduled_is_counted_next_to_flows_touched():
    topo = two_link_topology(gbps(10), gbps(40))
    prof = KernelProfiler()
    sim = Simulator(profiler=prof)
    engine = NetworkEngine(sim, topo)
    engine.start_transfer(topo.path_directions(["a", "b"]), mb(100))
    for k in range(5):
        sim.schedule(0.01 * (k + 1), lambda: engine.start_transfer(
            topo.path_directions(["c", "d"]), mb(1)))
    sim.run()
    counts = dict(prof.counts())
    assert counts["net.engine.flows_touched"] > counts["net.engine.flows_rescheduled"]
    # the long flow is scheduled once; each side flow once
    assert counts["net.engine.flows_rescheduled"] == 6


def test_early_live_completion_is_rescheduled_not_dropped():
    topo = two_link_topology(mbps(10), mbps(10))
    sim = Simulator()
    engine = NetworkEngine(sim, topo)
    transfer = engine.start_transfer(topo.path_directions(["a", "b"]), mb(1))
    extra = 1000.0

    def add_bytes():
        # Bytes appear that the scheduled completion does not know about,
        # and no reallocation follows: the live event fires 1000 B early.
        engine._drain_all()
        transfer.remaining_bytes += extra

    sim.schedule(0.4, add_bytes)
    sim.run()
    assert transfer.finished, "an early live completion event was dropped"
    expected = units.transfer_seconds(mb(1) + extra, mbps(10))
    assert transfer.done.value.end_time == pytest.approx(expected, rel=1e-12)
