"""Differential test: the counting allocator against the water-filling oracle.

``max_min_allocation`` must return exactly the rates of the plain
water-filling allocator kept in ``tests/flows_oracle.py`` — compared with
``==``, not approx — including the order of the returned mapping.  The
problems are seeded and cover finite ceilings, a resource listed twice in
one flow, ceiling-only flows, Gbit/s capacities, and inputs that reach
the numerical-corner branch (no flow freezes in a round because
``room - (room / n) * n`` is still above epsilon).
"""

import random
from math import inf

import pytest

from repro.net import NetworkEngine
from repro.net import engine as net_engine
from repro.net.flows import FlowSpec, max_min_allocation
from repro.net.topology import Link, Node, NodeKind, Topology
from repro.sim import Simulator
from repro.units import gbps, mb
from tests.flows_oracle import water_filling_allocation

GBIT_CAPACITIES = (1e9, 2.5e9, 10e9, 40e9, 100e9)


def _random_problem(rng: random.Random):
    n_links = rng.randint(1, 10)
    capacities = {}
    for i in range(n_links):
        kind = rng.random()
        if kind < 0.4:
            cap = rng.choice(GBIT_CAPACITIES) * rng.choice((1.0, 1.0, rng.uniform(0.7, 1.3)))
        elif kind < 0.7:
            cap = rng.uniform(1e6, 1e10)
        else:
            cap = rng.uniform(0.5, 100.0)
        capacities[f"L{i}"] = cap
    names = sorted(capacities)
    flows = []
    for j in range(rng.randint(1, 24)):
        k = rng.randint(0, min(6, n_links))
        resources = [rng.choice(names) for _ in range(k)]
        if resources and rng.random() < 0.15:
            resources.append(resources[0])  # listed twice in one flow
        roll = rng.random()
        if roll < 0.5:
            ceiling = inf
        elif roll < 0.8:
            ceiling = rng.uniform(1e5, 5e9)
        else:
            ceiling = rng.uniform(0.1, 60.0)
        if not resources and ceiling == inf:
            ceiling = rng.uniform(1e5, 5e9)  # ceiling-only flow
        flows.append(FlowSpec(f"f{j}", tuple(resources), ceiling))
    return flows, capacities


def _assert_same(flows, capacities):
    got = max_min_allocation(flows, capacities)
    want = water_filling_allocation(flows, capacities)
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("seed", range(8))
def test_randomized_problems_bit_identical(seed):
    rng = random.Random(1000 + seed)
    for _ in range(400):
        _assert_same(*_random_problem(rng))


def test_resource_listed_twice_counts_once():
    flows = [FlowSpec("a", ("L", "M", "L")), FlowSpec("b", ("L",))]
    capacities = {"L": 10.0, "M": 100.0}
    _assert_same(flows, capacities)
    assert max_min_allocation(flows, capacities) == {"a": 5.0, "b": 5.0}


def test_ceiling_only_flows_mixed_with_links():
    flows = [FlowSpec("c1", (), 3e6), FlowSpec("c2", (), 7e9),
             FlowSpec("l1", ("L",)), FlowSpec("l2", ("L",), 1e9)]
    _assert_same(flows, {"L": 10e9})


def test_numerical_corner_branch_is_exercised():
    # Three unbounded flows on one Gbit/s-scale link: after the first
    # round the link keeps a residual above epsilon, so no flow freezes
    # and the allocator must fall back to freezing the closest flow.
    rng = random.Random(0)
    cap = next(c for c in (10e9 * rng.uniform(0.5, 2.0) for _ in range(100_000))
               if c - (c / 3) * 3 > 1e-9)
    assert cap - (cap / 3) * 3 > 1e-9
    flows = [FlowSpec(f"f{i}", ("L",)) for i in range(3)]
    _assert_same(flows, {"L": cap})
    # and inside a larger problem, with ceilings and other links
    flows += [FlowSpec("g", ("L", "M"), 2e9), FlowSpec("h", ("M",))]
    _assert_same(flows, {"L": cap, "M": 40e9})


def test_list_capacities_indexed_by_int_ids():
    flows = [FlowSpec(1, (0, 2)), FlowSpec(2, (1, 2), 4e8), FlowSpec(3, (0,))]
    capacities = [1e9, 2.5e9, 1e9]
    assert max_min_allocation(flows, capacities) == water_filling_allocation(
        flows, dict(enumerate(capacities)))


def test_every_engine_allocation_matches_the_oracle(monkeypatch):
    """Each allocation a busy engine makes equals the oracle's, call by call."""
    calls = []

    def checked(specs, capacities):
        got = max_min_allocation(specs, capacities)
        assert list(got.items()) == list(
            water_filling_allocation(specs, capacities).items())
        calls.append(len(specs))
        return got

    monkeypatch.setattr(net_engine, "max_min_allocation", checked)
    topo = Topology()
    for i in range(8):
        topo.add_node(Node(f"h{i}", NodeKind.HOST, 1, f"10.0.0.{i + 1}"))
    topo.add_node(Node("core", NodeKind.ROUTER, 1, "10.0.1.1"))
    for i in range(8):
        topo.add_link(Link(f"h{i}", "core", capacity_bps=gbps(1 + i % 3 * 4.5),
                           delay_s=0.001))
    sim = Simulator()
    engine = NetworkEngine(sim, topo)
    rng = random.Random(5)
    for k in range(120):
        src, dst = rng.sample(range(8), 2)
        hops = topo.path_directions([f"h{src}", "core", f"h{dst}"])
        ceiling = rng.choice((inf, gbps(0.8), gbps(3.3)))
        sim.schedule(rng.uniform(0, 20), lambda h=hops, c=ceiling, n=k:
                     engine.start_transfer(h, mb(50 + 13 * (n % 7)), ceiling_bps=c))
    sim.run()
    assert engine.active_count == 0
    assert len(calls) >= 200 and max(calls) >= 5
