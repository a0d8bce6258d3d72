"""Worlds and kernel combinators are freed by reference counting.

A fleet run materializes one world per unit; anything left in a
reference cycle lives until a full garbage collection, so finished or
abandoned worlds pile up and raise peak memory.  Each test disables the
cyclic collector and checks, through a weak reference, that dropping the
last reference frees the object at once.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.broker import DetourBroker, FleetRunner
from repro.net import ASGraph, AutonomousSystem
from repro.sim import AllOf, AnyOf, Signal, Simulator
from repro.topo import compile_spec, materialize, preset_spec
from repro.testbed import build_case_study
from repro.testbed.build import case_study_topo_spec
from repro.workloads import fleet_population_schedule


@contextmanager
def no_cyclic_gc():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("spec", [case_study_topo_spec(),
                                  preset_spec("metro", seed=7)],
                         ids=["case-study", "metro-7"])
def test_materialized_world_that_never_runs_is_freed(spec):
    compiled = compile_spec(spec, routes=True)
    with no_cyclic_gc():
        world = materialize(compiled, seed=3)
        refs = [weakref.ref(obj) for obj in (
            world, world.sim, world.engine, world.router, world.as_graph,
            world.topology)]
        del world
        assert [r() for r in refs] == [None] * len(refs)


def test_validated_as_graph_is_freed():
    with no_cyclic_gc():
        graph = ASGraph()
        for asn in (1, 2, 3, 4):
            graph.add_as(AutonomousSystem(asn, f"as{asn}"))
        graph.add_customer(1, 2)
        graph.add_customer(2, 3)
        graph.add_customer(1, 4)
        graph.validate()
        ref = weakref.ref(graph)
        del graph
        assert ref() is None


@pytest.mark.parametrize("combinator", [AllOf, AnyOf])
def test_resolved_combinator_leaves_no_cycle(combinator):
    with no_cyclic_gc():
        sim = Simulator()
        signals = [Signal(sim) for _ in range(3)]

        def joiner():
            return (yield combinator(signals))

        proc = sim.process(joiner())
        for i in range(3):
            sim.schedule(i + 1.0, lambda i=i: signals[i].trigger(i))
        sim.run()
        assert proc.result in ([0, 1, 2], (0, 0))
        ref = weakref.ref(sim)
        del sim, signals, proc
        assert ref() is None


def test_failed_allof_leaves_no_cycle():
    with no_cyclic_gc():
        sim = Simulator()
        signals = [Signal(sim) for _ in range(2)]

        def joiner():
            try:
                yield AllOf(signals)
            except RuntimeError:
                return "failed"

        proc = sim.process(joiner())
        sim.schedule(1.0, lambda: signals[0].fail(RuntimeError("x")))
        sim.run()
        assert proc.result == "failed"
        ref = weakref.ref(sim)
        del sim, signals, proc
        assert ref() is None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_finished_broker_fleet_abandons_its_control_plane(seed):
    """The broker loop is perpetual; the runner abandons it when the fleet
    is done, so no parked process keeps the finished world in a cycle
    (these fleets end with no probe in flight)."""
    with no_cyclic_gc():
        world = build_case_study(seed=seed, cross_traffic=False)
        sched = fleet_population_schedule(("ubc", "purdue"), "gdrive", 3,
                                          60.0, 20.0, seed=seed)
        broker = DetourBroker(world, pairs=[("ubc", "gdrive"),
                                            ("purdue", "gdrive")])
        runner = FleetRunner(world, sched, mode="broker", broker=broker)
        result = runner.run()
        assert len(result.records) == len(sched.uploads)
        assert not any(handle.active for *_, handle in world.sim._heap)
        refs = [weakref.ref(obj) for obj in (world, broker, world.router)]
        del world, broker, runner, result
        assert [r() for r in refs] == [None] * len(refs)


def test_unhandled_interrupt_leaves_no_cycle():
    with no_cyclic_gc():
        sim = Simulator()

        def sleeper():
            yield 10.0

        proc = sim.process(sleeper())
        sim.schedule(1.0, lambda: proc.interrupt("stop"))
        sim.run()
        assert proc.finished and proc.result is None
        ref = weakref.ref(sim)
        del sim, proc
        assert ref() is None
