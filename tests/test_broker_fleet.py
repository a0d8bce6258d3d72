"""Fleet runs: determinism, broker-off bit-identity, policy behavior."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.broker import BrokerConfig, DetourBroker, FleetRunner, run_fleet, score_fleet
from repro.errors import BrokerError
from repro.testbed import build_case_study
from repro.workloads import fleet_population_schedule

pytestmark = pytest.mark.broker

SITES = ("ubc", "purdue")

#: The broker-off control: exactly the kernel operations FleetRunner
#: performs in ``direct`` mode, written against the pre-broker API only.
#: Run in a subprocess so the interpreter provably never imported
#: ``repro.broker`` (asserted before and after the simulation).
NAIVE_DIRECT_FLEET = """
import json, sys
from repro.core.executor import PlanExecutor
from repro.core.routes import DirectRoute, TransferPlan
from repro.sim.kernel import AllOf
from repro.testbed import build_case_study
from repro.workloads import fleet_population_schedule

assert "repro.broker" not in sys.modules
world = build_case_study(seed=5, cross_traffic=True)
sched = fleet_population_schedule(("ubc", "purdue"), "gdrive", 4, 60.0, 20.0, seed=5)
executor = PlanExecutor(world)
durations = [None] * len(sched.uploads)

def one(i, u):
    delay = u.start_s - world.sim.now
    if delay > 0:
        yield delay
    plan = TransferPlan(u.client_site, u.provider_name, u.file, DirectRoute())
    result = yield from executor.execute(plan)
    durations[i] = result.total_s

procs = [world.sim.process(one(i, u), name=f"fleet:{i}")
         for i, u in enumerate(sched.uploads)]

def drive():
    yield AllOf(procs)

driver = world.sim.process(drive(), name="fleet-drive")
world.sim.run_until_triggered(driver.done, horizon=1e7)
assert driver.finished
assert "repro.broker" not in sys.modules
print(json.dumps(durations))
"""


class TestBitIdentity:
    def test_direct_mode_matches_world_that_never_imported_broker(self):
        src_dir = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", NAIVE_DIRECT_FLEET],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin"},
        )
        naive = json.loads(proc.stdout)
        result = run_fleet(5, SITES, n_uploads_per_site=4,
                           mean_interarrival_s=60.0, mean_size_mb=20.0,
                           cross_traffic=True, mode="direct")
        assert list(result.durations_s) == naive
        assert result.probes_issued == 0
        assert result.directory_hits == result.directory_misses == 0


class TestDeterminism:
    def test_broker_fleet_identical_across_two_runs(self):
        a = run_fleet(11, SITES, n_uploads_per_site=4, cross_traffic=True)
        b = run_fleet(11, SITES, n_uploads_per_site=4, cross_traffic=True)
        assert json.dumps(a.to_dict(), sort_keys=True) == \
            json.dumps(b.to_dict(), sort_keys=True)

    def test_different_seed_differs(self):
        a = run_fleet(11, SITES, n_uploads_per_site=4, cross_traffic=False)
        b = run_fleet(12, SITES, n_uploads_per_site=4, cross_traffic=False)
        assert a.to_dict() != b.to_dict()


class TestPolicies:
    def test_broker_learns_and_beats_direct_on_policed_client(self):
        direct = run_fleet(3, ("ubc",), n_uploads_per_site=6,
                           cross_traffic=False, mode="direct")
        broker = run_fleet(3, ("ubc",), n_uploads_per_site=6,
                           cross_traffic=False, mode="broker")
        # ubc's direct route is policed to ~9.6 Mbps; warmup probes find
        # the ualberta detour before the first upload even starts
        assert broker.mean_transfer_s < direct.mean_transfer_s
        assert all(r.route_descr != "direct" for r in broker.records)

    def test_static_self_detour_falls_back_to_direct(self):
        result = run_fleet(3, ("ubc",), n_uploads_per_site=2,
                           cross_traffic=False, mode="static:via ualberta")
        assert all(r.route_descr == "via ualberta" for r in result.records)
        world = build_case_study(seed=3, cross_traffic=False)
        sched = fleet_population_schedule(("ualberta",), "gdrive", 2, 60.0,
                                          20.0, seed=3)
        runner = FleetRunner(world, sched, mode="static:via ualberta")
        records = runner.run().records
        assert all(r.route_descr == "direct" for r in records)

    def test_probe_budget_is_honored(self):
        cfg = BrokerConfig(max_probes=2, warmup=True)
        result = run_fleet(3, ("ubc",), n_uploads_per_site=4,
                           cross_traffic=False, config=cfg)
        assert result.probes_issued <= 2

    def test_mode_validation(self):
        world = build_case_study(seed=0, cross_traffic=False)
        sched = fleet_population_schedule(("ubc",), "gdrive", 2, 60.0, 20.0)
        with pytest.raises(BrokerError):
            FleetRunner(world, sched, mode="static:")
        with pytest.raises(BrokerError):
            FleetRunner(world, sched, mode="greedy")
        with pytest.raises(BrokerError):
            FleetRunner(world, sched, mode="broker")  # no broker given
        with pytest.raises(BrokerError):
            FleetRunner(world, sched, mode="direct",
                        broker=DetourBroker(world, pairs=[("ubc", "gdrive")]))


class TestScoring:
    def test_score_fleet_regret(self):
        kw = dict(n_uploads_per_site=3, cross_traffic=False)
        results = {
            "direct": run_fleet(2, ("ubc",), mode="direct", **kw),
            "broker": run_fleet(2, ("ubc",), mode="broker", **kw),
        }
        score = score_fleet(results)
        assert score.n_uploads == 3
        # the oracle is at least as fast as every policy
        for mode in results:
            assert score.by_mode[mode][0] >= score.oracle_mean_s
            assert score.by_mode[mode][1] >= 0.0
        assert "regret" in score.render()

    def test_score_fleet_validation(self):
        with pytest.raises(BrokerError):
            score_fleet({})
        a = run_fleet(2, ("ubc",), n_uploads_per_site=2, cross_traffic=False,
                      mode="direct")
        b = run_fleet(2, ("ubc",), n_uploads_per_site=3, cross_traffic=False,
                      mode="direct")
        with pytest.raises(BrokerError):
            score_fleet({"a": a, "b": b})


class TestRollups:
    @pytest.fixture(scope="class")
    def scored(self):
        kw = dict(n_uploads_per_site=3, cross_traffic=False)
        results = {
            "direct": run_fleet(2, SITES, mode="direct", **kw),
            "broker": run_fleet(2, SITES, mode="broker", **kw),
        }
        return results, score_fleet(results)

    def test_by_site_partitions_the_by_mode_aggregate(self, scored):
        results, score = scored
        for mode, result in results.items():
            site_counts = {}
            for rec in result.records:
                site_counts[rec.client_site] = \
                    site_counts.get(rec.client_site, 0) + 1
            assert set(site_counts) == set(SITES)
            # weighted site means recompose the policy mean
            weighted = sum(score.by_site[(mode, s)][0] * n
                           for s, n in site_counts.items())
            assert weighted / score.n_uploads \
                == pytest.approx(score.by_mode[mode][0])
            for site in SITES:
                assert score.by_site[(mode, site)][1] >= 0.0

    def test_render_per_site_lists_every_site(self, scored):
        _, score = scored
        text = score.render(per_site=True)
        for site in SITES:
            assert site in text
        assert all(site not in score.render() for site in SITES)

    def test_to_metrics_exports_mode_and_site_series(self, scored):
        from repro.obs import MetricsRegistry, render_prometheus

        _, score = scored
        registry = MetricsRegistry()
        score.to_metrics(registry)
        mean_g = registry.get("repro_broker_fleet_mean_transfer_seconds")
        for mode in ("direct", "broker"):
            assert mean_g.value(mode=mode) \
                == pytest.approx(score.by_mode[mode][0])
            for site in SITES:
                assert mean_g.value(mode=mode, site=site) \
                    == pytest.approx(score.by_site[(mode, site)][0])
        assert registry.get("repro_broker_fleet_oracle_mean_seconds").value() \
            == pytest.approx(score.oracle_mean_s)
        text = render_prometheus(registry)
        assert 'mode="broker",site="purdue"' in text
        assert "# TYPE repro_broker_fleet_regret_mean_seconds gauge" in text

    def test_fleet_runner_per_site_instrumentation(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        result = run_fleet(2, SITES, n_uploads_per_site=3,
                           cross_traffic=False, mode="direct",
                           metrics=registry)
        uploads = registry.get("repro_broker_fleet_uploads_total")
        nbytes = registry.get("repro_broker_fleet_payload_bytes_total")
        source = registry.get("repro_broker_fleet_route_source_total")
        assert uploads.total() == len(result.records)
        for site in SITES:
            site_records = [r for r in result.records
                            if r.client_site == site]
            assert uploads.value(mode="direct", site=site) \
                == len(site_records)
            assert nbytes.value(site=site) \
                == sum(r.size_bytes for r in site_records)
        assert source.value(source="direct") == len(result.records)


class TestAbandonedControlPlane:
    """``FleetRunner.run`` abandons the broker's process when the run stops.

    Oracle: the same run with ``Process.abandon`` patched to do nothing,
    which leaves the control plane parked in the world as it was before
    the runner stopped it.  Everything a caller reads after ``run()``
    must be the same either way — also when a probe is still in flight
    at the end (seed 1's ``purdue`` site with these settings).
    """

    CELL = dict(sites=("ubc", "purdue"), provider="gdrive", mode="broker",
                n_uploads_per_site=6, mean_interarrival_s=10.0,
                mean_size_mb=2.0, cross_traffic=False, seed=1)

    @staticmethod
    def _spy_live_events(monkeypatch, parked):
        """Patch ``Process.abandon``; returns the live events left after each call."""
        from repro.sim.kernel import Process

        real = Process.abandon
        left = []

        def spy(self):
            if not parked:
                real(self)
            left.append(sum(1 for *_, handle in self.sim._heap
                            if handle.active))

        monkeypatch.setattr(Process, "abandon", spy)
        return left

    def _shard_site_outputs(self, monkeypatch, parked):
        from repro.shard.plan import ShardCell

        left = self._spy_live_events(monkeypatch, parked)
        cell = ShardCell(**self.CELL)
        out = []
        for site in cell.sites:
            result, report, site_metrics = cell._run_site(site, None)
            out.append((result, report.to_dict(), site_metrics.collect()))
        return out, left

    def test_shard_reports_and_metrics_match_a_parked_control_plane(
            self, monkeypatch):
        abandoned, left = self._shard_site_outputs(monkeypatch, parked=False)
        # purdue's run ends mid-probe: its flow's completion is still due
        assert left[0] == 0 and left[1] > 0
        parked, parked_left = self._shard_site_outputs(monkeypatch,
                                                       parked=True)
        assert all(n > 0 for n in parked_left)
        assert abandoned == parked

    def test_trace_and_clock_match_a_parked_control_plane(self, monkeypatch):
        def run(parked):
            left = self._spy_live_events(monkeypatch, parked)
            world = build_case_study(seed=1, trace=True, cross_traffic=False)
            sched = fleet_population_schedule(SITES, "gdrive", 6, 10.0, 2.0,
                                              seed=1)
            broker = DetourBroker(world, pairs=[(s, "gdrive") for s in SITES])
            result = FleetRunner(world, sched, mode="broker",
                                 broker=broker).run()
            return (result, world.sim.now, len(world.engine._flows),
                    [str(ev) for ev in world.tracer.events],
                    broker._process.finished, left)

        abandoned, parked = run(False), run(True)
        assert abandoned[:5] == parked[:5]
        assert abandoned[3]  # the trace is not empty
        assert not abandoned[4]  # abandoned, never finished
        assert abandoned[5] == [1]  # a probe's completion is still due
