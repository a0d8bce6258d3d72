"""Shard planning: stable partition, cell identity, streaming aggregation."""

import importlib

import pytest

from repro.broker.fleet import FleetResult, FleetUploadRecord, score_fleet
from repro.errors import ShardError
from repro.shard import FleetAggregator, ShardCell, ShardPlan, SiteReport
from repro.shard.plan import site_report_name

pytestmark = pytest.mark.shard

SITES = ("ubc", "purdue", "ucla", "umich")


def make_plan(**kw):
    defaults = dict(sites=SITES, n_uploads_per_site=2,
                    modes=("direct", "broker"), cross_traffic=False)
    defaults.update(kw)
    return ShardPlan(**defaults)


class TestPartition:
    def test_partition_is_a_stable_hash(self):
        plan = make_plan(n_shards=3)
        again = make_plan(n_shards=3)
        assert [plan.shard_of(s) for s in SITES] == \
            [again.shard_of(s) for s in SITES]

    def test_partition_independent_of_site_listing_order(self):
        plan = make_plan(n_shards=3)
        flipped = make_plan(sites=tuple(reversed(SITES)), n_shards=3)
        assert {s: plan.shard_of(s) for s in SITES} == \
            {s: flipped.shard_of(s) for s in SITES}

    def test_shards_cover_every_site_exactly_once(self):
        plan = make_plan(n_shards=3)
        seen = [s for bucket in plan.shards() for s in bucket]
        assert sorted(seen) == sorted(SITES)

    def test_single_shard_holds_the_whole_fleet(self):
        plan = make_plan(n_shards=1)
        assert plan.shards() == (SITES,)

    def test_partition_depends_on_seed(self):
        a = {s: make_plan(n_shards=4, seed=0).shard_of(s) for s in SITES}
        b = {s: make_plan(n_shards=4, seed=7).shard_of(s) for s in SITES}
        assert a != b  # sha256-derived; all-equal would be a 1/256 fluke


class TestPlanValidation:
    def test_rejects_duplicate_sites(self):
        with pytest.raises(ShardError, match="repeat"):
            make_plan(sites=("ubc", "ubc"))

    def test_rejects_empty_sites_and_modes(self):
        with pytest.raises(ShardError):
            make_plan(sites=())
        with pytest.raises(ShardError):
            make_plan(modes=())

    def test_rejects_bad_mode_and_shard_count(self):
        with pytest.raises(Exception):
            make_plan(modes=("teleport",))
        with pytest.raises(ShardError, match="n_shards"):
            make_plan(n_shards=0)

    def test_canonical_dict_round_trips(self):
        plan = make_plan(n_shards=3, seed=5, mean_size_mb=12.5)
        assert ShardPlan.from_dict(plan.canonical_dict()) == plan
        assert ShardPlan.from_dict(plan.canonical_dict()).plan_key == \
            plan.plan_key


class TestExpansion:
    def test_expand_is_shard_major_then_mode(self):
        plan = make_plan(n_shards=2)
        cells = plan.expand()
        assert [c.mode for c in cells] == ["direct", "broker"] * 2
        assert cells[0].shard_index == cells[1].shard_index
        assert all(isinstance(c, ShardCell) for c in cells)
        # every cell's sites match the partition
        shards = [s for s in plan.shards() if s]
        assert [c.sites for c in cells[::2]] == shards

    def test_warm_rides_only_broker_cells(self):
        from repro.broker.directory import DirectoryEntry, DirectorySnapshot

        snap = DirectorySnapshot((DirectoryEntry(
            "ubc", "gdrive", "le8MB", "direct", 10.0, 500.0, "probe"),))
        plan = make_plan(n_shards=1)
        cells = plan.expand(warm=snap)
        by_mode = {c.mode: c for c in cells}
        assert by_mode["broker"].warm is snap
        assert by_mode["broker"].warm_hash == snap.content_hash()[:24]
        assert by_mode["direct"].warm is None
        assert by_mode["direct"].warm_hash == ""

    def test_identity_only_expand_needs_no_snapshot(self):
        plan = make_plan(n_shards=2)
        cells = plan.expand(warm_hash="abc123")
        assert all(c.warm is None for c in cells)
        assert {c.warm_hash for c in cells if c.mode == "broker"} == {"abc123"}

    def test_cell_identity_round_trips(self):
        plan = make_plan(n_shards=2, seed=3)
        for cell in plan.expand(warm_hash="deadbeef"):
            rebuilt = ShardCell.from_identity(cell.identity())
            assert rebuilt == cell
            assert rebuilt.key == cell.key

    def test_warm_changes_broker_identity_only(self):
        plan = make_plan(n_shards=1)
        cold = {c.mode: c.key for c in plan.expand()}
        warm = {c.mode: c.key for c in plan.expand(warm_hash="abc")}
        assert cold["direct"] == warm["direct"]
        assert cold["broker"] != warm["broker"]

    def test_executing_warm_identity_without_snapshot_raises(self):
        plan = make_plan(n_shards=1)
        cell = [c for c in plan.expand(warm_hash="abc")
                if c.mode == "broker"][0]
        with pytest.raises(ShardError, match="carries no snapshot"):
            cell.run_measurement()


class TestSiteUnitIdentity:
    def test_report_name_is_partition_independent(self):
        one = make_plan(n_shards=1)
        four = make_plan(n_shards=4)
        for site in SITES:
            for mode in one.modes:
                assert one.site_report_name(site, mode) == \
                    four.site_report_name(site, mode)

    def test_report_name_ignores_warm_for_non_broker(self):
        plan = make_plan()
        assert plan.site_report_name("ubc", "direct", warm_hash="abc") == \
            plan.site_report_name("ubc", "direct")
        assert plan.site_report_name("ubc", "broker", warm_hash="abc") != \
            plan.site_report_name("ubc", "broker")

    def test_site_world_seed_excludes_mode_and_partition(self):
        one = make_plan(n_shards=1)
        cells_one = {c.mode: c for c in one.expand()}
        four = make_plan(n_shards=4)
        cells_four = [c for c in four.expand() if "ubc" in c.sites]
        seeds = {c.site_world_seed("ubc")
                 for c in list(cells_one.values()) + cells_four}
        assert len(seeds) == 1

    def test_site_report_name_helper_is_content_addressed(self):
        kw = dict(site="ubc", provider="gdrive", mode="broker",
                  n_uploads_per_site=2, mean_interarrival_s=60.0,
                  mean_size_mb=40.0, size_dist="lognormal", seed=0,
                  cross_traffic=False, config=None, topo=None, warm_hash="")
        assert site_report_name(**kw) == site_report_name(**kw)
        assert site_report_name(**kw).startswith("site-")
        assert site_report_name(**{**kw, "seed": 1}) != site_report_name(**kw)


def _record(i, site, duration, mode="x"):
    return FleetUploadRecord(index=i, client_site=site, provider_name="gdrive",
                             size_bytes=1000, start_s=float(i),
                             route_descr="direct", source=mode, spilled=False,
                             staleness_s=0.0, duration_s=duration)


def _report(site, mode, **kw):
    defaults = dict(site=site, mode=mode, seed=0, warm_hash="", n_uploads=2,
                    probes_issued=3, directory_hits=1, directory_misses=1,
                    directory_evictions=0, directory_warm_hits=0,
                    invalidations=0, admission_spills=0, snapshot=None)
    defaults.update(kw)
    return SiteReport(**defaults)


class TestAggregator:
    def test_matches_score_fleet_per_site(self):
        """Folding per-site streams reproduces score_fleet's aggregates."""
        durations = {"a": {"s1": [4.0, 2.0], "s2": [6.0, 8.0]},
                     "b": {"s1": [3.0, 5.0], "s2": [5.0, 1.0]}}
        agg = FleetAggregator(("a", "b"))
        for site in ("s1", "s2"):
            agg.fold_site(site, {m: iter(durations[m][site])
                                 for m in ("a", "b")})
        score = agg.score(("s1", "s2"))

        records = {m: [_record(i, site, d)
                       for site in ("s1", "s2")
                       for i, d in enumerate(durations[m][site])]
                   for m in ("a", "b")}
        expected = score_fleet(records)
        assert score.by_site == expected.by_site
        assert score.n_uploads == expected.n_uploads
        # mode means agree (summation order differs, so compare approx)
        for m in ("a", "b"):
            assert score.by_mode[m] == pytest.approx(expected.by_mode[m])

    def test_score_order_is_callers_not_fold_order(self):
        durations = {"a": {"s1": [4.0], "s2": [6.0], "s3": [1.0]},
                     "b": {"s1": [3.0], "s2": [5.0], "s3": [2.0]}}

        def folded(order):
            agg = FleetAggregator(("a", "b"))
            for site in order:
                agg.fold_site(site, {m: durations[m][site]
                                     for m in ("a", "b")})
            return agg.score(("s1", "s2", "s3"))

        assert folded(("s1", "s2", "s3")) == folded(("s3", "s1", "s2"))

    def test_state_is_o_sites(self):
        agg = FleetAggregator(("a", "b"))
        for i in range(10):
            agg.fold_site(f"s{i}", {"a": [1.0] * 50, "b": [2.0] * 50})
        assert agg.records_folded == 10 * 50 * 2
        assert agg.state_cells == 10 * (2 + 1)

    def test_double_fold_and_mismatches_raise(self):
        agg = FleetAggregator(("a", "b"))
        agg.fold_site("s1", {"a": [1.0], "b": [2.0]})
        with pytest.raises(ShardError, match="folded twice"):
            agg.fold_site("s1", {"a": [1.0], "b": [2.0]})
        with pytest.raises(ShardError, match="do not match"):
            agg.fold_site("s2", {"a": [1.0]})
        with pytest.raises(ShardError, match="disagree"):
            agg.fold_site("s3", {"a": [1.0, 2.0], "b": [2.0]})
        with pytest.raises(ShardError, match="never folded"):
            agg.score(("s1", "s2"))

    def test_rollup_aggregates_reports_per_mode(self):
        agg = FleetAggregator(("direct", "broker"))
        agg.fold_report(_report("s1", "broker", directory_hits=3,
                                directory_misses=1, directory_warm_hits=2,
                                n_uploads=4, probes_issued=6))
        agg.fold_report(_report("s2", "broker", directory_hits=1,
                                directory_misses=3, n_uploads=4,
                                probes_issued=2))
        agg.fold_report(_report("s1", "direct", probes_issued=0,
                                directory_hits=0, directory_misses=0))
        rollup = agg.rollup()
        broker = rollup["broker"]
        assert broker["uploads"] == 8.0
        assert broker["probes_per_upload"] == 1.0
        assert broker["hit_rate"] == 0.5
        assert broker["warm_hit_rate"] == 0.25
        assert rollup["direct"]["hit_rate"] == 0.0
        with pytest.raises(ShardError, match="not one of"):
            agg.fold_report(_report("s1", "static:via umich"))


class TestStreamingScoreFleet:
    """Satellite: score_fleet takes bare record iterators, single pass."""

    def test_iterators_match_fleet_results(self):
        recs_a = [_record(0, "s1", 4.0), _record(1, "s2", 6.0)]
        recs_b = [_record(0, "s1", 3.0), _record(1, "s2", 8.0)]
        full = score_fleet({
            "a": FleetResult("a", 0, tuple(recs_a), 0, 0, 0, 0),
            "b": FleetResult("b", 0, tuple(recs_b), 0, 0, 0, 0)})
        streamed = score_fleet({"a": iter(recs_a), "b": iter(recs_b)})
        assert streamed == full

    def test_one_shot_generators_are_consumed_once(self):
        def gen(records):
            yield from records

        score = score_fleet({"a": gen([_record(0, "s1", 4.0)]),
                             "b": gen([_record(0, "s1", 2.0)])})
        assert score.oracle_mean_s == 2.0
        assert score.by_mode["a"] == (4.0, 2.0)

    def test_length_mismatch_raises_mid_stream(self):
        from repro.errors import BrokerError

        with pytest.raises(BrokerError, match="disagree"):
            score_fleet({"a": iter([_record(0, "s1", 4.0)]),
                         "b": iter([_record(0, "s1", 2.0),
                                    _record(1, "s1", 3.0)])})


class TestCompileOncePerCell:
    """A generated-world cell compiles its spec once, not once per site."""

    def _cell(self, sites, cache_dir):
        from repro.topo import preset_spec

        return ShardCell(sites=sites, provider="gdrive", mode="direct",
                         n_uploads_per_site=2, mean_interarrival_s=60.0,
                         mean_size_mb=1.0, cross_traffic=False,
                         topo=preset_spec("smoke", seed=0),
                         cache_dir=str(cache_dir))

    def test_one_compile_for_a_multi_site_cell(self, tmp_path, monkeypatch):
        # repro.topo re-exports the materialize *function* under the
        # submodule's name, so fetch the module itself
        topo_materialize = importlib.import_module("repro.topo.materialize")
        calls = []
        real = topo_materialize.compile_spec

        def counting(*args, **kwargs):
            calls.append(kwargs.get("cache_dir"))
            return real(*args, **kwargs)

        monkeypatch.setattr(topo_materialize, "compile_spec", counting)
        cell = self._cell(("w9aca80-c0000", "w9aca80-c0001",
                           "w9aca80-c0002"), tmp_path)
        m = cell.run_measurement()
        assert calls == [str(tmp_path)]
        assert len(m.all_durations_s) == 6

    def test_shared_compile_matches_per_site_cells(self, tmp_path):
        sites = ("w9aca80-c0000", "w9aca80-c0001")
        joint = self._cell(sites, tmp_path).run_measurement()
        alone = [d for s in sites
                 for d in self._cell((s,), tmp_path).run_measurement()
                 .all_durations_s]
        assert list(joint.all_durations_s) == alone
