"""repro.topo: specs, the generator, compiled arrays, the route cache.

The invariants pinned here are the subsystem's contract (see
``docs/TOPOLOGY.md``):

* a spec's content hash is stable and names the world;
* generation and compilation are pure functions of the spec — two
  *processes* agree on every compiled byte (``content_digest``);
* ITDK export → ingest reproduces the exact compiled arrays;
* the on-disk route cache hits when warm, recomputes when absent, and
  survives (counts, ignores, overwrites) corrupt entries.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import RoutingError, TopoError, TopologyError
from repro.net import Node, NodeKind, Topology
from repro.net.routing import ResolvedPath, Router, preloaded_hops
from repro.testbed import build_geo_registry, case_study_topo_spec
from repro.topo import (
    CompiledTopology,
    PRESETS,
    RouteCache,
    TopoInstrumentation,
    TopoSpec,
    build_skeleton,
    compile_graph,
    compile_spec,
    export_itdk,
    generate,
    ingest_itdk,
    materialize,
    preset_spec,
)
from repro.topo.compiled import ARRAY_FIELDS

pytestmark = pytest.mark.topo

SMOKE = preset_spec("smoke", seed=0)


class TestSpec:
    def test_content_hash_stable_and_seed_sensitive(self):
        assert SMOKE.content_hash() == preset_spec("smoke", seed=0).content_hash()
        assert SMOKE.content_hash() != preset_spec("smoke", seed=1).content_hash()
        assert SMOKE.tag == f"w{SMOKE.content_hash()[:6]}"

    def test_json_round_trip(self):
        clone = TopoSpec.from_json(SMOKE.to_json())
        assert clone == SMOKE
        assert clone.content_hash() == SMOKE.content_hash()

    def test_rejects_unknown_preset_and_bad_source(self):
        with pytest.raises(TopoError):
            preset_spec("galaxy")
        with pytest.raises(TopoError):
            TopoSpec(name="x", source="telepathic")

    def test_presets_cover_the_scale_ladder(self):
        assert set(PRESETS) == {"smoke", "metro", "internet"}
        stats = generate(preset_spec("internet", seed=7)).stats()
        assert stats["ases"] >= 1000 and stats["sites"] >= 2000


class TestGenerator:
    def test_deterministic(self):
        assert generate(SMOKE) == generate(SMOKE)

    def test_seed_changes_the_graph(self):
        other = generate(preset_spec("smoke", seed=1))
        assert generate(SMOKE) != other

    def test_graph_shape(self):
        g = generate(SMOKE)
        stats = g.stats()
        assert stats["dtns"] == 1 and stats["providers"] == 2
        assert stats["hosts"] > 0 and stats["links"] >= stats["nodes"] - 1


class TestCompiled:
    def test_digest_identical_across_processes(self, tmp_path):
        compiled = compile_spec(SMOKE, routes=True)
        src_dir = Path(__file__).resolve().parent.parent / "src"
        script = (
            "from repro.topo import compile_spec, preset_spec\n"
            "spec = preset_spec('smoke', seed=0)\n"
            "print(compile_spec(spec, routes=True).content_digest())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin"},
        )
        assert proc.stdout.strip() == compiled.content_digest()

    def test_save_load_round_trip(self, tmp_path):
        compiled = compile_spec(SMOKE, routes=True)
        path = str(tmp_path / "smoke.npz")
        compiled.save(path)
        clone = CompiledTopology.load(path)
        assert clone.content_digest() == compiled.content_digest()
        assert clone.describe() == compiled.describe()

    def test_to_graph_is_lossless(self):
        compiled = compile_spec(SMOKE, routes=False)
        assert compiled.to_graph() == generate(SMOKE)

    def test_routes_off_means_no_routes(self):
        assert compile_spec(SMOKE, routes=False).n_routes == 0
        assert compile_spec(SMOKE, routes=True).n_routes > 0

    def test_skeleton_carries_no_simulator(self):
        topo, as_graph, policy = build_skeleton(generate(SMOKE))
        assert len(topo.nodes) == generate(SMOKE).stats()["nodes"]
        assert as_graph is not None and policy is not None


class TestItdkRoundTrip:
    def test_reingested_arrays_are_byte_identical(self, tmp_path):
        graph = generate(SMOKE)
        files = export_itdk(graph, str(tmp_path))
        assert all(Path(f).exists() for f in files)
        spec2 = ingest_itdk(str(tmp_path), name="back")
        graph2 = generate(spec2)
        a = compile_graph(graph, "a", "synthetic", "0" * 64, "wa")
        b = compile_graph(graph2, "b", "explicit", "1" * 64, "wb")
        for field in ARRAY_FIELDS:
            x, y = a[field], b[field]
            assert x.dtype == y.dtype and x.shape == y.shape, field
            assert x.tobytes() == y.tobytes(), field

    def test_ingest_rejects_missing_dir(self, tmp_path):
        with pytest.raises(TopoError):
            ingest_itdk(str(tmp_path / "nope"), name="x")


class TestRouteCache:
    def test_absent_then_hit(self, tmp_path):
        cold = compile_spec(SMOKE, cache_dir=str(tmp_path))
        warm = compile_spec(SMOKE, cache_dir=str(tmp_path))
        cache = RouteCache(str(tmp_path))
        assert cache.load(SMOKE.content_hash()) is not None
        assert cache.hits == 1
        assert warm.content_digest() == cold.content_digest()

    def test_counters_reach_the_metrics_registry(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        obs = TopoInstrumentation(metrics=MetricsRegistry())
        compile_spec(SMOKE, cache_dir=str(tmp_path), instrumentation=obs)
        compile_spec(SMOKE, cache_dir=str(tmp_path), instrumentation=obs)
        assert obs.cache_misses.value() == 1.0
        assert obs.cache_hits.value() == 1.0
        assert obs.cache_corrupt.value() == 0.0

    def test_corrupt_payload_is_recomputed_and_healed(self, tmp_path):
        cold = compile_spec(SMOKE, cache_dir=str(tmp_path))
        key = SMOKE.content_hash()
        cache = RouteCache(str(tmp_path))
        Path(cache.payload_path(key)).write_bytes(b"not an npz")
        again = compile_spec(SMOKE, cache_dir=str(tmp_path))
        assert again.content_digest() == cold.content_digest()
        healed = RouteCache(str(tmp_path))
        assert healed.load(key) is not None and healed.hits == 1

    def test_corrupt_sidecar_version_is_rejected(self, tmp_path):
        compile_spec(SMOKE, cache_dir=str(tmp_path))
        key = SMOKE.content_hash()
        cache = RouteCache(str(tmp_path))
        sidecar = Path(cache.sidecar_path(key))
        doc = json.loads(sidecar.read_text())
        doc["version"] = 999
        sidecar.write_text(json.dumps(doc))
        fresh = RouteCache(str(tmp_path))
        assert fresh.load(key) is None and fresh.corrupt == 1

    def test_rejects_non_hex_key(self, tmp_path):
        with pytest.raises(TopoError):
            RouteCache(str(tmp_path)).payload_path("../escape")


class TestMaterialize:
    def test_deterministic_world(self):
        compiled = compile_spec(SMOKE, routes=True)
        w1 = materialize(compiled, seed=3)
        w2 = materialize(compiled, seed=3)
        assert sorted(w1.hosts) == sorted(w2.hosts)
        caps1 = {name: link.capacity_bps for name, link in w1.topology.links.items()}
        caps2 = {name: link.capacity_bps for name, link in w2.topology.links.items()}
        assert caps1 == caps2
        assert len(w1.topology.nodes) == compiled.n_nodes

    def test_case_study_spec_flows_through_the_same_path(self):
        spec = case_study_topo_spec()
        assert spec.source == "explicit"
        assert spec.content_hash() == case_study_topo_spec().content_hash()
        compiled = compile_spec(spec, routes=True)
        world = materialize(compiled, seed=0)
        assert set(world.hosts) == {"ubc", "purdue", "ucla", "umich", "ualberta"}


class TestCli:
    def test_generate_inspect_compile_export_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = str(tmp_path / "w.topo.json")
        assert main(["topo", "generate", "--preset", "smoke", "--seed", "0",
                     "-o", spec_path]) == 0
        assert main(["topo", "inspect", spec_path]) == 0
        out = capsys.readouterr().out
        assert SMOKE.content_hash()[:16] in out

        npz_path = str(tmp_path / "w.npz")
        assert main(["topo", "compile", spec_path, "-o", npz_path,
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert main(["topo", "inspect", npz_path]) == 0
        out = capsys.readouterr().out
        assert "routes" in out

        snap = str(tmp_path / "snap")
        assert main(["topo", "export", spec_path, "-o", snap]) == 0
        back_path = str(tmp_path / "back.topo.json")
        assert main(["topo", "generate", "--from-itdk", snap,
                     "-o", back_path]) == 0
        back = TopoSpec.from_json(Path(back_path).read_text())
        assert back.source == "explicit"
        assert generate(back).stats() == generate(SMOKE).stats()


class TestSiteValidation:
    def test_unknown_site_gets_nearest_match_hint(self):
        build_geo_registry()
        topo = Topology()
        with pytest.raises(TopologyError, match="did you mean 'ubc'"):
            topo.add_node(Node("n1", NodeKind.HOST, 1, "10.0.0.1",
                               site_name="ubcc"))


def _outcome(router, src, dst):
    """A pair's resolution, or the error it raises (for differential checks)."""
    try:
        return router.resolve(src, dst)
    except RoutingError as exc:
        return f"RoutingError: {exc}"


class TestLazyPreload:
    """``Router.preload_pending`` defers finalizing to first use.

    Oracle: the eager ``Router._finalize`` of each compiled hop list,
    computed when the world is materialized — what preload used to
    install — and, after link events, a fresh router with no preload.
    """

    WORLDS = {"case-study": case_study_topo_spec(),
              "metro-7": preset_spec("metro", seed=7)}

    @pytest.fixture(params=sorted(WORLDS), scope="class")
    def compiled(self, request):
        return compile_spec(self.WORLDS[request.param], routes=True)

    def test_lazy_paths_equal_eager_finalize(self, compiled):
        world = materialize(compiled, seed=0)
        router = world.router
        hop_lists = compiled.route_name_paths()
        eager = [router._finalize(hops) for hops in hop_lists]
        pairs = [(hops[0], hops[-1]) for hops in hop_lists]
        # pending paths are cache members (perfbench's resolve injection
        # relies on that) but not finalized yet
        assert all(pair in router._path_cache for pair in pairs)
        assert not any(isinstance(router._path_cache[p], ResolvedPath)
                       for p in pairs)
        for (src, dst), expected in zip(pairs, eager):
            assert router.resolve(src, dst) == expected
        assert all(isinstance(router._path_cache[p], ResolvedPath)
                   for p in pairs)

    def test_link_events_match_a_fresh_router(self, compiled):
        world = materialize(compiled, seed=0)
        hop_lists = compiled.route_name_paths()
        stride = max(1, len(hop_lists) // 40)
        pairs = [(hops[0], hops[-1]) for hops in hop_lists[::stride]]
        first = hop_lists[0]
        links = world.topology.path_links(first)
        failed = links[len(links) // 2].name
        before = [_outcome(world.router, *p) for p in pairs]

        def fresh():
            return Router(world.topology, world.as_graph, world.policy)

        world.fail_link(failed)
        assert world.router._path_cache == {}
        oracle = fresh()
        down = [_outcome(world.router, *p) for p in pairs]
        assert down == [_outcome(oracle, *p) for p in pairs]
        assert down != before

        world.restore_link(failed)
        oracle = fresh()
        up = [_outcome(world.router, *p) for p in pairs]
        assert up == [_outcome(oracle, *p) for p in pairs]
        assert up == before

    def test_preload_replaces_a_cached_pair(self, compiled):
        world = materialize(compiled, seed=0)
        router = world.router
        hops = compiled.route_name_paths()[0]
        resolved = router.resolve(hops[0], hops[-1])
        router.preload_pending(
            preloaded_hops(hops, [0, len(hops)], list(range(len(hops)))))
        assert not isinstance(router._path_cache[(hops[0], hops[-1])],
                              ResolvedPath)
        again = router.resolve(hops[0], hops[-1])
        assert again == resolved and again is not resolved
