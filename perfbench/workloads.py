"""The four benchmark workloads and their output checks.

Each workload is a batch job whose arrivals are scheduled in simulated
time by a seeded schedule, so the benchmark reports work completed per
host-second at a fixed input size.  A workload has three phases:

* ``setup()`` — everything before the timed part (world build, compile,
  materialize, schedule, warm generation).  It leaves the state the
  first timed unit runs on, and is run several times per process.
* ``prepare(k)`` / ``run(k)`` — one timed *unit*: a round of paper
  cells, one fleet run, one shard generation, or one cold compile.
  ``prepare`` (untimed) builds the fresh world a unit needs.
* ``compile_warm_s()`` — seconds to compile the workload's world from a
  warm route cache (a per-layer figure of traced runs).

The ``--seed`` only selects inputs: the world seed of a fleet unit, the
plan seed of a shard generation, which preset seeds are compiled, and
the order in which the paper's cells run.  Every input has reference outputs in
``reference.json`` (recorded with ``record.py``), and every unit is
checked against them with relative tolerance :data:`REL_TOL`.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

perf = time.perf_counter

#: Relative tolerance for every simulated output compared with the
#: reference.  The simulator is deterministic, so any drift beyond
#: float-formatting noise is a behaviour change.
REL_TOL = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: World seeds of the fleet with recorded reference outputs; ``--seed``
#: picks among them (``(seed + unit) % len``).
FLEET_VARIANTS = 8
#: Plan seeds of the two shard generations every run times.
SHARD_PLAN_SEEDS = (0, 1)
#: metro preset seeds with recorded compiled-topology digests
TOPO_SEEDS = tuple(range(100, 124))

WARM_COMPILE_REPEATS = 7


@dataclass
class UnitOutcome:
    """What one timed unit did."""

    ops: int  # cells, uploads or routes completed
    attempted: int  # operations attempted (cells, uploads, compiles)
    failed: int  # operations that raised, were quarantined or mismatched
    tasks_s: List[float] = field(default_factory=list)  # per-task seconds
    #: seconds the ops are divided by (``None``: the unit's wall time)
    work_s: Optional[float] = None
    errors: List[str] = field(default_factory=list)


class Workload:
    """Defaults shared by the workloads below."""

    name = ""
    op = ""
    #: timed units a run always completes, and at most (None: no cap)
    min_units = 1
    max_units = None
    #: set-ups per untraced run; ``setup_s`` is their median
    setup_repeats = 5

    def prepare(self, k: int) -> None:
        """Untimed preparation of unit *k* (for ``k >= 1``)."""

    def headline(self) -> str:
        """A failed whole-run claim, or the empty string."""
        return ""

    def broker_stats(self) -> Dict[str, float]:
        """Directory hit ratio and probes per upload, where a broker ran."""
        return {}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def close(a, b) -> bool:
    """Deep equality with :data:`REL_TOL` on floats."""
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return a == b


def jsonable(obj):
    """Round-trip through JSON so live results compare like stored ones."""
    return json.loads(json.dumps(obj))


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf()
        fn()
        times.append(perf() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# paper-cells
# ---------------------------------------------------------------------------

class PaperCells(Workload):
    """The paper's protocol: every cell through ``CampaignRunner(jobs=1)``.

    ubc/purdue/ucla x gdrive/dropbox x the paper's three routes x
    10/40/100 MB, 7 runs per cell, calibrated world with cross-traffic.
    The 54 cells are split into three balanced rounds (a Latin square
    per client/provider pair: every route meets every size once across
    the rounds, and every round holds each size six times), so a run
    that completes whole rounds always measures the same mix of cheap
    100 MB cells (above the 64 MiB digest cap) and expensive 10/40 MB
    cells.  The seed orders the rounds and the cells inside them.
    """

    name = "paper-cells"
    op = "cell"
    SIZES_MB = (10.0, 40.0, 100.0)
    PROVIDERS = ("gdrive", "dropbox")

    def __init__(self, seed: int, tmp: str, jobs: int, reference: dict):
        from repro.campaign import CampaignSpec
        from repro.testbed.scenarios import CLIENTS

        self.tmp = tmp
        self.ref = reference["paper-cells"]
        self.spec = CampaignSpec(clients=tuple(CLIENTS),
                                 providers=self.PROVIDERS,
                                 sizes_mb=self.SIZES_MB)
        cells = self.spec.expand()
        pairs: Dict[Tuple[str, str], list] = {}
        for cell in cells:
            pairs.setdefault((cell.client, cell.provider), []).append(cell)
        rounds: List[list] = [[], [], []]
        for j, group in enumerate(pairs.values()):
            routes = sorted({c.route for c in group}, key=[c.route for c in group].index)
            by = {(c.route, c.size_mb): c for c in group}
            for t in range(3):
                for i, route in enumerate(routes):
                    size = self.SIZES_MB[(i + j + t) % 3]
                    rounds[t].append(by[(route, size)])
        rng = random.Random(seed)
        self.rounds = [rounds[t] for t in rng.sample(range(3), 3)]
        for r in self.rounds:
            rng.shuffle(r)
        self.measured: Dict[str, float] = {}
        self.passes = 0

    def setup(self) -> None:
        from repro.testbed.build import build_case_study, case_study_topo_spec
        from repro.topo import TopoInstrumentation, compile_spec

        self.passes += 1
        # compile the calibrated world in full (an instrumented compile
        # bypasses the in-process memo), then build it through the memo
        # the cells use, so the first timed cell finds it warm
        compile_spec(case_study_topo_spec(), instrumentation=TopoInstrumentation())
        build_case_study(seed=0)

    def _run_cell(self, cell, store):
        from repro.campaign import CampaignRunner, CampaignSpec, PoolConfig

        spec = CampaignSpec(clients=(cell.client,), providers=(cell.provider,),
                            routes=(cell.route,), sizes_mb=(cell.size_mb,))
        return CampaignRunner(spec, store=store, pool=PoolConfig(jobs=1)).run()

    def _check(self, cell, result) -> str:
        from repro.campaign.store import record_to_dict

        if len(result.records) != 1 or result.executed != 1:
            return f"{cell.label}: expected one executed cell"
        rec = result.records[0]
        if rec.cell.key != cell.key:
            return f"{cell.label}: cell key changed"
        if not rec.ok:
            return f"{cell.label}: quarantined: {rec.error.describe()}"
        self.measured[cell.key] = rec.measurement.mean_s
        if not close(jsonable(record_to_dict(rec)), self.ref[cell.key]):
            return f"{cell.label}: export differs from reference"
        return ""

    def run(self, k: int) -> UnitOutcome:
        from repro.campaign import ResultStore

        store = ResultStore(os.path.join(self.tmp, f"cells-{self.passes}-{k}"))
        out = UnitOutcome(ops=0, attempted=0, failed=0)
        for cell in self.rounds[k % 3]:
            t0 = perf()
            try:
                result = self._run_cell(cell, store)
                err = ""
            except Exception as exc:  # a cell that raises is a failed op
                err = f"{cell.label}: {type(exc).__name__}: {exc}"
            out.tasks_s.append(perf() - t0)
            err = err or self._check(cell, result)
            out.attempted += 1
            out.ops += 1
            if err:
                out.failed += 1
                out.errors.append(err)
        return out

    def headline(self) -> str:
        """UBC -> gdrive at 100 MB is faster via ualberta than direct."""
        from repro.campaign import ResultStore

        store = ResultStore(os.path.join(self.tmp, "headline"))
        means = {}
        for route in ("direct", "via ualberta"):
            cell = next(c for c in self.spec.expand()
                        if (c.client, c.provider, c.route, c.size_mb)
                        == ("ubc", "gdrive", route, 100.0))
            if cell.key not in self.measured:
                err = self._check(cell, self._run_cell(cell, store))
                if err:
                    return err
            means[route] = self.measured[cell.key]
        if not means["via ualberta"] < means["direct"]:
            return (f"headline: ubc->gdrive 100MB via ualberta "
                    f"{means['via ualberta']:.2f}s is not faster than direct "
                    f"{means['direct']:.2f}s")
        return ""

    def compile_warm_s(self) -> float:
        from repro.testbed.build import case_study_topo_spec
        from repro.topo import compile_spec

        spec = case_study_topo_spec()
        cache = os.path.join(self.tmp, "case-study-routes")
        compile_spec(spec, cache_dir=cache)
        return _median_time(lambda: compile_spec(spec, cache_dir=cache),
                            WARM_COMPILE_REPEATS)


# ---------------------------------------------------------------------------
# metro-fleet
# ---------------------------------------------------------------------------

class MetroFleet(Workload):
    """One broker fleet on one shared generated world.

    ``preset_spec("metro", seed=7)``, 20 population-sampled sites x 10
    uploads of a fixed 100 MB at 10 s mean interarrival.  Files above
    the digest cap hash only metadata, and the shared world keeps about
    20 flows in flight, so allocation, heap churn and broker lookups
    dominate.  The schedule is fixed (schedule seed 7); the seed picks
    the recorded world-seed variant (per-link capacity jitter and
    protocol jitter streams).  A per-seed schedule would not do: the
    Poisson arrivals change how many flows overlap, which moved the
    host cost of a fleet by up to 1.7x between schedule seeds.
    """

    name = "metro-fleet"
    op = "upload"
    N_SITES = 20
    UPLOADS_PER_SITE = 10
    SCHEDULE_SEED = 7

    def __init__(self, seed: int, tmp: str, jobs: int, reference: dict):
        from repro.topo import preset_spec

        self.seed = seed
        self.ref = reference["metro-fleet"]
        self.spec = preset_spec("metro", seed=7)
        self.cache = os.path.join(tmp, "metro-routes")
        self.stats = {"hits": 0, "looked": 0, "probes": 0, "uploads": 0}

    def variant(self, k: int) -> int:
        return (self.seed + k) % FLEET_VARIANTS

    def setup(self) -> None:
        from repro.topo import compile_spec
        from repro.workloads import sample_sites

        self.compiled = compile_spec(self.spec, cache_dir=self.cache)
        self.sites = sample_sites(self.compiled.to_graph().populations,
                                  self.N_SITES, seed=7)
        self.prepare(0)

    def prepare(self, k: int) -> None:
        from repro.broker.fleet import FleetRunner
        from repro.broker.service import DetourBroker
        from repro.topo import materialize
        from repro.workloads.generator import fleet_population_schedule

        world = materialize(self.compiled, seed=self.variant(k))
        schedule = fleet_population_schedule(
            self.sites, "gdrive", self.UPLOADS_PER_SITE, 10.0, 100.0,
            seed=self.SCHEDULE_SEED, size_dist="fixed")
        broker = DetourBroker(world, pairs=[(c, "gdrive") for c in self.sites])
        self.runner = FleetRunner(world, schedule, mode="broker", broker=broker)

    def run(self, k: int) -> UnitOutcome:
        n = self.N_SITES * self.UPLOADS_PER_SITE
        t0 = perf()
        try:
            result = self.runner.run()
        except Exception as exc:
            return UnitOutcome(ops=0, attempted=n, failed=n,
                               tasks_s=[perf() - t0],
                               errors=[f"fleet: {type(exc).__name__}: {exc}"])
        wall = perf() - t0
        ref = self.ref[str(self.variant(k))]
        got = result.durations_s
        bad = sum(1 for i, d in enumerate(got)
                  if i >= len(ref) or not close(float(d), ref[i]))
        bad += max(0, len(ref) - len(got))
        self.stats["hits"] += result.directory_hits
        self.stats["looked"] += result.directory_hits + result.directory_misses
        self.stats["probes"] += result.probes_issued
        self.stats["uploads"] += len(got)
        errors = [f"fleet variant {self.variant(k)}: {bad} upload durations "
                  f"differ from reference"] if bad else []
        return UnitOutcome(ops=len(got), attempted=n, failed=bad,
                           tasks_s=[wall], errors=errors)

    def compile_warm_s(self) -> float:
        from repro.topo import compile_spec

        return _median_time(lambda: compile_spec(self.spec, cache_dir=self.cache),
                            WARM_COMPILE_REPEATS)

    def broker_stats(self) -> Dict[str, float]:
        s = self.stats
        return {"hit_ratio": s["hits"] / s["looked"] if s["looked"] else 0.0,
                "probes_per_upload": (s["probes"] / s["uploads"]
                                      if s["uploads"] else 0.0)}


# ---------------------------------------------------------------------------
# metro-shard
# ---------------------------------------------------------------------------

class MetroShard(Workload):
    """A sharded broker fleet: per-site worlds as campaign cells.

    Metro preset, 12 sampled sites x 100 uploads of 1 MB at 5 s mean
    interarrival, 4 shards over a worker pool.  Set-up runs a 2-upload
    warm generation into a fresh run root (the first set-up of a
    process compiles the world cold into that root's route cache); each
    timed unit is one full generation warmed from that snapshot.  Each
    site runs in its own world, so allocation sees few flows while small
    materialized files keep digests hot, and the pool, store, directory
    tier and merge layers all work.

    Every run times the same two generations, plan seeds 0 and 1, in an
    order the seed picks.  The plan seed also fixes the hash partition
    of sites into shards; shards of 1 to 6 sites packed in order onto
    two workers made one generation up to 1.5x longer than another, so
    a per-seed plan would measure the partition, not the host.
    """

    name = "metro-shard"
    op = "upload"
    setup_repeats = 3
    min_units = max_units = len(SHARD_PLAN_SEEDS)
    N_SITES = 12
    UPLOADS_PER_SITE = 100

    def __init__(self, seed: int, tmp: str, jobs: int, reference: dict):
        from repro.topo import preset_spec

        self.seed = seed
        self.tmp = tmp
        self.jobs = jobs
        self.ref = reference["metro-shard"]
        self.spec = preset_spec("metro", seed=7)
        self.passes = 0
        self.stats = {"hits": 0.0, "probes": 0.0, "uploads": 0}

    def variant(self, k: int) -> int:
        return SHARD_PLAN_SEEDS[(self.seed + k) % len(SHARD_PLAN_SEEDS)]

    def _plan(self, uploads_per_site: int, seed: int):
        from repro.shard import ShardPlan

        return ShardPlan(sites=self.sites, provider="gdrive",
                         modes=("broker",), n_shards=4,
                         n_uploads_per_site=uploads_per_site,
                         mean_interarrival_s=5.0, mean_size_mb=1.0,
                         size_dist="fixed", seed=seed, cross_traffic=False,
                         topo=self.spec)

    def setup(self) -> None:
        from repro.shard import run_sharded
        from repro.topo import generate
        from repro.workloads import sample_sites

        self.passes += 1
        self.sites = sample_sites(generate(self.spec).populations,
                                  self.N_SITES, seed=7)
        previous = getattr(self, "root", None)
        self.root = os.path.join(self.tmp, f"shard-{self.passes}")
        if previous is not None:
            # later set-ups start from the warm route cache, as the
            # fleet's do: the cold compile is topo-compile's to measure
            shutil.copytree(os.path.join(previous, "topo-cache"),
                            os.path.join(self.root, "topo-cache"))
        self.warmup = self._plan(2, 7)
        run_sharded(self.warmup, self.root, jobs=self.jobs)

    def run(self, k: int) -> UnitOutcome:
        from repro.shard import run_sharded

        plan = self._plan(self.UPLOADS_PER_SITE, self.variant(k))
        n = plan.n_uploads
        t0 = perf()
        try:
            result = run_sharded(plan, self.root, jobs=self.jobs,
                                 warm_from=self.warmup.merged_snapshot_name)
        except Exception as exc:
            return UnitOutcome(ops=0, attempted=n, failed=n,
                               tasks_s=[perf() - t0],
                               errors=[f"shard: {type(exc).__name__}: {exc}"])
        wall = perf() - t0
        merge = result.merge
        got = score_dict(merge.score)
        ok = (result.cached == 0 and merge.records_folded == n
              and close(got, self.ref[str(self.variant(k))]))
        rollup = merge.rollup["broker"]
        self.stats["hits"] += rollup["hit_rate"] * n
        self.stats["probes"] += rollup["probes_per_upload"] * n
        self.stats["uploads"] += n
        errors = [] if ok else [
            f"shard variant {self.variant(k)}: merged score differs from "
            f"reference (cached={result.cached}, "
            f"folded={merge.records_folded})"]
        return UnitOutcome(ops=n, attempted=n, failed=0 if ok else n,
                           tasks_s=[wall], errors=errors)

    def compile_warm_s(self) -> float:
        from repro.topo import compile_spec

        cache = os.path.join(self.root, "topo-cache")
        return _median_time(lambda: compile_spec(self.spec, cache_dir=cache),
                            WARM_COMPILE_REPEATS)

    def broker_stats(self) -> Dict[str, float]:
        s = self.stats
        u = s["uploads"]
        return {"hit_ratio": s["hits"] / u if u else 0.0,
                "probes_per_upload": s["probes"] / u if u else 0.0}


def score_dict(score) -> dict:
    """A merged :class:`FleetScore` as plain JSON-comparable data."""
    return jsonable({
        "n_uploads": score.n_uploads,
        "oracle_mean_s": score.oracle_mean_s,
        "by_mode": {m: list(v) for m, v in sorted(score.by_mode.items())},
        "by_site": {f"{m}|{s}": list(v)
                    for (m, s), v in sorted(score.by_site.items())},
    })


# ---------------------------------------------------------------------------
# topo-compile
# ---------------------------------------------------------------------------

class TopoCompile(Workload):
    """Route compilation alone: no kernel or network engine runs.

    Each unit compiles ``preset_spec("metro", seed=s)`` into an empty
    route-cache directory (cold: generate, flatten, resolve all 3,024
    standard routes), then compiles it again from that cache (warm) and
    materializes it.  The seed picks which preset seeds are compiled.
    """

    name = "topo-compile"
    op = "route"
    #: about 25 s of compiles: shorter runs sampled single phases of the
    #: host's speed drift and spread by 0.2 on task_s.p80
    min_units = 8

    def __init__(self, seed: int, tmp: str, jobs: int, reference: dict):
        self.seed = seed
        self.tmp = tmp
        self.ref = reference["topo-compile"]
        self.passes = 0
        self.warm_times: List[float] = []

    def preset_seed(self, k: int) -> int:
        return TOPO_SEEDS[(self.seed + k) % len(TOPO_SEEDS)]

    def setup(self) -> None:
        from repro.topo import generate, preset_spec

        self.passes += 1
        generate(preset_spec("metro", seed=self.preset_seed(0)))

    def run(self, k: int) -> UnitOutcome:
        from repro.topo import compile_spec, materialize, preset_spec

        s = self.preset_seed(k)
        spec = preset_spec("metro", seed=s)
        cache = os.path.join(self.tmp, f"topo-{self.passes}-{k}")
        attempted = 1 + WARM_COMPILE_REPEATS
        try:
            t0 = perf()
            cold = compile_spec(spec, cache_dir=cache)
            cold_s = perf() - t0
            warm = []
            for _ in range(WARM_COMPILE_REPEATS):
                t0 = perf()
                warm.append(compile_spec(spec, cache_dir=cache))
                self.warm_times.append(perf() - t0)
            materialize(warm[-1], seed=s)
        except Exception as exc:
            return UnitOutcome(ops=0, attempted=attempted, failed=attempted,
                               tasks_s=[], work_s=0.0,
                               errors=[f"compile seed {s}: {type(exc).__name__}: {exc}"])
        ref = self.ref[str(s)]
        failed = sum(1 for c in [cold] + warm
                     if c.content_digest() != ref["digest"]
                     or c.n_routes != ref["routes"])
        errors = [f"compile seed {s}: {failed} digest(s) differ from reference"
                  ] if failed else []
        return UnitOutcome(ops=cold.n_routes, attempted=attempted,
                           failed=failed, tasks_s=[cold_s], work_s=cold_s,
                           errors=errors)

    def compile_warm_s(self) -> float:
        return statistics.median(self.warm_times)


WORKLOADS = {w.name: w for w in (PaperCells, MetroFleet, MetroShard, TopoCompile)}
