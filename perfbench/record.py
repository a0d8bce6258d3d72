"""Record the reference outputs every benchmark unit is checked against.

    python3 perfbench/record.py [paper-cells|metro-fleet|metro-shard|topo-compile ...]

Runs every input variant a workload can select (all 54 paper cells,
each fleet schedule variant, each shard plan-seed variant, each topo
preset seed) once and rewrites that workload's section of
``perfbench/reference.json``.  Re-record only when a change to the
simulator's outputs is intended and argued; the benchmark exists to
notice unintended ones.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads as W  # noqa: E402

STUB = {name: {} for name in W.WORKLOADS}


def record_paper(tmp: str) -> dict:
    from repro.campaign import ResultStore
    from repro.campaign.store import record_to_dict

    wl = W.PaperCells(0, tmp, 1, STUB)
    store = ResultStore(os.path.join(tmp, "cells"))
    out = {}
    for cell in wl.spec.expand():
        rec = wl._run_cell(cell, store).records[0]
        if not rec.ok:
            raise SystemExit(f"{cell.label}: {rec.error.describe()}")
        out[cell.key] = W.jsonable(record_to_dict(rec))
    return out


def record_fleet(tmp: str) -> dict:
    wl = W.MetroFleet(0, tmp, 1, STUB)
    wl.setup()
    out = {}
    for v in range(W.FLEET_VARIANTS):
        if v:
            wl.prepare(v)
        out[str(v)] = list(wl.runner.run().durations_s)
    return out


def record_shard(tmp: str) -> dict:
    from repro.shard import run_sharded

    wl = W.MetroShard(0, tmp, 2, STUB)
    wl.setup()
    out = {}
    for v in W.SHARD_PLAN_SEEDS:
        res = run_sharded(wl._plan(wl.UPLOADS_PER_SITE, v), wl.root, jobs=2,
                          warm_from=wl.warmup.merged_snapshot_name)
        out[str(v)] = W.score_dict(res.merge.score)
    return out


def record_topo(tmp: str) -> dict:
    from repro.topo import compile_spec, preset_spec

    out = {}
    for s in W.TOPO_SEEDS:
        compiled = compile_spec(preset_spec("metro", seed=s))
        out[str(s)] = {"digest": compiled.content_digest(),
                       "routes": compiled.n_routes}
    return out


RECORDERS = {"paper-cells": record_paper, "metro-fleet": record_fleet,
             "metro-shard": record_shard, "topo-compile": record_topo}


def main(argv) -> int:
    names = argv or list(RECORDERS)
    unknown = [n for n in names if n not in RECORDERS]
    if unknown:
        sys.stderr.write(f"unknown workload(s): {unknown}\n")
        return 2
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=tmp_root)
    try:
        fresh = {n: RECORDERS[n](tmp) for n in names}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ref = W.load_reference() if os.path.exists(W.REFERENCE_PATH) else {}
    ref.update(fresh)
    ref["rel_tol"] = W.REL_TOL
    with open(W.REFERENCE_PATH, "w") as fh:
        json.dump(dict(sorted(ref.items())), fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
