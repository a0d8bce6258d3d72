"""Injected-slowdown self-test: does the benchmark see a slower layer?

    python3 perfbench/selftest.py [--seconds 5] [--seed 0]

For each of three layers, a wrapper makes the layer's public function do
its work twice (``run.py --inject``).  The slowdown must show

* in that layer's traced row and in ``ops_per_s`` on the workload that
  uses the layer: the layer's self time, relative to the rest of the
  traced pass, grows at least :data:`LAYER_RATIO` times, and
  ``ops_per_s`` is worse by more than its bound;
* nowhere on the workload that bypasses it: ``ops_per_s`` within its
  bound of the baseline, and the layer under 1% of traced wall time.

The layer is compared with the rest of the same traced pass, not with
wall time, so a host that runs faster or slower between the two runs
moves both sides alike.  ``LAYER_RATIO`` is 1.3, not 2: a repeated
``Router.resolve`` reuses the BGP tables the first resolution computed,
so doubling it costs about 1.5x.

====================  ==============  ==============
layer (function)      uses            bypasses
====================  ==============  ==============
alloc (max_min_...)   metro-fleet     topo-compile
digest (content_...)  paper-cells     topo-compile
resolve (Router...)   topo-compile    paper-cells
====================  ==============  ==============

metro-fleet does not bypass digests: its broker's warm-up probes move
8 MB probe files, which are hashed like any file under the 64 MiB cap.

Every run is a fresh ``run.py --trace 1`` process, which measures an
untraced pass (end-to-end) and a traced pass (layers) over the same
units.  Each injected run is paired with a baseline run made just
before it.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CASES = (
    ("alloc", "net.flows.alloc_s", "metro-fleet", "topo-compile"),
    ("digest", "transfer.digest_s", "paper-cells", "topo-compile"),
    ("resolve", "net.routing.resolve_s", "topo-compile", "paper-cells"),
)
LAYER_RATIO = 1.3
BYPASS_SHARE = 0.01


def bound_of(metric: str) -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return next(m["bound"] for m in json.load(fh)["end_to_end"]
                    if m["name"] == metric)


def run(workload: str, inject, args, tmp: str) -> dict:
    out = os.path.join(tmp, f"{workload}-{inject or 'base'}.json")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1", "--out", out]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (inject={inject}) exited {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def layer_vs_rest(result: dict, layer: str) -> float:
    """The layer's self seconds over the rest of the traced pass."""
    rows = result["per_layer"]
    return rows[layer] / (rows["trace.wall_s"] - rows[layer])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    bound = bound_of("ops_per_s")

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=tmp_root)
    failures = 0
    try:
        for inject, layer, uses, bypass in CASES:
            b = run(uses, None, args, tmp)
            h = run(uses, inject, args, tmp)
            miss_base = run(bypass, None, args, tmp)
            miss = run(bypass, inject, args, tmp)

            layer_ratio = layer_vs_rest(h, layer) / layer_vs_rest(b, layer)
            e2e_ratio = (h["end_to_end"]["ops_per_s"]
                         / b["end_to_end"]["ops_per_s"])
            miss_ratio = (miss["end_to_end"]["ops_per_s"]
                          / miss_base["end_to_end"]["ops_per_s"])
            miss_share = (miss["per_layer"][layer]
                          / miss["per_layer"]["trace.wall_s"])
            checks = [
                (f"{uses}: {layer} vs rest of pass x{layer_ratio:.2f} "
                 f">= {LAYER_RATIO}", layer_ratio >= LAYER_RATIO),
                (f"{uses}: ops_per_s x{e2e_ratio:.3f} < {1 - bound:.2f}",
                 e2e_ratio < 1 - bound),
                (f"{bypass}: ops_per_s x{miss_ratio:.3f} within +-{bound}",
                 abs(miss_ratio - 1) <= bound),
                (f"{bypass}: {layer} {miss_share:.2%} of traced wall "
                 f"< {BYPASS_SHARE:.0%}", miss_share < BYPASS_SHARE),
            ]
            for text, ok in checks:
                failures += not ok
                print(f"[{'ok' if ok else 'FAIL'}] inject {inject}: {text}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    print("self-test", "passed" if failures == 0 else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
