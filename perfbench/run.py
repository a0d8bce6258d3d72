"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 0 --seconds 15

Run from the root of a checkout; the simulator is imported from
``src/``.  Each invocation is one fresh process, so peak RSS and
in-process compile memos never leak between workloads (``--workload
all`` starts one child process per workload and prints a table).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same timed units twice — untraced, then with the layer wrappers of
``tracing.py`` installed — and reports the per-layer metrics plus the
tracing overhead (the gap between the two passes).  The last line of
standard output is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed operation makes the exit code 1.

Scratch files (route caches, result stores, run roots) live in a
private directory under ``.perfbench_tmp/`` that is removed on exit;
span dumps of traced runs go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("task_s.p50", "s"),
    ("task_s.p80", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: metro-shard worker processes (the host has 2 CPUs); traced runs use 1
SHARD_JOBS = 2


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of *values*."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Tally:
    """Operation and timing totals over one timed pass."""

    def __init__(self) -> None:
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.work_s = 0.0
        self.wall_s = 0.0
        self.tasks_s = []
        self.errors = []
        self.units = 0

    def add(self, out, unit_s: float) -> None:
        self.units += 1
        self.ops += out.ops
        self.attempted += out.attempted
        self.failed += out.failed
        self.work_s += unit_s if out.work_s is None else out.work_s
        self.wall_s += unit_s
        self.tasks_s.extend(out.tasks_s)
        self.errors.extend(out.errors)


#: a unit is not started if it would likely end later than this share
#: of ``--seconds`` past the start of the timed part
OVERRUN = 1.2


def timed_pass(wl, seconds: float, n_units=None, tracer=None) -> Tally:
    """Run whole units for about *seconds* (at least ``wl.min_units``, at
    most ``wl.max_units``), or exactly *n_units* units when given."""
    tally = Tally()
    limit = n_units if n_units is not None else wl.max_units
    start = time.perf_counter()
    k = 0
    while True:
        if limit is not None and k >= limit:
            break
        elapsed = time.perf_counter() - start
        if (n_units is None and k >= wl.min_units
                and elapsed + elapsed / k > OVERRUN * seconds):
            break
        if k > 0:
            wl.prepare(k)
        if tracer is not None:
            tracer.unit = k + 1
        t0 = time.perf_counter()
        out = wl.run(k)
        tally.add(out, time.perf_counter() - t0)
        k += 1
    return tally


def end_to_end(tally: Tally, setup_times) -> dict:
    return {
        "ops_per_s": tally.ops / tally.work_s if tally.work_s else 0.0,
        "task_s.p50": percentile(tally.tasks_s, 50),
        "task_s.p80": percentile(tally.tasks_s, 80),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    import host
    import tracing
    from workloads import WORKLOADS, load_reference

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        if args.inject:
            tracing.inject(args.inject)
        jobs = 1 if args.trace else SHARD_JOBS
        wl = WORKLOADS[args.workload](args.seed, tmp, jobs, load_reference())

        setup_times = []
        for _ in range(1 if args.trace else wl.setup_repeats):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        tally = timed_pass(wl, args.seconds)
        headline = wl.headline()
        e2e = end_to_end(tally, setup_times)
        warm_s = wl.compile_warm_s() if args.trace else None

        layers = None
        if args.trace:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            try:
                tracer.unit = 0
                wl.setup()
                traced = timed_pass(wl, args.seconds, n_units=tally.units,
                                    tracer=tracer)
            finally:
                patches.undo()
            layers = tracing.layer_metrics(tracer, wl.broker_stats())
            layers["topo.compile_warm_s"] = warm_s
            layers["trace.overhead"] = traced.wall_s / tally.wall_s - 1.0
            layers["trace.wall_s"] = traced.wall_s
            layers["trace.spans"] = len(tracer.spans)
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            tally.errors.extend(traced.errors)
            tracer.dump(os.path.join(
                ROOT, ".perfbench_out",
                f"{args.workload}-seed{args.seed}.spans.json"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    if headline:
        tally.failed += 1
        tally.errors.append(headline)
    prov = host.provenance()
    print(f"workload {args.workload}: seed {args.seed}, "
          f"{tally.units} timed unit(s), {len(tally.tasks_s)} {wl.op} task(s) "
          f"timed, {tally.ops} {wl.op}(s) in {tally.work_s:.3f}s of work")
    print("host " + json.dumps(prov, sort_keys=True))
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"  {name:<16} {value:14.6g} {units[name]}")
    if layers is not None:
        for name, value in layers.items():
            print(f"  {name:<32} {value:14.6g}")
    for err in tally.errors[:20]:
        print(f"FAILED {err}")

    metrics = layers if args.trace else e2e
    unit_of = layer_units() if args.trace else units
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]}
                    for k, v in metrics.items()},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "inject": args.inject, "host": prov,
                       "end_to_end": e2e, "per_layer": layers,
                       "attempted": tally.attempted, "failed": tally.failed,
                       "errors": tally.errors}, fh, indent=1)
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def layer_units() -> dict:
    """Units of the per-layer metrics, as listed in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    from workloads import WORKLOADS

    rows = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write(proc.stdout if proc.returncode else "")
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        rows[name] = json.loads(lines[-1])
    names = list(rows)
    print(f"{'metric':<16} {'unit':<5} " + " ".join(f"{n:>13}" for n in names))
    for metric, unit in END_TO_END:
        vals = " ".join(f"{rows[n]['metrics'][metric]['value']:13.5g}"
                        for n in names)
        print(f"{metric:<16} {unit:<5} {vals}")
    print(f"{'fail_ratio':<16} {'':<5} " + " ".join(
        f"{rows[n]['failed'] / rows[n]['attempted']:13.5g}" for n in names))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", default=None,
                    choices=("alloc", "digest", "resolve"),
                    help="self-test only: make one layer do its work twice")
    ap.add_argument("--out", default=None,
                    help="also write the full result (both metric sets, "
                         "host provenance, errors) to this JSON file")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"perfbench: no simulator sources under {SRC}; "
                         "run from the root of a full checkout\n")
        return 2
    sys.path.insert(0, HERE)
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r} "
                         f"(known: {', '.join(WORKLOADS)}, all)\n")
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
