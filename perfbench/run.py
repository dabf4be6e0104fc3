"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The package is imported from ``src/`` of
that root; the thread environment (BLAS and ``MAXENT_TOMO_THREADS``) is
left exactly as found and recorded.  Earlier lines of standard output
describe the environment and the run; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The traced run of a fit workload ends with one
pass of the CLI chain, which times the layers the workload does not call
(named on the ``toured`` line).  A per-layer metric whose seam in the
package is gone is left out of ``metrics`` and named on the ``absent`` line.

Exit status: 0 for a correct run, 1 when a check failed, 2 when the run
could not start (bad arguments, no package source).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "MAXENT_TOMO_THREADS",
)


def _spec_file() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "maxent_tomo", "__init__.py")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import maxent_tomo

    import workloads as wl
    from tracing import Tracer

    spec = _spec_file()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    specs = wl.SMOKE_SPECS if args.smoke else wl.SPECS
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    tracer = Tracer(enabled=bool(args.trace))
    tracer.install_seams(maxent_tomo)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    layers = {}
    try:
        if args.workload == "cli-chain":
            out = wl.run_cli_chain(specs["cli-chain"], args.seconds, tracer, ROOT, workdir)
        else:
            out = wl.run_fit_workload(specs[args.workload], args.seconds, args.seed, tracer)
        if args.trace:
            layers = wl.layer_metrics(tracer, out)
            tracer.remove_seams()
            untouched = [m["name"] for m in spec["per_layer"] if layers.get(m["name"]) is None]
            if untouched and args.workload != "cli-chain":
                toured, tour = wl.chain_tour(specs["cli-chain"], maxent_tomo, ROOT, workdir)
                print("toured " + json.dumps(untouched))
                layers.update({k: toured.get(k) for k in untouched})
                out.attempted += tour.attempted
                out.failed += tour.failed
                out.correct = out.correct and tour.correct
                out.notes.extend(tour.notes)
    finally:
        tracer.remove_seams()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    for note in out.notes:
        print(note, file=sys.stderr)
    counts = {k: len(v) for k, v in out.samples.items()}
    print("samples " + json.dumps(counts, sort_keys=True))

    metrics, absent = {}, []
    if args.trace:
        wanted = spec["per_layer"]
        print("traced " + json.dumps({k: median(v) for k, v in out.samples.items()
                                      if k.endswith("_s")}, sort_keys=True))
    else:
        layers = {k: median(v) for k, v in out.samples.items() if v}
        wanted = spec["end_to_end"]
    for m in wanted:
        value = layers.get(m["name"])
        if value is None:
            absent.append(m["name"])
        else:
            metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    if absent:
        print("absent " + json.dumps(absent))
    correct = out.correct and (args.trace or not absent)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
