"""wavetraffic benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 40 --trace 0

Run from the repository root. The last line of standard output is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it holds the full record
(environment, pipeline stage figures, failures), which is also written
to ``perfbench/out/``; a traced run writes its spans there as well.
See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PANEL = (1, 2, 3, 4, 5)
SETUP_REPEATS = 3
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "forecast_mae": "norm",
    "peak_rss_mb": "MB",
}


def per_layer_units(name):
    if name.endswith("_s"):
        return "s"
    if name.startswith("data_io.bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def pin_blas_threads():
    """BLAS reads its thread count when numpy loads it: call before importing numpy."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import wavetraffic from the checkout's ``src``; returns the seconds it took.

    numpy is imported first and not timed: it is a dependency, and its
    load time is the noisiest part of an import.
    """
    sys.path.insert(0, str(REPO / "src"))
    import numpy  # noqa: F401

    t0 = perf_counter()
    import wavetraffic  # noqa: F401
    return perf_counter() - t0


def os_threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def environment(seed):
    """Thread settings, versions and the size of ``src/`` for the record."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    (a @ a).sum()  # warm BLAS so its worker threads, if any, exist
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in (REPO / "src").rglob("*.py"))
    return {
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "os_threads_after_blas": os_threads(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "src_lines": src_lines,
    }


def measure(workload, seed, seconds, trace, workdir, import_s=0.0,
            setup_panel=SETUP_PANEL, setup_repeats=SETUP_REPEATS):
    """Time set-up, then run operations for about ``seconds``.

    Set-up time depends on the data (power iteration in
    ``graph.scaled_laplacian`` runs from a few to 100k iterations), so
    ``setup_s`` is measured on a fixed panel of datasets, the same in every
    run: ``setup_repeats`` passes over ``setup_panel``, median of the mean
    per set-up. The run's own ``seed`` is set up last, timed for the
    record, and used for the operations.

    An operation is started only while the one before it would still fit
    in the budget, and at least one always runs. Returns the result
    object plus the record with every median and the failures.
    """
    import tracing
    from workloads import Tally, span_or_null

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        panel_times = []
        for _ in range(setup_repeats):
            t0 = perf_counter()
            for panel_seed in setup_panel:
                with span_or_null(tracer, "bench.setup"):
                    workload.setup(panel_seed, workdir)
            panel_times.append((perf_counter() - t0) / len(setup_panel))
        t0 = perf_counter()
        with span_or_null(tracer, "bench.setup"):
            env = workload.setup(seed, workdir)
        own_setup_s = perf_counter() - t0
        tally = Tally()
        ops = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            rec = workload.run_op(env, tally, tracer)
            if rec is not None:
                ops.append(rec)
            last = perf_counter() - t0
            if perf_counter() - start + last > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.finish()

    figures = {"setup_s": import_s + statistics.median(panel_times),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    for key in (ops[0] if ops else {}):
        figures[key] = statistics.median(op[key] for op in ops)
    record = {
        "workload": workload.name,
        "operations": len(ops),
        "import_s": import_s,
        "setup_panel_s": panel_times,
        "setup_own_seed_s": own_setup_s,
        "figures": figures,
        "errors": tally.errors,
    }
    if tracer is not None:
        layer = tracing.per_layer(tracer.spans)
        layer["trace.setup_s"] = figures["setup_s"]
        layer["trace.op_s"] = figures.get("op_s", 0.0)
        if layer["training.steps"]:
            # the step's parts must add up to the step (within 10%)
            tally.attempted += 1
            if not 0.9 <= layer["training.accounted_ratio"] <= 1.1:
                tally.failed += 1
                tally.errors.append(
                    f"trace: step parts sum to {layer['training.accounted_ratio']:.3f} of the step")
        metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": figures[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items() if k in figures}
    record["error_rate"] = tally.failed / max(tally.attempted, 1)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, record, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    import_s = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{stem}"
    try:
        result, record, tracer = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                         bool(args.trace), workdir, import_s=import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["environment"] = environment(args.seed)
    record["args"] = vars(args)
    record["result"] = result
    if tracer is not None:
        spans_path = OUT_DIR / f"spans-{stem}.jsonl"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(REPO))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    if not args.trace and len(result["metrics"]) < len(END_TO_END_UNITS):
        print(f"no operation succeeded: {record['errors'][:3]}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
