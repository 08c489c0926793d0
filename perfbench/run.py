"""Benchmark entry point.

    python3 perfbench/run.py --workload {search,sweep,files} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src/``.
Prints an ``env`` line, a ``summary`` line and, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  ``--trace 0``
measures untraced for about S seconds and reports the end-to-end metrics;
``--trace 1`` makes one traced pass and reports the per-layer metrics.
See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

# Each differs from the library's default run; a result under either would
# not be comparable, so the benchmark refuses to run.
REFUSED_VARS = ("STIEFEL_NUMBA", "STIEFEL_THREADS")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 25


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("search", "sweep", "files"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    refused = [v for v in REFUSED_VARS if v in os.environ]
    if refused:
        print(f"perfbench: unset {', '.join(refused)} to run the benchmark", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: runs are single-threaded and
    # steadier on a shared machine.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import workloads as wl

    workdir = wl.ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        result = run(wl, args, workdir)
    except wl.LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


def set_up(wl, cls, seed, workdir):
    """Import, input generation and warm-up, SETUPS times; the last stays."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        sc = wl.import_library()
        workload = cls(sc, seed, workdir)
        times.append(time.perf_counter() - t0)
    return sc, workload, times


def run(wl, args, workdir) -> dict:
    sc, workload, setup_times = set_up(wl, wl.WORKLOADS[args.workload], args.seed, workdir)
    print("env " + json.dumps(wl.environment(sc)))
    tally = wl.Tally()
    if args.trace:
        metrics, summary = traced(wl, workload, tally)
    else:
        metrics, summary = untraced(wl, sc, workload, args, workdir, tally, setup_times)
    summary["failed_frac"] = tally.failed / tally.attempted
    summary["attempted"] = tally.attempted
    summary["failed"] = tally.failed
    print("summary " + json.dumps(summary))
    for note in tally.notes:
        print(f"perfbench: failed: {note}", file=sys.stderr)
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def untraced(wl, sc, workload, args, workdir, tally, setup_times):
    cli_times = wl.cli_verify_runs(sc, workdir, args.seed, tally, warm_up=True)

    def cli_burst():
        cli_times.extend(wl.cli_verify_runs(sc, workdir, args.seed, tally, warm_up=False))

    measured = wl.measure(workload, args.seconds, tally, pauses=[cli_burst] * (wl.CLI_BURSTS - 2))
    summary = workload.summary(measured)
    if isinstance(workload, wl.Search):
        # Determinism: the same config must reproduce the first run's bytes.
        key, inp = workload.inputs[0]
        same = workload.digest(workload.call(*inp)) == measured.stamps.get(key)
        tally.record(None if same else f"search {key}: rerun differs", wrong=True)
        summary["rerun_identical"] = same
    cli_times += wl.cli_verify_runs(sc, workdir, args.seed, tally, warm_up=False)
    medians = [statistics.median(v) for v in measured.op_s.values()]
    summary["cli_verify_s"] = statistics.median(cli_times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms": (statistics.fmean(medians) * 1e3, "ms"),
        "op_tail_ms": (wl.tail(medians)[1] * 1e3, "ms"),
        "cli_verify_s": (statistics.median(cli_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "min_dist_ratio": (statistics.fmean(measured.ratios.values()), "ratio"),
    }
    return metrics, summary


def traced(wl, workload, tally):
    """Per-layer metrics from one traced pass over every input.

    The tracing overhead compares the pass's traced op times on the
    workload's overhead slice with an untraced run of the same slice made
    just before.
    """
    from tracer import Tracer  # loads numpy, so only after main's BLAS settings

    keys = workload.overhead_keys()
    plain = wl.measure(workload, 0, tally, keys=keys)
    with Tracer() as tr:
        measured = wl.measure(workload, 0, tally)
    wall_s = sum(t for v in measured.op_s.values() for t in v)
    slice_traced = sum(measured.op_s[k][0] for k in keys)
    slice_plain = sum(plain.op_s[k][0] for k in keys)
    metrics = tr.metrics(wall_s)
    metrics["cli.import_s"] = (wl.import_seconds(), "s")
    metrics["trace.overhead_frac"] = (slice_traced / slice_plain - 1.0, "frac")
    summary = {"traced_wall_s": wall_s, "untraced_s": wall_s - tr.top_s}
    for line in tr.shape_lines(sys.modules["stiefelcodes._kernels"]):
        print(line)
    return metrics, summary


if __name__ == "__main__":
    sys.exit(main())
