"""Benchmark entry point.

    python3 bench/run.py --workload {train-2d,eval-2d,register-cli} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The workload runs in this process against
the sources under ``src/``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which holds
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. The full record, and with ``--trace 1`` the spans, go to
``.bench_results/``.
"""

import os

# One BLAS thread, pinned before numpy loads. With two OpenBLAS threads on
# two cores, run-to-run spread roughly doubled; the program itself has no
# thread setting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3

def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "pointreg" / "__init__.py").is_file():
        print(f"error: no pointreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from pointreg import autodiff as ad

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    # a terminated run still deletes its inputs
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    results = ROOT / ".bench_results"
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            # each set-up starts from an empty scratch pool, as a new process would
            pool = getattr(ad, "_scratch", None)
            if pool is not None:
                pool.clear()
            if rep:
                shutil.rmtree(work / f"setup{rep - 1}")
            (work / f"setup{rep}").mkdir(parents=True)
            t = time.perf_counter()
            workload.setup(work / f"setup{rep}", args.seed % 2**63)
            setup_times.append(time.perf_counter() - t)
        window = workload.run(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = workload.check(window)
        per_layer = None
        if tracer is not None:
            tracer.uninstall()
            ops = window.attempted - window.failed
            per_layer = tracer.layer_metrics((window.start, window.end), max(ops, 1), SETUP_REPS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            work.parent.rmdir()

    lat_ms = [1e3 * s for s in window.latencies]
    end_to_end = {
        "pairs_per_s": window.pairs / window.seconds,
        "latency_ms_p50": statistics.median(lat_ms),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
        "val_cd_ratio": window.val_cd_ratio,
    }
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more failed checks", file=sys.stderr)

    if per_layer is None:
        metrics = {k: {"value": v, "unit": workloads.END_TO_END[k]} for k, v in end_to_end.items()}
    else:
        from tracing import PER_LAYER
        metrics = {k: {"value": per_layer[k], "unit": unit} for k, unit in PER_LAYER}
    result = {"correct": not problems, "attempted": window.attempted,
              "failed": window.failed, "metrics": metrics}

    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "blas_threads": int(BLAS_THREADS), "setup_times_s": setup_times,
        "latencies_ms": lat_ms, "window_s": window.seconds, "notes": window.notes,
        "problems": problems, "end_to_end": end_to_end, "per_layer": per_layer, "result": result,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.dump(results / f"{stem}.spans.json")
    print(f"{args.workload}: seed {args.seed}, {window.attempted} operations in "
          f"{window.seconds:.2f} s, BLAS threads {BLAS_THREADS}, "
          f"record {results.name}/{stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
