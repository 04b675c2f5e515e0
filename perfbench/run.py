"""End-to-end and per-layer benchmark of sunac on the full SUNAC config.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports sunac from its src/
directory; it exits non-zero if there is none.  Each op is checked (see
workloads.check_outputs).  Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, measured with no wrapper installed; with --trace 1 they are
the per-layer ones, from spans around sunac's layer functions.  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Modules that load numpy (sunac and this directory's other modules) are
# imported inside functions, after pin_blas_threads() has set the pool size.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh processes timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 3
MAX_BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit, in print order.
END_TO_END = {
    "setup_s": "s",
    "encode_s": "s",
    "op_s": "s",
    "audio_s_per_s": "s/s",
    "peak_rss_mb": "MiB",
}


def pin_blas_threads() -> int:
    """Fix the BLAS pool size before numpy loads, whatever the caller set."""
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def import_sunac():
    """Import sunac from this checkout's src/, never from anywhere else."""
    if not (SRC / "sunac" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sunac package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sunac

    if Path(sunac.__file__).resolve().parent != (SRC / "sunac").resolve():
        raise SystemExit(f"perfbench: sunac was imported from {sunac.__file__}, "
                         f"not from {SRC}")
    return sunac


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_setup(samples: int) -> list[float]:
    """setup_s samples, each from a fresh interpreter run one after another."""
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(probe["sunac_file"]).resolve().parent != (SRC / "sunac").resolve():
            raise SystemExit(f"perfbench: setup probe imported "
                             f"{probe['sunac_file']}")
        out.append(probe["setup_s"])
    return out


def environment_line(threads: int, seed: int) -> str:
    import numpy
    import scipy

    def blas_version(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return f"{deps['blas']['name']}-{deps['blas']['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return (f"env blas_threads={threads} nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} numpy_blas={blas_version(numpy)} "
            f"scipy_blas={blas_version(scipy)} seed={seed}")


def measure(w, seeds, seconds, config, store, tracer=None):
    """Closed loop, one client: ops back to back until `seconds` have passed
    (at least one op).  Returns (results, exceptions, spans per result,
    phase wall seconds)."""
    from workloads import run_op

    results, raised, spans = [], [], []
    start = time.perf_counter()
    while not (results or raised) or time.perf_counter() - start < seconds:
        try:
            result = run_op(w, next(seeds), config, store)
        except Exception as exc:  # a failed op is counted, not fatal
            raised.append(f"{type(exc).__name__}: {exc}")
        else:
            results.append(result)
        if tracer is not None:
            taken = tracer.take()
            if len(spans) < len(results):
                spans.append(taken)
    return results, raised, spans, time.perf_counter() - start


def bench(w, check_w, seed, seconds, trace, config, store, setup):
    """Run one workload; returns (report lines, result object).

    setup carries setup_s samples (end-to-end run) or init_weights_s and
    rss_mb of this process (traced run)."""
    from layers import PER_LAYER, layer_metrics
    from spans import Tracer
    from workloads import op_seeds, run_check

    check = run_check(check_w, config, store)
    lines = [
        f"check input {check_w.name} seed=0: "
        f"stream_sha256={check.stream_sha256} "
        f"decoded_sha256={check.decoded_sha256} "
        f"deterministic={'no' if check.errors else 'yes'}",
        *(f"check failed: {e}" for e in check.errors),
    ]
    seeds = op_seeds(seed)
    if trace:
        plain, raised, _, _ = measure(w, seeds, seconds / 2, config, store)
        tracer = Tracer()
        with tracer.installed():
            traced, raised_t, spans, _ = measure(w, seeds, seconds / 2,
                                                 config, store, tracer)
        results, raised = plain + traced, raised + raised_t
    else:
        results, raised, _, wall = measure(w, seeds, seconds, config, store)
    attempted = len(results) + len(raised)
    failed = len(raised) + sum(1 for r in results if r.errors)
    lines += [f"op failed: {e}" for e in raised]
    lines += [f"op failed: {e}" for r in results for e in r.errors]
    lines.append(f"fail_ratio {failed / attempted} ratio "
                 f"({failed} of {attempted} ops)")
    if not results or (trace and not (plain and traced)):
        raise SystemExit("perfbench: no op completed\n" + "\n".join(lines))

    if trace:
        values = layer_metrics(
            w, list(zip((r.op_s for r in traced), spans)), results[0],
            untraced_op_s=statistics.median(r.op_s for r in plain),
            traced_op_s=statistics.median(r.op_s for r in traced),
            setup=setup)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        n_note = f"per op, {len(traced)} traced ops"
    else:
        values = {
            "setup_s": statistics.median(setup),
            "encode_s": statistics.median(r.encode_s for r in results),
            "op_s": statistics.median(r.op_s for r in results),
            "audio_s_per_s": sum(r.audio_s for r in results) / wall,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        if w.decode:
            lines.append(f"decode_s {statistics.median(r.decode_s for r in results)}"
                         f" s (median of {len(results)})")
        lines.append(f"op_s samples {[r.op_s for r in results]}")
        n_note = f"median of {len(results)} ops, setup_s of {len(setup)} processes"
    lines += [f"{name} {values[name]} {units[name]}" for name in units]
    lines.append(f"({n_note}; no tail percentile: fewer than 10 samples "
                 "beyond any)")
    result = {
        "correct": failed == 0 and not check.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    sunac = import_sunac()
    from workloads import CHECK_WORKLOAD, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of "
                     f"{', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)
    start = time.perf_counter()
    config = sunac.default_config("SUNAC")
    store = sunac.init_weights(config, seed=0)
    if args.trace:
        setup = {"init_weights_s": time.perf_counter() - start,
                 "rss_mb": peak_rss_mb()}

    lines, result = bench(w, CHECK_WORKLOAD, args.seed, args.seconds,
                          args.trace, config, store, setup)
    print(f"perfbench workload={w.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(environment_line(threads, args.seed))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
