"""Benchmark of hardylab: time to a table on the disc, circle and bidisc workloads.

Run from the root of a hardylab checkout; the package is imported from
``src/`` and nothing is installed:

    python3 perfbench/run.py --workload disc --seed 1 --seconds 20 --trace 0

One process, one caller, closed loop: the workload's calls into the public
API run one after the other.  BLAS/OpenMP thread pools are capped at the
number of CPUs this process may use.  The workload table is repeated while
the next repetition still fits in ``--seconds`` (at least once).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` wraps the package's public functions (see ``tracer.py``) and
reports the per-layer metrics, per table, and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  If
any output check fails the failures go to standard error, the result says
``"correct": false`` and the exit code is 1.
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
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is measured in this many fresh processes plus the main one.
SETUP_PROBES = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable CPU count, before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def require_sources() -> None:
    if not (SRC / "hardylab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hardylab sources under {SRC}")


def setup(seed: int):
    """Import hardylab from this checkout and build the seeded registry."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import hardylab
    if Path(hardylab.__file__).resolve().parent != SRC / "hardylab":
        raise SystemExit(f"perfbench: imported hardylab from "
                         f"{hardylab.__file__}, not from {SRC}")
    import hardylab.experiments  # noqa: F401  (submodules used by name)
    import hardylab.norms  # noqa: F401
    import hardylab.quadrature  # noqa: F401
    import hardylab.registry  # noqa: F401
    import hardylab.reinhardt  # noqa: F401
    import hardylab.witnesses  # noqa: F401
    cfg = hardylab.RunConfig(seed=seed)
    reg = hardylab.default_registry(seed)
    return hardylab, cfg, reg, perf_counter() - t0


def probe_setup(seed: int) -> float:
    """Set-up seconds measured inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(proc.stdout.strip().splitlines()[-1])


def environment(seed: int, threads: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "blas_thread_cap": threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "seed": seed}


def declared_metrics(key: str) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=False)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    require_sources()
    threads = cap_threads()
    if args.setup_probe:
        print(repr(setup(args.seed)[3]))
        return 0

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Checks
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    run, check = WORKLOADS[args.workload]

    # Half the set-up probes run before the workload and half after it, so
    # that their median spans the run rather than one moment of it.
    setups = [probe_setup(args.seed) for _ in range(SETUP_PROBES // 2)]
    hl, cfg, reg, t_setup = setup(args.seed)
    setups.append(t_setup)
    env = environment(args.seed, threads)
    print("env " + json.dumps(env), flush=True)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    chk = Checks()
    walls, cpus = measure(run, check, hl, cfg, reg, chk, tracer, args.seconds)
    setups += [probe_setup(args.seed)
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    wall_s = statistics.median(walls)
    OUT.mkdir(exist_ok=True)
    selfcheck_ok = True
    if tracer is None:
        key = "end_to_end"
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0, "unit": "MiB"},
            "err_over_tol": {"value": chk.err_over_tol, "unit": "ratio"},
            "ok_share": {"value": 1.0 - len(chk.failures) / chk.attempted,
                         "unit": "ratio"},
        }
        with open(OUT / f"untraced-{args.workload}.json", "w") as fh:
            json.dump({"seed": args.seed, "wall_s": wall_s}, fh)
    else:
        key = "per_layer"
        metrics = tracer.per_layer(len(walls))
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
        if metrics["trace.selfcheck_mismatches"]["value"]:
            selfcheck_ok = False
            print("TRACER SELF-CHECK FAILED: integrand points differ from "
                  "refinement node counts", file=sys.stderr)
        write_trace(tracer, env, args, walls, metrics)

    declared = declared_metrics(key)
    if sorted(declared) != sorted(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {key} {sorted(declared)}")
    print(f"worst error/tol {chk.err_over_tol:.6g} at {chk.worst}",
          file=sys.stderr)
    for line in chk.failures:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    correct = selfcheck_ok and not chk.failures
    print(json.dumps({"correct": correct, "attempted": chk.attempted,
                      "failed": len(chk.failures),
                      "metrics": {name: metrics[name] for name in declared}}))
    return 0 if correct else 1


def measure(run, check, hl, cfg, reg, chk, tracer, seconds):
    """Repeat the workload while another repetition fits in ``seconds``."""
    walls, cpus = [], []
    start = perf_counter()
    while True:
        c0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = perf_counter()
        if tracer is None:
            out = run(hl, cfg, reg)
        else:
            with tracer.installed(hl):
                out = run(hl, cfg, reg)
        walls.append(perf_counter() - t0)
        c1 = resource.getrusage(resource.RUSAGE_SELF)
        cpus.append((c1.ru_utime - c0.ru_utime) + (c1.ru_stime - c0.ru_stime))
        check(hl, cfg, out, chk)
        print(f"rep {len(walls)}: {walls[-1]:.3f} s wall, {cpus[-1]:.3f} s "
              f"cpu", file=sys.stderr, flush=True)
        if perf_counter() - start + statistics.median(walls) > seconds:
            return walls, cpus


def write_trace(tracer, env, args, walls, metrics):
    """Write the spans; report overhead against the last untraced run."""
    ref = OUT / f"untraced-{args.workload}.json"
    overhead = None
    if ref.is_file():
        with open(ref) as fh:
            overhead = statistics.median(walls) - json.load(fh)["wall_s"]
        print(f"tracing overhead: {overhead:+.3f} s against the last "
              f"untraced run of {args.workload}", file=sys.stderr)
    with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"env": env, "workload": args.workload,
                   "walls": walls, "overhead_s": overhead,
                   "span_fields": ["id", "name", "start", "end", "parent",
                                   "trace"],
                   "spans": tracer.spans, "calls": tracer.calls,
                   "refines": tracer.refines, "metrics": metrics}, fh)


if __name__ == "__main__":
    sys.exit(main())
