"""Run one workload of the strobe benchmark and print its metrics.

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

The run sets up the workload several times (reporting the median set-up
time), then repeats whole passes over the workload's timed region until
--seconds have elapsed, checks the outputs and prints two JSON lines: a
detailed record (provenance, digests, checks, every figure measured, in
reference time and in wall time) and, last, the summary {"correct",
"attempted", "failed", "metrics"}. The end-to-end metrics are in reference
time: wall time calibrated against the CPU speed measured alongside (see
clock.py). With --trace 1 it sets up once under the tracer, runs untraced
passes for --seconds, then one traced pass, and the summary holds the
per-layer metrics; the spans go to bench/out/trace-<workload>-seed<seed>.jsonl.

The exit code is 0 when every check passed, 1 when one failed, and 2 when
the library source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "leakage", "lofo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat timed passes until this much time has passed (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import the library."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms, which
    # would quantize the measurement.
    subprocess.run([sys.executable, "-c", "import strobe"], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def provenance(workload, seed: int, seconds: float, params) -> dict:
    import numpy as np

    import workloads as wl

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True).stdout.split() or (None, None)
        if top and Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "strobe").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())

    preset_name = "confounded" if workload.name in ("corpus", "leakage") else "control"
    workload_params = asdict(params)
    if workload.name == "leakage":
        workload_params["grid_indices"] = workload.grid()[0]
    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "preset": preset_name,
        "synth_config": wl.preset(preset_name, seed, params).to_json(),
        "params": workload_params,
        "jobs": 1,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, params=None,
        work_root: Path = BENCH / ".work") -> tuple[dict, dict]:
    """Run one workload; returns (detailed record, summary line)."""
    import workloads as wl

    params = params or wl.DEFAULT_PARAMS[name]
    work = work_root / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(wl.WORKLOADS[name](seed, work, params), seed, seconds, trace, params)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed: int, seconds: float, trace: bool, params) -> tuple[dict, dict]:
    import workloads as wl

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()

    setup_spans, import_times = [], []
    state = None
    with clock.SpeedSampler() as sampler:
        for _ in range(1 if trace else params.setup_repeats):
            if state is not None:
                workload.teardown(state)
            start = time.perf_counter()
            with sampler.suspended():
                import_times.append(import_seconds())
            with tracer.installed() if tracer else nullcontext():
                state = workload.setup()
            setup_spans.append((start, time.perf_counter()))

        try:
            passes, cpu_times = [], []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < seconds:
                cpu = time.process_time()
                passes.append(workload.run_pass(state))
                cpu_times.append(time.process_time() - cpu)
            traced = None
            if tracer:
                with tracer.installed():
                    traced = workload.run_pass(state)
            checks = workload.check(state, passes[-1])
        finally:
            workload.teardown(state)

    digests = passes[0].outputs
    checks.append(wl.Check("outputs identical across passes",
                           all(p.outputs == digests for p in passes), f"{len(passes)} passes"))
    setup_digests = workload.setup_digests
    checks.append(wl.Check("set-up outputs identical across repeats",
                           all(d == setup_digests[0] for d in setup_digests),
                           f"{len(setup_digests)} set-ups"))
    if traced is not None:
        checks.append(wl.Check("traced and untraced digests identical", traced.outputs == digests,
                               json.dumps(traced.outputs)))

    setup_apps = sum(e.n_apps for e in workload.extractions)
    setup_failed = sum(len(e.errors) for e in workload.extractions)
    attempted = setup_apps + sum(p.attempted for p in passes) + len(checks)
    failed = setup_failed + sum(p.failed for p in passes) + sum(not c.ok for c in checks)
    correct = failed == 0

    def figures(timer) -> tuple[dict, dict]:
        """End-to-end metrics and the other figures, timed by `timer`."""
        gated, reported = wl.format_metrics(*workload.format_runs(passes), timer)
        end_to_end = {
            "setup_s": (statistics.median(timer.seconds(*s) for s in setup_spans), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "timed_s": (statistics.median(wl.pass_seconds(p, timer) for p in passes), "s"),
            **gated,
        }
        other = {**reported, **workload.named_metrics(passes, timer)}
        return ({k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
                {k: {"value": v, "unit": u} for k, (v, u) in other.items()})

    e2e, other = figures(sampler)
    wall_e2e, wall_other = figures(clock.WallClock())
    record = {
        "record": "strobe-bench",
        "provenance": provenance(workload, seed, seconds, params),
        "trace": bool(tracer),
        "setup_s_samples": [sampler.seconds(*s) for s in setup_spans],
        "import_s_samples": import_times,
        "passes": [{"seconds": wl.pass_seconds(p, sampler),
                    "wall_seconds": wl.pass_seconds(p, clock.WallClock()),
                    "cpu_seconds": c,
                    "stages": {k: sampler.seconds(*v) for k, v in p.stages.items()}}
                   for p, c in zip(passes, cpu_times)],
        "end_to_end": e2e,
        "figures": other,
        "wall": {"end_to_end": wall_e2e, "figures": wall_other},
        "speed_samples": len(sampler.durations),
        "median_slowdown": sampler.slowdown(),
        "ops_failed_share": failed / attempted,
        "digests": {**digests, **setup_digests[0]},
        "checks": [asdict(c) for c in checks],
    }
    metrics = e2e
    if tracer:
        traced_s = wl.pass_seconds(traced, sampler)
        overhead = traced_s / e2e["timed_s"]["value"] - 1.0
        layer = {k: {"value": v, "unit": u} for k, (v, u) in tracer.layer_metrics().items()}
        layer["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
        trace_file = BENCH / "out" / f"trace-{workload.name}-seed{seed}.jsonl"
        tracer.write(trace_file)
        record.update(per_layer=layer, traced_pass_seconds=traced_s,
                      tracing_overhead_share=overhead,
                      trace_file=trace_file.relative_to(ROOT).as_posix())
        metrics = layer
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "strobe" / "__init__.py").is_file():
        print(f"error: library source {SRC / 'strobe'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    # One process, jobs=1, and no BLAS thread pool: the 8-feature vectors
    # gain nothing from threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # The pipeline is serial: pin it to one CPU so that migrations between
    # CPUs do not add to the run-to-run spread.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    record, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
