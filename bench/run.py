#!/usr/bin/env python3
"""diskproj benchmark: one workload per run, every metric by name.

Usage, from the root of a checkout:

    python3 bench/run.py --workload suites --seed 0 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen): ``suites``,
``deep-projection`` and ``dyadic-depth``. A run repeats passes of the
workload, each one set up afresh from the seed, until ``--seconds`` of
timed passes have run (at least three). Output checks run after each
pass, outside its timing.

``--trace 0`` reports the end-to-end metrics, medians over passes.
``--trace 1`` runs one untraced pass, then at least two passes under
the span tracer (bench/tracer.py), and reports the per-layer metrics.
It stops with an error if any count differs between traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Diagnostics and
the machine record go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
IMPORT_SAMPLES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def cap_blas_threads():
    """No more BLAS threads than cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def import_seconds():
    """Median time to import diskproj in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import diskproj; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=120, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def machine_record(nproc):
    import numpy as np
    import platform
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": nproc,
            "machine": platform.machine(), "cpu": _cpu_model(),
            "blas": blas, "blas_threads": _blas_threads(),
            "blas_env": {var: os.environ[var] for var in BLAS_ENV}}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, when it says."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# -- passes -------------------------------------------------------------------

def one_pass(work, seed, work_dir):
    """Set up from the seed, then run the timed pass."""
    t0 = time.perf_counter()
    inputs = work.setup(seed, work_dir)
    build_s = time.perf_counter() - t0
    w0, c0 = time.perf_counter(), time.process_time()
    outputs = work.run(inputs)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return inputs, outputs, build_s, wall, cpu


class Checks:
    """Tallies output checks and raised calls across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = True

    def add(self, work, inputs, outputs):
        results = work.check(inputs, outputs, self.first)
        results += [(f"call raised: {label}", False)
                    for label, _ in outputs["calls"].raised]
        for label, tb in outputs["calls"].raised:
            print(f"raised in {label}:\n{tb}", file=sys.stderr)
        for name, ok in results:
            if not ok:
                print(f"check failed: {name}", file=sys.stderr)
        self.attempted += len(results)
        self.failed += sum(1 for _, ok in results if not ok)
        self.first = False


def end_to_end(work, args, work_dir, checks):
    import_s = import_seconds()
    builds, walls, cpus = [], [], []
    while True:
        inputs, outputs, build_s, wall, cpu = one_pass(work, args.seed, work_dir)
        checks.add(work, inputs, outputs)
        del inputs, outputs
        builds.append(build_s)
        walls.append(wall)
        cpus.append(cpu)
        if len(walls) >= MIN_PASSES and \
                sum(walls) + statistics.median(walls) > args.seconds:
            break
    print(f"passes: {len(walls)}; wall {walls}; cpu {cpus}; build {builds}; "
          f"import {import_s}", file=sys.stderr)
    total = checks.attempted
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (import_s + statistics.median(builds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "pass_ratio": ((total - checks.failed) / total, "ratio"),
    }


def per_layer(work, args, work_dir, checks):
    from tracer import COUNTS, DEPTHS, LAYERS, Tracer
    from workloads import SUITES

    t0 = time.perf_counter()
    inputs, outputs, build_s, wall, _ = one_pass(work, args.seed, work_dir)
    plain_s = time.perf_counter() - t0
    checks.add(work, inputs, outputs)
    del inputs, outputs

    tracer = Tracer()
    tracer.install()
    passes, spent = [], 0.0
    try:
        while len(passes) < MIN_TRACED_PASSES or \
                spent + spent / len(passes) <= args.seconds:
            tracer.reset()
            tracer.active = True
            t0 = time.perf_counter()
            inputs, outputs, _, _, _ = one_pass(work, args.seed, work_dir)
            traced_s = time.perf_counter() - t0
            tracer.active = False
            spent += traced_s
            calls, self_s, by_fn = tracer.layer_table()
            passes.append({"traced_s": traced_s, "calls": calls,
                           "self_s": self_s, "by_fn": by_fn,
                           "counts": dict(tracer.counts),
                           "inclusive": dict(tracer.inclusive),
                           "suites": outputs.get("seconds", {})})
            checks.add(work, inputs, outputs)
            del inputs, outputs
    finally:
        tracer.uninstall()

    first = passes[0]
    for i, p in enumerate(passes[1:], start=1):
        for key in ("counts", "calls"):
            if p[key] != first[key]:
                diff = {k: (first[key].get(k), p[key].get(k))
                        for k in set(first[key]) | set(p[key])
                        if first[key].get(k) != p[key].get(k)}
                raise SystemExit(f"count metrics differ between traced passes "
                                 f"0 and {i} at seed {args.seed}: {diff}")

    def med(get):
        return statistics.median(get(p) for p in passes)

    counts = first["counts"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (first["calls"][layer], "count")
        m[f"{layer}.self_s"] = (med(lambda p: p["self_s"][layer]), "s")
    for layer in LAYERS[:-1]:
        for J in DEPTHS:
            m[f"{layer}.self_s.J{J}"] = (
                med(lambda p: p["self_s"][(layer, J)]), "s")
    for name in COUNTS:
        if name not in ("kernels.rule_nodes", "kernels.rule_nodes_useful",
                        "operators.matrix_bytes"):
            m[name] = (counts[name], "count")
    nodes = counts["kernels.rule_nodes"]
    m["kernels.rule_nodes_useful_ratio"] = (
        counts["kernels.rule_nodes_useful"] / nodes if nodes else 0.0, "ratio")
    m["operators.matrix_mb"] = (counts["operators.matrix_bytes"] / 2 ** 20, "MB")
    for name in ("operators.apply_s", "operators.norm_s", "twoweight.testing_s"):
        m[name] = (med(lambda p: p["inclusive"].get(name, 0.0)), "s")
    for suite in SUITES:
        m[f"cli.{suite}_s"] = (med(lambda p: p["suites"].get(suite, 0.0)), "s")
    m["trace.overhead_s"] = (med(lambda p: p["traced_s"]) - plain_s, "s")

    top = sorted(first["by_fn"].items(), key=lambda kv: -kv[1])[:15]
    print(f"traced passes: {len(passes)}; untraced pass {plain_s:.3f} s "
          f"(build {build_s:.3f}, run {wall:.3f}); top self time in pass 0:",
          file=sys.stderr)
    for name, sec in top:
        print(f"  {sec:9.4f} s  {name}", file=sys.stderr)
    return m


def declared_metrics(trace):
    """Names and units BENCHMARK.json declares for this mode, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "diskproj" / "__init__.py").is_file():
        print(f"diskproj sources not found under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import diskproj
    from workloads import WORKLOADS

    if Path(diskproj.__file__).resolve().parent != (SRC / "diskproj").resolve():
        print(f"imported diskproj from {diskproj.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    print(json.dumps({"machine": machine_record(nproc)}), file=sys.stderr)

    work = WORKLOADS[args.workload]
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(work, args, work_dir, checks)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    declared = declared_metrics(args.trace)
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if declared is not None and declared != produced:
        wrong = sorted(set(declared.items()) ^ set(produced.items()))
        raise SystemExit(f"metrics differ from BENCHMARK.json: {wrong}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
