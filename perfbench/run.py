#!/usr/bin/env python3
"""Benchmark of the ``quc`` command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N --seconds S --trace 0|1]

Closed loop with one client: each invocation of the CLI runs in a fresh
Python process (``child.py``), as it does for a user, so no cache of the
program stays warm between invocations.  Invocations repeat as long as
the next one is expected to end within ``--seconds``, at least once, and
the medians are reported.  The package is
taken from ``src/`` next to this directory; the benchmark exits with an
error when it is missing.

With ``--trace 0`` the end-to-end metrics are reported: ``wall_s`` (the
``quc.cli.main`` call), ``setup_s`` (``import quc`` plus ``parse_config``)
and ``peak_rss_mb``.  With ``--trace 1`` every round runs one untraced and
one traced invocation; the layer metrics come from the traced ones, and
``trace.overhead_s`` is the traced minus the untraced median wall time.

Every invocation is checked (see ``workloads.check_outputs``), and all
invocations of one run must write byte-identical CSV artifacts.  The last
line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is printed as
``fail_frac``.  The environment, every sample and the spans of the last
traced invocation are written to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# No invocation outlives this many seconds after the run started.
TIMEOUT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def environment():
    """What the numbers depend on besides the code."""
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when unknown."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def invoke(workload, config_path, trace, timeout, n, verified):
    """Run the CLI once in a fresh process and check its outputs.

    ``verified`` is a set of artifact digests that passed every check; an
    invocation that wrote the same bytes is not read again, and one that
    passes adds its digest.
    """
    out_dir = os.path.join(WORK, "out")
    result_path = os.path.join(WORK, "child.json")
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path,
           "1" if trace else "0", config_path, "--",
           "--out-dir", out_dir, workload.command, config_path]
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "problems": [f"timed out after {timeout:.0f} s"]}
    sample = {"trace": trace}
    if os.path.exists(result_path):
        with open(result_path) as fh:
            sample.update(json.load(fh))
        if not os.path.realpath(sample["quc_file"]).startswith(os.path.realpath(SRC) + os.sep):
            raise SystemExit(f"benchmark: measured {sample['quc_file']}, not the package "
                             f"under {SRC}")
    else:
        sample["stderr"] = proc.stderr[-2000:]
    if os.path.isdir(out_dir):
        sample["digest"] = workloads.artifact_digest(out_dir)
    sample["problems"] = workloads.check_outputs(
        workload, n, proc.returncode, proc.stdout, out_dir,
        check_solution=sample.get("digest") not in verified)
    if "wall_s" not in sample:
        sample["problems"].append("no measurement")
    if not sample["problems"]:
        verified.add(sample["digest"])
    return sample


def _median(samples, key):
    values = [s[key] for s in samples if key in s]
    return statistics.median(values) if values else None


def run_workload(name, seed, seconds, trace, n=None, log=print):
    """Repeat invocations for ``seconds`` and return the result object."""
    workload = workloads.WORKLOADS[name]
    os.makedirs(WORK, exist_ok=True)
    config_path = os.path.join(WORK, f"{name}.json")
    with open(config_path, "w") as fh:
        json.dump(workload.config(seed, n), fh, indent=1)

    start = time.perf_counter()
    samples = []
    verified = set()
    longest = 0.0
    # another round starts only if, judged by the longest round so far, it
    # ends within the measuring time
    while not samples or time.perf_counter() - start + longest <= seconds:
        round_start = time.perf_counter()
        for traced in ([False, True] if trace else [False]):
            timeout = max(TIMEOUT_S - (time.perf_counter() - start), 1.0)
            samples.append(invoke(workload, config_path, traced, timeout, n, verified))
        longest = max(longest, time.perf_counter() - round_start)

    for s in samples[1:]:
        if s.get("digest") != samples[0].get("digest"):
            s["problems"].append("CSV artifacts differ from the first invocation")
    failed = sum(1 for s in samples if s["problems"])
    for s in samples:
        if s["problems"]:
            log(f"{name}: invocation failed: {'; '.join(s['problems'])}")

    plain = [s for s in samples if not s["trace"]]
    if trace:
        traced = [s for s in samples if s["trace"] and "layers" in s]
        names = sorted({k for s in traced for k in s["layers"]})
        metrics = {k: {"value": statistics.median_low(s["layers"][k] for s in traced
                                                   if k in s["layers"]),
                       "unit": tracing.unit(k)} for k in names}
        if traced and plain:
            metrics["trace.overhead_s"] = {
                "value": _median(traced, "wall_s") - _median(plain, "wall_s"), "unit": "s"}
    else:
        metrics = {k: {"value": _median(plain, k), "unit": u}
                   for k, u in END_TO_END_UNITS.items() if _median(plain, k) is not None}

    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    _save(name, seed, trace, samples, result)
    return result


def _save(name, seed, trace, samples, result):
    """Write the environment, every sample and the last spans beside the result."""
    spans = next((s.pop("spans") for s in reversed(samples) if "spans" in s), None)
    for s in samples:
        s.pop("spans", None)
    path = os.path.join(WORK, "results", f"{name}_seed{seed}_trace{int(trace)}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "environment": environment(),
                   "samples": samples, "result": result, "spans": spans}, fh)


def _print_result(name, result):
    for k, m in result["metrics"].items():
        print(f"{name} {k} = {m['value']:.6g} {m['unit']}")
    print(f"{name} fail_frac = {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.3g}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = ap.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quc", "cli.py")):
        print(f"benchmark: no quc package under {SRC}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(environment(), sort_keys=True))
    names = sorted(workloads.WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_result(name, results[name])
    if args.all:
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
