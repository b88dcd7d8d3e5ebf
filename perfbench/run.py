#!/usr/bin/env python3
"""Benchmark of the bohrap package: four workloads, checked answers,
times in normalized seconds.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it give the raw seconds, the reference kernels' own times and the
attempted and failed count of every operation kind.  See README.md.
"""

from __future__ import annotations

import os

# Single-threaded BLAS for this process and every process it starts, set
# before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import kernels  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh-interpreter start-ups measured per run; setup_s is their median.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
OUT_DIR = ROOT / ".perfbench_out"


def _worker_cmd(mode, args, rounds, extra=()):
    return [sys.executable, *extra, str(HERE / "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--rounds", str(rounds), "--trace", str(args.trace),
            "--out", str(OUT_DIR)]


def setup_sample(args, rounds) -> dict:
    """Time one fresh interpreter from its start until ``bohrap.cli`` is
    imported and the workload's inputs are prepared."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_worker_cmd("setup", args, rounds), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        raw = time.perf_counter() - t0
        out, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup process failed ({proc.returncode}):\n{line}{out}{err}")
    doc = json.loads(out.strip().splitlines()[-1])
    scale = kernels.NOMINAL_S["python"] / doc["kernel_s"]
    sample = {"raw_s": raw, "kernel_s": doc["kernel_s"], "s": raw * scale,
              "import_s": doc["import_s"] * scale}
    if args.trace:
        sample["import_scipy_stats_s"] = doc["import_scipy_stats_s"] * scale
    return sample


def run_worker(args, rounds, references) -> dict:
    report = OUT_DIR / f"report-{args.workload}-{args.seed}-{args.trace}.json"
    report.unlink(missing_ok=True)
    cmd = _worker_cmd("ops", args, rounds) + ["--report", str(report)]
    proc = subprocess.run(cmd, cwd=ROOT, input=json.dumps(references),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not report.is_file():
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(report.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="nominal run length; sets the number of rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bohrap" / "__init__.py").is_file():
        print(f"perfbench: no bohrap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    rounds = wl.rounds(args.seconds)
    if args.trace:
        # The traced run makes an untraced and a traced pass of half length.
        rounds = max(1, rounds // 2)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setups = [setup_sample(args, rounds) for _ in range(SETUP_SAMPLES)]
        references = wl.references(wl.specs(args.seed, rounds),
                                   OUT_DIR / "kluyver.json")
        report = run_worker(args, rounds, references)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT_DIR / "cli", ignore_errors=True)

    timed = [r for r in report["records"] if not r["warmup"]]
    problems = [p for r in report["records"] for p in r["problems"]]
    attempted = Counter(r["kind"] for r in timed)
    failed = Counter(r["kind"] for r in timed if r["failed"])
    norm = [r["raw_s"] * r["scale"] for r in timed]
    raw = [r["raw_s"] for r in timed]
    kernel_s = [k for r in report["records"] for k in r["kernel_s"]]
    setup_kernel = ", ".join(f"{s['kernel_s']:.6f}" for s in setups)

    for kind in sorted(attempted):
        print(f"kind {kind}: attempted {attempted[kind]} failed {failed[kind]}")
    first_failure = {}
    for r in timed:
        if r["failed"]:
            first_failure.setdefault(r["kind"], r["error"] or r["probe_problems"])
    for kind, why in first_failure.items():
        print(f"  first {kind} failure: {why}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"raw: op_p50_s {statistics.median(raw):.6f} ops_total_s {sum(raw):.6f} "
          f"setup_s {statistics.median(s['raw_s'] for s in setups):.6f}")
    print(f"kernel {report['kernel']}: nominal {report['nominal_kernel_s']} s, "
          f"measured median {statistics.median(kernel_s):.6f} s "
          f"[{min(kernel_s):.6f}, {max(kernel_s):.6f}] over {len(kernel_s)}; "
          f"python kernel after each setup: {setup_kernel} s")
    print(f"ops {len(timed)} in {rounds} rounds")

    if args.trace:
        layers = dict(report["layers"])
        layers["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        layers["cli.import_scipy_stats_s"] = statistics.median(
            s["import_scipy_stats_s"] for s in setups)
        units = {"calls": "count", "terms_out": "count", "mc_samples": "count",
                 "tensor_points": "count", "torus_dim_max": "count",
                 "mc_samples_per_s": "1/s"}
        metrics = {k: {"value": v, "unit": units.get(k.rsplit(".", 1)[-1], "s")}
                   for k, v in sorted(layers.items())}
        print(f"trace file: {report['trace_file']}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["s"] for s in setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(norm), "unit": "s"},
            "ops_total_s": {"value": sum(norm), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": sum(attempted.values()),
                      "failed": sum(failed.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
