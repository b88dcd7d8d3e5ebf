"""One workload process: runs, times and checks a workload's operations.

Started by ``run.py`` in a fresh interpreter, with the references on stdin.
Two modes:

``setup``  imports ``bohrap.cli`` and prepares the workload's inputs, prints
           ``ready`` at once, then reports its import times and the median
           of three runs of the Python reference kernel.  ``run.py`` times the start-up from
           outside.
``ops``    runs the warm-up operation and the timed operations, with the
           workload's reference kernel timed just before and just after
           each, and writes a JSON report.  With ``--trace 1`` the operations
           run twice, untraced and then traced.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def _import_program(staged: bool) -> dict:
    """Import ``bohrap.cli`` from this checkout's ``src`` and time it.

    Runs before the benchmark's own modules load numpy, so the time is the
    program's whole import.  ``staged`` imports numpy, then scipy.stats,
    then the rest, to split out the cost of scipy.stats."""
    t0 = time.perf_counter()
    if staged:
        import numpy  # noqa: F401
        t1 = time.perf_counter()
        import scipy.stats  # noqa: F401
        stats_s = time.perf_counter() - t1
    import bohrap.cli
    out = {"import_s": time.perf_counter() - t0}
    if staged:
        out["import_scipy_stats_s"] = stats_s
    src = (ROOT / "src").resolve()
    if not Path(bohrap.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bohrap was imported from {bohrap.cli.__file__}, not {src}")
    return out


def setup_mode(args, imports: dict) -> int:
    import kernels
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    specs = wl.specs(args.seed, args.rounds)
    out_dir = Path(args.out) / "cli"
    for spec in specs:
        wl.prepare(spec, out_dir)
    print("ready", flush=True)
    # A fresh interpreter's first kernel runs are the noisiest: take the
    # median of three.
    kernel_s = sorted(kernels.time_kernel("python") for _ in range(3))[1]
    print(json.dumps(dict(imports, kernel_s=kernel_s)), flush=True)
    return 0


def _run_pass(wl, specs, prepared, refs, kernel, tracer=None):
    """Run every spec once; returns one record per operation."""
    import kernels
    from bohrap.errors import BohrapError
    from workloads import OpFailed
    records = []
    # The kernel timed after one operation is also the one timed before the
    # next; only that operation's check runs in between.
    after = kernels.time_kernel(kernel)
    for i, (spec, prep) in enumerate(zip(specs, prepared)):
        if tracer is not None:
            tracer.op = i
        before = after
        t0 = time.perf_counter()
        error = None
        try:
            output = wl.run(prep)
        except (BohrapError, OpFailed) as exc:
            error = f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - t0
        after = kernels.time_kernel(kernel)
        if tracer is not None:
            tracer.op = -1
        if error is None:
            problems = wl.check(spec, prep, output, refs)
        else:
            problems = []
        probe = spec["kind"] in wl.probe_kinds
        records.append({
            "kind": spec["kind"],
            "warmup": bool(spec.get("warmup")),
            "raw_s": raw,
            "kernel_s": [before, after],
            "scale": kernels.NOMINAL_S[kernel] / ((before + after) / 2.0),
            "failed": error is not None or (probe and bool(problems)),
            "error": error,
            "problems": [] if probe else problems,
            "probe_problems": problems if probe else [],
        })
    return records


def _layer_metrics(tracer, records, index) -> dict:
    """Per-layer figures per timed operation, in normalized seconds."""
    scales = {i: records[i]["scale"] for i in index}
    totals = tracer.layer_totals(scales)
    n = len(index)
    out = {}

    def put(name, value):
        out[name] = value / n

    for name in ("riesz.build_polynomial", "riesz.stage_exponents",
                 "riesz.abs2_polynomial", "riesz.extend", "appoly.from_terms",
                 "appoly.mul", "freqspace.torus_reduce",
                 "bohrint.bohr_integral_multi"):
        put(f"{name}.s", totals[name]["s"])
    for name in ("riesz.build_polynomial", "appoly.mul",
                 "freqspace.torus_reduce", "bohrint.bohr_integral_multi"):
        put(f"{name}.calls", totals[name]["calls"])
    for name in ("cli.main", "criteria.bourgain_scan"):
        put(f"{name}.self_s", totals[name]["self_s"])
    counts = {i: tracer.counts.get(i, {}) for i in index}
    for key in ("appoly.mul.terms_out", "bohrint.mc_samples",
                "bohrint.tensor_points"):
        put(key, sum(c.get(key, 0) for c in counts.values()))
    out["bohrint.torus_dim_max"] = max(
        (c.get("bohrint.torus_dim_max", 0) for c in counts.values()), default=0)
    mc_s = sum(c.get("bohrint.mc_raw_s", 0.0) * scales[i] for i, c in counts.items())
    mc_n = sum(c.get("bohrint.mc_samples", 0) for c in counts.values())
    out["bohrint.mc_samples_per_s"] = mc_n / mc_s if mc_s > 0 else 0.0
    return out


def ops_mode(args) -> int:
    import kernels
    from workloads import WORKLOADS
    refs = json.load(sys.stdin)
    wl = WORKLOADS[args.workload]
    specs = wl.specs(args.seed, args.rounds)
    out_dir = Path(args.out)
    cli_dir = out_dir / "cli" / f"{args.workload}-{args.seed}"
    prepared = [wl.prepare(spec, cli_dir) for spec in specs]
    kernel = wl.kernel

    records = _run_pass(wl, specs, prepared, refs, kernel)
    report = {"kernel": kernel, "nominal_kernel_s": kernels.NOMINAL_S[kernel]}
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = _run_pass(wl, specs, prepared, refs, kernel, tracer)
        finally:
            tracer.uninstall()
        index = [i for i, r in enumerate(traced) if not r["warmup"]]
        layers = _layer_metrics(tracer, traced, index)
        plain = sum(r["raw_s"] * r["scale"] for r in records if not r["warmup"])
        timed = sum(r["raw_s"] * r["scale"] for r in traced if not r["warmup"])
        layers["trace.overhead_s"] = (timed - plain) / len(index)
        report["layers"] = layers
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "spans": tracer.spans,
            "counts": {str(k): dict(v) for k, v in tracer.counts.items()},
            "scales": {str(i): traced[i]["scale"] for i in range(len(traced))},
        }))
        report["trace_file"] = str(trace_path)
        records = records + traced
    report["records"] = records
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.report).write_text(json.dumps(report))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "ops"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--report")
    args = ap.parse_args(argv)
    imports = _import_program(staged=args.mode == "setup" and bool(args.trace))
    if args.mode == "setup":
        return setup_mode(args, imports)
    return ops_mode(args)


if __name__ == "__main__":
    sys.exit(main())
