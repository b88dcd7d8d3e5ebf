"""Experiment runner: config-driven analyses with reproducible outputs.

One analysis per invocation.  Results are written atomically as
sorted-key JSON (and long-format CSV for plottable series); a manifest
records the resolved config hash, seed, version and timestamp so any run
can be replayed bit-identically.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import secrets
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bohrint import Budget
from .criteria import (bourgain_scan, fejer_factorization_check, guenais_sum,
                       kac_clt_diagnostics, kac_moment_identity)
from .errors import BohrapError, ValidationError, json_int
from .flatness import (PolyFamilySpec, build_family, flatness_ratio,
                       local_vs_global_flatness, ultraflat)
from .riesz import (RankOneParams, abs2_polynomial, degree_report,
                    make_independent_params, riesz_property_check)


def _write_atomic(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data)
    os.replace(tmp, path)


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_csv(path: Path, rows, header=("x", "series", "value", "error")) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for r in rows:
        w.writerow(r)
    _write_atomic(path, buf.getvalue())


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    try:
        doc = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    return doc


def _parse(value, convert, what: str):
    """``convert(value)``, with malformed input raised as a ValidationError.

    The one place where outside input (a flag, the config seed or a config
    document) that fails to convert becomes an exit-2 error; the converters
    raise whatever builtin error their first bad field causes.
    """
    try:
        return convert(value)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise ValidationError(f"bad {what}: {type(exc).__name__}: {exc}") from None


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _resolve_seed(args, doc: dict) -> int:
    if args.seed is not None:
        seed = args.seed
    elif "seed" in doc:
        seed = _parse(doc["seed"], lambda v: json_int(v, "seed"), "seed")
    else:
        return secrets.randbits(32)
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    return seed


def _params(args, doc: dict, seed: int) -> RankOneParams:
    if getattr(args, "cuts", None):
        cuts = _parse(args.cuts, _int_list, "--cuts")
        if not cuts:
            raise ValidationError("empty cut list")
        return make_independent_params(cuts, seed=seed)
    if "stages" not in doc:
        raise ValidationError("config must declare stages, or pass --cuts")
    return _parse(doc, RankOneParams.from_config, "config")


def _budget(args, seed: int) -> Budget:
    return Budget(samples=args.samples, seed=seed)


def _emit(args, name: str, result: dict, seed: int, doc: dict,
          csv_rows=None) -> None:
    out = Path(args.out)
    resolved = dict(doc)
    resolved["seed"] = seed
    blob = _dump_json(resolved)
    manifest = {
        "command": name,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "seed": seed,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_atomic(out / f"{name}.json", _dump_json(result))
        _write_atomic(out / "manifest.json", _dump_json(manifest))
        if csv_rows is not None:
            _write_csv(out / f"{name}.csv", csv_rows)
    except OSError as exc:
        raise ValidationError(f"cannot write results: {exc}") from exc
    print(f"wrote {out / (name + '.json')}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_riesz_check(args, doc: dict, seed: int) -> int:
    params = _params(args, doc, seed)
    rows = []
    means = []
    zero = params.basis.zero()
    for k in range(params.n_stages):
        # The mean of |P_k|^2 is its pair count at zero over p_k; it is real.
        m = Fraction(abs2_polynomial(params, k).get(zero, 0), params.stage(k).p)
        means.append({"stage": k, "mean": [str(m), "0"], "is_one": m == 1})
        rows.append((k, "mean_abs2", float(m), 0.0))
    full = riesz_property_check(params, range(params.n_stages))
    result = {
        "stage_means": means,
        "product_mean": str(full),
        "riesz_property_holds": full == 1,
    }
    _emit(args, "riesz-check", result, seed, doc, rows)
    return 0


def _cmd_bourgain_scan(args, doc: dict, seed: int) -> int:
    params = _params(args, doc, seed)
    report = bourgain_scan(
        params, k_max=args.k_max, budget=_budget(args, seed),
        window=args.window,
    )
    rows = [
        (k, "I_k", e.value, e.std_error)
        for k, e in enumerate(report.estimates)
    ]
    _emit(args, "bourgain-scan", report.to_json(), seed, doc, rows)
    return 0


def _cmd_guenais(args, doc: dict, seed: int) -> int:
    params = _params(args, doc, seed)
    rec = guenais_sum(params, args.k, _budget(args, seed))
    rows = [(k, "partial_sum", s, 0.0) for k, s in enumerate(rec.partial_sums)]
    rows += [(k, "increment", v, 0.0) for k, v in enumerate(rec.increments)]
    _emit(args, "guenais", asdict(rec), seed, doc, rows)
    return 0


def _cmd_fejer(args, doc: dict, seed: int) -> int:
    params = _params(args, doc, seed)
    q_indices = _parse(args.q_indices, _int_list, "--q-indices")
    rec = fejer_factorization_check(params, q_indices, args.m, _budget(args, seed))
    _emit(args, "fejer", asdict(rec), seed, doc)
    return 0


def _cmd_kac_clt(args, doc: dict, seed: int) -> int:
    rec = kac_clt_diagnostics(args.q, args.samples, seed)
    _emit(args, "kac-clt", asdict(rec), seed, doc)
    return 0


def _cmd_kac_moments(args, doc: dict, seed: int) -> int:
    exps = _parse(args.exponents, _int_list, "--exponents")
    value = kac_moment_identity(exps)
    result = {"exponents": exps, "value": str(value), "value_float": float(value)}
    _emit(args, "kac-moments", result, seed, doc)
    return 0


def _cmd_flatness(args, doc: dict, seed: int) -> int:
    if "family" not in doc:
        raise ValidationError("config must declare a family for this analysis")
    spec = _parse(doc["family"], PolyFamilySpec.from_config, "family")
    p = _parse(spec, build_family, "family")
    ratio = flatness_ratio(p, _budget(args, seed))
    dev, exact = ultraflat(p, seed=seed)
    result = {"kind": spec.kind, "n": spec.n,
              "flatness_ratio": ratio.to_json(), "ultraflat_deviation": dev,
              "ultraflat_exact": exact}
    rows = [(spec.n, "flatness_ratio", ratio.value, ratio.std_error),
            (spec.n, "ultraflat_deviation", dev, 0.0)]
    _emit(args, "flatness", result, seed, doc, rows)
    return 0


def _cmd_prikhodko(args, doc: dict, seed: int) -> int:
    sizes = _parse(args.sizes, _int_list, "--sizes")
    eps = _parse(args.eps_n, Fraction, "--eps-n")
    rows = []
    records = []
    for n in sizes:
        spec = PolyFamilySpec(kind="prikhodko", n=n, m_n=args.m_n, eps_n=eps)
        rec = local_vs_global_flatness(spec, args.a, args.b, _budget(args, seed))
        records.append({"p_n": n, **rec.to_json()})
        rows.append((n, "local_l1_distortion", rec.local.value,
                     rec.local.refinement_delta))
        rows.append((n, "global_mean_abs", rec.global_mean_abs.value,
                     rec.global_mean_abs.std_error))
    result = {"eps_n": str(eps), "m_n": args.m_n,
              "interval": [args.a, args.b], "records": records}
    _emit(args, "prikhodko", result, seed, doc, rows)
    return 0


def _cmd_degree_report(args, doc: dict, seed: int) -> int:
    params = _params(args, doc, seed)
    indices = (_parse(args.indices, _int_list, "--indices")
               if args.indices else list(range(params.n_stages)))
    rep = degree_report(params, indices)
    rows = [(m, "degree", d, 0.0) for m, d in zip(indices, rep.degrees)]
    rows += [(k, "height", h, 0.0) for k, h in enumerate(rep.heights)]
    _emit(args, "degree-report", asdict(rep), seed, doc, rows)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point


def _add_common(p: argparse.ArgumentParser, samples: bool = True) -> None:
    """The shared flags; ``--samples`` only where a Monte Carlo budget or a
    sample count is read."""
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    if samples:
        p.add_argument("--samples", type=int, default=1 << 16,
                       help="Monte Carlo sample budget")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bohrap",
        description="Almost-periodic polynomial and Riesz-product analyses",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("riesz-check", help="exact probability and product means")
    p.add_argument("--cuts", help="comma list of cut numbers (fresh symbols)")
    _add_common(p, samples=False)
    p.set_defaults(fn=_cmd_riesz_check)

    p = sub.add_parser("bourgain-scan", help="greedy subsequence decay scan")
    p.add_argument("--cuts", help="comma list of cut numbers (fresh symbols)")
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--window", type=int, default=3,
                   help="candidate stages per step; 1 takes consecutive stages")
    _add_common(p)
    p.set_defaults(fn=_cmd_bourgain_scan)

    p = sub.add_parser("guenais", help="partial sums of sqrt(1 - |P_k|_1^2)")
    p.add_argument("--cuts", help="comma list of cut numbers (fresh symbols)")
    p.add_argument("--k", type=int, default=4, help="number of stages")
    _add_common(p)
    p.set_defaults(fn=_cmd_guenais)

    p = sub.add_parser("fejer", help="mean factorization under independence")
    p.add_argument("--cuts", help="comma list of cut numbers (fresh symbols)")
    p.add_argument("--q-indices", default="0", help="stages forming Q")
    p.add_argument("--m", type=int, default=1, help="factor stage")
    _add_common(p)
    p.set_defaults(fn=_cmd_fejer)

    p = sub.add_parser("kac-clt", help="normalized character-sum CLT empirics")
    p.add_argument("--q", type=int, default=128)
    _add_common(p)
    p.set_defaults(fn=_cmd_kac_clt)

    p = sub.add_parser("kac-moments", help="exact cosine-product moments")
    p.add_argument("--exponents", default="2", help="comma list of exponents")
    _add_common(p, samples=False)
    p.set_defaults(fn=_cmd_kac_moments)

    p = sub.add_parser("flatness", help="flatness ratio and sup-norm deviation")
    _add_common(p)
    p.set_defaults(fn=_cmd_flatness)

    p = sub.add_parser("prikhodko", help="local vs global flatness contrast")
    p.add_argument("--sizes", default="64,128,256", help="comma list of p_n")
    p.add_argument("--m-n", type=int, default=1)
    p.add_argument("--eps-n", default="1/2")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=2.0)
    _add_common(p)
    p.set_defaults(fn=_cmd_prikhodko)

    p = sub.add_parser("degree-report", help="degree and height bookkeeping")
    p.add_argument("--cuts", help="comma list of cut numbers (fresh symbols)")
    p.add_argument("--indices", help="comma list of stage indices")
    _add_common(p, samples=False)
    p.set_defaults(fn=_cmd_degree_report)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _load_config(args)
        return args.fn(args, doc, _resolve_seed(args, doc))
    except BohrapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
