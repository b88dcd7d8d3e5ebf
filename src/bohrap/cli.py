"""Experiment runner: config-driven analyses with reproducible outputs.

One analysis per invocation.  Each subcommand's handler returns its result
document and CSV rows; ``main`` alone writes them, atomically, as
sorted-key JSON (and long-format CSV for plottable series) with a manifest
that records the resolved config hash, seed, version and timestamp so any
run can be replayed bit-identically.
"""

from __future__ import annotations

import argparse
import csv
import functools
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


def _resolve_seed(args, doc: dict) -> int | None:
    """The ``--seed`` flag, else the config seed, else a fresh draw; a
    command that reads no seed draws none and records null."""
    if args.seed is not None:
        seed = args.seed
    elif "seed" in doc:
        seed = _parse(doc["seed"], lambda v: json_int(v, "seed"), "seed")
    else:
        return secrets.randbits(32) if args.reads_seed else None
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    return seed


def _params(args, doc: dict, seed: int) -> RankOneParams:
    if args.cuts:
        cuts = _parse(args.cuts, _int_list, "--cuts")
        if not cuts:
            raise ValidationError("empty cut list")
        return make_independent_params(cuts, seed=seed)
    if "stages" not in doc:
        raise ValidationError("config must declare stages, or pass --cuts")
    return _parse(doc, RankOneParams.from_config, "config")


def _budget(args, seed: int) -> Budget:
    return Budget(samples=args.samples, seed=seed)


def _emit(args, result: dict, seed: int | None, doc: dict, csv_rows) -> None:
    """Write a command's result, its manifest and, unless ``csv_rows`` is
    None, its long-format CSV into ``--out``, named after the command."""
    name, out = args.command, Path(args.out)
    blob = _dump_json({**doc, "seed": seed})
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
            buf = io.StringIO()
            csv.writer(buf).writerows([("x", "series", "value", "error"), *csv_rows])
            _write_atomic(out / f"{name}.csv", buf.getvalue())
    except OSError as exc:
        raise ValidationError(f"cannot write results: {exc}") from exc
    print(f"wrote {out / (name + '.json')}")


# ---------------------------------------------------------------------------
# Subcommands: each returns its result document and its CSV rows (None for
# a command that writes no CSV); ``main`` writes them.


def _cmd_riesz_check(args, doc: dict, seed: int):
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
    return result, rows


def _cmd_bourgain_scan(args, doc: dict, seed: int):
    params = _params(args, doc, seed)
    report = bourgain_scan(params, k_max=args.k_max, budget=_budget(args, seed),
                           window=args.window)
    rows = [(k, "I_k", e.value, e.std_error) for k, e in enumerate(report.estimates)]
    return report.to_json(), rows


def _cmd_guenais(args, doc: dict, seed: int):
    params = _params(args, doc, seed)
    rec = guenais_sum(params, args.k, _budget(args, seed))
    rows = [(k, "partial_sum", s, 0.0) for k, s in enumerate(rec.partial_sums)]
    rows += [(k, "increment", v, 0.0) for k, v in enumerate(rec.increments)]
    return asdict(rec), rows


def _cmd_fejer(args, doc: dict, seed: int):
    params = _params(args, doc, seed)
    q_indices = _parse(args.q_indices, _int_list, "--q-indices")
    rec = fejer_factorization_check(params, q_indices, args.m, _budget(args, seed))
    return asdict(rec), None


def _cmd_kac_clt(args, doc: dict, seed: int):
    return asdict(kac_clt_diagnostics(args.q, args.samples, seed)), None


def _cmd_kac_moments(args, doc: dict, seed: int | None):
    exps = _parse(args.exponents, _int_list, "--exponents")
    value = kac_moment_identity(exps)
    return {"exponents": exps, "value": str(value), "value_float": float(value)}, None


def _cmd_flatness(args, doc: dict, seed: int):
    if "family" not in doc:
        raise ValidationError("config must declare a family for this analysis")
    spec = _parse(doc["family"], PolyFamilySpec.from_config, "family")
    p = _parse(spec, build_family, "family")
    ratio = flatness_ratio(p, _budget(args, seed))
    dev, exact = ultraflat(p, seed=seed)
    result = {"kind": spec.kind, "n": spec.n,
              "flatness_ratio": ratio.to_json(), "ultraflat_deviation": dev,
              "ultraflat_exact": exact}
    return result, [(spec.n, "flatness_ratio", ratio.value, ratio.std_error),
                    (spec.n, "ultraflat_deviation", dev, 0.0)]


def _cmd_prikhodko(args, doc: dict, seed: int):
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
    return {"eps_n": str(eps), "m_n": args.m_n,
            "interval": [args.a, args.b], "records": records}, rows


def _cmd_degree_report(args, doc: dict, seed: int):
    params = _params(args, doc, seed)
    indices = (_parse(args.indices, _int_list, "--indices")
               if args.indices else list(range(params.n_stages)))
    rep = degree_report(params, indices)
    rows = [(m, "degree", d, 0.0) for m, d in zip(indices, rep.degrees)]
    rows += [(k, "height", h, 0.0) for k, h in enumerate(rep.heights)]
    return asdict(rep), rows


# ---------------------------------------------------------------------------
# Parser and entry point


def _subcommand(sub, name: str, fn, help: str, cuts: bool = False,
                samples: bool = True, reads_seed: bool = True):
    """Declare one subcommand with its handler and the shared flags.

    ``--cuts`` where it reads rank-one parameters, ``--samples`` only where
    a Monte Carlo budget or a sample count is read.  ``reads_seed`` is False
    for a command whose output no seed changes, so that without one its
    manifest is the same on every run.
    """
    p = sub.add_parser(name, help=help)
    p.set_defaults(fn=fn, reads_seed=reads_seed)
    if cuts:
        p.add_argument("--cuts", help="comma list of cut numbers (fresh symbols)")
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    if samples:
        p.add_argument("--samples", type=int, default=Budget.samples,
                       help="Monte Carlo sample budget")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call."""
    ap = argparse.ArgumentParser(
        prog="bohrap",
        description="Almost-periodic polynomial and Riesz-product analyses",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    _subcommand(sub, "riesz-check", _cmd_riesz_check,
                "exact probability and product means", cuts=True, samples=False)

    p = _subcommand(sub, "bourgain-scan", _cmd_bourgain_scan,
                    "greedy subsequence decay scan", cuts=True)
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--window", type=int, default=3,
                   help="candidate stages per step; 1 takes consecutive stages")

    p = _subcommand(sub, "guenais", _cmd_guenais,
                    "partial sums of sqrt(1 - |P_k|_1^2)", cuts=True)
    p.add_argument("--k", type=int, default=4, help="number of stages")

    p = _subcommand(sub, "fejer", _cmd_fejer,
                    "mean factorization under independence", cuts=True)
    p.add_argument("--q-indices", default="0", help="stages forming Q")
    p.add_argument("--m", type=int, default=1, help="factor stage")

    p = _subcommand(sub, "kac-clt", _cmd_kac_clt,
                    "normalized character-sum CLT empirics")
    p.add_argument("--q", type=int, default=128)

    p = _subcommand(sub, "kac-moments", _cmd_kac_moments,
                    "exact cosine-product moments", samples=False,
                    reads_seed=False)
    p.add_argument("--exponents", default="2", help="comma list of exponents")

    _subcommand(sub, "flatness", _cmd_flatness,
                "flatness ratio and sup-norm deviation")

    p = _subcommand(sub, "prikhodko", _cmd_prikhodko,
                    "local vs global flatness contrast")
    p.add_argument("--sizes", default="64,128,256", help="comma list of p_n")
    p.add_argument("--m-n", type=int, default=1)
    p.add_argument("--eps-n", default="1/2")
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=2.0)

    p = _subcommand(sub, "degree-report", _cmd_degree_report,
                    "degree and height bookkeeping", cuts=True, samples=False)
    p.add_argument("--indices", help="comma list of stage indices")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _load_config(args)
        seed = _resolve_seed(args, doc)
        result, rows = args.fn(args, doc, seed)
        _emit(args, result, seed, doc, rows)
    except BohrapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
