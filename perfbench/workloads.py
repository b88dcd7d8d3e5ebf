"""The four workloads: seeded operation lists, how each operation runs, and
how each answer is checked.

A workload turns ``--seed`` into a list of operation specs made of plain
data (``specs``).  The driver derives references from the specs alone
(``references``), without importing the program.  The worker process turns
each spec into the program's inputs (``prepare``), runs it (``run``) and
checks the output (``check``).  ``run`` calls the program only through
module attributes such as ``bohrap.riesz.build_polynomial``, so the traced
run's wrappers see every call.

A run is the warm-up operation followed by whole rounds of the workload's
fixed operation list; its length is a count of rounds, never a clock.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import refs

#: Multiple of ``std_error`` within which a Monte Carlo estimate must lie of
#: its exact reference.  At 5 sigma a correct program fails one check in
#: about 1.7 million.
Z_MAX = 5.0
#: Absolute slack, relative to max(1, |exact|), for exact-route answers.
EXACT_TOL = 1e-9


class OpFailed(Exception):
    """The program refused an operation (nonzero CLI exit code)."""


def op_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _run_cli(argv: list[str]) -> None:
    import bohrap.cli
    rc = bohrap.cli.main(argv)
    if rc != 0:
        raise OpFailed(f"bohrap {argv[0]} exited with {rc}")


def _estimate_problem(what: str, est, exact: float) -> str | None:
    tol = Z_MAX * est.std_error + est.refinement_delta + EXACT_TOL * max(1.0, abs(exact))
    if abs(est.value - exact) <= tol:
        return None
    return (f"{what}: {est.value!r} vs exact {exact!r} "
            f"(std_error {est.std_error!r}, delta {est.refinement_delta!r})")


class Workload:
    name = ""
    kernel = ""
    #: A run makes round(seconds / round_s) rounds.  round_s is about one
    #: round's length, or less where a steady median needed more operations.
    round_s = 1.0
    #: Operation kinds that probe a known fault: their wrong answers count
    #: as failed operations, not as incorrect output.
    probe_kinds: frozenset[str] = frozenset()

    def rounds(self, seconds: int) -> int:
        return max(1, round(seconds / self.round_s))

    def round_specs(self, seed: int, r: int) -> list[dict]:
        raise NotImplementedError

    def specs(self, seed: int, rounds: int) -> list[dict]:
        """Warm-up spec first, then ``rounds`` rounds."""
        warm = next(s for s in self.round_specs(seed, 1 << 20)
                    if s["kind"] not in self.probe_kinds)
        out = [dict(warm, warmup=True)]
        for r in range(rounds):
            out.extend(self.round_specs(seed, r))
        for i, spec in enumerate(out):
            spec["id"] = i
        return out

    def references(self, specs: list[dict], cache: Path) -> dict:
        """References for ``specs``; ``cache`` is a file for Kluyver values."""
        return {}

    def prepare(self, spec: dict, out_dir: Path):
        """The program's inputs for one spec, built before timing starts."""
        raise NotImplementedError

    def run(self, prepared):
        raise NotImplementedError

    def check(self, spec: dict, prepared, output, ref: dict) -> list[str]:
        """Problems with one operation's output; ``ref`` is the whole
        ``references`` dict."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scan


class Scan(Workload):
    """``bohrap bourgain-scan`` with cuts 16x6, k-max 2 and 16384 samples.

    The README command uses cuts 64x6 and takes 5-8 s; a run could hold
    only three, and their median moved by 19% from seed to seed.  16x6
    runs the same code (exact stage builds over a 97-symbol basis, the
    column reduction and Monte Carlo) in about 0.6 s, so a run holds 21."""

    name = "scan"
    kernel = "python"
    round_s = 0.7
    P = 16
    ARGV = ["bourgain-scan", "--cuts", ",".join([str(P)] * 6), "--k-max", "2",
            "--samples", "16384"]

    def round_specs(self, seed, r):
        return [{"kind": "scan", "seed": op_seed(seed, r)}]

    def references(self, specs, cache):
        return {"w": refs.checked_kluyver([self.P], cache)[self.P]}

    def prepare(self, spec, out_dir):
        return self.ARGV + ["--seed", str(spec["seed"]), "--out", str(out_dir)]

    def run(self, argv):
        _run_cli(argv)
        return Path(argv[-1]) / "bourgain-scan.json"

    def check(self, spec, argv, path, ref):
        doc = json.loads(path.read_text())
        problems = []
        for step, cands in enumerate(doc["candidates"]):
            exact = refs.product_mean_abs(ref["w"], self.P, step + 1)
            for c in cands:
                if not (c["std_error"] > 0
                        and abs(c["value"] - exact) <= Z_MAX * c["std_error"]):
                    problems.append(
                        f"scan step {step} stage {c['stage']}: {c['value']!r} "
                        f"vs (W_{self.P}(1)/sqrt({self.P}))^{step + 1} = {exact!r} "
                        f"(std_error {c['std_error']!r})")
        if len(doc["candidates"]) != 2:
            problems.append(f"scan made {len(doc['candidates'])} steps, not 2")
        return problems


# ---------------------------------------------------------------------------
# kac


class Kac(Workload):
    """Monte Carlo mean |P_0| for one stage with p independent spacers."""

    name = "kac"
    kernel = "numpy"
    round_s = 3.0
    #: (cut number, Monte Carlo samples) per round.
    CUTS = ((16, 1 << 18), (32, 1 << 17), (64, 1 << 16), (128, 1 << 16))
    #: Stage 139 of 140 stages with p = 2: one nonzero frequency, but 141
    #: active basis columns, so the column path needs exponents near 2^139.
    PROBE_CUTS = 140
    probe_kinds = frozenset({"budget_probe"})

    def round_specs(self, seed, r):
        out = [{"kind": "budget_probe"}]
        for i, (p, n) in enumerate(self.CUTS):
            out.append({"kind": "mean_abs", "p": p, "samples": n,
                        "seed": op_seed(seed, r, i)})
        return out

    def references(self, specs, cache):
        w = refs.checked_kluyver([p for p, _ in self.CUTS], cache)
        means = {str(p): w[p] / math.sqrt(p) for p, _ in self.CUTS}
        # P = (1 + e^{i h t}) / sqrt(2): E|P| = W_2(1) / sqrt(2) = 2 sqrt(2) / pi.
        return {"mean_abs": means, "budget_probe": w[2] / math.sqrt(2)}

    def prepare(self, spec, out_dir):
        from bohrap.bohrint import Budget
        from bohrap.riesz import make_independent_params
        if spec["kind"] == "budget_probe":
            return (make_independent_params([2] * self.PROBE_CUTS, seed=0),
                    self.PROBE_CUTS - 1, Budget(samples=1 << 16, seed=0))
        return (make_independent_params([spec["p"]], seed=spec["seed"]), 0,
                Budget(samples=spec["samples"], seed=spec["seed"]))

    def run(self, prepared):
        import bohrap.bohrint
        import bohrap.riesz
        params, k, budget = prepared
        poly = bohrap.riesz.build_polynomial(params, k)
        return bohrap.bohrint.mean_abs(poly, budget)

    def check(self, spec, prepared, est, ref):
        if spec["kind"] == "budget_probe":
            exact = ref["budget_probe"]
        else:
            exact = ref["mean_abs"][str(spec["p"])]
        problem = _estimate_problem(f"{spec['kind']} {spec.get('p', '')}", est, exact)
        return [problem] if problem else []


# ---------------------------------------------------------------------------
# riesz


class Riesz(Workload):
    """README ``riesz-check`` (cuts 3,4,2,5), then a stage-by-stage fold."""

    name = "riesz"
    kernel = "python"
    round_s = 1.25
    CUTS = [3, 4, 2, 5]

    def round_specs(self, seed, r):
        return [{"kind": "riesz", "seed": op_seed(seed, r)}]

    def prepare(self, spec, out_dir):
        from bohrap.riesz import make_independent_params
        argv = ["riesz-check", "--cuts", ",".join(map(str, self.CUTS)),
                "--seed", str(spec["seed"]), "--out", str(out_dir)]
        return argv, make_independent_params(self.CUTS, seed=spec["seed"])

    def run(self, prepared):
        import bohrap.riesz
        argv, params = prepared
        _run_cli(argv)
        state = bohrap.riesz.initial_state(params)
        states = []
        for k in range(params.n_stages):
            state = bohrap.riesz.extend(state, k)
            states.append(state)
        return Path(argv[-1]) / "riesz-check.json", states

    def check(self, spec, prepared, output, ref):
        path, states = output
        doc = json.loads(path.read_text())
        problems = []
        for m in doc["stage_means"]:
            if m["mean"] != ["1", "0"] or not m["is_one"]:
                problems.append(f"stage {m['stage']} mean of |P_k|^2 is {m['mean']}")
        if doc["product_mean"] != "1" or not doc["riesz_property_holds"]:
            problems.append(f"product mean is {doc['product_mean']}")
        if len(doc["stage_means"]) != len(self.CUTS):
            problems.append("riesz-check skipped stages")
        for prev, cur in zip(states, states[1:]):
            for lam, v in prev.sigma_hat_table().items():
                if cur.sigma_hat(lam).value < v:
                    problems.append(f"sigma-hat decreased at stage {cur.n}")
                    break
        if states[-1].Q.mean().re != 1:
            problems.append("folded product mean is not 1")
        return problems


# ---------------------------------------------------------------------------
# shared


#: Spacer multisets over the shared symbols (1, sqrt 2, sqrt 3), one list
#: per stage, each spacer an integer coefficient vector with entries 0..2.
#: The seed permutes each stage's spacers.  That changes every frequency
#: but no height, so each tensor grid keeps its size from seed to seed:
#: 2^18, 2^20, 2^21 and 2^19 points.  With the probe a round has five
#: operations of distinct cost, so the median falls inside one class.
SHARED_STAGES = (
    (((0, 1, 2), (1, 2, 1), (0, 0, 1), (1, 0, 0)),
     ((1, 0, 0), (2, 0, 1), (0, 2, 2), (2, 2, 0)),
     ((2, 0, 1), (2, 0, 2))),
    (((2, 1, 2), (0, 1, 0), (2, 2, 0), (0, 1, 0), (1, 1, 0)),
     ((0, 2, 0), (0, 0, 2), (0, 2, 2)),
     ((1, 2, 1), (0, 0, 1), (2, 0, 0))),
    (((2, 1, 2), (0, 1, 0), (2, 2, 0), (0, 1, 0)),
     ((1, 1, 0), (0, 2, 0), (0, 0, 2), (0, 2, 2)),
     ((1, 2, 1), (0, 0, 1), (2, 0, 0))),
    (((2, 1, 2), (0, 1, 0), (2, 2, 0), (0, 1, 0), (1, 1, 0)),
     ((0, 2, 0), (0, 0, 2), (0, 2, 2), (1, 2, 1)),
     ((0, 0, 1), (2, 0, 0))),
)
SHARED_SYMBOLS = (("one", 1.0), ("r2", math.sqrt(2.0)), ("r3", math.sqrt(3.0)))


def stage_exponent_vectors(spacers) -> list[list[tuple[int, ...]]]:
    """Integer coordinates of every stage's frequencies over the symbols.

    h_0 = 1, h_{k+1} = p_k h_k + sum of the stage's spacers, and stage k's
    frequencies are j h_k + s_{k,0} + ... + s_{k,j-1} for j < p_k, with
    s_{k,0} = 0.
    """
    dim = len(spacers[0][0])
    h = (1,) + (0,) * (dim - 1)
    out = []
    for sp in spacers:
        p = len(sp)
        acc = (0,) * dim
        exps = []
        for j, s in enumerate(((0,) * dim,) + tuple(sp[:-1])):
            exps.append(tuple(j * a + b for a, b in zip(h, acc)))
            acc = tuple(a + b for a, b in zip(acc, s))
        out.append(exps)
        total = tuple(sum(col) for col in zip(*sp))
        h = tuple(p * a + b for a, b in zip(h, total))
    return out


def _prod_abs2(*vals):
    acc = np.abs(vals[0]) ** 2
    for v in vals[1:]:
        acc = acc * (np.abs(v) ** 2)
    return acc


def _prod_abs(*vals):
    acc = np.abs(vals[0])
    for v in vals[1:]:
        acc = acc * np.abs(v)
    return acc


def _abs_pow(k: int, e: int):
    def g(*vals):
        return np.abs(vals[k]) ** e
    return g


class Shared(Workload):
    """Haar means of prod |P_k|^2, prod |P_k| and |P_k|^4 on shared symbols."""

    name = "shared"
    kernel = "numpy"
    round_s = 1.25
    probe_kinds = frozenset({"alias_probe"})

    def round_specs(self, seed, r):
        out = [{"kind": "alias_probe"}]
        for i, stages in enumerate(SHARED_STAGES):
            rng = np.random.default_rng(op_seed(seed, r, i))
            spacers = [[list(st[j]) for j in rng.permutation(len(st))]
                       for st in stages]
            out.append({"kind": "products", "spacers": spacers})
        return out

    def references(self, specs, cache):
        out = {"alias_probe": {str(r): str(v) for r, v
                               in refs.checked_trinomial_moments().items()
                               if r in (3, 4)}}
        for spec in specs:
            if spec["kind"] != "products":
                continue
            exps = stage_exponent_vectors(spec["spacers"])
            n = len(exps)
            out[str(spec["id"])] = {
                "prod_abs2": str(refs.lattice_mean(exps, [1] * n)),
                "abs4": [str(refs.lattice_mean([e], [2])) for e in exps],
            }
        return out

    def prepare(self, spec, out_dir):
        from bohrap.appoly import APPoly
        from bohrap.freqspace import SymbolBasis
        from bohrap.riesz import RankOneParams, Stage
        if spec["kind"] == "alias_probe":
            basis = SymbolBasis.make(("a", 1.0))
            c = 1.0 / math.sqrt(3.0)
            poly = APPoly.from_terms(
                basis, [(basis.symbol("a").scale(e), c) for (e,) in refs.TRINOMIAL])
            return [_abs_pow(0, 6), _abs_pow(0, 8)], poly
        basis = SymbolBasis.make(*SHARED_SYMBOLS)
        syms = [basis.symbol(name) for name, _ in SHARED_SYMBOLS]

        def freq(vec):
            f = basis.zero()
            for s, a in zip(syms, vec):
                f = f + s.scale(a)
            return f

        stages = tuple(
            Stage(p=len(sp), spacers=(basis.zero(),) + tuple(freq(v) for v in sp))
            for sp in spec["spacers"])
        params = RankOneParams(basis=basis, unit=syms[0], stages=stages)
        n = len(stages)
        gs = [_prod_abs2, _prod_abs] + [_abs_pow(k, 4) for k in range(n)]
        return gs, params

    def run(self, prepared):
        import bohrap.bohrint
        import bohrap.riesz
        gs, obj = prepared
        if isinstance(obj, bohrap.riesz.RankOneParams):
            polys = [bohrap.riesz.build_polynomial(obj, k)
                     for k in range(obj.n_stages)]
        else:
            polys = [obj]
        return bohrap.bohrint.bohr_integral_multi(gs, polys, bohrap.bohrint.Budget())

    def check(self, spec, prepared, ests, ref):
        if spec["kind"] == "alias_probe":
            exact = [float(Fraction(ref["alias_probe"][r])) for r in ("3", "4")]
            problems = [_estimate_problem(f"mean |P|^{2 * r}", e, x)
                        for r, e, x in zip((3, 4), ests, exact)]
            return [p for p in problems if p]
        ref = ref[str(spec["id"])]
        prod_abs2 = float(Fraction(ref["prod_abs2"]))
        problems = [_estimate_problem("prod |P_k|^2", ests[0], prod_abs2)]
        problems += [_estimate_problem(f"|P_{k}|^4", e, float(Fraction(x)))
                     for k, (e, x) in enumerate(zip(ests[2:], ref["abs4"]))]
        problems = [p for p in problems if p]
        # Cauchy-Schwarz: E prod |P_k| <= sqrt(E prod |P_k|^2).
        e = ests[1]
        bound = (math.sqrt(prod_abs2) + Z_MAX * e.std_error + e.refinement_delta
                 + EXACT_TOL)
        if e.value > bound:
            problems.append(f"prod |P_k| = {e.value!r} exceeds sqrt bound {bound!r}")
        return problems


WORKLOADS = {w.name: w for w in (Scan(), Kac(), Riesz(), Shared())}
