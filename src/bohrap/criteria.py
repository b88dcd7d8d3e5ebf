"""Singularity and flatness criteria evaluated numerically.

All verdicts here are evidence-graded: the underlying criteria quantify
over infinitely many subsequences, so a finite scan can only gather
evidence, never certify.  Every inequality is tested on shared sample
sets so that correlated integration errors cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .appoly import APPoly
from .bohrint import (Budget, IntegralEstimate, TorusEvaluator,
                      bohr_integral_multi)
from .errors import (InternalInconsistencyError, SupportCapError,
                     ValidationError)
from .freqspace import SymbolBasis, mul_terms, rational_rank
# abs2_polynomial is unused here but stays importable from this module:
# perfbench/tracing.py wraps it through this name.
from .riesz import (DEFAULT_SUPPORT_CAP, RankOneParams,  # noqa: F401
                    _product_mean, abs2_polynomial, build_polynomial)

#: Geometric contraction factor of the inductive singularity construction:
#: the limit L1 norm sqrt(pi)/2 plus a fixed slack of sqrt(pi)/100.
GEOMETRIC_FACTOR = 51.0 * math.sqrt(math.pi) / 100.0

#: Bourgain scans report singularity evidence when the last product mean
#: is below this value with 3 sigma to spare.
SCAN_THRESHOLD = 0.1

#: Gaussian first absolute moment: the limit of mean_abs for large cut numbers.
GAUSS_MEAN_ABS = math.sqrt(math.pi) / 2.0


def _derived_budget(budget: Budget, *tags: int) -> Budget:
    """A copy of the budget with a seed derived from (seed, tags).

    Distinct tags give independent streams while keeping the whole scan
    reproducible from the one top-level seed.
    """
    seed = int(np.random.SeedSequence([budget.seed, *tags]).generate_state(1)[0])
    return replace(budget, seed=seed)


def _abs_product(exps: Sequence[int]):
    """The integrand prod of |vals[i]|^exps[i], multiplied in index order.

    Zero exponents are skipped, and the empty product is ones.
    """
    def g(*vals):
        acc = None
        for v, e in zip(vals, exps):
            if e:
                f = np.abs(v) if e == 1 else np.abs(v) ** e
                acc = f if acc is None else acc * f
        return np.ones(vals[0].shape) if acc is None else acc
    return g


def _unit_estimate() -> IntegralEstimate:
    return IntegralEstimate(
        value=1.0, std_error=0.0, method="tensor-quadrature",
        nodes_or_samples=1, seed=None, torus_dim=0,
    )


# ---------------------------------------------------------------------------
# Bourgain criterion scan


@dataclass(frozen=True)
class ScanReport:
    """One scan of the subsequence infimum behind the singularity criterion."""

    indices: tuple[int, ...]
    estimates: tuple[IntegralEstimate, ...]  # I_0 = 1, then one per chosen stage
    decay_ratios: tuple[float, ...]
    candidates: tuple[tuple[tuple[int, float, float], ...], ...]
    verdict: str  # singularity-evidence | inconclusive

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "estimates": [e.to_json() for e in self.estimates],
            "decay_ratios": list(self.decay_ratios),
            "candidates": [
                [{"stage": s, "value": v, "std_error": e} for s, v, e in step]
                for step in self.candidates
            ],
            "verdict": self.verdict,
        }


def bourgain_scan(params: RankOneParams, k_max: int = 5,
                  budget: Budget = Budget(), window: int = 3) -> ScanReport:
    """Drive I_k = mean of the product of |P_{n_j}| toward zero.

    The greedy scan mimics the inductive construction: at each step it
    tries the next ``window`` unused stages and keeps the one minimizing the
    estimated integral, so ``window=1`` takes consecutive stages.  The
    verdict is singularity-evidence when I_{k_max} is below
    ``SCAN_THRESHOLD`` with 3 sigma to spare.
    """
    if k_max < 1:
        raise ValidationError("k_max must be at least 1")
    if window < 1:
        raise ValidationError("window must be positive")

    chosen: list[int] = []
    chosen_polys: list[APPoly] = []
    stage_polys: dict[int, APPoly] = {}  # each stage is built once per scan
    estimates: list[IntegralEstimate] = [_unit_estimate()]
    all_candidates: list[tuple[tuple[int, float, float], ...]] = []

    for step in range(k_max):
        start = chosen[-1] + 1 if chosen else 0
        cands = range(start, min(start + window, params.n_stages))
        if not cands:
            raise ValidationError(
                f"scan step {step} has no candidate stages left "
                f"({params.n_stages} stages available)"
            )
        results = []
        for m in cands:
            if m not in stage_polys:
                stage_polys[m] = build_polynomial(params, m)
            polys = chosen_polys + [stage_polys[m]]
            est = bohr_integral_multi(
                [_abs_product([1] * len(polys))], polys,
                _derived_budget(budget, step, m)
            )[0]
            results.append((m, est))
        all_candidates.append(
            tuple((m, e.value, e.std_error) for m, e in results)
        )
        best_m, best_est = min(results, key=lambda r: r[1].value)
        chosen.append(best_m)
        chosen_polys.append(stage_polys[best_m])
        estimates.append(best_est)

    ratios = []
    for a, b in zip(estimates, estimates[1:]):
        if a.value > 0:
            ratios.append(b.value / a.value)
    last = estimates[-1]
    verdict = (
        "singularity-evidence"
        if last.value + 3.0 * last.std_error < SCAN_THRESHOLD
        else "inconclusive"
    )
    return ScanReport(
        indices=tuple(chosen),
        estimates=tuple(estimates),
        decay_ratios=tuple(ratios),
        candidates=tuple(all_candidates),
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Inequality checks


@dataclass(frozen=True)
class InequalityRecord:
    lhs: float
    rhs: float
    lhs_error: float
    rhs_error: float
    holds: bool


def cs_subsequence_bound(params: RankOneParams, full_n: int,
                         indices: Sequence[int],
                         budget: Budget = Budget()) -> InequalityRecord:
    """mean of prod_{k<=N}|P_k| <= (mean of prod over the index subset)^(1/2).

    Both sides share one sample set.  An empty subset gives rhs = 1.
    """
    indices = sorted(set(indices))
    if any(i < 0 or i > full_n for i in indices):
        raise ValidationError("subsequence indices must lie in 0..full_n")
    polys = [build_polynomial(params, k) for k in range(full_n + 1)]
    inner_exps = [int(k in indices) for k in range(full_n + 1)]
    e_lhs, e_inner = bohr_integral_multi(
        [_abs_product([1] * len(polys)), _abs_product(inner_exps)], polys, budget
    )
    inner = max(e_inner.value, 0.0)
    rhs = math.sqrt(inner)
    # d(sqrt(x))/dx = 1/(2 sqrt(x)); guard the degenerate root.
    rhs_err = e_inner.std_error / (2.0 * rhs) if rhs > 1e-12 else math.sqrt(
        e_inner.std_error
    )
    tol = 3.0 * math.hypot(e_lhs.std_error, rhs_err)
    return InequalityRecord(
        lhs=e_lhs.value, rhs=rhs,
        lhs_error=e_lhs.std_error, rhs_error=rhs_err,
        holds=e_lhs.value <= rhs + tol,
    )


def klemes_inequality_check(params: RankOneParams, indices: Sequence[int],
                            m: int, budget: Budget = Budget()) -> InequalityRecord:
    """With Q the partial product of |P_j|^2 over ``indices``:

        int Q|P_m| <= (int Q + int Q|P_m|^2)/2 - (int Q * ||P_m|^2 - 1|)^2 / 8.

    All four integrals come from one shared-sample pass.
    """
    indices = sorted(set(indices))
    if indices and m <= max(indices):
        raise ValidationError("stage m must exceed every index of Q")
    q_polys = [build_polynomial(params, j) for j in indices]
    pm = build_polynomial(params, m)
    polys = q_polys + [pm]
    nq = len(q_polys)
    q_of = _abs_product([2] * nq)

    def g4(*vals):
        return q_of(*vals) * np.abs(np.abs(vals[nq]) ** 2 - 1.0)

    e1, e2, e3, e4 = bohr_integral_multi(
        [_abs_product([2] * nq + [1]), q_of, _abs_product([2] * nq + [2]), g4],
        polys, budget)
    rhs = 0.5 * (e2.value + e3.value) - e4.value ** 2 / 8.0
    rhs_err = math.sqrt(
        0.25 * e2.std_error ** 2
        + 0.25 * e3.std_error ** 2
        + (e4.value / 4.0) ** 2 * e4.std_error ** 2
    )
    tol = 3.0 * math.hypot(e1.std_error, rhs_err)
    return InequalityRecord(
        lhs=e1.value, rhs=rhs,
        lhs_error=e1.std_error, rhs_error=rhs_err,
        holds=e1.value <= rhs + tol,
    )


# ---------------------------------------------------------------------------
# Weak convergence toward Haar


@dataclass(frozen=True)
class HaarLimitRecord:
    m: int
    q_mean: float
    q_pm2_mean: float
    deviation: float
    combined_error: float
    rank_additive: bool  # frequencies of stage m independent from Q's


def _rank_additive(q_polys: Sequence[APPoly], pm: APPoly) -> bool:
    q_freqs = [f for p in q_polys for f in p.support() if not f.is_zero()]
    m_freqs = [f for f in pm.support() if not f.is_zero()]
    if not q_freqs or not m_freqs:
        return True
    return (rational_rank(q_freqs + m_freqs)
            == rational_rank(q_freqs) + rational_rank(m_freqs))


def haar_weak_limit_check(params: RankOneParams, q_indices: Sequence[int],
                          m_list: Sequence[int],
                          budget: Budget = Budget()) -> list[HaarLimitRecord]:
    """Deviation of int Q |P_m|^2 from int Q as m runs over ``m_list``.

    When the stage-m frequencies are rationally independent of Q's the
    deviation is zero up to sampling error (mean factorization); this is
    reported, not asserted.
    """
    q_indices = sorted(set(q_indices))
    q_polys = [build_polynomial(params, j) for j in q_indices]
    nq = len(q_polys)
    gs = [_abs_product([2] * nq), _abs_product([2] * nq + [2])]
    out = []
    for i, m in enumerate(m_list):
        pm = build_polynomial(params, m)
        e_q, e_qm = bohr_integral_multi(
            gs, q_polys + [pm], _derived_budget(budget, i, m)
        )
        out.append(HaarLimitRecord(
            m=m, q_mean=e_q.value, q_pm2_mean=e_qm.value,
            deviation=e_qm.value - e_q.value,
            combined_error=math.hypot(e_q.std_error, e_qm.std_error),
            rank_additive=_rank_additive(q_polys, pm),
        ))
    return out


# ---------------------------------------------------------------------------
# Guenais absolutely-continuous-component condition


@dataclass(frozen=True)
class GuenaisRecord:
    norms: tuple[float, ...]  # estimated L1 norms per stage
    increments: tuple[float, ...]  # sqrt(max(0, 1 - norm^2))
    partial_sums: tuple[float, ...]
    tail_slope: float  # least-squares slope of log-increments vs stage


def guenais_sum(params: RankOneParams, K: int,
                budget: Budget = Budget()) -> GuenaisRecord:
    """Partial sums of sqrt(1 - |P_k|_1^2) over the first K stages.

    Convergence of the full series forces an absolutely continuous
    component; only the trend is reported, never a verdict.
    """
    if K < 0:
        raise ValidationError("K must be nonnegative")
    norms, incs, psums = [], [], []
    acc = 0.0
    for k in range(K):
        p = build_polynomial(params, k)
        est = bohr_integral_multi(
            [np.abs], [p], _derived_budget(budget, k)
        )[0]
        if est.value > 1.0 + 3.0 * est.std_error:
            raise InternalInconsistencyError(
                f"estimated L1 norm {est.value:.6f} of stage {k} exceeds 1 "
                f"beyond 3 sigma; integration failure"
            )
        v = min(est.value, 1.0)
        inc = math.sqrt(max(0.0, 1.0 - v * v))
        norms.append(est.value)
        incs.append(inc)
        acc += inc
        psums.append(acc)
    pos = [(k, math.log(i)) for k, i in enumerate(incs) if i > 0]
    if len(pos) >= 2:
        xs = np.array([k for k, _ in pos], dtype=float)
        ys = np.array([y for _, y in pos])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = 0.0
    return GuenaisRecord(
        norms=tuple(norms), increments=tuple(incs),
        partial_sums=tuple(psums), tail_slope=slope,
    )


# ---------------------------------------------------------------------------
# Fejer-type factorization


@dataclass(frozen=True)
class FejerRecord:
    joint: float
    product: float
    relative_gap: float
    combined_error: float
    holds: bool
    symbolic_exact: bool  # exact mean factorization for |P_m|^2 against Q


def fejer_factorization_check(params: RankOneParams, q_indices: Sequence[int],
                              m: int, budget: Budget = Budget()) -> FejerRecord:
    """int Q|P_m| = (int Q)(int |P_m|) under rational independence.

    Requires rank additivity between the stage-m frequencies and Q's in the
    symbol model; the exact factorization is also verified symbolically on
    the polynomial functional |P_m|^2.
    """
    q_indices = sorted(set(q_indices))
    q_polys = [build_polynomial(params, j) for j in q_indices]
    pm = build_polynomial(params, m)
    if not _rank_additive(q_polys, pm):
        raise ValidationError(
            "stage frequencies are not rationally independent of the "
            "partial product; the factorization hypothesis fails"
        )
    nq = len(q_polys)
    e_joint, e_q, e_m = bohr_integral_multi(
        [_abs_product([2] * nq + [1]), _abs_product([2] * nq),
         _abs_product([0] * nq + [1])],
        q_polys + [pm], budget)
    product = e_q.value * e_m.value
    prod_err = math.hypot(e_m.value * e_q.std_error, e_q.value * e_m.std_error)
    gap = abs(e_joint.value - product)
    combined = math.hypot(e_joint.std_error, prod_err)

    symbolic = (_product_mean(params, [*q_indices, m])
                == _product_mean(params, q_indices) * _product_mean(params, [m]))

    return FejerRecord(
        joint=e_joint.value, product=product,
        relative_gap=gap / max(abs(product), 1e-12),
        combined_error=combined,
        holds=gap <= 3.0 * combined,
        symbolic_exact=symbolic,
    )


# ---------------------------------------------------------------------------
# Kac CLT diagnostics and moment identity


@dataclass(frozen=True)
class KacCltRecord:
    q: int
    n_samples: int
    seed: int
    ks_distance_re: float
    ks_distance_im: float
    mean_abs: float
    mean_abs_std_error: float
    mean_abs2: float
    mean_abs2_std_error: float


def _ks_normal(x: np.ndarray, sigma: float) -> float:
    """Kolmogorov-Smirnov distance of the sample ``x`` from N(0, sigma^2):
    max(D+, D-) over the sorted sample, as ``scipy.stats.ks_1samp`` takes it."""
    # Imported here: scipy.special loads quickly, while importing scipy.stats
    # would dominate the start-up time of the CLI.
    from scipy.special import ndtr

    n = x.size
    cdf = ndtr(np.sort(x) / sigma)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


def kac_clt_diagnostics(q: int, n_samples: int = 100_000,
                        seed: int = 0) -> KacCltRecord:
    """Empirics for Z = (1/sqrt(q)) sum of q independent unit phases.

    Re(Z) and Im(Z) are tested against the normal law with variance 1/2;
    E|Z| approaches sqrt(pi)/2 and E|Z|^2 is 1 exactly.
    """
    if q < 1 or n_samples < 2:
        raise ValidationError("need q >= 1 and at least two samples")
    # sqrt(q) Z is the unit form with coefficient 1 on each of q coordinates.
    ev = TorusEvaluator([np.ones(q, dtype=complex)], q, [np.arange(q)])
    (z,) = ev.sample(np.random.default_rng(np.random.SeedSequence(seed)), n_samples)
    z /= math.sqrt(q)
    sigma = math.sqrt(0.5)
    ks_re = _ks_normal(z.real, sigma)
    ks_im = _ks_normal(z.imag, sigma)
    a = np.abs(z)
    a2 = a * a
    return KacCltRecord(
        q=q, n_samples=n_samples, seed=seed,
        ks_distance_re=ks_re, ks_distance_im=ks_im,
        mean_abs=float(a.mean()),
        mean_abs_std_error=float(a.std(ddof=1) / math.sqrt(n_samples)),
        mean_abs2=float(a2.mean()),
        mean_abs2_std_error=float(a2.std(ddof=1) / math.sqrt(n_samples)),
    )


def kac_moment_formula(exponents: Sequence[int]) -> Fraction:
    """Mean of prod_j cos^{l_j} at rationally independent frequencies.

    Each even l_j contributes binom(l_j, l_j/2) / 2^{l_j}; any odd exponent
    makes the whole mean vanish.
    """
    if any(l < 0 for l in exponents):
        raise ValidationError("exponents must be nonnegative")
    out = Fraction(1)
    for l in exponents:
        if l % 2:
            return Fraction(0)
        out *= Fraction(math.comb(l, l // 2), 2 ** l)
    return out


def kac_moment_identity(exponents: Sequence[int]) -> Fraction:
    """The moment via the binomial formula, cross-checked on integer counts.

    The cross-check multiplies out prod (e^{i w_j t} + e^{-i w_j t})^{l_j}
    over fresh independent symbols and reads its count at zero over
    2^{sum l_j}; the two routes must agree exactly.  Its products add
    sum l_j (l_j + 1) pairs for the powers and sum_j prod_{i<=j} (l_i + 1)
    for the running product; past the support cap the call is refused.
    """
    exponents = list(exponents)
    formula = kac_moment_formula(exponents)
    pairs, terms = 0, 1
    for l in exponents:
        terms *= l + 1
        pairs += l * (l + 1) + terms
        if pairs > DEFAULT_SUPPORT_CAP:
            raise SupportCapError(
                "the cosine product would add more pairs than the support cap "
                f"{DEFAULT_SUPPORT_CAP}")
    if exponents:
        basis = SymbolBasis.make(*[(f"w{j}", float(j + 2)) for j in range(len(exponents))])
        prod = {basis.zero(): 1}
        for j, l in enumerate(exponents):
            w = basis.symbol(f"w{j}")
            power = {basis.zero(): 1}
            for _ in range(l):
                power = mul_terms(power, {w: 1, -w: 1})
            prod = mul_terms(prod, power)
        m = Fraction(prod.get(basis.zero(), 0), 2 ** sum(exponents))
        if m != formula:
            raise InternalInconsistencyError(
                f"moment identity mismatch: formula {formula}, counts {m}"
            )
    return formula
