"""Acceptance gate: one test per headline guarantee, one pass/fail line each.

Every test prints a single ``criterion NN <label>: PASS|FAIL`` line with the
measured quantities before asserting, so the verdicts are readable straight
from the test log.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy import integrate, special

from bohrap.appoly import APPoly
from bohrap.bohrint import Budget, mean_abs, real_line_mean
from bohrap.criteria import (GAUSS_MEAN_ABS, GEOMETRIC_FACTOR, bourgain_scan,
                             cs_subsequence_bound, fejer_factorization_check,
                             kac_clt_diagnostics, kac_moment_formula,
                             kac_moment_identity, klemes_inequality_check)
from bohrap.flatness import PolyFamilySpec, local_vs_global_flatness
from bohrap.freqspace import SymbolBasis
from bohrap.riesz import (RankOneParams, Stage, abs2_polynomial,
                          build_polynomial, degree_report, extend,
                          initial_state, make_independent_params,
                          riesz_property_check)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _random_shared_params(rng) -> RankOneParams:
    """Random stages with spacers over at most 3 shared symbols."""
    basis = SymbolBasis.make(("one", 1.0), ("s", math.sqrt(2)),
                             ("t", math.sqrt(3)))
    syms = (basis.symbol("one"), basis.symbol("s"), basis.symbol("t"))
    stages = []
    for _ in range(int(rng.integers(1, 4))):
        p = int(rng.integers(2, 9))
        spacers = [basis.zero()]
        for _ in range(p):
            f = basis.zero()
            for s in syms:
                f = f + s.scale(int(rng.integers(0, 3)))
            spacers.append(f)
        stages.append(Stage(p=p, spacers=tuple(spacers)))
    return RankOneParams(basis=basis, unit=basis.symbol("one"),
                         stages=tuple(stages))


# Zeros of J0 bounding the pieces of Kluyver's integral.  At q = 2 the
# truncated tail is about 1/(2 pi X^2) for the last zero X (6e-10 here); for
# q >= 3 it is far smaller.
_J0_ZEROS = np.concatenate(([0.0], special.jn_zeros(0, 5000)))


def _phase_walk_mean_abs(q: int) -> float:
    """E|e^{i theta_1} + ... + e^{i theta_q}| for independent uniform phases.

    Kluyver's formula W_q(1) = q * int_0^inf J1(x) J0(x)^(q-1) dx / x,
    integrated piecewise between consecutive zeros of J0.
    """
    def integrand(x):
        return q * special.j1(x) * special.j0(x) ** (q - 1) / x

    return math.fsum(integrate.quad(integrand, a, b)[0]
                     for a, b in zip(_J0_ZEROS[:-1], _J0_ZEROS[1:]))


def test_criterion_01_exact_probability_normalization():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    exact = True
    for _ in range(50):
        params = _random_shared_params(rng)
        zero = params.basis.zero()
        for k in range(params.n_stages):
            # The mean of |P_k|^2 is its pair count at zero over p_k.
            m = Fraction(abs2_polynomial(params, k).get(zero, 0), params.stage(k).p)
            exact = exact and m == 1
    elapsed = time.perf_counter() - t0
    ok = exact and elapsed < 5.0
    _report(1, "exact-probability", ok,
            f"50 random params, all stage means exactly 1, {elapsed:.2f}s")
    assert exact, "some stage mean of |P_k|^2 is not exactly 1"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_02_riesz_property():
    params = make_independent_params([3, 4, 2, 5], seed=2)
    ok = True
    n_sets = 0
    for size in (1, 2, 3):
        for idx in combinations(range(4), size):
            n_sets += 1
            ok = ok and riesz_property_check(params, idx) == 1
    _report(2, "riesz-property", ok,
            f"exact product mean 1 on all {n_sets} increasing index sets")
    assert ok, "some partial-product mean is not exactly 1"


def test_criterion_03_kac_moment_identity():
    def tuples(k, total):
        if k == 0:
            yield ()
            return
        for head in range(total + 1):
            for rest in tuples(k - 1, total - head):
                yield (head,) + rest

    ok = True
    n_cases = 0
    for k in (1, 2, 3):
        for t in tuples(k, 8):
            n_cases += 1
            v = kac_moment_identity(list(t))  # raises on any mismatch
            if any(x % 2 for x in t):
                ok = ok and v == 0
            else:
                ok = ok and v == kac_moment_formula(t)
    _report(3, "kac-moments", ok,
            f"formula equals symbolic expansion on {n_cases} exponent tuples")
    assert ok


def test_criterion_04_gaussian_first_moment():
    cuts = (4, 16, 64, 256)
    assert abs(_phase_walk_mean_abs(1) - 1.0) <= 1e-9
    assert abs(_phase_walk_mean_abs(2) - 4.0 / math.pi) <= 1e-9
    exact = [_phase_walk_mean_abs(p) / math.sqrt(p) for p in cuts]
    t0 = time.perf_counter()
    ests = []
    for i, p in enumerate(cuts):
        params = make_independent_params([p], seed=11 + i)
        ests.append(mean_abs(build_polynomial(params, 0),
                             Budget(samples=200_000, seed=13 + i)))
    elapsed = time.perf_counter() - t0
    # E|P_n| falls to sqrt(pi)/2 from above as the cut number grows.
    from_above = (all(a > b for a, b in zip(exact, exact[1:]))
                  and all(w > GAUSS_MEAN_ABS for w in exact))
    within = [abs(e.value - w) <= 3.0 * e.std_error + e.refinement_delta
              for e, w in zip(ests, exact)]
    accurate = abs(ests[-1].value - GAUSS_MEAN_ABS) <= 0.01
    ok = from_above and all(within) and accurate and elapsed < 60.0
    parts = []
    for p, e, w in zip(cuts, ests, exact):
        err = e.value - w
        if e.method == "monte-carlo":
            check = f"z = {err / e.std_error:+.2f}"
        else:
            check = f"|err| = {abs(err):.1e} vs delta {e.refinement_delta:.1e}"
        parts.append(f"p={p}: est {e.value:.7f}, exact {w:.7f}, {check}")
    _report(4, "gaussian-first-moment", ok,
            "; ".join(parts)
            + f"; |est(256) - sqrt(pi)/2| = "
            + f"{abs(ests[-1].value - GAUSS_MEAN_ABS):.5f}, {elapsed:.1f}s")
    assert from_above, f"exact references {exact} do not fall to sqrt(pi)/2"
    assert all(within), "; ".join(
        part for part, w in zip(parts, within) if not w)
    assert accurate, (
        f"estimate at p=256 off by {abs(ests[-1].value - GAUSS_MEAN_ABS):.5f}")
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_05_bourgain_decay():
    params = make_independent_params([64] * 15, seed=3)
    rep = bourgain_scan(params, k_max=5, budget=Budget(samples=1 << 14, seed=5))
    last = rep.estimates[5]
    bound = GEOMETRIC_FACTOR ** 5
    decays = last.value <= bound + 3.0 * last.std_error
    vals = [e.value for e in rep.estimates]
    errs = [e.std_error for e in rep.estimates]
    monotone = all(
        vals[k + 1] <= vals[k] + 3.0 * math.hypot(errs[k], errs[k + 1])
        for k in range(5)
    )
    # once an estimate crosses the verdict threshold it must stay below
    below = [v < 0.1 for v in vals]
    threshold_monotone = all(b or not a for a, b in zip(below, below[1:]))
    ok = decays and monotone and threshold_monotone
    _report(5, "bourgain-decay", ok,
            f"I_5 = {last.value:.4f} <= {bound:.4f} + 3 sigma, "
            f"estimates nonincreasing: {monotone}")
    assert decays, f"I_5 = {last.value:.4f} exceeds {bound:.4f} + 3 sigma"
    assert monotone and threshold_monotone


def test_criterion_06_sigma_hat_monotonicity():
    params = make_independent_params([2, 3, 2], seed=21)
    st = initial_state(params)
    states = []
    for k in range(3):
        st = extend(st, k)
        states.append(st)
    ok = True
    n_checked = 0
    for prev, cur in zip(states, states[1:]):
        for lam, v in prev.sigma_hat_table().items():
            n_checked += 1
            ok = ok and cur.sigma_hat(lam).value >= v  # exact Fractions
    _report(6, "sigma-hat-monotone", ok,
            f"{n_checked} exact coefficient comparisons across extensions")
    assert ok, "some Fourier coefficient decreased along the extension"


def test_criterion_07_cauchy_schwarz_bound():
    rng = np.random.default_rng(107)
    ok = True
    for i in range(20):
        cuts = [int(rng.integers(2, 9)) for _ in range(4)]
        params = make_independent_params(cuts, seed=300 + i)
        size = int(rng.integers(0, 5))
        subset = sorted(rng.choice(4, size=size, replace=False).tolist())
        rec = cs_subsequence_bound(params, 3, subset,
                                   Budget(samples=1 << 13, seed=400 + i))
        ok = ok and rec.holds
    _report(7, "cauchy-schwarz-bound", ok, "20 randomized cases at 3 sigma")
    assert ok


def test_criterion_08_klemes_inequality():
    rng = np.random.default_rng(108)
    ok = True
    for i in range(20):
        cuts = [int(rng.integers(2, 9)) for _ in range(4)]
        params = make_independent_params(cuts, seed=500 + i)
        size = int(rng.integers(0, 4))
        indices = sorted(rng.choice(3, size=size, replace=False).tolist())
        rec = klemes_inequality_check(params, indices, 3,
                                      Budget(samples=1 << 13, seed=600 + i))
        ok = ok and rec.holds
    _report(8, "klemes-inequality", ok,
            "20 randomized shared-sample cases at 3 sigma")
    assert ok


def test_criterion_09_fejer_factorization():
    rng = np.random.default_rng(109)
    ok = True
    symbolic = True
    for i in range(10):
        n = int(rng.integers(2, 4))
        cuts = [int(rng.integers(2, 9)) for _ in range(n)]
        params = make_independent_params(cuts, seed=700 + i)
        rec = fejer_factorization_check(params, list(range(n - 1)), n - 1,
                                        Budget(samples=1 << 13, seed=800 + i))
        ok = ok and rec.holds
        symbolic = symbolic and rec.symbolic_exact
    _report(9, "fejer-factorization", ok and symbolic,
            "10 independent-stage cases, gap within 3 sigma, "
            f"symbolic factorization exact: {symbolic}")
    assert ok and symbolic


def test_criterion_10_real_line_mean_convergence():
    rng = np.random.default_rng(1)
    Ts = np.array([1e2, 1e3, 1e4])
    errors = []
    for _ in range(10):
        vals = rng.uniform(0.1, 10.0, size=5)
        basis = SymbolBasis.make(
            *[(f"w{j}", float(v)) for j, v in enumerate(vals)])
        items = []
        for j in range(5):
            f = basis.symbol(f"w{j}")
            if rng.random() < 0.5:
                f = f.scale(-1)
            items.append((f, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
        p = APPoly.from_terms(basis, items)  # mean over the Bohr group is 0
        errors.append([abs(real_line_mean(p, T)) for T in Ts])
    errors = np.array(errors)
    # |mean over [-T, T]| <= C/T with one constant C for the whole family,
    # calibrated at the shortest horizon
    C = float((errors[:, 0] * Ts[0]).max())
    bounded = bool((errors <= (C / Ts[None, :]) * 1.01).all())
    slope = -float(np.polyfit(np.log(Ts), np.log(errors.mean(axis=0)), 1)[0])
    ok = bounded and slope >= 0.9
    _report(10, "real-line-mean", ok,
            f"10 random 5-term polynomials, fitted exponent {slope:.3f}")
    assert bounded, "some |real_line_mean(T)| exceeds its C/T envelope"
    assert slope >= 0.9, f"fitted decay exponent {slope:.3f} below 0.9"


def test_criterion_11_kac_clt_empirics():
    rec = kac_clt_diagnostics(128, 100_000, seed=31)
    ks_ok = rec.ks_distance_re <= 0.01
    mabs2_ok = abs(rec.mean_abs2 - 1.0) <= 3.0 * rec.mean_abs2_std_error
    ok = ks_ok and mabs2_ok
    _report(11, "kac-clt", ok,
            f"KS(Re) = {rec.ks_distance_re:.4f}, "
            f"mean|Z|^2 = {rec.mean_abs2:.4f} +- {rec.mean_abs2_std_error:.4f}")
    assert ks_ok, f"KS distance {rec.ks_distance_re:.4f} exceeds 0.01"
    assert mabs2_ok


def test_criterion_12_local_global_contrast():
    locals_, globals_ = [], []
    for n in (64, 128, 256):
        rec = local_vs_global_flatness(
            PolyFamilySpec(kind="prikhodko", n=n, m_n=4, eps_n=Fraction(1, 4)),
            1.0, 2.0, Budget(samples=1 << 15, seed=41))
        locals_.append(rec.local.value)
        globals_.append(rec.global_mean_abs.value)
    decreasing = all(a > b for a, b in zip(locals_, locals_[1:]))
    near = all(abs(g - 0.88623) <= 0.02 for g in globals_)
    ok = decreasing and near
    _report(12, "local-global-contrast", ok,
            "local " + ", ".join(f"{v:.5f}" for v in locals_)
            + "; global " + ", ".join(f"{v:.5f}" for v in globals_))
    assert decreasing, f"local L1 distortion not strictly decreasing: {locals_}"
    assert near


def test_criterion_13_degree_bounds():
    rng = np.random.default_rng(113)
    ok = True
    for i in range(50):
        n = int(rng.integers(1, 4))
        cuts = [int(rng.integers(2, 9)) for _ in range(n)]
        params = make_independent_params(cuts, seed=900 + i)
        ok = ok and degree_report(params, list(range(n))).all_hold
    _report(13, "degree-bounds", ok,
            "d_m < h_{m+1}, h_m <= h_{m+1}/2, q_k < h_{n_k+1} on 50 params")
    assert ok
