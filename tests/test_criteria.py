"""Singularity and flatness criteria: scans, inequalities, CLT diagnostics."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import bohrap.criteria
from bohrap import bohrint
from bohrap.bohrint import (Budget, IntegralEstimate, TorusEvaluator,
                            bohr_integral_multi)
from bohrap.criteria import (GAUSS_MEAN_ABS, ScanReport, _decay_ratios,
                             _derived_budget, _unit_estimate, bourgain_scan,
                             cs_subsequence_bound, fejer_factorization_check,
                             guenais_sum, kac_clt_diagnostics,
                             kac_moment_formula, kac_moment_identity,
                             klemes_inequality_check)
from bohrap.errors import BudgetError, SupportCapError, ValidationError
from bohrap.freqspace import SymbolBasis, mul_terms
from bohrap.riesz import (RankOneParams, Stage, _product_mean,
                          build_polynomial, make_independent_params)

FAST = Budget(samples=1 << 13, seed=17)


class TestAbsProduct:
    def test_matches_explicit_products(self):
        rng = np.random.default_rng(0)
        v = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(3)]
        g = bohrap.criteria._abs_product
        assert np.array_equal(g([2, 0, 1])(*v), np.abs(v[0]) ** 2 * np.abs(v[2]))
        assert np.array_equal(g([1, 1, 1])(*v),
                              np.abs(v[0]) * np.abs(v[1]) * np.abs(v[2]))
        for exps in ([], [0, 0]):
            assert np.array_equal(g(exps)(*v), np.ones(5))


class TestBourgainScan:
    def test_single_step_below_one(self):
        params = make_independent_params([4, 4, 4], seed=1)
        rep = bourgain_scan(params, k_max=1, budget=FAST)
        est = rep.estimates[1]
        assert est.value <= 1.0 + 3 * est.std_error

    def test_estimates_nonincreasing(self):
        params = make_independent_params([8] * 8, seed=2)
        rep = bourgain_scan(params, k_max=2, budget=FAST)
        vals = [e.value for e in rep.estimates]
        errs = [e.std_error for e in rep.estimates]
        assert vals[0] == 1.0
        for k in range(len(vals) - 1):
            assert vals[k + 1] <= vals[k] + 3 * math.hypot(errs[k], errs[k + 1])

    def test_report_shape(self):
        params = make_independent_params([4] * 6, seed=3)
        rep = bourgain_scan(params, k_max=2, budget=FAST, window=2)
        assert len(rep.indices) == 2
        assert len(rep.estimates) == 3
        assert len(rep.candidates) == 2
        assert all(len(step) <= 2 for step in rep.candidates)
        assert rep.verdict in ("singularity-evidence", "inconclusive")
        doc = rep.to_json()
        assert doc["indices"] == list(rep.indices)

    def test_runs_out_of_stages(self):
        params = make_independent_params([4, 4], seed=4)
        with pytest.raises(ValidationError):
            bourgain_scan(params, k_max=5, budget=FAST)

    def test_each_stage_built_once(self, monkeypatch):
        built = []
        build = bohrap.criteria.build_polynomial

        def counting_build(params, k):
            built.append(k)
            return build(params, k)

        monkeypatch.setattr(bohrap.criteria, "build_polynomial", counting_build)
        params = make_independent_params([4] * 9, seed=3)
        rep = bourgain_scan(params, k_max=3, budget=FAST, window=3)
        assert len(built) == len(set(built))
        assert set(built) == {s for step in rep.candidates for s, _, _ in step}

    def test_window_one_takes_consecutive_stages(self):
        params = make_independent_params([4] * 4, seed=5)
        rep = bourgain_scan(params, k_max=3, budget=FAST, window=1)
        assert rep.indices == (0, 1, 2)
        assert all(len(step) == 1 for step in rep.candidates)

    def test_shared_step_is_one_call_on_the_step_seed(self):
        # Every candidate of a step comes from one call over the chosen
        # stages and all candidates, on the step's seed: |chosen| |P_m|
        # with the other candidates' values unused.  That call picks the
        # method on the step's joint torus.
        for cuts, k_max in (([8] * 6, 2), ([4] * 6, 2), ([2] * 6, 2),
                            ([2, 16, 16], 1)):
            params = make_independent_params(cuts, seed=6)
            rep = bourgain_scan(params, k_max=k_max, budget=FAST)
            polys = {k: build_polynomial(params, k) for k in range(len(cuts))}
            for step, cands in enumerate(rep.candidates):
                chosen = [polys[k] for k in rep.indices[:step]]
                stages = [m for m, _, _ in cands]
                n = len(chosen)

                def g(*v, i):
                    acc = None
                    for x in v[:n] + (v[n + i],):
                        acc = np.abs(x) if acc is None else acc * np.abs(x)
                    return acc

                ests = bohr_integral_multi(
                    [lambda *v, i=i: g(*v, i=i) for i in range(len(stages))],
                    chosen + [polys[m] for m in stages], _derived_budget(FAST, step))
                assert cands == tuple((m, e.value, e.std_error)
                                      for m, e in zip(stages, ests)), cuts
                best = min(range(len(stages)), key=lambda i: ests[i].value)
                assert rep.indices[step] == stages[best]
                assert rep.estimates[step + 1] == ests[best]
            if cuts == [2] * 6:
                # Step 0 is three one-coordinate stages: a 3-coordinate grid.
                first = rep.estimates[1]
                assert (first.method, first.std_error) == ("tensor-quadrature", 0.0)

    def test_forced_tensor_scan_needs_a_small_joint_torus(self):
        tensor = Budget(method="tensor")
        rep = bourgain_scan(make_independent_params([2] * 3, seed=1), k_max=1,
                            budget=tensor)
        assert rep.estimates[1].method == "tensor-quadrature"
        # Three 3-coordinate candidates make a 9-coordinate joint torus.
        with pytest.raises(BudgetError):
            bourgain_scan(make_independent_params([4, 4, 4], seed=1), k_max=1,
                          budget=tensor)

    def test_one_phase_space_reduction_per_step(self, monkeypatch):
        calls = []
        phase_space = bohrint._phase_space

        def counting(polys):
            calls.append(len(polys))
            return phase_space(polys)

        monkeypatch.setattr(bohrint, "_phase_space", counting)
        params = make_independent_params([8] * 6, seed=6)
        bourgain_scan(params, k_max=2, budget=FAST, window=3)
        assert len(calls) == 2

    def test_decay_ratio_errors_hand_computed(self):
        # I_0 = 1 exactly, then 0.5 +- 0.01, 0.2 +- 0.004, 0 +- 0.001 and
        # 0.1 +- 0.002: ratios 0.5, 0.4 and 0 (none after I_3 = 0), with
        # errors 0.5 (0.01/0.5) = 0.01, 0.4 hypot(0.02, 0.02) = 0.008 sqrt 2
        # and 0.001/0.2 = 0.005.
        ests = [_unit_estimate()] + [
            IntegralEstimate(value=v, std_error=e, method="monte-carlo",
                             nodes_or_samples=16, seed=1, torus_dim=3)
            for v, e in [(0.5, 0.01), (0.2, 0.004), (0.0, 0.001), (0.1, 0.002)]]
        ratios, errors = _decay_ratios(ests)
        assert ratios == pytest.approx([0.5, 0.4, 0.0], rel=1e-15)
        assert errors == pytest.approx([0.01, 0.008 * math.sqrt(2), 0.005], rel=1e-15)
        rep = ScanReport(indices=(0, 1, 2, 3), estimates=tuple(ests),
                         decay_ratios=ratios, decay_ratio_errors=errors,
                         candidates=(), verdict="inconclusive")
        doc = rep.to_json()
        assert doc["decay_ratio_errors"] == list(errors)
        assert list(doc).index("decay_ratio_errors") == list(doc).index("decay_ratios") + 1

    def test_report_has_decay_ratio_errors(self):
        params = make_independent_params([8] * 6, seed=2)
        rep = bourgain_scan(params, k_max=2, budget=FAST)
        assert (rep.decay_ratios, rep.decay_ratio_errors) == _decay_ratios(rep.estimates)
        assert rep.decay_ratio_errors[0] == rep.estimates[1].std_error


class TestSubsequenceBound:
    def test_full_index_set(self):
        params = make_independent_params([4, 4, 4, 4], seed=6)
        rec = cs_subsequence_bound(params, 3, [0, 1, 2, 3], FAST)
        assert rec.holds
        assert rec.rhs == pytest.approx(math.sqrt(max(rec.lhs, 0)), abs=1e-12)

    def test_empty_subset_gives_one(self):
        params = make_independent_params([4, 4], seed=7)
        rec = cs_subsequence_bound(params, 1, [], FAST)
        assert rec.rhs == 1.0 and rec.holds

    def test_out_of_range_index(self):
        params = make_independent_params([4, 4], seed=8)
        with pytest.raises(ValidationError):
            cs_subsequence_bound(params, 1, [5], FAST)

    def test_no_stage_rejected(self):
        params = make_independent_params([4, 4], seed=8)
        with pytest.raises(ValidationError, match="need at least one polynomial"):
            cs_subsequence_bound(params, -1, [], FAST)

    @pytest.mark.parametrize("index", [0.5, 1.0, True], ids=["half", "float", "bool"])
    def test_non_integer_index_rejected(self, index):
        # 0.5 matched no stage (rhs 1.0); 1.0 and True counted as stage 1.
        params = make_independent_params([4, 4], seed=8)
        with pytest.raises(ValidationError, match="subsequence index must be an integer"):
            cs_subsequence_bound(params, 2, [index], FAST)

    def test_numpy_integer_index(self):
        params = make_independent_params([4, 4], seed=8)
        assert (cs_subsequence_bound(params, 1, [np.int64(1)], FAST)
                == cs_subsequence_bound(params, 1, [1], FAST))


class TestKlemes:
    def test_holds_with_empty_q(self):
        params = make_independent_params([16], seed=9)
        rec = klemes_inequality_check(params, [], 0, FAST)
        assert rec.holds

    def test_m_must_exceed_indices(self):
        params = make_independent_params([4, 4], seed=10)
        with pytest.raises(ValidationError):
            klemes_inequality_check(params, [1], 0, FAST)


    def test_exact_sides_from_product_means(self):
        # int Q and int Q|P_m|^2 are exact; rhs samples only the last term.
        params = make_independent_params([3, 4, 5], seed=11)
        rec = klemes_inequality_check(params, [0, 1], 2, FAST)
        (e4,) = bohr_integral_multi(
            [lambda a, b, c: np.abs(a) ** 2 * np.abs(b) ** 2
             * np.abs(np.abs(c) ** 2 - 1.0)],
            [build_polynomial(params, k) for k in range(3)], FAST)
        exact = (_product_mean(params, [0, 1]) + _product_mean(params, [0, 1, 2])) / 2
        assert rec.rhs + e4.value ** 2 / 8 == pytest.approx(float(exact), rel=1e-12)
        assert rec.rhs_error == abs(e4.value) / 4 * e4.std_error

    def test_past_support_cap_refused(self):
        params = make_independent_params([64] * 4, seed=12)
        with pytest.raises(SupportCapError):
            klemes_inequality_check(params, [0, 1, 2], 3, FAST)


class TestGuenais:
    def test_empty(self):
        params = make_independent_params([4], seed=13)
        rec = guenais_sum(params, 0, FAST)
        assert rec.partial_sums == ()

    def test_partial_sums_accumulate(self):
        params = make_independent_params([16, 16, 16], seed=14)
        rec = guenais_sum(params, 3, FAST)
        assert len(rec.partial_sums) == 3
        assert rec.partial_sums[-1] == pytest.approx(sum(rec.increments))
        # increments sit near the Gaussian value sqrt(1 - pi/4) already at p=16
        for inc in rec.increments:
            assert abs(inc - math.sqrt(1 - math.pi / 4)) < 0.05


class TestFejer:
    def test_factorization_on_independent_stages(self):
        params = make_independent_params([8, 8], seed=15)
        rec = fejer_factorization_check(params, [0], 1, FAST)
        assert rec.holds
        assert rec.symbolic_exact

    def test_dependent_stages_rejected(self):
        # no spacers at all: stage-1 frequencies are integer multiples of
        # the stage-0 ones, so rank additivity fails
        b = SymbolBasis.make(("one", 1.0))
        zero = b.zero()
        params = RankOneParams(
            basis=b, unit=b.symbol("one"),
            stages=(Stage(p=2, spacers=(zero, zero, zero)),
                    Stage(p=2, spacers=(zero, zero, zero))),
        )
        with pytest.raises(ValidationError):
            fejer_factorization_check(params, [0], 1, FAST)

    def test_product_reads_exact_q_mean(self):
        params = make_independent_params([8, 8], seed=15)
        rec = fejer_factorization_check(params, [0], 1, FAST)
        (e_m,) = bohr_integral_multi(
            [lambda q, m: np.abs(m)],
            [build_polynomial(params, k) for k in (0, 1)], FAST)
        assert rec.product == float(_product_mean(params, [0])) * e_m.value


class TestKacClt:
    def test_single_phase(self):
        rec = kac_clt_diagnostics(1, 5000, seed=0)
        assert rec.mean_abs == pytest.approx(1.0, abs=1e-12)
        assert rec.mean_abs2 == pytest.approx(1.0, abs=1e-12)

    def test_ks_matches_scipy(self):
        from scipy import stats

        sigma = math.sqrt(0.5)
        for q, n, seed in ((1, 5000, 0), (8, 40000, 1), (128, 100_000, 31)):
            ev = TorusEvaluator([np.ones(q, dtype=complex)], q, [np.arange(q)])
            (z,) = ev.sample(np.random.default_rng(np.random.SeedSequence(seed)), n)
            z = z / math.sqrt(q)
            rec = kac_clt_diagnostics(q, n, seed)
            for x, got in ((z.real, rec.ks_distance_re),
                           (z.imag, rec.ks_distance_im)):
                want = stats.kstest(x, "norm", args=(0.0, sigma)).statistic
                assert got == float(want)

    def test_ks_distance_shrinks_with_q(self):
        ds = [kac_clt_diagnostics(q, 40000, seed=1).ks_distance_re
              for q in (8, 32, 128)]
        assert ds[0] > ds[1] > ds[2] or ds[2] < 0.01

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError):
            kac_clt_diagnostics(8, 100, seed=-1)

    def test_non_integer_seed_rejected(self):
        # numpy's SeedSequence raised its own TypeError.
        with pytest.raises(ValidationError, match="seed"):
            kac_clt_diagnostics(8, 100, seed=1.5)

    def test_boolean_q_rejected(self):
        # True ran as q = 1.
        with pytest.raises(ValidationError, match="q must be"):
            kac_clt_diagnostics(True, 100)

    def test_mean_abs2_is_one(self):
        rec = kac_clt_diagnostics(32, 50000, seed=2)
        assert abs(rec.mean_abs2 - 1.0) <= 3 * rec.mean_abs2_std_error

    def test_memory_does_not_grow_with_q(self):
        kac_clt_diagnostics(2, 100, seed=0)  # lazy imports happen untraced
        tracemalloc.start()
        try:
            kac_clt_diagnostics(128, 100_000, seed=31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # All q x n phases at once would take over 300 MB.
        assert peak < 32 * 2**20


class TestKacMoments:
    def test_known_values(self):
        assert kac_moment_identity([2]) == Fraction(1, 2)
        assert kac_moment_identity([1]) == 0
        assert kac_moment_identity([2, 4]) == Fraction(3, 16)
        assert kac_moment_identity([]) == 1
        assert kac_moment_identity([16, 16, 16, 16]) == Fraction(12870, 2 ** 16) ** 4

    def test_formula_matches_symbolic_exhaustively(self):
        # all tuples with up to 3 entries and total exponent at most 8
        def tuples(k, total):
            if k == 0:
                yield ()
                return
            for head in range(total + 1):
                for rest in tuples(k - 1, total - head):
                    yield (head,) + rest

        for k in (1, 2, 3):
            for t in tuples(k, 8):
                # kac_moment_identity raises on any formula/count mismatch
                v = kac_moment_identity(list(t))
                if any(x % 2 for x in t):
                    assert v == 0
                else:
                    assert v == kac_moment_formula(t)

    @pytest.mark.parametrize("exponents", [[2], [1, 2], [2, 4], [4, 0, 3], [6, 2, 2]])
    def test_matches_frequency_keyed_counts(self, exponents):
        # The reference: the count at zero of the cosine product multiplied
        # out over fresh symbols with ``Frequency`` keys by ``mul_terms``.
        basis = SymbolBasis.make(*[(f"w{j}", float(j + 2)) for j in range(len(exponents))])
        prod = {basis.zero(): 1}
        for j, l in enumerate(exponents):
            w = basis.symbol(f"w{j}")
            for _ in range(l):
                prod = mul_terms(prod, {w: 1, -w: 1})
        want = Fraction(prod.get(basis.zero(), 0), 2 ** sum(exponents))
        assert kac_moment_identity(exponents) == want == kac_moment_formula(exponents)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            kac_moment_identity([-2])

    @pytest.mark.parametrize("call, exponents", [
        (kac_moment_formula, [2.5]),
        (kac_moment_formula, [True, 2]),
        (kac_moment_identity, [2.0]),
    ], ids=["formula-half", "formula-bool", "identity-float"])
    def test_non_integer_exponent_rejected(self, call, exponents):
        # The formula returned 0 for the first two; the identity raised TypeError.
        with pytest.raises(ValidationError, match="exponent must be an integer"):
            call(exponents)

    def test_numpy_integer_exponents(self):
        assert kac_moment_identity(np.array([2, 4])) == Fraction(3, 16)
        assert kac_moment_formula([np.int64(4)]) == Fraction(3, 8)


class TestConstants:
    def test_gauss_mean_abs(self):
        assert GAUSS_MEAN_ABS == pytest.approx(0.8862269254527580, abs=1e-15)
