"""Singularity and flatness criteria: scans, inequalities, CLT diagnostics."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import bohrap.criteria

from bohrap.bohrint import Budget, unit_phase_sum
from bohrap.criteria import (GAUSS_MEAN_ABS, bourgain_scan,
                             cs_subsequence_bound, fejer_factorization_check,
                             guenais_sum, haar_weak_limit_check,
                             kac_clt_diagnostics, kac_moment_formula,
                             kac_moment_identity, klemes_inequality_check)
from bohrap.errors import ValidationError
from bohrap.freqspace import SymbolBasis
from bohrap.riesz import RankOneParams, Stage, make_independent_params

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


class TestKlemes:
    def test_holds_with_empty_q(self):
        params = make_independent_params([16], seed=9)
        rec = klemes_inequality_check(params, [], 0, FAST)
        assert rec.holds

    def test_m_must_exceed_indices(self):
        params = make_independent_params([4, 4], seed=10)
        with pytest.raises(ValidationError):
            klemes_inequality_check(params, [1], 0, FAST)


class TestHaarWeakLimit:
    def test_trivial_q(self):
        params = make_independent_params([4, 4], seed=11)
        recs = haar_weak_limit_check(params, [], [0, 1], FAST)
        for r in recs:
            # int |P_m|^2 = 1 exactly; both sides estimated on shared nodes
            assert abs(r.deviation) <= max(3 * r.combined_error, 1e-9)
            assert r.rank_additive

    def test_independent_stages_flagged(self):
        params = make_independent_params([3, 3, 3], seed=12)
        recs = haar_weak_limit_check(params, [0], [1, 2], FAST)
        assert all(r.rank_additive for r in recs)


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


class TestKacClt:
    def test_single_phase(self):
        rec = kac_clt_diagnostics(1, 5000, seed=0)
        assert rec.mean_abs == pytest.approx(1.0, abs=1e-12)
        assert rec.mean_abs2 == pytest.approx(1.0, abs=1e-12)

    def test_ks_matches_scipy(self):
        from scipy import stats

        sigma = math.sqrt(0.5)
        for q, n, seed in ((1, 5000, 0), (8, 40000, 1), (128, 100_000, 31)):
            z = unit_phase_sum(np.random.default_rng(np.random.SeedSequence(seed)),
                               q, n) / math.sqrt(q)
            rec = kac_clt_diagnostics(q, n, seed)
            for x, got in ((z.real, rec.ks_distance_re),
                           (z.imag, rec.ks_distance_im)):
                want = stats.kstest(x, "norm", args=(0.0, sigma)).statistic
                assert got == float(want)

    def test_ks_distance_shrinks_with_q(self):
        ds = [kac_clt_diagnostics(q, 40000, seed=1).ks_distance_re
              for q in (8, 32, 128)]
        assert ds[0] > ds[1] > ds[2] or ds[2] < 0.01

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
                # kac_moment_identity raises on any formula/symbolic mismatch
                v = kac_moment_identity(list(t))
                if any(x % 2 for x in t):
                    assert v == 0
                else:
                    assert v == kac_moment_formula(t)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            kac_moment_identity([-2])


class TestConstants:
    def test_gauss_mean_abs(self):
        assert GAUSS_MEAN_ABS == pytest.approx(0.8862269254527580, abs=1e-15)
