"""Family constructors, flatness ratios and local/global contrasts."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bohrap import flatness
from bohrap.appoly import APPoly
from bohrap.bohrint import Budget, affinely_independent
from bohrap.errors import ValidationError
from bohrap.flatness import (PolyFamilySpec, build_family,
                             flatness_ratio, local_vs_global_flatness,
                             prikhodko_frequencies, ultraflat_deviation)
from bohrap.freqspace import SymbolBasis

FAST = Budget(samples=1 << 13, seed=23)


class TestSpecs:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            PolyFamilySpec(kind="fejer", n=3)

    def test_eps_range(self):
        with pytest.raises(ValidationError):
            PolyFamilySpec(kind="prikhodko", n=4, eps_n=Fraction(3, 2))

    def test_from_config(self):
        spec = PolyFamilySpec.from_config(
            {"kind": "littlewood", "n": 3, "coefficients": [1, -1, 1]}
        )
        assert spec.coefficients == (1, -1, 1)


class TestBuildFamily:
    def test_newman_constant_term(self):
        with pytest.raises(ValidationError):
            build_family(PolyFamilySpec(
                kind="newman", n=2, coefficients=(0, 1)))

    def test_newman_single_one_is_constant(self):
        p = build_family(PolyFamilySpec(kind="newman", n=1, coefficients=(1,)))
        assert isinstance(p, APPoly)
        assert len(p) == 1 and p.mean() == 1.0

    def test_littlewood_signs(self):
        p = build_family(PolyFamilySpec(
            kind="littlewood", n=2, coefficients=(1, -1)))
        coeffs = sorted(c.real for c in p.terms.values())
        assert coeffs == [-1.0, 1.0]
        with pytest.raises(ValidationError):
            build_family(PolyFamilySpec(
                kind="littlewood", n=2, coefficients=(1, 2)))

    def test_unimodular_phases(self):
        p = build_family(PolyFamilySpec(
            kind="unimodular", n=3, coefficients=(0.0, 1.0, 2.0)))
        assert all(abs(abs(c) - 1.0) < 1e-12 for c in p.terms.values())

    def test_frequency_override_and_duplicates(self):
        b = SymbolBasis.make(("w", 1.5))
        w = b.symbol("w")
        spec = PolyFamilySpec(kind="littlewood", n=2, coefficients=(1, 1),
                              frequencies=(w, w.scale(3)))
        p = build_family(spec)
        assert set(p.support()) == {w, w.scale(3)}
        with pytest.raises(ValidationError):
            build_family(PolyFamilySpec(kind="littlewood", n=2,
                                        coefficients=(1, 1),
                                        frequencies=(w, w)))

    def test_prikhodko_frequencies(self):
        # w(p) = 16 e^{p/8} for p_n = 4, m_n = 1, eps_n = 1/2
        w = prikhodko_frequencies(4, 1, Fraction(1, 2))
        want = 16.0 * np.exp(np.arange(4) / 8.0)
        assert np.allclose(w, want, rtol=1e-12)
        assert np.all(np.diff(w) > 0)

    def test_prikhodko_poly_normalized(self):
        p = build_family(PolyFamilySpec(kind="prikhodko", n=16))
        assert isinstance(p, APPoly)
        assert p.l2_norm() == pytest.approx(1.0)


class TestFlatnessRatio:
    def test_single_character(self):
        b = SymbolBasis.make(("w", 2.0))
        est = flatness_ratio(APPoly.character(b.symbol("w")), FAST)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_one_plus_character(self):
        # |1 + e^{iwt}|_1 / sqrt(2) = (4/pi)/sqrt(2)
        p = build_family(PolyFamilySpec(kind="newman", n=2))
        est = flatness_ratio(p, Budget(samples=1 << 15, seed=3))
        want = 2 * math.sqrt(2) / math.pi
        assert est.value == pytest.approx(want, abs=1e-3)

    def test_never_above_one(self):
        for n in (2, 3, 5):
            p = build_family(PolyFamilySpec(kind="littlewood", n=n))
            est = flatness_ratio(p, FAST)
            assert est.value <= 1.0 + 3 * est.std_error

    def test_zero_rejected(self):
        b = SymbolBasis.make(("w", 1.0))
        with pytest.raises(ValidationError):
            flatness_ratio(APPoly.zero(b), FAST)


class TestUltraflat:
    def test_single_character_is_zero(self):
        b = SymbolBasis.make(("w", 2.0))
        dev = ultraflat_deviation(APPoly.character(b.symbol("w")))
        assert dev == pytest.approx(0.0, abs=1e-12)

    def test_single_character_at_negative_frequency_is_zero(self):
        # e^{-ia} has one frequency and no differences; its reduced exponent
        # -1 is not a unit row, and the rank test of no differences raised.
        b = SymbolBasis.make(("a", 1.0))
        for k in (-1, -2):
            dev = ultraflat_deviation(APPoly.character(b.symbol("a").scale(k)))
            assert dev == pytest.approx(0.0, abs=1e-12)

    def test_two_terms_deviation_is_one(self):
        # |P| sweeps [0, 2] while |P|_2 = sqrt(2): the deviation below the
        # mean (down to 0) dominates the deviation above (sqrt(2) - 1).
        p = build_family(PolyFamilySpec(
            kind="littlewood", n=2, coefficients=(1, -1)))
        assert ultraflat_deviation(p) == pytest.approx(1.0, abs=2e-3)

    def test_multiple_frequencies_positive(self):
        p = build_family(PolyFamilySpec(kind="littlewood", n=4))
        assert ultraflat_deviation(p) > 0.0

    def test_huge_exponents_keep_phase_precision(self):
        # P = e^{ia} + e^{iNa} + e^{i(Na+b)}/2 + e^{i(2Na+b)}/2 reaches 0 on
        # the torus, so the deviation is 1; its three differences over two
        # symbols are dependent, so it is scanned on seeded points.  For
        # N = 2^60 + 1, phases rounded to float64 freeze every term but
        # e^{ia} at 1, so |P| stays in [1, 3] and the deviation reads
        # 3 / sqrt(2.5) - 1 = 0.897.
        b = SymbolBasis.make(("a", 1.0), ("b", math.sqrt(2)))
        a, s = b.symbol("a"), b.symbol("b")
        N = (1 << 60) + 1
        p = APPoly.from_terms(b, [(a, 1.0), (a.scale(N), 1.0),
                                  (a.scale(N) + s, 0.5),
                                  (a.scale(2 * N) + s, 0.5)])
        assert not affinely_independent(list(p.terms))
        assert ultraflat_deviation(p) >= 0.95

    def test_huge_exponent_on_one_symbol(self):
        # e^{ia} + e^{iNa} + e^{2iNa} reaches 0, so the deviation is 1.  Its
        # frequencies are dependent, so it is scanned.  A midpoint grid of n
        # points with 2n dividing 2^60 sees N theta = theta and reads
        # sqrt(3) - 1; such n are replaced by seeded points.  For N = 3 the
        # midpoint grid serves.
        b = SymbolBasis.make(("a", 1.0))
        a = b.symbol("a")
        for N, want in (((1 << 60) + 1, None), (3, 0.77107)):
            p = APPoly.from_terms(b, [(a, 1.0), (a.scale(N), 1.0),
                                      (a.scale(2 * N), 1.0)])
            dev = ultraflat_deviation(p)
            if want is None:
                assert dev >= 0.95
            else:
                assert dev == pytest.approx(want, abs=1e-5)

    def test_seeded_sup_reaches_supremum(self):
        # e^{ia} + e^{iNa} reaches 0, so the deviation is exactly 1; the
        # seeded scan, which stops once two samples agree to tol, read
        # 0.98344.  The one difference (N - 1) a is independent.
        b = SymbolBasis.make(("a", 1.0))
        a = b.symbol("a")
        p = APPoly.from_terms(b, [(a, 1.0), (a.scale((1 << 60) + 1), 1.0)])
        assert ultraflat_deviation(p, tol=1e-3) == pytest.approx(1.0, abs=1e-3)

    def test_independent_frequencies_exact(self):
        # Kronecker: the phases fill the torus, so sup |P| is the sum S of
        # |c| and inf |P| is max(0, 2 max |c| - S).  Each of the three sums
        # reaches 0, so the deviation is 1 (seeded scans read 0.99772,
        # 0.99691 and 0.99262); the Prikhodko p_n = 16 sum peaks at
        # 16 / 4 against |P|_2 = 1.
        b = SymbolBasis.make(("a", 1.0), ("b", math.sqrt(2)), ("c", math.e))
        one, a, s, c = b.zero(), b.symbol("a"), b.symbol("b"), b.symbol("c")
        for items in ([(one, 1.0), (a, 1.0), (s, 1.0)],
                      [(one, 2.0), (a, 1.0), (s, 1.0)],
                      [(one, 3.0), (a, 1.0), (s, 1.0), (c, 1.0)]):
            assert ultraflat_deviation(APPoly.from_terms(b, items)) == 1.0
        p = build_family(PolyFamilySpec(kind="prikhodko", n=16))
        assert ultraflat_deviation(p) == 3.0

    def test_affinely_independent_frequencies_exact(self):
        # |P| = |P e^{-i f_0 t}|, so independent differences f_j - f_0 give
        # the exact deviation.  1 + e^{ia} + e^{i(a+b)} reaches 0 (scanned:
        # 0.99902 in 0.7 s), as do e^{ia} + e^{3ia} (0.99946) and
        # e^{ia} + e^{iNa} + e^{i(Na+b)} (0.99517).
        b = SymbolBasis.make(("a", 1.0), ("b", math.sqrt(2)))
        a, s = b.symbol("a"), b.symbol("b")
        N = (1 << 60) + 1
        for freqs in ([b.zero(), a, a + s], [a, a.scale(3)],
                      [a, a.scale(N), a.scale(N) + s]):
            p = APPoly.from_terms(b, [(f, 1.0) for f in freqs])
            assert ultraflat_deviation(p) == 1.0
        # The 0/1/43 trinomial has dependent differences and is scanned;
        # the polygon value would be 1.
        p = APPoly.from_terms(b, [(a.scale(e), 1 / math.sqrt(3)) for e in (0, 1, 43)])
        assert ultraflat_deviation(p) == pytest.approx(0.97517, abs=1e-5)

    def test_independent_family_not_scanned(self, monkeypatch):
        # 1024 declared symbols, above the exact-rank cap: the echelon
        # certificate gives the exact 32 - 1 without building an evaluator.
        p = build_family(PolyFamilySpec(kind="prikhodko", n=1024))

        def refuse(polys):
            raise AssertionError("the evaluator was built")

        monkeypatch.setattr(flatness.TorusEvaluator, "of", refuse)
        assert ultraflat_deviation(p) == 31.0

    def test_independent_family_memory(self):
        # An evaluator held a 1024 x 1024 exponent matrix and its limbs
        # (32 MB under tracemalloc).
        p = build_family(PolyFamilySpec(kind="prikhodko", n=1024))
        tracemalloc.start()
        try:
            dev = ultraflat_deviation(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dev == 31.0
        assert peak < 4 * 2 ** 20

    def test_constant_deviation(self):
        b = SymbolBasis.make(("w", 1.0))
        assert ultraflat_deviation(APPoly.constant(b, -2.0)) == 0.0

    def test_memory_bounded_by_slices(self):
        # 16 terms over two symbols on up to 2^18 seeded points: whole
        # samples held 168 MB of phases; column slices keep the same points
        # and the same maximum.
        b = SymbolBasis.make(("a", 1.0), ("b", math.sqrt(2)))
        a, s = b.symbol("a"), b.symbol("b")
        p = APPoly.from_terms(b, [(a.scale(i) + s.scale(j),
                                   cmath.exp(1j * (i * j + 0.3 * i)))
                                  for i in range(4) for j in range(4)])
        tracemalloc.start()
        try:
            dev = ultraflat_deviation(p, tol=1e-12, seed=0, max_points=1 << 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert dev == 0.9994289039355171


    def test_many_terms_memory_bounded_by_slices(self):
        # 256 Littlewood terms over one symbol on 2^14 grid points: slices
        # of 2^16 points held 256 x 2^14 phases at once (160 MB); slices of
        # 2^20 / 256 points hold about 2^20 phases.
        p = build_family(PolyFamilySpec(kind="littlewood", n=256))
        tracemalloc.start()
        try:
            dev = ultraflat_deviation(p, max_points=1 << 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        # sup |P| / |P|_2 - 1 = 256 / 16 - 1, reached at theta = 0.
        assert dev == pytest.approx(15.0, abs=1e-2)


class TestLocalVsGlobal:
    def test_requires_prikhodko(self):
        with pytest.raises(ValidationError):
            local_vs_global_flatness(
                PolyFamilySpec(kind="newman", n=2), 1.0, 2.0, FAST)

    def test_single_term(self):
        rec = local_vs_global_flatness(
            PolyFamilySpec(kind="prikhodko", n=1), 1.0, 2.0, FAST)
        assert rec.local.value == pytest.approx(0.0, abs=1e-12)
        assert rec.global_mean_abs.value == pytest.approx(1.0, abs=1e-12)

    def test_global_near_gaussian_moment(self):
        rec = local_vs_global_flatness(
            PolyFamilySpec(kind="prikhodko", n=64, m_n=4, eps_n=Fraction(1, 4)),
            1.0, 2.0, Budget(samples=1 << 15, seed=5))
        assert rec.global_mean_abs.value == pytest.approx(
            math.sqrt(math.pi) / 2, abs=0.02)
