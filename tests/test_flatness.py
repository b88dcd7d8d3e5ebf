"""Family constructors, flatness ratios and local/global contrasts."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bohrap.appoly import APPoly
from bohrap.bohrint import Budget
from bohrap.errors import ValidationError
from bohrap.flatness import (PolyFamilySpec, RealFreqPoly, build_family,
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
        assert isinstance(p, RealFreqPoly)
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
        # P = e^{ia} + e^{iNa} + e^{i(Na+b)} reaches 0 on the torus, so the
        # deviation is 1.  For N = 2^60 + 1, phases rounded to float64
        # freeze e^{iNa} and e^{i(Na+b)} at 1, so |P| stays in [1, 3] and
        # the deviation reads sqrt(3) - 1 = 0.732.
        b = SymbolBasis.make(("a", 1.0), ("b", math.sqrt(2)))
        a, s = b.symbol("a"), b.symbol("b")
        N = (1 << 60) + 1
        p = APPoly.from_terms(b, [(a, 1.0), (a.scale(N), 1.0),
                                  (a.scale(N) + s, 1.0)])
        assert ultraflat_deviation(p) >= 0.95

    def test_huge_exponent_on_one_symbol(self):
        # e^{ia} + e^{iNa} reaches 0, so the deviation is 1.  A midpoint
        # grid of n points with 2n dividing 2^60 sees N theta = theta and
        # reads sqrt(2) - 1; such n are replaced by seeded points.
        b = SymbolBasis.make(("a", 1.0))
        a = b.symbol("a")
        for N, want in (((1 << 60) + 1, None), (3, 0.99946)):
            p = APPoly.from_terms(b, [(a, 1.0), (a.scale(N), 1.0)])
            dev = ultraflat_deviation(p)
            if want is None:
                assert dev >= 0.95
            else:
                assert dev == pytest.approx(want, abs=1e-5)

    @pytest.mark.xfail(strict=True, reason="_stable_max stops once two "
                       "seeded samples agree to tol, below the supremum")
    def test_seeded_sup_reaches_supremum(self):
        # e^{ia} + e^{iNa} reaches 0, so the deviation is exactly 1; the
        # seeded scan reads 0.98344 with tol 1e-3.
        b = SymbolBasis.make(("a", 1.0))
        a = b.symbol("a")
        p = APPoly.from_terms(b, [(a, 1.0), (a.scale((1 << 60) + 1), 1.0)])
        assert ultraflat_deviation(p, tol=1e-3) == pytest.approx(1.0, abs=1e-3)

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
