"""Sparse polynomial algebra: ring laws, functionals, exact coefficients."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrap.appoly import (APPoly, EXACT_ONE, ExactComplex, abs2, degree,
                           fourier_coeff, l2_norm, mean, poly_add, poly_conj,
                           poly_mul)
from bohrap.errors import BasisMismatchError, ValidationError
from bohrap.freqspace import Frequency, SymbolBasis

B = SymbolBasis.make(("a", 1.0), ("b", math.sqrt(3)))

small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
freqs = st.tuples(small_fracs, small_fracs).map(lambda t: Frequency(B, t))
coeffs = st.complex_numbers(
    min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False
)
polys = st.lists(st.tuples(freqs, coeffs), min_size=0, max_size=5).map(
    lambda items: APPoly.from_terms(B, items)
)


class TestExactComplex:
    def test_field_ops(self):
        z = ExactComplex.of(Fraction(1, 2), Fraction(-1, 3))
        w = ExactComplex.of(2, 1)
        assert (z * w).re == Fraction(1, 2) * 2 + Fraction(1, 3)
        assert (z + w - w) == z
        assert z.conj().im == Fraction(1, 3)
        assert (z * z.conj()).re == z.abs2()
        assert z.abs2() == Fraction(1, 4) + Fraction(1, 9)
        r = ExactComplex.of(Fraction(2, 3))
        assert r * ExactComplex.of(Fraction(3, 4)) == ExactComplex.of(Fraction(1, 2))
        assert r * w == ExactComplex.of(Fraction(4, 3), Fraction(2, 3))
        assert w * r == r * w

    def test_to_complex(self):
        assert ExactComplex.of(Fraction(3, 4), 2).to_complex() == 0.75 + 2j


class TestConstruction:
    def test_duplicate_frequencies_merge(self):
        f = B.symbol("a")
        p = APPoly.from_terms(B, [(f, 1.0), (f, 2.0)])
        assert len(p) == 1
        assert p.fourier_coeff(f) == 3.0

    def test_exact_needs_rational(self):
        with pytest.raises(ValidationError):
            APPoly.from_terms(B, [(B.zero(), 0.5)], exact=True)

    def test_cancellation_prunes(self):
        f = B.symbol("a")
        p = APPoly.from_terms(B, [(f, 1.0)]) - APPoly.from_terms(B, [(f, 1.0)])
        assert len(p) == 0

    def test_basis_mismatch(self):
        other = SymbolBasis.make(("a", 2.0))
        with pytest.raises(BasisMismatchError):
            APPoly.from_terms(B, [(other.symbol("a"), 1.0)])


class TestRingLaws:
    @given(polys, polys)
    @settings(max_examples=50)
    def test_add_commutes(self, p, q):
        assert poly_add(p, q) == poly_add(q, p)

    @given(polys, polys, polys)
    @settings(max_examples=30)
    def test_mul_distributes(self, p, q, r):
        left = poly_mul(p, poly_add(q, r))
        right = poly_add(poly_mul(p, q), poly_mul(p, r))
        assert left.support() == right.support()
        for f in left.support():
            assert left.fourier_coeff(f) == pytest.approx(
                right.fourier_coeff(f), abs=1e-9
            )

    @given(polys)
    def test_conj_involution(self, p):
        assert poly_conj(poly_conj(p)) == p

    @given(polys)
    def test_one_is_identity(self, p):
        assert poly_mul(APPoly.one(B), p) == p

    @given(polys)
    @settings(max_examples=50)
    def test_abs2_is_hermitian_nonneg_mean(self, p):
        sq = abs2(p)
        assert sq.is_hermitian()
        assert mean(sq).real == pytest.approx(float(l2_norm(p)) ** 2, rel=1e-9)
        assert abs(mean(sq).imag) < 1e-9


class TestFunctionals:
    def test_mean_picks_zero_frequency(self):
        p = APPoly.from_terms(B, [(B.zero(), 2.5), (B.symbol("a"), 1.0)])
        assert mean(p) == 2.5

    def test_fourier_coeff_missing_is_zero(self):
        p = APPoly.one(B)
        assert fourier_coeff(p, B.symbol("b")) == 0

    def test_degree(self):
        p = APPoly.from_terms(
            B, [(B.symbol("a"), 1.0), (B.symbol("b").scale(-2), 1.0)]
        )
        assert degree(p) == pytest.approx(2 * math.sqrt(3))

    def test_degree_of_zero_poly_rejected(self):
        with pytest.raises(ValidationError):
            degree(APPoly.zero(B))

    def test_exact_l2(self):
        p = APPoly.from_terms(
            B,
            [(B.symbol("a"), ExactComplex.of(Fraction(1, 2))),
             (B.zero(), EXACT_ONE)],
            exact=True,
        )
        assert p.l2_norm_sq() == Fraction(5, 4)

    def test_eval_real_matches_terms(self):
        p = APPoly.from_terms(B, [(B.symbol("a"), 2.0), (B.zero(), 1.0)])
        t = np.array([0.0, 0.7])
        want = 1.0 + 2.0 * np.exp(1j * t)
        assert np.allclose(p.eval_real(t), want)

    @given(polys)
    @settings(max_examples=40)
    def test_parseval(self, p):
        assert l2_norm(p) ** 2 == pytest.approx(
            float(sum(abs(c) ** 2 for c in p.terms.values())), rel=1e-9
        )


class TestExactAlgebra:
    def test_character_times_conj_is_one(self):
        f = B.frequency({"a": Fraction(2, 3)})
        ch = APPoly.character(f, EXACT_ONE, exact=True)
        assert ch * ch.conj() == APPoly.one(B, exact=True)

    def test_mixing_exact_and_float_rejected(self):
        with pytest.raises(ValidationError):
            APPoly.one(B, exact=True) + APPoly.one(B)

    def test_exact_mean_of_abs2(self):
        f, g = B.symbol("a"), B.symbol("b")
        p = APPoly.from_terms(
            B, [(f, EXACT_ONE), (g, ExactComplex.of(Fraction(1, 3)))],
            exact=True,
        )
        assert p.abs2().mean().re == Fraction(10, 9)


class TestSerialization:
    def test_json_roundtrip(self):
        p = APPoly.from_terms(
            B, [(B.symbol("a"), 1.5 + 0.5j), (B.zero(), -1.0)]
        )
        q = APPoly.from_json(p.to_json())
        assert q == p

    def test_str_of_zero(self):
        assert str(APPoly.zero(B)) == "0"
