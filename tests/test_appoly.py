"""Sparse polynomial algebra: ring laws, functionals, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrap.appoly import APPoly
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
class TestConstruction:
    def test_duplicate_frequencies_merge(self):
        f = B.symbol("a")
        p = APPoly.from_terms(B, [(f, 1.0), (f, 2.0)])
        assert len(p) == 1
        assert p.fourier_coeff(f) == 3.0

    @pytest.mark.parametrize("items", [
        [(0, 1.0), (1, math.nan)],
        [(1, math.nan), (0, 1.0)],
        [(0, 1.0), (1, complex(0.0, -math.inf))],
        [(1, math.inf)],
    ], ids=["nan-after-finite", "nan-first", "inf-imag", "inf-alone"])
    def test_non_finite_coefficient_refused(self, items):
        # A nan or inf coefficient would turn the prune cut into nan or inf
        # and silently drop the other terms.
        freqs = [B.zero(), B.symbol("a")]
        with pytest.raises(ValidationError):
            APPoly.from_terms(B, [(freqs[i], c) for i, c in items])

    def test_scale_by_nan_refused(self):
        with pytest.raises(ValidationError):
            APPoly.one(B).scale(math.nan)

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
        assert p + q == q + p

    @given(polys, polys, polys)
    @settings(max_examples=30)
    def test_mul_distributes(self, p, q, r):
        left = p * (q + r)
        right = p * q + p * r
        assert left.support() == right.support()
        for f in left.support():
            assert left.fourier_coeff(f) == pytest.approx(
                right.fourier_coeff(f), abs=1e-9
            )

    @given(polys)
    def test_conj_involution(self, p):
        assert p.conj().conj() == p

    @given(polys)
    def test_one_is_identity(self, p):
        assert APPoly.one(B) * p == p

    @given(polys)
    @settings(max_examples=50)
    def test_abs2_is_hermitian_nonneg_mean(self, p):
        sq = p.abs2()
        assert sq.is_hermitian()
        m = complex(sq.mean())
        assert m.real == pytest.approx(float(p.l2_norm()) ** 2, rel=1e-9)
        assert abs(m.imag) < 1e-9


class TestFunctionals:
    def test_mean_picks_zero_frequency(self):
        p = APPoly.from_terms(B, [(B.zero(), 2.5), (B.symbol("a"), 1.0)])
        assert complex(p.mean()) == 2.5

    def test_fourier_coeff_missing_is_zero(self):
        p = APPoly.one(B)
        assert complex(p.fourier_coeff(B.symbol("b"))) == 0

    def test_fourier_coeff_basis_mismatch(self):
        other = SymbolBasis.make(("a", 2.0))
        with pytest.raises(BasisMismatchError):
            APPoly.one(B).fourier_coeff(other.symbol("a"))

    def test_degree(self):
        p = APPoly.from_terms(
            B, [(B.symbol("a"), 1.0), (B.symbol("b").scale(-2), 1.0)]
        )
        assert p.degree() == pytest.approx(2 * math.sqrt(3))

    def test_degree_of_zero_poly_rejected(self):
        with pytest.raises(ValidationError):
            APPoly.zero(B).degree()

    def test_eval_real_matches_terms(self):
        p = APPoly.from_terms(B, [(B.symbol("a"), 2.0), (B.zero(), 1.0)])
        t = np.array([0.0, 0.7])
        want = 1.0 + 2.0 * np.exp(1j * t)
        assert np.allclose(p.eval_real(t), want)

    @given(polys)
    @settings(max_examples=40)
    def test_parseval(self, p):
        assert p.l2_norm() ** 2 == pytest.approx(
            float(sum(abs(c) ** 2 for c in p.terms.values())), rel=1e-9
        )


class TestSerialization:
    def test_json_roundtrip(self):
        p = APPoly.from_terms(
            B, [(B.symbol("a"), 1.5 + 0.5j), (B.zero(), -1.0)]
        )
        q = APPoly.from_json(p.to_json())
        assert q == p

    def test_str_of_zero(self):
        assert str(APPoly.zero(B)) == "0"
