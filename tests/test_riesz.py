"""Rank-one flow parameters, heights, stage polynomials, partial products."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from bohrap.appoly import APPoly
from bohrap.errors import SupportCapError, ValidationError
from bohrap.freqspace import Frequency, SymbolBasis
from bohrap.riesz import (RankOneParams, SigmaHatValue, Stage,
                          abs2_polynomial, build_polynomial, degree_report,
                          delta, extend, heights, initial_state,
                          make_independent_params, riesz_property_check,
                          spacer_sum, stage_exponents,
                          validate_main_hypothesis)


def _basic_params():
    # two stages over explicit symbols: p_0 = 2, p_1 = 3
    b = SymbolBasis.make(("one", 1.0), ("s", math.sqrt(2)), ("t", math.sqrt(3)))
    zero, s, t = b.zero(), b.symbol("s"), b.symbol("t")
    return RankOneParams(
        basis=b, unit=b.symbol("one"),
        stages=(
            Stage(p=2, spacers=(zero, s, t)),
            Stage(p=3, spacers=(zero, t, s, zero)),
        ),
    )


class TestValidation:
    def test_cut_below_two_rejected(self):
        b = SymbolBasis.make(("one", 1.0))
        with pytest.raises(ValidationError):
            Stage(p=1, spacers=(b.zero(), b.zero()))

    def test_wrong_spacer_count(self):
        b = SymbolBasis.make(("one", 1.0))
        with pytest.raises(ValidationError):
            Stage(p=2, spacers=(b.zero(), b.zero()))

    def test_first_spacer_must_be_zero(self):
        b = SymbolBasis.make(("one", 1.0))
        u = b.symbol("one")
        with pytest.raises(ValidationError):
            Stage(p=2, spacers=(u, u, u))

    def test_negative_spacer_rejected(self):
        b = SymbolBasis.make(("one", 1.0), ("s", 0.5))
        with pytest.raises(ValidationError):
            Stage(p=2, spacers=(b.zero(), -b.symbol("s"), b.zero()))

    def test_unit_must_be_one(self):
        b = SymbolBasis.make(("one", 1.0), ("s", 0.5))
        with pytest.raises(ValidationError):
            RankOneParams(basis=b, unit=b.symbol("s"), stages=())

    def test_from_config(self):
        doc = {
            "basis": [{"name": "one", "value": 1.0},
                      {"name": "s", "value": 0.7}],
            "unit": "one",
            "stages": [{"p": 2, "spacers": ["0", "s", "2*s"]}],
        }
        params = RankOneParams.from_config(doc)
        assert params.n_stages == 1
        assert params.stages[0].spacers[2] == params.basis.symbol("s").scale(2)


class TestHeights:
    def test_recursion(self):
        params = _basic_params()
        b = params.basis
        h0 = heights(params, 0)
        assert h0 == b.symbol("one")
        # h_1 = 2*h_0 + (0 + s + t)
        assert heights(params, 1) == h0.scale(2) + b.symbol("s") + b.symbol("t")
        # h_2 = 3*h_1 + (0 + t + s + 0)
        want = heights(params, 1).scale(3) + b.symbol("s") + b.symbol("t")
        assert heights(params, 2) == want

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            heights(_basic_params(), 3)


class TestSpacerSums:
    def test_symmetric_window(self):
        params = _basic_params()
        b = params.basis
        # stage-1 spacers are (0, t, s, 0); the window [0, 2) sums 0 + t
        assert spacer_sum(params, 1, 0, 2) == b.symbol("t")
        assert spacer_sum(params, 1, 2, 0) == spacer_sum(params, 1, 0, 2)
        assert spacer_sum(params, 1, 1, 1).is_zero()

    def test_range_check(self):
        with pytest.raises(ValidationError):
            spacer_sum(_basic_params(), 0, 0, 2)


class TestStagePolynomials:
    def test_exponents_are_height_ladder(self):
        params = _basic_params()
        b = params.basis
        exps = stage_exponents(params, 1)
        h1 = heights(params, 1)
        assert exps[0].is_zero()
        assert exps[1] == h1
        assert exps[2] == h1.scale(2) + b.symbol("t")

    def test_unit_l2_norm(self):
        params = _basic_params()
        for k in range(2):
            assert build_polynomial(params, k).l2_norm() == pytest.approx(1.0)

    def test_abs2_mean_is_exactly_one(self):
        params = _basic_params()
        for k in range(2):
            m = abs2_polynomial(params, k).mean()
            assert m.re == 1 and m.im == 0

    def test_delta_mean_zero(self):
        params = _basic_params()
        d = delta(params, 0)
        assert d.mean().is_zero()
        assert len(d) == 2  # the two cross terms of a p=2 stage


class TestPartialProducts:
    def test_extend_order_enforced(self):
        params = _basic_params()
        st = initial_state(params)
        with pytest.raises(ValidationError):
            extend(st, 1)

    def test_support_cap(self):
        params = make_independent_params([8, 8], seed=0)
        st = extend(initial_state(params), 0)
        with pytest.raises(SupportCapError):
            extend(st, 1, support_cap=100)

    def test_riesz_property_exact(self):
        params = _basic_params()
        assert riesz_property_check(params, [0, 1]) == 1

    def test_riesz_property_needs_increasing(self):
        with pytest.raises(ValidationError):
            riesz_property_check(_basic_params(), [1, 0])

    def test_sigma_hat_monotone_along_extension(self):
        params = make_independent_params([2, 3, 2], seed=5)
        st = initial_state(params)
        states = []
        for k in range(3):
            st = extend(st, k)
            states.append(st)
        for prev, cur in zip(states, states[1:]):
            for lam, v in prev.sigma_hat_table().items():
                nxt = cur.sigma_hat(lam)
                assert nxt.value >= v

    def test_sigma_hat_off_support(self):
        params = _basic_params()
        st = extend(initial_state(params), 0)
        lam = params.basis.symbol("one").scale(997)
        got = st.sigma_hat(lam)
        assert got.value == 0 and not got.on_support


#: Products of more terms than this make the reference fold slow.
_MAX_REFERENCE_TERMS = 3000


def _small(cuts) -> bool:
    return math.prod(p * p - p + 1 for p in cuts) <= _MAX_REFERENCE_TERMS


@hs.composite
def _fresh_symbol_params(draw):
    cuts = draw(hs.lists(hs.integers(2, 5), min_size=1, max_size=4).filter(_small))
    return make_independent_params(cuts, seed=draw(hs.integers(0, 1000)))


_RATIONAL_BASIS = SymbolBasis.make(
    ("one", 1.0), ("u", math.sqrt(2)), ("v", math.sqrt(3)))
_RATIONALS = hs.builds(Fraction, hs.integers(-3, 3), hs.sampled_from([1, 2, 3, 5]))


def _rational_params(stage_spacers):
    """Stages over 1, sqrt 2, sqrt 3 from rational coefficient triples; a
    spacer with a negative real value is negated (its coefficients keep
    mixed signs)."""
    b = _RATIONAL_BASIS
    stages = []
    for triples in stage_spacers:
        spacers = [b.zero()]
        for t in triples:
            f = Frequency(b, t)
            spacers.append(-f if f.real_value() < 0 else f)
        stages.append(Stage(p=len(triples), spacers=tuple(spacers)))
    return RankOneParams(basis=b, unit=b.symbol("one"), stages=tuple(stages))


@hs.composite
def _rational_spacer_params(draw):
    cuts = draw(hs.lists(hs.integers(2, 4), min_size=1, max_size=3).filter(_small))
    return _rational_params(
        [[draw(hs.tuples(_RATIONALS, _RATIONALS, _RATIONALS)) for _ in range(p + 1)]
         for p in cuts])


#: Denominators 2, 3 and 5 with negative coefficients (L = 30).
_MIXED_DENOMINATORS = _rational_params([
    [(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)), (0, 1, 0),
     (Fraction(-2, 5), Fraction(1, 2), 0)],
    [(0, Fraction(2, 3), Fraction(-1, 2)), (1, 0, Fraction(-3, 5)),
     (Fraction(1, 3), 0, 0), (0, 0, Fraction(1, 5))],
])


def _fraction_fold(params: RankOneParams) -> APPoly:
    q = APPoly.one(params.basis, exact=True)
    for k in range(params.n_stages):
        q = q * abs2_polynomial(params, k)
    return q


class TestIntegerProducts:
    """The integer-numerator fold against a fold by exact ``APPoly`` products."""

    @settings(max_examples=40)
    @example(params=_MIXED_DENOMINATORS)
    @given(params=hs.one_of(_fresh_symbol_params(), _rational_spacer_params()))
    def test_matches_fraction_fold(self, params):
        st = initial_state(params)
        for k in range(params.n_stages):
            st = extend(st, k)
        want = _fraction_fold(params)
        assert list(st.Q.terms) == list(want.terms)
        assert st.Q.terms == want.terms
        assert riesz_property_check(params, range(params.n_stages)) == 1

        for lam, c in want.terms.items():
            assert st.sigma_hat(lam) == SigmaHatValue(c.re, True)

        L = math.lcm(*(f.den for f in want.terms))
        last = params.basis.symbol(params.basis.names[-1])
        some = next(iter(want.terms))
        off = next(f for f in (g + last.scale(Fraction(1, L)) for g in want.terms)
                   if f not in want.terms)
        bad_den = some + params.unit.scale(Fraction(1, 7 * L))
        far = some + last.scale(2 ** 64)
        for lam in (off, bad_den, far):
            assert want.fourier_coeff(lam).is_zero()
            assert st.sigma_hat(lam) == SigmaHatValue(Fraction(0), False)


class TestDegreeBookkeeping:
    def test_report_holds_on_independent_params(self):
        params = make_independent_params([3, 4, 2], seed=9)
        rep = degree_report(params, [0, 1, 2])
        assert rep.all_hold
        assert rep.q_k == pytest.approx(sum(rep.degrees))

    def test_heights_double(self):
        params = make_independent_params([2, 2, 2], seed=1)
        rep = degree_report(params, [0, 1])
        hs = rep.heights
        for a, b in zip(hs, hs[1:]):
            assert a <= b / 2 + 1e-12


class TestIndependenceHypothesis:
    def test_fresh_symbols_independent(self):
        params = make_independent_params([3, 3], seed=2)
        assert validate_main_hypothesis(params, [0, 1]) == {0: True, 1: True}

    def test_shared_symbol_dependence_detected(self):
        b = SymbolBasis.make(("one", 1.0), ("s", 0.6))
        s, zero = b.symbol("s"), b.zero()
        params = RankOneParams(
            basis=b, unit=b.symbol("one"),
            stages=(Stage(p=3, spacers=(zero, s, s.scale(2), zero)),),
        )
        # spacers s and 2s are rationally dependent
        assert validate_main_hypothesis(params, [0]) == {0: False}

    def test_make_independent_reproducible(self):
        a = make_independent_params([4, 5], seed=7)
        b = make_independent_params([4, 5], seed=7)
        assert a.basis == b.basis
        assert a == b
