"""Rank-one flow parameters, heights, stage polynomials, partial products."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from bohrap import freqspace
from bohrap.criteria import (bourgain_scan, cs_subsequence_bound, guenais_sum,
                             kac_moment_identity)
from bohrap.errors import BasisMismatchError, SupportCapError, ValidationError
from bohrap.flatness import PolyFamilySpec
from bohrap.freqspace import Frequency, SymbolBasis
from bohrap.riesz import (RankOneParams, SigmaHatValue, Stage, _product_mean,
                          abs2_polynomial, build_polynomial, degree_report,
                          extend, heights, initial_state,
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

    def test_unit_over_other_basis(self):
        b = SymbolBasis.make(("one", 1.0))
        other = SymbolBasis.make(("one", 1.0), ("s", 0.5))
        with pytest.raises(BasisMismatchError):
            RankOneParams(basis=b, unit=other.symbol("one"), stages=())

    def test_spacer_over_other_basis(self):
        b = SymbolBasis.make(("one", 1.0))
        other = SymbolBasis.make(("one", 1.0), ("s", 0.5))
        st = Stage(p=2, spacers=(other.zero(), other.symbol("s"), other.zero()))
        with pytest.raises(BasisMismatchError):
            RankOneParams(basis=b, unit=b.symbol("one"), stages=(st,))

    def test_unit_must_be_one(self):
        b = SymbolBasis.make(("one", 1.0), ("s", 0.5))
        with pytest.raises(ValidationError):
            RankOneParams(basis=b, unit=b.symbol("s"), stages=())

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected(self, seed):
        # numpy refused -1 with its own ValueError and 1.5 with TypeError.
        with pytest.raises(ValidationError, match="seed"):
            make_independent_params([3], seed=seed)

    @pytest.mark.parametrize("call", [
        lambda p: make_independent_params([3.5]),
        lambda p: p.stage(1.0),
        lambda p: heights(p, 1.0),
        lambda p: PolyFamilySpec(kind="littlewood", n=2.5),
        lambda p: PolyFamilySpec(kind="prikhodko", n=4, m_n=1.5),
        lambda p: bourgain_scan(p, k_max=1.5),
        lambda p: bourgain_scan(p, window=1.5),
        lambda p: guenais_sum(p, 1.5),
        lambda p: cs_subsequence_bound(p, 1.5, [0]),
    ], ids=["cuts", "stage", "heights", "n", "m_n", "k_max", "window", "K",
            "full_n"])
    def test_non_integer_size_rejected(self, call):
        with pytest.raises(ValidationError, match="must be an integer"):
            call(_basic_params())

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
        # p_k |P_k|^2 counts p_k pairs (i, i) at zero, so the mean is 1.
        params = _basic_params()
        zero = params.basis.zero()
        for k in range(2):
            counts = abs2_polynomial(params, k)
            assert Fraction(counts[zero], params.stage(k).p) == 1

    def test_delta_mean_zero(self):
        # Delta_k = |P_k|^2 - 1: its zero count p_k - p_k vanishes, and the
        # other counts are the p_k^2 - p_k cross pairs.
        params = _basic_params()
        counts = dict(abs2_polynomial(params, 0))
        assert counts.pop(params.basis.zero()) - params.stage(0).p == 0
        assert sorted(counts.values()) == [1, 1]  # the two cross terms of p=2


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

    def test_product_mean_support_cap(self):
        # Stages 0 and 1 would multiply out to about 1.6e7 > 10^6 terms.
        params = make_independent_params([64] * 4, seed=1)
        with pytest.raises(SupportCapError):
            riesz_property_check(params, range(4))

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

    def test_sigma_hat_basis_mismatch(self):
        st = extend(initial_state(_basic_params()), 0)
        other = SymbolBasis.make(("one", 1.0))
        with pytest.raises(BasisMismatchError):
            st.sigma_hat(other.symbol("one"))

    def test_folded_mean_reads_one(self):
        # perfbench's riesz check reads the folded product's mean through
        # ``Q.mean().re``; the mean is exactly 1 and its imaginary part 0.
        params = make_independent_params([3, 4, 2, 5], seed=2)
        st = initial_state(params)
        for k in range(4):
            st = extend(st, k)
        m = st.Q.mean()
        assert m.re == 1 and m.im == 0
        assert isinstance(m.re, Fraction)

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


def _shared_params():
    """Stages whose spacers repeat one symbol, so exponent differences
    repeat: stage 0 has exponents 0, h_0, 2h_0 + s, 3h_0 + 2s."""
    b = SymbolBasis.make(("one", 1.0), ("s", math.sqrt(2)))
    zero, s = b.zero(), b.symbol("s")
    return RankOneParams(basis=b, unit=b.symbol("one"), stages=(
        Stage(p=4, spacers=(zero, s, s, s, zero)),
        Stage(p=3, spacers=(zero, s, s, s)),
    ))


def _abs2_by_products(params: RankOneParams, k: int) -> dict[Frequency, Fraction]:
    """|P_k|^2 by the per-pair loop over ``Fraction`` coefficients: each
    pair (i, j) of stage exponents adds 1/p_k at e_i - e_j."""
    exps = stage_exponents(params, k)
    w = Fraction(1, params.stage(k).p)
    out = {}
    for ei in exps:
        for ej in exps:
            d = ei - ej
            out[d] = out.get(d, 0) + w
    return out


def _fraction_fold(params: RankOneParams) -> dict[Frequency, Fraction]:
    """The product of every stage's |P_k|^2 by per-pair ``Fraction`` loops,
    in frequency order."""
    q = {params.basis.zero(): Fraction(1)}
    for k in range(params.n_stages):
        out = {}
        b = _abs2_by_products(params, k)
        for fa, ca in q.items():
            for fb, cb in b.items():
                f = fa + fb
                out[f] = out.get(f, 0) + ca * cb
        q = out
    return dict(sorted(q.items(), key=lambda kv: kv[0].sort_key()))


class TestAbs2Counts:
    """``abs2_polynomial`` pair counts against per-pair ``Fraction`` loops."""

    @pytest.mark.parametrize("params", [
        make_independent_params([3, 4, 2, 5], seed=3), _basic_params(),
        _shared_params(), _MIXED_DENOMINATORS],
        ids=["independent", "basic", "shared", "rational"])
    def test_matches_exact_products(self, params):
        for k in range(params.n_stages):
            got = abs2_polynomial(params, k)
            assert all(type(c) is int for c in got.values())
            p = params.stage(k).p
            assert [(f, Fraction(c, p)) for f, c in got.items()] == list(
                _abs2_by_products(params, k).items())

    def test_repeated_differences_add(self):
        # 2h_0 + s - h_0 and 3h_0 + 2s - (2h_0 + s) are both h_0 + s.
        params = _shared_params()
        lam = heights(params, 0) + params.basis.symbol("s")
        assert abs2_polynomial(params, 0)[lam] == 2


class TestIntegerProducts:
    """The integer-numerator fold against a fold by per-pair ``Fraction`` loops."""

    @settings(max_examples=40)
    @example(params=_MIXED_DENOMINATORS)
    @given(params=hs.one_of(_fresh_symbol_params(), _rational_spacer_params()))
    def test_matches_fraction_fold(self, params):
        st = initial_state(params)
        for k in range(params.n_stages):
            st = extend(st, k)
        want = _fraction_fold(params)
        assert list(st.sigma_hat_table().items()) == list(want.items())
        assert riesz_property_check(params, range(params.n_stages)) == 1
        assert st.Q.mean().re == want[params.basis.zero()] == 1

        for lam, c in want.items():
            assert st.sigma_hat(lam) == SigmaHatValue(c, True)

        L = math.lcm(*(f.den for f in want))
        last = params.basis.symbol(params.basis.names[-1])
        some = next(iter(want))
        off = next(f for f in (g + last.scale(Fraction(1, L)) for g in want)
                   if f not in want)
        bad_den = some + params.unit.scale(Fraction(1, 7 * L))
        far = some + last.scale(2 ** 64)
        for lam in (off, bad_den, far):
            assert lam not in want
            assert st.sigma_hat(lam) == SigmaHatValue(Fraction(0), False)


def _frequency_builds(fn) -> int:
    """The number of ``Frequency`` objects built while ``fn()`` runs: one
    per call of ``Frequency._make``, which ``Frequency()`` calls, and one
    per entry of each ``freqspace._frequencies`` result."""
    init, many = Frequency._make.__code__, freqspace._frequencies.__code__
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is init:
            built += 1
        elif event == "return" and frame.f_code is many:
            built += len(arg)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return built


def _fold_all(params: RankOneParams):
    st = initial_state(params)
    for k in range(params.n_stages):
        st = extend(st, k)
    return st


class TestNumeratorCounts:
    """Counts keyed by numerator tuples over ``RankOneParams.freq_den``;
    frequencies are built only where a caller reads them."""

    def test_folds_build_no_frequency(self):
        # Fresh parameters, so their cached heights are computed inside.
        params = make_independent_params([3, 4, 2, 5], seed=2)
        states = []
        assert _frequency_builds(lambda: states.append(_fold_all(params))) == 0
        params = make_independent_params([3, 4, 2, 5], seed=2)
        assert _frequency_builds(lambda: riesz_property_check(params, range(4))) == 0
        assert _frequency_builds(lambda: kac_moment_identity([2, 4])) == 0
        # The counter sees the keys built on read.
        st = states[0]
        assert _frequency_builds(st.sigma_hat_table) == len(st.nums) == 5733
        assert _frequency_builds(lambda: abs2_polynomial(params, 3)) == 21

    def test_one_denominator(self):
        params = _MIXED_DENOMINATORS
        assert params.freq_den == 30
        dens = [f.den for f in params.heights]
        dens += [f.den for k in range(params.n_stages)
                 for f in stage_exponents(params, k)]
        assert all(30 % d == 0 for d in dens) and max(dens) == 30

    def test_sigma_hat_rescales_to_one_denominator(self):
        # On the support sigma-hat reads the Fraction fold.  Denominators 7
        # and 60 do not divide 30: those frequencies are off the support
        # whatever their numerators.  A thirtieth of the unit divides it
        # and is still off the support.
        params = _MIXED_DENOMINATORS
        st, want = _fold_all(params), _fraction_fold(params)
        for lam, c in want.items():
            assert st.sigma_hat(lam) == SigmaHatValue(c, True)
        unit = params.unit
        for lam in [f + unit.scale(Fraction(1, q)) for f in want for q in (7, 60)] + [
                unit.scale(Fraction(1, 30))]:
            assert lam not in want
            assert st.sigma_hat(lam) == SigmaHatValue(Fraction(0), False)

    @pytest.mark.parametrize("params", [_MIXED_DENOMINATORS, _shared_params()],
                             ids=["rational", "shared"])
    def test_product_mean_is_zero_coefficient(self, params):
        zero = params.basis.zero()
        n = params.n_stages
        assert _product_mean(params, range(n)) == _fold_all(params).sigma_hat(zero).value
        assert _product_mean(params, range(n)) == _fraction_fold(params)[zero]
        # mean |P_0|^4 pairs each count of |P_0|^2 with the count at minus
        # its frequency.
        a = _abs2_by_products(params, 0)
        assert _product_mean(params, [0, 0]) == sum(c * a.get(-f, 0) for f, c in a.items())
        assert _product_mean(params, [0, 0]) > 1


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
