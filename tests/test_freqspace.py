"""Exact frequency arithmetic, rank computation and torus reduction."""

import copy
import math
import operator
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrap import freqspace
from bohrap.appoly import APPoly, _canonical
from bohrap.errors import BasisMismatchError, ValidationError
from bohrap.freqspace import (Frequency, SymbolBasis, is_rationally_independent,
                              mul_terms, rational_rank, torus_reduce)
from bohrap.riesz import (RankOneParams, Stage, _product_mean, abs2_polynomial,
                          extend, heights, initial_state, make_independent_params,
                          stage_exponents)

B3 = SymbolBasis.make(("a", 1.0), ("b", math.sqrt(2)), ("c", math.pi))

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
freqs3 = st.tuples(rationals, rationals, rationals).map(
    lambda t: Frequency(B3, t)
)


class TestBasisValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            SymbolBasis.make(("a", 1.0), ("a", 2.0))

    def test_zero_value_rejected(self):
        with pytest.raises(ValidationError):
            SymbolBasis.make(("a", 0.0))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            SymbolBasis(())

    def test_bad_name_rejected(self):
        with pytest.raises(ValidationError):
            SymbolBasis.make(("2x", 1.0))

    def test_tables_built_once(self):
        b = SymbolBasis.make(*[(f"s{i}", i + 1.0) for i in range(50)])
        assert b.values is b.values and b.names is b.names
        assert [b.index(name) for name in b.names] == list(range(50))
        with pytest.raises(ValidationError):
            b.index("t")
        # The tables take no part in equality, hashing or the repr.
        twin = SymbolBasis(b.symbols)
        assert twin == b and hash(twin) == hash(b)
        assert repr(b) == f"SymbolBasis(symbols={b.symbols!r})"


class TestFrequencyArithmetic:
    def test_symbol_and_index(self):
        f = B3.symbol("b")
        assert f.coeffs == (Fraction(0), Fraction(1), Fraction(0))
        assert B3.index("c") == 2

    def test_real_value(self):
        f = B3.frequency({"a": 2, "b": Fraction(1, 2)})
        assert f.real_value() == pytest.approx(2.0 + math.sqrt(2) / 2)

    def test_basis_mismatch(self):
        other = SymbolBasis.make(("a", 1.0))
        with pytest.raises(BasisMismatchError):
            B3.symbol("a") + other.symbol("a")

    @given(freqs3, freqs3)
    def test_add_commutes(self, f, g):
        assert f + g == g + f

    @given(freqs3)
    def test_sub_self_is_zero(self, f):
        assert (f - f).is_zero()

    @given(freqs3, st.integers(-5, 5))
    def test_scale_matches_repeated_add(self, f, n):
        acc = B3.zero()
        for _ in range(abs(n)):
            acc = acc + f
        if n < 0:
            acc = -acc
        assert f.scale(n) == acc

    @given(freqs3)
    def test_real_value_is_linear(self, f):
        assert (f + f).real_value() == pytest.approx(2 * f.real_value())


class TestIntegerRepresentation:
    """The integer-vector form agrees with componentwise Fraction arithmetic."""

    @given(freqs3, st.integers(1, 9))
    def test_equal_rationals_in_other_forms(self, f, k):
        # Each coefficient as an unreduced numerator over k * its denominator.
        other = Frequency(B3, tuple(
            f"{c.numerator * k}/{c.denominator * k}" for c in f.coeffs
        ))
        assert other == f
        assert hash(other) == hash(f)

    def test_half_written_twice(self):
        f = Frequency(B3, ("2/4", 0, Fraction(-6, 4)))
        g = Frequency(B3, (Fraction(1, 2), Fraction(0), "-3/2"))
        assert f == g and hash(f) == hash(g)
        assert f.den == 2 and f.num == (1, 0, -3)

    def test_make_reduces(self):
        f = Frequency._make(B3, (2, 0, -6), 4)
        assert (f.num, f.den) == ((1, 0, -3), 2)
        g = Frequency(B3, ("1/2", 0, "-3/2"))
        assert f == g and hash(f) == hash(g)
        assert Frequency._make(B3, (0, 0, 0), 5) == B3.zero()

    @given(freqs3)
    def test_pickle_and_copy(self, f):
        for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
            assert g == f and hash(g) == hash(f) and (g.num, g.den) == (f.num, f.den)

    @given(freqs3, freqs3)
    def test_add_sub_neg_match_fractions(self, f, g):
        assert (f + g).coeffs == tuple(a + b for a, b in zip(f.coeffs, g.coeffs))
        assert (f - g).coeffs == tuple(a - b for a, b in zip(f.coeffs, g.coeffs))
        assert (-f).coeffs == tuple(-a for a in f.coeffs)

    @given(freqs3, st.one_of(st.integers(-7, 7), rationals))
    def test_scale_matches_fractions(self, f, q):
        assert f.scale(q).coeffs == tuple(Fraction(q) * a for a in f.coeffs)

    @given(freqs3, freqs3)
    def test_results_stay_reduced(self, f, g):
        for h in (f + g, f - g, -f, f.scale(Fraction(2, 3))):
            assert h.den >= 1
            assert math.gcd(h.den, *h.num) == 1

    @given(st.lists(freqs3, min_size=2, max_size=8))
    def test_sort_key_matches_fraction_tuples(self, fs):
        by_key = sorted(fs, key=lambda f: f.sort_key())
        by_fractions = sorted(fs, key=lambda f: f.coeffs)
        assert [f.coeffs for f in by_key] == [f.coeffs for f in by_fractions]

    def test_sort_key_mixed_denominators(self):
        fs = [Frequency(B3, t) for t in [(1, 0, 0), ("1/2", 5, 0), ("1/2", "9/2", 0),
                                         (0, 0, 1), ("-1/3", 0, 0), (1, "-1/7", 0)]]
        by_key = [f.coeffs for f in sorted(fs, key=lambda f: f.sort_key())]
        assert by_key == sorted(f.coeffs for f in fs)

    @given(freqs3)
    def test_real_value_matches_fractions(self, f):
        want = float(sum(float(c) * v for c, v in zip(f.coeffs, B3.values)))
        assert f.real_value() == want

    def test_immutable(self):
        f = B3.symbol("a")
        for name, value in (("num", (0, 0, 0)), ("den", 2), ("basis", B3),
                            ("coeffs", ()), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(f, name, value)
        with pytest.raises(AttributeError):
            del f.num
        assert f == B3.symbol("a")

    @given(freqs3)
    def test_basis_mismatch_everywhere(self, f):
        other = SymbolBasis.make(("a", 1.0), ("b", math.sqrt(2)), ("d", math.e))
        g = Frequency(other, f.coeffs)
        assert g != f
        with pytest.raises(BasisMismatchError):
            f + g
        with pytest.raises(BasisMismatchError):
            f - g


class TestParsing:
    def test_canonical_form(self):
        f = B3.frequency({"a": Fraction(3, 2), "b": Fraction(-1, 4)})
        assert str(f) == "3/2*a + -1/4*b"
        assert Frequency.parse(str(f), B3) == f

    def test_zero(self):
        assert Frequency.parse("0", B3) == B3.zero()
        assert str(B3.zero()) == "0"

    def test_bare_names(self):
        assert Frequency.parse("a + -b", B3) == B3.symbol("a") - B3.symbol("b")

    def test_unknown_symbol(self):
        with pytest.raises(ValidationError):
            Frequency.parse("2*z", B3)

    def test_malformed(self):
        for text in ("", "++a", "1.5*a", "a b"):
            with pytest.raises(ValidationError):
                Frequency.parse(text, B3)

    def test_zero_denominator(self):
        for text in ("1/0*a", "a + 3/0*b", "0/0"):
            with pytest.raises(ValidationError):
                Frequency.parse(text, B3)

    @given(freqs3)
    def test_roundtrip(self, f):
        assert Frequency.parse(str(f), B3) == f


def fraction_rank(fs):
    """Reference rank: Gaussian elimination over Fractions."""
    rows = [list(f.coeffs) for f in fs]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            q = rows[r][c] / top[c]
            rows[r] = [a - q * b for a, b in zip(rows[r], top)]
        rank += 1
    return rank


class TestRank:
    def test_single_nonzero(self):
        assert rational_rank([B3.symbol("a")]) == 1

    def test_zero_frequency(self):
        assert rational_rank([B3.zero()]) == 0
        assert not is_rationally_independent([B3.zero()])

    def test_dependent_pair(self):
        f = B3.frequency({"a": 2, "b": 3})
        g = f.scale(Fraction(5, 7))
        assert rational_rank([f, g]) == 1
        assert not is_rationally_independent([f, g])

    def test_full_rank(self):
        fs = [B3.symbol(n) for n in ("a", "b", "c")]
        assert is_rationally_independent(fs)

    def test_sum_is_dependent(self):
        a, b = B3.symbol("a"), B3.symbol("b")
        assert rational_rank([a, b, a + b]) == 2

    @given(st.lists(freqs3, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_rank_bounds(self, fs):
        r = rational_rank(fs)
        assert 0 <= r <= min(len(fs), 3)

    @given(st.lists(freqs3, min_size=1, max_size=6),
           st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6),
                    max_size=3))
    @settings(max_examples=80)
    def test_rank_matches_fraction_elimination(self, fs, combos):
        # Up to six rows over three symbols, plus integer combinations of
        # them, so lists longer than the basis and rank-deficient lists.
        for ks in combos:
            acc = B3.zero()
            for k, f in zip(ks, fs):
                acc = acc + f.scale(k)
            fs = fs + [acc]
        assert rational_rank(fs) == fraction_rank(fs)

    def test_fixed_sets_match_fraction_elimination(self):
        a, b, c = (B3.symbol(n) for n in ("a", "b", "c"))
        assert rational_rank([a, b, a + b]) == fraction_rank([a, b, a + b]) == 2
        # Heights and spacers of every stage of four 16-cut stages: 64
        # frequencies over 65 symbols, with heights up to 16^3 times the unit.
        params = make_independent_params([16] * 4)
        fs = [f for m, st in enumerate(params.stages)
              for f in [heights(params, m)] + list(st.spacers[1:st.p])]
        assert len(fs) == 64
        assert rational_rank(fs) == fraction_rank(fs) == 64

    @given(st.lists(freqs3, min_size=1, max_size=4), rationals)
    @settings(max_examples=60)
    def test_rank_unchanged_by_scaling(self, fs, q):
        if q == 0:
            q = Fraction(1)
        scaled = [f.scale(q) for f in fs]
        assert rational_rank(scaled) == rational_rank(fs)


class TestTorusReduce:
    @given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), max_size=6))
    def test_echelon_keeps_pivots(self, rows):
        # Each pivot is its row's first nonzero column, positive, and the
        # entries above it lie in [0, pivot): the Hermite normal form.
        basis, pivots = freqspace._lattice_echelon(rows)
        assert len(basis) == len(pivots)
        assert pivots == sorted(set(pivots))
        for i, (row, c) in enumerate(zip(basis, pivots)):
            assert not any(row[:c]) and row[c] > 0
            assert all(0 <= basis[j][c] < row[c] for j in range(i))

    def test_reconstruction_exact(self):
        fs = [
            B3.frequency({"a": Fraction(3, 2), "b": 1}),
            B3.frequency({"a": Fraction(1, 2)}),
            B3.frequency({"a": 2, "b": 1}),
        ]
        red = torus_reduce(fs)
        assert red.dim == rational_rank(fs)
        for i, f in enumerate(fs):
            assert red.reconstruct(i) == f

    def test_reduced_basis_independent(self):
        fs = [B3.symbol("a") + B3.symbol("b"), B3.symbol("a").scale(2)]
        red = torus_reduce(fs)
        assert is_rationally_independent(list(red.reduced_basis))

    @given(st.lists(freqs3, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_roundtrip_property(self, fs):
        if all(f.is_zero() for f in fs):
            red = torus_reduce(fs)
            assert red.dim == 0
            return
        red = torus_reduce(fs)
        assert red.dim == rational_rank(fs)
        for i, f in enumerate(fs):
            assert red.reconstruct(i) == f


#: Code bounds of up to six coordinates: small ones, zeros (fields of no
#: bits) and ones past 2^64.
_code_bounds = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 300),
                                  st.integers(2 ** 60, 2 ** 70)),
                        min_size=1, max_size=6)


@st.composite
def _boxed_vectors(draw):
    """A code and vectors inside its box: two drawn by hypothesis, and 70
    drawn from a seeded generator, so the sorted reads order many codes."""
    bounds = draw(_code_bounds)
    box = st.tuples(*(st.integers(-w, w) for w in bounds))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    more = [tuple(rng.randint(-w, w) for w in bounds) for _ in range(70)]
    return freqspace.NumeratorCode(bounds), [draw(box), draw(box), *more]


class TestNumeratorCode:
    """The linear, order-preserving code of integer vectors in a box."""

    @settings(max_examples=80)
    @given(_boxed_vectors())
    def test_linear_and_negated(self, case):
        code, (u, v, *_) = case
        u_plus_v = tuple(map(operator.add, u, v))
        assert code.encode(u_plus_v) == code.encode(u) + code.encode(v)
        assert code.encode(tuple(map(operator.neg, v))) == -code.encode(v)
        assert code.encode((0,) * len(v)) == 0

    @settings(max_examples=80)
    @given(_boxed_vectors())
    def test_decode_inverts_encode(self, case):
        code, vecs = case
        assert all(map(code.contains, vecs))
        codes = list(map(code.encode, vecs))
        assert code.decode_many(codes) == vecs
        assert code.decode_many(codes[:2]) == vecs[:2]

    @settings(max_examples=80)
    @given(_boxed_vectors())
    def test_code_order_is_vector_order(self, case):
        code, vecs = case
        codes = list(map(code.encode, vecs))
        assert code.decode_many(sorted(codes)) == sorted(vecs)
        perm, got = code.decode_sorted(codes)
        assert [codes[i] for i in perm] == sorted(codes)
        assert got == sorted(vecs)
        perm, got = code.decode_sorted(codes[:2])
        assert got == sorted(vecs[:2])

    def test_aliases_outside_the_box(self):
        # Coordinate 1 has a 3-bit field, so 8 times its unit codes as the
        # unit of coordinate 0; coordinate 2 takes no bits at all.
        code = freqspace.NumeratorCode((5, 3, 0))
        assert code.encode((0, 8, 0)) == code.encode((1, 0, 0))
        assert code.encode((0, 0, 1)) == code.encode((0, 1, 0))
        assert code.contains((1, 0, 0)) and not code.contains((0, 8, 0))
        assert not code.contains((0, 0, 1)) and code.contains((-5, -3, 0))

    @pytest.mark.parametrize("bounds", [(), (1, -1)])
    def test_bounds_checked(self, bounds):
        with pytest.raises(ValidationError):
            freqspace.NumeratorCode(bounds)


# The per-pair loops that ``mul_terms`` replaced, kept as its reference.


def _loop_mul(a, b):
    """The per-pair product loop of two term dicts."""
    out = {}
    get = out.get
    for fa, ca in a.items():
        for fb, cb in b.items():
            f = fa + fb
            out[f] = get(f, 0) + ca * cb
    return out


def _loop_abs2_counts(params, k):
    """The pair-count loop of ``riesz.abs2_polynomial``."""
    exps = stage_exponents(params, k)
    counts = {}
    for ei in exps:
        for ej in exps:
            d = ei - ej
            counts[d] = counts.get(d, 0) + 1
    return counts


def _loop_poly_mul(p, q):
    """The product loop of ``APPoly.__mul__``."""
    if not p.terms or not q.terms:
        return APPoly.zero(p.basis)
    acc = {}
    for fa, ca in p.terms.items():
        for fb, cb in q.terms.items():
            f = fa + fb
            c = ca * cb
            if f in acc:
                acc[f] = acc[f] + c
            else:
                acc[f] = c
    return APPoly(p.basis, _canonical(acc))


def _loop_fold(params, ks):
    """Folds of the stages ``ks`` into {0: 1} by the reference loops, with
    the factors each fold multiplied."""
    a, folds = {params.basis.zero(): 1}, []
    for k in ks:
        b = _loop_abs2_counts(params, k)
        folds.append((a, b))
        a = _loop_mul(a, b)
    return a, folds


def _bits(p: APPoly):
    return [(f, c.real.hex(), c.imag.hex()) for f, c in p.terms.items()]


class TestMulTerms:
    """``mul_terms`` against the per-pair loops: the same items, values and
    insertion order."""

    @staticmethod
    def _check_folds(params, ks):
        want, folds = _loop_fold(params, ks)
        for k, (a, b) in zip(ks, folds):
            assert list(abs2_polynomial(params, k).items()) == list(b.items())
            assert list(mul_terms(a, b).items()) == list(_loop_mul(a, b).items())
        return want, folds

    def test_independent_stage_folds(self):
        params = make_independent_params([3, 4, 2, 5], seed=2)
        want, folds = self._check_folds(params, range(4))
        # Independent stages repeat no sum.
        assert all(len(_loop_mul(a, b)) == len(a) * len(b) for a, b in folds[1:])
        st = initial_state(params)
        for k in range(4):
            st = extend(st, k)
        assert list(st.counts.items()) == list(want.items())
        a, b = folds[-1]
        assert _product_mean(params, range(4)) == Fraction(
            sum(c * a.get(-f, 0) for f, c in b.items()), math.prod([3, 4, 2, 5]))

    def test_rational_spacers_over_shared_symbols(self):
        # Denominators 2, 3 and 6 over shared symbols: equal sums repeat.
        b = B3
        u, v, w = (Frequency(b, t) for t in (
            (Fraction(1, 2), Fraction(1, 3), 0), (0, 1, Fraction(1, 6)),
            (Fraction(1, 3), 0, Fraction(1, 2))))
        zero = b.zero()
        params = RankOneParams(basis=b, unit=b.symbol("a"), stages=(
            Stage(p=3, spacers=(zero, u, v, w)),
            Stage(p=4, spacers=(zero, u, u, v, w)),
            Stage(p=3, spacers=(zero, v, v, u)),
        ))
        want, folds = self._check_folds(params, range(3))
        assert any(len(_loop_mul(a, b)) < len(a) * len(b) for a, b in folds)
        assert any(f.den > 1 for f in want)

    def test_numerators_past_int64(self):
        # Heights of 2^k: the folds of stages 66-68 add 66- to 69-bit
        # numerators, and the count code's field for the unit is wider than
        # an int64.
        params = make_independent_params([2] * 70)
        want, folds = self._check_folds(params, range(62, 69))
        assert max(abs(x) for f in want for x in f.num).bit_length() == 69
        assert params.count_code.bounds[0].bit_length() > 64

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("top, int64", [
        (2 ** 62 - 1, True), (2 ** 62, False), (2 ** 62 + 1, False)])
    def test_int64_boundary(self, top, int64, sign, monkeypatch):
        # The largest numerator, top in magnitude, has one sign; the sum of
        # the two top rows is 2 * top in magnitude, which fits an int64
        # only in the first case.  mul_terms codes the pair sums in a box
        # whose first bound is that sum, on the edge of the box.
        ba = {Frequency(B3, (sign * (top - j), -sign * j, j % 3)): j + 1 for j in range(6)}
        bb = {Frequency(B3, (sign * (top - 2 * j), j, sign * (top - j))): 1 - j
              for j in range(7)}
        boxes, code = [], freqspace.NumeratorCode

        def recorded(bounds):
            boxes.append(code(bounds))
            return boxes[-1]

        monkeypatch.setattr(freqspace, "NumeratorCode", recorded)
        got = mul_terms(ba, bb)
        assert list(got.items()) == list(_loop_mul(ba, bb).items())
        [box] = boxes
        assert all(box.contains(f.num) for f in got)
        assert (box.bounds[0] < 2 ** 63) == int64
        assert max(abs(x) for f in got for x in f.num) == box.bounds[0] == 2 * top

    @pytest.mark.parametrize("entries", [None, 400])
    @pytest.mark.parametrize("n", [3, 40])
    def test_poly_products_bit_for_bit(self, n, entries, monkeypatch):
        # Frequencies on a small lattice of a and b, so many sums repeat.
        # Blocks of 400 pairs hold ten rows of a 40-term product, so a sum
        # repeats both within a block and across blocks.
        if entries:
            monkeypatch.setattr(freqspace, "_PAIR_ENTRIES", entries)
        rng = np.random.default_rng(n)
        grid = [Frequency(B3, (Fraction(int(i), 2), int(j), 0))
                for i, j in rng.integers(-4, 5, size=(n, 2))]
        coeffs = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
        p = APPoly.from_terms(B3, [(f, complex(*c)) for f, c in zip(grid, coeffs)])
        q = p.conj() + APPoly.character(B3.symbol("b"), -0.0 - 1.5j)
        for x, y in ((p, q), (q, p), (p, p)):
            got, want = x * y, _loop_poly_mul(x, y)
            assert _bits(got) == _bits(want)
            assert len(got) < len(x) * len(y)
        # The exact ring of mul_terms: Fraction coefficients.
        parts = rng.integers(-9, 10, size=(n, 2))
        pe = {f: Fraction(int(w), int(x) or 1) for f, (w, x) in zip(grid, parts)}
        qe = {-f: c for f, c in pe.items()}
        qe[B3.symbol("b")] = qe.get(B3.symbol("b"), 0) + Fraction(-3, 2)
        for x, y in ((pe, qe), (qe, pe)):
            got = mul_terms(x, y)
            assert list(got.items()) == list(_loop_mul(x, y).items())
            assert len(got) < len(x) * len(y)

    def test_empty_operand(self):
        some = {B3.symbol("a"): 2, B3.zero(): 1}
        assert mul_terms({}, some) == {} and mul_terms(some, {}) == {}
        p = APPoly.from_terms(B3, [(f, 1.0) for f in some])
        for x, y in ((APPoly.zero(B3), p), (p, APPoly.zero(B3))):
            assert x * y == _loop_poly_mul(x, y) == APPoly.zero(B3)

    def test_mixed_bases_raise(self):
        other = SymbolBasis.make(("a", 1.0), ("b", math.sqrt(2)), ("c", math.e))
        mine = {B3.symbol("a"): 1, B3.symbol("b"): 2}
        theirs = {other.symbol("a"): 1}
        for a, b in ((mine, theirs), (theirs, mine), ({**mine, **theirs}, mine)):
            with pytest.raises(BasisMismatchError):
                mul_terms(a, b)
        with pytest.raises(BasisMismatchError):
            APPoly.from_terms(B3, [(f, 1.0) for f in mine]) * APPoly.one(other)

    def test_fold_memory_is_blocked(self):
        # One fold of 63 x 63 pairs over 1101 symbols: 4,369,869 numerator
        # entries, 33.3 MiB as one int64 array.  Its tracemalloc peak was
        # 21.4 MiB (17.6 MiB of it the result) with numerator tuples in
        # blocks of _PAIR_ENTRIES, and 69.1 MiB as one unblocked pair array;
        # only the unit's field of the count code is wider than 0 bits.
        basis = SymbolBasis.make(("one", 1.0), *((f"z{j}", 2.0 + j) for j in range(1100)))
        zero = basis.zero()
        params = RankOneParams(basis=basis, unit=basis.symbol("one"), stages=tuple(
            Stage(p=32, spacers=(zero,) * 33) for _ in range(2)))
        st = extend(initial_state(params), 0)
        assert len(st.counts) * 63 * basis.size >= 1 << 22
        tracemalloc.start()
        try:
            st = extend(st, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(st.counts) == 2047
        assert peak < 32 * 2 ** 20

    def test_fold_chain_memory(self):
        # The folds of cuts 6,6,6 to 29,791 terms, count code included:
        # 10.5 MiB of tracemalloc peak with numerator tuple keys, 3.5 MiB
        # with int codes.
        params = make_independent_params([6, 6, 6], seed=1)
        tracemalloc.start()
        try:
            st = initial_state(params)
            for k in range(3):
                st = extend(st, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(st.codes) == 31 ** 3
        assert peak <= 6 * 2 ** 20
