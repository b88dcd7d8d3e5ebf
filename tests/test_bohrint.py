"""Integration engine: tensor exactness, Monte Carlo accuracy, real-line means."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bohrap import bohrint
from bohrap.appoly import APPoly
from bohrap.bohrint import (Budget, TorusEvaluator, _cis, _phase_space,
                            _signed_limbs, _tensor_values, bohr_integral,
                            bohr_integral_multi,
                            independent_phase_mean_abs,
                            interval_l1_distortion, mean_abs, real_line_mean,
                            unit_phase_sum)
from bohrap.errors import BudgetError, ValidationError
from bohrap.flatness import PolyFamilySpec, RealFreqPoly, build_family
from bohrap.freqspace import SymbolBasis
from bohrap.riesz import (abs2_polynomial, build_polynomial,
                          make_independent_params)

B = SymbolBasis.make(("a", 1.0), ("b", math.sqrt(2)), ("c", math.e))


def _two_char_poly():
    return APPoly.from_terms(
        B, [(B.zero(), 1.0), (B.symbol("a"), 1.0)]
    )


class TestBudgetValidation:
    def test_bad_method(self):
        with pytest.raises(ValidationError):
            Budget(method="simpson")

    def test_bad_samples(self):
        with pytest.raises(ValidationError):
            Budget(samples=0)

    def test_bad_nodes(self):
        for nodes in (0, -4):
            with pytest.raises(ValidationError):
                Budget(method="tensor", nodes=nodes)


class TestTensorQuadrature:
    def test_character_mean_is_zero(self):
        p = APPoly.character(B.symbol("a"))
        est = bohr_integral(lambda v: v, [p], Budget(method="tensor"))
        assert est.method == "tensor-quadrature"
        assert est.value == pytest.approx(0.0, abs=1e-14)

    def test_abs2_mean_exact(self):
        # mean |1 + e^{iat}|^2 = 2: a pure trigonometric integrand, so the
        # uniform grid is exact by discrete orthogonality.
        p = _two_char_poly()
        est = bohr_integral(lambda v: np.abs(v) ** 2, [p], Budget(method="tensor"))
        assert est.value == pytest.approx(2.0, abs=1e-12)
        assert est.refinement_delta < 1e-12

    def test_mean_abs_one_plus_character(self):
        # mean |1 + e^{iat}| = 4/pi
        est = mean_abs(_two_char_poly(), Budget(method="tensor", nodes=4096))
        assert est.value == pytest.approx(4 / math.pi, abs=1e-5)

    def test_constant_poly(self):
        p = APPoly.constant(B, 3.0)
        est = mean_abs(p)
        assert est.value == 3.0 and est.torus_dim == 0
        # Several constants and the zero polynomial: each functional is
        # evaluated once, exactly, on the one-point grid of the 0-torus.
        ps = [p, APPoly.constant(B, -0.5j), APPoly.zero(B)]
        e1, e2 = bohr_integral_multi(
            [lambda x, y, z: np.abs(x * y) + np.abs(z),
             lambda x, y, z: np.ones(np.shape(x))], ps)
        assert (e1.value, e2.value) == (1.5, 1.0)
        for e in (e1, e2):
            assert e.method == "tensor-quadrature"
            assert (e.nodes_or_samples, e.torus_dim, e.refinement_delta) == (1, 0, 0.0)

    def test_dim_cap(self):
        polys = [APPoly.character(B.symbol(n)) for n in ("a", "b", "c")]
        # 3 independent symbols -> dim 3; 512^3 nodes exceed the point cap
        with pytest.raises(BudgetError):
            bohr_integral(lambda x, y, z: np.abs(x * y * z), polys,
                          Budget(method="tensor", nodes=512))

    def test_each_integrand_called_once(self):
        # The refinement delta comes from the subgrid of the one evaluation.
        calls = []

        def g(v):
            calls.append(v.shape)
            return np.abs(v)

        est = mean_abs(_two_char_poly(), Budget(method="tensor", nodes=256))
        (got,) = bohr_integral_multi([g], [_two_char_poly()],
                                     Budget(method="tensor", nodes=256))
        assert calls == [(256,)]
        assert (got.value, got.refinement_delta) == (est.value, est.refinement_delta)
        assert got.refinement_delta > 0


def _meshgrid_sum(c, E, ns):
    """sum_t c_t exp(2 pi i sum_i e_ti k_i / n_i), one full grid per term;
    the phases are reduced exactly in Python ints."""
    ks = [k.astype(object) for k in np.meshgrid(*map(np.arange, ns), indexing="ij")]
    grid = np.zeros(tuple(ns), dtype=complex)
    for a, row in zip(c, E):
        turns = sum((((int(e) * k) % n) / n for e, k, n in zip(row, ks, ns)),
                    np.zeros(tuple(ns)))
        grid += a * np.exp(2j * np.pi * turns.astype(float))
    return grid


def _random_terms(T, d, rng, offset=0):
    c = rng.normal(size=T) + 1j * rng.normal(size=T)
    E = rng.integers(-40, 41, size=(T, d)).astype(object) + offset
    return c, E


class TestTensorGrid:
    """``_tensor_values`` against a term-by-term sum over the full grid."""

    @pytest.mark.parametrize("ns", [(), (5,), (3, 5), (5, 3, 8), (3, 5, 4, 3),
                                    (64,), (3, 64), (8, 8, 8)])
    @pytest.mark.parametrize("T", [0, 1, 5])
    @pytest.mark.parametrize("offset", [0, 2 ** 64 + 7, -(2 ** 70)],
                             ids=["small", "huge", "huge-negative"])
    def test_matches_meshgrid_sum(self, ns, T, offset):
        rng = np.random.default_rng(len(ns) * 10 + T)
        # A constant polynomial (zero torus dimension) has at most one term.
        c, E = _random_terms(T if ns else min(T, 1), len(ns), rng, offset)
        got = _tensor_values(c, E, list(ns))
        assert got.shape == ns and got.dtype == complex
        np.testing.assert_allclose(got, _meshgrid_sum(c, E, ns), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ns", [(2048,), (8, 16, 4)])
    def test_blocks_of_terms(self, monkeypatch, ns):
        # Tables of 2^9 entries split 40 terms into many blocks.
        monkeypatch.setattr(bohrint, "_TABLE_ENTRIES", 1 << 9)
        c, E = _random_terms(40, len(ns), np.random.default_rng(5))
        np.testing.assert_allclose(_tensor_values(c, E * 25, list(ns)),
                                   _meshgrid_sum(c, E * 25, ns), rtol=0, atol=1e-12)

    @staticmethod
    def _peak(c, E, ns):
        tracemalloc.start()
        try:
            grid = _tensor_values(c, E, ns)
            return tracemalloc.get_traced_memory()[1], grid
        finally:
            tracemalloc.stop()

    def test_grid_build_memory(self):
        # 5 terms over 3 coordinates on 2^18 points: the grid is written once,
        # next to per-axis tables, not built from one full grid per term.
        c, E = _random_terms(5, 3, np.random.default_rng(3))
        peak, grid = self._peak(c, E, [64, 64, 64])
        assert grid.size == 2 ** 18
        assert peak < 1.5 * grid.nbytes

    def test_many_terms_memory(self):
        # 6000 terms over 2^16 nodes: the tables of all terms at once would
        # take about 150 MB; a block of terms holds about 2^20 entries.
        c, E = _random_terms(6000, 1, np.random.default_rng(4))
        peak, _ = self._peak(c, E * 800, [1 << 16])
        assert peak < 64 * 2 ** 20


class TestMonteCarlo:
    def test_matches_tensor(self):
        p = _two_char_poly()
        t = mean_abs(p, Budget(method="tensor", nodes=4096))
        m = mean_abs(p, Budget(method="monte-carlo", samples=1 << 16, seed=3))
        assert m.method == "monte-carlo"
        assert abs(m.value - t.value) <= 4 * m.std_error

    def test_reproducible(self):
        p = _two_char_poly()
        b = Budget(method="monte-carlo", samples=1 << 14, seed=9)
        assert mean_abs(p, b).value == mean_abs(p, b).value

    def test_batch_layout_invariant(self):
        # The estimate depends on the seed only, not on the batch size.
        p = _two_char_poly()
        v1 = mean_abs(p, Budget(method="monte-carlo", samples=1 << 14,
                                seed=9, batch=1 << 14)).value
        v2 = mean_abs(p, Budget(method="monte-carlo", samples=1 << 14,
                                seed=9, batch=1 << 12)).value
        assert v1 != v2  # different stream layout is declared, not hidden

    def test_huge_exponents_supported(self):
        # Exponent magnitudes far past 2^54 must keep exact relations:
        # mean of e^{iMat} * conj(e^{iMat}) = 1 for M = 2^80 + 1.
        M = (1 << 80) + 1
        f = B.symbol("a").scale(M)
        p = APPoly.character(f)
        est = bohr_integral(
            lambda v: np.abs(v) ** 2, [p],
            Budget(method="monte-carlo", samples=1 << 12, seed=1),
        )
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_huge_exponent_uniformity(self):
        # The phase of a huge-frequency character must still be uniform:
        # mean of Re(e^{iMat}) is 0, and mean |1 + e^{iMat}| is 4/pi.
        M = (1 << 77) + 12345
        p = APPoly.from_terms(B, [(B.zero(), 1.0), (B.symbol("a").scale(M), 1.0)])
        est = bohr_integral(np.abs, [p],
                            Budget(method="monte-carlo", samples=1 << 16, seed=2))
        assert est.value == pytest.approx(4 / math.pi, abs=5 * est.std_error + 1e-3)

    def test_exponent_cap(self):
        # Lattice coordinates 1 and 2^140 on the same generator: the large
        # one exceeds the supported limb range.
        a = B.symbol("a")
        p = APPoly.from_terms(B, [(a, 1.0), (a.scale(1 << 140), 1.0)])
        with pytest.raises(BudgetError):
            bohr_integral(np.abs, [p], Budget(method="monte-carlo",
                                              samples=1 << 10))

    def test_signed_limbs_reconstruct_exponents(self):
        E = np.array([[0, 1, -1], [(1 << 100) + 12345, -(1 << 77) - 3, 1 << 26],
                      [-(1 << 26), (1 << 54) - 1, -(1 << 120)]], dtype=object)
        limbs = _signed_limbs(E)
        for L in limbs:
            assert np.all((L >= -(1 << 26)) & (L < 1 << 26))
        back = sum(L.astype(np.int64).astype(object) * (1 << (27 * i))
                   for i, L in enumerate(limbs))
        assert (back == E).all()

    def test_shared_samples_correlate(self):
        # With shared nodes, the estimate of g - g is exactly zero.
        p = _two_char_poly()
        e1, e2 = bohr_integral_multi(
            [np.abs, np.abs], [p],
            Budget(method="monte-carlo", samples=1 << 12, seed=4),
        )
        assert e1.value == e2.value

    def test_independence_model_mean(self):
        est = independent_phase_mean_abs(1, Budget(samples=1 << 10, seed=0))
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_independence_model_matches_batch_loop(self):
        # The shared Monte Carlo driver reproduces the dedicated batch loop
        # it replaced, bit for bit, over several batches.
        q, budget = 7, Budget(samples=5000, batch=1024, seed=13)
        n_batches = -(-budget.samples // budget.batch)
        total = n_batches * budget.batch
        s = s2 = 0.0
        for child in np.random.SeedSequence(budget.seed).spawn(n_batches):
            z = np.abs(unit_phase_sum(np.random.default_rng(child), q,
                                      budget.batch) * (1.0 / math.sqrt(q)))
            s += float(z.sum())
            s2 += float((z * z).sum())
        m = s / total
        est = independent_phase_mean_abs(q, budget)
        assert est.value == m
        assert est.std_error == math.sqrt(max(0.0, s2 / total - m * m) / total)
        assert (est.nodes_or_samples, est.torus_dim, est.seed) == (total, q, 13)

    def test_unit_phase_sum_matches_array_draw(self):
        # Row-at-a-time draws and sums equal one (q, n) draw summed over
        # axis 0, bit for bit.
        z = unit_phase_sum(np.random.default_rng(7), 16, 1000)
        theta = np.random.default_rng(7).random((16, 1000))
        assert np.array_equal(z, np.exp((2j * np.pi) * theta).sum(axis=0))

    def test_evaluator_grid_matches_direct_sum(self):
        # One level of midpoint coordinates reproduces the polynomial's
        # values at theta, for a one-dimensional torus.
        p = APPoly.from_terms(B, [(B.zero(), 0.5), (B.symbol("a"), 1.0),
                                  (B.symbol("a").scale(-3), 2j)])
        ev = TorusEvaluator.of([p])
        assert (ev.dim, ev.levels) == (1, 2)
        theta = (np.arange(64) + 0.5) / 64
        (vals,) = ev(64, [theta[None, :]])
        want = 0.5 + np.exp(2j * np.pi * theta) + 2j * np.exp(-6j * np.pi * theta)
        assert np.allclose(vals, want, atol=1e-13)


class TestIdentityCoordinates:
    """Independent frequencies over more than eight symbols: each distinct
    nonzero frequency is its own torus coordinate."""

    def test_one_frequency_one_coordinate(self):
        # The same P passed twice shares its coordinates, so the functional
        # is |P|^2 with mean 1; separate coordinates would give 1/16.
        p = build_polynomial(make_independent_params([16], seed=3), 0)
        (est,) = bohr_integral_multi(
            [lambda a, b: (a * b.conj()).real], [p, p],
            Budget(samples=1 << 14, seed=1))
        assert (est.method, est.torus_dim) == ("monte-carlo", 15)
        assert abs(est.value - 1.0) <= 5 * est.std_error

    def test_unit_rows(self):
        params = make_independent_params([16, 16], seed=2)
        polys = [build_polynomial(params, k) for k in (0, 1)]
        dim, (E0, E1) = _phase_space(polys)
        E = np.vstack([E0, E1])
        assert dim == 30
        # One zero row per stage, then one column per nonzero frequency.
        assert sorted(E.sum(axis=1).tolist()) == [0, 0] + [1] * 30
        assert E.sum(axis=0).tolist() == [1] * 30

    def test_colliding_frequencies_use_columns(self):
        # |P|^2 holds e_i - e_j, whose last symbol is e_i's: the certificate
        # fails and the active columns are the coordinates (limb path).
        params = make_independent_params([12], seed=4)
        p = build_polynomial(params, 0)
        q = abs2_polynomial(params, 0)
        ev = TorusEvaluator.of([p, q])
        assert (ev.dim, ev.levels) == (11, 2)
        (est,) = bohr_integral_multi([lambda a, b: (a * a.conj() * b).real],
                                     [p, q], Budget(samples=1 << 14, seed=6))
        assert est.torus_dim == 11
        want = float((q * q).mean().re)  # mean |P|^4 = 2 - 1/12
        assert want == pytest.approx(2 - 1 / 12, abs=1e-12)
        assert abs(est.value - want) <= 5 * est.std_error

    def test_unit_form_matches_direct_sum(self):
        params = make_independent_params([16, 8], seed=5)
        polys = [build_polynomial(params, 1), build_polynomial(params, 0),
                 APPoly.constant(params.basis, 0.5j)]
        dim, emats = _phase_space(polys)
        ev = TorusEvaluator(polys, dim, emats)
        assert (ev.dim, ev.levels) == (22, 1)
        x = np.random.default_rng(8).random((dim, 500))
        for p, E, vals in zip(polys, emats, ev(500, [x])):
            c = np.array(list(p.terms.values()), dtype=complex)
            want = c @ np.exp((2j * np.pi) * (E.astype(float) @ x))
            assert np.allclose(vals, want, rtol=0, atol=1e-12)

    def test_unit_form_matches_exp_to_1e14(self):
        params = make_independent_params([64, 32], seed=9)
        polys = [build_polynomial(params, k) for k in (0, 1)]
        dim, emats = _phase_space(polys)
        ev = TorusEvaluator(polys, dim, emats)
        assert (ev.dim, ev.levels) == (94, 1)
        x = np.random.default_rng(10).random((dim, 4096))
        for p, E, vals in zip(polys, emats, ev(4096, [x])):
            c = np.array(list(p.terms.values()), dtype=complex)
            want = c @ np.exp((2j * np.pi) * (E.astype(float) @ x))
            np.testing.assert_allclose(vals, want, rtol=0, atol=1e-14)

    def test_long_two_cut_stage_uses_grid(self):
        # Stage 139 of 140 two-cut stages is (1 + e^{i h t}) / sqrt(2) with
        # h over 281 symbols and coefficients near 2^139: one coordinate,
        # so a 64-point grid, with mean 2 sqrt(2) / pi.
        p = build_polynomial(make_independent_params([2] * 140), 139)
        est = mean_abs(p)
        assert (est.method, est.torus_dim) == ("tensor-quadrature", 1)
        want = 2 * math.sqrt(2) / math.pi
        assert abs(est.value - want) <= 3 * est.std_error + est.refinement_delta


class TestCis:
    """``_cis``, the unit-form kernel, against ``np.exp``."""

    @staticmethod
    def _check(x):
        z = _cis(x)
        assert z.shape == x.shape and z.dtype == complex
        np.testing.assert_allclose(z, np.exp((2j * np.pi) * x), rtol=0, atol=2e-15)
        assert np.abs(np.abs(z) - 1.0).max() <= 1e-15

    def test_table_boundaries(self):
        # Every multiple of 2^-10 and 2^-20 with the doubles on either side,
        # where a table index steps and the remainder restarts at 0.
        self._check(np.array([0.0, 2.0 ** -53, 1.0 - 2.0 ** -53, 1.0]))
        for grid in (np.arange(2 ** 10 + 1) / 2 ** 10, np.arange(2 ** 20 + 1) / 2 ** 20):
            self._check(grid)
            self._check(np.nextafter(grid[1:], 0.0))
            self._check(np.nextafter(grid[:-1], 1.0))

    def test_random_points(self):
        self._check(np.random.default_rng(11).random(10 ** 6))

    def test_column_slices_bit_identical(self):
        # ``ultraflat_deviation`` evaluates column slices of its points.
        x = np.random.default_rng(12).random((7, 40000))
        z = _cis(x)
        for lo, hi in ((0, 1), (1, 16385), (16385, 40000), (123, 9000)):
            assert np.array_equal(_cis(x[:, lo:hi]), z[:, lo:hi])
        assert np.array_equal(_cis(x[3]), z[3])


class TestRealLine:
    def test_cesaro_mean_obeys_envelope(self):
        # (1/2T) int of e^{iwt} over [-T, T] is sin(wT)/(wT), so the error
        # sits inside the 1/(wT) envelope (it oscillates, not decays).
        w = math.sqrt(2)
        p = APPoly.from_terms(B, [(B.zero(), 0.75), (B.symbol("b"), 1.0)])
        for T in (100.0, 1000.0):
            err = abs(real_line_mean(p, T) - 0.75)
            assert err <= 1.0 / (w * T) + 1e-9

    def test_float_frequency_poly_matches_appoly(self):
        # Panels are sized from the degree for both polynomial types; the
        # exact value is sin(1000)/1000.
        b = SymbolBasis.make(("w", 100.0))
        exact = real_line_mean(APPoly.character(b.symbol("w")), 10.0)
        floating = real_line_mean(RealFreqPoly([100.0], [1.0]), 10.0)
        assert floating == pytest.approx(exact, abs=1e-12)
        assert floating == pytest.approx(math.sin(1000.0) / 1000.0, abs=1e-12)

    def test_bad_T(self):
        with pytest.raises(ValidationError):
            real_line_mean(APPoly.one(B), 0.0)

    def test_interval_distortion_of_character(self):
        p = APPoly.character(B.symbol("a"))
        r = interval_l1_distortion(p, 1.0, 2.0)
        assert r.value == pytest.approx(0.0, abs=1e-12)

    def test_interval_distortion_known_value(self):
        # |1 + e^{it}|^2 - 1 = 1 + 2 cos t; mean of |1 + 2cos t| over a
        # full period is (pi + 6 sqrt(3)) / (3 pi) by direct calculus.
        p = _two_char_poly()
        r = interval_l1_distortion(p, 0.0, 2 * math.pi, rel_tol=1e-9)
        want = (math.pi + 6 * math.sqrt(3)) / (3 * math.pi)
        assert r.value == pytest.approx(want, rel=1e-6)

    def test_interval_distortion_memory(self):
        # Real-line evaluation holds O(points) memory, not points x terms.
        p = build_family(PolyFamilySpec(kind="prikhodko", n=256, m_n=4,
                                        eps_n=Fraction(1, 4)))
        tracemalloc.start()
        try:
            interval_l1_distortion(p, 1.0, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_interval_distortion_evaluates_each_node_once(self):
        # Doubling adds only the new midpoints to the node sum.
        p = _two_char_poly()
        counts = []

        class Counting:
            def eval_real(self, x):
                counts.append(len(x))
                return p.eval_real(x)

        r = interval_l1_distortion(Counting(), 0.0, 2 * math.pi, rel_tol=1e-9)
        assert sum(counts) == r.nodes
        assert counts[1:] == [1024 << j for j in range(len(counts) - 1)]

    def test_bad_interval(self):
        with pytest.raises(ValidationError):
            interval_l1_distortion(APPoly.one(B), 2.0, 1.0)
        with pytest.raises(ValidationError):
            interval_l1_distortion(APPoly.one(B), 1.0, math.inf)
