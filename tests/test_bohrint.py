"""Integration engine: tensor exactness, Monte Carlo accuracy, real-line means."""

import json
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bohrap import bohrint, flatness
from bohrap.appoly import APPoly
from bohrap.bohrint import (MC_BATCH, Budget, TorusEvaluator, _affine, _cis,
                            _coefficients, _exponent_rows, _phase_space,
                            _signed_limbs, _tensor_values, bohr_integral,
                            bohr_integral_multi,
                            interval_l1_distortion, mean_abs, real_line_mean)
from bohrap.errors import BasisMismatchError, BudgetError, ValidationError
from bohrap.flatness import PolyFamilySpec, build_family, ultraflat
from bohrap.freqspace import Frequency, SymbolBasis, rational_rank, torus_reduce
from bohrap.riesz import (RankOneParams, Stage, abs2_polynomial,
                          build_polynomial, make_independent_params)

B = SymbolBasis.make(("a", 1.0), ("b", math.sqrt(2)), ("c", math.e))


def _abs2_float(params, k):
    """|P_k|^2 as a float ``APPoly``: the pair counts over p_k."""
    p = params.stage(k).p
    return APPoly.from_terms(params.basis, [
        (f, c / p) for f, c in abs2_polynomial(params, k).items()])


def _evaluator(polys):
    """The evaluator of ``polys`` on their reduced phase space."""
    return TorusEvaluator(_coefficients(polys), *_phase_space(polys))


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
        # A one-node grid read P(0) as an exact mean, with std_error and
        # refinement_delta 0.
        for nodes in (0, 1, -4):
            with pytest.raises(ValidationError):
                Budget(method="tensor", nodes=nodes)

    @pytest.mark.parametrize("field, value", [
        ("samples", True), ("nodes", True), ("seed", True), ("seed", False)],
        ids=str)
    def test_boolean_sizes_refused(self, field, value):
        # Budget(samples=True, seed=True) ran 1 sample with seed 1.
        with pytest.raises(ValidationError, match=field):
            Budget(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed(self, seed):
        # Refused when the budget is made, not by numpy inside a batch.
        with pytest.raises(ValidationError, match="seed"):
            mean_abs(_two_char_poly(),
                     Budget(samples=1000, method="monte-carlo", seed=seed))

    def test_numpy_integer_seed(self):
        assert Budget(seed=np.uint32(7)).seed == 7

    @pytest.mark.parametrize("field, value", [("samples", 1e5), ("samples", 2.5),
                                              ("nodes", 64.0)], ids=str)
    def test_float_sizes_refused(self, field, value):
        # samples=1e5 raised a TypeError inside a batch, samples=2.5 ran
        # 16384 samples, and nodes=64.0 raised an AttributeError.
        with pytest.raises(ValidationError, match=field):
            mean_abs(_two_char_poly(), Budget(**{field: value}))

    def test_numpy_integer_sizes(self):
        # Kept as Python ints: a numpy node count had no ``bit_length`` for
        # the grid layout, and a numpy seed did not serialize.
        budget = Budget(samples=np.int64(4096), nodes=np.uint16(64), seed=np.int32(3))
        assert all(type(v) is int for v in (budget.samples, budget.nodes, budget.seed))
        est = mean_abs(_two_char_poly(), budget)
        assert est.nodes_or_samples == 64
        est = mean_abs(_two_char_poly(), replace(budget, method="monte-carlo"))
        assert json.loads(json.dumps(est.to_json()))["seed"] == 3


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

    def test_tensor_dim_cap(self):
        # Five independent symbols give a 5-dimensional torus, whose
        # automatic grid of 64^5 points is past the point cap.
        basis = SymbolBasis.make(*[(f"x{j}", j + 1.5) for j in range(5)])
        p = APPoly.from_terms(basis, [(basis.symbol(n), 1.0) for n in basis.names])
        with pytest.raises(BudgetError, match=f"grid of {64 ** 5} points exceeds the cap"):
            mean_abs(p, Budget(method="tensor"))

    def test_explicit_nodes_admit_five_coordinates(self):
        # 8^5 = 2^15 points are within the cap on any number of coordinates,
        # and mean |sum of five independent characters|^2 = 5 exactly.
        basis = SymbolBasis.make(*[(f"x{j}", j + 1.5) for j in range(5)])
        p = APPoly.from_terms(basis, [(basis.symbol(n), 1.0) for n in basis.names])
        est = bohr_integral(lambda v: np.abs(v) ** 2, [p],
                            Budget(method="tensor", nodes=8))
        assert (est.method, est.torus_dim, est.nodes_or_samples) == (
            "tensor-quadrature", 5, 8 ** 5)
        assert est.value == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("dim, method", [(3, "tensor-quadrature"),
                                             (4, "monte-carlo")])
    def test_auto_grid_holds_three_coordinates(self, dim, method):
        # Every automatic axis has at least 64 nodes: 64^3 = 2^18 points
        # are within the 2^22 cap, 64^4 = 2^24 are not.
        basis = SymbolBasis.make(*[(f"x{j}", j + 1.5) for j in range(dim)])
        p = APPoly.from_terms(basis, [(basis.symbol(n), 1.0) for n in basis.names])
        est = mean_abs(p, Budget())
        assert (est.method, est.torus_dim) == (method, dim)

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
        monkeypatch.setattr(bohrint, "_STEP_PHASES", 1 << 9)
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


B4 = SymbolBasis.make(("a", 1.0), ("b", math.sqrt(2)), ("c", math.e),
                      ("d", math.pi))


def _random_polys(d, rng, count=3, terms=5):
    """Polynomials whose frequencies span the first d symbols of B4, so
    their torus has dimension d (0 gives constants)."""
    syms = [B4.symbol(n) for n in B4.names[:d]]
    polys = []
    for _ in range(count):
        items = [(B4.zero(), complex(rng.normal(), rng.normal()))]
        items += [(s, 1.0) for s in syms]
        for _ in range(terms if d else 0):
            f = B4.zero()
            for s in syms:
                f = f + s.scale(int(rng.integers(-9, 10)))
            items.append((f, complex(rng.normal(), rng.normal())))
        polys.append(APPoly.from_terms(B4, items))
    return polys


class TestTensorChunks:
    """``_tensor`` walks the grid in units of whole rows, at most
    2 MC_BATCH points or else one row."""

    GS = [lambda x, y, z: np.abs(x) * np.abs(y) ** 2 * np.abs(z) ** 3,
          lambda x, y, z: np.abs(x * np.conj(z) + y)]

    @staticmethod
    def _check(monkeypatch, ns, rel):
        """Unit-walk means against means of whole grids and their subgrids."""
        polys = _random_polys(len(ns), np.random.default_rng(len(ns)))
        monkeypatch.setattr(bohrint, "_grid_sizes", lambda emats, dim, nodes: list(ns))
        ests = bohr_integral_multi(TestTensorChunks.GS, polys, Budget(method="tensor"))
        dim, emats = _phase_space(polys)
        assert dim == len(ns)
        grids = [_tensor_values(c, E, list(ns))
                 for c, E in zip(_coefficients(polys), _exponent_rows(dim, emats))]
        half = tuple(slice(None, None, 2) for _ in ns)
        for g, est in zip(TestTensorChunks.GS, ests):
            y = g(*grids)
            value = float(np.mean(y).real)
            delta = abs(value - float(np.mean(y[half]).real))
            tol = rel * max(1.0, abs(value))
            assert est.nodes_or_samples == math.prod(ns)
            assert est.value == pytest.approx(value, rel=0, abs=tol)
            assert est.refinement_delta == pytest.approx(delta, rel=0, abs=tol)

    @pytest.mark.parametrize("ns", [(), (5,), (7,), (5, 5), (7, 7), (12,),
                                    (64,), (2048,), (4, 256, 256),
                                    (6, 10, 4, 12)], ids=str)
    def test_chunked_means_equal_whole_grid(self, monkeypatch, ns):
        # (12,) has rows of 3 points, so the subgrid parity alternates
        # between rows; (4, 256, 256) has axis-0 planes of 2^16 points.
        self._check(monkeypatch, ns, 1e-15)

    def test_row_longer_than_batch(self, monkeypatch):
        # 20001 nodes on one axis are one row and one unit; its sums over
        # 10^4 nodes of one parity agree to 1e-13.
        self._check(monkeypatch, (20001,), 1e-13)

    def test_bounded_chunks_and_memory(self):
        # Three polynomials on a 2^21-point grid: whole grids and integrand
        # temporaries of 32 MB each peaked at 144 MB under tracemalloc;
        # units of 2 MC_BATCH points peak at 6.8 MB on one thread and
        # 8.6-9.1 MB on two.
        a, b, c = (B.symbol(n) for n in ("a", "b", "c"))
        polys = [APPoly.from_terms(B, [(B.zero(), 1.0), (a, 1.0), (b, 1.0),
                                       (c, 1.0), (f.scale(40), 0.5)])
                 for f in (a, b, c)]
        sizes = []

        def g(*vals):
            sizes.append(vals[0].size)
            return np.abs(vals[0] * vals[1] * vals[2])

        tracemalloc.start()
        try:
            (est,) = bohr_integral_multi([g], polys, Budget(method="tensor"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.nodes_or_samples == 1 << 21
        assert sum(sizes) == 1 << 21 and max(sizes) <= 2 * MC_BATCH
        assert peak < 16 * 2 ** 20

    def test_many_terms_keep_one_grid(self, monkeypatch):
        # 6001 terms over 2^16 nodes: the factors of every block of terms at
        # once hold 6001 x 512 entries (49 MB), 48 times the grid, so the
        # grid is built once, one block of 85 terms at a time, and sliced.
        monkeypatch.setattr(bohrint, "_STEP_PHASES", 1 << 16)
        a = B.symbol("a")
        rng = np.random.default_rng(4)
        p = APPoly.from_terms(B, [(a, 1.0)] + [
            (a.scale(5 * j), complex(rng.normal(), rng.normal()))
            for j in range(1, 6001)])
        tracemalloc.start()
        try:
            (est,) = bohr_integral_multi([np.abs], [p], Budget(method="tensor"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.nodes_or_samples == 1 << 16
        assert peak < 8 * 2 ** 20


class TestMonteCarlo:
    def test_matches_tensor(self):
        p = _two_char_poly()
        t = mean_abs(p, Budget(method="tensor", nodes=4096))
        m = mean_abs(p, Budget(method="monte-carlo", samples=1 << 16, seed=3))
        assert m.method == "monte-carlo"
        assert abs(m.value - t.value) <= 4 * m.std_error

    @pytest.mark.parametrize("budget", [
        Budget(method="monte-carlo", samples=1 << 16), Budget(method="tensor")],
        ids=["monte-carlo", "tensor"])
    @pytest.mark.parametrize("g", [
        lambda v: 1.0, lambda v: np.abs(v)[:, None], lambda v: np.abs(v[::2])],
        ids=["scalar", "column", "half"])
    def test_non_pointwise_integrand_refused(self, budget, g):
        with pytest.raises(ValidationError, match="integrand returned shape"):
            bohr_integral(g, [APPoly.character(B.symbol("a"))], budget)

    def test_reproducible(self):
        p = _two_char_poly()
        b = Budget(method="monte-carlo", samples=1 << 14, seed=9)
        assert mean_abs(p, b).value == mean_abs(p, b).value

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

    def test_constant_under_monte_carlo(self):
        # No coordinate to draw: each of the n points holds the constant.
        est = mean_abs(APPoly.constant(B, -2.0),
                       Budget(method="monte-carlo", samples=1 << 12, seed=3))
        assert (est.value, est.std_error) == (2.0, 0.0)
        assert (est.nodes_or_samples, est.torus_dim) == (MC_BATCH, 0)

    def test_limb_form_memory_bounded(self):
        # |P_0|^2 of a 32-cut stage has 993 terms over 31 columns (limb
        # form).  A batch of 2^14 points held 993 x 2^14 phases at once
        # (506 MB); column slices of 2^18 / 993 points hold about 2^18.
        params = make_independent_params([32], seed=1)
        q = _abs2_float(params, 0)
        assert len(q) == 993 and _evaluator([q]).levels == 2
        tracemalloc.start()
        try:
            est = bohr_integral(lambda v: v.real, [q],
                                Budget(samples=MC_BATCH, seed=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert (est.method, est.nodes_or_samples) == ("monte-carlo", MC_BATCH)
        assert abs(est.value - 1.0) <= 5 * est.std_error  # mean |P_0|^2 = 1

    def test_many_batches_seeded_as_they_start(self):
        # 2^30 samples are 65,536 batches, and the NaN of batch 0 ends the
        # call.  Each batch makes its own child seed when it starts: with a
        # list of all 65,536 children the call peaked at 28.4 MB under
        # tracemalloc, and at 4.5 MB without.
        p = APPoly.character(B.symbol("a"))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="non-finite"):
                bohr_integral(lambda v: v.real * np.nan, [p], Budget(
                    method="monte-carlo", samples=1 << 30, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_shared_samples_correlate(self):
        # With shared nodes, the estimate of g - g is exactly zero.
        p = _two_char_poly()
        e1, e2 = bohr_integral_multi(
            [np.abs, np.abs], [p],
            Budget(method="monte-carlo", samples=1 << 12, seed=4),
        )
        assert e1.value == e2.value

    def test_phases_match_exp_sum(self):
        # Both phase paths through ``_cis`` stay within 1e-13 of an
        # ``np.exp`` sum.  A limb phase just below 0 wraps to 1.0 under
        # np.mod, the last entry of the root tables.
        rng = np.random.default_rng(8)
        kac = TorusEvaluator([np.ones(16, dtype=complex)], 16, [np.arange(16)])
        (z,) = kac.sample(rng, 1000)
        theta = np.random.default_rng(8).random((16, 1000))
        np.testing.assert_allclose(
            z, np.exp((2j * np.pi) * theta).sum(axis=0), rtol=0, atol=1e-13)
        p = APPoly.from_terms(B, [(B.zero(), 0.5), (B.symbol("a"), 1.0),
                                  (B.symbol("a").scale(-1), 2j)])
        ev = _evaluator([p])
        assert ev.levels == 2  # the exponent -1 takes the limb path
        x = np.concatenate([rng.random(999), [2.0 ** -60]])
        assert np.mod(-x[-1], 1.0) == 1.0
        (vals,) = ev([x[None, :], np.zeros((1, x.size))])
        want = 0.5 + np.exp(2j * np.pi * x) + 2j * np.exp(-2j * np.pi * x)
        np.testing.assert_allclose(vals, want, rtol=0, atol=1e-13)

    def test_evaluator_grid_matches_direct_sum(self):
        # One level of midpoint coordinates reproduces the polynomial's
        # values at theta, for a one-dimensional torus.
        p = APPoly.from_terms(B, [(B.zero(), 0.5), (B.symbol("a"), 1.0),
                                  (B.symbol("a").scale(-3), 2j)])
        ev = _evaluator([p])
        assert (ev.dim, ev.levels) == (1, 2)
        theta = (np.arange(64) + 0.5) / 64
        (vals,) = ev([theta[None, :]])
        want = 0.5 + np.exp(2j * np.pi * theta) + 2j * np.exp(-6j * np.pi * theta)
        assert np.allclose(vals, want, atol=1e-13)


def _kac_stage(p=128):
    """Stage 0 of a p-cut independent family: p - 1 unit-form coordinates."""
    return build_polynomial(make_independent_params([p], seed=1), 0)


def _dependent_huge():
    """Three differences over two symbols, exponents past 2^53: limb form."""
    a, b = B.symbol("a"), B.symbol("b")
    N = (1 << 60) + 1
    return APPoly.from_terms(B, [(a, 1.0), (a.scale(N), 1.0),
                                 (a.scale(N) + b, 0.5), (a.scale(2 * N) + b, 0.5)])


def _shared_integrands():
    params = make_independent_params([16, 8], seed=5)
    polys = [build_polynomial(params, 0), build_polynomial(params, 1)]
    gs = [lambda u, v: np.abs(u) * np.abs(v), lambda u, v: np.abs(u) ** 2,
          lambda u, v: np.abs(v) ** 4]
    return gs, polys, Budget(samples=5 * MC_BATCH, seed=8)


def _call_with_deadline(fn, seconds=120):
    """fn() on a daemon thread; fails instead of hanging on a deadlock."""
    box = {}
    t = threading.Thread(target=lambda: box.update(out=fn()), daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), "Monte Carlo call did not finish"
    return box["out"]


def _helpers_alive():
    return any(t.name == "bohrap-mc" for t in threading.enumerate())


class TestThreadedBatches:
    """Monte Carlo batches and tensor units on the calling thread and helper
    threads."""

    @pytest.mark.parametrize("case", ["unit-127", "limb-huge", "shared-3",
                                      "tensor-300", "complex-300", (300, 300),
                                      (20002,), (64, 64, 64)], ids=str)
    def test_bit_identical_for_any_worker_count(self, monkeypatch, case):
        names = set()

        def seen(g):
            def h(*vals):
                names.add(threading.current_thread().name)
                return g(*vals)
            return h

        if case == "unit-127":
            p = _kac_stage()
            assert _evaluator([p]).dim == 127
            run = lambda: [bohr_integral(seen(np.abs), [p],
                                         Budget(samples=1 << 16, seed=5))]
        elif case == "limb-huge":
            p = _dependent_huge()
            ev = _evaluator([p])
            assert ev._unit is None and ev.max_exponent > 1 << 53
            run = lambda: [bohr_integral(seen(np.abs), [p], Budget(
                method="monte-carlo", samples=1 << 16, seed=6))]
        elif case == "shared-3":
            gs, polys, budget = _shared_integrands()
            run = lambda: bohr_integral_multi([seen(g) for g in gs], polys, budget)
        else:
            # Tensor grids: 300 x 300 nodes, whose rows hold no power of
            # two, are units of 109 rows and a last one of 82; tensor-300
            # and complex-300 reach that grid from nodes=300, and
            # complex-300 takes it through a product of complex
            # temporaries, which numpy computes in place once they hold
            # 256 KiB.  Tuples fix the grid: 20002 nodes are two rows of
            # 10001 in one unit, which runs inline, and 64^3 nodes eight
            # units of 2^15 points.
            ns = case if isinstance(case, tuple) else (300, 300)
            gs = (TestTensorChunks.GS[1:] if case == "complex-300" else
                  TestTensorChunks.GS[:1] + [lambda x, y, z: np.abs(y + z) ** 3])
            polys = _random_polys(len(ns), np.random.default_rng(9))
            if isinstance(case, tuple):
                monkeypatch.setattr(bohrint, "_grid_sizes",
                                    lambda emats, dim, nodes: list(ns))
                budget = Budget(method="tensor")
            else:
                budget = Budget(method="tensor", nodes=300)
                assert bohrint._grid_sizes(_phase_space(polys)[1], 2, 300) == [300, 300]
            run = lambda: bohr_integral_multi([seen(g) for g in gs], polys, budget)
        got = {}
        for w in (1, 2, 4):
            monkeypatch.setattr(bohrint, "_workers", lambda w=w: w)
            names.clear()
            got[w] = run()
            assert ("bohrap-mc" in names) == (w > 1 and case != (20002,))
            assert not _helpers_alive()
        assert got[1] == got[2] == got[4]
        mc = case in ("unit-127", "limb-huge", "shared-3")
        assert got[1][0].method == ("monte-carlo" if mc else "tensor-quadrature")

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_failure_in_one_batch_reaches_caller(self, monkeypatch, workers):
        # P = e^{ia} takes the value _cis(x) at the first draw x of batch 3,
        # and nowhere else among the 8 batches.
        monkeypatch.setattr(bohrint, "_workers", lambda: workers)
        p = APPoly.character(B.symbol("a"))
        budget = Budget(method="monte-carlo", samples=8 * MC_BATCH, seed=12)
        child = np.random.SeedSequence(budget.seed).spawn(8)[3]
        mark = _cis(np.random.default_rng(child).random(1))[0]

        def g(v):
            y = np.abs(v)
            return y * np.nan if v[0] == mark else y

        with pytest.raises(ValidationError):
            bohr_integral(g, [p], budget)
        assert not _helpers_alive()
        est = bohr_integral(np.abs, [p], budget)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_failure_in_one_tensor_chunk_reaches_caller(self, monkeypatch, workers):
        # P = e^{ia} on 2^17 nodes: rows of 256 nodes, four units of 2^15
        # points.  Only the last unit holds phases in (-0.01, 0).
        monkeypatch.setattr(bohrint, "_workers", lambda: workers)
        p = APPoly.character(B.symbol("a"))
        budget = Budget(method="tensor", nodes=1 << 17)
        units = []

        def g(v):
            units.append(v.size)
            y = np.abs(v)
            y[(np.angle(v) > -0.01) & (np.angle(v) < 0)] = np.nan
            return y

        with pytest.raises(ValidationError):
            bohr_integral(g, [p], budget)
        assert units == [2 * MC_BATCH] * 4
        assert not _helpers_alive()
        est = bohr_integral(np.abs, [p], budget)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_lowest_failed_batch_is_raised(self, monkeypatch):
        # Batches 9, 10 and 37 of 64 fail with different errors.  With more
        # workers than CPUs and thread switches forced often, the caller
        # gets batch 9's, as from a loop, after batches 0-8 ran; without a
        # failure every slot holds its own batch's result.
        def run(b):
            ran.add(b)
            if b in (9, 10, 37):
                raise ValueError(b)
            return b * b

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 8):
                monkeypatch.setattr(bohrint, "_workers", lambda w=workers: w)
                for _ in range(20):
                    ran = set()
                    with pytest.raises(ValueError) as info:
                        bohrint._run_batches(run, 64)
                    assert info.value.args == (9,) and set(range(10)) <= ran
                    assert (bohrint._run_batches(lambda b: b * b, 64)
                            == [b * b for b in range(64)])
                    assert not _helpers_alive()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_nested_integral_finishes(self, monkeypatch, workers):
        # An integrand that integrates itself runs its inner batches inline
        # on a helper thread, and on its own helpers on the calling thread.
        q = _kac_stage(16)
        inner = Budget(method="monte-carlo", samples=3 * MC_BATCH, seed=2)

        def g(v):
            return np.abs(v) * mean_abs(q, inner).value

        outer = Budget(samples=4 * MC_BATCH, seed=3)
        monkeypatch.setattr(bohrint, "_workers", lambda: 1)
        want = bohr_integral(g, [q], outer)
        monkeypatch.setattr(bohrint, "_workers", lambda: workers)
        assert _call_with_deadline(lambda: bohr_integral(g, [q], outer)) == want

    def test_peak_memory_not_above_parent(self, monkeypatch):
        # Four usable CPUs still give two workers, each step holding 2^18
        # phases, where one thread held 2^20 before (26.0 MB under
        # tracemalloc); four workers peaked near 31 MB.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        assert bohrint._workers() == 2
        p = _kac_stage()
        mean_abs(p, Budget(samples=1 << 15, seed=0))  # warm-up: lazy lookups
        tracemalloc.start()
        try:
            mean_abs(p, Budget(samples=1 << 16, seed=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 26_006_625

    def test_shared_grid_peak_memory(self, monkeypatch):
        # Three stages whose spacers combine 1, sqrt 2 and sqrt 3 reduce to a
        # 256 x 128 x 64 grid.  Under tracemalloc, units of 2^15 points
        # peaked at 8.76 MB on one thread and at 10.87 MB on two, each
        # holding a unit, over 13 runs.
        basis = SymbolBasis.make(("one", 1.0), ("r2", math.sqrt(2)),
                                 ("r3", math.sqrt(3)))
        syms = [basis.symbol(n) for n in basis.names]

        def freq(vec):
            f = basis.zero()
            for sym, k in zip(syms, vec):
                f = f + sym.scale(k)
            return f

        spacers = [[(2, 1, 2), (0, 1, 0), (2, 2, 0), (0, 1, 0)],
                   [(1, 1, 0), (0, 2, 0), (0, 0, 2), (0, 2, 2)],
                   [(1, 2, 1), (0, 0, 1), (2, 0, 0)]]
        params = RankOneParams(basis=basis, unit=syms[0], stages=tuple(
            Stage(p=len(sp), spacers=(basis.zero(),) + tuple(map(freq, sp)))
            for sp in spacers))
        polys = [build_polynomial(params, k) for k in range(3)]
        gs = [lambda u, v, w: np.abs(u) ** 2 * np.abs(v) ** 2 * np.abs(w) ** 2,
              lambda u, v, w: np.abs(u) * np.abs(v) * np.abs(w)]
        gs += [lambda *v, k=k: np.abs(v[k]) ** 4 for k in range(3)]
        monkeypatch.setattr(bohrint, "_workers", lambda: 2)
        bohr_integral_multi(gs, polys)  # warm-up: lazy lookups
        tracemalloc.start()
        try:
            ests = bohr_integral_multi(gs, polys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ests[0].nodes_or_samples == 1 << 21
        assert peak <= 11_000_000


def _independent_stages(cuts, seed=2):
    """Stage polynomials of independent spacers: sum(p - 1) coordinates."""
    params = make_independent_params(cuts, seed=seed)
    return [build_polynomial(params, k) for k in range(len(cuts))]


def _pair_products(count):
    """|v_0| |v_i| for i = 1 .. count - 1, as in a scan step."""
    return [lambda *v, i=i: np.abs(v[0]) * np.abs(v[i]) for i in range(1, count)]


class TestOneBatchSteps:
    """A Monte Carlo call whose samples fit one MC_BATCH runs as two batches
    of MC_BATCH // 2 points, on the calling thread and a helper.  The ids
    count the row steps, of 2^18 // MC_BATCH = 16 coordinates, that one
    batch of MC_BATCH points would take."""

    @pytest.mark.parametrize("cuts", [[8, 8], [16, 16], [16] * 4, [64, 64, 16]],
                             ids=["1-step", "2-steps", "4-steps", "9-steps"])
    def test_bit_identical_at_one_and_two_workers(self, monkeypatch, cuts):
        polys = _independent_stages(cuts)
        dim = _evaluator(polys).dim
        assert dim == sum(p - 1 for p in cuts)
        batches = []
        sample = TorusEvaluator.sample

        def seen(ev, rng, n):
            batches.append((rng.bit_generator.seed_seq.spawn_key, n,
                            threading.current_thread().name))
            return sample(ev, rng, n)

        monkeypatch.setattr(TorusEvaluator, "sample", seen)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        gs = _pair_products(len(polys))
        got = {}
        for w in (1, 2):
            monkeypatch.setattr(bohrint, "_MAX_WORKERS", w)
            batches.clear()
            got[w] = bohr_integral_multi(gs, polys, Budget(samples=MC_BATCH, seed=3))
            # At two workers the helper runs the second half batch.
            second = "bohrap-mc" if w == 2 else "MainThread"
            assert sorted(batches) == [((0,), MC_BATCH // 2, "MainThread"),
                                       ((1,), MC_BATCH // 2, second)]
            assert not _helpers_alive()
        assert got[1] == got[2]
        assert got[1][0].method == "monte-carlo" and got[1][0].torus_dim == dim
        assert got[1][0].nodes_or_samples == MC_BATCH

    @pytest.mark.parametrize("samples", [1, 5000, MC_BATCH])
    @pytest.mark.parametrize("form", ["unit", "limb"])
    def test_half_batches_match_reference(self, form, samples):
        # Value and std_error are those of two batches of MC_BATCH // 2
        # points, one from each child of SeedSequence(seed).spawn(2),
        # summed plainly.
        if form == "unit":
            polys = _independent_stages([16, 16])
            gs = _pair_products(2) + [lambda u, v: np.abs(u + v) ** 2]
        else:
            polys = [_dependent_huge()]
            gs = [np.abs, lambda v: v.real]
        ev = _evaluator(polys)
        assert (ev._unit is None) == (form == "limb")
        vals = [ev.sample(np.random.default_rng(child), MC_BATCH // 2)
                for child in np.random.SeedSequence(7).spawn(2)]
        got = bohr_integral_multi(gs, polys, Budget(method="monte-carlo",
                                                    samples=samples, seed=7))
        for g, est in zip(gs, got):
            ys = [g(*v) for v in vals]
            s = ys[0].sum() + ys[1].sum()
            sq = float((ys[0] * ys[0]).sum()) + float((ys[1] * ys[1]).sum())
            mean = s / MC_BATCH
            var = max(0.0, sq / MC_BATCH - mean * mean)
            assert est.value == mean
            assert est.std_error == math.sqrt(var / MC_BATCH)
            assert (est.nodes_or_samples, est.seed) == (MC_BATCH, 7)

    @pytest.mark.parametrize("n", [MC_BATCH, MC_BATCH // 2, 3000, 100_000])
    def test_threaded_sample_matches_one_draw(self, n):
        # ``sample`` gives the values of the evaluator at one (dim, n) draw,
        # and the generator ends where that draw leaves it.
        ev = _evaluator(_independent_stages([64, 32]))
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        got = ev.sample(rng, n)
        for vals, direct in zip(got, ev([ref.random((ev.dim, n))])):
            assert np.array_equal(vals, direct)
        assert rng.random() == ref.random()

    def test_failed_step_reaches_caller(self, monkeypatch):
        # A half batch that fails on the helper raises from the call, and
        # the next call with the same seed gives the estimate of one thread.
        monkeypatch.setattr(bohrint, "_workers", lambda: 2)
        polys = _independent_stages([16] * 4)
        gs, budget = _pair_products(4), Budget(samples=MC_BATCH, seed=5)
        drawn_cis = bohrint._drawn_cis

        def broken(rng, out):
            if threading.current_thread().name == "bohrap-mc":
                raise FloatingPointError("step failed")
            drawn_cis(rng, out)

        monkeypatch.setattr(bohrint, "_drawn_cis", broken)
        with pytest.raises(FloatingPointError):
            bohr_integral_multi(gs, polys, budget)
        assert not _helpers_alive()
        monkeypatch.setattr(bohrint, "_drawn_cis", drawn_cis)
        got = bohr_integral_multi(gs, polys, budget)
        monkeypatch.setattr(bohrint, "_workers", lambda: 1)
        assert got == bohr_integral_multi(gs, polys, budget)

    def test_two_thread_peak_memory(self, monkeypatch):
        # Four 16-cut stages, 60 coordinates, as in a scan step: each
        # thread holds a half batch with one step of 32 coordinates x 2^13
        # points (4 MiB complex), drawn four rows at a time into _cis.
        # Under tracemalloc the call peaked at 12.34-12.60 MB on two threads
        # and 6.30 MB on one; whole-step and eight-row draws held 16.3 and
        # 13.1 MB.
        monkeypatch.setattr(bohrint, "_workers", lambda: 2)
        polys = _independent_stages([16] * 4)
        gs = _pair_products(4)
        bohr_integral_multi(gs, polys, Budget(samples=MC_BATCH, seed=1))  # warm-up
        tracemalloc.start()
        try:
            est = bohr_integral_multi(gs, polys, Budget(samples=MC_BATCH, seed=6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est[0].torus_dim == 60
        assert peak <= 13_000_000


class TestIdentityCoordinates:
    """Certified independent frequencies: each distinct nonzero frequency is
    its own torus coordinate, given as term columns."""

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
        dim, emats = _phase_space(polys)
        assert dim == 30
        # Term columns: one constant term (-1) per stage, then one
        # coordinate per nonzero frequency.  As unit rows: one zero row per
        # stage and one unit row per coordinate.
        assert sorted(np.concatenate(emats).tolist()) == [-1, -1] + list(range(30))
        E = np.vstack(_exponent_rows(dim, emats))
        assert sorted(E.sum(axis=1).tolist()) == [0, 0] + [1] * 30
        assert E.sum(axis=0).tolist() == [1] * 30

    def test_colliding_frequencies_use_columns(self):
        # |P|^2 holds e_i - e_j, whose last symbol is e_i's: the certificate
        # fails and the active columns are the coordinates (limb path).
        params = make_independent_params([12], seed=4)
        p = build_polynomial(params, 0)
        q = _abs2_float(params, 0)
        ev = _evaluator([p, q])
        assert (ev.dim, ev.levels) == (11, 2)
        (est,) = bohr_integral_multi([lambda a, b: (a * a.conj() * b).real],
                                     [p, q], Budget(samples=1 << 14, seed=6))
        assert est.torus_dim == 11
        want = (q * q).mean().real  # mean |P|^4 = 2 - 1/12
        assert want == pytest.approx(2 - 1 / 12, abs=1e-12)
        assert abs(est.value - want) <= 5 * est.std_error

    def test_unit_form_matches_direct_sum(self):
        params = make_independent_params([16, 8], seed=5)
        polys = [build_polynomial(params, 1), build_polynomial(params, 0),
                 APPoly.constant(params.basis, 0.5j)]
        dim, emats = _phase_space(polys)
        ev = TorusEvaluator(_coefficients(polys), dim, emats)
        emats = _exponent_rows(dim, emats)
        assert (ev.dim, ev.levels) == (22, 1)
        x = np.random.default_rng(8).random((dim, 500))
        for p, E, vals in zip(polys, emats, ev([x])):
            c = np.array(list(p.terms.values()), dtype=complex)
            want = c @ np.exp((2j * np.pi) * (E.astype(float) @ x))
            assert np.allclose(vals, want, rtol=0, atol=1e-12)

    def test_unit_form_matches_exp_to_1e14(self):
        params = make_independent_params([64, 32], seed=9)
        polys = [build_polynomial(params, k) for k in (0, 1)]
        dim, emats = _phase_space(polys)
        ev = TorusEvaluator(_coefficients(polys), dim, emats)
        emats = _exponent_rows(dim, emats)
        assert (ev.dim, ev.levels) == (94, 1)
        x = np.random.default_rng(10).random((dim, 4096))
        for p, E, vals in zip(polys, emats, ev([x])):
            c = np.array(list(p.terms.values()), dtype=complex)
            want = c @ np.exp((2j * np.pi) * (E.astype(float) @ x))
            np.testing.assert_allclose(vals, want, rtol=0, atol=1e-14)

    def test_sample_draws_row_blocks_in_turn(self):
        # At 2^14 points the unit form takes the 94 coordinates in row
        # blocks of 16.  ``sample`` draws the blocks in turn: the numbers of
        # one (dim, n) draw, and the same values as evaluating that draw.
        params = make_independent_params([64, 32], seed=9)
        polys = [build_polynomial(params, k) for k in (0, 1)]
        dim, emats = _phase_space(polys)
        ev = TorusEvaluator(_coefficients(polys), dim, emats)
        emats = _exponent_rows(dim, emats)
        got = ev.sample(np.random.default_rng(4), MC_BATCH)
        x = np.random.default_rng(4).random((dim, MC_BATCH))
        for p, E, vals, direct in zip(polys, emats, got, ev([x])):
            assert np.array_equal(vals, direct)
            c = np.array(list(p.terms.values()), dtype=complex)
            want = c @ np.exp((2j * np.pi) * (E.astype(float) @ x))
            np.testing.assert_allclose(vals, want, rtol=0, atol=1e-13)

    def test_affine_rule_above_eight_symbols(self):
        # Above eight active symbols the echelon certificate decides: a
        # stage's 15 nonzero frequencies are certified independent, and so
        # are their differences; |P|^2 holds e_i - e_j and is not.  One
        # frequency, as in a constant, is independent.
        params = make_independent_params([16], seed=3)
        p = build_polynomial(params, 0)
        q = _abs2_float(params, 0)
        nonzero = APPoly.from_terms(
            params.basis, [(f, c) for f, c in p.terms.items() if any(f.num)])
        for poly, exact in ((p, True), (nonzero, True), (q, False),
                            (APPoly.constant(params.basis, 2.0), True)):
            dim, (E,) = _phase_space([poly])
            assert _affine(dim, E) is exact

    def test_empty_inputs_rejected(self):
        # No polynomial is malformed input.
        with pytest.raises(ValidationError, match="need at least one polynomial"):
            _evaluator([])
        with pytest.raises(ValidationError, match="need at least one polynomial"):
            bohr_integral_multi([np.abs], [])

    def test_polynomials_over_two_bases_rejected(self):
        # Equal symbol names over different values are different bases.
        other = SymbolBasis.make(("a", 1.0), ("b", math.sqrt(3)), ("c", math.e))
        polys = [APPoly.character(basis.symbol("a")) for basis in (B, other)]
        with pytest.raises(BasisMismatchError, match="different bases"):
            bohr_integral_multi([lambda x, y: np.abs(x * y)], polys)

    def test_long_two_cut_stage_uses_grid(self):
        # Stage 139 of 140 two-cut stages is (1 + e^{i h t}) / sqrt(2) with
        # h over 281 symbols and coefficients near 2^139: one coordinate,
        # so a 64-point grid, with mean 2 sqrt(2) / pi.
        p = build_polynomial(make_independent_params([2] * 140), 139)
        est = mean_abs(p)
        assert (est.method, est.torus_dim) == ("tensor-quadrature", 1)
        want = 2 * math.sqrt(2) / math.pi
        assert abs(est.value - want) <= 3 * est.std_error + est.refinement_delta

    @pytest.mark.parametrize("cuts, stages", [([16], (0,)), ([128], (0,)),
                                              ([16] * 6, (2, 3))], ids=str)
    def test_unit_form_bits_match_dense_product(self, cuts, stages):
        # The unit form added up from term columns has the bytes of the
        # dense reference: c @ L and c @ (1 - row sums of L) for the 0/1
        # exponent matrix L with one unit row per nonconstant term.
        polys = [build_polynomial(make_independent_params(cuts, seed=1), k)
                 for k in stages]
        dim, emats = _phase_space(polys)
        coeffs = _coefficients(polys)
        ev = TorusEvaluator(coeffs, dim, emats)
        assert ev.levels == 1
        want_A, want_a0 = [], []
        for c, cols in zip(coeffs, emats):
            L = np.zeros((len(cols), dim))
            rows = np.flatnonzero(cols >= 0)
            L[rows, cols[rows]] = 1.0
            want_A.append(c @ L)
            want_a0.append(c @ (1.0 - L.sum(axis=1)))
        A, a0 = ev._unit
        assert A.tobytes() == np.array(want_A).reshape(len(polys), dim).tobytes()
        assert a0.tobytes() == np.array(want_a0).tobytes()

    @pytest.mark.parametrize("p", [4, 5])
    def test_certified_small_sets_take_identity_path(self, p):
        # Stage 0 of a p-cut family: p - 1 nonzero frequencies over at most
        # eight symbols, certified, so term columns and no lattice
        # reduction.  Its reduction's exponents are unimodular, so the same
        # 64^d grid gives the column means.
        poly = build_polynomial(make_independent_params([p], seed=1), 0)
        dim, (cols,) = _phase_space([poly])
        assert cols.ndim == 1 and dim == p - 1
        red = torus_reduce(list(poly.terms))
        E = np.array(red.exponents, dtype=object).reshape(len(cols), dim)
        assert abs(round(np.linalg.det(E[cols >= 0].astype(float)))) == 1
        coeffs = _coefficients([poly])
        ns = [64] * dim
        got = bohrint._tensor([np.abs], coeffs, _exponent_rows(dim, [cols]), ns)
        want = bohrint._tensor([np.abs], coeffs, [E], ns)
        assert got[0].value == pytest.approx(want[0].value, rel=0, abs=1e-15)
        assert got[0].refinement_delta == pytest.approx(
            want[0].refinement_delta, rel=0, abs=1e-15)

    def test_uncertified_independent_set_keeps_lattice_path(self):
        # b and a + b end in the same symbol: no certificate, so exponent
        # rows from the lattice reduction, though the exact rank test finds
        # the set independent.
        a, b = B.symbol("a"), B.symbol("b")
        p = APPoly.from_terms(B, [(b, 1.0), (a + b, 0.5)])
        dim, (E,) = _phase_space([p])
        assert (dim, E.shape) == (2, (2, 2))
        assert _affine(dim, E)

    def test_prikhodko_mean_abs_memory(self):
        # 1024 independent frequencies: term columns and a 1 x 1024 unit
        # form.  A dense identity exponent matrix with its limbs peaked at
        # 32.1 MiB here; the batch's phases and draws take about 8.3 MiB.
        p = build_family(PolyFamilySpec(kind="prikhodko", n=1024, m_n=4,
                                        eps_n=Fraction(1, 4)))
        tracemalloc.start()
        try:
            ev = _evaluator([p])
            est = mean_abs(p, Budget(samples=MC_BATCH, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ev.dim, ev.levels, est.torus_dim) == (1024, 1, 1024)
        assert peak < 16 * 2 ** 20


def _rule_on_frequencies(freqs):
    """The reference exactness rule, on the raw frequencies: the echelon
    certificate, then over at most eight active symbols the rank of the
    differences f_j - f_0 by ``rational_rank``, else dependent."""
    support, active = bohrint._support(freqs)
    if bohrint._identity_columns(freqs, support) is not None:
        return True
    f0, *rest = support
    return (len(active) <= 8 and len(rest) <= len(active)
            and rational_rank([f - f0 for f in rest]) == len(rest))


def _random_frequency_sets(seed, n_sets):
    """Seeded polynomials over 1 to 12 symbols: 1 to 10 sparse frequencies
    with entries in -2..2, plain, some near 2^61 or over denominators up to
    6; then stages of small cut lists and their |P|^2."""
    rng = np.random.default_rng(seed)
    for _ in range(n_sets):
        k = int(rng.integers(1, 13))
        basis = SymbolBasis.make(*((f"x{j}", 1.0 + j / 7) for j in range(k)))
        kind = int(rng.integers(3))
        freqs = {}
        for _ in range(int(rng.integers(1, 11))):
            row = []
            for _ in range(k):
                v = int(rng.integers(-2, 3)) if rng.random() < 0.4 else 0
                if kind == 1 and rng.random() < 0.5:
                    v = v * (1 << 61) + int(rng.integers(-2, 3))
                elif kind == 2:
                    v = Fraction(v, int(rng.integers(1, 7)))
                row.append(v)
            freqs[Frequency(basis, row)] = 1.0
        yield APPoly.from_terms(basis, list(freqs.items()))
    for _ in range(n_sets // 10):
        cuts = [int(c) for c in rng.integers(2, 7, size=int(rng.integers(1, 4)))]
        params = make_independent_params(cuts, seed=int(rng.integers(100)))
        for m in range(len(cuts)):
            yield build_polynomial(params, m)
            yield _abs2_float(params, m)


class TestAffineRule:
    """``_affine`` on ``_phase_space`` exponents, which ``ultraflat`` reads."""

    def test_matches_rule_on_raw_frequencies(self, monkeypatch):
        # On every set the exact flag of ``ultraflat`` is the rule decided
        # on the raw frequencies; the sets reach all three branches, and the
        # lattice rows give both answers.  The scan is stubbed out.
        monkeypatch.setattr(flatness, "_stable_max", lambda *args: 0.0)
        seen = set()
        for p in _random_frequency_sets(30, 600):
            want = _rule_on_frequencies(list(p.terms))
            dim, (E,) = _phase_space([p])
            branch = ("columns" if E.ndim == 1
                      else "lattice" if dim <= 8 else "symbols")
            assert _affine(dim, E) is want
            assert ultraflat(p)[1] is want
            seen.add((branch, want))
        assert seen == {("columns", True), ("lattice", True),
                        ("lattice", False), ("symbols", False)}


def _huge(rng, bits):
    """A random integer of exactly ``bits`` bits, of random sign."""
    v = int.from_bytes(rng.bytes(-(-bits // 8)), "little") >> (-bits % 8)
    v |= 1 << (bits - 1)
    return v if rng.random() < 0.5 else -v


class TestLimbPhases:
    """Phases of the limb form against exact ``Fraction`` arithmetic."""

    @pytest.mark.parametrize("terms, dim, bits", [(3, 1, 61), (12, 4, 100),
                                                  (12, 20, 134)], ids=str)
    def test_phase_error_per_summed_product(self, terms, dim, bits):
        # A limb below 2^26 times a 53-bit coordinate rounds, so no phase is
        # exact.  Against the exact phase frac(sum_i E_i theta_i) of
        # theta = sum_j x_j 2^(-53 j), each term's phase errs by less than
        # 2^-27 per summed product (dim x limbs x levels of them), for
        # exponents near 2^61 as near 2^134; the largest errors measured
        # here are 0.21, 0.09 and 0.05 of that bound.  One term per polynomial,
        # so each value is one e^{2 pi i phase}.
        rng = np.random.default_rng(bits)
        emats = [np.array([[_huge(rng, bits) for _ in range(dim)]], dtype=object)
                 for _ in range(terms)]
        ev = TorusEvaluator([np.ones(1, dtype=complex)] * terms, dim, emats)
        n = 40
        levels = [rng.random((dim, n)) for _ in range(ev.levels)]
        # theta 2^(53 L) is an integer, so the phases are exact fractions.
        scale = 1 << (53 * ev.levels)
        X = [sum(int(x[i, k] * 2.0 ** 53) << (53 * (ev.levels - 1 - j))
                 for j, x in enumerate(levels)) for i in range(dim) for k in range(n)]
        X = np.array(X, dtype=object).reshape(dim, n)
        products = dim * ev._n_limbs * ev.levels
        for E, got in zip(emats, ev(levels)):
            exact = [Fraction(int(v) % scale, scale) for v in E[0] @ X]
            want = np.exp(2j * np.pi * np.array([float(f) for f in exact]))
            err = np.abs(np.angle(got * want.conj())) / (2 * np.pi)
            assert err.max() < products * 2.0 ** -27


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
        # ``ultraflat`` evaluates column slices of its points.
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
        # Panels are sized from the degree; the exact value is
        # sin(1000)/1000.
        b = SymbolBasis.make(("w", 100.0))
        mean = real_line_mean(APPoly.character(b.symbol("w")), 10.0)
        assert mean == pytest.approx(math.sin(1000.0) / 1000.0, abs=1e-12)

    def test_bad_T(self):
        with pytest.raises(ValidationError):
            real_line_mean(APPoly.one(B), 0.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf], ids=str)
    def test_non_finite_T_refused(self, T):
        # nan raised "cannot convert float NaN to integer", inf an
        # OverflowError, both from the panel count.
        with pytest.raises(ValidationError, match="finite"):
            real_line_mean(APPoly.one(B), T)

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
