"""Known-answer ledger: public entry points against closed forms.

Each row runs one public entry point under the default ``Budget()`` and
asserts that its estimate is honest,

    |value - exact| <= 3 std_error + refinement_delta + 1e-12.

The references do not use ``bohrap``: Fejér's Lebesgue constants and the
Dirichlet kernel's L1 norm integrated between its zeros, integer
autocorrelations, ``Fraction`` counts, and Kluyver's W_p(1) from
``perfbench/refs.py`` (the session fixture ``kluyver``).  A row that fails
today is a strict xfail that names the ROADMAP item that mends it, so the
change that mends it must flip it.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bohrap import (APPoly, PolyFamilySpec, SymbolBasis, bohr_integral,
                    build_family, build_polynomial, flatness_ratio,
                    make_independent_params, mean_abs, ultraflat)

ROOT = Path(__file__).resolve().parents[1]
A = SymbolBasis.make(("a", 1.0))


def _one_symbol(coeffs) -> APPoly:
    """sum_j coeffs[j] e^{i j a t}, zero coefficients left out."""
    return APPoly.from_terms(A, [(A.symbol("a").scale(j), float(c))
                                 for j, c in enumerate(coeffs) if c])


def _moment(coeffs, r: int) -> int:
    """E|sum_j c_j z^j|^(2r) over the circle for integer c_j: the sum of the
    squared integer coefficients of the r-th power."""
    power = np.array([1], dtype=object)
    for _ in range(r):
        power = np.convolve(power, np.array(coeffs, dtype=object))
    return int(sum(c * c for c in power))


def _lebesgue(m: int) -> float:
    """Fejér's L_m = mean |D_m| for the Dirichlet kernel of 2m + 1 terms."""
    return 1 / (2 * m + 1) + 2 / math.pi * math.fsum(
        math.tan(math.pi * k / (2 * m + 1)) / k for k in range(1, m + 1))


def _dirichlet_l1(n: int) -> float:
    """Mean of |sum_{j<n} e^{ijx}| over the circle for any n.  Between the
    zeros 2 pi k / n the real kernel sum_j cos((j - (n - 1)/2) x) keeps its
    sign, so each piece is the absolute value of its exact integral."""
    c = np.arange(n) - (n - 1) / 2
    edges = 2 * np.pi * np.arange(n + 1) / n
    safe = np.where(c == 0, 1.0, c)
    antiderivative = np.where(c == 0, edges[:, None],
                              np.sin(np.outer(edges, c)) / safe).sum(axis=1)
    return float(np.abs(np.diff(antiderivative)).sum() / (2 * np.pi))


def _rudin_shapiro(k: int) -> list[int]:
    p, q = [1], [1]
    for _ in range(k):
        p, q = p + q, p + [-x for x in q]
    return p


TRINOMIAL = [1 if j in (0, 1, 43) else 0 for j in range(44)]
RUDIN_SHAPIRO_64 = _rudin_shapiro(6)


def _stage(p: int) -> APPoly:
    return build_polynomial(make_independent_params([p], seed=1), 0)


def _abs_pow(e: int):
    return lambda x: np.abs(x) ** e


def _honest(est, exact) -> None:
    bound = 3 * est.std_error + est.refinement_delta + 1e-12
    assert abs(est.value - float(exact)) <= bound, (est, float(exact))


def _item(n: int, why: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {n}: {why}")


class TestStages:
    """Stage P of cut number p over independent spacers: its p - 1
    nonzero exponents are independent uniform phases."""

    @pytest.mark.parametrize("p", [4, 16, 64])
    def test_l1_norm_is_kluyver(self, p, kluyver):
        _honest(mean_abs(_stage(p)), kluyver[p] / math.sqrt(p))

    @pytest.mark.parametrize("p", [4, 16, 64])
    def test_fourth_moment(self, p):
        _honest(bohr_integral(_abs_pow(4), [_stage(p)]), 2 - Fraction(1, p))

    def test_references(self, kluyver):
        assert kluyver[4] / 2 == pytest.approx(0.89954624, abs=1e-8)


class TestTrinomial:
    """(1 + e^{iat} + e^{43iat}) / sqrt(3): exact moments by lattice counts."""

    def test_references(self):
        want = {1: 1, 2: Fraction(5, 3), 3: Fraction(31, 9), 4: Fraction(71, 9)}
        assert {r: Fraction(_moment(TRINOMIAL, r), 3 ** r) for r in want} == want

    @pytest.mark.parametrize("r", [
        1, 2,
        pytest.param(3, marks=_item(4, "the grid aliases |P|^6: 3.6667, delta 1.3e-15")),
        pytest.param(4, marks=_item(4, "the grid aliases |P|^8: 9.1728, delta 5.3e-15")),
    ])
    def test_even_moment(self, r):
        p = _one_symbol([c / math.sqrt(3) for c in TRINOMIAL])
        _honest(bohr_integral(_abs_pow(2 * r), [p]), Fraction(_moment(TRINOMIAL, r), 3 ** r))


class TestRudinShapiro:
    """The Rudin-Shapiro polynomial of n = 64 = 2^6 coefficients +-1."""

    def test_references(self):
        # ||P||_4^4 = (2^(2k+2) - (-2)^k) / 3 for n = 2^k.
        assert _moment(RUDIN_SHAPIRO_64, 2) == (2 ** 14 - (-2) ** 6) // 3 == 5440
        assert _moment(RUDIN_SHAPIRO_64, 3) == 520192

    @pytest.mark.parametrize("r", [2, 3])
    def test_even_moment(self, r):
        est = bohr_integral(_abs_pow(2 * r), [_one_symbol(RUDIN_SHAPIRO_64)])
        _honest(est, _moment(RUDIN_SHAPIRO_64, r))


class TestAllOnes:
    """sum_{j<n} e^{ijat}: its L1 norm is Fejér's L_m for odd n = 2m + 1,
    and its supremum is n at t = 0."""

    def test_references(self):
        assert _lebesgue(0) == 1.0
        assert _lebesgue(8) == pytest.approx(2.1377309, abs=1e-7)
        assert _dirichlet_l1(2) == pytest.approx(4 / math.pi, abs=1e-15)
        for n in (17, 53, 65):
            assert _dirichlet_l1(n) == pytest.approx(_lebesgue((n - 1) // 2), abs=1e-13)

    def test_flatness_ratio_n65(self):
        _honest(flatness_ratio(_one_symbol([1] * 65)), _lebesgue(32) / math.sqrt(65))

    @pytest.mark.parametrize("n", [
        pytest.param(17, marks=_item(19, "reads 2.1460257, delta 2.5e-3 understates the error")),
        pytest.param(53, marks=_item(19, "reads 2.6226760, delta 2.8e-3 understates the error")),
        pytest.param(106, marks=_item(19, "reads 2.9035573, delta 3.0e-3 understates the error")),
    ])
    def test_l1_norm(self, n):
        _honest(mean_abs(_one_symbol([1] * n)), _dirichlet_l1(n))

    @_item(19, "the scan returns (6.999799..., False)")
    def test_ultraflat_n64(self):
        # sup |P| / ||P||_2 - 1 = 64 / 8 - 1 = 7, above 1 - inf |P| / ||P||_2 = 1.
        deviation, exact = ultraflat(_one_symbol([1] * 64))
        assert deviation == pytest.approx(7, abs=1e-12) and exact


@_item(19, "refinement_delta is 0.163 on a ratio of 0.288")
def test_readme_flatness_delta_is_useful():
    # The README ``flatness`` family, Littlewood n = 64.
    doc = json.loads((ROOT / "configs" / "littlewood-64.json").read_text())
    est = flatness_ratio(build_family(PolyFamilySpec.from_config(doc["family"])))
    assert est.refinement_delta <= 1e-9 * est.value
