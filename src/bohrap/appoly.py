"""Sparse Fourier algebra of almost-periodic trigonometric polynomials.

A polynomial is a finite map from exact frequencies to complex double
coefficients; there is one coefficient kind.  Results that must be exact
(the probability normalization, sigma-hat values, moment identities) are
not polynomials here: they are integer counts keyed by numerator tuples
over one denominator, multiplied by ``freqspace.mul_numerators`` (see
``riesz``).
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable

import numpy as np

from .errors import BasisMismatchError, ValidationError
from .freqspace import Frequency, SymbolBasis, mul_terms

#: Relative magnitude below which a floating coefficient is pruned.
PRUNE_REL = 1e-15


def _as_coeff(c) -> complex:
    """``c`` as a complex coefficient.  A non-finite value would poison
    the prune cut of ``_canonical``, so it is refused."""
    z = complex(c)
    if not cmath.isfinite(z):
        raise ValidationError(f"non-finite coefficient {z}")
    return z


class APPoly:
    """Finite trigonometric polynomial sum(a_xi * e^{i xi t}) in canonical sparse form."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: SymbolBasis, terms: dict):
        # Trusted constructor: terms must already be canonical (pruned, sorted).
        self.basis = basis
        self.terms = terms

    # -- construction -----------------------------------------------------

    @classmethod
    def from_terms(cls, basis: SymbolBasis,
                   items: Iterable[tuple[Frequency, complex]]) -> "APPoly":
        acc: dict[Frequency, complex] = {}
        for f, c in items:
            if f.basis != basis:
                raise BasisMismatchError("term frequency over a different basis")
            c = _as_coeff(c)
            if f in acc:
                acc[f] = acc[f] + c
            else:
                acc[f] = c
        return cls(basis, _canonical(acc))

    @classmethod
    def zero(cls, basis: SymbolBasis) -> "APPoly":
        return cls(basis, {})

    @classmethod
    def constant(cls, basis: SymbolBasis, c) -> "APPoly":
        return cls.from_terms(basis, [(basis.zero(), c)])

    @classmethod
    def one(cls, basis: SymbolBasis) -> "APPoly":
        return cls.constant(basis, 1)

    @classmethod
    def character(cls, freq: Frequency, coeff=1.0) -> "APPoly":
        return cls.from_terms(freq.basis, [(freq, coeff)])

    # -- ring operations ---------------------------------------------------

    def _compat(self, other: "APPoly") -> None:
        if self.basis != other.basis:
            raise BasisMismatchError("polynomials over different bases")

    def __add__(self, other: "APPoly") -> "APPoly":
        self._compat(other)
        return APPoly.from_terms(self.basis, [*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "APPoly":
        return APPoly(self.basis, {f: -c for f, c in self.terms.items()})

    def __sub__(self, other: "APPoly") -> "APPoly":
        return self + (-other)

    def __mul__(self, other: "APPoly") -> "APPoly":
        self._compat(other)
        acc = mul_terms(self.terms, other.terms)
        return APPoly(self.basis, _canonical(acc))

    def conj(self) -> "APPoly":
        items = {-f: c.conjugate() for f, c in self.terms.items()}
        return APPoly(self.basis, _canonical(items))

    def abs2(self) -> "APPoly":
        """|P|^2 as a polynomial: P times its conjugate."""
        return self * self.conj()

    def scale(self, c) -> "APPoly":
        c = _as_coeff(c)
        acc = {f: v * c for f, v in self.terms.items()}
        return APPoly(self.basis, _canonical(acc))

    # -- functionals --------------------------------------------------------

    def mean(self) -> complex:
        """Haar/asymptotic mean value: the coefficient at the zero frequency."""
        return self.fourier_coeff(self.basis.zero())

    def fourier_coeff(self, lam: Frequency) -> complex:
        if lam.basis != self.basis:
            raise BasisMismatchError("frequency over a different basis")
        return self.terms.get(lam, 0j)

    def l2_norm_sq(self) -> float:
        """Parseval: sum of squared coefficient magnitudes."""
        return float(sum(abs(c) ** 2 for c in self.terms.values()))

    def l2_norm(self) -> float:
        return math.sqrt(self.l2_norm_sq())

    def degree(self) -> float:
        """max |xi| over the support, with xi evaluated on the real line."""
        if not self.terms:
            raise ValidationError("degree of the empty polynomial is undefined")
        return max(abs(f.real_value()) for f in self.terms)

    def support(self) -> tuple[Frequency, ...]:
        return tuple(self.terms.keys())

    def is_hermitian(self) -> bool:
        """Whether c_{-f} is the conjugate of c_f for every f, within 1e-12
        relative."""
        for f, c in self.terms.items():
            if abs(self.fourier_coeff(-f) - c.conjugate()) > 1e-12 * max(1.0, abs(c)):
                return False
        return True

    # -- evaluation and conversion ------------------------------------------

    def eval_real(self, t) -> np.ndarray:
        """Evaluate on real points t (floating frequency values)."""
        return trig_sum(t, ((f.real_value(), c) for f, c in self.terms.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, APPoly):
            return NotImplemented
        return self.basis == other.basis and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c} * exp(i*({f})*t)"
                          for f, c in self.terms.items())

    def to_json(self) -> dict:
        return {
            "basis": [[name, value] for name, value in self.basis.symbols],
            "terms": [{"frequency": str(f), "coeff": [c.real, c.imag]}
                      for f, c in self.terms.items()],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "APPoly":
        basis = SymbolBasis(tuple((n, float(v)) for n, v in doc["basis"]))
        items = [
            (Frequency.parse(entry["frequency"], basis),
             complex(entry["coeff"][0], entry["coeff"][1]))
            for entry in doc["terms"]
        ]
        return cls.from_terms(basis, items)


def trig_sum(t, terms: Iterable[tuple[float, complex]]) -> np.ndarray:
    """sum of c e^{i w t} over (w, c) in ``terms``, one term at a time."""
    t = np.asarray(t, dtype=float)
    vals = np.zeros(t.shape, dtype=complex)
    for w, c in terms:
        vals += c * np.exp(1j * w * t)
    return vals


def _canonical(acc: dict) -> dict:
    if acc:
        cut = PRUNE_REL * max(abs(c) for c in acc.values())
        acc = {f: c for f, c in acc.items() if abs(c) > cut}
    return dict(sorted(acc.items(), key=lambda kv: kv[0].sort_key()))
