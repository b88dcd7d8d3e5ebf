"""Sparse Fourier algebra of almost-periodic trigonometric polynomials.

A polynomial is a finite map from exact frequencies to coefficients.
Coefficients come in two flavours: complex doubles (the default) and
exact Gaussian rationals (``ExactComplex``) for the paths where exact
cancellation matters (probability normalization, sigma-hat monotonicity,
moment identities).  Both kinds speak Python's numeric protocol
(``complex(c)``, ``c.conjugate()``), so only validation, the mixing check,
exact sums and equality, and pruning depend on the kind.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .errors import BasisMismatchError, ValidationError
from .freqspace import Frequency, SymbolBasis, mul_terms

#: Relative magnitude below which a floating coefficient is pruned.
PRUNE_REL = 1e-15


@dataclass(frozen=True)
class ExactComplex:
    """Gaussian rational: exact complex number with Fraction parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, re, im=0) -> "ExactComplex":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        if not self.im and not other.im:
            return ExactComplex(self.re * other.re)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


EXACT_ONE = ExactComplex(Fraction(1))

Coeff = Union[complex, ExactComplex]


def _as_coeff(c, exact: bool) -> Coeff:
    """``c`` as a coefficient of the given kind; ``_as_coeff(0, exact)`` is
    the typed zero.  A non-finite float would poison the prune cut of
    ``_canonical``, so it is refused."""
    if not exact:
        z = complex(c)
        if not cmath.isfinite(z):
            raise ValidationError(f"non-finite coefficient {z}")
        return z
    if isinstance(c, ExactComplex):
        return c
    if isinstance(c, (int, Fraction)):
        return ExactComplex(Fraction(c))
    raise ValidationError("exact polynomial needs rational coefficients")


class APPoly:
    """Finite trigonometric polynomial sum(a_xi * e^{i xi t}) in canonical sparse form."""

    __slots__ = ("basis", "terms", "exact")

    def __init__(self, basis: SymbolBasis, terms: dict, exact: bool):
        # Trusted constructor: terms must already be canonical (pruned, sorted).
        self.basis = basis
        self.terms = terms
        self.exact = exact

    # -- construction -----------------------------------------------------

    @classmethod
    def from_terms(cls, basis: SymbolBasis, items: Iterable[tuple[Frequency, Coeff]],
                   exact: bool = False) -> "APPoly":
        acc: dict[Frequency, Coeff] = {}
        for f, c in items:
            if f.basis != basis:
                raise BasisMismatchError("term frequency over a different basis")
            c = _as_coeff(c, exact)
            if f in acc:
                acc[f] = acc[f] + c
            else:
                acc[f] = c
        return cls(basis, _canonical(acc, exact), exact)

    @classmethod
    def zero(cls, basis: SymbolBasis, exact: bool = False) -> "APPoly":
        return cls(basis, {}, exact)

    @classmethod
    def constant(cls, basis: SymbolBasis, c, exact: bool = False) -> "APPoly":
        return cls.from_terms(basis, [(basis.zero(), c)], exact)

    @classmethod
    def one(cls, basis: SymbolBasis, exact: bool = False) -> "APPoly":
        return cls.constant(basis, 1, exact)

    @classmethod
    def character(cls, freq: Frequency, coeff=1.0, exact: bool = False) -> "APPoly":
        return cls.from_terms(freq.basis, [(freq, coeff)], exact)

    # -- ring operations ---------------------------------------------------

    def _compat(self, other: "APPoly") -> None:
        if self.basis != other.basis:
            raise BasisMismatchError("polynomials over different bases")
        if self.exact != other.exact:
            raise ValidationError("cannot mix exact and floating polynomials")

    def __add__(self, other: "APPoly") -> "APPoly":
        self._compat(other)
        acc = dict(self.terms)
        for f, c in other.terms.items():
            if f in acc:
                acc[f] = acc[f] + c
            else:
                acc[f] = c
        return APPoly(self.basis, _canonical(acc, self.exact), self.exact)

    def __neg__(self) -> "APPoly":
        return APPoly(self.basis, {f: -c for f, c in self.terms.items()}, self.exact)

    def __sub__(self, other: "APPoly") -> "APPoly":
        return self + (-other)

    def __mul__(self, other: "APPoly") -> "APPoly":
        self._compat(other)
        acc = mul_terms(self.terms, other.terms)
        return APPoly(self.basis, _canonical(acc, self.exact), self.exact)

    def conj(self) -> "APPoly":
        items = {-f: c.conjugate() for f, c in self.terms.items()}
        return APPoly(self.basis, _canonical(items, self.exact), self.exact)

    def abs2(self) -> "APPoly":
        """|P|^2 as a polynomial: P times its conjugate."""
        return self * self.conj()

    def scale(self, c) -> "APPoly":
        c = _as_coeff(c, self.exact)
        acc = {f: v * c for f, v in self.terms.items()}
        return APPoly(self.basis, _canonical(acc, self.exact), self.exact)

    # -- functionals --------------------------------------------------------

    def mean(self) -> Coeff:
        """Haar/asymptotic mean value: the coefficient at the zero frequency."""
        return self.fourier_coeff(self.basis.zero())

    def fourier_coeff(self, lam: Frequency) -> Coeff:
        if lam.basis != self.basis:
            raise BasisMismatchError("frequency over a different basis")
        if lam in self.terms:
            return self.terms[lam]
        return _as_coeff(0, self.exact)

    def l2_norm_sq(self):
        """Parseval: sum of squared coefficient magnitudes (exact when exact)."""
        if self.exact:
            total = Fraction(0)
            for c in self.terms.values():
                total += c.abs2()
            return total
        return float(sum(abs(c) ** 2 for c in self.terms.values()))

    def l2_norm(self) -> float:
        return math.sqrt(float(self.l2_norm_sq()))

    def degree(self) -> float:
        """max |xi| over the support, with xi evaluated on the real line."""
        if not self.terms:
            raise ValidationError("degree of the empty polynomial is undefined")
        return max(abs(f.real_value()) for f in self.terms)

    def support(self) -> tuple[Frequency, ...]:
        return tuple(self.terms.keys())

    def is_hermitian(self) -> bool:
        """Whether c_{-f} is the conjugate of c_f for every f: exactly for
        exact coefficients, within 1e-12 relative for floating ones."""
        for f, c in self.terms.items():
            cc = self.fourier_coeff(-f)
            want = c.conjugate()
            if self.exact:
                if cc != want:
                    return False
            elif abs(cc - want) > 1e-12 * max(1.0, abs(c)):
                return False
        return True

    # -- evaluation and conversion ------------------------------------------

    def eval_real(self, t) -> np.ndarray:
        """Evaluate on real points t (floating frequency values)."""
        return trig_sum(t, ((f.real_value(), complex(c))
                            for f, c in self.terms.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, APPoly):
            return NotImplemented
        return (self.basis == other.basis and self.exact == other.exact
                and self.terms == other.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{complex(c)} * exp(i*({f})*t)"
                          for f, c in self.terms.items())

    def to_json(self) -> dict:
        out = []
        for f, c in self.terms.items():
            c = complex(c)
            out.append({"frequency": str(f), "coeff": [c.real, c.imag]})
        return {
            "basis": [[name, value] for name, value in self.basis.symbols],
            "terms": out,
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


def _canonical(acc: dict, exact: bool) -> dict:
    if exact:
        kept = {f: c for f, c in acc.items() if not c.is_zero()}
    else:
        if acc:
            top = max(abs(c) for c in acc.values())
            cut = PRUNE_REL * top
            kept = {f: c for f, c in acc.items() if abs(c) > cut}
        else:
            kept = {}
    return dict(sorted(kept.items(), key=lambda kv: kv[0].sort_key()))
