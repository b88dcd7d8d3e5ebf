"""Exact arithmetic for real frequencies over a declared independence basis.

A frequency is a vector of exact rationals over an ordered list of named
real "symbols".  The symbols are treated as free generators: the toolkit
decides rational (in)dependence inside this symbol model and never tries
to detect relations between the floating symbol values themselves.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .errors import BasisMismatchError, InternalInconsistencyError, ValidationError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TERM_RE = re.compile(r"([+-]?\d+(?:/\d+)?)(?:\*([A-Za-z_][A-Za-z0-9_]*))?\Z")
_BARE_RE = re.compile(r"([+-]?)([A-Za-z_][A-Za-z0-9_]*)\Z")


@dataclass(frozen=True)
class SymbolBasis:
    """Ordered, immutable list of (name, real value) generator symbols.

    ``names``, ``values`` and the name-to-index map are computed once, and
    take no part in equality, hashing or the repr.
    """

    symbols: tuple[tuple[str, float], ...]
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    values: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(name for name, _ in self.symbols)
        if not names:
            raise ValidationError("basis must declare at least one symbol")
        for name, value in self.symbols:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ValidationError(f"bad symbol name {name!r}")
            if not math.isfinite(value) or value == 0.0:
                raise ValidationError(f"symbol {name!r} must have a finite nonzero value")
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise ValidationError("basis symbol names must be unique")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", tuple(value for _, value in self.symbols))
        object.__setattr__(self, "_index", index)

    @classmethod
    def make(cls, *symbols: tuple[str, float]) -> "SymbolBasis":
        return cls(tuple((name, float(value)) for name, value in symbols))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(
                f"symbol {name!r} is not declared in the basis") from None

    def zero(self) -> "Frequency":
        return Frequency._make(self, (0,) * self.size, 1)

    def symbol(self, name: str) -> "Frequency":
        """The frequency equal to one declared symbol."""
        num = [0] * self.size
        num[self.index(name)] = 1
        return Frequency._make(self, tuple(num), 1)

    def frequency(self, coeffs: Mapping[str, Fraction | int | str]) -> "Frequency":
        vec = [Fraction(0)] * self.size
        for name, q in coeffs.items():
            vec[self.index(name)] = Fraction(q)
        return Frequency(self, tuple(vec))


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


_setattr = object.__setattr__


def _init(f: "Frequency", basis: SymbolBasis, num: tuple[int, ...], den: int) -> None:
    _setattr(f, "basis", basis)
    _setattr(f, "num", num)
    _setattr(f, "den", den)
    _setattr(f, "_hash", hash((num, den)))


class Frequency:
    """Element of the frequency group: exact rational coefficients per symbol.

    Stored as an integer vector ``num`` over one positive denominator ``den``
    with gcd(den, *num) == 1, so equal rationals have one representation and
    the group law, hashing and comparison run on Python ints.
    """

    __slots__ = ("basis", "num", "den", "_hash")

    def __init__(self, basis: SymbolBasis, coeffs: Sequence[Fraction | int | str]):
        if len(coeffs) != basis.size:
            raise ValidationError(
                f"coefficient vector has length {len(coeffs)}, "
                f"basis has {basis.size} symbols"
            )
        qs = [Fraction(c) for c in coeffs]
        den = 1
        for q in qs:
            den = _lcm(den, q.denominator)
        num = tuple(q.numerator * (den // q.denominator) for q in qs)
        _init(self, basis, num, den)

    @classmethod
    def _make(cls, basis: SymbolBasis, num: tuple[int, ...], den: int) -> "Frequency":
        """Trusted constructor: ``num`` and ``den`` are already reduced."""
        f = object.__new__(cls)
        _init(f, basis, num, den)
        return f

    @classmethod
    def _reduced(cls, basis: SymbolBasis, num: tuple[int, ...], den: int) -> "Frequency":
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
        return cls._make(basis, num, den)

    def __setattr__(self, name, value):
        raise AttributeError("Frequency is immutable")

    def __delattr__(self, name):
        raise AttributeError("Frequency is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frequency):
            return NotImplemented
        return (self._hash == other._hash and self.den == other.den
                and self.num == other.num
                and (self.basis is other.basis or self.basis == other.basis))

    def __repr__(self) -> str:
        return f"Frequency({str(self)!r})"

    def __reduce__(self):
        return (Frequency, (self.basis, self.coeffs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The exact rational coefficient of each symbol."""
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    def _check(self, other: "Frequency") -> None:
        if self.basis is not other.basis and self.basis != other.basis:
            raise BasisMismatchError("frequencies live over different bases")

    def __add__(self, other: "Frequency") -> "Frequency":
        self._check(other)
        da, db = self.den, other.den
        if da == 1 and db == 1:
            return Frequency._make(self.basis, tuple(map(operator.add, self.num, other.num)), 1)
        L = _lcm(da, db)
        ma, mb = L // da, L // db
        num = tuple(a * ma + b * mb for a, b in zip(self.num, other.num))
        return Frequency._reduced(self.basis, num, L)

    def __sub__(self, other: "Frequency") -> "Frequency":
        return self + (-other)

    def __neg__(self) -> "Frequency":
        return Frequency._make(self.basis, tuple(map(operator.neg, self.num)), self.den)

    def scale(self, q: Fraction | int) -> "Frequency":
        if isinstance(q, int) and self.den == 1:
            return Frequency._make(self.basis, tuple(q * a for a in self.num), 1)
        q = Fraction(q)
        n = q.numerator
        return Frequency._reduced(
            self.basis, tuple(n * a for a in self.num), self.den * q.denominator
        )

    __rmul__ = scale
    __mul__ = scale

    def is_zero(self) -> bool:
        return not any(self.num)

    def real_value(self) -> float:
        """Floating evaluation against the declared symbol values."""
        # Each term is the correctly rounded value of its rational
        # coefficient times the symbol value, exactly as float(Fraction).
        # Zero coefficients are skipped: adding 0.0 changes no partial sum.
        den, num = self.den, self.num
        terms = compress(zip(num, self.basis.values), num)
        if den == 1:
            return float(sum(float(a) * v for a, v in terms))
        return float(sum((a / den) * v for a, v in terms))

    def sort_key(self):
        """Key ordering frequencies lexicographically by exact coefficients."""
        return self.num if self.den == 1 else self.coeffs

    def __str__(self) -> str:
        parts = []
        den = self.den
        for a, name in zip(self.num, self.basis.names):
            if a != 0:
                parts.append(f"{a if den == 1 else Fraction(a, den)}*{name}")
        return " + ".join(parts) if parts else "0"

    @classmethod
    def parse(cls, text: str, basis: SymbolBasis) -> "Frequency":
        """Parse the canonical text form, e.g. ``3/2*a + -1/4*b``.

        Whitespace is ignored; omitted symbols mean a zero coefficient;
        a bare name means coefficient one; ``0`` is the zero frequency.
        """
        compact = re.sub(r"\s+", "", text)
        if compact == "":
            raise ValidationError("empty frequency text")
        if compact == "0":
            return basis.zero()
        vec = [Fraction(0)] * basis.size
        for token in compact.split("+"):
            if token == "":
                raise ValidationError(f"malformed frequency text {text!r}")
            m = _TERM_RE.match(token)
            if m:
                try:
                    coeff = Fraction(m.group(1))
                except ZeroDivisionError:
                    raise ValidationError(
                        f"zero denominator in frequency term {token!r}") from None
                name = m.group(2)
                if name is None:
                    if coeff != 0:
                        raise ValidationError(
                            f"bare rational {token!r} needs a symbol name"
                        )
                    continue
            else:
                m = _BARE_RE.match(token)
                if not m:
                    raise ValidationError(f"malformed frequency term {token!r}")
                coeff = Fraction(-1 if m.group(1) == "-" else 1)
                name = m.group(2)
            vec[basis.index(name)] += coeff
        return cls(basis, tuple(vec))


def _shared_basis(freqs: Sequence[Frequency]) -> SymbolBasis:
    if not freqs:
        raise ValidationError("frequency set must be nonempty")
    basis = freqs[0].basis
    for f in freqs[1:]:
        if f.basis != basis:
            raise BasisMismatchError("frequencies live over different bases")
    return basis


def _integer_rows(freqs: Sequence[Frequency]):
    """Rows as integer vectors over one common denominator L.

    A common scale preserves the generated lattice (needed by
    torus_reduce).  Returns (rows, L).
    """
    L = 1
    for f in freqs:
        L = _lcm(L, f.den)
    if L == 1:
        return [list(f.num) for f in freqs], 1
    return [[a * (L // f.den) for a in f.num] for f in freqs], L


def rational_rank(freqs: Iterable[Frequency]) -> int:
    """Rank over the rationals of the coefficient matrix of the given
    frequencies: the row count of their lattice echelon (``torus_reduce``)."""
    freqs = list(freqs)
    _shared_basis(freqs)
    # Each row's own numerators: clearing a row's denominator keeps the rank.
    return len(_lattice_echelon([list(f.num) for f in freqs]))


def is_rationally_independent(freqs: Iterable[Frequency]) -> bool:
    freqs = list(freqs)
    return rational_rank(freqs) == len(freqs)


@dataclass(frozen=True)
class TorusReduction:
    """Integer exponent coordinates of a finite frequency set.

    Each input frequency equals the integer combination of ``reduced_basis``
    given by its row of ``exponents`` (an exact rational identity), and the
    reduced basis is rationally independent, so under Haar measure the
    characters at the reduced basis become independent uniform phases.
    """

    dim: int
    reduced_basis: tuple[Frequency, ...]
    exponents: tuple[tuple[int, ...], ...]

    def reconstruct(self, i: int) -> Frequency:
        basis = self.reduced_basis[0].basis if self.dim else None
        if self.dim == 0:
            raise ValidationError("zero-dimensional reduction has no basis rows")
        acc = basis.zero()
        for e, b in zip(self.exponents[i], self.reduced_basis):
            acc = acc + b.scale(e)
        return acc


def _pivot_col(row: list[int]) -> int:
    for c, v in enumerate(row):
        if v != 0:
            return c
    raise InternalInconsistencyError("zero row reached the lattice basis")


def _lattice_echelon(rows: list[list[int]]) -> list[list[int]]:
    """Hermite-style echelon basis of the lattice generated by integer rows."""
    ncols = len(rows[0]) if rows else 0
    work = [r[:] for r in rows if any(r)]
    basis: list[list[int]] = []
    for c in range(ncols):
        sub = [r for r in work if r[c] != 0]
        if not sub:
            continue
        rest = [r for r in work if r[c] == 0]
        while len(sub) > 1:
            sub.sort(key=lambda r: abs(r[c]))
            r0 = sub[0]
            keep = [r0]
            for r in sub[1:]:
                q = r[c] // r0[c]
                rr = [a - q * b for a, b in zip(r, r0)]
                if rr[c] != 0:
                    keep.append(rr)
                elif any(rr):
                    rest.append(rr)
            sub = keep
        piv = sub[0]
        if piv[c] < 0:
            piv = [-a for a in piv]
        basis.append(piv)
        work = rest
    # Reduce entries above each pivot so the output is canonical (HNF).
    for i in range(len(basis)):
        ci = _pivot_col(basis[i])
        for j in range(i):
            q = basis[j][ci] // basis[i][ci]
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return basis


def _express_in_basis(v: list[int], basis: list[list[int]], pivots: list[int]) -> list[int]:
    r = list(v)
    e = []
    for brow, c in zip(basis, pivots):
        q, rem = divmod(r[c], brow[c])
        if rem:
            raise InternalInconsistencyError("input row not in the lattice of its echelon basis")
        e.append(q)
        if q:
            r = [a - q * b for a, b in zip(r, brow)]
    if any(r):
        raise InternalInconsistencyError("nonzero residue in lattice back-substitution")
    return e


def torus_reduce(freqs: Sequence[Frequency]) -> TorusReduction:
    """Reduce a finite frequency list to integer exponents on a finite torus.

    The reduced basis generates the same lattice as the inputs, has
    ``dim == rational_rank(freqs)`` rows, and is canonically ordered by
    pivot position (Hermite normal form of the row lattice).
    """
    freqs = list(freqs)
    basis = _shared_basis(freqs)
    rows, L = _integer_rows(freqs)
    echelon = _lattice_echelon(rows)
    pivots = [_pivot_col(r) for r in echelon]
    exps = tuple(tuple(_express_in_basis(v, echelon, pivots)) for v in rows)
    reduced = tuple(Frequency._reduced(basis, tuple(row), L) for row in echelon)
    return TorusReduction(dim=len(echelon), reduced_basis=reduced, exponents=exps)
