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
import struct
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (BasisMismatchError, InternalInconsistencyError,
                     ValidationError, json_array, json_number)

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

    @classmethod
    def from_config(cls, entries) -> "SymbolBasis":
        """From a config ``basis`` array of {"name": ..., "value": ...}
        objects; a malformed entry raises the builtin error it causes."""
        return cls(tuple((e["name"], json_number(e["value"], "basis value"))
                         for e in json_array(entries, "basis")))

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


class Frequency:
    """Element of the frequency group: exact rational coefficients per symbol.

    Stored as an integer vector ``num`` over one positive denominator ``den``
    with gcd(den, *num) == 1, so equal rationals have one representation and
    the group law, hashing and comparison run on Python ints.
    """

    __slots__ = ("basis", "num", "den", "_hash")

    def __new__(cls, basis: SymbolBasis, coeffs: Sequence[Fraction | int | str]):
        if len(coeffs) != basis.size:
            raise ValidationError(
                f"coefficient vector has length {len(coeffs)}, "
                f"basis has {basis.size} symbols"
            )
        qs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(q.denominator for q in qs))
        return cls._make(basis, tuple(q.numerator * (den // q.denominator) for q in qs), den)

    @classmethod
    def _make(cls, basis: SymbolBasis, num: tuple[int, ...], den: int) -> "Frequency":
        """The one constructor: integer numerators over ``den`` > 0, reduced here."""
        if den != 1 and (g := math.gcd(den, *num)) != 1:
            num, den = tuple(a // g for a in num), den // g
        f = object.__new__(cls)
        object.__setattr__(f, "basis", basis)
        object.__setattr__(f, "num", num)
        object.__setattr__(f, "den", den)
        object.__setattr__(f, "_hash", hash((num, den)))
        return f

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
        L = math.lcm(self.den, other.den)
        ma, mb = L // self.den, L // other.den
        num = tuple(a * ma + b * mb for a, b in zip(self.num, other.num))
        return Frequency._make(self.basis, num, L)

    def __sub__(self, other: "Frequency") -> "Frequency":
        return self + (-other)

    def __neg__(self) -> "Frequency":
        return Frequency._make(self.basis, tuple(map(operator.neg, self.num)), self.den)

    def scale(self, q: Fraction | int) -> "Frequency":
        q = Fraction(q)
        n, d = q.numerator, q.denominator
        return Frequency._make(self.basis, tuple(n * a for a in self.num), self.den * d)

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


#: Cap on the int64 entries of one block of pair sums in ``mul_numerators``
#: (1 MiB).  A fold near the support cap holds 23M pair entries, and its
#: peak resident size rose by 40 MB with blocks of 2^20.
_PAIR_ENTRIES = 1 << 17

#: Fewest pairs for which ``mul_numerators`` adds with numpy; below
#: it the fixed cost of the arrays (about 9 us) is more than the tuple sums.
_NUMPY_PAIRS = 32

#: Bound on every input numerator of an int64 pair sum: 2 * bound = 2^63.
_INT64_HALF = 1 << 62


def mul_terms(a: Mapping[Frequency, object],
              b: Mapping[Frequency, object]) -> dict[Frequency, object]:
    """Product of two sparse polynomials held as term dicts (frequency ->
    coefficient), with exactly the items and order of the loop

        for fa, ca in a.items():
            for fb, cb in b.items():
                out[fa + fb] = out[fa + fb] + ca * cb  # or ca * cb when new

    The numerators go over one common denominator, ``mul_numerators``
    multiplies them, and each distinct sum becomes one ``Frequency`` in
    one ``_frequencies`` call.
    """
    if not a or not b:
        return {}
    basis = _shared_basis([*a, *b])
    L = math.lcm(*(f.den for f in a), *(f.den for f in b))
    out = mul_numerators(*({_numerators(f, L): c for f, c in terms.items()}
                           for terms in (a, b)))
    return _keyed(basis, out, L)


def mul_numerators(a: Mapping[tuple[int, ...], object],
                   b: Mapping[tuple[int, ...], object]) -> dict[tuple[int, ...], object]:
    """Product of two sparse polynomials whose terms are keyed by integer
    numerator tuples over one shared denominator, with exactly the items
    and order of the loop

        for xa, ca in a.items():
            for xb, cb in b.items():
                x = tuple(map(operator.add, xa, xb))
                out[x] = out[x] + ca * cb  # or ca * cb when new

    Equal sums add their coefficient products in pair order.  The pairs
    of a block of rows of ``a`` are added in one numpy int64 pass when the
    product has at least ``_NUMPY_PAIRS`` pairs and no sum can leave int64
    (every |numerator| below 2^62), else as tuples of Python ints; the
    tuples' hash and equality run in C, and no ``Frequency`` is built.
    """
    if not a or not b:
        return {}
    rows_a, rows_b = list(a), list(b)
    n, m, d = len(rows_a), len(rows_b), len(rows_a[0])
    both = _int64_rows(rows_a + rows_b) if n * m >= _NUMPY_PAIRS else None
    ca, cb = list(a.values()), list(b.values())
    row = struct.Struct(f"{d}q")
    step = max(1, _PAIR_ENTRIES // (m * d))
    out: dict[tuple[int, ...], object] = {}
    for i in range(0, n, step):
        if both is None:
            keys = [tuple(map(operator.add, x, y))
                    for x in rows_a[i:i + step] for y in rows_b]
        else:
            # One tuple per row of sums, unpacked from their buffer: no
            # list of ints, which the cyclic collector scanned while the
            # keys were built.
            keys = list(row.iter_unpack(both[i:min(i + step, n), None] + both[n:]))
        prods = [x * y for x in ca[i:i + step] for y in cb]
        block = dict(zip(keys, prods))
        # Two key views: isdisjoint then walks the smaller one.
        if len(block) == len(keys) and out.keys().isdisjoint(block.keys()):
            out.update(block)
            continue
        get = out.get
        for k, c in zip(keys, prods):
            old = get(k)
            out[k] = c if old is None else old + c
    return out


def _numerators(f: Frequency, den: int) -> tuple[int, ...]:
    """The numerators of ``f`` over ``den``, a multiple of ``f.den``."""
    return f.num if f.den == den else tuple(x * (den // f.den) for x in f.num)


def _int64_rows(rows: list[tuple[int, ...]]):
    """``rows`` as an int64 array when every entry is below 2^62 in
    magnitude, so that the sum of any two fits; otherwise None."""
    try:
        x = np.array(rows, dtype=np.int64)
    except OverflowError:
        return None
    return x if -_INT64_HALF < x.min() and x.max() < _INT64_HALF else None


def _frequencies(basis: SymbolBasis, nums: list[tuple[int, ...]],
                 den: int) -> list[Frequency]:
    """The reduced frequencies num / den, one per num in ``nums``.  Each
    attribute is set over the whole list by one ``map``, which takes about
    half the time of a ``_make`` call per frequency."""
    if den == 1:
        dens = repeat(1)
    else:
        gs = [math.gcd(den, *num) for num in nums]
        nums = [num if g == 1 else tuple(x // g for x in num)
                for num, g in zip(nums, gs)]
        dens = [den // g for g in gs]
    out = list(map(object.__new__, repeat(Frequency, len(nums))))
    for name, values in (("basis", repeat(basis)), ("num", nums), ("den", dens),
                         ("_hash", map(hash, zip(nums, dens)))):
        deque(map(getattr(Frequency, name).__set__, out, values), 0)
    return out


def _keyed(basis: SymbolBasis, terms: Mapping[tuple[int, ...], object],
           den: int) -> dict[Frequency, object]:
    """``terms`` with each numerator tuple over ``den`` read as its ``Frequency``."""
    return dict(zip(_frequencies(basis, list(terms), den), terms.values()))


def _shared_basis(freqs: Sequence[Frequency]) -> SymbolBasis:
    if not freqs:
        raise ValidationError("frequency set must be nonempty")
    basis = freqs[0].basis
    for f in freqs[1:]:
        if f.basis != basis:
            raise BasisMismatchError("frequencies live over different bases")
    return basis


def _integer_rows(freqs: Sequence[Frequency]):
    """Rows as integer tuples (``_numerators``) over one common denominator L.

    A common scale preserves the generated lattice (needed by
    torus_reduce).  Returns (rows, L).
    """
    L = math.lcm(*(f.den for f in freqs))
    return [_numerators(f, L) for f in freqs], L


def rational_rank(freqs: Iterable[Frequency]) -> int:
    """Rank over the rationals of the coefficient matrix of the given
    frequencies: the row count of their lattice echelon (``torus_reduce``)."""
    freqs = list(freqs)
    _shared_basis(freqs)
    # Each row's own numerators: clearing a row's denominator keeps the rank.
    return len(_lattice_echelon([list(f.num) for f in freqs])[0])


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


def _lattice_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Hermite-style echelon basis of the lattice generated by integer
    rows, and the pivot column of each basis row."""
    ncols = len(rows[0]) if rows else 0
    work = [r[:] for r in rows if any(r)]
    basis: list[list[int]] = []
    pivots: list[int] = []
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
        pivots.append(c)
        work = rest
    # Reduce entries above each pivot so the output is canonical (HNF).
    for i, ci in enumerate(pivots):
        for j in range(i):
            q = basis[j][ci] // basis[i][ci]
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return basis, pivots


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
    echelon, pivots = _lattice_echelon(rows)
    exps = tuple(tuple(_express_in_basis(v, echelon, pivots)) for v in rows)
    reduced = tuple(Frequency._make(basis, tuple(row), L) for row in echelon)
    return TorusReduction(dim=len(echelon), reduced_basis=reduced, exponents=exps)
