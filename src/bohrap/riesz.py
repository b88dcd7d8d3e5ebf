"""Rank-one flow parameters and Riesz-product bookkeeping.

The construction: cut numbers p_k >= 2 and nonnegative spacers s_{k,0..p_k}
(with s_{k,0} = 0) define heights h_0 = 1, h_{k+1} = p_k h_k + sum_l s_{k,l}
and stage polynomials

    P_k(t) = (1/sqrt(p_k)) * sum_{j<p_k} e^{i t (j h_k + s_{k,0}+...+s_{k,j-1})}.

Everything height- and frequency-shaped is exact.  P_k itself is a float
``APPoly``; |P_k|^2 and the partial products Q_n are held exactly, as integer
counts over one denominator: p_k |P_k|^2 counts the exponent pairs (i, j)
at each difference e_i - e_j, and a ``RieszState`` holds Q_n's counts over
p_0 ... p_n.  Every height, exponent and count frequency lies over one
frequency denominator, ``RankOneParams.freq_den``, and every count frequency
lies in one box of numerators over it, ``RankOneParams.count_code``.  So
the counts are keyed by one int each, the linear code of their numerators,
every product runs on them through ``freqspace.mul_numerators``, and a
``Frequency`` is decoded only where a caller reads one (``abs2_polynomial``,
``RieszState.counts`` and ``sigma_hat_table``).  So sigma-hat values and the
probability normalization are checked with exact equality.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain, compress
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .appoly import APPoly
from .errors import (BasisMismatchError, SupportCapError, ValidationError,
                     check_int, json_array, json_int)
from .freqspace import (Frequency, NumeratorCode, SymbolBasis, _frequencies, _keyed,
                        _numerators, is_rationally_independent, mul_numerators)

DEFAULT_SUPPORT_CAP = 1_000_000


@dataclass(frozen=True)
class Stage:
    """One cutting stage: cut number p and spacers s_0..s_p (s_0 = 0)."""

    p: int
    spacers: tuple[Frequency, ...]

    def __post_init__(self):
        check_int(self.p, "cut number", 2)
        if len(self.spacers) != self.p + 1:
            raise ValidationError(
                f"stage with p={self.p} needs {self.p + 1} spacers, "
                f"got {len(self.spacers)}"
            )
        if not self.spacers[0].is_zero():
            raise ValidationError("the first spacer s_{k,0} must be zero")
        for j, s in enumerate(self.spacers):
            if s.real_value() < 0:
                raise ValidationError(f"spacer {j} has negative real value")


@dataclass(frozen=True)
class RankOneParams:
    """The full parameter sequence of a rank-one flow, over one basis."""

    basis: SymbolBasis
    unit: Frequency
    stages: tuple[Stage, ...]

    def __post_init__(self):
        if self.unit.basis != self.basis:
            raise BasisMismatchError("unit frequency over a different basis")
        if self.unit.real_value() != 1.0:
            raise ValidationError("the unit frequency must evaluate to exactly 1")
        for k, st in enumerate(self.stages):
            for s in st.spacers:
                if s.basis != self.basis:
                    raise BasisMismatchError(f"stage {k} spacer over a different basis")

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @cached_property
    def freq_den(self) -> int:
        """The one denominator of every height, stage exponent and count
        frequency: the lcm of the unit's and the spacers' denominators."""
        return math.lcm(self.unit.den,
                        *(s.den for st in self.stages for s in st.spacers))

    @cached_property
    def _spacer_terms(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """Each stage's spacers as the (coordinate, numerator over
        ``freq_den``) pairs of their nonzero numerators."""
        den = self.freq_den
        return tuple(tuple(tuple((c, num[c]) for c in compress(range(len(num)), num))
                           for num in (_numerators(s, den) for s in st.spacers))
                     for st in self.stages)

    @cached_property
    def _height_nums(self) -> tuple[tuple[int, ...], ...]:
        """The numerators over ``freq_den`` of h_0..h_{n_stages}, in
        integers, computed once per parameter set."""
        out = [_numerators(self.unit, self.freq_den)]
        for st, spacers in zip(self.stages, self._spacer_terms):
            h = list(map(st.p.__mul__, out[-1]))
            for c, x in chain.from_iterable(spacers):
                h[c] += x
            out.append(tuple(h))
        return tuple(out)

    @cached_property
    def count_code(self) -> NumeratorCode:
        """The code of every count frequency's numerators over ``freq_den``,
        built on the first exact fold.  Its bound on coordinate c is
        sum_k w_{k,c}, with w_{k,c} = (p_k - 1)|h_{k,c}| + sum_j |s_{k,j,c}|
        at least the spread max_j e_{k,j,c} - min_j e_{k,j,c} of stage k's
        exponents, so the box holds every exponent and every sum of one
        exponent difference per stage; no exponent is enumerated."""
        qs = [st.p - 1 for st in self.stages]
        # map stops at the shorter qs: h_{n_stages} takes no part.
        bounds = [sum(map(operator.mul, qs, map(abs, col)))
                  for col in zip(*self._height_nums)]
        for spacers in self._spacer_terms:
            for c, x in chain.from_iterable(spacers):
                bounds[c] += abs(x)
        return NumeratorCode(bounds)

    @cached_property
    def heights(self) -> tuple[Frequency, ...]:
        """h_0..h_{n_stages}, computed once per parameter set."""
        return tuple(_frequencies(self.basis, list(self._height_nums), self.freq_den))

    def stage(self, k: int) -> Stage:
        if check_int(k, "stage index") >= len(self.stages):
            raise ValidationError(f"stage index {k} out of range")
        return self.stages[k]

    @classmethod
    def from_config(cls, doc: dict) -> "RankOneParams":
        """Build from a config document with basis, unit and stage lists.

        A field of the wrong type or shape raises the builtin error it
        causes; the CLI reports those as malformed input.  Cut numbers must
        be JSON integers, basis values JSON numbers and the lists JSON
        arrays; none is coerced.
        """
        basis = SymbolBasis.from_config(doc["basis"])
        unit = basis.symbol(doc.get("unit", basis.names[0]))
        stages = tuple(
            Stage(p=json_int(st["p"], "p"),
                  spacers=tuple(Frequency.parse(text, basis)
                                for text in json_array(st["spacers"], "spacers")))
            for st in json_array(doc.get("stages", []), "stages"))
        return cls(basis=basis, unit=unit, stages=stages)


def heights(params: RankOneParams, k: int) -> Frequency:
    """h_k: h_0 = 1 and h_{k+1} = p_k h_k + sum of all stage-k spacers."""
    if check_int(k, "height index") > params.n_stages:
        raise ValidationError(f"height index {k} out of range")
    return params.heights[k]


def spacer_sum(params: RankOneParams, n: int, p: int, q: int) -> Frequency:
    """s-check_{n,p,q}: the spacer sum over j in [min(p,q), max(p,q))."""
    st = params.stage(n)
    if not (0 <= p <= st.p - 1 and 0 <= q <= st.p - 1):
        raise ValidationError("spacer-sum indices out of range")
    lo, hi = min(p, q), max(p, q)
    acc = params.basis.zero()
    for j in range(lo, hi):
        acc = acc + st.spacers[j]
    return acc


def _exponent_nums(params: RankOneParams, k: int) -> list[tuple[int, ...]]:
    """The numerators over ``params.freq_den`` of the p_k exponents
    j*h_k + s_{k,0} + ... + s_{k,j-1} of stage k."""
    st = params.stage(k)
    den = params.freq_den
    h = params._height_nums[k]
    out = []
    acc = (0,) * params.basis.size
    for j in range(st.p):
        out.append(tuple(j * x + y for x, y in zip(h, acc)))
        acc = tuple(map(operator.add, acc, _numerators(st.spacers[j], den)))
    return _distinct_exponents(out, k)


def _distinct_exponents(exps: list, k: int) -> list:
    """``exps``, stage k's exponents as numerator tuples or codes, refused
    when two are equal."""
    if len(set(exps)) != len(exps):
        raise ValidationError(
            f"stage {k} exponents collide; degenerate rank-one parameters"
        )
    return exps


def stage_exponents(params: RankOneParams, k: int) -> list[Frequency]:
    """The p_k exponents j*h_k + s_{k,0} + ... + s_{k,j-1} of stage k."""
    return _frequencies(params.basis, _exponent_nums(params, k), params.freq_den)


def build_polynomial(params: RankOneParams, k: int) -> APPoly:
    """P_k with floating coefficients 1/sqrt(p_k); unit L2 norm."""
    st = params.stage(k)
    c = 1.0 / math.sqrt(st.p)
    return APPoly.from_terms(
        params.basis, [(f, c) for f in stage_exponents(params, k)]
    )


def _exponent_codes(params: RankOneParams, k: int) -> list[int]:
    """The codes (``RankOneParams.count_code``) of the p_k exponents of
    stage k, by linearity: j code(h_k) + code(s_{k,0}) + ... + code(s_{k,j-1})."""
    st = params.stage(k)
    code = params.count_code
    shifts = code.shifts
    h = code.encode(params._height_nums[k])
    out, acc = [], 0
    for j, spacer in zip(range(st.p), params._spacer_terms[k]):
        out.append(j * h + acc)
        acc += sum(x << shifts[c] for c, x in spacer)
    return _distinct_exponents(out, k)


def _abs2_counts(params: RankOneParams, k: int) -> dict[int, int]:
    """p_k |P_k|^2 as integer pair counts keyed by the code of their
    numerators: the number of exponent pairs (i, j) with e_i - e_j at each
    difference, in first-pair order."""
    exps = _exponent_codes(params, k)
    return mul_numerators(dict.fromkeys(exps, 1), dict.fromkeys([-e for e in exps], 1))


def abs2_polynomial(params: RankOneParams, k: int) -> dict[Frequency, int]:
    """p_k |P_k|^2 as integer pair counts: frequency -> number of exponent
    pairs (i, j) with e_i - e_j at that frequency.  |P_k|^2 is these counts
    over p_k; the count at zero is p_k.  The name is kept because
    perfbench/tracing.py wraps this function through it."""
    return _keyed(params.basis, params.count_code, _abs2_counts(params, k),
                  params.freq_den)


def _fold(counts: dict[int, int], params: RankOneParams, k: int,
          cap: int) -> dict[int, int]:
    """``counts`` times p_k |P_k|^2, refused when the product could hold
    more than ``cap`` terms (len(counts) p_k^2 > cap)."""
    p = params.stage(k).p
    if len(counts) * p * p > cap:
        raise SupportCapError(
            f"folding in stage {k} would exceed the support cap {cap}")
    return mul_numerators(counts, _abs2_counts(params, k))


def _product_mean(params: RankOneParams, indices: Sequence[int]) -> Fraction:
    """Exact mean of the product of |P_k|^2 over ``indices``: all factors
    but the last are multiplied out, under the support cap as in
    ``extend``, and the last is paired with them as sum_f A[f] B[-f], so
    the full product is never formed; the code of -f is minus f's."""
    if not indices:
        return Fraction(1)
    *head, last = indices
    if len(set(head)) != len(head):
        # The count code's box holds one exponent difference per stage.
        raise ValidationError("a stage repeats among the multiplied-out factors")
    a, den = {0: 1}, params.stage(last).p
    for k in head:
        a = _fold(a, params, k, DEFAULT_SUPPORT_CAP)
        den *= params.stage(k).p
    get = a.get
    b = _abs2_counts(params, last)
    return Fraction(sum(c * get(-x, 0) for x, c in b.items()), den)


@dataclass(frozen=True)
class SigmaHatValue:
    value: Fraction
    on_support: bool  # False means this is sigma-hat_n = 0, not the limit


@dataclass(frozen=True)
class RieszState:
    """Partial Riesz product after folding stages 0..n.

    Q = |P_0 ... P_n|^2, the product of the exact stage |P_k|^2, held as
    positive integer counts over one denominator ``den`` = p_0 ... p_n.
    ``codes`` keys each count by the code (``params.count_code``) of its
    frequency's numerators over ``params.freq_den``, in fold order.
    """

    params: RankOneParams
    n: int  # index of the last folded stage; -1 for the empty product
    codes: dict[int, int] = field(repr=False)
    den: int

    # perfbench/workloads.py reads ``states[-1].Q.mean().re``; ``Q`` and
    # ``mean`` are the read-only surface that keeps that reader working.
    @property
    def Q(self) -> "RieszState":
        """Q's counts and denominator: the state itself."""
        return self

    def mean(self) -> SimpleNamespace:
        """The mean of Q, sigma-hat(0), as exact ``re`` and ``im`` parts."""
        return SimpleNamespace(re=self.sigma_hat(self.params.basis.zero()).value,
                               im=Fraction(0))

    @property
    def counts(self) -> dict[Frequency, int]:
        """Q's counts keyed by frequency, in fold order; the keys are
        decoded on each read."""
        params = self.params
        return _keyed(params.basis, params.count_code, self.codes, params.freq_den)

    def sigma_hat(self, lam: Frequency) -> SigmaHatValue:
        """sigma-hat_n(lam), read at the code of lam's numerators over
        ``freq_den``.  lam is off the support when its denominator does not
        divide ``freq_den`` or its numerators leave the code's box, where
        the code of another frequency could alias it."""
        if lam.basis != self.params.basis:
            raise BasisMismatchError("frequency over a different basis")
        fd, code = self.params.freq_den, self.params.count_code
        c = None
        if not fd % lam.den and code.contains(num := _numerators(lam, fd)):
            c = self.codes.get(code.encode(num))
        if c is None:
            return SigmaHatValue(value=Fraction(0), on_support=False)
        return SigmaHatValue(value=Fraction(c, self.den), on_support=True)

    def sigma_hat_table(self) -> dict[Frequency, Fraction]:
        """Every sigma-hat value on the support, in frequency order.  Code
        order is numerator order, which over one denominator is the order
        of the exact coefficients (``Frequency.sort_key``); the codes are
        sorted and decoded in one pass.  The counts take few distinct
        values, so each value's ``Fraction`` is built once."""
        params, den = self.params, self.den
        perm, nums = params.count_code.decode_sorted(list(self.codes))
        counts = list(self.codes.values())
        value = {c: Fraction(c, den) for c in set(counts)}
        freqs = _frequencies(params.basis, nums, params.freq_den)
        return dict(zip(freqs, map(value.__getitem__, map(counts.__getitem__, perm))))


def initial_state(params: RankOneParams) -> RieszState:
    return RieszState(params=params, n=-1, codes={0: 1}, den=1)


def extend(state: RieszState, k: int,
           support_cap: int = DEFAULT_SUPPORT_CAP) -> RieszState:
    """Fold stage k = state.n + 1 into the partial product."""
    if k != state.n + 1:
        raise ValidationError(
            f"extend expects stage {state.n + 1}, got {k}"
        )
    return RieszState(
        params=state.params,
        n=k,
        codes=_fold(state.codes, state.params, k, support_cap),
        den=state.den * state.params.stage(k).p,
    )


def riesz_property_check(params: RankOneParams,
                         indices: Sequence[int]) -> Fraction:
    """Exact mean of the product of |P_{n_j}|^2 over a strictly increasing index set."""
    indices = list(indices)
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValidationError("indices must be strictly increasing")
    return _product_mean(params, indices)


@dataclass(frozen=True)
class DegreeReport:
    degrees: tuple[float, ...]  # d_m for each requested index
    heights: tuple[float, ...]  # h_0..h_{n_stages} as real values
    q_k: float  # sum of the requested degrees
    checks: tuple[tuple[str, float, float, bool], ...]  # (name, lhs, rhs, holds)
    all_hold: bool


#: Relative slack of the degree-report comparisons of real values.
_DEGREE_REL_TOL = 1e-9


def degree_report(params: RankOneParams, indices: Sequence[int]) -> DegreeReport:
    """Degree bookkeeping: d_m < h_{m+1}, h_m <= h_{m+1}/2, q_k < h_{n_k+1}.

    Degrees are computed from the actual polynomial supports, not from the
    closed-form identity (see the telescoping bound); q_k is the telescoped
    sum of the per-stage degrees.
    """
    indices = sorted(set(indices))
    if not indices:
        raise ValidationError("need at least one stage index")
    hs = [h.real_value() for h in params.heights]
    degs = []
    checks = []

    def leq(x, y):
        return x <= y * (1.0 + _DEGREE_REL_TOL) + _DEGREE_REL_TOL

    def lt(x, y):
        return x < y * (1.0 + _DEGREE_REL_TOL) + _DEGREE_REL_TOL

    for m in indices:
        d = build_polynomial(params, m).degree()
        degs.append(d)
        checks.append((f"d_{m} < h_{m + 1}", d, hs[m + 1], lt(d, hs[m + 1])))
    for m in range(params.n_stages):
        checks.append((
            f"h_{m} <= h_{m + 1}/2", hs[m], hs[m + 1] / 2.0,
            leq(hs[m], hs[m + 1] / 2.0),
        ))
    q_k = float(sum(degs))
    top = indices[-1]
    checks.append((
        f"q_k < h_{top + 1}", q_k, hs[top + 1], lt(q_k, hs[top + 1])
    ))
    return DegreeReport(
        degrees=tuple(degs),
        heights=tuple(hs),
        q_k=q_k,
        checks=tuple(checks),
        all_hold=all(c[3] for c in checks),
    )


def validate_main_hypothesis(params: RankOneParams,
                             indices: Sequence[int]) -> dict[int, bool]:
    """Check, per designated stage, that the height and the (nonzero) spacers
    are rationally independent in the symbol model.

    The forced s_{m,0} = 0 is excluded: a set containing the zero frequency
    is never independent, and the singularity argument only ever uses the
    remaining spacers.
    """
    out = {}
    for m in indices:
        st = params.stage(m)
        freqs = [heights(params, m)] + list(st.spacers[1:st.p])
        out[m] = is_rationally_independent(freqs)
    return out


def make_independent_params(cuts: Sequence[int], seed: int = 0) -> RankOneParams:
    """Rank-one parameters whose spacers are fresh independent symbols.

    Each stage k gets p_k fresh symbols s{k}_{1..p_k}; s_{k,0} is zero.  The
    symbol values are only used for real-line evaluation and degrees, so any
    positive values do; they are drawn reproducibly from the seed, uniformly
    in [0.1, 0.9).
    """
    rng = np.random.default_rng(check_int(seed, "seed"))
    cuts = [check_int(p, "cut number", 2) for p in cuts]
    symbols = [("one", 1.0)]
    for k, p in enumerate(cuts):
        for j in range(1, p + 1):
            symbols.append((f"s{k}_{j}", float(rng.uniform(0.1, 0.9))))
    basis = SymbolBasis(tuple(symbols))
    stages = []
    for k, p in enumerate(cuts):
        spacers = [basis.zero()]
        for j in range(1, p + 1):
            spacers.append(basis.symbol(f"s{k}_{j}"))
        stages.append(Stage(p=p, spacers=tuple(spacers)))
    return RankOneParams(basis=basis, unit=basis.symbol("one"), stages=tuple(stages))
