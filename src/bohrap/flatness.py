"""Flatness suite: polynomial family constructors and flatness measurements.

Families with exact frequencies (Littlewood, Newman, unimodular) live in
the sparse Fourier algebra; the locally-flat family with exponentially
spaced real frequencies is a separate float-frequency type, since its
frequencies have no useful rational structure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .appoly import APPoly, trig_sum
from .bohrint import (Budget, IntegralEstimate, QuadratureResult,
                      TorusEvaluator, independent_phase_mean_abs,
                      interval_l1_distortion, mean_abs)
from .errors import ValidationError, json_array, json_int, json_number
from .freqspace import Frequency, SymbolBasis

_KINDS = ("littlewood", "newman", "unimodular", "prikhodko")

#: Default generator value for the arithmetic-progression frequency rule.
_DEFAULT_ALPHA = math.sqrt(2.0)

#: Most terms x points that ``ultraflat_deviation`` evaluates at once.
_EVAL_ENTRIES = 1 << 20


class RealFreqPoly:
    """Trigonometric polynomial with floating-point real frequencies.

    Used for families whose frequencies are transcendental-like reals with
    no declared rational structure; supports real-line evaluation and the
    Parseval norm, but no Bohr-group reduction.
    """

    __slots__ = ("freqs", "coeffs")

    def __init__(self, freqs: Sequence[float], coeffs: Sequence[complex]):
        freqs = np.asarray(freqs, dtype=float)
        coeffs = np.asarray(coeffs, dtype=complex)
        if freqs.ndim != 1 or freqs.shape != coeffs.shape:
            raise ValidationError("frequency and coefficient lists must match")
        if freqs.size == 0:
            raise ValidationError("polynomial must have at least one term")
        if len(np.unique(freqs)) != freqs.size:
            raise ValidationError("duplicate frequencies")
        order = np.argsort(freqs)
        self.freqs = freqs[order]
        self.coeffs = coeffs[order]

    def __len__(self) -> int:
        return int(self.freqs.size)

    def eval_real(self, t) -> np.ndarray:
        return trig_sum(t, zip(self.freqs, self.coeffs))

    def l2_norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def l2_norm(self) -> float:
        return math.sqrt(self.l2_norm_sq())

    def degree(self) -> float:
        return float(np.abs(self.freqs).max())


Poly = Union[APPoly, RealFreqPoly]


@dataclass(frozen=True)
class PolyFamilySpec:
    """Constructor recipe for one flatness-family polynomial.

    For the exact kinds, ``coefficients`` follows the kind's coefficient
    rule (signs, indicators, or phases) and ``frequencies`` overrides the
    default arithmetic progression j*alpha.  The locally-flat kind instead
    takes (m_n, p_n, eps_n) and generates the exponentially spaced
    frequencies w(p) = (m_n p_n / eps_n^2) e^{(eps_n/p_n) p}.
    """

    kind: str
    n: int
    coefficients: tuple | None = None
    frequencies: tuple[Frequency, ...] | None = None
    basis: SymbolBasis | None = None
    m_n: int = 1
    eps_n: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown family kind {self.kind!r}")
        if self.n < 1:
            raise ValidationError("family size must be positive")
        if self.kind == "prikhodko":
            if not 0 < self.eps_n < 1:
                raise ValidationError("eps_n must be a rational in (0, 1)")
            if self.m_n < 1:
                raise ValidationError("m_n must be a positive integer")

    @classmethod
    def from_config(cls, doc: dict) -> "PolyFamilySpec":
        """Build from a config document.

        A field of the wrong type or shape raises the builtin error it
        causes; the CLI reports those as malformed input.  Sizes, signs and
        indicators must be JSON integers, phases and basis values JSON
        numbers and the lists JSON arrays; none is coerced.
        """
        kind = doc.get("kind")
        n = json_int(doc.get("n", 0), "n")
        if kind == "prikhodko":
            return cls(kind=kind, n=n,
                       m_n=json_int(doc.get("m_n", 1), "m_n"),
                       eps_n=Fraction(str(doc.get("eps_n", "1/2"))))
        coeffs = None
        if "coefficients" in doc:
            # Signs and indicators are integers, phases any number.
            entry = json_number if kind == "unimodular" else json_int
            coeffs = tuple(entry(c, "coefficient")
                           for c in json_array(doc["coefficients"], "coefficients"))
        basis = freqs = None
        if "basis" in doc:
            basis = SymbolBasis(tuple((e["name"], json_number(e["value"], "basis value"))
                                      for e in json_array(doc["basis"], "basis")))
        if "frequencies" in doc:
            if basis is None:
                raise ValidationError("frequency overrides need a basis")
            freqs = tuple(Frequency.parse(s, basis)
                          for s in json_array(doc["frequencies"], "frequencies"))
        return cls(kind=kind, n=n, coefficients=coeffs,
                   frequencies=freqs, basis=basis)


def _progression(spec: PolyFamilySpec) -> tuple[SymbolBasis, tuple[Frequency, ...]]:
    if spec.frequencies is not None:
        if len(spec.frequencies) != spec.n:
            raise ValidationError("need one frequency per term")
        if len(set(spec.frequencies)) != spec.n:
            raise ValidationError("duplicate frequencies")
        return spec.frequencies[0].basis, spec.frequencies
    basis = spec.basis or SymbolBasis.make(("alpha", _DEFAULT_ALPHA))
    alpha = basis.symbol(basis.names[0])
    return basis, tuple(alpha.scale(j) for j in range(spec.n))


def prikhodko_frequencies(p_n: int, m_n: int, eps_n: Fraction) -> np.ndarray:
    """w(p) = (m_n p_n / eps_n^2) e^{(eps_n / p_n) p} for p = 0..p_n-1.

    Strictly increasing by construction; the scale m_n p_n / eps_n^2 keeps
    consecutive gaps well above the float resolution.
    """
    scale = m_n * p_n / float(eps_n) ** 2
    rate = float(eps_n) / p_n
    w = scale * np.exp(rate * np.arange(p_n))
    if not np.all(np.diff(w) > 0):
        raise ValidationError("generated frequencies are not strictly increasing")
    return w


def build_family(spec: PolyFamilySpec) -> Poly:
    """Instantiate one polynomial of the requested family."""
    if spec.kind == "prikhodko":
        w = prikhodko_frequencies(spec.n, spec.m_n, spec.eps_n)
        c = np.full(spec.n, 1.0 / math.sqrt(spec.n))
        return RealFreqPoly(w, c)
    basis, freqs = _progression(spec)
    if spec.kind == "littlewood":
        coeffs = spec.coefficients or (1,) * spec.n
        if len(coeffs) != spec.n or any(c not in (1, -1) for c in coeffs):
            raise ValidationError("sign sequence must be +1/-1 of the family size")
        items = [(f, float(c)) for f, c in zip(freqs, coeffs)]
    elif spec.kind == "newman":
        coeffs = spec.coefficients or (1,) * spec.n
        if len(coeffs) != spec.n or any(c not in (0, 1) for c in coeffs):
            raise ValidationError("indicator sequence must be 0/1 of the family size")
        if coeffs[0] != 1:
            raise ValidationError("the constant term of this family must be 1")
        items = [(f, 1.0) for f, c in zip(freqs, coeffs) if c == 1]
    else:  # unimodular
        phases = spec.coefficients or (0.0,) * spec.n
        if len(phases) != spec.n:
            raise ValidationError("need one phase per term")
        items = [(f, cmath.exp(1j * float(ph))) for f, ph in zip(freqs, phases)]
    return APPoly.from_terms(basis, items)


# ---------------------------------------------------------------------------
# Measurements


def flatness_ratio(p: APPoly, budget: Budget = Budget()) -> IntegralEstimate:
    """|P|_1 / |P|_2; flat families drive this toward 1 from below."""
    l2 = p.l2_norm()
    if l2 == 0.0:
        raise ValidationError("flatness ratio of the zero polynomial is undefined")
    est = mean_abs(p, budget)
    return IntegralEstimate(
        value=est.value / l2, std_error=est.std_error / l2,
        method=est.method, nodes_or_samples=est.nodes_or_samples,
        seed=est.seed, torus_dim=est.torus_dim,
        refinement_delta=est.refinement_delta / l2,
    )


def _stable_max(sample, n0: int, tol: float, cap: int) -> float:
    n = n0
    prev = sample(n)
    while True:
        n *= 2
        if n > cap:
            return prev
        cur = sample(n)
        if abs(cur - prev) < tol:
            return cur
        prev = cur


def ultraflat_deviation(p: Poly, tol: float = 1e-3,
                        max_points: int = 1 << 22, seed: int = 0) -> float:
    """max over t of | |P(t)| / |P|_2 - 1 |, by grid refinement.

    Exact-frequency polynomials are scanned on their reduced torus by the
    shared ``TorusEvaluator`` (a midpoint grid in one dimension once it has
    more points than twice the largest exponent, seeded uniform points in
    full phase precision otherwise); float-frequency ones on a long real
    interval.  The point count doubles until the maximum is stable to
    ``tol``.
    """
    l2 = p.l2_norm()
    if l2 == 0.0:
        raise ValidationError("the zero polynomial has no flatness deviation")
    n0 = 64 * len(p)

    if isinstance(p, RealFreqPoly):
        gaps = np.diff(p.freqs)
        span = 200.0 * 2.0 * math.pi / float(gaps.min()) if gaps.size else 2.0 * math.pi

        def sample(n):
            t = np.linspace(0.0, span, n)
            return float(np.abs(np.abs(p.eval_real(t)) / l2 - 1.0).max())

        return _stable_max(sample, n0, tol, max_points)

    ev = TorusEvaluator.of([p])

    def sample(n):
        # The midpoint grid aliases exponents of size n/2 or more.
        if ev.dim == 1 and n > 2 * ev.max_exponent:
            levels = [((np.arange(n) + 0.5) / n)[None, :]]
        else:
            rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
            levels = [rng.random((ev.dim, n)) for _ in range(ev.levels)]
        # Column slices bound the terms x points phase arrays.
        width = max(1, _EVAL_ENTRIES // len(p))
        top = 0.0
        for lo in range(0, n, width):
            cols = [x[:, lo:lo + width] for x in levels]
            (vals,) = ev(cols[0].shape[1], cols)
            top = max(top, float(np.abs(np.abs(vals) / l2 - 1.0).max()))
        return top

    return _stable_max(sample, n0, tol, max_points)


@dataclass(frozen=True)
class LocalGlobalRecord:
    local: QuadratureResult
    global_mean_abs: IntegralEstimate  # under the independence model

    def to_json(self) -> dict:
        return {
            "local": asdict(self.local),
            "global_mean_abs": self.global_mean_abs.to_json(),
            "model": "independent-phases",
        }


def local_vs_global_flatness(spec: PolyFamilySpec, a: float, b: float,
                             budget: Budget = Budget()) -> LocalGlobalRecord:
    """Local L1 distortion on [a, b] against the global Bohr-group L1 norm.

    The global mean treats the exponentially spaced frequencies as
    rationally independent (the generic situation, not numerically
    checkable); the result is labeled with that modeling assumption.
    """
    if spec.kind != "prikhodko":
        raise ValidationError("the local/global contrast applies to the "
                              "exponential-frequency family only")
    p = build_family(spec)
    local = interval_l1_distortion(p, a, b)
    global_est = independent_phase_mean_abs(len(p), budget)
    return LocalGlobalRecord(local=local, global_mean_abs=global_est)
