"""Flatness suite: polynomial family constructors and flatness measurements.

Every family lives in the sparse Fourier algebra.  Littlewood, Newman and
unimodular polynomials sit on an arithmetic progression of exact
frequencies; the locally-flat family's exponentially spaced real
frequencies are declared symbols, one each, so the Bohr group sees them as
rationally independent (the generic case, which no float check can
certify).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction

import numpy as np

from .appoly import APPoly
from .bohrint import (MC_BATCH, Budget, IntegralEstimate, QuadratureResult,
                      TorusEvaluator, _affine, _coefficients, _phase_space,
                      interval_l1_distortion, mean_abs)
from .errors import (ValidationError, check_int, json_array, json_int,
                     json_number)
from .freqspace import Frequency, SymbolBasis

_KINDS = ("littlewood", "newman", "unimodular", "prikhodko")

#: Default generator value for the arithmetic-progression frequency rule.
_DEFAULT_ALPHA = math.sqrt(2.0)

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
        check_int(self.n, "family size", 1)
        if self.kind == "prikhodko":
            if not 0 < self.eps_n < 1:
                raise ValidationError("eps_n must be a rational in (0, 1)")
            check_int(self.m_n, "m_n", 1)

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
            basis = SymbolBasis.from_config(doc["basis"])
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


def build_family(spec: PolyFamilySpec) -> APPoly:
    """Instantiate one polynomial of the requested family."""
    if spec.kind == "prikhodko":
        w = prikhodko_frequencies(spec.n, spec.m_n, spec.eps_n)
        # Symbols w0 .. w{n-1} declared last to first, so the canonical
        # term order, and every real-line sum, ascends in w.
        names = [f"w{p}" for p in range(spec.n)]
        basis = SymbolBasis(tuple(zip(reversed(names), map(float, w[::-1]))))
        c = 1.0 / math.sqrt(spec.n)
        return APPoly.from_terms(basis, [(basis.symbol(name), c) for name in names])
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
    return replace(est, value=est.value / l2, std_error=est.std_error / l2,
                   refinement_delta=est.refinement_delta / l2)


def _stable_max(sample, n0: int, tol: float, cap: int) -> float:
    prev, n = sample(n0), 2 * n0
    while n <= cap:
        cur = sample(n)
        if abs(cur - prev) < tol:
            return cur
        prev, n = cur, 2 * n
    return prev


def _polygon_deviation(coeffs: np.ndarray, l2: float) -> float:
    """The deviation of sum_j c_j e^{i theta_j} over the whole torus:
    sup |P| = S = sum |c| and, by the polygon inequality, inf |P| =
    max(0, 2 max |c| - S)."""
    c = np.abs(coeffs)
    top = math.fsum(c)
    low = max(0.0, 2.0 * float(c.max()) - top)
    return max(top / l2 - 1.0, 1.0 - low / l2)


def ultraflat(p: APPoly, tol: float = 1e-3, max_points: int = 1 << 22,
              seed: int = 0) -> tuple[float, bool]:
    """max over t of | |P(t)| / |P|_2 - 1 |, and whether it is exact rather
    than a sampled maximum, a lower bound on the supremum.

    It is exact when ``_affine`` finds the differences f_j - f_0 of the
    frequencies independent on p's reduced torus: |P| = |P e^{-i f_0 t}|,
    and by Kronecker's theorem the phases of the terms then fill the torus,
    so the deviation is ``_polygon_deviation`` of the coefficients.  Other
    polynomials are scanned on that torus (a midpoint grid in one dimension
    once it has more points than twice the largest exponent, seeded points
    in full phase precision otherwise), doubling the point count until the
    maximum is stable to ``tol``.
    """
    check_int(seed, "seed")
    l2 = p.l2_norm()
    if l2 == 0.0:
        raise ValidationError("the zero polynomial has no flatness deviation")
    (coeffs,) = _coefficients([p])
    dim, (E,) = _phase_space([p])
    if _affine(dim, E):
        return _polygon_deviation(coeffs, l2), True
    ev = TorusEvaluator([coeffs], dim, [E])
    top = int(np.abs(E).max())

    def sample(n):
        # The midpoint grid aliases exponents of size n/2 or more.  The
        # points go in chunks of at most MC_BATCH, slices of the grid or
        # successive draws of one stream, so memory does not grow with n.
        grid = dim == 1 and n > 2 * top
        rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        dev = 0.0
        for lo in range(0, n, MC_BATCH):
            m = min(MC_BATCH, n - lo)
            if grid:
                (vals,) = ev([((np.arange(lo, lo + m) + 0.5) / n)[None, :]])
            else:
                (vals,) = ev.sample(rng, m)
            dev = max(dev, float(np.abs(np.abs(vals) / l2 - 1.0).max()))
        return dev

    return _stable_max(sample, 64 * len(p), tol, max_points), False


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

    The family's frequencies are declared symbols, so the global mean
    treats them as rationally independent (the generic situation, not
    numerically checkable); the result is labeled with that modeling
    assumption.
    """
    if spec.kind != "prikhodko":
        raise ValidationError("the local/global contrast applies to the "
                              "exponential-frequency family only")
    p = build_family(spec)
    local = interval_l1_distortion(p, a, b)
    return LocalGlobalRecord(local=local, global_mean_abs=mean_abs(p, budget))
