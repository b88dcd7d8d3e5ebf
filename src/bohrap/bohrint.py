"""Integration engine for Bohr-group and real-line functionals.

Bohr integrals of pointwise functionals g(P_1(w), ..., P_k(w)) reduce to
integrals over a finite torus: characters at rationally independent
frequencies become independent uniform phases under Haar measure, so every
polynomial is evaluated by substituting e^{i (E_row . theta)} for its
characters.  Two quadratures are provided: a uniform tensor grid (exact for
pure trigonometric integrands of bounded exponent, by discrete
orthogonality) and seeded batch Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .appoly import APPoly
from .errors import BudgetError, ValidationError
from .freqspace import _integer_rows, torus_reduce

#: Torus phases are built from signed base-2^27 limbs of the integer
#: exponents against a multi-double representation of each torus coordinate,
#: so every limb product stays exact in float64 and huge exponents keep both
#: their distribution and their exact integer relations.
_LIMB = 27
_LIMB_BASE = 1 << _LIMB
_LIMB_HALF = 1 << (_LIMB - 1)
_MAX_LIMBS = 5
_MAX_EXPONENT = 1 << (_LIMB * _MAX_LIMBS)
_GUARD_BITS = 60

#: Dimension cap for the tensor method and the point cap used by "auto".
TENSOR_DIM_CAP = 4
_DEFAULT_TENSOR_POINT_CAP = 1 << 22

#: Below this torus dimension the exact lattice reduction is used (it gives
#: the minimal dimension and small exponents for tensor grids); above it the
#: cheap column reduction is used and Monte Carlo takes over anyway.
_EXACT_REDUCE_DIM = 8


@dataclass(frozen=True)
class Budget:
    """Method selection and size limits for one integral."""

    method: str = "auto"  # auto | tensor | monte-carlo
    samples: int = 1 << 16
    nodes: int | None = None  # per-dimension override for the tensor grid
    seed: int = 0
    batch: int = 1 << 14
    max_tensor_points: int = _DEFAULT_TENSOR_POINT_CAP

    def __post_init__(self):
        if self.method not in ("auto", "tensor", "monte-carlo"):
            raise ValidationError(f"unknown integration method {self.method!r}")
        if self.samples < 1 or self.batch < 1:
            raise ValidationError("samples and batch must be positive")


@dataclass(frozen=True)
class IntegralEstimate:
    """Value with an error indication and full replay information."""

    value: float
    std_error: float
    method: str  # tensor-quadrature | monte-carlo
    nodes_or_samples: int
    seed: int | None
    torus_dim: int
    refinement_delta: float = 0.0

    def __post_init__(self):
        if self.std_error < 0 or self.nodes_or_samples < 1:
            raise ValidationError("malformed integral estimate")

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "method": self.method,
            "n": self.nodes_or_samples,
            "seed": self.seed,
            "torus_dim": self.torus_dim,
            "refinement_delta": self.refinement_delta,
        }


# ---------------------------------------------------------------------------
# Torus coordinates


def _phase_space(polys: Sequence[APPoly]):
    """Per-poly integer exponent matrices over one shared phase space.

    Returns (dim, [E_i]) where E_i has one row per term of poly i.  For small
    ranks the exact lattice reduction is used; otherwise the active basis
    columns themselves serve as phase coordinates (valid because declared
    symbols are independent by assumption, after a global denominator
    clearing), which avoids the exact elimination cost entirely.
    """
    basis = polys[0].basis
    for p in polys[1:]:
        if p.basis != basis:
            raise ValidationError("polynomials over different bases")
    all_freqs = [f for p in polys for f in p.terms]
    active = sorted({c for f in all_freqs for c, v in enumerate(f.num) if v})
    if not active:
        return 0, [np.zeros((len(p.terms), 0), dtype=object) for p in polys]
    if len(active) <= _EXACT_REDUCE_DIM:
        red = torus_reduce(all_freqs)
        dim, rows = red.dim, red.exponents
    else:
        scaled, _ = _integer_rows(all_freqs, common_scale=True)
        dim, rows = len(active), [[r[c] for c in active] for r in scaled]
    mats = []
    k = 0
    for p in polys:
        n = len(p.terms)
        mats.append(np.array(rows[k:k + n], dtype=object).reshape(n, dim))
        k += n
    return dim, mats


def _coeff_array(p: APPoly) -> np.ndarray:
    if p.exact:
        return np.array([c.to_complex() for c in p.terms.values()], dtype=complex)
    return np.array(list(p.terms.values()), dtype=complex)


# ---------------------------------------------------------------------------
# Monte Carlo


def _signed_limbs(E: np.ndarray) -> list[np.ndarray]:
    """Signed base-2^27 limb matrices: E = sum_i limbs[i] * 2^(27 i).

    Each limb entry lies in [-2^26, 2^26), so a limb times a coordinate in
    [0, 1) is exact in float64.
    """
    if E.size and max(abs(int(v)) for row in E for v in row) >= _MAX_EXPONENT:
        raise BudgetError("torus exponents exceed the supported magnitude")
    rem = [[int(v) for v in row] for row in E]
    limbs = []
    while any(v for row in rem for v in row):
        cur = np.zeros(E.shape, dtype=np.float64)
        for r, row in enumerate(rem):
            for c, v in enumerate(row):
                if v:
                    l = ((v + _LIMB_HALF) % _LIMB_BASE) - _LIMB_HALF
                    cur[r, c] = l
                    row[c] = (v - l) >> _LIMB
        limbs.append(cur)
    return limbs or [np.zeros(E.shape, dtype=np.float64)]


def _frac_pow2(x: np.ndarray, k: int):
    """frac(x * 2^k) for x in [0, 1), exactly; None when it is 0 mod 1 or
    below the noise floor."""
    if k >= 53 or k < -80:
        return None
    v = np.ldexp(x, k)
    if k <= 0:
        return v
    return v - np.floor(v)


class TorusEvaluator:
    """Values of polynomials at points of their shared reduced torus.

    A point is theta = sum_j x_j * 2^(-53 j), given as level arrays x_j of
    shape (dim, n) in [0, 1).  ``levels`` levels keep _GUARD_BITS of phase
    headroom past the largest exponent; a grid of 53-bit points needs one.
    """

    def __init__(self, polys: Sequence[APPoly], dim: int, emats):
        self.dim = dim
        self._coeffs = [_coeff_array(p) for p in polys]
        # All-zero limbs are None, so they cost no product.
        self._limbs = [[l if np.any(l) else None for l in _signed_limbs(E)]
                       for E in emats]
        self._n_limbs = max(len(ls) for ls in self._limbs)
        self.levels = -(-(_LIMB * self._n_limbs + _GUARD_BITS) // 53)

    @classmethod
    def of(cls, polys: Sequence[APPoly]) -> "TorusEvaluator":
        """Reduce the phase space of ``polys`` and build their evaluator."""
        return cls(polys, *_phase_space(polys))

    def __call__(self, n: int, levels) -> list[np.ndarray]:
        """Values of each polynomial at the n points; ``levels`` may be lazy."""
        phases = [np.zeros((len(c), n)) for c in self._coeffs]
        # Each (limb, level) pair contributes limb @ frac(x_j * 2^(27 i - 53 j)).
        for j, xj in enumerate(levels):
            for i in range(self._n_limbs):
                g = _frac_pow2(xj, _LIMB * i - 53 * j)
                if g is None:
                    continue
                for t, limbs in zip(phases, self._limbs):
                    if i < len(limbs) and limbs[i] is not None:
                        t += limbs[i] @ g
        return [c @ np.exp((2j * np.pi) * np.mod(t, 1.0))
                for c, t in zip(self._coeffs, phases)]


def _monte_carlo(gs, ev: TorusEvaluator, budget: Budget):
    n_batches = -(-budget.samples // budget.batch)
    total = n_batches * budget.batch
    children = np.random.SeedSequence(budget.seed).spawn(n_batches)
    sums = np.zeros(len(gs), dtype=complex)
    sumsq = np.zeros(len(gs))
    # Fixed batch order and per-batch child streams keep the estimate
    # bit-identical regardless of any outer parallel schedule.
    for child in children:
        rng = np.random.default_rng(child)
        vals = ev(budget.batch, (rng.random((ev.dim, budget.batch))
                                 for _ in range(ev.levels)))
        for i, g in enumerate(gs):
            y = np.asarray(g(*vals))
            if not np.all(np.isfinite(y)):
                raise ValidationError("integrand returned non-finite values")
            sums[i] += y.sum()
            sumsq[i] += float((y.real * y.real).sum())
    out = []
    for i in range(len(gs)):
        m = sums[i] / total
        var = max(0.0, sumsq[i] / total - m.real * m.real)
        out.append(IntegralEstimate(
            value=float(m.real),
            std_error=math.sqrt(var / total),
            method="monte-carlo",
            nodes_or_samples=total,
            seed=budget.seed,
            torus_dim=ev.dim,
        ))
    return out


# ---------------------------------------------------------------------------
# Tensor quadrature


def _grid_sizes(emats, dim, budget: Budget):
    ns = []
    for i in range(dim):
        m = 0
        for E in emats:
            if E.size:
                m = max(m, int(np.abs(E[:, i]).max()))
        if budget.nodes is not None:
            n = budget.nodes
        else:
            n = 64
            while n <= 2 * m:
                n *= 2
        ns.append(n)
    return ns


def _tensor_values(coeffs, E, ns):
    d = len(ns)
    grid = np.zeros(tuple(ns), dtype=complex)
    roots = [np.exp((2j * np.pi / n) * np.arange(n)) for n in ns]
    idx = [np.arange(n) for n in ns]
    for a, erow in zip(coeffs, E):
        term = None
        for i in range(d):
            e = int(erow[i]) % ns[i]
            f = roots[i][(e * idx[i]) % ns[i]]
            shape = [1] * d
            shape[i] = ns[i]
            f = f.reshape(shape)
            term = f if term is None else term * f
        grid = grid + (a if term is None else a * term)  # d = 0: a constant
    return grid


def _tensor(gs, polys, dim, emats, budget: Budget):
    ns = _grid_sizes(emats, dim, budget)
    points = math.prod(ns)
    if points > budget.max_tensor_points:
        raise BudgetError(
            f"tensor grid of {points} points exceeds the cap "
            f"{budget.max_tensor_points}"
        )
    coeff_list = [_coeff_array(p) for p in polys]
    grids = [_tensor_values(c, E, ns) for c, E in zip(coeff_list, emats)]
    half = tuple(slice(None, None, 2) for _ in ns)
    out = []
    for g in gs:
        y = np.asarray(g(*grids))
        if not np.all(np.isfinite(y)):
            raise ValidationError("integrand returned non-finite values")
        value = float(np.mean(y).real)
        y_half = np.asarray(g(*[gr[half] for gr in grids]))
        delta = abs(value - float(np.mean(y_half).real))
        out.append(IntegralEstimate(
            value=value,
            std_error=0.0,
            method="tensor-quadrature",
            nodes_or_samples=points,
            seed=None,
            torus_dim=dim,
            refinement_delta=delta,
        ))
    return out


# ---------------------------------------------------------------------------
# Public entry points


def bohr_integral_multi(gs: Sequence[Callable], polys: Sequence[APPoly],
                        budget: Budget = Budget()) -> list[IntegralEstimate]:
    """Estimate several functionals of the same polynomials on shared nodes.

    Sharing the sample set makes the errors of the returned estimates
    correlate, which is exactly what inequality checks want.
    """
    if not polys:
        raise ValidationError("need at least one polynomial")
    dim, emats = _phase_space(polys)
    method = budget.method
    if method == "tensor" and dim > TENSOR_DIM_CAP:
        raise BudgetError(
            f"tensor quadrature supports at most {TENSOR_DIM_CAP} torus "
            f"dimensions, got {dim}; use monte-carlo"
        )
    if method == "auto":
        if dim <= TENSOR_DIM_CAP:
            ns = _grid_sizes(emats, dim, budget)
            method = "tensor" if math.prod(ns) <= budget.max_tensor_points else "monte-carlo"
        else:
            method = "monte-carlo"
    if method == "tensor":
        return _tensor(gs, polys, dim, emats, budget)
    return _monte_carlo(gs, TorusEvaluator(polys, dim, emats), budget)


def bohr_integral(g: Callable, polys: Sequence[APPoly],
                  budget: Budget = Budget()) -> IntegralEstimate:
    """Bohr-group integral of a pointwise functional of several polynomials."""
    return bohr_integral_multi([g], polys, budget)[0]


def mean_abs(p: APPoly, budget: Budget = Budget()) -> IntegralEstimate:
    """The L1 norm of p over the Bohr group."""
    return bohr_integral(np.abs, [p], budget)


def unit_phase_sum(rng: np.random.Generator, q: int, n: int) -> np.ndarray:
    """n draws of the sum of q independent uniform unit phases.

    Drawn and summed one row of n phases at a time: the same draws and the
    same sums as a (q, n) array summed over axis 0, in O(n) memory.
    """
    z = np.zeros(n, dtype=complex)
    for _ in range(q):
        z += np.exp((2j * np.pi) * rng.random(n))
    return z


def independent_phase_mean_abs(q: int, budget: Budget = Budget()) -> IntegralEstimate:
    """Monte Carlo estimate of E| (1/sqrt(q)) sum of q independent unit phases |.

    This is the Haar pushforward model for a normalized sum of characters at
    q rationally independent frequencies.
    """
    if q < 1:
        raise ValidationError("q must be positive")
    n_batches = -(-budget.samples // budget.batch)
    total = n_batches * budget.batch
    children = np.random.SeedSequence(budget.seed).spawn(n_batches)
    s = 0.0
    s2 = 0.0
    norm = 1.0 / math.sqrt(q)
    for child in children:
        z = np.abs(unit_phase_sum(np.random.default_rng(child), q, budget.batch) * norm)
        s += float(z.sum())
        s2 += float((z * z).sum())
    m = s / total
    var = max(0.0, s2 / total - m * m)
    return IntegralEstimate(
        value=m, std_error=math.sqrt(var / total), method="monte-carlo",
        nodes_or_samples=total, seed=budget.seed, torus_dim=q,
    )


# ---------------------------------------------------------------------------
# Real-line quadrature


def real_line_mean(p, T: float, resolution: int = 12) -> float:
    """Cesaro mean (1/2T) integral of p over [-T, T].

    Composite Gauss-Legendre panels sized against the largest frequency, so
    the quadrature error is negligible next to the O(1/T) distance from the
    asymptotic mean.  Accepts anything with ``eval_real``, ``degree`` and
    ``len``: an ``APPoly`` or a ``RealFreqPoly``.
    """
    if T <= 0:
        raise ValidationError("T must be positive")
    max_w = p.degree() if len(p) else 0.0
    h = 1.0 if max_w <= 3.0 else 3.0 / max_w
    n_panels = max(1, int(math.ceil(2.0 * T / h)))
    if n_panels * resolution > 5_000_000:
        raise BudgetError("real-line quadrature would need too many nodes")
    x, w = np.polynomial.legendre.leggauss(resolution)
    edges = np.linspace(-T, T, n_panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    pts = (centers[:, None] + half * x[None, :]).ravel()
    vals = p.eval_real(pts).reshape(n_panels, resolution)
    integral = float((vals.real @ w).sum() * half)
    return integral / (2.0 * T)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    refinement_delta: float
    nodes: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "refinement_delta": self.refinement_delta,
            "nodes": self.nodes,
        }


def interval_l1_distortion(p, a: float, b: float, rel_tol: float = 1e-6,
                           max_nodes: int = 1 << 21) -> QuadratureResult:
    """(1/(b-a)) integral over [a, b] of | |p(x)|^2 - 1 | dx on the real line.

    Composite trapezoid with doubling until the refinement delta stabilizes;
    the integrand has kinks, so doubling rather than high order is the right
    tool.
    """
    if not a < b:
        raise ValidationError("need a < b")

    def f(x):
        return np.abs(np.abs(p.eval_real(x)) ** 2 - 1.0)

    n = 1024
    x = np.linspace(a, b, n + 1)
    prev = float(np.trapezoid(f(x), x)) / (b - a)
    while True:
        n *= 2
        x = np.linspace(a, b, n + 1)
        cur = float(np.trapezoid(f(x), x)) / (b - a)
        delta = abs(cur - prev)
        if delta <= rel_tol * max(1.0, abs(cur)) or n >= max_nodes:
            return QuadratureResult(value=cur, refinement_delta=delta, nodes=n + 1)
        prev = cur
