"""Exact and quadrature references computed without the program under test.

Nothing here imports ``bohrap``: every value the benchmark checks against
is derived from the workload's integer exponent vectors or from a closed
form, so a fault in the program cannot move its own reference.  SciPy is
imported only where a quadrature runs, so the workload process, which
imports this module for its constants, does not load it early.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

#: Kluyver's integral is taken piecewise between the first 5000 zeros of J0.
#: At q = 2 the truncated tail is about 1/(2 pi X^2) for the last zero X
#: (6.5e-10); for q >= 3 it is far smaller.
_J0_ZERO_COUNT = 5000
_KLUYVER_TOL = 1e-9


def kluyver_w(q: int, zeros: np.ndarray | None = None) -> float:
    """W_q(1) = E|e^{i t_1} + ... + e^{i t_q}| for independent uniform phases.

    Kluyver's formula W_q(1) = q * int_0^inf J1(x) J0(x)^(q-1) dx / x
    (Borwein, Straub, Wan and Zudilin, Densities of short uniform random
    walks, 2012), integrated with ``scipy.integrate.quad`` between
    consecutive zeros of J0.
    """
    from scipy import integrate, special
    if q < 1:
        raise ValueError("q must be positive")
    if zeros is None:
        zeros = j0_zeros()

    def integrand(x):
        return q * special.j1(x) * special.j0(x) ** (q - 1) / x

    return math.fsum(integrate.quad(integrand, a, b)[0]
                     for a, b in zip(zeros[:-1], zeros[1:]))


def j0_zeros() -> np.ndarray:
    from scipy import special
    return np.concatenate(([0.0], special.jn_zeros(0, _J0_ZERO_COUNT)))


def checked_kluyver(qs: Sequence[int], cache: Path | None = None) -> dict[int, float]:
    """W_q(1) for each q, after checking W_1 = 1 and W_2 = 4/pi to 1e-9.

    Values are kept in the JSON file ``cache`` if given, so later runs in
    the same checkout skip the quadrature; cached values are checked too.
    """
    out: dict[int, float] = {}
    if cache is not None and cache.is_file():
        out = {int(q): w for q, w in json.loads(cache.read_text()).items()}
    missing = [q for q in {1, 2, *qs} if q not in out]
    if missing:
        zeros = j0_zeros()
        out.update({q: kluyver_w(q, zeros) for q in missing})
    if abs(out[1] - 1.0) > _KLUYVER_TOL or abs(out[2] - 4.0 / math.pi) > _KLUYVER_TOL:
        raise RuntimeError(
            f"Kluyver reference off: W_1 = {out[1]!r}, W_2 = {out[2]!r}")
    if missing and cache is not None:
        tmp = cache.with_name(cache.name + ".tmp")
        tmp.write_text(json.dumps({str(q): w for q, w in sorted(out.items())}))
        os.replace(tmp, cache)
    return out


def product_mean_abs(w_p: float, p: int, k: int) -> float:
    """E prod_{j<k} |P_{n_j}| for k stages of cut number p with independent
    spacers, given w_p = W_p(1).

    Stage n's p frequencies are 0, the height h_n and p - 2 frequencies
    that each carry a fresh spacer symbol of stage n.  h_n carries the last
    spacer of stage n - 1, which no lower frequency uses.  So the top
    stage's p - 1 phases are independent of each other and of all lower
    stages, and the mean factorizes into (W_p(1)/sqrt(p))^k.
    """
    return (w_p / math.sqrt(p)) ** k


# ---------------------------------------------------------------------------
# Lattice counts


Vec = tuple[int, ...]


def abs2_coeffs(exponents: Sequence[Vec]) -> dict[Vec, Fraction]:
    """Fourier coefficients of |P|^2 for P = p^(-1/2) sum_j e^{i <e_j, t>}.

    Keys are integer difference vectors e_a - e_b; each ordered pair adds
    1/p, so the dict counts lattice coincidences exactly.
    """
    p = len(exponents)
    out: dict[Vec, Fraction] = {}
    w = Fraction(1, p)
    for a in exponents:
        for b in exponents:
            v = tuple(x - y for x, y in zip(a, b))
            out[v] = out.get(v, 0) + w
    return out


def convolve(f: dict[Vec, Fraction], g: dict[Vec, Fraction]) -> dict[Vec, Fraction]:
    out: dict[Vec, Fraction] = {}
    for a, x in f.items():
        for b, y in g.items():
            v = tuple(s + t for s, t in zip(a, b))
            out[v] = out.get(v, 0) + x * y
    return out


def lattice_mean(stages: Sequence[Sequence[Vec]],
                 powers: Sequence[int]) -> Fraction:
    """Exact Haar mean of prod_k |P_k|^(2 r_k) from integer exponent vectors.

    ``stages[k]`` lists the integer coordinate vectors of P_k's frequencies
    over a basis of independent symbols, and ``powers[k]`` is r_k.
    """
    dim = len(stages[0][0])
    acc: dict[Vec, Fraction] = {(0,) * dim: Fraction(1)}
    for exps, r in zip(stages, powers):
        sq = abs2_coeffs(exps)
        for _ in range(r):
            acc = convolve(acc, sq)
    return acc.get((0,) * dim, Fraction(0))


#: P = (1 + e^{iat} + e^{43iat}) / sqrt(3) and its exact even moments.
TRINOMIAL = ((0,), (1,), (43,))
TRINOMIAL_MOMENTS = {2: Fraction(5, 3), 3: Fraction(31, 9), 4: Fraction(71, 9)}


def checked_trinomial_moments() -> dict[int, Fraction]:
    """Mean |P|^(2r) of the trinomial for r = 2, 3, 4, checked against
    5/3, 31/9 and 71/9 before use."""
    out = {r: lattice_mean([TRINOMIAL], [r]) for r in TRINOMIAL_MOMENTS}
    if out != TRINOMIAL_MOMENTS:
        raise RuntimeError(f"trinomial lattice counts off: {out}")
    return out
